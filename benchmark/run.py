#!/usr/bin/env python3
"""Run one hodgegp benchmark workload and print its metrics.

From the root of a hodgegp checkout:

    python3 benchmark/run.py --workload hemisphere-fit --seed 1 --seconds 25 --trace 0

The run sets up (imports, spectrum, one warm-up call), then runs whole
units of the workload until ``--seconds`` have passed, then scores and
checks every unit's outputs. With ``--trace 0`` it prints the end-to-end
metrics of BENCHMARK.json (medians over units); with ``--trace 1`` it
rebinds the library's internal calls to traced wrappers and prints the
per-layer metrics instead, and writes its spans under ``bench_out/``.
The last line of stdout is the JSON result. BENCHMARK.json names every
metric; this file says how each is measured.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from tracing import Recorder, clock, span_cost, span_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
WORKLOADS = ("hemisphere-fit", "sphere-dense", "torus-gram")
CHILD_SETUPS = 2          # set-ups in fresh interpreters, besides the run's own
LAYERS = ("cli", "gp", "kernels", "spectrum", "manifold", "_accel")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def pin_blas_threads():
    """Pin BLAS/OpenMP threads to at most the cores this process may use."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def set_up(name, rec, workdir):
    """Import the library, build the spectrum, warm up; return (workload, seconds)."""
    t0 = clock()
    import workloads
    workload = workloads.WORKLOADS[name](rec, workdir)
    return workload, clock() - t0


def child_set_up(args):
    """Time one set-up in a fresh interpreter, so imports count every time."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def environment(threads):
    import numpy
    import scipy

    import hodgegp
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "using_numba": hodgegp.using_numba()}


def install_tracing(rec):
    """Rebind every name the traced layers are called through."""
    import numpy as np

    from hodgegp import cli, gp, kernels, spectrum

    def points(i):
        return lambda args, result: {"points": len(np.atleast_2d(args[i]))}

    def minimize_counts(args, result):
        return {"nfev": result.nfev, "nit": result.nit, "converged": bool(result.success)}

    rec.wrap(kernels, "legendre_sums", "_accel.legendre_sums",
             extra=lambda args, result: {"args": np.size(args[0])})
    rec.wrap(spectrum, "alp_tables", "_accel.alp_tables")
    rec.wrap(gp, "frames_at", "manifold.frames_at")
    for cls in (spectrum.SphereSpectrum, spectrum.TorusSpectrum):
        rec.wrap(cls, "eigenfield_values", "spectrum.eigenfield_values", extra=points(1))
    for module in (kernels, gp):
        rec.wrap(module, "hodge_pair_sums", "kernels.hodge_pair_sums")
        rec.wrap(module, "scalar_pair_sums", "kernels.scalar_pair_sums")
        rec.wrap(module, "kernel_matrix", "kernels.kernel_matrix")
    rec.wrap(kernels, "spectral_kernel_oracle", "kernels.spectral_kernel_oracle")
    rec.wrap(gp, "log_marginal_likelihood", "gp.log_marginal_likelihood")
    rec.wrap(gp, "cholesky", "gp.cholesky")
    rec.wrap(gp, "solve_triangular", "gp.solve_triangular")
    rec.wrap(gp, "minimize", "gp.minimize", extra=minimize_counts)
    rec.wrap(gp, "sample_posterior", "gp.sample_posterior")
    rec.wrap(gp.PriorSample, "at", "gp.PriorSample.at")
    for module in (gp, cli):
        rec.wrap(module, "condition", "gp.condition")
        rec.wrap(module, "predict", "gp.predict", extra=points(1))
        rec.wrap(module, "fit", lambda args: f"gp.fit.{args[1]}")
    rec.wrap(cli, "run_experiment", "cli.run_experiment")


def layer_metric(name, totals, counters, extras):
    """Value of a per-layer metric '<span name>.<field>' over one unit's spans."""
    if name in extras:
        return extras[name]
    span, field = name.rsplit(".", 1)
    t = totals.get(span, {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
    if field in t:
        return t[field]
    if field == "ok_ratio":          # 0 when the layer was never called
        return (t["calls"] - t["failed"]) / t["calls"] if t["calls"] else 0.0
    if field == "converged_ratio":
        return counters.get(f"{span}.converged", 0) / t["calls"] if t["calls"] else 0.0
    if field in ("args", "points", "nfev", "nit"):
        return counters.get(f"{span}.{field}", 0)
    raise KeyError(f"no rule measures the per-layer metric {name!r}")


def layer_shares(totals, wall):
    """Share of the unit's wall time spent in each layer's own code."""
    shares = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for span, t in totals.items():
        layer = span.split(".", 1)[0]
        shares[layer if layer in shares else "bench"] += t["self_s"] / wall
    return {f"share.{layer}": v for layer, v in shares.items()}


def end_to_end(units, setups, peak_rss_mb, wanted):
    """Median over units of each end-to-end metric; set-up and memory per run."""
    def median(fn):
        return statistics.median(fn(u) for u in units)

    def phase(name):
        return median(lambda u: span_totals(u["spans"]).get(f"phase.{name}", {"s": 0.0})["s"])

    values = {"setup_s": statistics.median(setups), "wall_s": median(lambda u: u["wall"]),
              "fit_s": phase("fit"), "predict_s": phase("predict"),
              "peak_rss_mb": peak_rss_mb}
    for m in wanted:
        if m["name"] not in values and all(m["name"] in u["result"].quality for u in units):
            values[m["name"]] = median(lambda u: u["result"].quality[m["name"]])
    return values


def per_layer(units, torus_spectrum_s, wanted):
    """Median over units of every per-layer metric, each measured per unit."""
    cost = span_cost()
    per_unit = []
    for u in units:
        totals = span_totals(u["spans"])
        wall = totals["bench.unit"]["s"]
        extras = {"spectrum.torus_spectrum.s": torus_spectrum_s,
                  "trace.overhead_frac": len(u["spans"]) * cost / wall}
        extras.update(layer_shares(totals, wall))
        per_unit.append({m["name"]: layer_metric(m["name"], totals, u["counters"], extras)
                         for m in wanted})
    return {m["name"]: statistics.median(v[m["name"]] for v in per_unit) for m in wanted}


def measure(args, rec, workdir, child_setups, threads, spec):
    workload, own_setup = set_up(args.workload, rec, workdir)
    import hodgegp
    import numpy as np
    if not Path(hodgegp.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"hodgegp imported from {hodgegp.__file__}, not from {SRC}")
    print("env " + json.dumps(environment(threads)))
    workload.generate()

    if args.trace:
        install_tracing(rec)
    workload.phases()      # outermost, so a phase span's own time stays near zero
    rng = np.random.default_rng(args.seed)
    units = []
    start = clock()
    # at least two units; none that would end past the deadline at the pace
    # of the fastest unit so far
    while len(units) < 2 or clock() - start + min(u["wall"] for u in units) <= args.seconds:
        inputs = workload.prepare(rng)
        mark = len(rec.spans)
        counters = dict(rec.counters)
        with rec.span("bench.unit"):
            result = workload.run(inputs)
        spans = rec.spans[mark:]
        units.append({"inputs": inputs, "result": result, "spans": spans,
                      "wall": spans[-1][3] - spans[-1][2],
                      "counters": {k: v - counters.get(k, 0) for k, v in rec.counters.items()}})
        if result.failed:
            break      # the run is already incorrect; stop spending time on it
    rec.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    for i, u in enumerate(units):
        result = u["result"]
        workload.finish(u["inputs"], result)
        attempted += result.attempted + len(result.checks)
        failed += result.failed + sum(not ok for _, ok, _ in result.checks)
        for check, ok, detail in result.checks:
            print(f"check unit {i}: {'PASS' if ok else 'FAIL'} {check} ({detail})")
        print(f"unit {i}: wall {u['wall']:.3f} s, ops {result.attempted}, "
              f"failed {result.failed}, "
              + ", ".join(f"{k} {v:.6g}" for k, v in result.quality.items()))
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")

    if args.trace:
        rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        wanted = spec["per_layer"]
        values = per_layer(units, workload.torus_spectrum_s, wanted)
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(units, child_setups + [own_setup], peak_rss_mb, wanted)
    for m in wanted:
        if m["name"] in values:
            print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    correct = failed == 0 and all(m["name"] in values for m in wanted)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                        for m in wanted if m["name"] in values}}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hodgegp" / "__init__.py").is_file():
        print(f"error: no hodgegp sources at {SRC / 'hodgegp'}; run from a checkout",
              file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    rec = Recorder()
    if args.setup_only:
        _, seconds = set_up(args.workload, rec, None)
        print(json.dumps({"setup_s": seconds}))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    child_setups = [child_set_up(args) for _ in range(CHILD_SETUPS)]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = measure(args, rec, workdir, child_setups, threads, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
