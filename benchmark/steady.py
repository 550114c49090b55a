#!/usr/bin/env python3
"""Steadiness check: do repeated sets of benchmark runs agree within the bounds?

From the root of a hodgegp checkout:

    python3 benchmark/steady.py --seeds 10 --sets 2 --out benchmark/baseline.json

Runs ``benchmark/run.py`` once per (set, workload, seed), one run at a
time, each set with its own seeds. For every end-to-end metric of every
workload it reports, per set, the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median. It fails when a spread, other than that of setup_s,
exceeds the metric's bound in BENCHMARK.json, or when a later set's median
is worse than the first set's by more than the bound. Spreads above a third
of the bound are flagged as not yet steady. With ``--traced`` it also makes
one traced run per workload and records its per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} reported incorrect outputs:\n{done.stdout}")
    return result, elapsed


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "values": values}


def worse_by(first, later, better):
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", help="comma list; default: every workload")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the report as JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    report = {"run_seconds": seconds, "seeds_per_set": args.seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs, elapsed = [], []
            for i in range(args.seeds):
                seed = 1 + s * args.seeds + i
                result, took = run_once(spec["command"], workload, seed, seconds, 0)
                runs.append(result)
                report.setdefault("env", result["env"])
                elapsed.append(took)
                print(f"{workload} set {s} seed {seed}: {took:.1f} s, "
                      + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)
            sets.append({"run_s": summarize(elapsed),
                         "metrics": {m["name"]: summarize([r["metrics"][m["name"]]["value"]
                                                           for r in runs])
                                     for m in spec["end_to_end"]}})
        entry = report["workloads"][workload] = {"sets": sets, "verdicts": []}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = sets[0]["metrics"][name]
            for s, st in enumerate(sets):
                spread = st["metrics"][name]["spread"]
                drift = worse_by(first["median"], st["metrics"][name]["median"], m["better"])
                bad = (name != "setup_s" and spread > bound) or drift > bound
                steady = name == "setup_s" or spread <= bound / 3
                verdict = "FAIL" if bad else ("ok" if steady else "ok, spread above bound/3")
                ok &= not bad
                line = (f"{workload:15s} {name:12s} set {s}: median {st['metrics'][name]['median']:.5g}"
                        f" spread {spread:.4f} worse-by {drift:+.4f} bound {bound}: {verdict}")
                entry["verdicts"].append(line)
                print(line, flush=True)
        if args.traced:
            result, _ = run_once(spec["command"], workload, 1, seconds, 1)
            entry["traced"] = {k: v["value"] for k, v in result["metrics"].items()}
    report["steady"] = ok
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
