"""Experiment harness and command-line interface.

Runs GP-regression sweeps over kernels, smoothness values, and seeds on
synthetic or CSV-supplied tangential fields, writing per-cell results,
aggregated summaries, and plot-ready prediction grids as CSV under the
output directory. Configuration comes from a plain ``key = value`` file with
flag overrides; runs are deterministic given the seed list.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import csv
import hashlib
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DataError, InvalidInputError, NumericalError
from .gp import Dataset, FitConfig, condition, fit, metrics, predict, sample_prior
from .kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL, NOISE, PROJECTED,
                      KernelSpec, MaternParams, check_kappa)
from .manifold import (CIRCLE, SPHERE, TORUS, coordinates, frames_at, lonlat_to_point,
                       point_to_lonlat, sample_sphere)

KERNEL_NAMES = {
    "noise": NOISE,
    "projected": PROJECTED,
    "hodge": HODGE_FULL,
    "div-free": HODGE_CURL,   # pure-curl class: divergence-free fields
    "curl-free": HODGE_DIV,   # pure-divergence class: curl-free fields
    "compositional": HODGE_COMPOSITIONAL,
}

SPHERE_HEADER = ["lon_deg", "lat_deg", "u_east", "v_north"]

_MAX_INGEST_LAT = 89.9


@dataclass
class ExperimentConfig:
    """Sweep definition: data protocol, kernel grid, seeds, output location."""

    out: str
    kernels: list = field(default_factory=lambda: ["div-free"])
    nus: list = field(default_factory=lambda: [0.5])
    seeds: list = field(default_factory=lambda: [0])
    protocol: str = "hemisphere-split"
    train: str = "30"
    test: str = "100"
    field_name: str = "rotation"
    kappa: float = None
    lmax: int = 30
    grid: tuple = (37, 72)
    stride: int = 42
    restarts: int = 3
    max_iter: int = 200

    def __post_init__(self):
        if not self.seeds:
            raise InvalidInputError("seed list must be nonempty")
        if self.protocol not in ("hemisphere-split", "great-circle", "file"):
            raise InvalidInputError(f"unknown protocol {self.protocol!r}")
        for k in self.kernels:
            if k not in KERNEL_NAMES:
                raise InvalidInputError(f"unknown kernel {k!r}; choose from "
                                        f"{sorted(KERNEL_NAMES)}")
        grid = np.atleast_1d(self.grid)
        if grid.shape != (2,) or grid.dtype.kind not in "iu":
            raise InvalidInputError("grid must be two integer counts (lat, lon), "
                                    f"got {self.grid!r}")
        # lower bounds of the integer settings; for seeds and grid, of every entry
        for name, low in (("restarts", 1), ("max_iter", 1), ("lmax", 0), ("stride", 1),
                          ("seeds", 0), ("grid", 1)):
            value = getattr(self, name)
            if min(np.atleast_1d(value)) < low:
                raise InvalidInputError(f"{name} must be at least {low}, got {value!r}")
        parse_field_name(self.field_name)
        for nu in self.nus if self.kappa is not None else ():
            check_kappa(nu, self.kappa)
        # synthetic protocols draw the points; great-circle takes its train points from stride
        counts = {"hemisphere-split": ("train", "test"), "great-circle": ("test",)}
        for name in counts.get(self.protocol, ()):
            value = getattr(self, name)
            try:
                count = int(value)
            except ValueError:
                count = 0
            if count < 1:
                raise InvalidInputError(f"{name} must be a positive point count for the "
                                        f"{self.protocol} protocol, got {value!r}")

    def hash(self):
        # identifies the experiment definition; the output location is not
        # part of it
        items = sorted((k, repr(v)) for k, v in vars(self).items() if k != "out")
        digest = hashlib.sha256(repr(items).encode()).hexdigest()
        return digest[:12]


# ---------------------------------------------------------------------------
# Data ingestion and emission
# ---------------------------------------------------------------------------

def _csv_header(manifold, d):
    """The CSV header of a dataset on the manifold of dimension d (see ``ingest_csv``)."""
    return {SPHERE: SPHERE_HEADER, CIRCLE: ["theta", "v"]}.get(
        manifold, [f"theta_{j + 1}" for j in range(d)] + [f"v_{j + 1}" for j in range(d)])


def ingest_csv(path):
    """Read a tangential-field dataset from CSV.

    Sphere files carry the header ``lon_deg,lat_deg,u_east,v_north``, circle files
    ``theta,v`` and torus files ``theta_1..theta_d,v_1..v_d``. Blank lines are skipped; a row
    with the wrong field count or a non-number is a DataError that names its line, and a
    row with a non-finite number or a sphere latitude outside [-90, 90] an
    InvalidInputError that names it. Sphere rows within 0.1 degrees of a pole
    are dropped (a warning with the count goes to stderr); a file with no row
    left is an InvalidInputError.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(str(exc))
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file")
        d = len(header) // 2
        manifold = next((m for m in (SPHERE, CIRCLE, TORUS) if header == _csv_header(m, d)), None)
        if not (header and manifold):
            raise DataError(f"{path}: unrecognized header {','.join(header)!r}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: line {line_no}: expected {len(header)} fields, "
                                f"got {len(row)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise DataError(f"{path}: line {line_no}: {exc}")
            if manifold == SPHERE and not (np.isfinite(rows[-1][0]) and abs(rows[-1][1]) <= 90.0):
                raise InvalidInputError(f"{path}: line {line_no}: longitude {rows[-1][0]} must "
                                        f"be finite and latitude {rows[-1][1]} within [-90, 90]")
            if not np.isfinite(rows[-1]).all():   # a sphere row's angles passed above
                what = "tangent components" if np.isfinite(rows[-1][:d]).all() else "torus angles"
                raise InvalidInputError(f"{path}: line {line_no}: {what} must be finite")
    rows = np.array(rows).reshape(-1, len(header))
    if manifold == SPHERE:
        near_pole = np.abs(rows[:, 1]) > _MAX_INGEST_LAT
        if near_pole.any():
            print(f"warning: {path}: rejected {near_pole.sum()} near-pole rows", file=sys.stderr)
        rows = rows[~near_pole]
    if not len(rows):
        raise InvalidInputError(f"{path}: no usable rows")
    if manifold != SPHERE:
        return Dataset.from_arrays(manifold, rows[:, :d], rows[:, d:])
    # point by point, as a vectorized normalization can differ in the last bit
    X = coordinates(SPHERE, 2, [lonlat_to_point(lon, lat) for lon, lat in rows[:, :2]])
    return Dataset.from_arrays(SPHERE, X, np.einsum("nk,nka->na", rows[:, 2:], frames_at(X)))


def emit_csv(dataset, path):
    """Write a dataset in the ingestion format (round-trips within 1e-9)."""
    X, V = dataset.coords(), dataset.values()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(dataset.manifold, dataset.dim))
        if dataset.manifold == SPHERE:
            # row by row: a vectorized arctan2, arcsin or dot can change a printed digit
            writer.writerows([repr(c) for c in point_to_lonlat(x) + tuple(float(v @ b) for b in B)]
                             for x, v, B in zip(X, V, frames_at(X)))
        else:
            writer.writerows([repr(float(c)) for c in row] for row in np.hstack([X, V]))


def normalize_dataset(train):
    """Scale observations so their mean norm is one; returns (scale, dataset)."""
    if len(train) == 0:
        raise InvalidInputError("cannot normalize an empty dataset")
    norms = np.linalg.norm(train.values(), axis=1)
    mean_norm = float(norms.mean())
    if mean_norm == 0.0:
        raise InvalidInputError("cannot normalize all-zero observations")
    s = 1.0 / mean_norm
    return s, _scale_dataset(train, s)


def _scale_dataset(dataset, s):
    return Dataset.from_arrays(dataset.manifold, dataset.coords(), dataset.values() * s, scale=s)


# ---------------------------------------------------------------------------
# Synthetic fields
# ---------------------------------------------------------------------------

def rotation_field_values(coords):
    """(x, y, z) -> (y, -x, 0): the unit-speed rotation about the polar axis."""
    coords = np.atleast_2d(coords)
    return np.stack([coords[:, 1], -coords[:, 0], np.zeros(len(coords))], axis=1)


def synthetic_field(name, points, spec=None, seed=0):
    """Evaluate a named synthetic field at points (``coordinates``), as a Dataset.

    ``rotation`` is the divergence-free rotation field on the sphere;
    ``kernel-sample`` draws a frozen prior sample of ``spec`` with the given
    seed, on the spec's manifold.
    """
    if name == "rotation":
        X = coordinates(SPHERE, 2, points)
        return Dataset.from_arrays(SPHERE, X, rotation_field_values(X))
    if name != "kernel-sample":
        raise InvalidInputError(f"unknown synthetic field {name!r}")
    if spec is None:
        raise InvalidInputError("kernel-sample needs a kernel spec")
    X = coordinates(spec.manifold, spec.dim, points)
    sample = sample_prior(spec, np.random.default_rng(seed))
    return Dataset.from_arrays(spec.manifold, X, sample.at(X))


def parse_field_name(text):
    """'rotation' or 'sample:<kernel>:<nu>:<kappa>' -> (name, spec builder)."""
    if text == "rotation":
        return "rotation", None
    if text.startswith("sample:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise InvalidInputError("sample field syntax: sample:<kernel>:<nu>:<kappa>")
        _, kname, nu_s, kappa_s = parts
        # the noise kind draws zeros, and a compositional draw needs a pair per class
        samplable = sorted(set(KERNEL_NAMES) - {"noise", "compositional"})
        if kname not in samplable:
            raise InvalidInputError(f"cannot sample from kernel {kname!r}; "
                                    f"choose from {', '.join(samplable)}")
        try:
            nu, kappa = float(nu_s), float(kappa_s)
        except ValueError:
            raise InvalidInputError(f"sample field nu and kappa must be numbers, got {text!r}")
        return "kernel-sample", KernelSpec(KERNEL_NAMES[kname], MaternParams(nu, kappa, 1.0, 0.0))
    raise InvalidInputError(f"unknown field {text!r}")


# ---------------------------------------------------------------------------
# Train/test protocols
# ---------------------------------------------------------------------------

def _hemisphere_split(n_train, n_test, rng):
    train, test = sample_sphere(n_train, rng), sample_sphere(n_test, rng)
    train[:, 2], test[:, 2] = np.abs(train[:, 2]), -np.abs(test[:, 2])
    return train, test


def _great_circle(stride, n_test, rng):
    picked = np.arange(-89.75, 89.75 + 1e-9, 0.25)[::stride]
    train = [lonlat_to_point(lon, lat) for lon in (90.0, -90.0) for lat in picked]
    return train, sample_sphere(n_test, rng)


# ---------------------------------------------------------------------------
# Experiment sweep
# ---------------------------------------------------------------------------

_RESULT_COLUMNS = ["kernel", "nu", "seed", "mse", "pnll", "kappa", "variance", "noise",
                   "kappa_div", "variance_div", "kappa_curl", "variance_curl",
                   "config_hash", "version"]


def _fitted_param_fields(spec):
    """The seven parameter columns of a result row: the kappa and variance of a spec's
    one part, or of each of a compositional spec's div and curl parts, and the noise."""
    named = {"noise": repr(spec.noise_variance)}
    for cls, p in spec.classes:
        suffix = f"_{cls}" if len(spec.classes) > 1 else ""
        named[f"kappa{suffix}"], named[f"variance{suffix}"] = repr(p.kappa), repr(p.variance)
    return [named.get(c, "") for c in _RESULT_COLUMNS[5:12]]


def _build_cell_data(config, seed):
    """Train/test datasets for one seed, normalized to unit mean train norm."""
    if config.protocol == "file":
        train, test = ingest_csv(config.train), ingest_csv(config.test)
    else:
        rng = np.random.default_rng([seed, 104729])
        if config.protocol == "hemisphere-split":
            points = _hemisphere_split(int(config.train), int(config.test), rng)
        else:
            points = _great_circle(config.stride, int(config.test), rng)
        name, sample_spec = parse_field_name(config.field_name)
        train, test = (synthetic_field(name, X, spec=sample_spec, seed=[seed, 15485863])
                       for X in points)
    s, train = normalize_dataset(train)
    return train, _scale_dataset(test, s)


def run_experiment(config):
    """Run the sweep and write results.csv, summary.csv, and grid files.

    Grid files (lon/lat prediction grids) are written for sphere data only.
    Returns the per-cell result rows. A cell whose fit, conditioning or
    scoring raises NumericalError, InvalidInputError, LinAlgError or
    MemoryError is recorded as NaN metrics and logged to stderr; the sweep
    never aborts.
    """
    os.makedirs(config.out, exist_ok=True)
    cfg_hash = config.hash()
    rows = []
    grid_models = {}
    for seed in config.seeds:
        train, test = _build_cell_data(config, seed)
        test_coords = test.coords()
        truths = test.values()
        for ki, kname in enumerate(config.kernels):
            kind = KERNEL_NAMES[kname]
            for ni, nu in enumerate(config.nus):
                cell = f"kernel={kname} nu={nu} seed={seed}"
                try:
                    fit_cfg = FitConfig(restarts=config.restarts, max_iter=config.max_iter,
                                        seed=[seed, ki, ni, 7919], fixed_kappa=config.kappa)
                    spec = fit(train, kind, fit_cfg, nu=nu, lmax=config.lmax)
                    model = condition(spec, train)
                    pred = predict(model, test_coords)
                    mse, pnll = metrics(pred.mean, pred.cov, truths,
                                        spec.noise_variance, pred.frames)
                    rows.append([kname, repr(float(nu)), repr(seed), repr(mse), repr(pnll)]
                                + _fitted_param_fields(spec) + [cfg_hash, __version__])
                    if model.spec.manifold == SPHERE and (kname, nu) not in grid_models:
                        grid_models[(kname, nu)] = model
                    print(f"done {cell}: mse={mse:.4f} pnll={pnll:.4f}")
                except (NumericalError, InvalidInputError, np.linalg.LinAlgError,
                        MemoryError) as exc:
                    rows.append([kname, repr(float(nu)), repr(seed), "nan", "nan"]
                                + [""] * 7 + [cfg_hash, __version__])
                    print(f"failed {cell}: {exc}", file=sys.stderr)
    rows.sort(key=lambda r: (r[0], r[1], int(r[2])))
    _write_results(config, rows)
    _write_summary(config, rows)
    for (kname, nu), model in sorted(grid_models.items()):
        _write_grid(config, kname, nu, model)
    return rows


def _write_results(config, rows):
    with open(os.path.join(config.out, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULT_COLUMNS)
        writer.writerows(rows)


def _write_summary(config, rows):
    groups = {}
    for r in rows:
        groups.setdefault((r[0], r[1]), []).append((float(r[3]), float(r[4])))
    with open(os.path.join(config.out, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel", "nu", "mse_mean", "mse_std", "pnll_mean", "pnll_std",
                         "n_seeds", "config_hash", "version"])
        for (kname, nu), vals in sorted(groups.items()):
            arr = np.array([v for v in vals if np.isfinite(v[0])])
            if len(arr) == 0:
                writer.writerow([kname, nu, "nan", "nan", "nan", "nan", 0,
                                 config.hash(), __version__])
                continue
            writer.writerow([kname, nu,
                             repr(float(arr[:, 0].mean())), repr(float(arr[:, 0].std())),
                             repr(float(arr[:, 1].mean())), repr(float(arr[:, 1].std())),
                             len(arr), config.hash(), __version__])


def _write_grid(config, kname, nu, model):
    n_lat, n_lon = config.grid
    lats = np.linspace(-90.0, 90.0, n_lat)
    lons = np.linspace(0.0, 360.0, n_lon, endpoint=False)
    lat, lon = (a.ravel() for a in np.meshgrid(lats, lons, indexing="ij"))
    la, lo = np.deg2rad(lat), np.deg2rad(lon)
    coords = np.stack([np.cos(la) * np.cos(lo), np.cos(la) * np.sin(lo), np.sin(la)], axis=1)
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)   # as lonlat_to_point does
    pred = predict(model, coords)
    east_north = np.einsum("ma,mka->mk", pred.mean, pred.frames)
    std = np.sqrt(np.maximum(np.trace(pred.cov, axis1=1, axis2=2), 0.0))
    name = f"grid_{kname}_{str(float(nu)).replace('.', 'p')}.csv"
    with open(os.path.join(config.out, name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lon_deg", "lat_deg", "mean_east", "mean_north", "std_trace"])
        writer.writerows([repr(a), repr(b), repr(e), repr(n), repr(s)] for a, b, (e, n), s
                         in zip(lon.tolist(), lat.tolist(), east_north.tolist(), std.tolist()))


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def load_config_file(path):
    """Parse a plain ``key = value`` config file; '#' starts a comment."""
    out = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _UsageError(f"{path}: line {line_no}: expected key = value")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise _UsageError(str(exc))
    return out


def _config_from_options(options):
    raw = load_config_file(options.config) if options.config else {}
    unknown = sorted(raw.keys() - _RUN_FLAGS.keys())
    if unknown:
        raise _UsageError(f"{options.config}: unknown config key(s) {', '.join(unknown)}; "
                          f"accepted keys: {', '.join(sorted(_RUN_FLAGS))}")
    raw.update((key, getattr(options, key)) for key in _RUN_FLAGS
               if getattr(options, key) is not None)
    if "out" not in raw:
        raise _UsageError("an output directory is required (--out or config key 'out')")
    try:
        return ExperimentConfig(**{_RUN_FLAGS[key][0]: _RUN_FLAGS[key][1](value)
                                   for key, value in raw.items()})
    except (ValueError, InvalidInputError) as exc:
        raise _UsageError(str(exc))


def _comma_list(parse):
    return lambda value: [parse(v) for v in value.split(",")]


# every run flag but --config, which is also its config key: the ExperimentConfig field it
# sets, the parser of its string value, and its help. A key left unset keeps the default
# of its field, so the defaults live only in ExperimentConfig
_RUN_FLAGS = {
    "kernel": ("kernels", _comma_list(str.strip), "comma list: " + ",".join(sorted(KERNEL_NAMES))),
    "nu": ("nus", _comma_list(float), "comma list of smoothness values (0.5, 1.5, 2.5, inf)"),
    "kappa": ("kappa", lambda v: float(v) if v else None, "freeze the length scale at this value"),
    "lmax": ("lmax", int, "sphere truncation level"),
    "seeds": ("seeds", _comma_list(int), "comma list of integer seeds"),
    "protocol": ("protocol", str, "hemisphere-split | great-circle | file"),
    "train": ("train", str, "train count, or CSV path for protocol=file"),
    "test": ("test", str, "test count, or CSV path for protocol=file"),
    "out": ("out", str, "output directory"),
    "field": ("field_name", str, "rotation | sample:<kernel>:<nu>:<kappa>"),
    "grid": ("grid", lambda v: tuple(int(n) for n in v.lower().split("x")),
             "prediction grid, e.g. 37x72"),
    "stride": ("stride", int, "great-circle subsampling stride"),
    "restarts": ("restarts", int, "optimizer restarts per fit"),
}


def build_parser():
    parser = _Parser(prog="hodgegp",
                     description="GP regression experiments for tangential vector fields")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment sweep")
    run.add_argument("--config", help="key = value config file")
    for key, (_, _, text) in _RUN_FLAGS.items():
        run.add_argument(f"--{key}", help=text)
    return parser


_CLI_NUS = (0.5, 1.5, 2.5, float("inf"))


def main(argv=None):
    try:
        options = build_parser().parse_args(argv)
        config = _config_from_options(options)
        for nu in config.nus:
            if nu not in _CLI_NUS:
                raise _UsageError(f"nu {nu} not in {_CLI_NUS}")
        run_experiment(config)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, InvalidInputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
