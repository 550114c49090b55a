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
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DataError, InvalidInputError, NumericalError
from .gp import Dataset, FitConfig, condition, fit, metrics, predict, sample_prior
from .kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL, NOISE, PROJECTED,
                      KernelSpec, MaternParams)
from .manifold import (SPHERE, ManifoldPoint, TangentVector, east_north_components,
                       lonlat_to_point, point_to_lonlat, points_array, sample_uniform,
                       tangent_from_east_north, torus_point)

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
        if self.kappa is not None and not (0.0 < self.kappa < math.inf):
            raise InvalidInputError(f"kappa must be positive and finite, got {self.kappa}")
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

def ingest_csv(path):
    """Read a tangential-field dataset from CSV.

    Sphere files carry the header ``lon_deg,lat_deg,u_east,v_north``; torus
    files ``theta_1..theta_d,v_1..v_d``. Sphere rows within 0.1 degrees of a
    pole are rejected (a warning with the count goes to stderr).
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(str(exc))
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if header == SPHERE_HEADER:
            return _ingest_sphere_rows(reader, path)
        if len(header) >= 2 and len(header) % 2 == 0:
            d = len(header) // 2
            expected = [f"theta_{j + 1}" for j in range(d)] + [f"v_{j + 1}" for j in range(d)]
            if header == expected:
                return _ingest_torus_rows(reader, path, d)
        raise DataError(f"{path}: unrecognized header {','.join(header)!r}")


def _parse_row(row, width, path, line_no):
    if len(row) != width:
        raise DataError(f"{path}: line {line_no}: expected {width} fields, got {len(row)}")
    try:
        return [float(c) for c in row]
    except ValueError as exc:
        raise DataError(f"{path}: line {line_no}: {exc}")


def _ingest_sphere_rows(reader, path):
    points, obs, rejected = [], [], 0
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        lon, lat, u, v = _parse_row(row, 4, path, line_no)
        if abs(lat) > _MAX_INGEST_LAT:
            rejected += 1
            continue
        p = lonlat_to_point(lon, lat)
        points.append(p)
        obs.append(tangent_from_east_north(p, u, v))
    if rejected:
        print(f"warning: {path}: rejected {rejected} near-pole rows", file=sys.stderr)
    if not points:
        raise InvalidInputError(f"{path}: no usable rows")
    return Dataset(points, obs)


def _ingest_torus_rows(reader, path, d):
    points, obs = [], []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        vals = _parse_row(row, 2 * d, path, line_no)
        p = torus_point(vals[:d])
        points.append(p)
        obs.append(TangentVector(p, np.array(vals[d:])))
    if not points:
        raise InvalidInputError(f"{path}: no usable rows")
    return Dataset(points, obs)


def emit_csv(dataset, path):
    """Write a dataset in the ingestion format (round-trips within 1e-9)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if dataset.manifold == SPHERE:
            writer.writerow(SPHERE_HEADER)
            for p, v in zip(dataset.points, dataset.observations):
                lon, lat = point_to_lonlat(p)
                u, w = east_north_components(v)
                writer.writerow([repr(lon), repr(lat), repr(u), repr(w)])
        else:
            d = dataset.points[0].dim
            writer.writerow([f"theta_{j + 1}" for j in range(d)]
                            + [f"v_{j + 1}" for j in range(d)])
            for p, v in zip(dataset.points, dataset.observations):
                writer.writerow([repr(float(c)) for c in p.coords]
                                + [repr(float(c)) for c in v.components])


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
    return Dataset(dataset.points,
                   [TangentVector(v.base, v.components * s) for v in dataset.observations],
                   scale=s)


# ---------------------------------------------------------------------------
# Synthetic fields
# ---------------------------------------------------------------------------

def rotation_field_values(coords):
    """(x, y, z) -> (y, -x, 0): the unit-speed rotation about the polar axis."""
    coords = np.atleast_2d(coords)
    return np.stack([coords[:, 1], -coords[:, 0], np.zeros(len(coords))], axis=1)


def synthetic_field(name, points, spec=None, seed=0):
    """Evaluate a named synthetic field at points, as a Dataset.

    ``rotation`` is the divergence-free rotation field; ``kernel-sample``
    draws a frozen prior sample of ``spec`` with the given seed.
    """
    if name == "rotation":
        values = rotation_field_values(points_array(points))
    elif name == "kernel-sample":
        if spec is None:
            raise InvalidInputError("kernel-sample needs a kernel spec")
        sample = sample_prior(spec, np.random.default_rng(seed))
        values = sample.at(list(points))   # as a list, no points take the spec's dimension
    else:
        raise InvalidInputError(f"unknown synthetic field {name!r}")
    obs = [TangentVector(p, v) for p, v in zip(points, values)]
    return Dataset(points, obs)


def parse_field_name(text):
    """'rotation' or 'sample:<kernel>:<nu>:<kappa>' -> (name, spec builder)."""
    if text == "rotation":
        return "rotation", None
    if text.startswith("sample:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise InvalidInputError("sample field syntax: sample:<kernel>:<nu>:<kappa>")
        _, kname, nu_s, kappa_s = parts
        if kname not in KERNEL_NAMES or kname in ("noise",):
            raise InvalidInputError(f"cannot sample from kernel {kname!r}")
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
    train = []
    for p in sample_uniform(SPHERE, n_train, rng):
        c = p.coords.copy()
        c[2] = abs(c[2])
        train.append(ManifoldPoint(SPHERE, c))
    test = []
    for p in sample_uniform(SPHERE, n_test, rng):
        c = p.coords.copy()
        c[2] = -abs(c[2])
        test.append(ManifoldPoint(SPHERE, c))
    return train, test


def _great_circle(stride, n_test, rng):
    lats = np.arange(-89.75, 89.75 + 1e-9, 0.25)
    picked = lats[::stride]
    train = [lonlat_to_point(lon, lat) for lon in (90.0, -90.0) for lat in picked]
    test = sample_uniform(SPHERE, n_test, rng)
    return train, test


# ---------------------------------------------------------------------------
# Experiment sweep
# ---------------------------------------------------------------------------

_RESULT_COLUMNS = ["kernel", "nu", "seed", "mse", "pnll", "kappa", "variance", "noise",
                   "kappa_div", "variance_div", "kappa_curl", "variance_curl",
                   "config_hash", "version"]


def _fitted_param_fields(spec):
    empty = ""
    if spec.kind == NOISE:
        return [empty, empty, repr(spec.params.noise), empty, empty, empty, empty]
    if spec.kind == HODGE_COMPOSITIONAL:
        pd, pc = spec.parts["div"], spec.parts["curl"]
        return [empty, empty, repr(pd.noise), repr(pd.kappa), repr(pd.variance),
                repr(pc.kappa), repr(pc.variance)]
    p = spec.params
    return [repr(p.kappa), repr(p.variance), repr(p.noise), empty, empty, empty, empty]


def _build_cell_data(config, seed):
    """Train/test datasets for one seed, normalized to unit mean train norm."""
    if config.protocol == "file":
        train = ingest_csv(config.train)
        test = ingest_csv(config.test)
    else:
        rng = np.random.default_rng([seed, 104729])
        if config.protocol == "hemisphere-split":
            train_pts, test_pts = _hemisphere_split(int(config.train), int(config.test), rng)
        else:
            train_pts, test_pts = _great_circle(config.stride, int(config.test), rng)
        name, sample_spec = parse_field_name(config.field_name)
        train = synthetic_field(name, train_pts, spec=sample_spec, seed=[seed, 15485863])
        test = synthetic_field(name, test_pts, spec=sample_spec, seed=[seed, 15485863])
    s, train = normalize_dataset(train)
    test = _scale_dataset(test, s)
    return train, test


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
                    rows.append([kname, repr(float(nu)), repr(seed), "nan", "nan",
                                 "", "", "", "", "", "", "", cfg_hash, __version__])
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
    # every run flag but --config is a config key
    overrides = {k: v for k, v in vars(options).items() if k not in ("command", "config")}
    unknown = sorted(raw.keys() - overrides.keys())
    if unknown:
        raise _UsageError(f"{options.config}: unknown config key(s) {', '.join(unknown)}; "
                          f"accepted keys: {', '.join(sorted(overrides))}")
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    if "out" not in raw:
        raise _UsageError("an output directory is required (--out or config key 'out')")
    try:
        return ExperimentConfig(
            out=raw["out"],
            kernels=[k.strip() for k in str(raw.get("kernel", "div-free")).split(",")],
            nus=[float(v) for v in str(raw.get("nu", "0.5")).split(",")],
            seeds=[int(s) for s in str(raw.get("seeds", "0")).split(",")],
            protocol=raw.get("protocol", "hemisphere-split"),
            train=str(raw.get("train", "30")),
            test=str(raw.get("test", "100")),
            field_name=raw.get("field", "rotation"),
            kappa=float(raw["kappa"]) if raw.get("kappa") not in (None, "") else None,
            lmax=int(raw.get("lmax", 30)),
            grid=tuple(int(v) for v in str(raw.get("grid", "37x72")).lower().split("x")),
            stride=int(raw.get("stride", 42)),
            restarts=int(raw.get("restarts", 3)),
        )
    except (ValueError, InvalidInputError) as exc:
        raise _UsageError(str(exc))


def build_parser():
    parser = _Parser(prog="hodgegp",
                     description="GP regression experiments for tangential vector fields")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment sweep")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--kernel", help="comma list: " + ",".join(sorted(KERNEL_NAMES)))
    run.add_argument("--nu", help="comma list of smoothness values (0.5, 1.5, 2.5, inf)")
    run.add_argument("--kappa", help="freeze the length scale at this value")
    run.add_argument("--lmax", help="sphere truncation level")
    run.add_argument("--seeds", help="comma list of integer seeds")
    run.add_argument("--protocol", help="hemisphere-split | great-circle | file")
    run.add_argument("--train", help="train count, or CSV path for protocol=file")
    run.add_argument("--test", help="test count, or CSV path for protocol=file")
    run.add_argument("--out", help="output directory")
    run.add_argument("--field", help="rotation | sample:<kernel>:<nu>:<kappa>")
    run.add_argument("--grid", help="prediction grid, e.g. 37x72")
    run.add_argument("--stride", help="great-circle subsampling stride")
    run.add_argument("--restarts", help="optimizer restarts per fit")
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
