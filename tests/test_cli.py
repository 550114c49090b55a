import os
import subprocess
import sys

import numpy as np
import pytest

from hodgegp.cli import (ExperimentConfig, _config_from_options, build_parser, emit_csv,
                         ingest_csv, main, normalize_dataset, parse_field_name, run_experiment,
                         synthetic_field)
from hodgegp.diagnostics import numeric_divergence
from hodgegp.errors import DataError, InvalidInputError
from hodgegp.gp import Dataset
from hodgegp.manifold import (TangentVector, lonlat_to_point, sample_uniform,
                              sphere_point, tangent_from_east_north, torus_point)

SPHERE_HEADER = "lon_deg,lat_deg,u_east,v_north\n"


class TestIngest:
    def test_east_vector_at_origin(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(SPHERE_HEADER + "0,0,1,0\n")
        ds = ingest_csv(path)
        np.testing.assert_allclose(ds.coords()[0], [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(ds.values()[0], [0, 1, 0], atol=1e-15)

    def test_near_pole_rows_rejected_with_warning(self, tmp_path, capsys):
        # a latitude of 91 was counted as a near-pole row; it is invalid input now
        path = tmp_path / "data.csv"
        path.write_text(SPHERE_HEADER + "0,-89.95,1,0\n10,89.95,1,0\n0,0,1,0\n")
        ds = ingest_csv(path)
        assert len(ds) == 1
        assert "rejected 2" in capsys.readouterr().err
        path.write_text(SPHERE_HEADER + "0,91,1,0\n10,89.95,1,0\n0,0,1,0\n")
        with pytest.raises(InvalidInputError, match="line 2: .* latitude 91.0 within"):
            ingest_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(SPHERE_HEADER + "0,0,1,0\n0,zero,1,0\n")
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(SPHERE_HEADER + "0,0,1\n")
        with pytest.raises(DataError, match="line 2"):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            ingest_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(SPHERE_HEADER)
        with pytest.raises(InvalidInputError):
            ingest_csv(path)

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            ingest_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(tmp_path / "missing.csv")

    def test_sphere_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = [p for p in sample_uniform("sphere", 12, rng)
               if abs(p.coords[2]) < 0.999]
        rngv = np.random.default_rng(1)
        obs = []
        for p in pts:
            v = rngv.standard_normal(3)
            v -= (v @ p.coords) * p.coords
            obs.append(TangentVector(p, v))
        ds = Dataset(pts, obs)
        path = tmp_path / "round.csv"
        emit_csv(ds, path)
        back = ingest_csv(path)
        for a, b in zip(ds.coords(), back.coords()):
            np.testing.assert_allclose(a, b, atol=1e-9)
        for a, b in zip(ds.values(), back.values()):
            np.testing.assert_allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_torus_angles_must_be_finite(self, tmp_path, capsys, angle):
        # before, a NaN angle reached the CLI as "observation base point mismatch"
        path = tmp_path / "torus.csv"
        path.write_text(f"theta_1,theta_2,v_1,v_2\n0.1,0.2,1,0\n{angle},0.3,0,1\n")
        with pytest.raises(InvalidInputError, match="finite"):
            ingest_csv(path)
        code = main(["run", "--out", str(tmp_path / "out"), "--protocol", "file",
                     "--train", str(path), "--test", str(path), "--kernel", "noise"])
        assert code == 2
        assert "angles must be finite" in capsys.readouterr().err

    def test_torus_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = sample_uniform("torus", 8, rng, dim=2)
        obs = [TangentVector(p, rng.standard_normal(2)) for p in pts]
        ds = Dataset(pts, obs)
        path = tmp_path / "torus.csv"
        emit_csv(ds, path)
        back = ingest_csv(path)
        assert back.manifold == "torus"
        for a, b in zip(ds.values(), back.values()):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestOneReader:
    """ingest_csv reads both headers into one array and builds the dataset with
    Dataset.from_arrays; its points and values equal the per-row construction bit for bit."""

    @staticmethod
    def write(path, header, rows):
        # a blank line after the header, and one between every fifth row
        lines = [",".join(header), ""]
        for i, row in enumerate(rows):
            lines += [",".join(repr(float(c)) for c in row)] + ([""] if i % 5 == 4 else [])
        path.write_text("\n".join(lines) + "\n")

    def test_sphere_rows_equal_the_per_row_construction(self, tmp_path, capsys):
        rng = np.random.default_rng(70)
        n = 300
        lat = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
        # rows within 0.1 degrees of a pole, on the cut-off, and a hair inside it
        lat[:8] = [89.95, -89.99, 90.0, -90.0, 89.9, -89.9, 89.9 - 1e-9, 89.90000001]
        rows = np.column_stack([rng.uniform(-180, 360, n), lat, rng.standard_normal((n, 2))])
        path = tmp_path / "sphere.csv"
        self.write(path, ["lon_deg", "lat_deg", "u_east", "v_north"], rows)
        data = ingest_csv(path)
        kept = [r for r in rows if abs(r[1]) <= 89.9]
        points = [lonlat_to_point(lon, lat) for lon, lat, _, _ in kept]
        values = [tangent_from_east_north(p, u, v).components
                  for p, (_, _, u, v) in zip(points, kept)]
        assert len(data) == len(kept) == n - 5
        assert "rejected 5 near-pole rows" in capsys.readouterr().err
        assert data.manifold == "sphere"
        assert np.array_equal(data.coords(), np.stack([p.coords for p in points]))
        assert np.array_equal(data.values(), np.stack(values))

    @pytest.mark.parametrize("d", [1, 3])
    def test_torus_rows_equal_the_per_row_construction(self, tmp_path, d):
        rng = np.random.default_rng(71 + d)
        rows = np.column_stack([rng.uniform(-10, 20, (40, d)), rng.standard_normal((40, d))])
        path = tmp_path / "torus.csv"
        self.write(path, [f"theta_{j + 1}" for j in range(d)] + [f"v_{j + 1}" for j in range(d)],
                   rows)
        data = ingest_csv(path)
        assert (data.manifold, data.dim, len(data)) == ("torus", d, 40)
        assert np.array_equal(data.coords(), np.stack([torus_point(r[:d]).coords for r in rows]))
        assert np.array_equal(data.values(), rows[:, d:])

    def test_all_rows_near_a_pole_warn_then_raise(self, tmp_path, capsys):
        path = tmp_path / "poles.csv"
        path.write_text(SPHERE_HEADER + "0,90,1,0\n\n10,-89.95,0,1\n20,89.91,1,1\n")
        with pytest.raises(InvalidInputError, match="no usable rows"):
            ingest_csv(path)
        assert "rejected 3 near-pole rows" in capsys.readouterr().err

    def test_nan_latitude_is_invalid_input(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(SPHERE_HEADER + "0,0,1,0\n10,nan,1,0\n")
        with pytest.raises(InvalidInputError, match="latitude nan"):
            ingest_csv(path)

    @pytest.mark.parametrize("lon, lat", [("0", "91"), ("0", "-90.5"), ("0", "inf"),
                                          ("0", "-inf"), ("inf", "0"), ("-inf", "45"),
                                          ("nan", "0"), ("nan", "nan")])
    def test_bad_sphere_coordinates_are_invalid_input_naming_the_line(self, tmp_path, capsys,
                                                                      lon, lat):
        # an out-of-range latitude was dropped as a near-pole row, an infinite
        # longitude warned in np.cos, and a NaN longitude failed as "row 0"
        path = tmp_path / "bad.csv"
        path.write_text(SPHERE_HEADER + f"0,0,1,0\n\n10,89.95,1,0\n{lon},{lat},1,0\n")
        with pytest.raises(InvalidInputError, match=f"{path}: line 5: longitude "):
            ingest_csv(path)
        assert capsys.readouterr().err == ""
        # the poles themselves are in range, and dropped as near-pole rows
        path.write_text(SPHERE_HEADER + "0,90,1,0\n0,-90,1,0\n0,0,1,0\n")
        np.testing.assert_array_equal(ingest_csv(path).coords(), [[1.0, 0.0, 0.0]])
        assert "rejected 2 near-pole rows" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("theta_1,theta_2,v_1,v_2\n0.1,0.2,1,0\n\n0.3,inf,0,1\n", "torus angles"),
        ("theta_1,v_1\n0.1,1\n\n-inf,0\n", "torus angles"),
        ("theta_1,theta_2,v_1,v_2\n0.1,0.2,1,0\n\n0.3,0.4,nan,1\n", "tangent components"),
        (SPHERE_HEADER + "0,0,0,1\n\n10,20,1,inf\n", "tangent components")],
        ids=["t2-angle", "t1-angle", "t2-component", "sphere-component"])
    def test_non_finite_angles_and_components_name_the_line(self, tmp_path, capsys, text,
                                                            named):
        # before, the message named neither the file nor the line
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"{path}: line 4: {named} must be finite"):
            ingest_csv(path)
        code = main(["run", "--out", str(tmp_path / "out"), "--protocol", "file",
                     "--train", str(path), "--test", str(path), "--kernel", "noise"])
        assert code == 2
        assert f"{path}: line 4: {named} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [(SPHERE_HEADER + "0,0,1,0\n\n5,5,1\n", 4),
                                            ("theta_1,v_1\n0.5,1\n0.7\n", 3),
                                            ("theta_1,theta_2,v_1,v_2\n\n1,2,3,4,5\n", 3)])
    def test_a_short_or_long_row_is_a_data_error_naming_its_line(self, tmp_path, text, line):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"line {line}: expected"):
            ingest_csv(path)

    def test_an_empty_torus_dataset_emits_the_torus_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(Dataset.from_arrays("torus", np.zeros((0, 3)), np.zeros((0, 3))), path)
        assert path.read_text().splitlines() == ["theta_1,theta_2,theta_3,v_1,v_2,v_3"]
        with pytest.raises(InvalidInputError, match="no usable rows"):
            ingest_csv(path)

    @pytest.mark.parametrize("field", ["rotation", "sample:div-free:1.5:0.5",
                                       "sample:projected:0.5:0.8"])
    def test_synthetic_field_reads_points_or_their_coordinates(self, field):
        points = sample_uniform("sphere", 9, np.random.default_rng(75))
        name, spec = parse_field_name(field)
        a = synthetic_field(name, points, spec=spec, seed=4)
        b = synthetic_field(name, np.stack([p.coords for p in points]), spec=spec, seed=4)
        assert np.array_equal(a.coords(), b.coords())
        assert np.array_equal(a.values(), b.values())


class TestNormalize:
    def test_mean_norm_scaling(self):
        p1, p2 = lonlat_to_point(0, 0), lonlat_to_point(90, 0)
        f1 = TangentVector(p1, np.array([0.0, 1.0, 0.0]))          # norm 1
        f2 = TangentVector(p2, np.array([-3.0, 0.0, 0.0]))         # norm 3
        s, scaled = normalize_dataset(Dataset([p1, p2], [f1, f2]))
        assert s == pytest.approx(0.5)
        norms = np.linalg.norm(scaled.values(), axis=1)
        assert norms.mean() == pytest.approx(1.0)
        assert scaled.scale == pytest.approx(0.5)

    def test_unit_data_unchanged(self):
        p = lonlat_to_point(10, 20)
        f = TangentVector(p, p.coords * 0 + np.cross(p.coords, [0, 0, 1.0])
                          / np.linalg.norm(np.cross(p.coords, [0, 0, 1.0])))
        s, _ = normalize_dataset(Dataset([p], [f]))
        assert s == pytest.approx(1.0)

    def test_zero_observations_rejected(self):
        p = lonlat_to_point(0, 0)
        ds = Dataset([p], [TangentVector(p, np.zeros(3))])
        with pytest.raises(InvalidInputError):
            normalize_dataset(ds)


class TestSyntheticFields:
    def test_rotation_vanishes_at_pole(self):
        ds = synthetic_field("rotation", [sphere_point([0, 0, 1.0])])
        np.testing.assert_allclose(ds.values()[0], 0.0)

    def test_rotation_value(self):
        ds = synthetic_field("rotation", [sphere_point([1.0, 0, 0])])
        np.testing.assert_allclose(ds.values()[0], [0, -1, 0])

    def test_rotation_is_divergence_free(self):
        from hodgegp.cli import rotation_field_values
        x = sphere_point([0.6, 0.48, 0.64]).coords
        assert abs(numeric_divergence(rotation_field_values, x)) < 1e-6

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidInputError):
            synthetic_field("vortex", [sphere_point([1.0, 0, 0])])

    def test_sample_field_parsing(self):
        name, spec = parse_field_name("sample:div-free:0.5:0.4")
        assert name == "kernel-sample"
        assert spec.kind == "hodge-curl"
        assert spec.params.kappa == 0.4
        with pytest.raises(InvalidInputError):
            parse_field_name("sample:div-free:0.5")
        with pytest.raises(InvalidInputError):
            parse_field_name("sample:noise:0.5:0.4")

    def test_sample_field_deterministic(self):
        pts = sample_uniform("sphere", 5, np.random.default_rng(3))
        _, spec = parse_field_name("sample:div-free:0.5:0.5")
        a = synthetic_field("kernel-sample", pts, spec=spec, seed=11)
        b = synthetic_field("kernel-sample", pts, spec=spec, seed=11)
        np.testing.assert_array_equal(a.values(), b.values())

    @pytest.mark.parametrize("field", ["rotation", "sample:div-free:0.5:0.5"])
    def test_empty_point_list_gives_empty_dataset(self, field):
        # np.stack of no coordinates raises ValueError
        name, spec = parse_field_name(field)
        ds = synthetic_field(name, [], spec=spec)
        assert len(ds) == 0
        assert ds.values().shape == (0, 3)


class TestRunExperiment:
    def make_config(self, out, **kw):
        base = dict(out=str(out), kernels=["div-free"], nus=[0.5], seeds=[0, 1],
                    train="10", test="15", lmax=10, grid=(5, 8), restarts=2, max_iter=60)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_outputs_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(self.make_config(out_a))
        run_experiment(self.make_config(out_b))
        for name in ("results.csv", "summary.csv", "grid_div-free_0p5.csv"):
            assert (out_a / name).exists()
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_rows_carry_hash_and_version(self, tmp_path):
        from hodgegp import __version__
        cfg = self.make_config(tmp_path / "h")
        rows = run_experiment(cfg)
        for row in rows:
            assert row[-2] == cfg.hash()
            assert row[-1] == __version__

    def test_grid_format(self, tmp_path):
        cfg = self.make_config(tmp_path / "g")
        run_experiment(cfg)
        lines = (tmp_path / "g" / "grid_div-free_0p5.csv").read_text().splitlines()
        assert lines[0] == "lon_deg,lat_deg,mean_east,mean_north,std_trace"
        assert len(lines) == 1 + 5 * 8

    def test_file_protocol(self, tmp_path):
        train_path = tmp_path / "train.csv"
        test_path = tmp_path / "test.csv"
        rng = np.random.default_rng(4)
        pts = [p for p in sample_uniform("sphere", 20, rng) if abs(p.coords[2]) < 0.99]
        emit_csv(synthetic_field("rotation", pts), train_path)
        emit_csv(synthetic_field("rotation", pts), test_path)
        cfg = self.make_config(tmp_path / "f", protocol="file",
                               train=str(train_path), test=str(test_path), seeds=[0])
        rows = run_experiment(cfg)
        assert float(rows[0][3]) < 0.2  # interpolating the training field

    def test_great_circle_protocol(self, tmp_path):
        cfg = self.make_config(tmp_path / "gc", protocol="great-circle",
                               seeds=[0], test="15", stride=90)
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert np.isfinite(float(rows[0][3]))

    def test_great_circle_subsampling_semantics(self):
        from hodgegp.cli import _great_circle
        from hodgegp.manifold import point_to_lonlat
        train, _ = _great_circle(180, 5, np.random.default_rng(0))
        lons = sorted({round(point_to_lonlat(p)[0], 6) for p in train})
        assert lons == [-90.0, 90.0]
        lats = sorted(point_to_lonlat(p)[1] for p in train
                      if point_to_lonlat(p)[0] > 0)
        # regular stride on the 0.25-degree grid: consecutive picks 45 deg apart
        np.testing.assert_allclose(np.diff(lats), 45.0, atol=1e-9)

    def test_failed_cell_recorded_as_nan(self, tmp_path, monkeypatch):
        import hodgegp.cli as cli_mod
        from hodgegp.errors import NumericalError

        real_fit = cli_mod.fit

        def flaky_fit(dataset, kind, *args, **kwargs):
            if kind == "hodge-curl":
                raise NumericalError("forced failure")
            return real_fit(dataset, kind, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "fit", flaky_fit)
        cfg = self.make_config(tmp_path / "nan", kernels=["div-free", "noise"], seeds=[0])
        rows = run_experiment(cfg)
        by_kernel = {r[0]: r for r in rows}
        assert by_kernel["div-free"][3] == "nan"
        assert np.isfinite(float(by_kernel["noise"][3]))
        text = (tmp_path / "nan" / "summary.csv").read_text()
        assert "div-free,0.5,nan" in text

    @pytest.mark.parametrize("error", [InvalidInputError, np.linalg.LinAlgError, MemoryError])
    def test_bad_cell_does_not_abort_sweep(self, tmp_path, monkeypatch, capsys, error):
        import hodgegp.cli as cli_mod

        real_fit = cli_mod.fit

        def flaky_fit(dataset, kind, *args, **kwargs):
            if kind == "hodge-curl":
                raise error("forced failure")
            return real_fit(dataset, kind, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "fit", flaky_fit)
        cfg = self.make_config(tmp_path / "bad", kernels=["div-free", "noise"], seeds=[0])
        rows = run_experiment(cfg)
        by_kernel = {r[0]: r for r in rows}
        assert by_kernel["div-free"][3] == "nan" and by_kernel["div-free"][4] == "nan"
        assert np.isfinite(float(by_kernel["noise"][3]))
        assert "failed kernel=div-free nu=0.5 seed=0: forced failure" in capsys.readouterr().err
        assert (tmp_path / "bad" / "grid_noise_0p5.csv").exists()

    def test_grid_rows_match_predict(self, tmp_path):
        import hodgegp.cli as cli_mod
        from hodgegp.gp import condition, predict
        from hodgegp.kernels import HODGE_CURL, KernelSpec, MaternParams

        cfg = self.make_config(tmp_path / "grid", grid=(5, 6))
        cfg.out = str(tmp_path)
        train, _ = cli_mod._build_cell_data(cfg, 0)
        model = condition(KernelSpec(HODGE_CURL, MaternParams(0.5, 0.4, 1.0, 0.01), lmax=10),
                          train)
        cli_mod._write_grid(cfg, "div-free", 0.5, model)
        rows = (tmp_path / "grid_div-free_0p5.csv").read_text().splitlines()[1:]
        lats = [float(r.split(",")[1]) for r in rows]
        assert len(rows) == 5 * 6 and lats[0] == -90.0 and lats[-1] == 90.0
        for row in rows:
            lon, lat, east, north, std = (float(v) for v in row.split(","))
            pred = predict(model, lonlat_to_point(lon, lat).coords[None])
            b = pred.frames[0]
            expected = [pred.mean[0] @ b[0], pred.mean[0] @ b[1],
                        np.sqrt(max(np.trace(pred.cov[0]), 0.0))]
            assert np.abs(np.array([east, north, std]) - expected).max() <= 1e-12

    def test_seeds_required(self, tmp_path):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(out=str(tmp_path), seeds=[])

    def test_unknown_kernel_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(out=str(tmp_path), kernels=["fourier"])

    @pytest.mark.parametrize("grid", [(3,), (3, 4, 5), (3.5, 4)])
    def test_grid_must_be_two_counts(self, tmp_path, grid):
        # before, run_experiment wrote both tables and then failed to unpack the grid
        # (or, for a fractional count, to build it)
        with pytest.raises(InvalidInputError, match="two integer counts"):
            ExperimentConfig(out=str(tmp_path / "out"), grid=grid)
        assert not (tmp_path / "out").exists()


class TestMainExitCodes:
    def test_usage_error_unknown_kernel(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path), "--kernel", "fourier"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_missing_out(self, capsys):
        assert main(["run", "--kernel", "div-free"]) == 1

    def test_usage_error_bad_nu(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path), "--nu", "0.7",
                     "--train", "5", "--test", "5"])
        assert code == 1

    @pytest.mark.parametrize("option", [
        ["--restarts", "0"], ["--kappa", "0"], ["--kappa", "-1"], ["--lmax", "-1"],
        ["--train", "0"], ["--test", "0"], ["--protocol", "great-circle", "--test", "0"],
        ["--protocol", "great-circle", "--stride", "0"], ["--seeds=-1"], ["--seeds=0,-1"],
        ["--grid=-1x72"], ["--grid=37x0"], ["--grid", "3"], ["--grid", "3x4x5"],
        # a malformed --field was a traceback (abc) or a data error after the
        # output directory was made (the other three)
        ["--field", "sample:div-free:abc:0.5"], ["--field", "sample:div-free:1.5"],
        ["--field", "sample:noise:1.5:0.5"], ["--field", "sample:div-free:1.5:-1"]],
        ids=" ".join)
    def test_usage_error_bad_numeric_setting(self, tmp_path, capsys, option):
        out = tmp_path / "bad"
        code = main(["run", "--out", str(out), "--kernel", "noise", "--grid", "3x4"] + option)
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", [
        ["--kappa", "1e-300"], ["--kappa", "1e-160"], ["--kappa", "1e300"],
        ["--nu", "inf,0.5", "--kappa", "1e-160"], ["--field", "sample:div-free:1.5:1e-300"],
        ["--field", "sample:div-free:inf:1e160"]], ids=" ".join)
    def test_out_of_range_kappa_is_a_usage_error(self, tmp_path, capsys, option):
        # --kappa 1e-300 aborted the sweep with a ZeroDivisionError traceback
        out = tmp_path / "bad"
        code = main(["run", "--out", str(out), "--kernel", "div-free", "--grid", "3x4"] + option)
        assert code == 1
        assert "usage error: kappa must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kernel", ["compositional", "noise", "vortex"])
    def test_unsamplable_field_kernel_names_the_samplable_ones(self, tmp_path, capsys, kernel):
        # a compositional sample field failed on its spec's missing parts
        out = tmp_path / "bad"
        code = main(["run", "--out", str(out), "--field", f"sample:{kernel}:1.5:0.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: cannot sample from kernel {kernel!r}" in err
        assert "choose from curl-free, div-free, hodge, projected" in err
        assert not out.exists()

    def test_level_zero_hodge_cell_is_a_nan_row(self, tmp_path, capsys):
        # the sphere's Hodge classes are empty at lmax 0; the projected and
        # noise kinds still fit there
        out = tmp_path / "l0"
        code = main(["run", "--out", str(out), "--kernel", "div-free,noise", "--lmax", "0",
                     "--train", "8", "--test", "5", "--grid", "3x4", "--restarts", "1"])
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        by_kernel = {r.split(",")[0]: r.split(",") for r in rows}
        assert by_kernel["div-free"][3] == "nan"
        assert np.isfinite(float(by_kernel["noise"][3]))
        assert "failed kernel=div-free nu=0.5 seed=0: empty eigenfield class" in (
            capsys.readouterr().err)

    def test_module_entry_point_runs_once(self):
        # the package must not import hodgegp.cli itself, or runpy warns that
        # the module is already in sys.modules and executes it a second time
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "hodgegp.cli",
                               "--help"], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "usage: hodgegp" in done.stdout

    def test_package_serves_the_harness_names(self):
        import hodgegp
        from hodgegp import ExperimentConfig as config_class, run_experiment as run
        assert config_class is ExperimentConfig and run is run_experiment
        with pytest.raises(AttributeError):
            hodgegp.no_such_name

    def test_data_error_missing_file(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path), "--protocol", "file",
                     "--train", str(tmp_path / "nope.csv"),
                     "--test", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_successful_tiny_run(self, tmp_path):
        code = main(["run", "--out", str(tmp_path / "ok"), "--kernel", "noise",
                     "--train", "6", "--test", "6", "--seeds", "0",
                     "--lmax", "8", "--grid", "3x4"])
        assert code == 0
        assert (tmp_path / "ok" / "results.csv").exists()

    def test_torus_file_sweep_writes_results_and_no_grid(self, tmp_path):
        # the lon/lat prediction grid is a sphere product; a T^2 sweep must
        # still finish with exit 0 and its results
        rng = np.random.default_rng(5)
        for name, n in (("train.csv", 12), ("test.csv", 6)):
            pts = sample_uniform("torus", n, rng, dim=2)
            obs = [TangentVector(p, rng.standard_normal(2)) for p in pts]
            emit_csv(Dataset(pts, obs), tmp_path / name)
        out = tmp_path / "t2"
        code = main(["run", "--out", str(out), "--protocol", "file",
                     "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
                     "--kernel", "div-free,noise", "--seeds", "0", "--restarts", "1"])
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            mse, pnll = (float(v) for v in row.split(",")[3:5])
            assert np.isfinite(mse) and np.isfinite(pnll)
        assert not list(out.glob("grid_*.csv"))

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kernel = noise\nnu = 0.5\nseeds = 0\n"
                       "train = 6\ntest = 6\nlmax = 8\ngrid = 3x4\n# comment\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert code == 0

    def test_config_file_rejects_unknown_keys(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kernel = noise\nseed = 5\nmax_iter = 3\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown config key(s) max_iter, seed" in err
        assert "accepted keys: field, grid, kappa, kernel, lmax, nu, out, protocol, " \
               "restarts, seeds, stride, test, train" in err
        assert not (tmp_path / "c").exists()


# a value other than the default for every run flag but --out
FLAG_VALUES = {"kernel": "noise,hodge", "nu": "1.5", "kappa": "0.3", "lmax": "8", "seeds": "1,2",
               "protocol": "great-circle", "train": "7", "test": "9",
               "field": "sample:div-free:1.5:0.5", "grid": "3x4", "stride": "5", "restarts": "2"}


class TestRunFlags:
    """Each run setting is stated once: ExperimentConfig holds its default, and the CLI
    parses only the flags and config keys given."""

    def config(self, *args):
        return _config_from_options(build_parser().parse_args(["run", *args]))

    def test_unset_flags_keep_the_config_defaults(self, tmp_path):
        out = str(tmp_path / "d")
        config = self.config("--out", out)
        assert vars(config) == vars(ExperimentConfig(out=out))
        assert config.hash() == ExperimentConfig(out=out).hash()

    def test_every_flag_is_a_config_key_that_sets_one_field(self, tmp_path):
        out = str(tmp_path / "d")
        flags = vars(build_parser().parse_args(["run", "--out", out])).keys()
        assert flags - {"command", "config", "out"} == FLAG_VALUES.keys()
        default = vars(ExperimentConfig(out=out))
        for flag, value in FLAG_VALUES.items():
            cfg = tmp_path / f"{flag}.cfg"
            cfg.write_text(f"{flag} = {value}\n")
            by_flag = vars(self.config("--out", out, f"--{flag}", value))
            assert vars(self.config("--out", out, "--config", str(cfg))) == by_flag
            assert sum(by_flag[name] != default[name] for name in default) == 1
        cfg = tmp_path / "out.cfg"
        cfg.write_text(f"out = {out}\n")
        assert vars(self.config("--config", str(cfg))) == default
