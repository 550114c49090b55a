"""The public API list and the deprecated names that stay importable for one release."""

import ast
import pathlib
import re
import warnings

import numpy as np
import pytest

import hodgegp
from hodgegp.errors import InvalidInputError
from hodgegp.kernels import (HODGE_COMPOSITIONAL, HODGE_CURL, HODGE_DIV, HODGE_FULL, PROJECTED,
                             SCALAR, KernelSpec, MaternParams, compositional_spec,
                             hodge_matern_sphere, kernel_matrix, projected_matern,
                             scalar_kernel_matrix, scalar_matern_sphere, scalar_matern_torus,
                             torus_matern)
from hodgegp.manifold import TORUS, TangentFrame, frame_at, frames_at, sample_sphere, sphere_point

DEPRECATED = ("hodge_matern_sphere", "projected_matern", "scalar_matern_sphere",
              "scalar_matern_torus", "torus_matern", "frame_at", "TangentFrame")
SRC = pathlib.Path(hodgegp.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PARAMS = MaternParams(nu=1.5, kappa=0.4, variance=1.3)
COREG = np.array([[1.0, 0.2, -0.5], [0.0, 0.7, 0.3], [0.4, -0.1, 1.2]])
SPHERE_SPECS = {
    HODGE_FULL: KernelSpec(HODGE_FULL, PARAMS, lmax=15),
    HODGE_DIV: KernelSpec(HODGE_DIV, PARAMS, lmax=15),
    HODGE_CURL: KernelSpec(HODGE_CURL, PARAMS, lmax=15),
    HODGE_COMPOSITIONAL: compositional_spec(1.5, (0.4, 0.8), (0.7, 1.2), lmax=15),
    PROJECTED: KernelSpec(PROJECTED, PARAMS, coreg=COREG, lmax=15),
}
NORTH, SOUTH = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])


def sphere_pairs():
    """Random pairs, then pairs at and between both poles."""
    x, y = sample_sphere(6, np.random.default_rng(90)).reshape(2, 3, 3)
    return list(zip(x, y)) + [(NORTH, SOUTH), (SOUTH, NORTH), (NORTH, x[0]), (y[1], SOUTH),
                              (NORTH, NORTH)]


def deprecated_call(call):
    """call()'s result, under the one DeprecationWarning it must raise."""
    with pytest.warns(DeprecationWarning):
        return call()


class TestDeprecatedNamesGiveTheirReplacementsValues:
    @pytest.mark.parametrize("kind", sorted(SPHERE_SPECS))
    def test_sphere_vector_kinds(self, kind):
        spec = SPHERE_SPECS[kind]
        for x, y in sphere_pairs():
            np.testing.assert_array_equal(
                deprecated_call(lambda: hodge_matern_sphere(spec, x, y)),
                kernel_matrix(spec, x, y)[0, 0])

    def test_projected(self):
        for coreg in (COREG, None):
            spec = KernelSpec(PROJECTED, PARAMS, coreg=coreg, lmax=12)
            for x, y in sphere_pairs():
                np.testing.assert_array_equal(
                    deprecated_call(lambda: projected_matern(PARAMS, coreg, x, y, 12)),
                    kernel_matrix(spec, x, y)[0, 0])

    def test_scalar_sphere(self):
        spec = KernelSpec(SCALAR, PARAMS, lmax=12)
        for x, y in sphere_pairs():
            got = deprecated_call(lambda: scalar_matern_sphere(PARAMS, 12, x, y))
            assert type(got) is float
            np.testing.assert_array_equal(got, float(scalar_kernel_matrix(spec, x, y)[0, 0]))

    @pytest.mark.parametrize("d, kind", [(1, HODGE_FULL), (1, HODGE_DIV), (2, HODGE_FULL),
                                         (2, HODGE_DIV), (2, HODGE_CURL)])
    def test_torus_vector_kinds(self, d, kind):
        pts = np.random.default_rng(91).uniform(0.0, 2 * np.pi, size=(4, d))
        spec = KernelSpec(kind, PARAMS, manifold=TORUS, lambda_cap=64.0, torus_dim=d)
        for x, y in [(pts[0], pts[1]), (pts[2], pts[3]), (pts[0], pts[0])]:
            np.testing.assert_array_equal(
                deprecated_call(lambda: torus_matern(PARAMS, 64.0, x, y, d, kind)),
                kernel_matrix(spec, x, y)[0, 0])
        np.testing.assert_array_equal(
            deprecated_call(lambda: torus_matern(PARAMS, 64.0, pts[0], pts[1], kind=kind)),
            kernel_matrix(spec, pts[0], pts[1])[0, 0])

    @pytest.mark.parametrize("d", [1, 2])
    def test_scalar_torus(self, d):
        pts = np.random.default_rng(92).uniform(0.0, 2 * np.pi, size=(5, d))
        spec = KernelSpec(SCALAR, PARAMS, manifold=TORUS, lambda_cap=64.0, torus_dim=d)
        got = deprecated_call(lambda: scalar_matern_torus(PARAMS, d, 64.0, pts[0], pts[1]))
        assert type(got) is float
        np.testing.assert_array_equal(got, scalar_kernel_matrix(spec, pts[0], pts[1])[0, 0])
        np.testing.assert_array_equal(
            deprecated_call(lambda: scalar_matern_torus(PARAMS, d, 64.0, pts[:3], pts[3:])),
            scalar_kernel_matrix(spec, pts[:3], pts[3:]))

    @pytest.mark.parametrize("x", [NORTH, SOUTH, np.array([3.0, -1.0, 2.0]),
                                   sphere_point([0.2, -0.4, 0.9])],
                             ids=["north", "south", "non-unit", "manifold-point"])
    def test_frame_at(self, x):
        frame = deprecated_call(lambda: frame_at(x))
        p = sphere_point(x) if isinstance(x, np.ndarray) else x
        basis = frames_at(p.coords)[0]
        np.testing.assert_array_equal(frame.basis, basis)
        np.testing.assert_array_equal(frame.b1, basis[0])
        np.testing.assert_array_equal(frame.b2, basis[1])
        np.testing.assert_array_equal(frame.base.coords, p.coords)

    def test_error_cases_still_raise(self):
        with pytest.warns(DeprecationWarning), pytest.raises(InvalidInputError):
            torus_matern(PARAMS, 64.0, np.array([0.1, 0.2]), np.array([0.3]))
        with pytest.warns(DeprecationWarning), pytest.raises(InvalidInputError):
            torus_matern(PARAMS, 64.0, np.array([0.1, 0.2]), np.array([0.3, 0.4]), d=3)
        x = sample_sphere(2, np.random.default_rng(93))
        with pytest.warns(DeprecationWarning), pytest.raises(InvalidInputError, match="unit"):
            scalar_matern_sphere(PARAMS, 10, x[0], 2.0 * x[1])


class TestOneWarningAtTheCallersLine:
    @pytest.mark.parametrize("name, replacement", [
        ("hodge_matern_sphere", "kernel_matrix(spec, x, y)[0, 0]"),
        ("projected_matern", "kernel_matrix(KernelSpec(PROJECTED, "),
        ("scalar_matern_sphere", "scalar_kernel_matrix(KernelSpec(SCALAR, "),
        ("scalar_matern_torus", "scalar_kernel_matrix(KernelSpec(SCALAR, "),
        ("torus_matern", "kernel_matrix(KernelSpec(kind, "),
        ("frame_at", "frames_at(sphere_point(x).coords)[0]"),
        ("TangentFrame", "frames_at(sphere_point(x).coords)[0]")])
    def test_each_call_warns_once(self, name, replacement):
        x, y = sample_sphere(2, np.random.default_rng(94))
        t = np.array([0.3, 1.2])
        calls = {
            "hodge_matern_sphere": lambda: hodge_matern_sphere(SPHERE_SPECS[HODGE_DIV], x, y),
            "projected_matern": lambda: projected_matern(PARAMS, COREG, x, y, 10),
            "scalar_matern_sphere": lambda: scalar_matern_sphere(PARAMS, 10, x, y),
            "scalar_matern_torus": lambda: scalar_matern_torus(PARAMS, 2, 25.0, t, t),
            "torus_matern": lambda: torus_matern(PARAMS, 25.0, t, t),
            "frame_at": lambda: frame_at(x),
            "TangentFrame": lambda: TangentFrame(sphere_point(x), frames_at(x)[0]),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calls[name]()
        assert [w.category for w in caught] == [DeprecationWarning]
        message = str(caught[0].message)
        old = "frame_at/TangentFrame" if name in ("frame_at", "TangentFrame") else name
        assert message.startswith(f"{old} is deprecated; call {replacement}")
        assert caught[0].filename == __file__


def test_no_module_calls_a_deprecated_name():
    # the shims' own definitions may use each other (frame_at builds a TangentFrame),
    # and __init__ re-exports them; nothing else in the package may name them
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        shims = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in DEPRECATED]
        inside = {id(n) for shim in shims for n in ast.walk(shim)}
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names += [alias.name for alias in node.names]
            uses += [f"{path.name}:{node.lineno} {n}" for n in names if n in DEPRECATED]
    assert uses == []


class TestPublicApi:
    def test_every_name_resolves_without_a_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name in hodgegp.__all__:
                getattr(hodgegp, name)
        assert caught == []
        assert len(set(hodgegp.__all__)) == len(hodgegp.__all__)

    def test_readme_lists_exactly_all(self):
        text = README.read_text()
        section = re.search(r"^## Public API\n(.*?)(?=^## )", text, re.M | re.S).group(1)
        # the names are the list's: from its first "- " line to the next blank line
        items = re.search(r"^- .*?(?=\n\n)", section, re.M | re.S).group(0)
        listed = re.findall(r"`([A-Za-z_]\w*)`", items)
        assert len(set(listed)) == len(listed)
        assert sorted(listed) == sorted(hodgegp.__all__)

    def test_deprecated_names_are_importable_but_not_listed(self):
        for name in DEPRECATED:
            assert name not in hodgegp.__all__
            assert getattr(hodgegp, name) is not None
