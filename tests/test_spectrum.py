import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hodgegp._accel import alp_tables
from hodgegp.diagnostics import numeric_divergence
from hodgegp.errors import InvalidInputError
from hodgegp.manifold import frames_at, sample_sphere, sphere_point
from hodgegp.spectrum import (CURL, DIV, HARM, circle_spectrum, legendre, product_spectrum,
                              sphere_eigenfield, sphere_eigenvalue, sphere_quadrature,
                              sphere_spectrum, spherical_harmonic, torus_quadrature,
                              torus_spectrum)


@pytest.fixture(scope="module")
def squad():
    return sphere_quadrature()


def laplace_integral_legendre(l, t):
    """Independent oracle: P_l(t) = (1/pi) Int_0^pi (t + i sqrt(1-t^2) cos u)^l du."""
    s = np.sqrt(1.0 - t * t)

    def integrand(u):
        return ((t + 1j * s * np.cos(u)) ** l).real

    val, _ = quad(integrand, 0.0, np.pi, limit=200)
    return val / np.pi


class TestLegendre:
    def test_level_zero(self):
        assert legendre(0, 0.37) == (1.0, 0.0, 0.0)

    def test_level_two_at_one(self):
        p, dp, d2p = legendre(2, 1.0)
        assert p == pytest.approx(1.0, abs=0)
        assert dp == pytest.approx(3.0, abs=0)
        assert d2p == pytest.approx(3.0, abs=0)

    def test_against_independent_oracles(self):
        p, dp, d2p = legendre(5, 0.3)
        assert p == pytest.approx(laplace_integral_legendre(5, 0.3), abs=1e-10)
        coeffs = np.zeros(6)
        coeffs[5] = 1.0
        series = np.polynomial.legendre.Legendre(coeffs)
        assert dp == pytest.approx(series.deriv(1)(0.3), abs=1e-10)
        assert d2p == pytest.approx(series.deriv(2)(0.3), abs=1e-10)

    def test_exact_at_endpoints(self):
        for l in (1, 4, 9):
            p, dp, _ = legendre(l, 1.0)
            assert p == 1.0
            assert dp == pytest.approx(l * (l + 1) / 2.0, rel=1e-14)
            pm, _, _ = legendre(l, -1.0)
            assert pm == (-1.0) ** l

    def test_domain_validation(self):
        with pytest.raises(InvalidInputError):
            legendre(3, 1.1)
        with pytest.raises(InvalidInputError):
            legendre(-1, 0.0)

    @pytest.mark.parametrize("l, t", [(3, math.nan), (3, math.inf), (0, -math.inf),
                                      (2.5, 0.3), (True, 0.3), (2.0, 0.3), ("3", 0.3)])
    def test_level_and_argument_validated(self, l, t):
        # before, a NaN argument returned NaNs, a float level raised TypeError and a
        # bool level numpy's ValueError
        with pytest.raises(InvalidInputError):
            legendre(l, t)

    def test_numpy_integer_level(self):
        assert legendre(np.int64(3), 0.3) == legendre(3, 0.3)


class TestSphereEigenvalues:
    @pytest.mark.parametrize("l,lam", [(0, 0.0), (3, 12.0), (7, 56.0)])
    def test_values(self, l, lam):
        assert sphere_eigenvalue(l) == lam


class TestSphericalHarmonics:
    def test_constant_mode(self):
        p = sphere_point([0.6, -0.48, 0.64])
        for x in (p.coords, p):   # one bare point, a vector or a ManifoldPoint, gives a float
            y = spherical_harmonic(0, 0, x)
            assert isinstance(y, float)
            assert y == pytest.approx(1.0 / np.sqrt(4 * np.pi), abs=1e-15)

    def test_addition_theorem_diagonal(self):
        rng = np.random.default_rng(0)
        x = sample_sphere(6, rng)
        total = sum(spherical_harmonic(4, m, x) ** 2 for m in range(-4, 5))
        np.testing.assert_allclose(total, 9.0 / (4 * np.pi), rtol=1e-12)

    def test_orthogonality_by_quadrature(self, squad):
        pts, w = squad
        y21 = spherical_harmonic(2, 1, pts)
        y31 = spherical_harmonic(3, 1, pts)
        assert abs(np.sum(w * y21 * y31)) < 1e-8

    def test_order_validation(self):
        with pytest.raises(InvalidInputError):
            spherical_harmonic(2, 3, np.array([0.0, 0, 1]))


def per_entry_sphere_reference(X, lmax):
    """(Y, eigenfields) at X built one (l, m) at a time from the associated-Legendre
    tables and explicit cos/sin(m phi); the curl class by np.cross with x."""
    ct, st = X[:, 2], np.hypot(X[:, 0], X[:, 1])
    phi = np.where(st > 0.0, np.arctan2(X[:, 1], X[:, 0]), 0.0)
    e_theta = np.stack([ct * np.cos(phi), ct * np.sin(phi), -st], axis=1)
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=1)
    a, b, d = alp_tables(ct, st, lmax)
    ys, fields = [], []
    for l in range(lmax + 1):
        level = []
        for m in range(-l, l + 1):
            mu = abs(m)
            trig = (np.ones_like(phi) if m == 0 else np.sqrt(2) * np.cos(m * phi) if m > 0
                    else np.sqrt(2) * np.sin(mu * phi))
            dtrig = (np.zeros_like(phi) if m == 0 else -np.sqrt(2) * m * np.sin(m * phi)
                     if m > 0 else np.sqrt(2) * mu * np.cos(mu * phi))
            ys.append(a[l, mu] * trig)
            level.append(b[l, mu, :, None] * trig[:, None] * e_theta
                         + (d[l, mu] * dtrig)[:, None] * e_phi)
        if l > 0:
            level = [g / np.sqrt(l * (l + 1.0)) for g in level]
            fields += level + [np.cross(X, g) for g in level]
    return np.array(ys), np.array(fields)


class TestSphereEigenfields:
    def test_tables_match_the_per_entry_construction(self):
        # the whole-table builders against the one-(l, m)-at-a-time route
        # they replaced, at both poles and at random points; bound 1e-13
        X = np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                       sample_sphere(7, np.random.default_rng(4))])
        spec = sphere_spectrum(9)
        ys, fields = per_entry_sphere_reference(X, 9)
        np.testing.assert_allclose(spec.scalar_values(X), ys, rtol=0, atol=1e-13)
        np.testing.assert_allclose(spec.eigenfield_values(X), fields, rtol=0, atol=1e-13)

    def test_tangency(self):
        rng = np.random.default_rng(1)
        for x in sample_sphere(5, rng):
            for cls in (DIV, CURL):
                v = sphere_eigenfield(cls, 3, -2, x)
                assert abs(v.components @ x) <= 1e-10 * max(v.norm, 1e-30)

    def test_unit_l2_norm(self, squad):
        pts, w = squad
        spec = sphere_spectrum(3)
        fields = spec.eigenfield_values(pts)
        idx = next(i for i, e in enumerate(spec.entries)
                   if e.hodge_class == DIV and e.label == (3, 2))
        norm_sq = np.sum(w * np.sum(fields[idx] ** 2, axis=1))
        assert norm_sq == pytest.approx(1.0, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        pts = sample_sphere(4, rng)
        frames = frames_at(pts)
        h = 1e-5
        for (l, m) in [(3, 2), (6, -5), (4, 0)]:
            grad = np.stack([sphere_eigenfield(DIV, l, m, x).components for x in pts])
            grad *= np.sqrt(sphere_eigenvalue(l))
            for k in range(2):
                d = frames[:, k]
                xp = pts + h * d
                xp /= np.linalg.norm(xp, axis=1, keepdims=True)
                xm = pts - h * d
                xm /= np.linalg.norm(xm, axis=1, keepdims=True)
                fd = (spherical_harmonic(l, m, xp) - spherical_harmonic(l, m, xm)) / (2 * h)
                an = np.einsum("ij,ij->i", grad, d)
                assert np.abs(fd - an).max() < 1e-6

    def test_constant_has_no_eigenfield(self):
        with pytest.raises(InvalidInputError):
            sphere_eigenfield(DIV, 0, 0, np.array([0.0, 0, 1]))

    def test_eigenfield_orthonormality(self, squad):
        pts, w = squad
        fields = sphere_spectrum(3).eigenfield_values(pts)[:20]
        gram = np.einsum("ipk,p,jpk->ij", fields, w, fields)
        np.testing.assert_allclose(gram, np.eye(20), atol=1e-6)

    def test_class_orthogonality(self, squad):
        pts, w = squad
        spec = sphere_spectrum(4)
        fields = spec.eigenfield_values(pts)
        div_idx = [i for i, e in enumerate(spec.entries) if e.hodge_class == DIV][:6]
        curl_idx = [i for i, e in enumerate(spec.entries) if e.hodge_class == CURL][:6]
        for i in div_idx:
            for j in curl_idx:
                inner = np.sum(w * np.sum(fields[i] * fields[j], axis=1))
                assert abs(inner) < 1e-6

    def test_eigen_relation_via_divergence(self):
        # div grad Y = laplacian Y = -l(l+1) Y, checked by finite differences
        spec = sphere_spectrum(3)
        x = sphere_point([0.48, 0.6, 0.64]).coords
        for (l, m) in [(2, 1), (3, -2)]:
            lam = sphere_eigenvalue(l)

            def grad_field(pts, l=l, m=m, lam=lam):
                tab_fields = spec.eigenfield_values(pts)
                idx = next(i for i, e in enumerate(spec.entries)
                           if e.hodge_class == DIV and e.label == (l, m))
                return tab_fields[idx] * np.sqrt(lam)

            div = numeric_divergence(grad_field, x, h=1e-4)
            expected = -lam * spherical_harmonic(l, m, x)
            assert div == pytest.approx(expected, rel=1e-3)


class TestCircleSpectrum:
    def test_truncation_zero(self):
        spec = circle_spectrum(0)
        assert len(spec.scalar) == 1
        assert spec.scalar[0].eigenvalue == 0.0
        assert [e.hodge_class for e in spec.entries] == [HARM]

    def test_eigenvalue_matches_second_derivative(self):
        # -(d^2/dt^2) cos(2 t) = 4 cos(2 t)
        spec = circle_spectrum(3)
        lams = sorted({s.eigenvalue for s in spec.scalar})
        assert lams == [0.0, 1.0, 4.0, 9.0]
        h = 1e-5
        theta = 0.37
        fd = -(np.cos(2 * (theta + h)) - 2 * np.cos(2 * theta) + np.cos(2 * (theta - h))) / h ** 2
        assert fd == pytest.approx(4.0 * np.cos(2 * theta), rel=1e-4)

    def test_orthonormality(self):
        spec = circle_spectrum(2)
        pts, w = torus_quadrature(1, n=128)
        vals = spec.scalar_values(pts)[:5]
        gram = (vals * w) @ vals.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)


class TestProductSpectrum:
    def test_count_matches_direct_enumeration(self):
        cap = 25.0
        spec = product_spectrum(circle_spectrum(5), circle_spectrum(5), cap)
        count = 0
        for n1 in range(6):
            for n2 in range(6):
                if n1 ** 2 + n2 ** 2 <= cap:
                    count += (2 if n1 else 1) * (2 if n2 else 1)
        assert len(spec.scalar) == count
        assert len(spec.entries) == 2 * (count - 1) + 2

    def test_harmonic_constants(self):
        spec = product_spectrum(circle_spectrum(2), circle_spectrum(2), 4.0)
        harm = [e for e in spec.entries if e.hodge_class == HARM]
        assert len(harm) == 2
        vals = spec.eigenfield_values(np.array([[0.3, 1.2], [2.0, 0.1]]))
        for e, idx in zip(spec.entries, range(len(spec.entries))):
            if e.hodge_class == HARM:
                expected = np.zeros(2)
                expected[e.label[1]] = 1.0 / (2 * np.pi)
                np.testing.assert_allclose(vals[idx], np.broadcast_to(expected, (2, 2)))

    def test_eigenvalue_addition(self):
        spec = product_spectrum(circle_spectrum(3), circle_spectrum(3), 9.0)
        lams = {s.label: s.eigenvalue for s in spec.scalar}
        assert lams[((1, 2), (0, 0))] == 5.0

    def test_empty_factor_rejected(self):
        with pytest.raises(InvalidInputError):
            product_spectrum(circle_spectrum(2), "not a spectrum", 4.0)

    @pytest.mark.parametrize("d, cap", [(3, 30.0), (3, 21.0), (4, 30.0)])
    def test_torus_spectrum_at_any_cap(self, d, cap):
        # one scalar eigenfunction per integer vector n with |n|^2 <= cap; a capped T^2 factor
        # tops out under these caps, which are not sums of two squares
        r = int(np.ceil(np.sqrt(cap)))
        lam = (np.array(list(itertools.product(range(-r, r + 1), repeat=d))) ** 2).sum(axis=1)
        np.testing.assert_array_equal(np.sort(torus_spectrum(d, cap).scalar_eigenvalues()),
                                      np.sort(lam[lam <= cap]).astype(np.float64))

    def test_insufficient_truncation_rejected(self):
        with pytest.raises(InvalidInputError):
            product_spectrum(circle_spectrum(2), circle_spectrum(2), 100.0)

    def test_t2_orthonormality(self):
        spec = torus_spectrum(2, 16.0)
        pts, w = torus_quadrature(2, n=24)
        fields = spec.eigenfield_values(pts)
        gram = np.einsum("ipk,p,jpk->ij", fields, w, fields)
        np.testing.assert_allclose(gram, np.eye(len(gram)), atol=1e-10)

    def test_eigenvalues_nondecreasing_within_class(self):
        spec = torus_spectrum(2, 20.0)
        for cls in (DIV, CURL, HARM):
            lams = [e.eigenvalue for e in spec.entries if e.hodge_class == cls]
            assert lams == sorted(lams)


class TestBuilderValidation:
    """The spectrum builders check their sizes as KernelSpec checks the same fields, and the
    reference builders their levels, orders and caps. Before, a float size was a TypeError
    and a negative or nan cap numpy's ValueError; spherical_harmonic(True, 0, x) was the
    l = 1 value, and product_spectrum's nan cap failed as "matching nonempty index arrays".
    spherical_harmonic read any 3-vector as a point: at [0, 0, 2] Y_10 was twice its pole
    value, and at [nan, 0, 1] it was the pole value; sphere_eigenfield normalized any nonzero
    vector, so at [0.3, 0, 0.4] it gave the field at [0.6, 0, 0.8]."""

    @pytest.mark.parametrize("call, match", [
        (lambda: sphere_spectrum(2.5), "lmax"), (lambda: sphere_spectrum(-1), "lmax"),
        (lambda: sphere_spectrum(True), "lmax"),
        (lambda: (sphere_spectrum(2), sphere_spectrum(2.0)), "lmax"),
        (lambda: circle_spectrum(2.5), "n_max"),
        (lambda: circle_spectrum(-1), "n_max"), (lambda: torus_spectrum(2.5, 4.0), "d"),
        (lambda: torus_spectrum(0, 4.0), "d"), (lambda: torus_spectrum(2, -1.0), "lambda_cap"),
        (lambda: torus_spectrum(2, math.nan), "lambda_cap"),
        (lambda: torus_spectrum(2, math.inf), "lambda_cap"),
        (lambda: spherical_harmonic(2.5, 0, [0.0, 0.0, 1.0]), "level"),
        (lambda: spherical_harmonic(True, 0, [0.0, 0.0, 1.0]), "level"),
        (lambda: spherical_harmonic(2, 0.5, [0.0, 0.0, 1.0]), "order"),
        (lambda: spherical_harmonic(2, False, [0.0, 0.0, 1.0]), "order"),
        (lambda: spherical_harmonic(1, 0, [0.0, 0.0, 2.0]), "unit norm"),
        (lambda: spherical_harmonic(1, 0, [math.nan, 0.0, 1.0]), "unit norm"),
        (lambda: sphere_eigenfield(DIV, 2.5, 0, [0.0, 0.0, 1.0]), "level"),
        (lambda: sphere_eigenfield(CURL, 2, 0.5, [0.0, 0.0, 1.0]), "order"),
        (lambda: sphere_eigenfield(DIV, 1, 0, [0.3, 0.0, 0.4]), "unit norm"),
        (lambda: sphere_eigenfield(CURL, 1, 0, [math.nan, 0.0, 1.0]), "unit norm"),
        (lambda: sphere_eigenfield(DIV, 1, 0, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), "one point"),
        (lambda: product_spectrum(circle_spectrum(2), circle_spectrum(2), math.nan),
         "lambda_cap"),
        (lambda: product_spectrum(circle_spectrum(2), circle_spectrum(2), -1.0), "lambda_cap")],
        ids=["sphere-float", "sphere-negative", "sphere-bool", "sphere-float-after-int",
             "circle-float", "circle-negative",
             "torus-float-d", "torus-zero-d", "torus-negative-cap", "torus-nan-cap",
             "torus-inf-cap", "harmonic-float-level", "harmonic-bool-level",
             "harmonic-float-order", "harmonic-bool-order", "harmonic-off-sphere",
             "harmonic-nan-point", "eigenfield-float-level",
             "eigenfield-float-order", "eigenfield-off-sphere", "eigenfield-nan-point",
             "eigenfield-two-points", "product-nan-cap", "product-negative-cap"])
    def test_bad_sizes_raise(self, call, match):
        with pytest.raises(InvalidInputError, match=match):
            call()

    def test_integer_sizes_of_any_type_pass(self):
        assert spherical_harmonic(np.int64(2), np.int32(-1), [0.0, 0.0, 1.0]) == 0.0
        assert sphere_spectrum(np.int64(2)).lmax == 2
        assert len(circle_spectrum(np.int32(1)).scalar) == 3
        assert len(torus_spectrum(np.int64(2), 0.0).scalar) == 1
