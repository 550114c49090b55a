import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from hodgegp._accel import (alp_tables, legendre_derivative_maps, legendre_levels,
                            legendre_sums, using_numba)
from hodgegp.kernels import _legendre_level_table
from hodgegp.spectrum import legendre


def reference_sums(t, w):
    """(sum w_l P_l, sum w_l P_l', sum w_l P_l'') from numpy's Legendre series."""
    return tuple(npleg.legval(t, npleg.legder(w, k)) for k in range(3))


def value_and_derivative_weights(w0, w1, w2):
    """Legendre weight rows of (sum w0_l P_l, sum w1_l P_l', sum w2_l P_l'')."""
    d1, d2 = legendre_derivative_maps(len(w0) - 1)
    return np.stack([w0, d1 @ w1, d2 @ w2])


class TestDerivativeMaps:
    @pytest.mark.parametrize("lmax", range(31))
    def test_equal_numpy_legder_on_one_hot_weights(self, lmax):
        d1, d2 = legendre_derivative_maps(lmax)
        for l in range(lmax + 1):
            w = np.zeros(lmax + 1)
            w[l] = 1.0
            for k, dmap in ((1, d1), (2, d2)):
                want = np.zeros(lmax + 1)
                der = npleg.legder(w, k)
                want[:len(der)] = der
                np.testing.assert_array_equal(dmap @ w, want)

    def test_read_only(self):
        d1, _ = legendre_derivative_maps(4)
        with pytest.raises(ValueError):
            d1[0, 1] = 0.0


class TestLegendreSums:
    @pytest.mark.parametrize("lmax", [0, 1, 2, 30])
    def test_matches_numpy_series(self, lmax):
        rng = np.random.default_rng(lmax)
        t = np.concatenate([rng.uniform(-1.0, 1.0, size=200), [-1.0, 1.0]])
        w = rng.uniform(-1.0, 1.0, size=lmax + 1)
        sums = legendre_sums(t, value_and_derivative_weights(w, w, w))
        for got, want in zip(sums, reference_sums(t, w)):
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)

    def test_endpoints_exact(self):
        # P_l(1) = 1, P_l'(1) = l(l+1)/2, P_l''(1) = (l-1)l(l+1)(l+2)/8, with parity at -1
        lmax = 30
        for l in range(lmax + 1):
            w = np.zeros(lmax + 1)
            w[l] = 1.0
            weights = value_and_derivative_weights(w, w, w)
            p, dp, d2p = legendre_sums(np.array([1.0, -1.0]), weights)
            sign = (-1.0) ** l
            assert p.tolist() == [1.0, sign]
            assert dp.tolist() == [l * (l + 1) / 2, -sign * l * (l + 1) / 2]
            assert d2p.tolist() == [(l - 1) * l * (l + 1) * (l + 2) / 8,
                                    sign * (l - 1) * l * (l + 1) * (l + 2) / 8]

    def test_separate_weights_per_sum(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(-1.0, 1.0, size=50)
        w0, w1, w2 = rng.uniform(-1.0, 1.0, size=(3, 13))
        w1[::2] = 0.0   # zero-weight levels are skipped in the accumulation
        s0, s1, s2 = legendre_sums(t, value_and_derivative_weights(w0, w1, w2))
        np.testing.assert_allclose(s0, reference_sums(t, w0)[0], atol=1e-12)
        np.testing.assert_allclose(s1, reference_sums(t, w1)[1], atol=1e-11)
        np.testing.assert_allclose(s2, reference_sums(t, w2)[2], atol=1e-10)

    def test_empty_abscissae(self):
        w = np.ones(31)
        sums = legendre_sums(np.zeros(0), value_and_derivative_weights(w, w, w))
        assert sums.shape == (3, 0)

    def test_numpy_only(self):
        assert using_numba() is False


class TestLegendreLevels:
    @pytest.mark.parametrize("lmax", [0, 1, 2, 30])
    def test_level_tables_equal_one_hot_sums(self, lmax):
        # the one-pass table must hold exactly what the folded sums accumulate,
        # and its level-ordered contraction must equal the sums of any weights,
        # so a prepared fit follows the same optimizer path as the one-shot LML
        rng = np.random.default_rng(40 + lmax)
        t = np.concatenate([rng.uniform(-1.0, 1.0, size=300), [-1.0, 0.0, 1.0]])
        table = _legendre_level_table(t, lmax)
        assert table.shape == (lmax + 1, t.size)
        for l in range(lmax + 1):
            w = np.zeros(l + 1)
            w[l] = 1.0
            np.testing.assert_array_equal(table[l], legendre_sums(t, w)[0])
        w = rng.uniform(-1.0, 1.0, size=lmax + 1)
        for row, want in zip(value_and_derivative_weights(w, w, w),
                             legendre_sums(t, value_and_derivative_weights(w, w, w))):
            np.testing.assert_array_equal(np.add.reduce(row[:, None] * table, axis=0), want)

    def test_levels_match_numpy_series_and_single_values(self):
        t = np.array([-1.0, -0.3, 0.0, 0.55, 1.0])
        for l, level in enumerate(legendre_levels(t, 12)):
            w = np.zeros(l + 1)
            w[l] = 1.0
            want = reference_sums(t, w)
            np.testing.assert_allclose(level, want[0], rtol=0.0, atol=1e-12 * max(1.0, l ** 4))
            single = legendre(l, t[3])
            assert single[0] == float(level[3])
            np.testing.assert_allclose(single, [w_[3] for w_ in want], rtol=0.0,
                                       atol=1e-12 * max(1.0, l ** 4))


class TestAlpTables:
    def test_orthonormal_at_pole(self):
        # at the north pole only m = 0 survives: a[l, 0] = sqrt((2l+1)/(4 pi))
        a, b, d = alp_tables(np.array([1.0]), np.array([0.0]), 12)
        l = np.arange(13)
        np.testing.assert_allclose(a[:, 0, 0], np.sqrt((2 * l + 1) / (4 * np.pi)), rtol=1e-13)
        np.testing.assert_array_equal(a[:, 1:, 0], 0.0)
        np.testing.assert_array_equal(b[:, 0, 0], 0.0)

    def test_upper_triangle_zero(self):
        rng = np.random.default_rng(0)
        ct = rng.uniform(-1.0, 1.0, size=60)
        a, b, d = alp_tables(ct, np.sqrt(1.0 - ct ** 2), 20)
        upper = np.triu_indices(21, k=1)
        for table in (a, b, d):
            assert table.shape == (21, 21, 60)
            np.testing.assert_array_equal(table[upper], 0.0)

    def test_theta_derivative(self):
        theta = np.linspace(0.2, 2.9, 40)
        h = 1e-6
        a_plus, _, _ = alp_tables(np.cos(theta + h), np.sin(theta + h), 10)
        a_minus, _, _ = alp_tables(np.cos(theta - h), np.sin(theta - h), 10)
        _, b, _ = alp_tables(np.cos(theta), np.sin(theta), 10)
        np.testing.assert_allclose(b, (a_plus - a_minus) / (2 * h), atol=1e-6)

    def test_d_table_is_a_over_sin(self):
        theta = np.linspace(0.1, 3.0, 30)
        a, _, d = alp_tables(np.cos(theta), np.sin(theta), 15)
        np.testing.assert_allclose(d[:, 1:] * np.sin(theta), a[:, 1:], atol=1e-13)
