import ctypes
import subprocess
import sys
import threading

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

from hodgegp import _accel, gp
from hodgegp._accel import (_contract_levels, alp_tables, blas_pools, legendre_derivative_maps,
                            legendre_parity_maps, legendre_sums, legendre_table, numpy_blas_scope,
                            single_threaded_numpy_blas, using_numba)
from hodgegp.errors import InvalidInputError
from hodgegp.kernels import HODGE_CURL, KernelSpec, MaternParams
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
        w1[::2] = 0.0   # zero weights at some levels
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
        # the kept table must contract to the sums legendre_sums gives, bit for bit,
        # for any weights and for any rows of them (the one-shot route passes a part's
        # value rows, the kept one its value and derivative rows), so a prepared fit
        # follows the same optimizer path as the one-shot LML
        rng = np.random.default_rng(40 + lmax)
        t = np.concatenate([rng.uniform(-1.0, 1.0, size=300), [-1.0, 0.0, 1.0]])
        table = legendre_table(t, lmax)
        assert table.shape == (lmax // 2 + 2, t.size)
        for l in range(lmax + 1):
            w = np.eye(lmax + 1)[l:l + 1]
            np.testing.assert_array_equal(_contract_levels(w, table), legendre_sums(t, w))
        w = rng.uniform(-1.0, 1.0, size=lmax + 1)
        weights = value_and_derivative_weights(w, w, w)
        sums = legendre_sums(t, weights)
        np.testing.assert_array_equal(_contract_levels(weights, table), sums)
        for row, want in zip(weights, sums):
            np.testing.assert_array_equal(_contract_levels(row[None], table)[0], want)

    def test_levels_match_numpy_series_and_single_values(self):
        # B_j = T_j(s) - T_{j-1}(s) at s = 2t^2 - 1 from numpy's Chebyshev series, then t
        t = np.array([-1.0, -0.3, 0.0, 0.55, 1.0])
        table = legendre_table(t, 24)
        assert table.shape == (14, 5)
        s = 2.0 * t * t - 1.0
        for j, level in enumerate(table[:-1]):
            c = np.zeros(j + 1)
            c[j] = 1.0
            if j:
                c[j - 1] = -1.0
            np.testing.assert_allclose(level, npcheb.chebval(s, c), rtol=0.0, atol=1e-14 * (j + 1))
        np.testing.assert_array_equal(table[-1], t)
        # one-hot Legendre weights contract to P_l, as legendre(l, t) gives it (a single
        # abscissa may pair the levels, so not bit for bit)
        for l in range(13):
            w = np.eye(l + 1)[l:l + 1]
            level = _contract_levels(w, legendre_table(t, l))[0]
            want = reference_sums(t, w[0])
            np.testing.assert_allclose(level, want[0], rtol=0.0, atol=1e-14)
            single = legendre(l, t[3])
            assert single[0] == pytest.approx(float(level[3]), rel=0.0, abs=1e-15)
            np.testing.assert_allclose(single, [w_[3] for w_ in want], rtol=0.0,
                                       atol=1e-12 * max(1.0, l ** 4))

    @pytest.mark.parametrize("lmax", [2, 3, 30, 31, 200])
    def test_levels_vanish_exactly_at_both_ends(self, lmax):
        # B_j(1) = T_j(1) - T_{j-1}(1) = 0, with s - 1 = 2 (t - 1)(t + 1) exactly 0 at
        # t = +-1, so endpoint sums are the even and odd weight sums alone
        table = legendre_table(np.array([-1.0, 1.0]), lmax)
        assert table[0].tolist() == [1.0, 1.0]
        assert table[-1].tolist() == [-1.0, 1.0]
        assert (table[1:-1] == 0.0).all()
        near = legendre_table(np.array([-1.0 + 2.0 ** -40, 1.0 - 2.0 ** -40]), lmax)
        assert (near[1:-1] != 0.0).all()

    @pytest.mark.parametrize("lmax", [0, 1, 2, 7, 30])
    def test_parity_maps_are_read_only_with_exact_parity_rows(self, lmax):
        maps = legendre_parity_maps(lmax)
        half = lmax // 2 + 1
        assert maps.shape == (2 * half, lmax + 1)
        even = np.arange(lmax + 1) % 2 == 0
        assert maps[0].tolist() == even.tolist()
        assert maps[half].tolist() == (~even).tolist()
        # an even level has no odd part and an odd level no even part
        assert (maps[:half, ~even] == 0.0).all() and (maps[half:, even] == 0.0).all()
        with pytest.raises(ValueError):
            maps[0, 0] = 2.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than double on this platform")
    @pytest.mark.parametrize("lmax", [100, 200])
    def test_high_degree_sums_against_long_double(self, lmax):
        # value, P' and P'' rows against numpy's Legendre series in long double, with
        # points near and at both ends; the bound, 2e-13 of each row's largest
        # magnitude, was set before the first run
        rng = np.random.default_rng(50 + lmax)
        t = np.concatenate([rng.uniform(-1.0, 1.0, size=2000), 1.0 - rng.uniform(0.0, 1e-6, 50),
                            -1.0 + rng.uniform(0.0, 1e-6, 50), [-1.0, 0.0, 1.0]])
        w = rng.uniform(-1.0, 1.0, size=lmax + 1)
        sums = legendre_sums(t, value_and_derivative_weights(w, w, w))
        t_ld, w_ld = t.astype(np.longdouble), w.astype(np.longdouble)
        for k, got in enumerate(sums):
            want = npleg.legval(t_ld, npleg.legder(w_ld, k))
            scale = float(np.abs(want).max())
            assert float(np.abs(got - want).max()) <= 2e-13 * scale


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


    def test_tables_equal_the_per_entry_recurrence(self):
        # the recurrence one (m, l) entry at a time, as alp_tables once ran it: the
        # tables run it for every m at once and must give the same bits, poles included
        def per_entry(ct, st, lmax):
            a, b, d = (np.zeros((lmax + 1, lmax + 1, len(ct))) for _ in range(3))
            a[0, 0] = 0.28209479177387814
            for m in range(1, lmax + 1):
                c = np.sqrt((2.0 * m + 1.0) / (2.0 * m))
                a[m, m] = c * st * a[m - 1, m - 1]
                b[m, m] = c * (ct * a[m - 1, m - 1] + st * b[m - 1, m - 1])
                d[m, m] = c * a[0, 0] if m == 1 else c * st * d[m - 1, m - 1]
            for m in range(0, lmax):
                c = np.sqrt(2.0 * m + 3.0)
                a[m + 1, m] = c * ct * a[m, m]
                b[m + 1, m] = c * (ct * b[m, m] - st * a[m, m])
                if m >= 1:
                    d[m + 1, m] = c * ct * d[m, m]
            for m in range(0, lmax + 1):
                for l in range(m + 2, lmax + 1):
                    fa = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                    fb = -np.sqrt(((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m))
                                  / ((2.0 * l - 3.0) * (l * l - m * m)))
                    a[l, m] = fa * ct * a[l - 1, m] + fb * a[l - 2, m]
                    b[l, m] = fa * (ct * b[l - 1, m] - st * a[l - 1, m]) + fb * b[l - 2, m]
                    if m >= 1:
                        d[l, m] = fa * ct * d[l - 1, m] + fb * d[l - 2, m]
            return a, b, d

        theta = np.concatenate([[0.0, np.pi, 1e-9, np.pi - 1e-9],
                                np.random.default_rng(3).uniform(0.0, np.pi, 40)])
        ct, st = np.cos(theta), np.sin(theta)
        ct[:2], st[:2] = [1.0, -1.0], 0.0   # both poles exactly
        for lmax in (0, 1, 2, 30):
            for got, want in zip(alp_tables(ct, st, lmax), per_entry(ct, st, lmax)):
                np.testing.assert_array_equal(got, want)


def pool_of(user):
    (pool,) = [pool for pool in blas_pools() if user in pool.users]
    return pool


def thread_counts():
    return {user: pool.get() for pool in blas_pools() for user in pool.users}


def numpy_blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:   # numpy < 1.26
        return None


needs_wheel_pools = pytest.mark.skipif(numpy_blas_name() != "scipy-openblas",
                                       reason="numpy is not built on the wheels' scipy-openblas")


@pytest.fixture
def two_threads_each():
    """Both pools at two threads for the test, the previous counts restored after it."""
    saved = [(pool, pool.get()) for pool in blas_pools()]
    for pool, _ in saved:
        pool.set(2)
    yield
    for pool, threads in saved:
        pool.set(threads)


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(40)
    X = rng.standard_normal((8, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    V = rng.standard_normal((8, 3))
    V -= np.sum(V * X, axis=1, keepdims=True) * X
    spec = KernelSpec(HODGE_CURL, MaternParams(0.5, 0.5, 1.0, 1e-3), lmax=12)
    return gp.condition(spec, gp.Dataset.from_arrays("sphere", X, V))


@needs_wheel_pools
class TestBlasPools:
    def test_numpy_and_scipy_pools_found_and_distinct(self):
        pools = blas_pools()
        assert sorted(pool.users for pool in pools) == [("numpy",), ("scipy",)]
        addresses = {ctypes.cast(pool.get, ctypes.c_void_p).value for pool in pools}
        assert len(addresses) == 2
        assert all(pool.get() >= 1 for pool in pools)

    def test_entry_point_holds_numpy_at_one_thread_and_restores(self, model, monkeypatch,
                                                                two_threads_each):
        inside = []
        solve = gp.solve_triangular

        def recording(*args, **kwargs):
            inside.append(thread_counts())
            return solve(*args, **kwargs)

        monkeypatch.setattr(gp, "solve_triangular", recording)
        gp.predict(model, model.dataset.coords()[:2])
        assert inside == [{"numpy": 1, "scipy": 2}]
        assert thread_counts() == {"numpy": 2, "scipy": 2}

    def test_sphere_draws_hold_numpy_at_one_thread(self, model, monkeypatch, two_threads_each):
        # a sphere draw is a GEMM on numpy's pool; at two threads it slowed the
        # scipy calls that followed it
        inside = []
        values = gp.gradient_field_values

        def recording(*args, **kwargs):
            inside.append(thread_counts())
            return values(*args, **kwargs)

        monkeypatch.setattr(gp, "gradient_field_values", recording)
        pts = model.dataset.coords()[:2]
        gp.sample_prior(model.spec, np.random.default_rng(0)).at(pts)
        gp.sample_prior_batch(model.spec, pts, 2, np.random.default_rng(0))
        gp.sample_posterior(model, pts, np.random.default_rng(0))
        assert inside == [{"numpy": 1, "scipy": 2}] * 3
        assert thread_counts() == {"numpy": 2, "scipy": 2}

    def test_counts_restored_after_an_exception(self, model, two_threads_each):
        with pytest.raises(InvalidInputError):
            gp.predict(model, 2.0 * model.dataset.coords()[:2])
        assert thread_counts() == {"numpy": 2, "scipy": 2}

    def test_nested_entry_points_restore_on_the_outermost_exit(self, two_threads_each):
        seen = []

        @single_threaded_numpy_blas
        def inner():
            seen.append(thread_counts())

        @single_threaded_numpy_blas
        def outer():
            inner()
            seen.append(thread_counts())
            inner()

        outer()
        assert seen == [{"numpy": 1, "scipy": 2}] * 3
        assert thread_counts() == {"numpy": 2, "scipy": 2}

    def test_a_changed_caller_count_is_what_is_restored(self, model, two_threads_each):
        pool_of("numpy").set(3)
        gp.predict(model, model.dataset.coords()[:2])
        assert thread_counts() == {"numpy": 3, "scipy": 2}

    def test_concurrent_predicts_leave_the_counts_as_found(self, model, two_threads_each):
        queries = model.dataset.coords()
        want = gp.predict(model, queries).mean
        errors = []

        def work():
            try:
                for _ in range(20):
                    np.testing.assert_array_equal(gp.predict(model, queries).mean, want)
            except Exception as exc:   # reported by the main thread
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert numpy_blas_scope._depth == 0
        assert thread_counts() == {"numpy": 2, "scipy": 2}

    def test_import_changes_no_count(self):
        script = """
import ctypes, numpy.linalg._umath_linalg as n, scipy.linalg._flapack as s
pools = [(ctypes.CDLL(n.__file__), "scipy_openblas_{}_num_threads64_"),
         (ctypes.CDLL(s.__file__), "scipy_openblas_{}_num_threads")]
for lib, name in pools:
    getattr(lib, name.format("set"))(2)
def counts():
    return [getattr(lib, name.format("get"))() for lib, name in pools]
before = counts()
import hodgegp, hodgegp.gp, hodgegp.cli
print(before, counts())
"""
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, timeout=120)
        assert done.stdout.split() == ["[2,", "2]", "[2,", "2]"]


class TestBlasPoolsMissing:
    @pytest.fixture
    def no_symbols(self, monkeypatch):
        real = {pool.users: pool for pool in blas_pools()}
        monkeypatch.setattr(_accel, "_THREAD_SYMBOLS", (("no_such_get", "no_such_set"),))
        blas_pools.cache_clear()
        yield real
        blas_pools.cache_clear()

    def test_no_pools_and_no_count_changed(self, model, no_symbols):
        assert blas_pools() == ()
        before = {users: pool.get() for users, pool in no_symbols.items()}
        inside = []

        @single_threaded_numpy_blas
        def body():
            inside.append({users: pool.get() for users, pool in no_symbols.items()})
            return gp.predict(model, model.dataset.coords()[:2])

        assert body().mean.shape == (2, 3)
        assert inside == [before]
        assert {users: pool.get() for users, pool in no_symbols.items()} == before
