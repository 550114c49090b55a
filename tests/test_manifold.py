import numpy as np
import pytest

from hodgegp.errors import InvalidInputError
from hodgegp.manifold import (CIRCLE, SPHERE, TORUS, ManifoldPoint, TangentVector,
                              circle_point, frames_at, hodge_star, lonlat_to_point, point_to_lonlat, project_tangent,
                              sample_sphere, sample_uniform, sphere_point, tangent_from_east_north,
                              east_north_components, torus_point)


class TestProjectTangent:
    def test_normal_direction_annihilated(self):
        out = project_tangent(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
        np.testing.assert_allclose(out, 0.0)

    def test_tangent_vector_unchanged(self):
        out = project_tangent(np.array([1.0, 0, 0]), np.array([0.0, 2, 3]))
        np.testing.assert_allclose(out, [0, 2, 3])

    def test_hand_computed(self):
        out = project_tangent(np.array([0.0, 0, 1]), np.array([1.0, 1, 1]))
        np.testing.assert_allclose(out, [1, 1, 0])

    def test_idempotent_and_symmetric_matrix(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            p = np.eye(3) - np.outer(x, x)
            np.testing.assert_allclose(p @ p, p, atol=1e-14)
            np.testing.assert_allclose(p, p.T, atol=0)
            v = rng.standard_normal(3)
            np.testing.assert_allclose(project_tangent(x, project_tangent(x, v)),
                                       project_tangent(x, v), atol=1e-14)


class TestHodgeStar:
    def test_right_hand_rule(self):
        v = TangentVector(sphere_point([0, 0, 1]), np.array([1.0, 0, 0]))
        np.testing.assert_allclose(hodge_star(v).components, [0, 1, 0])

    def test_square_is_minus_one(self):
        rng = np.random.default_rng(1)
        x = sphere_point(rng.standard_normal(3))
        v = TangentVector(x, project_tangent(x.coords, rng.standard_normal(3)))
        vv = hodge_star(hodge_star(v))
        np.testing.assert_allclose(vv.components, -v.components, atol=1e-14)

    def test_cross_product_by_hand(self):
        v = TangentVector(sphere_point([1, 0, 0]), np.array([0.0, 0, 2]))
        np.testing.assert_allclose(hodge_star(v).components, [0, -2, 0])

    def test_isometry(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = sphere_point(rng.standard_normal(3))
            v = TangentVector(x, project_tangent(x.coords, rng.standard_normal(3)))
            assert hodge_star(v).norm == pytest.approx(v.norm, rel=1e-12)

    def test_non_tangent_input_rejected(self):
        x = sphere_point([0, 0, 1])
        with pytest.raises(InvalidInputError):
            TangentVector(x, np.array([0.0, 0, 1.0]))


class TestFrames:
    def test_east_north_at_lon0_lat0(self):
        b1, b2 = frames_at(sphere_point([1, 0, 0]).coords)[0]
        np.testing.assert_allclose(b1, [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(b2, [0, 0, 1], atol=1e-15)

    def test_orientation_constraint(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((20, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        frames = frames_at(pts)
        np.testing.assert_allclose(frames[:, 1], np.cross(pts, frames[:, 0]), atol=1e-14)

    @pytest.mark.parametrize("pole", [[0, 0, 1.0], [0, 0, -1.0]])
    def test_pole_fallback_orthonormal(self, pole):
        b = frames_at(sphere_point(pole).coords)[0]
        np.testing.assert_allclose(b @ b.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(b @ np.asarray(pole), 0.0, atol=1e-12)

    def test_orthonormality_everywhere(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((50, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts = np.vstack([pts, [[0, 0, 1.0]], [[0, 0, -1.0]]])
        frames = frames_at(pts)
        grams = np.einsum("nka,nla->nkl", frames, frames)
        np.testing.assert_allclose(grams, np.broadcast_to(np.eye(2), grams.shape), atol=1e-12)

    @pytest.mark.parametrize("bad", [[[2.0, 0, 0]], [[np.nan, 0, 1]], [[0, 0, 1.0], [0, 1.0]]])
    def test_off_sphere_points_are_invalid_input(self, bad):
        # before, [[2, 0, 0]] gave a frame whose b2 has norm 2
        with pytest.raises(InvalidInputError):
            frames_at(bad)

    def test_every_point_form_gives_the_same_frames(self):
        pts = np.vstack([sample_sphere(5, np.random.default_rng(6)), [[0, 0, 1.0]]])
        points = [ManifoldPoint(SPHERE, x) for x in pts]
        for form in (pts.tolist(), points, tuple(points)):
            assert np.array_equal(frames_at(form), frames_at(pts))
        assert np.array_equal(frames_at(points[0]), frames_at(pts[:1]))
        assert frames_at([]).shape == (0, 2, 3)


class TestLonLat:
    @pytest.mark.parametrize("lon,lat,expected", [
        (0, 0, [1, 0, 0]),
        (90, 0, [0, 1, 0]),
        (0, 90, [0, 0, 1]),
    ])
    def test_geographic_convention(self, lon, lat, expected):
        np.testing.assert_allclose(lonlat_to_point(lon, lat).coords, expected, atol=1e-15)

    def test_latitude_out_of_range(self):
        with pytest.raises(InvalidInputError):
            lonlat_to_point(0.0, 90.5)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = sphere_point(rng.standard_normal(3))
            lon, lat = point_to_lonlat(x)
            np.testing.assert_allclose(lonlat_to_point(lon, lat).coords, x.coords, atol=1e-12)
            assert point_to_lonlat(x.coords) == point_to_lonlat([x.coords]) == (lon, lat)

    @pytest.mark.parametrize("bad", [[0, 0, 2.0], [np.nan, 0, 1], [[0, 0, 1.0], [1.0, 0, 0]],
                                     [], torus_point([0.1, 0.2])])
    def test_one_sphere_point_or_invalid_input(self, bad):
        # before, [0, 0, 2] read as (0.0, 90.0) and [nan, 0, 1] as (nan, 90.0)
        with pytest.raises(InvalidInputError):
            point_to_lonlat(bad)

    @pytest.mark.parametrize("bad, match", [
        ([2.0, 0, 0], "unit norm"), ([np.nan, 0, 1], "unit norm"),
        ([[0, 0, 1.0], [1.0, 0, 0]], "one point"), (torus_point([0.1, 0.2]), "torus point")])
    def test_east_north_at_one_sphere_point_or_invalid_input(self, bad, match):
        # before, [2, 0, 0] gave the east vector at [1, 0, 0] without an error
        with pytest.raises(InvalidInputError, match=match):
            tangent_from_east_north(bad, 1.0, 0.0)

    def test_east_north_components_round_trip(self):
        p = lonlat_to_point(12.0, 34.0)
        v = tangent_from_east_north(p, 1.5, -0.3)
        u, w = east_north_components(v)
        assert u == pytest.approx(1.5, abs=1e-12)
        assert w == pytest.approx(-0.3, abs=1e-12)


class TestSampling:
    def test_empty(self):
        assert sample_uniform(SPHERE, 0, np.random.default_rng(0)) == []

    def test_sphere_symmetry(self):
        pts = sample_uniform(SPHERE, 10_000, np.random.default_rng(6))
        coords = np.stack([p.coords for p in pts])
        assert np.abs(coords.mean(axis=0)).max() < 0.05

    def test_determinism(self):
        a = sample_uniform(TORUS, 7, np.random.default_rng(7), dim=3)
        b = sample_uniform(TORUS, 7, np.random.default_rng(7), dim=3)
        for p, q in zip(a, b):
            np.testing.assert_array_equal(p.coords, q.coords)

    def test_angles_reduced(self):
        pts = sample_uniform(CIRCLE, 100, np.random.default_rng(8))
        for p in pts:
            assert 0.0 <= p.coords[0] < 2 * np.pi

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_uniform(SPHERE, -1, np.random.default_rng(0))


class TestPointInvariants:
    def test_sphere_unit_norm_enforced(self):
        with pytest.raises(InvalidInputError):
            ManifoldPoint(SPHERE, np.array([1.0, 1.0, 0.0]))

    def test_angle_reduction(self):
        p = ManifoldPoint(TORUS, np.array([2 * np.pi + 0.25, -0.5]))
        np.testing.assert_allclose(p.coords, [0.25, 2 * np.pi - 0.5], atol=1e-12)

    def test_sphere_point_normalizes(self):
        p = sphere_point([3.0, 4.0, 0.0])
        np.testing.assert_allclose(np.linalg.norm(p.coords), 1.0, atol=1e-15)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sphere_point_rejects_non_finite_coords(self, bad):
        with pytest.raises(InvalidInputError, match="unit norm"):
            ManifoldPoint(SPHERE, np.array([bad, 0.0, 0.0]))

    @pytest.mark.parametrize("manifold, coords, components", [
        (SPHERE, [0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]),
        (SPHERE, [0.0, 0.0, 1.0], [0.0, np.inf, 0.0]),
        (TORUS, [0.5, 1.0], [np.nan, 0.0]),
        (CIRCLE, [0.5], [-np.inf])])
    def test_tangent_vector_rejects_non_finite_components(self, manifold, coords, components):
        # at the parent condition() failed later inside scipy's Cholesky
        base = ManifoldPoint(manifold, np.array(coords))
        with pytest.raises(InvalidInputError, match="finite"):
            TangentVector(base, np.array(components))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_circle_and_torus_points_reject_non_finite_angles(self, bad):
        # before, NaN was stored as the angle and inf warned in np.mod, then stored NaN
        with pytest.raises(InvalidInputError, match="finite"):
            circle_point(bad)
        with pytest.raises(InvalidInputError, match="finite"):
            torus_point([0.3, bad])
        with pytest.raises(InvalidInputError, match="finite"):
            ManifoldPoint(TORUS, np.array([bad, 1.0]))
