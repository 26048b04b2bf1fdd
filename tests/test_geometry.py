"""Polytope vertices, LMI slice, analytic centers, membership."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import raschdesign as rd
from raschdesign import CenterStatus


def two_rule_model(lam1, lam2):
    m = rd.InteractionModel(2, 1)
    theta = rd.ParameterVector.from_dict(
        m, {"1": math.log(lam1), "2": math.log(lam2)}
    )
    return m, theta


def explicit_slice_matrix(lam1, lam2, x, y, z):
    """The explicit 3x3 affine matrix of the two-rule independence slice."""
    return np.array([
        [1 + x * (lam1 - 1) + y * (lam2 - 1) + z * (lam1 * lam2 - 1),
         lam1 * x + lam1 * lam2 * z,
         lam2 * y + lam1 * lam2 * z],
        [lam1 * x + lam1 * lam2 * z,
         lam1 * x + lam1 * lam2 * z,
         lam1 * lam2 * z],
        [lam2 * y + lam1 * lam2 * z,
         lam1 * lam2 * z,
         lam2 * y + lam1 * lam2 * z],
    ])


def sample_feasible_coordinates(pm, rng, count):
    """Strictly feasible chart points: positive mixtures of all vertices."""
    coords = rd.vertex_coordinates(pm)
    weights = rng.dirichlet(np.ones(pm.n_vertices), size=count)
    return weights @ coords


class TestPolytopeVertices:
    def test_two_rule_vertices(self):
        m, theta = two_rule_model(0.7, 0.4)
        pm = rd.polytope_vertices(theta, m)
        assert pm.n_vertices == 4
        assert pm.base_index == 0
        assert_allclose(pm.vertices[0], np.diag([1.0, 0.0, 0.0]), atol=1e-15)
        assert_allclose(
            pm.vertices[1],
            0.7 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=float),
            rtol=1e-12,
        )
        assert_allclose(pm.vertices[3], 0.7 * 0.4 * np.ones((3, 3)), rtol=1e-12)

    def test_simplex_dimension(self):
        m, theta = two_rule_model(0.55, 0.85)
        pm = rd.polytope_vertices(theta, m)
        assert pm.dim == 3
        assert pm.direction_settings == (1, 2, 3)

    def test_vertices_are_rank_one(self):
        rng = np.random.default_rng(8)
        m = rd.InteractionModel(3, 2)
        theta = rd.ParameterVector(m, rng.normal(size=m.p))
        pm = rd.polytope_vertices(theta, m)
        for v in pm.vertices:
            assert np.linalg.matrix_rank(v, tol=1e-10) == 1
            assert np.linalg.eigvalsh(v).min() >= -1e-12

    def test_directions_linearly_independent(self):
        m = rd.InteractionModel(3, 1)
        theta = rd.ParameterVector.symmetric(m, 0.6)
        pm = rd.polytope_vertices(theta, m)
        flat = pm.directions.reshape(pm.dim, -1)
        gram = flat @ flat.T
        assert np.linalg.cond(gram) < 1e10


class TestLmiSlice:
    def test_base_point(self):
        m, theta = two_rule_model(0.5, 0.5)
        sl = rd.lmi_slice(rd.polytope_vertices(theta, m))
        assert_allclose(sl.matrix([0, 0, 0]), np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    def test_matches_explicit_matrix(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            lam1, lam2 = rng.uniform(0.1, 1.3, size=2)
            m, theta = two_rule_model(lam1, lam2)
            sl = rd.lmi_slice(rd.polytope_vertices(theta, m))
            u = rng.uniform(-0.3, 0.5, size=3)
            assert_allclose(
                sl.matrix(u), explicit_slice_matrix(lam1, lam2, *u), atol=1e-12
            )

    def test_determinant_polynomial_agrees(self):
        rng = np.random.default_rng(14)
        lam1, lam2 = 0.45, 0.95
        m, theta = two_rule_model(lam1, lam2)
        sl = rd.lmi_slice(rd.polytope_vertices(theta, m))
        for _ in range(100):
            u = rng.uniform(-0.5, 0.8, size=3)
            ours = np.linalg.det(sl.matrix(u))
            reference = np.linalg.det(explicit_slice_matrix(lam1, lam2, *u))
            assert_allclose(ours, reference, rtol=1e-10, atol=1e-13)

    def test_vertices_at_unit_coordinates(self):
        m, theta = two_rule_model(0.8, 0.3)
        pm = rd.polytope_vertices(theta, m)
        sl = rd.lmi_slice(pm)
        for i in range(3):
            u = np.zeros(3)
            u[i] = 1.0
            assert_allclose(sl.matrix(u), pm.vertices[i + 1], atol=1e-12)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_point_raises(self):
        m, theta = two_rule_model(0.5, 0.5)
        sl = rd.lmi_slice(rd.polytope_vertices(theta, m))
        u = [np.inf, 0.0, 0.0]
        with pytest.raises(ValueError, match="infs or NaNs"):
            rd.log_det_gradient_hessian(sl, u)
        with pytest.raises(ValueError, match="infs or NaNs"):
            rd.geometry._is_pd(sl.matrix(u))


class TestAnalyticCenter:
    def test_zero_parameter_center(self):
        m, theta = two_rule_model(1.0, 1.0)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(rd.lmi_slice(pm), polytope=pm)
        assert res.status is CenterStatus.CONVERGED
        assert_allclose(res.coordinates, [0.25, 0.25, 0.25], atol=1e-9)
        assert res.inside_polytope

    def test_transition_point_center(self):
        lam = math.sqrt(2) - 1
        m, theta = two_rule_model(lam, lam)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(rd.lmi_slice(pm), polytope=pm)
        assert_allclose(res.coordinates, [1 / 3, 1 / 3, 0.0], atol=1e-6)

    def test_first_order_optimality(self):
        m, theta = two_rule_model(0.5, 0.5)
        pm = rd.polytope_vertices(theta, m)
        sl = rd.lmi_slice(pm)
        res = rd.analytic_center(sl, polytope=pm)
        _, grad, _ = rd.log_det_gradient_hessian(sl, res.coordinates)
        assert np.max(np.abs(grad)) <= 1e-7
        assert res.gradient_norm <= 1e-8

    def test_matrix_positive_definite_at_center(self):
        m, theta = two_rule_model(0.4, 0.9)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(rd.lmi_slice(pm), polytope=pm)
        assert np.linalg.eigvalsh(res.matrix).min() > 0

    def test_unbounded_at_small_intensity(self):
        # far below the saturation transition the slice admits rays of
        # unbounded determinant growth; the status records this without
        # asserting any particular threshold
        m, theta = two_rule_model(0.05, 0.05)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(rd.lmi_slice(pm), polytope=pm)
        assert res.status is CenterStatus.UNBOUNDED
        assert res.inside_polytope is None

    def test_infeasible_start_rejected(self):
        m, theta = two_rule_model(0.5, 0.5)
        sl = rd.lmi_slice(rd.polytope_vertices(theta, m))
        with pytest.raises(rd.InfeasibleStart):
            rd.analytic_center(sl, start=[5.0, 5.0, -9.0])

    def test_global_maximality_spot_check(self):
        rng = np.random.default_rng(21)
        m, theta = two_rule_model(0.6, 0.35)
        pm = rd.polytope_vertices(theta, m)
        sl = rd.lmi_slice(pm)
        res = rd.analytic_center(sl, polytope=pm)
        coords = rd.vertex_coordinates(pm)
        for i in range(pm.n_vertices):
            for j in range(i + 1, pm.n_vertices):
                midpoint = 0.5 * (coords[i] + coords[j])
                sign, value = np.linalg.slogdet(sl.matrix(midpoint))
                if sign > 0:
                    assert res.log_det >= value - 1e-9
        for u in sample_feasible_coordinates(pm, rng, 1000):
            sign, value = np.linalg.slogdet(sl.matrix(u))
            if sign > 0:
                assert res.log_det >= value - 1e-9

    def test_gradient_hessian_match_finite_differences(self):
        rng = np.random.default_rng(22)
        m, theta = two_rule_model(0.62, 0.44)
        pm = rd.polytope_vertices(theta, m)
        sl = rd.lmi_slice(pm)
        step = 1e-5
        for u in sample_feasible_coordinates(pm, rng, 20):
            value, grad, hess = rd.log_det_gradient_hessian(sl, u)
            for i in range(sl.dim):
                bump = np.zeros(sl.dim)
                bump[i] = step
                f_plus, g_plus, _ = rd.log_det_gradient_hessian(sl, u + bump)
                f_minus, g_minus, _ = rd.log_det_gradient_hessian(sl, u - bump)
                fd_grad = (f_plus - f_minus) / (2 * step)
                assert abs(grad[i] - fd_grad) <= 1e-5 * max(1.0, abs(fd_grad))
                fd_hess_col = (g_plus - g_minus) / (2 * step)
                assert np.max(np.abs(hess[:, i] - fd_hess_col)) <= 1e-5 * max(
                    1.0, np.max(np.abs(fd_hess_col))
                )


    def test_rounding_level_decrement_converges(self):
        # at this intensity the last Newton decrement, 1e-17, is above the
        # old fixed tolerance 1e-18 but below the rounding of log det (-4.86)
        m = rd.InteractionModel(2, 1)

        def center(lam):
            pm = rd.polytope_vertices(rd.ParameterVector.symmetric(m, lam), m)
            return rd.analytic_center(rd.lmi_slice(pm), polytope=pm)

        res = center(0.4548607060899141)
        near = center(0.45486070609)
        assert res.status is CenterStatus.CONVERGED
        assert res.iterations <= 10
        assert res.inside_polytope
        assert_allclose(res.coordinates, near.coordinates, rtol=0, atol=1e-9)

    @staticmethod
    def cold_center(k, d, lam):
        m = rd.InteractionModel(k, d)
        pm = rd.polytope_vertices(rd.ParameterVector.symmetric(m, lam), m)
        return rd.analytic_center(rd.lmi_slice(pm), polytope=pm)

    def test_cold_start_converges_at_small_intensity(self):
        # a backtracking line search stalls at this point with gradient 8.5e-9
        res = self.cold_center(2, 1, 0.175)
        assert res.status is CenterStatus.CONVERGED
        assert res.gradient_norm <= 1e-10

    @pytest.mark.parametrize("lam", [0.95, 1.05])
    def test_singular_hessian_raises(self, lam):
        # -H reaches an eigenvalue of about -1e-14 on the way to the center
        with pytest.raises(rd.NumericalCheckError, match=r"Newton iteration \d+"):
            self.cold_center(5, 2, lam)

    def test_converged_centers_are_stationary_on_a_grid(self):
        for k in (2, 3, 4):
            for d in range(1, min(k, 3) + 1):
                for lam in np.linspace(0.05, 1.5, 59):
                    res = self.cold_center(k, d, float(lam))
                    if res.status is CenterStatus.CONVERGED:
                        assert res.gradient_norm <= 1e-10, (k, d, lam)
                    else:
                        assert res.status is CenterStatus.UNBOUNDED, (k, d, lam)

    @pytest.mark.parametrize("k, lam", [(2, 0.05), (3, 0.5)])
    def test_unbounded_within_the_self_concordance_bound(self, k, lam):
        # every step gains at least 1 - ln 2, so log det passes the ceiling
        # of 50 within 163 steps
        res = self.cold_center(k, 1, lam)
        assert res.status is CenterStatus.UNBOUNDED
        assert res.iterations <= 163


class TestMembership:
    def test_center_inside_with_barycentric_weights(self):
        m, theta = two_rule_model(0.5, 0.5)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(rd.lmi_slice(pm), polytope=pm)
        assert res.inside_polytope
        x, y, z = res.coordinates
        assert_allclose(res.weights[0], 1 - x - y - z, atol=1e-9)
        assert_allclose(
            [res.weights[1], res.weights[2], res.weights[3]], [x, y, z], atol=1e-9
        )

    def test_negative_coordinate_outside(self):
        m, theta = two_rule_model(0.4, 0.4)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(rd.lmi_slice(pm), polytope=pm)
        assert res.coordinates[2] < 0
        assert not res.inside_polytope
        assert res.weights is None

    def test_vertex_is_inside_with_unit_weight(self):
        m, theta = two_rule_model(0.75, 0.3)
        pm = rd.polytope_vertices(theta, m)
        mem = rd.polytope_membership(pm, pm.vertices[2])
        assert mem.inside
        assert_allclose(mem.weights[2], 1.0, atol=1e-9)

    def test_matrix_off_affine_hull_rejected(self):
        m, theta = two_rule_model(0.5, 0.5)
        pm = rd.polytope_vertices(theta, m)
        bad = pm.vertices[0] + np.diag([0.0, 1.0, -1.0])  # breaks slice structure
        with pytest.raises(rd.NotInAffineHull):
            rd.polytope_membership(pm, bad)

    def test_nnls_route_beyond_simplex(self):
        # k=4 independence model: 16 vertices over a 10-dimensional hull,
        # so membership goes through the nonnegative least-squares path
        m = rd.InteractionModel(4, 1)
        theta = rd.ParameterVector.symmetric(m, 0.7)
        pm = rd.polytope_vertices(theta, m)
        assert pm.n_vertices > pm.dim + 1
        mixture = rd.fisher_information(
            rd.Design.uniform(4), theta, m
        )
        mem = rd.polytope_membership(pm, mixture)
        assert mem.inside
        total = sum(mem.weights.values())
        assert_allclose(total, 1.0, atol=1e-8)
        recombined = sum(
            w * pm.vertices[x] for x, w in mem.weights.items()
        )
        assert_allclose(recombined, mixture, atol=1e-7)

    def test_center_inside_near_unit_intensity(self):
        # near intensity 1 the spectrahedron hugs the polytope from outside,
        # and the center stays a convex combination of vertices
        m = rd.InteractionModel(2, 1)
        for lam in (0.9, 0.95, 1.0):
            theta = rd.ParameterVector.symmetric(m, lam)
            pm = rd.polytope_vertices(theta, m)
            res = rd.analytic_center(rd.lmi_slice(pm), polytope=pm)
            assert res.inside_polytope

    def test_far_point_outside_by_nnls(self):
        m = rd.InteractionModel(4, 1)
        theta = rd.ParameterVector.symmetric(m, 0.7)
        pm = rd.polytope_vertices(theta, m)
        coords = rd.vertex_coordinates(pm)
        outside = coords.mean(axis=0) * 5.0
        mem = rd.polytope_membership(pm, outside)
        assert not mem.inside


class TestCenterPath:
    def test_exit_flag_brackets_transition(self):
        m = rd.InteractionModel(2, 1)
        grid = [round(0.4 + 0.001 * i, 3) for i in range(31)]
        grid.reverse()  # descending from 0.43 so warm starts track the center
        pairs = [(lam, rd.ParameterVector.symmetric(m, lam)) for lam in grid]
        path = rd.center_path(pairs, m)
        inside = {row.param: row.result.inside_polytope for row in path.rows}
        crossing = math.sqrt(2) - 1
        below = max(p for p in grid if p < crossing)
        above = min(p for p in grid if p > crossing)
        assert inside[above] is True
        assert inside[below] is False
        assert path.first_exit == below

    def test_warm_and_cold_agree(self):
        m = rd.InteractionModel(2, 1)
        grid = [1.0, 0.8, 0.5, 0.4]
        pairs = [(lam, rd.ParameterVector.symmetric(m, lam)) for lam in grid]
        warm = rd.center_path(pairs, m)
        for row, (_, theta) in zip(warm.rows, pairs):
            pm = rd.polytope_vertices(theta, m)
            cold = rd.analytic_center(rd.lmi_slice(pm), polytope=pm)
            assert_allclose(row.result.coordinates, cold.coordinates, atol=1e-6)

    def test_rows_carry_their_slice(self):
        m = rd.InteractionModel(3, 1)
        pairs = [(lam, rd.ParameterVector.symmetric(m, lam)) for lam in (1.0, 0.8)]
        for row, (_, theta) in zip(rd.center_path(pairs, m).rows, pairs):
            fresh = rd.lmi_slice(rd.polytope_vertices(theta, m))
            assert row.lmi.labels == fresh.labels
            np.testing.assert_array_equal(row.lmi.directions, fresh.directions)
            np.testing.assert_array_equal(
                row.result.matrix, row.lmi.matrix(row.result.coordinates)
            )

    def test_single_point_grid(self):
        m = rd.InteractionModel(2, 1)
        path = rd.center_path([(1.0, rd.ParameterVector.zeros(m))], m)
        assert len(path.rows) == 1
        assert path.rows[0].result.inside_polytope
        assert path.first_exit is None

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            rd.center_path([], rd.InteractionModel(2, 1))
