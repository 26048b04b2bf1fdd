"""Polytope vertices, LMI slice, analytic centers, membership."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import raschdesign as rd
from raschdesign import CenterStatus

from conftest import dense_vertices


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
        assert pm.settings == (0, 1, 2, 3)
        assert_allclose(pm.intensities, [1.0, 0.7, 0.4, 0.7 * 0.4], rtol=1e-12)
        vertices = dense_vertices(pm)
        assert_allclose(vertices[0], np.diag([1.0, 0.0, 0.0]), atol=1e-15)
        assert_allclose(
            vertices[1],
            0.7 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=float),
            rtol=1e-12,
        )
        assert_allclose(vertices[3], 0.7 * 0.4 * np.ones((3, 3)), rtol=1e-12)
        for x, u in enumerate(np.vstack([np.zeros(3), np.eye(3)])):
            assert_allclose(pm.matrix(u), vertices[x], rtol=1e-12, atol=1e-15)

    def test_simplex_dimension(self):
        m, theta = two_rule_model(0.55, 0.85)
        pm = rd.polytope_vertices(theta, m)
        assert pm.dim == 3
        assert pm.settings == (0, 1, 2, 3)

    def test_vertices_are_rank_one(self):
        rng = np.random.default_rng(8)
        m = rd.InteractionModel(3, 2)
        theta = rd.ParameterVector(m, rng.normal(size=m.p))
        pm = rd.polytope_vertices(theta, m)
        for u in np.vstack([np.zeros(pm.dim), np.eye(pm.dim)]):
            v = pm.matrix(u)
            assert np.linalg.matrix_rank(v, tol=1e-10) == 1
            assert np.linalg.eigvalsh(v).min() >= -1e-12

    @pytest.mark.parametrize("lam,log", [(1e-200, "-921.034037198"),
                                         (1e-155, "-713.801378828")])
    def test_inverse_intensity_overflow_raises(self, lam, log):
        # lambda_11 = lam^2 is 0 or subnormal, so 1/lambda_11 is no finite float
        m, theta = two_rule_model(lam, lam)
        with pytest.raises(ValueError, match=rf"1/intensity overflows at setting 11: "
                                             rf"log intensity {log} is below"):
            rd.polytope_vertices(theta, m)
        m, theta = two_rule_model(1e-154, 1e-154)
        assert rd.polytope_vertices(theta, m).hull_witness is None

    def test_directions_linearly_independent(self):
        m = rd.InteractionModel(3, 1)
        theta = rd.ParameterVector.symmetric(m, 0.6)
        pm = rd.polytope_vertices(theta, m)
        flat = np.stack([(pm.matrix(u) - pm.matrix(np.zeros(pm.dim))).ravel()
                         for u in np.eye(pm.dim)])
        gram = flat @ flat.T
        assert np.linalg.cond(gram) < 1e10


def exact_chart(m, q):
    """The greedy chart in exact arithmetic, and N = #{U : |U| <= 2d}.

    ``q`` holds mu_A, in the order of ``m.masks``, as ``Fraction``s.  A
    vertex's moment vector is lambda(x) [U subset of x] over the unions U
    with |U| <= 2d.  In mask order, a setting is kept when its moment
    vector minus the base's is independent of those kept before.
    """
    unions = [u for u in range(1 << m.k) if bin(u).count("1") <= 2 * m.d]
    lam = [math.prod(qa for a, qa in zip(m.masks, q) if a & x == a)
           for x in range(1 << m.k)]
    basis = []  # (pivot, sparse vector scaled to 1 at its pivot)
    kept = []
    for x in range(1, 1 << m.k):
        r = {u: lam[x] for u in unions if u & x == u}
        r[0] -= lam[0]
        for pivot, b in basis:
            c = r.get(pivot)
            if c:
                for u, v in b.items():
                    r[u] = r.get(u, 0) - c * v
        r = {u: v for u, v in r.items() if v}
        if r:
            pivot = min(r)
            basis.append((pivot, {u: v / r[pivot] for u, v in r.items()}))
            kept.append(x)
    return tuple(kept), len(unions)


def theta_of(m, q):
    return rd.ParameterVector(m, np.array([math.log(v) for v in q]))


def assert_hull_certificate(pm):
    """The weights c_x = (-1)^|V - x| / (lambda(x) gamma_V) on the subsets x of
    the witness V sum to 1 and annihilate the vertices, to rounding."""
    v, k = pm.hull_witness, pm.model.k
    lam = rd.intensities(pm.theta, pm.model)
    gamma = rd._lattice.mobius(1.0 / lam)[v]
    subsets = [x for x in range(v + 1) if x & v == x]
    c = np.array([(-1) ** bin(v ^ x).count("1") / (lam[x] * gamma) for x in subsets])
    eps = sys.float_info.epsilon
    assert abs(c.sum() - 1.0) <= 2 * k * eps * np.abs(c).sum()
    vertices = dense_vertices(pm)
    residual = np.abs(np.tensordot(c, vertices[subsets], axes=1)).max()
    scale = sum(abs(cx) * np.abs(vertices[x]).max() for cx, x in zip(c, subsets))
    assert residual <= 4 * eps * scale


SIZES = [(k, d) for k in range(2, 7) for d in range(1, min(3, k) + 1)]
# mu_A = 1 is drawn often: it leaves gamma exactly 0 on some sets
FRACTIONS = st.just(Fraction(1)) | st.sampled_from(
    [Fraction(1, 10), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2),
     Fraction(10)])


class TestLatticeChart:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_chart_is_the_exact_greedy_chart(self, data):
        k, d = data.draw(st.sampled_from(SIZES), label="k, d")
        m = rd.InteractionModel(k, d)
        q = [Fraction(1)] + data.draw(
            st.lists(FRACTIONS, min_size=m.p - 1, max_size=m.p - 1), label="q")
        pm = rd.polytope_vertices(theta_of(m, q), m)
        kept, n_unions = exact_chart(m, q)
        assert pm.settings == (0, *kept)
        assert (pm.hull_witness is not None) == (len(kept) == n_unions)
        if pm.hull_witness is not None:
            assert_hull_certificate(pm)

    @pytest.mark.parametrize("k, s, t", [
        # gamma of {1,...,5} is about 1e-10, against a rounding bound of 4e-14
        (5, Fraction(99, 100), Fraction(1)),
        (5, Fraction(101, 100), Fraction(1)),
        # intensities from 3^6 / 10^30 to 3: a relative rank test misreads them
        (6, Fraction(3), Fraction(1, 100)),
    ])
    def test_near_degenerate_charts(self, k, s, t):
        m = rd.InteractionModel(k, 2)
        q = [Fraction(1)] + [s if len(a) == 1 else t for a in m.subsets[1:]]
        pm = rd.polytope_vertices(theta_of(m, q), m)
        kept, n_unions = exact_chart(m, q)
        assert pm.settings == (0, *kept)
        assert len(kept) == n_unions
        assert pm.hull_witness == (1 << 5) - 1
        assert_hull_certificate(pm)


class TestSliceMatrix:
    def test_base_point(self):
        m, theta = two_rule_model(0.5, 0.5)
        pm = rd.polytope_vertices(theta, m)
        assert_allclose(pm.matrix([0, 0, 0]), np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    def test_matches_explicit_matrix(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            lam1, lam2 = rng.uniform(0.1, 1.3, size=2)
            m, theta = two_rule_model(lam1, lam2)
            pm = rd.polytope_vertices(theta, m)
            u = rng.uniform(-0.3, 0.5, size=3)
            assert_allclose(
                pm.matrix(u), explicit_slice_matrix(lam1, lam2, *u), atol=1e-12
            )

    def test_determinant_polynomial_agrees(self):
        rng = np.random.default_rng(14)
        lam1, lam2 = 0.45, 0.95
        m, theta = two_rule_model(lam1, lam2)
        pm = rd.polytope_vertices(theta, m)
        for _ in range(100):
            u = rng.uniform(-0.5, 0.8, size=3)
            ours = np.linalg.det(pm.matrix(u))
            reference = np.linalg.det(explicit_slice_matrix(lam1, lam2, *u))
            assert_allclose(ours, reference, rtol=1e-10, atol=1e-13)

    def test_vertices_at_unit_coordinates(self):
        m, theta = two_rule_model(0.8, 0.3)
        pm = rd.polytope_vertices(theta, m)
        for i in range(3):
            u = np.zeros(3)
            u[i] = 1.0
            assert_allclose(pm.matrix(u), dense_vertices(pm)[i + 1], atol=1e-12)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_point_raises(self):
        m, theta = two_rule_model(0.5, 0.5)
        pm = rd.polytope_vertices(theta, m)
        u = [np.inf, 0.0, 0.0]
        with pytest.raises(ValueError, match="infs or NaNs"):
            rd.log_det_gradient_hessian(pm, u)


class TestAnalyticCenter:
    def test_zero_parameter_center(self):
        m, theta = two_rule_model(1.0, 1.0)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(pm)
        assert res.status is CenterStatus.CONVERGED
        assert_allclose(res.coordinates, [0.25, 0.25, 0.25], atol=1e-9)
        assert res.inside_polytope

    def test_transition_point_center(self):
        lam = math.sqrt(2) - 1
        m, theta = two_rule_model(lam, lam)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(pm)
        assert_allclose(res.coordinates, [1 / 3, 1 / 3, 0.0], atol=1e-6)

    def test_first_order_optimality(self):
        m, theta = two_rule_model(0.5, 0.5)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(pm)
        _, grad, _ = rd.log_det_gradient_hessian(pm, res.coordinates)
        assert np.max(np.abs(grad)) <= 1e-7
        assert res.gradient_norm <= 1e-8

    def test_matrix_positive_definite_at_center(self):
        m, theta = two_rule_model(0.4, 0.9)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(pm)
        assert np.linalg.eigvalsh(res.matrix).min() > 0

    def test_unbounded_at_small_intensity(self):
        # far below the saturation transition the slice admits rays of
        # unbounded determinant growth; the status records this without
        # asserting any particular threshold
        m, theta = two_rule_model(0.05, 0.05)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(pm)
        assert res.status is CenterStatus.UNBOUNDED
        assert res.inside_polytope is None

    def test_infeasible_start_rejected(self):
        m, theta = two_rule_model(0.5, 0.5)
        pm = rd.polytope_vertices(theta, m)
        with pytest.raises(rd.InfeasibleStart):
            rd.log_det_gradient_hessian(pm, [5.0, 5.0, -9.0])

    def test_global_maximality_spot_check(self):
        rng = np.random.default_rng(21)
        m, theta = two_rule_model(0.6, 0.35)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(pm)
        coords = rd.vertex_coordinates(pm)
        for i in range(pm.n_vertices):
            for j in range(i + 1, pm.n_vertices):
                midpoint = 0.5 * (coords[i] + coords[j])
                sign, value = np.linalg.slogdet(pm.matrix(midpoint))
                if sign > 0:
                    assert res.log_det >= value - 1e-9
        for u in sample_feasible_coordinates(pm, rng, 1000):
            sign, value = np.linalg.slogdet(pm.matrix(u))
            if sign > 0:
                assert res.log_det >= value - 1e-9

    def test_gradient_hessian_match_finite_differences(self):
        rng = np.random.default_rng(22)
        m, theta = two_rule_model(0.62, 0.44)
        pm = rd.polytope_vertices(theta, m)
        step = 1e-5
        for u in sample_feasible_coordinates(pm, rng, 20):
            value, grad, hess = rd.log_det_gradient_hessian(pm, u)
            for i in range(pm.dim):
                bump = np.zeros(pm.dim)
                bump[i] = step
                f_plus, g_plus, _ = rd.log_det_gradient_hessian(pm, u + bump)
                f_minus, g_minus, _ = rd.log_det_gradient_hessian(pm, u - bump)
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
            return rd.analytic_center(pm)

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
        return rd.analytic_center(pm)

    def test_cold_start_converges_at_small_intensity(self):
        # a backtracking line search stalls at this point with gradient 8.5e-9
        res = self.cold_center(2, 1, 0.175)
        assert res.status is CenterStatus.CONVERGED
        assert res.gradient_norm <= 1e-10

    @pytest.mark.parametrize("lam", [0.95, 1.05])
    def test_singular_hessian_raises(self, lam):
        # Newton steps toward this unbounded slice once met a singular -H;
        # gamma of {1,...,5} is (1/lam - 1)^5, far above rounding, so the
        # hull holds 0 and the answer comes before any step
        res = self.cold_center(5, 2, lam)
        assert res.status is CenterStatus.UNBOUNDED
        assert res.iterations == 0
        m = rd.InteractionModel(5, 2)
        pm = rd.polytope_vertices(rd.ParameterVector.symmetric(m, lam), m)
        assert pm.hull_witness == 31
        assert_allclose(res.coordinates, np.full(31, 1 / 32))

    def test_singular_hessian_raises_numerical_check_error(self):
        # a chart with one setting repeated has two equal directions, which
        # make -H singular at every point; at the barycenter
        # S = [[1, 2/3], [2/3, 2/3]] is positive definite
        m = rd.InteractionModel(1, 1)
        rows = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        pm = rd.PolytopeModel(m, rd.ParameterVector.zeros(m), (0, 1, 1), rows,
                              np.ones(3), hull_witness=None)
        assert_allclose(pm.matrix([1 / 3, 1 / 3]), [[1, 2 / 3], [2 / 3, 2 / 3]])
        with pytest.raises(rd.NumericalCheckError, match=r"Newton iteration 1\b"):
            rd.analytic_center(pm)

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

    def test_witness_forms_no_hessian(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a witnessed slice formed the Hessian")

        monkeypatch.setattr(rd.geometry, "log_det_gradient_hessian", refuse)
        res = self.cold_center(5, 2, 0.95)
        assert res.status is CenterStatus.UNBOUNDED
        assert res.iterations == 0

    def test_witnessed_slice_at_k20(self):
        # 6197 chart settings: the rows are 10 MB, where the regression
        # matrix of all 2^20 settings is 1.8 GB and the n x n matrix G 307 MB
        m = rd.InteractionModel(20, 2)
        pm = rd.polytope_vertices(rd.ParameterVector.symmetric(m, 0.5), m)
        assert pm.rows.shape == (6197, m.p)
        assert pm.hull_witness == 31
        res = rd.analytic_center(pm)
        assert res.status is CenterStatus.UNBOUNDED
        assert res.iterations == 0
        assert np.isfinite(res.log_det) and np.isfinite(res.gradient_norm)


class TestSaturatedCrossCertificate:
    """For k <= 2d the chart is every vertex and d_x = p at the center, so
    the center is the D-optimal design exactly when its weights c are >= 0."""

    @pytest.mark.parametrize("k, d", [(2, 1), (4, 2), (6, 3)])
    @pytest.mark.parametrize("lam", [0.5, 0.9, 1.3, 2.0])
    def test_center_is_the_optimal_design(self, k, d, lam):
        m = rd.InteractionModel(k, d)
        theta = rd.ParameterVector.symmetric(m, lam)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(pm)
        opt = rd.optimize_design(theta, m)
        assert res.inside_polytope
        assert opt.converged
        for x in range(1 << k):
            assert abs(res.weights.get(x, 0.0) - opt.design.weights.get(x, 0.0)) <= 1e-6
        assert_allclose(res.log_det, opt.log_det, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k, d", [(2, 1), (4, 2), (6, 3)])
    def test_center_leaves_below_the_transition(self, k, d):
        m = rd.InteractionModel(k, d)
        pm = rd.polytope_vertices(rd.ParameterVector.symmetric(m, 0.3), m)
        res = rd.analytic_center(pm)
        assert res.status is CenterStatus.CONVERGED
        assert res.inside_polytope is False


class TestMembership:
    def test_center_inside_with_barycentric_weights(self):
        m, theta = two_rule_model(0.5, 0.5)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(pm)
        assert res.inside_polytope
        x, y, z = res.coordinates
        assert_allclose(res.weights[0], 1 - x - y - z, atol=1e-9)
        assert_allclose(
            [res.weights[1], res.weights[2], res.weights[3]], [x, y, z], atol=1e-9
        )

    def test_negative_coordinate_outside(self):
        m, theta = two_rule_model(0.4, 0.4)
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(pm)
        assert res.coordinates[2] < 0
        assert not res.inside_polytope
        assert res.weights is None

    def test_vertex_is_inside_with_unit_weight(self):
        m, theta = two_rule_model(0.75, 0.3)
        pm = rd.polytope_vertices(theta, m)
        mem = rd.polytope_membership(pm, dense_vertices(pm)[2])
        assert mem.inside
        assert_allclose(mem.weights[2], 1.0, atol=1e-9)

    def test_matrix_off_affine_hull_rejected(self):
        m, theta = two_rule_model(0.5, 0.5)
        pm = rd.polytope_vertices(theta, m)
        bad = dense_vertices(pm)[0] + np.diag([0.0, 1.0, -1.0])  # breaks slice structure
        with pytest.raises(rd.NotInAffineHull):
            rd.polytope_membership(pm, bad)

    def test_center_beyond_simplex_takes_the_optimizer_design(self):
        # k=4 independence model at theta = 0: 16 vertices over a
        # 10-dimensional hull and no witness, so the equivalence theorem
        # decides the center, and its weights are the optimizer's design
        m = rd.InteractionModel(4, 1)
        theta = rd.ParameterVector.zeros(m)
        pm = rd.polytope_vertices(theta, m)
        assert pm.n_vertices > pm.dim + 1 and pm.hull_witness is None
        res = rd.analytic_center(pm)
        assert res.inside_polytope
        assert res.weights == dict(rd.optimize_design(theta, m).design.weights)
        total = sum(res.weights.values())
        assert_allclose(total, 1.0, atol=1e-8)
        vertices = dense_vertices(pm)
        recombined = sum(w * vertices[x] for x, w in res.weights.items())
        assert_allclose(recombined, res.matrix, atol=1e-7)

    @pytest.mark.parametrize("as_matrix", [False, True])
    def test_mixture_beyond_simplex_is_undecided(self, as_matrix):
        # a Dirichlet mixture of every vertex is in the polytope, but its log
        # det is below the maximum, where the theorem says nothing
        m = rd.InteractionModel(4, 1)
        pm = rd.polytope_vertices(rd.ParameterVector.zeros(m), m)
        assert pm.n_vertices > pm.dim + 1
        weights = np.random.default_rng(3).dirichlet(np.ones(pm.n_vertices))
        if as_matrix:
            point = np.tensordot(weights, dense_vertices(pm), axes=1)
        else:
            point = weights @ rd.vertex_coordinates(pm)
        with pytest.raises(ValueError, match="only the slice's analytic center") as info:
            rd.polytope_membership(pm, point)
        assert not isinstance(info.value, rd.NotInAffineHull)

    def test_non_positive_definite_point_beyond_simplex_is_undecided(self):
        m = rd.InteractionModel(4, 1)
        pm = rd.polytope_vertices(rd.ParameterVector.zeros(m), m)
        with pytest.raises(ValueError, match="only the slice's analytic center"):
            rd.polytope_membership(pm, np.full(pm.dim, -1.0))

    def test_center_inside_near_unit_intensity(self):
        # near intensity 1 the spectrahedron hugs the polytope from outside,
        # and the center stays a convex combination of vertices
        m = rd.InteractionModel(2, 1)
        for lam in (0.9, 0.95, 1.0):
            theta = rd.ParameterVector.symmetric(m, lam)
            pm = rd.polytope_vertices(theta, m)
            res = rd.analytic_center(pm)
            assert res.inside_polytope

    def test_far_point_outside_by_the_equivalence_theorem(self):
        # the hull holds 0, so 5 M lies in the slice for any mixture M; its
        # log det, p ln 5 above M's, exceeds the polytope's maximum
        m = rd.InteractionModel(4, 1)
        theta = rd.ParameterVector.symmetric(m, 0.7)
        pm = rd.polytope_vertices(theta, m)
        assert pm.hull_witness is not None and pm.n_vertices > pm.dim + 1
        outside = 5.0 * rd.fisher_information(rd.Design.uniform(4), theta, m)
        mem = rd.polytope_membership(pm, outside)
        assert not mem.inside
        assert mem.weights is None

    def test_center_outside_beyond_simplex(self):
        # (3,1) with beta_1 = 0 has no witness and 8 vertices over a
        # 7-dimensional hull; the center's log det is 0.72 above the maximum
        m = rd.InteractionModel(3, 1)
        theta = rd.ParameterVector(m, np.array([0.0, 0.0, -1.5, -1.2]))
        pm = rd.polytope_vertices(theta, m)
        assert pm.hull_witness is None and pm.n_vertices > pm.dim + 1
        res = rd.analytic_center(pm)
        opt = rd.optimize_design(theta, m)
        assert res.status is CenterStatus.CONVERGED
        assert res.inside_polytope is False and res.weights is None
        assert res.log_det - opt.log_det > 0.7

    @pytest.mark.parametrize("k, d, lam", [
        (7, 3, 0.9),  # a witnessed simplex: the normal equations read a weight -0.008
        (8, 3, 1.3),  # not a simplex: the normal equations left a residual of 6e-7
        (8, 4, None),  # seeded theta: the normal equations read weights below 0
    ])
    def test_mixture_of_every_vertex_is_inside(self, k, d, lam):
        m = rd.InteractionModel(k, d)
        if lam is None:
            theta = rd.ParameterVector(m, np.random.default_rng(2).normal(0, 0.8, m.p))
        else:
            theta = rd.ParameterVector.symmetric(m, lam)
        pm = rd.polytope_vertices(theta, m)
        vertices = dense_vertices(pm)
        weights = np.random.default_rng(1).dirichlet(np.ones(pm.n_vertices))
        mixture = np.tensordot(weights, vertices, axes=1)
        if pm.n_vertices == pm.dim + 1:
            assert rd.polytope_membership(pm, mixture).inside
        else:  # beyond a simplex the theorem decides only the center
            with pytest.raises(ValueError, match="only the slice's analytic center"):
                rd.polytope_membership(pm, mixture)

        coords = rd.vertex_coordinates(pm)
        for u, vertex in zip(coords, vertices):
            assert np.abs(pm.matrix(u) - vertex).max() <= 1e-12 * np.abs(vertex).max()
        # the oracle: least squares on the dense chart's flattened directions,
        # whose condition number reaches 8e10 at (8,4), where it misses by 2.5e-7
        flat = (vertices - vertices[0]).reshape(pm.n_vertices, -1)
        oracle = np.linalg.lstsq(flat[list(pm.settings[1:])].T, flat.T, rcond=0)[0].T
        assert_allclose(coords, oracle, rtol=0, atol=1e-6 * np.abs(oracle).max())


    def test_vertex_coordinates_allocate_only_the_chart_columns(self):
        # (14,1) at lambda = 1 has no witness; the 2^14 x 106 result is
        # 14 MB, where one 2^k x 2^k array over the whole lattice is 2.1 GB
        m = rd.InteractionModel(14, 1)
        pm = rd.polytope_vertices(rd.ParameterVector.symmetric(m, 1.0), m)
        assert pm.hull_witness is None
        tracemalloc.start()
        try:
            coords = rd.vertex_coordinates(pm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coords.shape == (pm.n_vertices, pm.dim)
        assert peak <= 3 * pm.n_vertices * (pm.dim + 1) * 8


def dependent_points():
    """theta = 0 at four orders, then (k,1) with some beta_i = 0, which
    leaves gamma_V = 0 on every V holding such a rule."""
    for k, d in [(4, 1), (5, 2), (6, 2), (8, 3)]:
        m = rd.InteractionModel(k, d)
        yield rd.ParameterVector.zeros(m)
    rng = np.random.default_rng(7)
    for k in (3, 4, 5):
        m = rd.InteractionModel(k, 1)
        for zeros in (1, 2, 3):
            for _ in range(12):
                beta = np.r_[rng.uniform(-3.0, 3.0), rng.uniform(-2.5, 1.0, k)]
                beta[1 + rng.choice(k, zeros, replace=False)] = 0.0
                yield rd.ParameterVector(m, beta)


def test_center_membership_matches_the_nnls_oracle():
    # the oracle: nonnegative least squares on every vertex's chart
    # coordinates, plus the row of ones
    nnls = pytest.importorskip("scipy.optimize").nnls
    verdicts = []
    for theta in dependent_points():
        m = theta.model
        pm = rd.polytope_vertices(theta, m)
        res = rd.analytic_center(pm)
        if res.status is not CenterStatus.CONVERGED:
            continue
        assert pm.n_vertices > pm.dim + 1
        system = np.vstack([rd.vertex_coordinates(pm).T, np.ones(pm.n_vertices)])
        _, residual = nnls(system, np.concatenate([res.coordinates, [1.0]]))
        assert res.inside_polytope == (residual <= rd.geometry.MEMBERSHIP_TOL), theta.values
        if res.inside_polytope:
            fitted = rd.fisher_information(rd.Design(m.k, res.weights), theta, m)
            assert_allclose(fitted, res.matrix, rtol=0,
                            atol=1e-6 * np.abs(res.matrix).max())
        verdicts.append(res.inside_polytope)
    # 70 converged centers, 52 inside and 18 outside, when this was written
    assert len(verdicts) > 50 and True in verdicts and False in verdicts


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
            cold = rd.analytic_center(pm)
            assert_allclose(row.result.coordinates, cold.coordinates, atol=1e-6)

    def test_rows_carry_their_slice(self):
        m = rd.InteractionModel(3, 1)
        pairs = [(lam, rd.ParameterVector.symmetric(m, lam)) for lam in (1.0, 0.8)]
        for row, (_, theta) in zip(rd.center_path(pairs, m).rows, pairs):
            fresh = rd.polytope_vertices(theta, m)
            assert row.polytope.settings == fresh.settings
            np.testing.assert_array_equal(row.polytope.rows, fresh.rows)
            np.testing.assert_array_equal(row.polytope.intensities, fresh.intensities)
            np.testing.assert_array_equal(
                row.result.matrix, row.polytope.matrix(row.result.coordinates)
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
