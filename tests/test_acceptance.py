"""Acceptance criteria, one test per criterion with a printed PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every row of criterion 7's ``TABLE_ROWS`` is the exact
maximizer of log det on the two-rule LMI slice, rounded to three places
(within 0.001 of it); the intensity 0.5 row is written in closed form,
x = y = -8/7 + 4*sqrt(57)/21 = 0.295207, z = 29/14 - 11*sqrt(57)/42 =
0.094091, the stationary point of
det M = lam^2 w0 x y + lam^3 w0 x z + lam^3 w0 y z + lam^4 x y z with
w0 = 1 - x - y - z.  The row formerly read (0.300, 0.300, 0.094), a
transcription error: at that design the sensitivities are
(3.087, 2.958, 2.958, 2.986), so the equivalence theorem rejects it, and
no intensity has it as center (x = 0.300 needs lam = 0.4855, where
z = 0.0819).  ``test_criterion_07_closed_form_center_is_d_optimal`` pins the
closed form by the equivalence theorem without calling the center solver.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import raschdesign as rd
from raschdesign import CenterStatus, DesignStructure

from conftest import inverse_model_matrix, model_matrix, transform_vector


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:>2} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:>2} {label}: PASS")


def test_criterion_01_exact_combinatorics():
    with criterion(1, "exact combinatorics k<=6 d<=3"):
        start = time.monotonic()
        for k in range(1, 7):
            for d in range(1, min(k, 3) + 1):
                m = rd.InteractionModel(k, d)
                product = model_matrix(m) @ inverse_model_matrix(m)
                assert np.array_equal(product, np.eye(m.p, dtype=np.int64))
                f_inv_t = inverse_model_matrix(m).T
                for x in m.settings():
                    oracle = f_inv_t @ rd.regression_vector(x, m)
                    assert np.array_equal(transform_vector(x, m), oracle)
        assert time.monotonic() - start < 5.0


def test_criterion_02_closed_form_polynomials():
    with criterion(2, "exchangeable polynomials at k=4 d=2"):
        m = rd.InteractionModel(4, 2)
        by_size = {}
        for q in rd.corner_inequalities(m):
            counts = Counter()
            for coeff, support in q.terms():
                singles = sum(1 for a in support if len(a) == 1)
                pairs = sum(1 for a in support if len(a) == 2)
                counts[(singles, pairs)] += coeff
            by_size.setdefault(len(q.label), []).append(dict(counts))
        assert by_size[3] == [{(3, 3): 1, (2, 3): 3, (3, 2): 3}] * 4
        assert by_size[4] == [{(4, 6): 9, (3, 6): 16, (4, 5): 6}]


def test_criterion_03_witness_point():
    with criterion(3, "witness point s=5/9 t=4/5"):
        s, t = Fraction(5, 9), Fraction(4, 5)
        oracle3 = float(s**3 * t**3 + 3 * s**2 * t**3 + 3 * s**3 * t**2)
        oracle4 = float(9 * s**4 * t**6 + 16 * s**3 * t**6 + 6 * s**4 * t**5)
        m = rd.InteractionModel(4, 2)
        theta = rd.ParameterVector.symmetric(m, float(s), float(t))
        values = {len(q.label): rd.evaluate_inequality(q, theta)
                  for q in rd.corner_inequalities(m)}
        assert_allclose(values[3], oracle3, rtol=1e-10)
        assert_allclose(values[4], oracle4, rtol=1e-10)
        assert values[3] <= 1.0 and abs(values[3] - 0.891) < 1e-3
        assert values[4] > 1.0 and abs(values[4] - 1.13) < 2e-3


def test_criterion_04_certificate_consistency_order_one():
    with criterion(4, "inequality/KW verdict agreement at d=1"):
        start = time.monotonic()
        rng = np.random.default_rng(20260810)
        checked = 0
        for k, count in ((2, 334), (3, 333), (4, 333)):
            m = rd.InteractionModel(k, 1)
            w = rd.corner_design(m)
            for _ in range(count):
                vals = np.zeros(m.p)
                vals[1:] = rng.uniform(-3.0, 1.0, size=m.p - 1)
                theta = rd.ParameterVector(m, vals)
                assert (
                    rd.is_corner_optimal_by_theorem(theta, m).optimal
                    == rd.kw_certificate(w, theta, m).optimal
                )
                checked += 1
        assert checked == 1000
        assert time.monotonic() - start < 30.0


def test_criterion_05_uniform_optimum_at_zero():
    with criterion(5, "uniform optimum at zero parameters"):
        for k in range(1, 5):
            for d in range(1, k + 1):
                m = rd.InteractionModel(k, d)
                theta = rd.ParameterVector.zeros(m)
                result = rd.optimize_design(theta, m)
                target = 1.0 / (1 << k)
                assert result.converged
                for x in m.settings():
                    assert abs(result.design.weight(x) - target) <= 1e-6
                verdict = rd.kw_certificate(result.design, theta, m)
                assert abs(verdict.max_directional_value - m.p) <= 1e-6


def test_criterion_06_saturation_transition():
    with criterion(6, "saturation transition at sqrt(2)-1"):
        start = time.monotonic()
        m = rd.InteractionModel(2, 1)
        found = rd.find_transition(
            lambda lam: rd.ParameterVector.symmetric(m, lam),
            m,
            lambda r: r.structure is DesignStructure.CORNER,
            bracket=(0.3, 0.5),
            tol=1e-3,
        )
        assert abs(found - (math.sqrt(2) - 1)) <= 5e-3
        assert time.monotonic() - start < 10.0


# Closed-form log-det maximizer of the two-rule slice at intensity 0.5.
CENTER_HALF_X = -8 / 7 + 4 * math.sqrt(57) / 21
CENTER_HALF_Z = 29 / 14 - 11 * math.sqrt(57) / 42

TABLE_ROWS = [
    ("1.0", 1.0, (0.250, 0.250, 0.250), 0.002),
    ("0.8", 0.8, (0.254, 0.254, 0.217), 0.002),
    ("0.5", 0.5, (CENTER_HALF_X, CENTER_HALF_X, CENTER_HALF_Z), 0.002),
    ("sqrt2-1", math.sqrt(2) - 1, (1 / 3, 1 / 3, 0.0), 0.002),
    ("0.4", 0.4, (0.343, 0.343, -0.023), 0.002),
    ("0.2", 0.2, (1.580, 1.580, -2.976), 0.02),
]


@pytest.mark.parametrize("name,lam,expected,tol", TABLE_ROWS, ids=[r[0] for r in TABLE_ROWS])
def test_criterion_07_center_reference_rows(name, lam, expected, tol):
    with criterion(7, f"analytic center at intensity {name}"):
        start = time.monotonic()
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.symmetric(m, lam)
        pm = rd.polytope_vertices(theta, m)
        result = rd.analytic_center(pm)
        if lam == 0.2 and result.status is CenterStatus.UNBOUNDED:
            return  # reporting unboundedness is an accepted outcome here
        assert result.status is CenterStatus.CONVERGED
        assert np.max(np.abs(result.coordinates - np.asarray(expected))) <= tol
        assert time.monotonic() - start < 5.0


def test_criterion_07_closed_form_center_is_d_optimal():
    with criterion(7, "closed-form center at intensity 0.5 is D-optimal"):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.symmetric(m, 0.5)
        x, z = CENTER_HALF_X, CENTER_HALF_Z
        w = rd.Design(2, {0: 1 - 2 * x - z, 1: x, 2: x, 3: z})
        assert rd.kw_certificate(w, theta, m).optimal
        assert_allclose(rd.sensitivities(w, theta, m), float(m.p), rtol=0, atol=1e-9)


def test_criterion_08_membership_transition():
    with criterion(8, "membership flip brackets sqrt(2)-1"):
        m = rd.InteractionModel(2, 1)
        grid = [round(0.405 + 0.001 * i, 3) for i in range(21)]
        grid.reverse()  # descending for warm starts
        pairs = [(lam, rd.ParameterVector.symmetric(m, lam)) for lam in grid]
        path = rd.center_path(pairs, m)
        inside = {row.param: row.result.inside_polytope for row in path.rows}
        flips = [
            (grid[i + 1], grid[i])
            for i in range(len(grid) - 1)
            if inside[grid[i]] != inside[grid[i + 1]]
        ]
        assert len(flips) == 1
        low, high = flips[0]
        assert low < math.sqrt(2) - 1 < high
        assert inside[high] and not inside[low]


def test_criterion_09_symmetry_law():
    with criterion(9, "information matrix transformation law"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, min(k, 2) + 1))
            m = rd.InteractionModel(k, d)
            perm = tuple(int(v) for v in rng.permutation(np.arange(1, k + 1)))
            flips = tuple(int(i) for i in range(1, k + 1) if rng.random() < 0.5)
            g = rd.GroupElement(perm, flips)
            theta = rd.ParameterVector(m, rng.normal(scale=0.8, size=m.p))
            n = 1 << k
            support = rng.choice(n, size=int(rng.integers(m.p, n + 1)), replace=False)
            raw = rng.random(len(support)) + 0.05
            raw /= raw.sum()
            w = rd.Design(k, {int(x): float(v) for x, v in zip(support, raw)})
            report = rd.verify_transformation(g, w, theta, m)
            assert report.max_residual <= 1e-9
            assert abs(rd.representation_matrix(g, m).det) == 1


def test_criterion_10_conjecture_probe():
    with criterion(10, "redundancy probe at k=10 d=2"):
        start = time.monotonic()
        m = rd.InteractionModel(10, 2)
        square = rd.redundancy_probe(m, (1e-9, 1.0), (1e-9, 1.0), 100_000, seed=20260810)
        for c in range(6, 11):
            assert square.entries[c].redundant_in_region
        strip = rd.redundancy_probe(m, (1e-9, 1.0), (1.0, 1.3), 100_000, seed=20260810)
        high_witnesses = [
            c for c in range(6, 11) if not strip.entries[c].redundant_in_region
        ]
        assert high_witnesses
        for c in high_witnesses:
            s, t = strip.entries[c].witness
            values = rd.symmetric_slice(m, s, t)
            assert values[c] > 1.0
            assert all(values[c2] <= 1.0 for c2 in values if c2 != c)
        assert time.monotonic() - start < 60.0


def test_criterion_11_numerical_hygiene():
    with criterion(11, "derivative checks and monotone ascent"):
        rng = np.random.default_rng(7)
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.symmetric(m, 0.55)
        pm = rd.polytope_vertices(theta, m)
        coords = rd.vertex_coordinates(pm)
        step = 1e-5
        for _ in range(20):
            weights = rng.dirichlet(np.ones(pm.n_vertices))
            u = weights @ coords
            _, grad, hess = rd.log_det_gradient_hessian(pm, u)
            for i in range(pm.dim):
                bump = np.zeros(pm.dim)
                bump[i] = step
                f_plus, g_plus, _ = rd.log_det_gradient_hessian(pm, u + bump)
                f_minus, g_minus, _ = rd.log_det_gradient_hessian(pm, u - bump)
                fd_grad = (f_plus - f_minus) / (2 * step)
                assert abs(grad[i] - fd_grad) <= 1e-5 * max(1.0, abs(fd_grad))
                fd_col = (g_plus - g_minus) / (2 * step)
                assert np.max(np.abs(hess[:, i] - fd_col)) <= 1e-5 * max(
                    1.0, np.max(np.abs(fd_col))
                )

        def assert_segment_monotone(result):
            boundaries = set(result.prune_iterations)
            previous = None
            for i, value in enumerate(result.log_det_trace):
                if previous is not None:
                    assert value >= previous - 1e-12 * max(1.0, abs(previous))
                previous = None if i in boundaries else value

        for k in range(1, 5):
            for d in range(1, k + 1):
                mm = rd.InteractionModel(k, d)
                assert_segment_monotone(
                    rd.optimize_design(rd.ParameterVector.zeros(mm), mm)
                )
        m2 = rd.InteractionModel(2, 1)
        for lam in (0.3, 0.40, 0.4145, 0.5):
            assert_segment_monotone(
                rd.optimize_design(rd.ParameterVector.symmetric(m2, lam), m2)
            )
