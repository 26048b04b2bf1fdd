"""Corner-design optimality: inequality system, certificates, slices, probe."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

import raschdesign as rd
from raschdesign import regions


def symmetric_monomial_counts(q):
    """Collapse an inequality to {(singleton deg, pair deg): coeff sum}."""
    counts = Counter()
    for coeff, support in q.terms():
        singles = sum(1 for a in support if len(a) == 1)
        pairs = sum(1 for a in support if len(a) == 2)
        counts[(singles, pairs)] += coeff
    return dict(counts)


class TestCornerDesign:
    def test_three_rules_pairwise(self):
        m = rd.InteractionModel(3, 2)
        w = rd.corner_design(m)
        assert len(w.support) == 7
        assert (1 << 3) - 1 not in w.support  # (1,1,1) excluded
        assert_allclose(list(w.weights.values()), [1 / 7] * 7)

    def test_two_rules_independent(self):
        w = rd.corner_design(rd.InteractionModel(2, 1))
        assert sorted(w.support) == [0, 1, 2]
        assert_allclose(list(w.weights.values()), [1 / 3] * 3)

    def test_full_order_is_uniform(self):
        w = rd.corner_design(rd.InteractionModel(3, 3))
        assert len(w.support) == 8
        assert_allclose(list(w.weights.values()), [1 / 8] * 8)


class TestCornerInequalities:
    @pytest.mark.parametrize("k", range(2, 11))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_count(self, k, d):
        if d >= k:
            pytest.skip("needs d < k for a nonempty system")
        ineqs = rd.corner_inequalities(rd.InteractionModel(k, d))
        expected = sum(math.comb(k, c) for c in range(d + 1, k + 1))
        assert len(ineqs) == expected

    def test_pairwise_condition_at_order_one(self):
        m = rd.InteractionModel(2, 1)
        (q,) = rd.corner_inequalities(m)
        assert q.label == (1, 2)
        terms = {support: coeff for coeff, support in q.terms()}
        assert terms == {
            ((1,), (2,)): 1,        # omit the empty set
            ((), (2,)): 1,          # omit {1}
            ((), (1,)): 1,          # omit {2}
        }

    def test_coefficients_are_squared_binomials(self):
        m = rd.InteractionModel(5, 2)
        for q in rd.corner_inequalities(m):
            csize = len(q.label)
            assert len(q.coefficients) == len(q.support_all)
            for b, coeff in zip(q.support_all, q.coefficients):
                assert coeff == rd.choose(csize - len(b) - 1, m.d - len(b)) ** 2

    def test_term_count_per_inequality(self):
        m = rd.InteractionModel(6, 3)
        for q in rd.corner_inequalities(m):
            csize = len(q.label)
            expected = sum(math.comb(csize, i) for i in range(m.d + 1))
            assert len(q.coefficients) == expected

    def test_symmetric_polynomials_order_two(self):
        # the two exchangeable specializations at k=4, coefficient for coefficient
        m = rd.InteractionModel(4, 2)
        ineqs = rd.corner_inequalities(m)
        three = [q for q in ineqs if len(q.label) == 3]
        four = [q for q in ineqs if len(q.label) == 4]
        assert len(three) == 4 and len(four) == 1
        for q in three:
            assert symmetric_monomial_counts(q) == {(3, 3): 1, (2, 3): 3, (3, 2): 3}
        assert symmetric_monomial_counts(four[0]) == {(4, 6): 9, (3, 6): 16, (4, 5): 6}


class TestEvaluateInequality:
    def exact_slice_values(self, s, t):
        """Direct-substitution oracle at an exchangeable point, exact arithmetic."""
        s, t = Fraction(s), Fraction(t)
        lhs3 = s**3 * t**3 + 3 * s**2 * t**3 + 3 * s**3 * t**2
        lhs4 = 9 * s**4 * t**6 + 16 * s**3 * t**6 + 6 * s**4 * t**5
        return float(lhs3), float(lhs4)

    def test_witness_point(self):
        m = rd.InteractionModel(4, 2)
        theta = rd.ParameterVector.symmetric(m, 5 / 9, 4 / 5)
        lhs3_exact, lhs4_exact = self.exact_slice_values(Fraction(5, 9), Fraction(4, 5))
        values = {len(q.label): rd.evaluate_inequality(q, theta)
                  for q in rd.corner_inequalities(m)}
        assert_allclose(values[3], lhs3_exact, rtol=1e-10)
        assert_allclose(values[4], lhs4_exact, rtol=1e-10)
        assert values[3] <= 1.0
        assert values[4] > 1.0

    def test_vanishes_for_very_negative_parameters(self):
        m = rd.InteractionModel(3, 2)
        theta = rd.ParameterVector(m, np.concatenate([[0.0], np.full(m.p - 1, -200.0)]))
        for q in rd.corner_inequalities(m):
            assert rd.evaluate_inequality(q, theta) < 1e-100

    def test_monotone_in_each_parameter(self):
        rng = np.random.default_rng(5)
        m = rd.InteractionModel(4, 2)
        ineqs = rd.corner_inequalities(m)
        for _ in range(20):
            vals = rng.normal(scale=0.5, size=m.p)
            vals[0] = 0.0
            theta = rd.ParameterVector(m, vals)
            idx = int(rng.integers(1, m.p))
            lowered = vals.copy()
            lowered[idx] -= rng.uniform(0.1, 1.0)
            theta_low = rd.ParameterVector(m, lowered)
            for q in ineqs:
                assert (
                    rd.evaluate_inequality(q, theta_low)
                    <= rd.evaluate_inequality(q, theta) + 1e-12
                )


def reference_lhs(theta, m):
    """Labels and values of the system, one ``evaluate_inequality`` per C."""
    ineqs = rd.corner_inequalities(m)
    values = np.array([rd.evaluate_inequality(q, theta) for q in ineqs])
    return tuple(q.label for q in ineqs), values


class TestCornerLhs:
    @pytest.mark.parametrize("k,d", [
        (2, 1), (3, 2), (4, 2), (6, 2), (8, 2), (10, 2), (10, 3), (12, 3),
    ])
    def test_matches_reference(self, k, d):
        rng = np.random.default_rng(1000 * k + d)
        m = rd.InteractionModel(k, d)
        theta = rd.ParameterVector(m, rng.normal(scale=0.5, size=m.p))
        labels, values = rd.corner_lhs(theta, m)
        ref_labels, ref_values = reference_lhs(theta, m)
        assert labels == ref_labels
        assert_allclose(values, ref_values, rtol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_values_and_verdict_match_reference(self, data):
        k = data.draw(st.integers(min_value=1, max_value=6), label="k")
        d = data.draw(st.integers(min_value=1, max_value=min(k, 3)), label="d")
        m = rd.InteractionModel(k, d)
        beta = data.draw(st.lists(
            st.floats(min_value=-4.0, max_value=1.5), min_size=m.p, max_size=m.p,
        ), label="beta")
        theta = rd.ParameterVector(m, beta)
        labels, values = rd.corner_lhs(theta, m)
        ref_labels, ref_values = reference_lhs(theta, m)
        assert labels == ref_labels
        assert_allclose(values, ref_values, rtol=1e-12)
        verdict = rd.is_corner_optimal_by_theorem(theta, m)
        bad = tuple(c for c, v in zip(ref_labels, ref_values) if v > 1.0 + rd.regions.THEOREM_TOL)
        assert verdict.optimal == (not bad)
        assert verdict.violated_labels == bad
        if ref_values.size:
            assert_allclose(verdict.max_directional_value, ref_values.max(), rtol=1e-12)

    def test_very_negative_parameters_vanish(self):
        for k, d in [(3, 2), (6, 3)]:
            m = rd.InteractionModel(k, d)
            theta = rd.ParameterVector(
                m, np.concatenate([[0.0], np.full(m.p - 1, -200.0)])
            )
            _, values = rd.corner_lhs(theta, m)
            assert values.size and np.all(values < 1e-100)

    @staticmethod
    def count_fallbacks(monkeypatch):
        calls = []
        reference = regions.evaluate_inequality

        def counted(q, theta):
            calls.append(q.label)
            return reference(q, theta)

        monkeypatch.setattr(regions, "evaluate_inequality", counted)
        return calls

    def test_wide_span_sends_fallback(self, monkeypatch):
        # beta spans [-400, 400]: the pair shift is 400, so the pair sum
        # of C = {1,2,3} is 3 e^{-800}, below the smallest normal float
        m = rd.InteractionModel(5, 2)
        beta = {"1": -400.0, "2": -400.0, "3": -400.0, "4,5": -400.0}
        beta.update({"1,2": 400.0, "1,3": 400.0, "2,3": 400.0})
        theta = rd.ParameterVector.from_dict(m, beta)
        calls = self.count_fallbacks(monkeypatch)
        _, values = rd.corner_lhs(theta, m)
        assert calls == [(1, 2, 3)]
        monkeypatch.undo()
        _, ref_values = reference_lhs(theta, m)
        assert not np.isnan(values).any()
        assert_allclose(values, ref_values, rtol=1e-12)

    def test_fallback_carries_the_dominant_terms(self, monkeypatch):
        # beta_{4,5} = -800 sets the pair shift to 800, so the pair sum of
        # C = {1,2,3} underflows, yet its pair terms e^{-100} dominate
        m = rd.InteractionModel(5, 2)
        theta = rd.ParameterVector.from_dict(
            m, {"4,5": -800.0, "1,2": -50.0, "1,3": -50.0, "2,3": -50.0}
        )
        calls = self.count_fallbacks(monkeypatch)
        labels, values = rd.corner_lhs(theta, m)
        assert (1, 2, 3) in calls
        monkeypatch.undo()
        _, ref_values = reference_lhs(theta, m)
        assert_allclose(values[labels.index((1, 2, 3))], 3 * math.exp(-100), rtol=1e-12)
        assert_allclose(values, ref_values, rtol=1e-12)

    def test_overflow_gives_inf_not_nan(self):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector(m, [0.0, 800.0, 0.0])
        _, values = rd.corner_lhs(theta, m)
        assert values.tolist() == [math.inf]
        verdict = rd.is_corner_optimal_by_theorem(theta, m)
        assert not verdict.optimal and verdict.max_directional_value == math.inf

        m = rd.InteractionModel(4, 2)
        theta = rd.ParameterVector.from_dict(m, {"1": 800.0, "2,3": -750.0})
        _, values = rd.corner_lhs(theta, m)
        _, ref_values = reference_lhs(theta, m)
        assert not np.isnan(values).any()
        assert np.isinf(values).any() and np.isfinite(values).any()
        assert_allclose(values, ref_values, rtol=1e-12)

    def test_full_order_is_empty(self):
        m = rd.InteractionModel(3, 3)
        labels, values = rd.corner_lhs(rd.ParameterVector.zeros(m), m)
        assert labels == () and values.shape == (0,)
        verdict = rd.is_corner_optimal_by_theorem(rd.ParameterVector.zeros(m), m)
        assert verdict.optimal and verdict.violated_labels == ()


class TestTheoremVerdict:
    def test_zero_parameters_not_optimal(self):
        m = rd.InteractionModel(2, 1)
        verdict = rd.is_corner_optimal_by_theorem(rd.ParameterVector.zeros(m), m)
        assert not verdict.optimal
        assert_allclose(verdict.max_directional_value, 3.0)

    def test_strongly_negative_optimal(self):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.from_dict(m, {"1": -2.0, "2": -2.0})
        verdict = rd.is_corner_optimal_by_theorem(theta, m)
        mu = math.exp(-2.0)
        assert verdict.optimal
        assert_allclose(verdict.max_directional_value, mu * mu + 2 * mu, rtol=1e-12)

    def test_witness_point_violations(self):
        m = rd.InteractionModel(4, 2)
        theta = rd.ParameterVector.symmetric(m, 5 / 9, 4 / 5)
        verdict = rd.is_corner_optimal_by_theorem(theta, m)
        assert not verdict.optimal
        assert verdict.violated_labels == ((1, 2, 3, 4),)


class TestKwCertificate:
    def test_uniform_design_flat_at_zero(self):
        for k, d in [(2, 1), (3, 2), (4, 2)]:
            m = rd.InteractionModel(k, d)
            d_vals = rd.sensitivities(
                rd.Design.uniform(k), rd.ParameterVector.zeros(m), m
            )
            assert_allclose(d_vals, np.full(1 << k, float(m.p)), rtol=1e-9)

    def test_corner_optimal_below_transition(self):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.symmetric(m, 0.3)
        assert rd.kw_certificate(rd.corner_design(m), theta, m).optimal

    def test_corner_not_optimal_above_transition(self):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.symmetric(m, 0.8)
        verdict = rd.kw_certificate(rd.corner_design(m), theta, m)
        assert not verdict.optimal
        assert verdict.worst_setting == (1, 1)
        assert_allclose(verdict.max_directional_value, 3 * (0.64 + 0.8 + 0.8), rtol=1e-12)

    def test_singular_information(self):
        m = rd.InteractionModel(2, 1)
        w = rd.Design(2, {0: 0.5, 1: 0.5})  # two points cannot span p=3
        with pytest.raises(rd.SingularInformation):
            rd.kw_certificate(w, rd.ParameterVector.zeros(m), m)

    def test_base_parameter_leaves_sensitivities_unchanged(self):
        rng = np.random.default_rng(17)
        m = rd.InteractionModel(3, 2)
        w = rd.corner_design(m)
        for _ in range(10):
            vals = rng.normal(size=m.p)
            vals[0] = 0.0
            shifted = vals.copy()
            shifted[0] = rng.normal()
            d0 = rd.sensitivities(w, rd.ParameterVector(m, vals), m)
            d1 = rd.sensitivities(w, rd.ParameterVector(m, shifted), m)
            assert np.max(np.abs(d0 - d1)) <= 1e-10

    def test_non_finite_information_raises(self):
        # e^800 overflows, so M would hold infs; no NaN verdict may come out
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector(m, [0.0, 800.0, 0.0])
        w = rd.corner_design(m)
        with pytest.raises(ValueError, match="infs or NaNs"):
            rd.sensitivities(w, theta, m)
        with pytest.raises(ValueError, match="infs or NaNs"):
            rd.kw_certificate(w, theta, m)


def dense_information(w, theta, m):
    """Oracle: M = F^T diag(w lambda) F from the 2^k x p regression matrix."""
    rows = rd.regression_matrix(m).astype(float)
    lam = np.exp(rows @ theta.values)
    weights = np.array([w.weight(x) for x in m.settings()])
    return rows.T @ (rows * (weights * lam)[:, None]), rows, lam


def dense_sensitivities(w, theta, m):
    """Oracle: lambda(x) f(x)^T M^{-1} f(x) by a dense solve per setting."""
    mat, rows, lam = dense_information(w, theta, m)
    return lam * np.einsum("ij,ji->i", rows, np.linalg.solve(mat, rows.T))


def assert_kernels_match_oracle(w, theta, m):
    assert_allclose(rd.fisher_information(w, theta, m),
                    dense_information(w, theta, m)[0], rtol=1e-12)
    got = rd.sensitivities(w, theta, m)
    assert_allclose(got, dense_sensitivities(w, theta, m), rtol=1e-10)
    weights = np.array([w.weight(x) for x in m.settings()])
    assert abs(weights @ got - m.p) <= 1e-9 * m.p


class TestSensitivityKernel:
    @pytest.mark.parametrize("k,d", [(2, 1), (6, 2), (10, 2), (10, 3), (12, 3)])
    def test_matches_dense_solve(self, k, d):
        rng = np.random.default_rng(100 * k + d)
        m = rd.InteractionModel(k, d)
        theta = rd.ParameterVector(m, rng.normal(scale=0.3, size=m.p))
        w = rd.Design(k, dict(enumerate(rng.dirichlet(np.ones(1 << k)))))
        got = rd.sensitivities(w, theta, m)
        assert_allclose(got, dense_sensitivities(w, theta, m), rtol=1e-10)

        weights = np.array([w.weight(x) for x in m.settings()])
        assert abs(weights @ got - m.p) <= 1e-9 * m.p

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_lattice_kernels_match_dense_oracle(self, data):
        k = data.draw(st.integers(min_value=1, max_value=8), label="k")
        d = data.draw(st.integers(min_value=1, max_value=min(k, 3)), label="d")
        m = rd.InteractionModel(k, d)
        # a flip image of the corner support spans R^p; extra points are optional,
        # so the smallest draws are saturated designs
        flip = data.draw(st.integers(min_value=0, max_value=(1 << k) - 1), label="flip")
        extra = data.draw(st.sets(st.integers(min_value=0, max_value=(1 << k) - 1)),
                          label="extra")
        support = sorted({x for x in m.settings() if (x ^ flip).bit_count() <= d} | extra)
        raw = np.array(data.draw(st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=len(support), max_size=len(support),
        ), label="weights"))
        w = rd.Design(k, dict(zip(support, raw / raw.sum())))
        theta = rd.ParameterVector(m, data.draw(st.lists(
            st.floats(min_value=-1.0, max_value=0.5), min_size=m.p, max_size=m.p,
        ), label="beta"))
        # both computations lose about cond(M) * eps; past 1e6 that exceeds
        # the 1e-10 agreement the oracle check asks for
        assume(np.linalg.cond(dense_information(w, theta, m)[0]) < 1e6)
        assert_kernels_match_oracle(w, theta, m)

    def test_badly_conditioned_optimum(self):
        m = rd.InteractionModel(8, 3)
        theta = rd.ParameterVector.symmetric(m, 1e-3, 0.5)
        w = rd.optimize_design(theta, m).design
        assert np.linalg.cond(dense_information(w, theta, m)[0]) > 1e9
        assert_kernels_match_oracle(w, theta, m)

    def test_hot_paths_stay_small(self):
        # a 2^k x p matrix at (14, 3) alone is 61 MB in float64
        m = rd.InteractionModel(14, 3)
        theta = rd.ParameterVector.symmetric(m, 0.3, 0.6)
        w = rd.corner_design(m)
        tracemalloc.start()
        try:
            rd.optimize_design(theta, m)
            optimize_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rd.kw_certificate(w, theta, m)
            certificate_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert optimize_peak < 30e6
        assert certificate_peak < 30e6


class TestSaturatedValues:
    def test_support_values_are_one(self):
        rng = np.random.default_rng(23)
        for k, d in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            m = rd.InteractionModel(k, d)
            w = rd.corner_design(m)
            vals = rng.normal(scale=0.7, size=m.p)
            vals[0] = 0.0
            theta = rd.ParameterVector(m, vals)
            values = rd.saturated_kw_values(w, theta, m)
            for x in w.support:
                assert abs(values[x] - 1.0) <= 1e-9

    def test_matches_dense_certificate(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, min(k, 2) + 1))
            m = rd.InteractionModel(k, d)
            w = rd.corner_design(m)
            vals = rng.normal(scale=0.5, size=m.p)
            vals[0] = 0.0
            theta = rd.ParameterVector(m, vals)
            values = rd.saturated_kw_values(w, theta, m)
            verdict = rd.kw_certificate(w, theta, m)
            assert_allclose(
                max(values.values()),
                verdict.max_directional_value / m.p,
                rtol=1e-9,
            )

    def test_pairwise_expansion_at_order_one(self):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.from_dict(m, {"1": -0.25, "2": -1.5})
        mu1, mu2 = math.exp(-0.25), math.exp(-1.5)
        values = rd.saturated_kw_values(rd.corner_design(m), theta, m)
        assert_allclose(values[3], mu1 * mu2 + mu1 + mu2, rtol=1e-12)

    def test_full_setting_at_zero_parameters(self):
        m = rd.InteractionModel(3, 2)
        values = rd.saturated_kw_values(
            rd.corner_design(m), rd.ParameterVector.zeros(m), m
        )
        assert_allclose(values[7], 7.0, rtol=1e-12)

    def test_rejects_non_saturated(self):
        m = rd.InteractionModel(2, 1)
        with pytest.raises(rd.NotSaturated):
            rd.saturated_kw_values(
                rd.Design.uniform(2), rd.ParameterVector.zeros(m), m
            )

    def test_rejects_singular_support(self):
        # the four settings 000, 100, 010, 110 never activate rule 3,
        # so their regression vectors only span three dimensions at p = 4
        m = rd.InteractionModel(3, 1)
        bad = rd.Design(3, {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})
        with pytest.raises(rd.SingularSupport):
            rd.saturated_kw_values(bad, rd.ParameterVector.zeros(m), m)


class TestAgreementAtOrderOne:
    def test_verdicts_coincide_on_random_grid(self):
        # with base parameter 0, both certificates cut the same region at d=1
        rng = np.random.default_rng(101)
        for k in (2, 3, 4, 5):
            m = rd.InteractionModel(k, 1)
            w = rd.corner_design(m)
            for _ in range(60):
                vals = np.zeros(m.p)
                vals[1:] = rng.uniform(-3.0, 1.0, size=m.p - 1)
                theta = rd.ParameterVector(m, vals)
                a = rd.is_corner_optimal_by_theorem(theta, m).optimal
                b = rd.kw_certificate(w, theta, m).optimal
                assert a == b


class TestSymmetricSlice:
    def test_closed_form_polynomials(self):
        m = rd.InteractionModel(4, 2)
        s, t = 0.61, 0.87
        values = rd.symmetric_slice(m, s, t)
        assert_allclose(values[3], s**3 * t**3 + 3 * s**2 * t**3 + 3 * s**3 * t**2,
                        rtol=1e-12)
        assert_allclose(values[4], 9 * s**4 * t**6 + 16 * s**3 * t**6 + 6 * s**4 * t**5,
                        rtol=1e-12)

    def test_value_at_unit_point(self):
        values = rd.symmetric_slice(rd.InteractionModel(5, 2), 1.0, 1.0)
        assert_allclose(values[3], 7.0)

    def test_matches_full_inequality(self):
        rng = np.random.default_rng(31)
        m = rd.InteractionModel(5, 2)
        ineqs = rd.corner_inequalities(m)
        for _ in range(10):
            s, t = rng.uniform(0.05, 1.4, size=2)
            theta = rd.ParameterVector.symmetric(m, s, t)
            slice_values = rd.symmetric_slice(m, s, t)
            for q in ineqs:
                assert_allclose(
                    rd.evaluate_inequality(q, theta),
                    slice_values[len(q.label)],
                    rtol=1e-10,
                )

    def test_requires_order_two(self):
        with pytest.raises(ValueError):
            rd.symmetric_slice(rd.InteractionModel(4, 1), 0.5, 0.5)


class TestRegionSlice:
    def test_row_order_and_header_data(self):
        m = rd.InteractionModel(4, 2)
        rows = rd.region_slice(m, [0.2, 0.6], [0.5, 1.0])
        assert [(r.s, r.t) for r in rows] == [
            (0.2, 0.5), (0.2, 1.0), (0.6, 0.5), (0.6, 1.0),
        ]
        assert all(len(r.lhs) == 2 for r in rows)

    def test_unit_point_not_optimal(self):
        m = rd.InteractionModel(6, 2)
        (row,) = rd.region_slice(m, [1.0], [1.0])
        assert row.verdict == "not-optimal"
        assert min(row.lhs) >= 7.0

    def test_binding_cardinalities_inside_unit_square(self):
        m = rd.InteractionModel(10, 2)
        rows = rd.region_slice(
            m, np.linspace(0.02, 1.0, 40), np.linspace(0.02, 1.0, 40)
        )
        assert {r.binding_c for r in rows} <= {3, 4, 5}

    def test_high_cardinality_binding_in_antagonistic_region(self):
        # above pair intensity 1, the large-C inequalities become the
        # most restrictive ones
        m = rd.InteractionModel(10, 2)
        rows = rd.region_slice(m, [0.145, 0.15, 0.155], [1.275, 1.28])
        assert any(r.binding_c > 5 for r in rows)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            rd.region_slice(rd.InteractionModel(4, 2), [], [0.5])


class TestRedundancyProbe:
    def test_deterministic_given_seed(self):
        m = rd.InteractionModel(6, 2)
        a = rd.redundancy_probe(m, (0.01, 1.0), (0.01, 1.0), 2000, seed=9)
        b = rd.redundancy_probe(m, (0.01, 1.0), (0.01, 1.0), 2000, seed=9)
        assert a.as_dict() == b.as_dict()

    def test_witness_near_known_point(self):
        m = rd.InteractionModel(4, 2)
        report = rd.redundancy_probe(m, (0.50, 0.62), (0.75, 0.85), 4000, seed=2)
        entry = report.entries[4]
        assert entry.witness is not None
        s, t = entry.witness
        values = rd.symmetric_slice(m, s, t)
        assert values[4] > 1.0 and values[3] <= 1.0

    def test_no_high_cardinality_witness_in_unit_square(self):
        m = rd.InteractionModel(10, 2)
        report = rd.redundancy_probe(m, (1e-6, 1.0), (1e-6, 1.0), 50_000, seed=4)
        for c in range(6, 11):
            assert report.entries[c].redundant_in_region

    def test_high_cardinality_witness_in_antagonistic_strip(self):
        m = rd.InteractionModel(10, 2)
        report = rd.redundancy_probe(m, (1e-6, 1.0), (1.0, 1.3), 50_000, seed=4)
        assert any(not report.entries[c].redundant_in_region for c in range(6, 11))


def slice_reference(m, s, t):
    """symmetric_slice as an array over c = 3..k."""
    return np.array(list(rd.symmetric_slice(m, s, t).values()))


def slice_rule(lhs, tol):
    """binding_c and verdict of one point, by the rule SliceRow documents."""
    violated = [c for c, v in enumerate(lhs, start=3) if v > 1.0 + tol]
    if violated:
        return violated[0], "not-optimal"
    top = max(lhs)
    return 3 + list(lhs).index(top), "boundary" if top >= 1.0 - tol else "optimal"


class TestBlockedSliceKernel:
    # 37 x 61 points: two block boundaries, and not a multiple of the block
    S_GRID = np.linspace(0.05, 0.45, 37)
    T_GRID = np.linspace(0.6, 1.3, 61)

    @pytest.mark.parametrize("tol", [regions.THEOREM_TOL, 0.05])
    def test_region_slice_matches_reference_and_rule(self, tol, monkeypatch):
        n = self.S_GRID.size * self.T_GRID.size
        assert n > 2 * regions._BLOCK and n % regions._BLOCK
        m = rd.InteractionModel(12, 2)
        # the tolerance is read when the slice runs, so a wide one reaches "boundary"
        monkeypatch.setattr(regions, "THEOREM_TOL", tol)
        rows = rd.region_slice(m, self.S_GRID, self.T_GRID)
        points = [(s, t) for s in self.S_GRID.tolist() for t in self.T_GRID.tolist()]
        assert [(r.s, r.t) for r in rows] == points
        for row in rows:
            assert_allclose(row.lhs, slice_reference(m, row.s, row.t), rtol=1e-12)
            assert (row.binding_c, row.verdict) == slice_rule(row.lhs, tol)
        # the grid reaches all three verdicts at the wide tolerance
        if tol == 0.05:
            assert {r.verdict for r in rows} == {"optimal", "boundary", "not-optimal"}

    def test_probe_matches_single_shot_reference(self):
        m = rd.InteractionModel(10, 2)
        n = 2 * regions._BLOCK + 17
        s_range, t_range, seed = (0.1, 0.4), (1.1, 1.3), 3
        report = rd.redundancy_probe(m, s_range, t_range, n, seed)

        rng = np.random.default_rng(seed)
        ss = rng.uniform(*s_range, size=n)
        tt = rng.uniform(*t_range, size=n)
        violated = regions._slice_values(m, ss, tt) > 1.0 + regions.THEOREM_TOL
        unique = violated & (violated.sum(axis=1) == 1)[:, None]
        expected = {}
        for j, c in enumerate(range(3, m.k + 1)):
            idx = np.flatnonzero(unique[:, j])
            expected[str(c)] = {
                "redundant_in_region": idx.size == 0,
                "witness": [float(ss[idx[0]]), float(tt[idx[0]])] if idx.size else None,
                "n_violated": int(violated[:, j].sum()),
                "n_witness": int(idx.size),
            }
        assert report.as_dict() == expected
        # a first witness lies past the first block, so the carry is exercised
        firsts = [np.flatnonzero(ss == e.witness[0])[0]
                  for e in report.entries.values() if e.witness]
        assert max(firsts) >= regions._BLOCK

    def test_probe_memory_does_not_grow_with_samples(self):
        m = rd.InteractionModel(12, 2)
        tracemalloc.start()
        try:
            rd.redundancy_probe(m, (1e-9, 1.0), (1.0, 1.3), 1_000_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two sample arrays take 16 MB; a single-shot kernel took 270 MB
        assert peak < 40e6

    S_EDGE = [1e-9, 1e-3, 1.0, 50.0]
    T_EDGE = [1e-3, 1.0, 1.3, 100.0]

    def test_one_exp_kernel_at_edge_points(self):
        m = rd.InteractionModel(12, 2)
        ss, tt = (a.ravel() for a in np.meshgrid(self.S_EDGE, self.T_EDGE))
        with np.errstate(all="raise"):
            values = regions._slice_values(m, ss, tt)
        reference = np.array([slice_reference(m, s, t) for s, t in zip(ss, tt)])
        assert not np.isnan(values).any()
        for pattern in (np.isinf, np.isfinite, lambda a: a == 0):
            assert (pattern(values) == pattern(reference)).all()
        finite = np.isfinite(reference)
        assert_allclose(values[finite], reference[finite], rtol=1e-12)

    def test_extreme_exponents_never_give_nan(self):
        # beyond the float range each term is 0 or inf; 0 * inf must not appear
        m = rd.InteractionModel(12, 2)
        axis = np.r_[10.0 ** np.linspace(-300, 300, 61), 1e306, 1e307, 1e308]
        ss, tt = (a.ravel() for a in np.meshgrid(axis, axis))
        values = regions._slice_values(m, ss, tt)
        assert not np.isnan(values).any()
        reference = np.array([slice_reference(m, s, t) for s, t in zip(ss, tt)])
        assert (np.isinf(values) == np.isinf(reference)).all()


def row_major_slice(k, s, t):
    """The slice kernel written points x c, with the scalar operations of
    ``_slice_values`` in the same order."""
    cs = np.arange(3, k + 1)
    pairs = cs * (cs - 1) // 2
    lead = np.array([math.comb(c - 1, 2) ** 2 for c in cs], dtype=float)
    single = np.array([c * (c - 2) ** 2 for c in cs], dtype=float)
    s = np.asarray(s, dtype=float)[:, None]
    t = np.asarray(t, dtype=float)[:, None]
    with np.errstate(over="ignore", under="ignore"):
        base = np.exp(np.log(s) * (cs - 1.0) + np.log(t) * (pairs - 1.0))
        st = base * s
        return lead * (st * t) + single * (base * t) + pairs * st


def single_shot_probe(m, s_range, t_range, n, seed, tol=regions.THEOREM_TOL):
    """The probe over whole sample arrays: s from one uniform call, t from
    the next call on the same generator."""
    rng = np.random.default_rng(seed)
    ss = rng.uniform(*s_range, size=n)
    tt = rng.uniform(*t_range, size=n)
    violated = row_major_slice(m.k, ss, tt) > 1.0 + tol
    unique = violated & (violated.sum(axis=1) == 1)[:, None]
    report = {}
    for j, c in enumerate(range(3, m.k + 1)):
        idx = np.flatnonzero(unique[:, j])
        report[str(c)] = {
            "redundant_in_region": idx.size == 0,
            "witness": [float(ss[idx[0]]), float(tt[idx[0]])] if idx.size else None,
            "n_violated": int(violated[:, j].sum()),
            "n_witness": int(idx.size),
        }
    return report


class TestStreamedProbe:
    RANGES = [((1e-6, 1.0), (1.0, 1.3)), ((0.01, 1.0), (0.01, 1.5))]

    @pytest.mark.parametrize("n", [1, 5, regions._BLOCK, 2 * regions._BLOCK + 17])
    @pytest.mark.parametrize("k", [3, 12, 20])
    @pytest.mark.parametrize("seed", [0, 3, 20260810])
    @pytest.mark.parametrize("ranges", RANGES)
    def test_equals_single_shot_reference(self, n, k, seed, ranges):
        m = rd.InteractionModel(k, 2)
        report = rd.redundancy_probe(m, *ranges, n, seed)
        expected = single_shot_probe(m, *ranges, n, seed)
        assert report.as_dict() == expected
        assert (report.n_samples, report.seed) == (n, seed)
        if n >= regions._BLOCK:
            assert any(e.witness for e in report.entries.values())

    @pytest.mark.parametrize("n", [1_000_000, 4_000_000])
    def test_memory_is_constant_in_samples(self, n):
        m = rd.InteractionModel(12, 2)
        tracemalloc.start()
        try:
            rd.redundancy_probe(m, (1e-9, 1.0), (1.0, 1.3), n, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # whole sample arrays took 16 MB at 10^6 samples and 64 MB at 4 * 10^6
        assert peak < 2e6

    def test_needs_an_inequality(self):
        with pytest.raises(ValueError, match="k >= 3"):
            rd.redundancy_probe(rd.InteractionModel(2, 2), (0.1, 1.0), (0.1, 1.0), 10, 0)
        with pytest.raises(ValueError, match="k >= 3"):
            rd.region_slice(rd.InteractionModel(2, 2), [0.5], [0.5])


class TestCMajorSliceKernel:
    EXTREME = np.r_[10.0 ** np.linspace(-300, 300, 61), 1e306, 1e307, 1e308]

    @pytest.mark.parametrize("axes", [
        (TestBlockedSliceKernel.S_EDGE, TestBlockedSliceKernel.T_EDGE),
        (EXTREME, EXTREME),
        (np.linspace(0.05, 0.45, 37), np.linspace(0.6, 1.3, 61)),
    ])
    def test_bitwise_equal_to_row_major(self, axes):
        m = rd.InteractionModel(12, 2)
        ss, tt = (a.ravel() for a in np.meshgrid(*axes))
        values = regions._slice_values(m, ss, tt)
        assert values.shape == (ss.size, m.k - 2)
        # points x c is a view of the c-major array the kernel computed
        assert values.T.flags.c_contiguous
        assert np.array_equal(values, row_major_slice(m.k, ss, tt))
