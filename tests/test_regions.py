"""Corner-design optimality: inequality system, certificates, slices, probe."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import raschdesign as rd


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


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_information_raises(self):
        # e^800 overflows, so M holds infs; no NaN verdict may come out
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector(m, [0.0, 800.0, 0.0])
        w = rd.corner_design(m)
        with pytest.raises(ValueError, match="infs or NaNs"):
            rd.sensitivities(w, theta, m)
        with pytest.raises(ValueError, match="infs or NaNs"):
            rd.kw_certificate(w, theta, m)


class TestSensitivityKernel:
    @pytest.mark.parametrize("k,d", [(2, 1), (6, 2), (10, 2), (10, 3), (12, 3)])
    def test_matches_dense_solve(self, k, d):
        rng = np.random.default_rng(100 * k + d)
        m = rd.InteractionModel(k, d)
        theta = rd.ParameterVector(m, rng.normal(scale=0.3, size=m.p))
        w = rd.Design(k, dict(enumerate(rng.dirichlet(np.ones(1 << k)))))
        got = rd.sensitivities(w, theta, m)

        rows = rd.regression_matrix(m).astype(float)
        mat = rd.fisher_information(w, theta, m)
        lam = np.exp(rows @ theta.values)
        expected = lam * np.einsum("ij,ji->i", rows, np.linalg.solve(mat, rows.T))
        assert_allclose(got, expected, rtol=1e-10)

        weights = np.array([w.weight(x) for x in m.settings()])
        assert abs(weights @ got - m.p) <= 1e-9 * m.p


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
