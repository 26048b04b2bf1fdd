"""Model core: subset index, regression, intensities, exact combinatorics."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import raschdesign as rd

from conftest import inverse_model_matrix, model_matrix, transform_vector


def exact_inverse(mat):
    """Independent oracle: Gaussian elimination over rationals."""
    n = len(mat)
    a = [[Fraction(int(v)) for v in row] + [Fraction(int(i == r)) for i in range(n)]
         for r, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    out = [[a[r][n + i] for i in range(n)] for r in range(n)]
    assert all(x.denominator == 1 for row in out for x in row)
    return np.array([[int(x) for x in row] for row in out], dtype=np.int64)


SMALL_MODELS = [
    (k, d) for k in range(1, 7) for d in range(1, min(k, 3) + 1)
]


class TestInteractionModel:
    def test_canonical_order_of_subsets(self):
        m = rd.InteractionModel(3, 2)
        assert m.subsets == ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
        assert m.p == 7

    @pytest.mark.parametrize("k,d", SMALL_MODELS)
    def test_dimension_formula(self, k, d):
        m = rd.InteractionModel(k, d)
        assert m.p == sum(math.comb(k, i) for i in range(d + 1))

    def test_index_set_downward_closed(self):
        m = rd.InteractionModel(5, 3)
        members = set(m.subsets)
        for subset in m.subsets:
            for drop in subset:
                assert tuple(i for i in subset if i != drop) in members

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            rd.InteractionModel(3, 0)
        with pytest.raises(ValueError):
            rd.InteractionModel(3, 4)

    def test_size_guard(self):
        with pytest.raises(rd.ModelSizeError):
            rd.InteractionModel(21, 1)

    @given(st.integers(min_value=1, max_value=20), st.data())
    def test_setting_mask_round_trips(self, k, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << k) - 1))
        bits = rd.setting_bits(mask, k)
        assert rd.setting_mask(bits, k) == mask
        assert rd.setting_mask(rd.setting_string(mask, k), k) == mask
        assert rd.mask_subset(mask) == tuple(
            i + 1 for i, b in enumerate(bits) if b
        )


class TestRegressionVector:
    def test_active_subset_indicators(self):
        m = rd.InteractionModel(3, 2)
        assert rd.regression_vector((1, 1, 0), m).tolist() == [1, 1, 1, 0, 1, 0, 0]

    def test_origin_row(self):
        m = rd.InteractionModel(3, 2)
        assert rd.regression_vector((0, 0, 0), m).tolist() == [1, 0, 0, 0, 0, 0, 0]

    def test_all_singletons_active(self):
        m = rd.InteractionModel(2, 1)
        assert rd.regression_vector((1, 1), m).tolist() == [1, 1, 1]

    def test_dimension_mismatch(self):
        m = rd.InteractionModel(3, 2)
        with pytest.raises(ValueError):
            rd.regression_vector((1, 0), m)


class TestIntensity:
    def test_unit_at_zero_parameters(self):
        m = rd.InteractionModel(3, 2)
        theta = rd.ParameterVector.zeros(m)
        for x in m.settings():
            assert rd.intensity(x, theta, m) == 1.0

    def test_product_of_pair(self):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.from_dict(m, {"1": -0.4, "2": 0.9})
        assert_allclose(
            rd.intensity((1, 1), theta, m),
            math.exp(-0.4) * math.exp(0.9),
            rtol=1e-14,
        )

    def test_symmetric_full_setting(self):
        m = rd.InteractionModel(3, 2)
        s, t = 0.7, 1.3
        theta = rd.ParameterVector.symmetric(m, s, t)
        assert_allclose(rd.intensity((1, 1, 1), theta, m), s**3 * t**3, rtol=1e-12)

    def test_matches_regression_inner_product(self):
        rng = np.random.default_rng(42)
        m = rd.InteractionModel(4, 2)
        for _ in range(25):
            theta = rd.ParameterVector(m, rng.normal(size=m.p))
            x = int(rng.integers(0, 1 << m.k))
            expected = math.exp(float(rd.regression_vector(x, m) @ theta.values))
            assert_allclose(rd.intensity(x, theta, m), expected, rtol=1e-12)

    @pytest.mark.parametrize("k,d", [(1, 1), (3, 2), (6, 2), (10, 3)])
    def test_intensities_match_regression_product(self, k, d):
        rng = np.random.default_rng(10 * k + d)
        m = rd.InteractionModel(k, d)
        theta = rd.ParameterVector(m, rng.normal(size=m.p))
        expected = np.exp(rd.regression_matrix(m) @ theta.values)
        assert_allclose(rd.intensities(theta, m), expected, rtol=1e-12)

    def test_toric_relation(self):
        # lambda(00) lambda(11) == lambda(10) lambda(01) identically at d=1
        rng = np.random.default_rng(3)
        m = rd.InteractionModel(2, 1)
        for _ in range(50):
            theta = rd.ParameterVector(m, rng.normal(size=3))
            lam = rd.intensities(theta, m)
            assert_allclose(lam[0] * lam[3], lam[1] * lam[2], rtol=1e-12)

    def test_overflow_raises_naming_its_setting(self):
        m = rd.InteractionModel(2, 1)
        limit = math.log(sys.float_info.max)
        at_limit = rd.intensities(rd.ParameterVector(m, [0.0, 0.0, limit]), m)
        assert np.isfinite(at_limit).all()
        beyond = rd.ParameterVector(m, [0.0, 400.0, 400.0])
        with pytest.raises(ValueError, match=r"setting 11: log intensity 800 exceeds"
                                             r" log\(float max\).* infs or NaNs"):
            rd.intensities(beyond, m)
        single = rd.ParameterVector(m, [0.0, 800.0, 0.0])
        with pytest.raises(ValueError, match=r"setting 10: log intensity 800 exceeds"
                                             r" log\(float max\).* infs or NaNs"):
            rd.intensity((1, 0), single, m)
        assert rd.intensity((0, 1), single, m) == 1.0


class TestFisherInformation:
    def test_point_design_at_origin(self):
        m = rd.InteractionModel(3, 2)
        theta = rd.ParameterVector.zeros(m)
        w = rd.Design(3, {0: 1.0})
        expected = np.zeros((7, 7))
        expected[0, 0] = 1.0
        assert_allclose(rd.fisher_information(w, theta, m), expected, atol=1e-15)

    def test_single_rule_uniform(self):
        m = rd.InteractionModel(1, 1)
        theta = rd.ParameterVector.zeros(m)
        w = rd.Design.uniform(1)
        assert_allclose(
            rd.fisher_information(w, theta, m),
            [[1.0, 0.5], [0.5, 0.5]],
            atol=1e-15,
        )

    def test_vertex_summands(self):
        # each vertex contributes lambda(x) f(x) f(x)^T
        m = rd.InteractionModel(2, 1)
        l1, l2 = 0.6, 0.9
        theta = rd.ParameterVector.from_dict(m, {"1": math.log(l1), "2": math.log(l2)})
        expected = {
            0: np.diag([1.0, 0.0, 0.0]),
            1: l1 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=float),
            2: l2 * np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]], dtype=float),
            3: l1 * l2 * np.ones((3, 3)),
        }
        for x, mat in expected.items():
            w = rd.Design(2, {x: 1.0})
            assert_allclose(rd.fisher_information(w, theta, m), mat, rtol=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, min(k, 3) + 1))
            m = rd.InteractionModel(k, d)
            theta = rd.ParameterVector(m, rng.normal(size=m.p))
            support = rng.choice(1 << k, size=rng.integers(1, (1 << k) + 1), replace=False)
            raw = rng.random(len(support))
            raw /= raw.sum()
            w = rd.Design(k, {int(x): float(v) for x, v in zip(support, raw)})
            mat = rd.fisher_information(w, theta, m)
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() >= -1e-10 * np.trace(mat)


class TestModelMatrix:
    def test_pairwise_model_inclusion_matrix(self):
        m = rd.InteractionModel(3, 2)
        expected = np.array([
            [1, 0, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 0, 0],
            [1, 0, 1, 0, 0, 0, 0],
            [1, 0, 0, 1, 0, 0, 0],
            [1, 1, 1, 0, 1, 0, 0],
            [1, 1, 0, 1, 0, 1, 0],
            [1, 0, 1, 1, 0, 0, 1],
        ])
        assert np.array_equal(model_matrix(m), expected)

    def test_full_order_gives_subset_zeta_matrix(self):
        m = rd.InteractionModel(3, 3)
        f = model_matrix(m)
        for i, a in enumerate(m.subsets):
            for j, b in enumerate(m.subsets):
                assert f[i, j] == (1 if set(b) <= set(a) else 0)

    @pytest.mark.parametrize("k,d", SMALL_MODELS)
    def test_unit_determinant(self, k, d):
        m = rd.InteractionModel(k, d)
        f = model_matrix(m)
        assert np.array_equal(np.tril(f), f)
        assert np.array_equal(np.diag(f), np.ones(m.p, dtype=np.int64))


class TestInverseModelMatrix:
    @pytest.mark.parametrize("k,d", SMALL_MODELS)
    def test_exact_inverse_identity(self, k, d):
        m = rd.InteractionModel(k, d)
        product = model_matrix(m) @ inverse_model_matrix(m)
        assert np.array_equal(product, np.eye(m.p, dtype=np.int64))

    @pytest.mark.parametrize("k,d", [(2, 1), (3, 2), (4, 2), (5, 3)])
    def test_matches_rational_elimination_oracle(self, k, d):
        m = rd.InteractionModel(k, d)
        assert np.array_equal(
            inverse_model_matrix(m), exact_inverse(model_matrix(m))
        )

    def test_signed_entry(self):
        m = rd.InteractionModel(3, 2)
        i = m.position((1, 2))
        j = m.position((1,))
        assert inverse_model_matrix(m)[i, j] == -1

    def test_unit_diagonal(self):
        m = rd.InteractionModel(4, 3)
        assert np.array_equal(
            np.diag(inverse_model_matrix(m)), np.ones(m.p, dtype=np.int64)
        )


class TestTransformVector:
    def test_signs_at_one_past_order(self):
        m = rd.InteractionModel(3, 2)
        assert transform_vector((1, 1, 1), m).tolist() == [1, -1, -1, -1, 1, 1, 1]

    def test_basis_vector_for_small_settings(self):
        m = rd.InteractionModel(4, 2)
        for x in m.settings():
            if x.bit_count() <= m.d:
                vec = transform_vector(x, m)
                expected = np.zeros(m.p, dtype=np.int64)
                expected[m.position(x)] = 1
                assert np.array_equal(vec, expected)

    def test_binomial_pattern_full_setting(self):
        m = rd.InteractionModel(4, 2)
        vec = transform_vector((1, 1, 1, 1), m)
        by_card = {0: 3, 1: -2, 2: 1}
        expected = np.array([by_card[len(s)] for s in m.subsets])
        assert np.array_equal(vec, expected)

    @pytest.mark.parametrize("k,d", SMALL_MODELS)
    def test_matches_exact_matrix_product(self, k, d):
        m = rd.InteractionModel(k, d)
        f_inv_t = exact_inverse(model_matrix(m)).T
        for x in m.settings():
            oracle = f_inv_t @ rd.regression_vector(x, m)
            assert np.array_equal(transform_vector(x, m), oracle)


class TestCombinatorialIdentities:
    def test_alternating_binomial_sum(self):
        # sum_{j<=K} (-1)^j C(n, j) == (-1)^K C(n-1, K); n >= 1 since the
        # C(n, r) = 0 convention for r > n makes the n = 0 case vacuous
        for n in range(1, 13):
            for upper in range(n + 1):
                total = sum((-1) ** j * math.comb(n, j) for j in range(upper + 1))
                assert total == (-1) ** upper * rd.choose(n - 1, upper)

    def test_choose_boundary_conventions(self):
        assert rd.choose(5, -1) == 0
        assert rd.choose(3, 4) == 0
        assert rd.choose(0, 0) == 1


class TestParameterVector:
    def test_rejects_non_finite(self):
        m = rd.InteractionModel(2, 1)
        with pytest.raises(ValueError):
            rd.ParameterVector(m, [0.0, np.inf, 0.0])

    def test_normalization_flag(self):
        m = rd.InteractionModel(2, 1)
        assert rd.ParameterVector.zeros(m).normalized
        shifted = rd.ParameterVector.from_dict(m, {"": 0.3})
        assert not shifted.normalized
        assert shifted.with_base_zero().normalized

    def test_mu_positive(self):
        m = rd.InteractionModel(2, 2)
        theta = rd.ParameterVector.from_dict(m, {"1": -30.0, "1,2": 4.0})
        assert theta.mu((1,)) > 0
        assert_allclose(theta.mu((1, 2)), math.exp(4.0))

    def test_rejects_unknown_subset(self):
        m = rd.InteractionModel(3, 1)
        with pytest.raises(rd.InputFormatError):
            rd.ParameterVector.from_dict(m, {"1,2": 0.1})
        with pytest.raises(rd.InputFormatError):
            rd.ParameterVector.from_dict(m, {"7": 0.1})


class TestDesign:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            rd.Design(2, {0: 0.5, 1: 0.6})

    def test_zero_weights_dropped(self):
        w = rd.Design(2, {0: 0.5, 1: 0.5, 2: 0.0})
        assert w.support == (0, 1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            rd.Design(2, {0: 1.5, 1: -0.5})

    def test_uniform(self):
        w = rd.Design.uniform(3)
        assert len(w.support) == 8
        assert_allclose(list(w.weights.values()), [0.125] * 8)

    def test_bit_string_keys(self):
        w = rd.Design.from_weights(3, {"110": 0.5, "000": 0.5})
        assert w.weight((1, 1, 0)) == 0.5
        assert w.weight(0) == 0.5
        assert w.weight((1, 1, 1)) == 0.0
