"""Group elements, representation matrices, and the transformation law."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import raschdesign as rd
import raschdesign.symmetry as symmetry

from conftest import inverse_model_matrix


def random_element(rng, k):
    perm = tuple(int(v) for v in rng.permutation(np.arange(1, k + 1)))
    flips = tuple(int(i) for i in range(1, k + 1) if rng.random() < 0.5)
    return rd.GroupElement(perm, flips)


def random_design(rng, k, min_support):
    n = 1 << k
    size = int(rng.integers(min_support, n + 1))
    support = rng.choice(n, size=size, replace=False)
    raw = rng.random(size) + 0.05
    raw /= raw.sum()
    return rd.Design(k, {int(x): float(v) for x, v in zip(support, raw)})


def solved_q(g, m):
    """Q solved exactly on the corner settings, whose model matrix has a
    known integer inverse: the reference for the closed form."""
    moved = [rd.act_on_setting(g, x, m.k) for x in m.masks]
    return (inverse_model_matrix(m) @ rd.regression_matrix(m, moved)).T


def fraction_det(mat):
    """Exact determinant of an integer matrix by elimination over the rationals."""
    a = [[Fraction(int(v)) for v in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    assert det.denominator == 1
    return int(det)


def element_order(g):
    """Smallest n with g^n the identity, by repeated composition."""
    power, n = g, 1
    identity = rd.GroupElement.identity(g.k)
    while power != identity:
        power, n = g.compose(power), n + 1
    return n


elements = st.integers(min_value=0, max_value=10_000)


class TestGroupElement:
    def test_identity_action(self):
        g = rd.GroupElement.identity(3)
        for x in range(8):
            assert rd.act_on_setting(g, x, 3) == x

    def test_flip_action(self):
        g = rd.GroupElement((1, 2, 3), (1,))
        assert rd.act_on_setting(g, (0, 1, 0), 3) == rd.setting_mask((1, 1, 0), 3)

    def test_permutation_action(self):
        g = rd.GroupElement((2, 1, 3), ())
        assert rd.act_on_setting(g, (1, 0, 1), 3) == rd.setting_mask((0, 1, 1), 3)

    def test_flip_involution(self):
        g = rd.GroupElement((1, 2, 3), (2, 3))
        for x in range(8):
            assert rd.act_on_setting(g, rd.act_on_setting(g, x, 3), 3) == x

    def test_invalid_elements_rejected(self):
        with pytest.raises(ValueError):
            rd.GroupElement((1, 1, 3), ())
        with pytest.raises(ValueError):
            rd.GroupElement((1, 2), (3,))

    @settings(max_examples=60, deadline=None)
    @given(elements, elements, elements)
    def test_group_axioms_on_random_triples(self, s1, s2, s3):
        k = 4
        rngs = [np.random.default_rng(s) for s in (s1, s2, s3)]
        g, h, f = (random_element(r, k) for r in rngs)
        assoc_left = g.compose(h).compose(f)
        assoc_right = g.compose(h.compose(f))
        assert assoc_left == assoc_right
        identity = rd.GroupElement.identity(k)
        assert g.compose(g.inverse()) == identity
        assert g.inverse().compose(g) == identity
        for x in range(1 << k):
            assert rd.act_on_setting(g.compose(h), x, k) == rd.act_on_setting(
                g, rd.act_on_setting(h, x, k), k
            )


class TestRepresentation:
    def test_identity_representation(self):
        m = rd.InteractionModel(3, 2)
        rep = rd.representation_matrix(rd.GroupElement.identity(3), m)
        assert np.array_equal(rep.q, np.eye(m.p, dtype=np.int64))

    def test_pure_permutation_is_index_permutation(self):
        m = rd.InteractionModel(3, 2)
        g = rd.GroupElement((2, 3, 1), ())
        q = rd.representation_matrix(g, m).q
        assert np.array_equal(np.abs(q).sum(axis=0), np.ones(m.p, dtype=np.int64))
        assert np.array_equal(np.abs(q).sum(axis=1), np.ones(m.p, dtype=np.int64))
        assert set(np.unique(q)) <= {0, 1}

    def test_order_one_flip_block(self):
        m = rd.InteractionModel(2, 1)
        g = rd.GroupElement((1, 2), (1,))
        q = rd.representation_matrix(g, m).q
        # x1 -> 1 - x1: column for rule 1 maps through (1, -1)
        expected = np.array([[1, 1, 0], [0, -1, 0], [0, 0, 1]]).T
        assert np.array_equal(q, expected.T) or np.array_equal(q, expected)

    def test_defining_relation_on_all_settings(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, min(k, 3) + 1))
            m = rd.InteractionModel(k, d)
            g = random_element(rng, k)
            q = rd.representation_matrix(g, m).q
            for x in m.settings():
                lhs = rd.regression_vector(rd.act_on_setting(g, x, k), m)
                assert np.array_equal(lhs, q @ rd.regression_vector(x, m))

    def test_defining_relation_for_every_element_up_to_k4(self):
        count = 0
        for k in range(1, 5):
            perms = list(itertools.permutations(range(1, k + 1)))
            flip_sets = [f for r in range(k + 1)
                         for f in itertools.combinations(range(1, k + 1), r)]
            for d in range(1, k + 1):
                m = rd.InteractionModel(k, d)
                rows = rd.regression_matrix(m)
                for perm, flips in itertools.product(perms, flip_sets):
                    g = rd.GroupElement(perm, flips)
                    rep = rd.representation_matrix(g, m)
                    moved = rd.regression_matrix(
                        m, [rd.act_on_setting(g, x, k) for x in m.settings()]
                    )
                    assert np.array_equal(moved, rows @ rep.q.T), (k, d, g)
                    assert np.array_equal(rep.q, solved_q(g, m)), (k, d, g)
                    assert rep.q.dtype == np.int64
                    assert rep.det == fraction_det(rep.q), (k, d, g)
                    count += 1
        assert count == 1698

    @pytest.mark.parametrize("k, d", [(12, 3), (20, 2)])
    def test_closed_form_matches_the_exact_solve(self, k, d):
        rng = np.random.default_rng(k * 10 + d)
        m = rd.InteractionModel(k, d)
        for _ in range(3):
            g = random_element(rng, k)
            rep = rd.representation_matrix(g, m)
            assert np.array_equal(rep.q, solved_q(g, m)), g
            assert rep.det == fraction_det(rep.q), g

    def test_k20_builds_no_lattice_sized_array(self):
        m = rd.InteractionModel(20, 2)
        g = rd.GroupElement(tuple(range(2, 21)) + (1,), (1,))
        theta = rd.ParameterVector.symmetric(m, 0.5, 0.9)
        tracemalloc.start()
        try:
            rep = rd.representation_matrix(g, m)
            moved = rd.act_on_parameters(g, theta, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 2^20 int64 array alone is 8 MB
        assert peak < 8 * 2**20
        assert abs(rep.det) == 1
        rng = np.random.default_rng(20)
        for x in rng.integers(0, 1 << 20, size=50):
            x = int(x)
            assert math.isclose(
                rd.regression_vector(rd.act_on_setting(g, x, 20), m) @ moved.values,
                rd.regression_vector(x, m) @ theta.values, rel_tol=1e-12, abs_tol=1e-12,
            )

    def test_unimodular(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, min(k, 3) + 1))
            m = rd.InteractionModel(k, d)
            rep = rd.representation_matrix(random_element(rng, k), m)
            assert abs(rep.det) == 1

    def test_multiplicative_over_composition(self):
        rng = np.random.default_rng(6)
        m = rd.InteractionModel(4, 2)
        for _ in range(15):
            g, h = random_element(rng, 4), random_element(rng, 4)
            q_g = rd.representation_matrix(g, m).q
            q_h = rd.representation_matrix(h, m).q
            q_gh = rd.representation_matrix(g.compose(h), m).q
            assert np.array_equal(q_gh, q_g @ q_h)

    def test_cached_and_read_only(self):
        m = rd.InteractionModel(5, 2)
        rep = rd.representation_matrix(rd.GroupElement((2, 1, 3, 4, 5), (4,)), m)
        # an equal element and model, built anew, find the same matrix
        again = rd.representation_matrix(rd.GroupElement((2, 1, 3, 4, 5), (4,)),
                                         rd.InteractionModel(5, 2))
        assert again is rep
        assert not rep.q.flags.writeable
        with pytest.raises(ValueError):
            rep.q[0, 0] = 2


class TestParameterAction:
    def test_identity(self):
        m = rd.InteractionModel(3, 2)
        theta = rd.ParameterVector.from_dict(m, {"1": -0.4, "2,3": 0.2})
        moved = rd.act_on_parameters(rd.GroupElement.identity(3), theta, m)
        assert_allclose(moved.values, theta.values)

    def test_response_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, min(k, 2) + 1))
            m = rd.InteractionModel(k, d)
            g = random_element(rng, k)
            theta = rd.ParameterVector(m, rng.normal(size=m.p))
            moved = rd.act_on_parameters(g, theta, m)
            rows = rd.regression_matrix(m)
            for x in m.settings():
                lhs = float(
                    rd.regression_vector(rd.act_on_setting(g, x, k), m) @ moved.values
                )
                assert abs(lhs - float(rows[x] @ theta.values)) <= 1e-12

    def test_permutation_relabels_subsets(self):
        m = rd.InteractionModel(3, 1)
        theta = rd.ParameterVector.from_dict(m, {"1": -0.5, "2": 0.25, "3": 1.0})
        g = rd.GroupElement((2, 3, 1), ())
        moved = rd.act_on_parameters(g, theta, m)
        assert_allclose(moved.beta((2,)), -0.5)
        assert_allclose(moved.beta((3,)), 0.25)
        assert_allclose(moved.beta((1,)), 1.0)

    def test_flip_is_sign_change_after_renormalization(self):
        m = rd.InteractionModel(3, 1)
        theta = rd.ParameterVector.from_dict(m, {"1": -0.7, "2": 0.4, "3": -0.1})
        full_flip = rd.GroupElement((1, 2, 3), (1, 2, 3))
        moved = rd.act_on_parameters(full_flip, theta, m).with_base_zero()
        assert_allclose(moved.values[1:], -theta.values[1:], atol=1e-12)

    def test_single_flip_moves_mass_to_base(self):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.from_dict(m, {"1": -0.7, "2": 0.3})
        moved = rd.act_on_parameters(rd.GroupElement((1, 2), (1,)), theta, m)
        assert_allclose(moved.beta(()), -0.7)
        assert_allclose(moved.beta((1,)), 0.7)
        assert_allclose(moved.beta((2,)), 0.3)


class TestParameterOrbit:
    def test_matches_repeated_action(self):
        m = rd.InteractionModel(4, 2)
        theta = rd.ParameterVector.symmetric(m, 0.5, 0.9)
        g = rd.GroupElement((2, 3, 4, 1), (1,))
        orbit = symmetry.parameter_orbit(g, theta, m)
        assert len(orbit) == 8  # g^4 flips every rule, g^8 is the identity
        current = theta
        for point in orbit[1:]:
            current = rd.act_on_parameters(g, current, m)
            np.testing.assert_array_equal(point.values, current.values)
        assert_allclose(rd.act_on_parameters(g, current, m).values, theta.values,
                        atol=1e-12)

    def test_one_representation_solve_per_orbit(self, monkeypatch):
        calls = []
        solve = symmetry.representation_matrix

        def counted(g, m):
            calls.append(g)
            return solve(g, m)

        monkeypatch.setattr(symmetry, "representation_matrix", counted)
        m = rd.InteractionModel(4, 2)
        theta = rd.ParameterVector.from_dict(m, {"1": -0.5, "1,2": 0.3})
        counts = {}
        for element in [rd.GroupElement((2, 1, 3, 4), ()),
                        rd.GroupElement((2, 3, 4, 1), (1,))]:
            calls.clear()
            orbit = symmetry.parameter_orbit(element, theta, m)
            counts[len(orbit)] = len(calls)
        assert counts == {2: 1, 8: 1}

    @pytest.mark.parametrize("k, d", [(3, 2), (6, 2), (8, 3), (12, 3)])
    def test_points_are_the_integer_products(self, k, d):
        # Q^{-T} is cast to float once per orbit; each point keeps the bits of
        # the int64 product that casts it per step
        rng = np.random.default_rng(k + d)
        m = rd.InteractionModel(k, d)
        for _ in range(3):
            g = random_element(rng, k)
            theta = rd.ParameterVector(m, rng.normal(size=m.p))
            q_inv = rd.representation_matrix(g.inverse(), m).q
            current = theta.values
            for point in symmetry.parameter_orbit(g, theta, m)[1:]:
                current = q_inv.T @ current
                assert point.values.tobytes() == current.tobytes(), g

    def test_length_divides_the_order(self):
        rng = np.random.default_rng(21)
        for k, d in [(3, 2), (4, 2), (5, 3)]:
            m = rd.InteractionModel(k, d)
            for _ in range(100):
                g = random_element(rng, k)
                # every entry on a 12-decimal rounding boundary
                values = np.round(rng.uniform(-1, 1, m.p), 12) + 5e-13
                orbit = symmetry.parameter_orbit(g, rd.ParameterVector(m, values), m)
                assert element_order(g) % len(orbit) == 0, (g, len(orbit))


class TestDesignAction:
    def test_identity(self):
        w = rd.Design.from_weights(2, {"00": 0.5, "10": 0.5})
        moved = rd.act_on_design(rd.GroupElement.identity(2), w)
        assert moved.weights == w.weights

    def test_corner_support_permutation_invariant(self):
        m = rd.InteractionModel(3, 2)
        w = rd.corner_design(m)
        moved = rd.act_on_design(rd.GroupElement((3, 1, 2), ()), w)
        assert sorted(moved.support) == sorted(w.support)

    def test_double_flip_moves_corner(self):
        m = rd.InteractionModel(2, 1)
        moved = rd.act_on_design(
            rd.GroupElement((1, 2), (1, 2)), rd.corner_design(m)
        )
        assert sorted(rd.setting_string(x, 2) for x in moved.support) == [
            "01", "10", "11",
        ]

    def test_mass_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            w = random_design(rng, k, 1)
            moved = rd.act_on_design(random_element(rng, k), w)
            assert math.isclose(sum(moved.weights.values()), 1.0, abs_tol=1e-12)
            assert sorted(moved.weights.values()) == sorted(w.weights.values())


class TestTransformationLaw:
    def test_identity_residual_zero(self):
        m = rd.InteractionModel(2, 1)
        report = rd.verify_transformation(
            rd.GroupElement.identity(2),
            rd.Design.uniform(2),
            rd.ParameterVector.zeros(m),
            m,
        )
        assert report.max_residual == 0.0

    def test_random_triples(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, min(k, 2) + 1))
            m = rd.InteractionModel(k, d)
            g = random_element(rng, k)
            theta = rd.ParameterVector(m, rng.normal(scale=0.8, size=m.p))
            w = random_design(rng, k, m.p)
            report = rd.verify_transformation(g, w, theta, m)
            assert report.max_residual <= 1e-9
            assert report.det_difference <= 1e-9

    def test_base_parameter_moves_no_report_value(self):
        # at 720 the absolute-scale M overflows; the law is read at base 0
        m = rd.InteractionModel(2, 1)
        g = rd.GroupElement((2, 1), ())
        w = rd.Design(2, {0: 1 / 3, 1: 1 / 3, 2: 1 / 3})
        reports = [
            rd.verify_transformation(g, w, rd.ParameterVector.from_dict(
                m, {"": base, "1": -1.0}), m)
            for base in (0.0, 720.0, -720.0)
        ]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].max_residual <= 1e-12
