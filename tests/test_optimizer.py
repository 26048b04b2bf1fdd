"""Multiplicative ascent: fixed points, convergence, classification, transitions."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import raschdesign as rd
from raschdesign import DesignStructure, optimizer


def segment_monotone(trace, prune_iterations, slack=1e-12):
    """Check ascent within each constant-support segment of the trace."""
    boundaries = set(prune_iterations)
    previous = None
    for i, value in enumerate(trace):
        if previous is not None and value < previous - slack * max(1.0, abs(previous)):
            return False
        previous = None if i in boundaries else value
    return True


class TestOptimizeDesign:
    @pytest.mark.parametrize("k,d", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 4)])
    def test_uniform_limit_at_zero_parameters(self, k, d):
        m = rd.InteractionModel(k, d)
        result = rd.optimize_design(rd.ParameterVector.zeros(m), m)
        assert result.converged
        assert result.structure is DesignStructure.UNIFORM
        target = 1.0 / (1 << k)
        for x in m.settings():
            assert abs(result.design.weight(x) - target) <= 1e-6

    def test_corner_limit_below_transition(self):
        m = rd.InteractionModel(2, 1)
        result = rd.optimize_design(rd.ParameterVector.symmetric(m, 0.3), m)
        assert result.converged
        assert result.structure is DesignStructure.CORNER
        assert sorted(result.design.support) == [0, 1, 2]
        for x in result.design.support:
            assert abs(result.design.weight(x) - 1 / 3) <= 1e-6

    @pytest.mark.parametrize("lam,min_weight", [
        pytest.param(0.4145, 1e-4, id="0.4145"),
        pytest.param(0.8, 1e-3, id="0.8"),
    ])
    def test_interior_limit_above_transition(self, lam, min_weight):
        # 0.4145 sits just above sqrt(2) - 1, where (1,1) carries little
        # weight: a deletion bound built on the relative gap drops it
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.symmetric(m, lam)
        result = rd.optimize_design(theta, m)
        assert result.converged
        assert result.structure is DesignStructure.INTERIOR
        assert result.design.weight((1, 1)) > min_weight
        assert_allclose(result.final_kw_max, 3.0, rtol=1e-6)
        assert rd.kw_certificate(result.design, theta, m).optimal

    def test_non_finite_information_raises(self):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector(m, [0.0, 800.0, 0.0])
        with pytest.raises(ValueError, match="infs or NaNs"):
            rd.optimize_design(theta, m)

    def test_support_deletion_reaches_corner_quickly(self):
        # just below the saturation point the corner weights converge
        # slowly; deleting (1,1) by the Harman-Pronzato bound ends the run
        m = rd.InteractionModel(2, 1)
        cfg = rd.OptimizerConfig(max_iterations=100)
        result = rd.optimize_design(rd.ParameterVector.symmetric(m, 0.41), m, cfg)
        assert result.converged
        assert result.structure is DesignStructure.CORNER
        assert result.prune_iterations

    def test_converged_designs_pass_certificate(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, min(k, 2) + 1))
            m = rd.InteractionModel(k, d)
            vals = np.zeros(m.p)
            vals[1:] = rng.uniform(-2.0, 0.5, size=m.p - 1)
            theta = rd.ParameterVector(m, vals)
            result = rd.optimize_design(theta, m)
            assert result.converged
            assert rd.kw_certificate(result.design, theta, m).optimal

    def test_log_det_trace_monotone_between_prunes(self):
        m = rd.InteractionModel(3, 1)
        rng = np.random.default_rng(5)
        for _ in range(5):
            vals = np.zeros(m.p)
            vals[1:] = rng.uniform(-2.0, 0.3, size=m.p - 1)
            result = rd.optimize_design(rd.ParameterVector(m, vals), m)
            assert segment_monotone(result.log_det_trace, result.prune_iterations)

    def test_averaging_identity_enforced(self):
        # the optimizer raises if sum w_x d(x) drifts from p; a normal run
        # must complete without tripping the self-check
        m = rd.InteractionModel(4, 2)
        theta = rd.ParameterVector.symmetric(m, 0.45, 0.8)
        result = rd.optimize_design(theta, m)
        assert result.final_kw_max >= m.p - 1e-9

    def test_saturated_weights_uniform(self):
        m = rd.InteractionModel(3, 1)
        theta = rd.ParameterVector.symmetric(m, 0.25)
        result = rd.optimize_design(theta, m)
        assert result.structure is DesignStructure.CORNER
        for value in result.design.weights.values():
            assert abs(value - 1.0 / m.p) <= 10 * 1e-7

    def test_seed_design_must_span(self):
        m = rd.InteractionModel(2, 1)
        seed = rd.Design(2, {0: 0.5, 1: 0.5})
        cfg = rd.OptimizerConfig(seed_design=seed)
        with pytest.raises(rd.SingularInformation):
            rd.optimize_design(rd.ParameterVector.zeros(m), m, cfg)

    def test_unconverged_run_flagged(self):
        m = rd.InteractionModel(2, 1)
        cfg = rd.OptimizerConfig(max_iterations=2)
        result = rd.optimize_design(rd.ParameterVector.symmetric(m, 0.45), m, cfg)
        assert not result.converged
        assert result.final_kw_max > m.p


class TestVertexExchange:
    """Exchange steps, the saturated snap and their bookkeeping."""

    ROOT = math.sqrt(2) - 1

    def test_corner_exactly_when_corner_is_certified(self):
        # near sqrt(2) - 1 the corner design passes the KW test while the
        # ascent still carries weight on (1,1); the snap closes that gap
        m = rd.InteractionModel(2, 1)
        corner = rd.corner_design(m)
        offsets = [sign * 10 ** (-j / 2) for j in range(4, 15) for sign in (-1, 1)]
        grid = [self.ROOT + h for h in offsets] + np.linspace(0.3, 0.5, 41).tolist()
        for lam in grid:
            theta = rd.ParameterVector.symmetric(m, lam)
            result = rd.optimize_design(theta, m)
            assert result.converged
            certified = rd.kw_certificate(corner, theta, m).optimal
            assert (result.structure is DesignStructure.CORNER) == certified, lam

    def test_fast_just_above_transition(self):
        m = rd.InteractionModel(2, 1)
        result = rd.optimize_design(rd.ParameterVector.symmetric(m, 0.4145), m)
        assert result.converged
        assert result.iterations <= 50
        assert result.structure is DesignStructure.INTERIOR

    def test_transition_iteration_budget(self, monkeypatch):
        iterations = []
        inner = optimizer.optimize_design

        def counting(*args, **kwargs):
            result = inner(*args, **kwargs)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(optimizer, "optimize_design", counting)
        m = rd.InteractionModel(2, 1)
        found = rd.find_transition(
            lambda lam: rd.ParameterVector.symmetric(m, lam), m,
            lambda r: r.structure is DesignStructure.CORNER,
            bracket=(0.3, 0.5), tol=1e-4,
        )
        assert found == 0.414208984375
        assert len(iterations) == 13
        assert sum(iterations) <= 500

    @pytest.mark.parametrize("lam,snapped", [
        pytest.param(ROOT - 1e-6, True, id="snapped-corner"),
        pytest.param(0.3, False, id="corner"),
        pytest.param(0.4145, False, id="interior"),
        pytest.param(0.8, False, id="far-interior"),
    ])
    def test_reported_values_match_design(self, lam, snapped):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector.symmetric(m, lam)
        result = rd.optimize_design(theta, m)
        # a snapped run reports its own design's values, not the trace's last
        assert (result.log_det != result.log_det_trace[-1]) == snapped
        sign, log_det = np.linalg.slogdet(rd.fisher_information(result.design, theta, m))
        assert sign == 1.0
        assert_allclose(result.log_det, log_det, rtol=1e-9)
        kw_max = float(np.max(rd.sensitivities(result.design, theta, m)))
        assert_allclose(result.final_kw_max, kw_max, rtol=1e-9)

    def test_interior_optimum_is_not_snapped(self):
        # the p heaviest settings of an interior optimum fail the KW test,
        # so the run keeps its converged iterate
        m = rd.InteractionModel(6, 2)
        result = rd.optimize_design(rd.ParameterVector.symmetric(m, 0.5, 0.9), m)
        assert result.converged
        assert result.structure is DesignStructure.INTERIOR
        assert result.support_size > m.p
        assert result.log_det == result.log_det_trace[-1]

    @pytest.mark.parametrize("k,d,seed", [(3, 1, 0), (4, 2, 1), (5, 3, 2)])
    def test_rank_two_update_matches_refactorization(self, k, d, seed):
        m = rd.InteractionModel(k, d)
        rng = np.random.default_rng(seed)
        vals = np.zeros(m.p)
        vals[1:] = rng.uniform(-1.5, 0.5, size=m.p - 1)
        theta = rd.ParameterVector(m, vals)
        w = rng.uniform(0.5, 1.5, size=1 << k)
        w /= w.sum()
        before = rd.Design(k, dict(enumerate(w)))
        d = rd.sensitivities(before, theta, m)
        low = np.linalg.cholesky(rd.fisher_information(before, theta, m))
        minv = np.linalg.inv(low @ low.T)
        step = optimizer._exchange(
            w, d, int(np.argmax(d)), minv, rd.intensities(theta, m),
            np.asarray(m.masks), -math.inf,
        )
        assert step is not None
        updated, log_phi, _ = step
        after = rd.Design(k, {x: v for x, v in enumerate(w) if v > 0})
        assert_allclose(updated, rd.sensitivities(after, theta, m), rtol=1e-9)
        gain = (np.linalg.slogdet(rd.fisher_information(after, theta, m))[1]
                - np.linalg.slogdet(rd.fisher_information(before, theta, m))[1])
        assert_allclose(log_phi, gain, rtol=1e-9)

    def test_emptying_exchange_is_recorded(self, monkeypatch):
        evaluations, emptied = [], []
        inner_sensitivities = optimizer._sensitivities
        inner_exchange = optimizer._exchange

        def counting_sensitivities(*args):
            evaluations.append(None)
            return inner_sensitivities(*args)

        def recording_exchange(w, *args):
            before = w > 0
            step = inner_exchange(w, *args)
            if step is not None and step[2]:
                assert np.count_nonzero(before & (w == 0)) == 1
                emptied.append(len(evaluations) - 1)
            return step

        monkeypatch.setattr(optimizer, "_sensitivities", counting_sensitivities)
        monkeypatch.setattr(optimizer, "_exchange", recording_exchange)
        m = rd.InteractionModel(3, 1)
        result = rd.optimize_design(rd.ParameterVector.symmetric(m, 0.4), m)
        assert result.converged
        assert emptied
        assert set(emptied) <= set(result.prune_iterations)
        assert segment_monotone(result.log_det_trace, result.prune_iterations)
        # an exchange raises log det, so its entries need no segment break
        deletions = set(result.prune_iterations) - set(emptied)
        assert segment_monotone(result.log_det_trace, deletions)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            rd.OptimizerConfig(kw_tolerance=0.0)
        with pytest.raises(ValueError):
            rd.OptimizerConfig(max_iterations=0)


class TestClassifyStructure:
    def test_corner(self):
        m = rd.InteractionModel(3, 2)
        assert rd.classify_structure(rd.corner_design(m), m) is DesignStructure.CORNER

    def test_uniform(self):
        m = rd.InteractionModel(3, 2)
        assert rd.classify_structure(rd.Design.uniform(3), m) is DesignStructure.UNIFORM

    def test_saturated_other(self):
        m = rd.InteractionModel(2, 1)
        w = rd.Design(2, {1: 1 / 3, 2: 1 / 3, 3: 1 / 3})
        assert rd.classify_structure(w, m) is DesignStructure.SATURATED_OTHER

    def test_interior(self):
        m = rd.InteractionModel(2, 1)
        w = rd.Design(2, {0: 0.4, 1: 0.2, 2: 0.2, 3: 0.2})
        assert rd.classify_structure(w, m) is DesignStructure.INTERIOR


class TestFindTransition:
    def test_saturation_point_two_rules(self):
        m = rd.InteractionModel(2, 1)
        found = rd.find_transition(
            lambda lam: rd.ParameterVector.symmetric(m, lam),
            m,
            lambda r: r.structure is DesignStructure.CORNER,
            bracket=(0.3, 0.5),
            tol=1e-3,
        )
        assert abs(found - (math.sqrt(2) - 1)) <= 5e-3

    def test_unconverged_runs_raise(self):
        m = rd.InteractionModel(2, 1)
        with pytest.raises(rd.NumericalCheckError, match=r"parameter 0\.5 .*max_iterations=2"):
            rd.find_transition(
                lambda lam: rd.ParameterVector.symmetric(m, lam),
                m,
                lambda r: r.structure is DesignStructure.CORNER,
                bracket=(0.3, 0.5),
                tol=1e-4,
                cfg=rd.OptimizerConfig(max_iterations=2),
            )

    def test_no_bracket(self):
        m = rd.InteractionModel(2, 1)
        with pytest.raises(rd.NoBracket):
            rd.find_transition(
                lambda lam: rd.ParameterVector.symmetric(m, lam),
                m,
                lambda r: r.structure is DesignStructure.CORNER,
                bracket=(0.1, 0.2),
                tol=1e-3,
            )

    def test_three_rules_certified_on_both_sides(self):
        m = rd.InteractionModel(3, 1)
        path = lambda lam: rd.ParameterVector.symmetric(m, lam)
        found = rd.find_transition(
            path, m,
            lambda r: r.structure is DesignStructure.CORNER,
            bracket=(0.2, 0.6), tol=1e-3,
        )
        corner = rd.corner_design(m)
        assert rd.kw_certificate(corner, path(found - 0.01), m).optimal
        assert not rd.kw_certificate(corner, path(found + 0.01), m).optimal


class TestCaratheodoryBound:
    def test_values(self):
        assert rd.caratheodory_bound(rd.InteractionModel(2, 1)) == 4
        assert rd.caratheodory_bound(rd.InteractionModel(3, 2)) == 22
        assert rd.caratheodory_bound(rd.InteractionModel(1, 1)) == 2

    def test_optimizer_reports_bound_state(self):
        # at k=3, d=1 the uniform optimum has 8 support points while the
        # bound is 7; the flag records this instead of failing the run
        m = rd.InteractionModel(3, 1)
        result = rd.optimize_design(rd.ParameterVector.zeros(m), m)
        assert result.support_size == 8
        assert rd.caratheodory_bound(m) == 7
        assert not result.caratheodory_ok
        m2 = rd.InteractionModel(3, 2)
        result2 = rd.optimize_design(rd.ParameterVector.zeros(m2), m2)
        assert result2.caratheodory_ok


class TestSymmetryInvariance:
    def test_optimal_log_det_invariant_under_group(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            k = int(rng.integers(2, 4))
            m = rd.InteractionModel(k, 1)
            vals = np.zeros(m.p)
            vals[1:] = rng.uniform(-1.5, 0.3, size=m.p - 1)
            theta = rd.ParameterVector(m, vals)
            perm = tuple(rng.permutation(np.arange(1, k + 1)).tolist())
            flips = tuple(int(i) for i in range(1, k + 1) if rng.random() < 0.5)
            g = rd.GroupElement(perm, flips)
            moved = rd.act_on_parameters(g, theta, m)
            a = rd.optimize_design(theta, m)
            b = rd.optimize_design(moved, m)
            assert abs(a.log_det - b.log_det) <= 1e-6

    def test_optimality_transported_by_group(self):
        rng = np.random.default_rng(56)
        for _ in range(8):
            k = int(rng.integers(2, 4))
            m = rd.InteractionModel(k, 1)
            vals = np.zeros(m.p)
            vals[1:] = rng.uniform(-2.0, 0.2, size=m.p - 1)
            theta = rd.ParameterVector(m, vals)
            perm = tuple(rng.permutation(np.arange(1, k + 1)).tolist())
            flips = tuple(int(i) for i in range(1, k + 1) if rng.random() < 0.5)
            g = rd.GroupElement(perm, flips)
            star = rd.optimize_design(theta, m).design
            verdict = rd.kw_certificate(star, theta, m)
            moved_verdict = rd.kw_certificate(
                rd.act_on_design(g, star), rd.act_on_parameters(g, theta, m), m
            )
            assert verdict.optimal == moved_verdict.optimal
