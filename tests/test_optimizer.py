"""Multiplicative ascent: fixed points, convergence, classification, transitions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

import raschdesign as rd
from raschdesign import DesignStructure, optimizer

from conftest import lattice_verdict


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
    #: the optimizer under test; ``TestOptimizeDesignOnLattice`` swaps it
    run = staticmethod(rd.optimize_design)

    @pytest.mark.parametrize("k,d", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 4)])
    def test_uniform_limit_at_zero_parameters(self, k, d):
        m = rd.InteractionModel(k, d)
        result = self.run(rd.ParameterVector.zeros(m), m)
        assert result.converged
        assert result.structure is DesignStructure.UNIFORM
        target = 1.0 / (1 << k)
        for x in m.settings():
            assert abs(result.design.weight(x) - target) <= 1e-6

    def test_corner_limit_below_transition(self):
        m = rd.InteractionModel(2, 1)
        result = self.run(rd.ParameterVector.symmetric(m, 0.3), m)
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
        result = self.run(theta, m)
        assert result.converged
        assert result.structure is DesignStructure.INTERIOR
        assert result.design.weight((1, 1)) > min_weight
        assert_allclose(result.final_kw_max, 3.0, rtol=1e-6)
        assert lattice_verdict(result.design, theta, m).optimal

    def test_non_finite_information_raises(self):
        m = rd.InteractionModel(2, 1)
        theta = rd.ParameterVector(m, [0.0, 800.0, 0.0])
        with pytest.raises(ValueError, match="infs or NaNs"):
            self.run(theta, m)

    def test_support_deletion_reaches_corner_quickly(self):
        # just below the saturation point the corner weights converge
        # slowly; deleting (1,1) by the Harman-Pronzato bound ends the run
        m = rd.InteractionModel(2, 1)
        result = self.run(rd.ParameterVector.symmetric(m, 0.41), m, max_iterations=100)
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
            result = self.run(theta, m)
            assert result.converged
            assert rd.kw_certificate(result.design, theta, m).optimal

    def test_log_det_trace_monotone_between_prunes(self):
        m = rd.InteractionModel(3, 1)
        rng = np.random.default_rng(5)
        for _ in range(5):
            vals = np.zeros(m.p)
            vals[1:] = rng.uniform(-2.0, 0.3, size=m.p - 1)
            result = self.run(rd.ParameterVector(m, vals), m)
            assert segment_monotone(result.log_det_trace, result.prune_iterations)

    def test_averaging_identity_enforced(self):
        # the optimizer raises if sum w_x d(x) drifts from p; a normal run
        # must complete without tripping the self-check
        m = rd.InteractionModel(4, 2)
        theta = rd.ParameterVector.symmetric(m, 0.45, 0.8)
        result = self.run(theta, m)
        assert result.final_kw_max >= m.p - 1e-9

    def test_saturated_weights_uniform(self):
        m = rd.InteractionModel(3, 1)
        theta = rd.ParameterVector.symmetric(m, 0.25)
        result = self.run(theta, m)
        assert result.structure is DesignStructure.CORNER
        for value in result.design.weights.values():
            assert abs(value - 1.0 / m.p) <= 10 * 1e-7

    def test_max_iterations_must_be_positive(self):
        m = rd.InteractionModel(2, 1)
        with pytest.raises(ValueError, match="max_iterations"):
            self.run(rd.ParameterVector.zeros(m), m, max_iterations=0)

    def test_unconverged_run_flagged(self):
        m = rd.InteractionModel(2, 1)
        result = self.run(rd.ParameterVector.symmetric(m, 0.45), m, max_iterations=2)
        assert not result.converged
        assert result.final_kw_max > m.p


class TestOptimizeDesignOnLattice(TestOptimizeDesign):
    """The same tests on the 2^k lattice, the path of every parameter that is
    not exchangeable: the zero and symmetric points above run on the orbits."""

    run = staticmethod(optimizer._optimize_on_lattice)


class TestVertexExchange:
    """Exchange steps, the saturated snap and their bookkeeping."""

    ROOT = math.sqrt(2) - 1
    #: the optimizer under test; ``TestVertexExchangeOnLattice`` swaps it
    run = staticmethod(rd.optimize_design)

    def test_corner_exactly_when_corner_is_certified(self):
        # near sqrt(2) - 1 the corner design passes the KW test while the
        # ascent still carries weight on (1,1); the snap closes that gap
        m = rd.InteractionModel(2, 1)
        corner = rd.corner_design(m)
        offsets = [sign * 10 ** (-j / 2) for j in range(4, 15) for sign in (-1, 1)]
        grid = [self.ROOT + h for h in offsets] + np.linspace(0.3, 0.5, 41).tolist()
        for lam in grid:
            theta = rd.ParameterVector.symmetric(m, lam)
            result = self.run(theta, m)
            assert result.converged
            certified = lattice_verdict(corner, theta, m).optimal
            assert (result.structure is DesignStructure.CORNER) == certified, lam

    def test_fast_just_above_transition(self):
        m = rd.InteractionModel(2, 1)
        result = self.run(rd.ParameterVector.symmetric(m, 0.4145), m)
        assert result.converged
        assert result.iterations <= 50
        assert result.structure is DesignStructure.INTERIOR

    def test_transition_iteration_budget(self, monkeypatch):
        iterations = []
        inner = self.run

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
        # the snapped flags are the lattice's; the orbit path is checked in
        # TestOrbitPath::test_agrees_with_the_lattice
        result = optimizer._optimize_on_lattice(theta, m)
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
        result = self.run(rd.ParameterVector.symmetric(m, 0.5, 0.9), m)
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
            optimizer._Lattice(theta, m), w, d, int(np.argmax(d)), minv, -math.inf,
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

        def recording_exchange(kernel, w, *args):
            before = w > 0
            step = inner_exchange(kernel, w, *args)
            if step is not None and step[2]:
                assert np.count_nonzero(before & (w == 0)) == 1
                emptied.append(len(evaluations) - 1)
            return step

        monkeypatch.setattr(optimizer, "_sensitivities", counting_sensitivities)
        monkeypatch.setattr(optimizer, "_exchange", recording_exchange)
        m = rd.InteractionModel(3, 1)
        # a symmetric point would take the orbit path: pin the lattice
        result = optimizer._optimize_on_lattice(rd.ParameterVector.symmetric(m, 0.4), m)
        assert result.converged
        assert emptied
        assert set(emptied) <= set(result.prune_iterations)
        assert segment_monotone(result.log_det_trace, result.prune_iterations)
        # an exchange raises log det, so its entries need no segment break
        deletions = set(result.prune_iterations) - set(emptied)
        assert segment_monotone(result.log_det_trace, deletions)


class TestVertexExchangeOnLattice(TestVertexExchange):
    """The same tests on the 2^k lattice, so its iteration budgets near the
    transition and its snap rules stay bounded."""

    run = staticmethod(optimizer._optimize_on_lattice)


def exchange_gain(alpha, s, t, mu):
    """f(alpha) = sum_r mu_r log(1 + alpha s_r - alpha^2 t_r), -inf where some
    factor is not positive."""
    step = alpha * (s - alpha * t)
    return float(mu @ np.log1p(step)) if (step > -1.0).all() else -math.inf


class TestStepLength:
    """The exchange's line search, on blocks drawn at random."""

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-6, 10.0), st.floats(0.0, 100.0), st.floats(1e-3, 1.0))
    def test_one_block_is_the_closed_form(self, s, t, w_a):
        alpha, gain = optimizer._step_length(np.array([s]), np.array([t]), np.ones(1), w_a)
        assert alpha == (w_a if t == 0.0 else min(s / (2.0 * t), w_a))
        assert gain == math.log1p(alpha * (s - alpha * t))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_no_grid_point_beats_the_step(self, data):
        blocks = data.draw(st.integers(1, 5), label="blocks")
        s = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=blocks,
                                        max_size=blocks), label="s"))
        t = np.array(data.draw(st.lists(st.floats(0.0, 4.0), min_size=blocks,
                                        max_size=blocks), label="t"))
        mu = np.array(data.draw(st.lists(st.integers(1, 50), min_size=blocks,
                                         max_size=blocks), label="mu"), dtype=float)
        w_a = data.draw(st.floats(1e-3, 1.0), label="w_a")
        slope = float(mu @ s)
        assume(slope > 1e-6)
        alpha, best = optimizer._step_length(s, t, mu, w_a)
        assert 0.0 < alpha <= w_a
        assert best == pytest.approx(exchange_gain(alpha, s, t, mu), rel=1e-12, abs=1e-15)
        n = float(mu.sum())
        for point in np.linspace(0.0, w_a, 2001)[1:]:
            value = exchange_gain(point, s, t, mu)
            assert best >= value - 1e-12 * max(1.0, abs(value))
            # the screen of _exchange bounds every step it lets through
            bound = n * math.log1p(point * slope / n)
            assert value <= bound + 1e-12 * max(1.0, abs(bound))


def exchangeable(m, b):
    """The parameter with beta_A = b[|A|]."""
    return rd.ParameterVector(m, np.asarray(b, dtype=float)[list(m.cards)])


def orbit_points():
    """Seeded exchangeable points with k <= 7, the benchmark's design rungs and
    the k = 2 grid around sqrt(2) - 1 of TestVertexExchange."""
    rng = np.random.default_rng(25)
    for _ in range(16):
        k = int(rng.integers(1, 8))
        d = int(rng.integers(1, k + 1))
        b = rng.uniform(-2.0, 0.5, size=d + 1)
        b[0] = rng.uniform(-3.0, 3.0)
        yield pytest.param(k, d, tuple(b), id=f"seeded-{k}-{d}")
    for k, d, s, t in [(2, 1, 0.41, None), (6, 2, 0.5, 0.9), (10, 2, 0.5, 0.9),
                       (10, 3, 0.35, 0.7), (12, 3, 0.3, 0.6)]:
        b = (0.0, math.log(s)) + (() if t is None else (math.log(t),)) + (0.0,) * (d - 2)
        yield pytest.param(k, d, b, id=f"rung-{k}-{d}")
    root = math.sqrt(2) - 1
    offsets = [sign * 10 ** (-j / 2) for j in range(4, 15) for sign in (-1, 1)]
    for lam in [root + h for h in offsets] + np.linspace(0.3, 0.5, 41).tolist():
        yield pytest.param(2, 1, (0.0, math.log(lam)), id=f"root-{lam!r}")


class TestOrbitPath:
    """Exchangeable parameters run on the k + 1 orbit weights."""

    @pytest.mark.parametrize("k,d", [(k, d) for k in range(1, 8) for d in range(1, k + 1)])
    def test_kernel_matches_the_lattice(self, k, d):
        from raschdesign._lattice import masks_of_size
        from raschdesign._orbits import Orbits
        from raschdesign.model import _cholesky, _information, _sensitivities

        m = rd.InteractionModel(k, d)
        rng = np.random.default_rng(10 * k + d)
        sizes = np.array([bin(x).count("1") for x in range(1 << k)])
        for _ in range(3):
            # weaker interactions of higher order keep M well enough
            # conditioned for the lattice's log det to serve as the oracle
            b = rng.uniform(-1.5, 0.5, size=d + 1) / np.maximum(1, np.arange(d + 1))
            theta = exchangeable(m, b)
            omega = rng.uniform(0.1, 1.0, size=k + 1)
            omega /= omega.sum()
            log_det, d_orbit, _ = Orbits(theta, m).evaluate(omega)

            w = np.zeros(1 << k)
            for c in range(k + 1):
                w[list(masks_of_size(k, c))] = omega[c] / math.comb(k, c)
            lam = rd.intensities(theta.with_base_zero(), m)
            low = _cholesky(_information(w * lam, m))
            assert_allclose(log_det, 2.0 * np.log(np.diag(low)).sum(), rtol=1e-12)
            assert_allclose(d_orbit[sizes], _sensitivities(low, lam, m)[1], rtol=1e-10)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_blocks_are_schrijvers(self, k):
        # Phi_r(G_c) from the sum over t and u, in exact integers, is h h^T C(k,c)
        from raschdesign._orbits import orbit_blocks

        h, mu, _ = orbit_blocks(k, k)
        # the blocks, each mu_r times, fill all 2^k parameters of the (k,k) model
        assert sum(mu[r] * (k - 2 * r + 1) for r in range(k // 2 + 1)) == 2 ** k
        for r in range(k // 2 + 1):
            rows = range(r, k - r + 1)
            n = k - 2 * r
            for a, i in enumerate(rows):
                for b, l in enumerate(rows):
                    beta = [sum((-1) ** (u - t) * math.comb(u, t) * math.comb(n, u - r)
                                * math.comb(k - r - u, i - u) * math.comb(k - r - u, l - u)
                                for u in range(max(r, t), min(i, l) + 1))
                            for t in range(min(i, l) + 1)]
                    norm = math.sqrt(math.comb(n, i - r) * math.comb(n, l - r))
                    for c in range(k + 1):
                        phi = sum(b_t * rd.choose(k - (i + l - t), c - (i + l - t))
                                  for t, b_t in enumerate(beta)) / norm
                        assert_allclose(h[r, c, a] * h[r, c, b] * math.comb(k, c), phi,
                                        rtol=1e-13, atol=1e-13 * math.comb(k, c))

    @pytest.mark.parametrize("k,d,b", orbit_points())
    def test_agrees_with_the_lattice(self, k, d, b):
        m = rd.InteractionModel(k, d)
        theta = exchangeable(m, b)
        orbit = rd.optimize_design(theta, m)
        lattice = optimizer._optimize_on_lattice(theta, m)
        assert (orbit.structure, orbit.converged) == (lattice.structure, lattice.converged)
        assert orbit.converged
        # log det M(w) lies within max d - p of the optimum, up to rounding
        gap = max(orbit.final_kw_max, lattice.final_kw_max) - m.p
        assert abs(orbit.log_det - lattice.log_det) <= max(gap, 0.0) + 1e-12 * max(
            1.0, abs(lattice.log_det))
        assert lattice_verdict(orbit.design, theta, m).optimal
        if orbit.structure is DesignStructure.CORNER:
            # the lattice's weights carry rounding; the orbit's are 1/p exactly
            corner = rd.corner_design(m).weights
            assert orbit.design.weights == corner
            assert lattice.design.weights.keys() == corner.keys()
            assert_allclose(list(lattice.design.weights.values()),
                            list(corner.values()), rtol=1e-12)
        # the reported values are the returned design's
        sign, log_det = np.linalg.slogdet(rd.fisher_information(orbit.design, theta, m))
        assert sign == 1.0
        assert_allclose(orbit.log_det, log_det, rtol=1e-9)
        kw_max = float(np.max(rd.sensitivities(orbit.design, theta, m)))
        assert_allclose(orbit.final_kw_max, kw_max, rtol=1e-9)

    def test_exchangeable_property(self):
        m = rd.InteractionModel(6, 2)
        theta = rd.ParameterVector.symmetric(m, 0.5, 0.9)
        assert theta.exchangeable
        for base in (-700.0, 3.7):
            vals = theta.values.copy()
            vals[0] = base
            assert rd.ParameterVector(m, vals).exchangeable
        for k in (1, 2, 3):
            assert exchangeable(rd.InteractionModel(k, k), np.arange(k + 1.0)).exchangeable
        vals = theta.values.copy()
        vals[3] = np.nextafter(vals[3], 0.0)  # one ulp on beta_3
        off = rd.ParameterVector(m, vals)
        assert not off.exchangeable

        # the lattice path, bit for bit; the orbit path needs fewer iterations
        result = rd.optimize_design(off, m)
        lattice = optimizer._optimize_on_lattice(off, m)
        assert result.design.weights == lattice.design.weights
        assert result.iterations == lattice.iterations
        assert np.array_equal(result.log_det_trace, lattice.log_det_trace)
        assert rd.optimize_design(theta, m).iterations < lattice.iterations

    @pytest.mark.parametrize("k", [10, 12])
    def test_large_intensities_never_pass_silently(self, k):
        # s = 5, t = 3: M is so ill conditioned that sum w d = p fails
        m = rd.InteractionModel(k, 2)
        theta = rd.ParameterVector.symmetric(m, 5.0, 3.0)
        try:
            result = rd.optimize_design(theta, m)
        except rd.NumericalCheckError:
            return
        # on the lattice: the orbit path would read the optimizer's own kernel
        assert lattice_verdict(result.design, theta, m).optimal

    @pytest.mark.parametrize("b,error", [
        pytest.param((0.0, 500.0), ValueError, id="overflow"),
        pytest.param((0.0, -800.0), rd.SingularInformation, id="underflow"),
    ])
    def test_errors_are_the_lattice_errors(self, b, error):
        m = rd.InteractionModel(3, 1)
        theta = exchangeable(m, b)
        with pytest.raises(error) as orbit:
            rd.optimize_design(theta, m)
        with pytest.raises(error) as lattice:
            optimizer._optimize_on_lattice(theta, m)
        assert str(orbit.value) == str(lattice.value)

    def test_no_lattice_array(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the orbit path built a lattice array")

        for name in ("_information", "_sensitivities", "intensities"):
            monkeypatch.setattr(optimizer, name, refuse)
        m = rd.InteractionModel(12, 3)
        theta = rd.ParameterVector.symmetric(m, 0.3, 0.6)
        result = rd.optimize_design(theta, m)
        assert result.converged and result.structure is DesignStructure.CORNER

    def test_other_parameters_do_not_import_the_orbits(self, fresh_python):
        code = (
            "import sys; import raschdesign as rd; "
            "m = rd.InteractionModel(3, 1); "
            "rd.optimize_design(rd.ParameterVector(m, [0, -1, -2, -3]), m); "
            "assert 'raschdesign._orbits' not in sys.modules; "
            "rd.optimize_design(rd.ParameterVector.symmetric(m, 0.5), m); "
            "assert 'raschdesign._orbits' in sys.modules"
        )
        out = fresh_python("-c", code)
        assert out.returncode == 0, out.stderr


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
                max_iterations=2,
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
        assert lattice_verdict(corner, path(found - 0.01), m).optimal
        assert not lattice_verdict(corner, path(found + 0.01), m).optimal


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


def verdict_fields(verdict):
    """Everything a verdict reports; verdicts themselves compare by identity."""
    return (verdict.optimal, verdict.max_directional_value, verdict.bound,
            verdict.worst_setting, verdict.violated_labels, verdict.boundary)


class TestBaseParameterIsAScale:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_shifting_the_base_moves_only_log_det(self, data):
        k = data.draw(st.integers(min_value=1, max_value=6), label="k")
        d = data.draw(st.integers(min_value=1, max_value=min(k, 3)), label="d")
        m = rd.InteractionModel(k, d)
        beta = np.array(data.draw(st.lists(
            st.floats(min_value=-3.0, max_value=1.0), min_size=m.p, max_size=m.p,
        ), label="beta"))
        shift = data.draw(st.floats(min_value=-720.0, max_value=720.0), label="shift")
        moved = beta.copy()
        moved[0] += shift
        theta, theta_moved = rd.ParameterVector(m, beta), rd.ParameterVector(m, moved)

        # a small budget: both runs stop at the same iterate, converged or not
        a = rd.optimize_design(theta, m, max_iterations=2000)
        b = rd.optimize_design(theta_moved, m, max_iterations=2000)
        assert a.design.weights == b.design.weights
        assert (a.iterations, a.converged, a.structure) == (b.iterations, b.converged,
                                                            b.structure)
        assert a.final_kw_max == b.final_kw_max
        scale = m.p * (moved[0] - beta[0])
        assert_allclose(b.log_det, a.log_det + scale, rtol=1e-9)
        assert_allclose(b.log_det_trace, a.log_det_trace + scale, rtol=1e-9)

        corner = rd.corner_design(m)
        assert verdict_fields(rd.is_corner_optimal_by_theorem(theta, m)) == verdict_fields(
            rd.is_corner_optimal_by_theorem(theta_moved, m))
        assert verdict_fields(rd.kw_certificate(corner, theta, m)) == verdict_fields(
            rd.kw_certificate(corner, theta_moved, m))
        assert np.array_equal(rd.corner_lhs(theta, m), rd.corner_lhs(theta_moved, m))
