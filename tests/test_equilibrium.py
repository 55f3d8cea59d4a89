import collections
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import infomarkets.equilibrium as equilibrium_module
import infomarkets.pm_baseline as pm_baseline_module
from infomarkets import (AccessFunction, InformationModel, LatencyFamily,
                         ScoreSequence, ScoringRule, TimeValue,
                         batch_equilibrium, batch_welfare, mvp_agent_reward,
                         mvp_br_derivative, mvp_equilibrium,
                         mvp_principal_utility, mvp_welfare,
                         pm_batch_equilibrium, pm_batch_utility,
                         pm_batch_welfare, pm_race_equilibrium, v_sequence)
from infomarkets.equilibrium import TAIL_MASS
from infomarkets.errors import NumericalError
from infomarkets.numerics import FOC_TOL, QUAD_TOL, solve_decreasing_foc
from helpers import welfare_foc_root

H1 = TimeValue.exponential(1.0)
LAT1 = LatencyFamily.exponential(1.0)


def seq(*values):
    return ScoreSequence(np.array(values, dtype=float))


class TestLatencyFamily:
    def test_cdf_shape(self):
        lat = LatencyFamily.exponential(2.0)
        assert lat.cdf(0.5, 1.0) == pytest.approx(1 - math.exp(-1.0))
        assert lat.cdf(0.0, 5.0) == 0.0  # zero effort never obtains

    def test_effort_sensitivity(self):
        lat = LatencyFamily.exponential(2.0)
        assert lat.dcdf_dc(0.5, 1.0) == pytest.approx(2 * math.exp(-1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyFamily.exponential(-1.0)


class TestBatchEquilibrium:
    def test_linear_matches_winner_race_optimum(self):
        eq = batch_equilibrium(AccessFunction.linear(3.0), seq(0, 1, 1), 2)
        assert eq.effort == pytest.approx(2 / 9, abs=1e-10)

    def test_exponential_matches_winner_race_optimum(self):
        eq = batch_equilibrium(AccessFunction.exponential(3.0), seq(0, 1, 1), 2)
        assert eq.effort == pytest.approx(math.log(3) / 6, abs=1e-10)

    def test_worthless_information_means_no_effort(self):
        eq = batch_equilibrium(AccessFunction.exponential(3.0), seq(0, 0, 0), 2)
        assert eq.corner and eq.effort == 0.0

    def test_welfare_maximality(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            lam = float(rng.uniform(1.3, 6.0))
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
            F = AccessFunction.exponential(lam)
            eq = batch_equilibrium(F, v, n)
            best = batch_welfare(F, v, n, eq.effort)
            for delta in (1e-3, 1e-2):
                assert best >= batch_welfare(F, v, n, eq.effort + delta) - 1e-12
                if eq.effort - delta >= 0:
                    assert best >= batch_welfare(F, v, n, eq.effort - delta) - 1e-12

    def test_requires_long_enough_sequence(self):
        with pytest.raises(ValueError):
            batch_equilibrium(AccessFunction.exponential(2.0), seq(0, 1), 2)

    def test_two_thousand_agents_stay_finite_and_certified(self):
        n = 2000
        v = ScoreSequence(10 * (1 - 0.9 ** np.arange(n + 1)))
        for F in (AccessFunction.exponential(3.0), AccessFunction.linear(3.0)):
            eq = batch_equilibrium(F, v, n)
            assert not eq.corner and abs(eq.residual) <= FOC_TOL
            assert 0 < eq.effort < 0.01
            assert np.isfinite(batch_welfare(F, v, n, eq.effort))


class TestBatchWelfare:
    def test_reference_value(self):
        assert batch_welfare(AccessFunction.linear(3.0), seq(0, 1, 1), 2,
                             2 / 9) == pytest.approx(4 / 9, abs=1e-12)

    def test_zero_effort(self):
        assert batch_welfare(AccessFunction.exponential(2.0), seq(0, 1, 1), 2, 0.0) == 0.0

    def test_certain_discovery(self):
        # linear access at the cap: discovery certain, welfare 1 - n c
        F = AccessFunction.linear(2.0)
        assert batch_welfare(F, seq(0, 1, 1), 2, 0.5) == pytest.approx(0.0, abs=1e-12)


class TestBrDerivative:
    def test_reference_residuals(self):
        # plotted equilibrium points must zero the derivative
        for lam, c in ((1.0, 0.290773), (2.0, 0.364519), (15.0, 0.229687)):
            d = mvp_br_derivative(LatencyFamily.exponential(lam), H1,
                                  seq(0, 2, 3), 2, c, c)
            assert abs(d) < 1e-5

    def test_substitutability_residual(self):
        d = mvp_br_derivative(LAT1, H1, seq(0, 2, 2), 2, 0.207107, 0.207107)
        assert abs(d) < 1e-5

    def test_zero_value_gives_minus_one(self):
        assert mvp_br_derivative(LAT1, H1, seq(0, 0, 0), 2, 0.0, 0.0) == -1.0

    def test_two_agent_closed_form(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            lam, eta = rng.uniform(0.5, 6.0), rng.uniform(0.4, 2.5)
            v1 = float(rng.uniform(0.3, 3.0))
            v2 = float(rng.uniform(v1, 2 * v1))
            c_i, c = rng.uniform(0.01, 1.0, size=2)
            got = mvp_br_derivative(LatencyFamily.exponential(lam),
                                    TimeValue.exponential(eta),
                                    seq(0, v1, v2), 2, c_i, c)
            # hand-expanded n=2 form: the rival has either reported or not
            hand = lam * eta * (v1 / (eta + lam * c_i + lam * c) ** 2
                                + (v2 - v1) * (1 / (eta + lam * c_i) ** 2
                                               - 1 / (eta + lam * c_i + lam * c) ** 2)) - 1
            assert got == pytest.approx(hand, abs=1e-12)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            lam, eta = rng.uniform(0.5, 8.0), rng.uniform(0.4, 2.5)
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.1, 1.5, size=n))]))
            c_i, c = rng.uniform(0.02, 1.2, size=2)
            latency = LatencyFamily.exponential(lam)
            h = TimeValue.exponential(eta)
            closed = mvp_br_derivative(latency, h, v, n, c_i, c, method="closed")
            quadr = mvp_br_derivative(latency, h, v, n, c_i, c, method="quadrature")
            assert closed == pytest.approx(quadr, abs=1e-8)


class TestMvpEquilibrium:
    def test_ease_reference_points(self):
        v = seq(0, 2, 3)
        for lam, target in ((1.0, 0.290773), (2.0, 0.364519), (15.0, 0.229687)):
            eq = mvp_equilibrium(LatencyFamily.exponential(lam), H1, v, 2)
            assert eq.effort == pytest.approx(target, abs=1e-4)
            assert abs(eq.residual) <= 1e-10

    def test_noise_reference_points(self):
        v = seq(0, 2.179734219269105, 3.1601922661122694)  # scale-20, beta=.05
        eq = mvp_equilibrium(LAT1, H1, v, 2)
        assert eq.effort == pytest.approx(0.324463, abs=1e-4)
        eq_slow = mvp_equilibrium(LatencyFamily.exponential(0.5), H1, v, 2)
        assert eq_slow.effort == pytest.approx(0.0570997, abs=1e-4)

    def test_saturated_value_closed_form(self):
        eq = mvp_equilibrium(LatencyFamily.exponential(0.5), H1,
                             seq(0, 3.6, 3.6), 2)
        assert eq.effort == pytest.approx(math.sqrt(1.8) - 1, abs=1e-10)

    def test_wide_markets_match_quadrature(self):
        lat2 = LatencyFamily.exponential(2.0)
        for n in (48, 64):
            v = ScoreSequence(np.arange(n + 1) / n)
            eq = mvp_equilibrium(lat2, H1, v, n)
            assert eq.corner and eq.effort == 0.0 and -1.0 <= eq.residual <= 0.0
            quadr = mvp_br_derivative(lat2, H1, v, n, 1e-12, 1e-12,
                                      method="quadrature")
            assert eq.residual == pytest.approx(quadr, abs=1e-8)

    def test_corner_when_decay_beats_value(self):
        eq = mvp_equilibrium(LatencyFamily.exponential(0.4), H1, seq(0, 2, 3), 2)
        assert eq.corner and eq.effort == 0.0

    def test_substitutability_is_not_monotone_for_easy_signals(self):
        """With quick discovery, concentrating value in the first report
        lowers equilibrium effort."""
        lat8 = LatencyFamily.exponential(8.0)
        grid = np.linspace(1.0, 2.0, 11)
        efforts = [mvp_equilibrium(lat8, H1, seq(0, v1, 2.0), 2).effort
                   for v1 in grid]
        assert efforts[0] == pytest.approx(0.228553, abs=1e-4)
        assert efforts[-1] == pytest.approx(0.1875, abs=1e-4)
        assert np.all(np.diff(efforts) < 0)


class TestMvpWelfare:
    def test_zero_effort(self):
        assert mvp_welfare(LAT1, H1, seq(0, 1, 1), 2, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_single_agent_closed_form(self):
        for c in (0.1, 0.7, 2.0):
            assert mvp_welfare(LAT1, H1, seq(0, 1), 1, c) == pytest.approx(
                c / (1 + c) - c, abs=1e-12)

    def test_closed_form_matches_quadrature(self):
        v = seq(0, 1, 1)
        for c in (0.1, 0.5, 1.0):
            closed = mvp_welfare(LAT1, H1, v, 2, c, method="closed")
            quadr = mvp_welfare(LAT1, H1, v, 2, c, method="quadrature")
            assert closed == pytest.approx(quadr, abs=1e-8)

    def test_equilibrium_maximizes_welfare(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            lam, eta = rng.uniform(0.8, 6.0), rng.uniform(0.5, 2.0)
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
            latency = LatencyFamily.exponential(lam)
            h = TimeValue.exponential(eta)
            eq = mvp_equilibrium(latency, h, v, n)
            best = mvp_welfare(latency, h, v, n, eq.effort)
            for delta in (1e-3, 1e-2):
                assert best >= mvp_welfare(latency, h, v, n, eq.effort + delta) - 1e-12
                if eq.effort - delta >= 0:
                    assert best >= mvp_welfare(latency, h, v, n,
                                               eq.effort - delta) - 1e-12


class TestPrincipalUtility:
    def test_zero_effort(self):
        assert mvp_principal_utility(LAT1, H1, seq(0, 1, 1), 2, 0.0) == pytest.approx(
            0.0, abs=1e-14)

    def test_accounting_identity(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            lam, eta = rng.uniform(0.8, 6.0), rng.uniform(0.5, 2.0)
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
            c = float(rng.uniform(0.05, 1.0))
            latency = LatencyFamily.exponential(lam)
            h = TimeValue.exponential(eta)
            w = mvp_welfare(latency, h, v, n, c)
            u = mvp_principal_utility(latency, h, v, n, c)
            r = mvp_agent_reward(latency, h, v, n, c)
            assert u + n * (r - c) == pytest.approx(w, abs=1e-8)

    def test_beats_the_race_on_welfare_when_signals_are_easy(self):
        lat = LatencyFamily.exponential(4.0)
        v = seq(0, 1, 1)
        eq = mvp_equilibrium(lat, H1, v, 2)
        assert mvp_principal_utility(lat, H1, v, 2, eq.effort) > 0
        race = pm_race_equilibrium(v, 2)
        assert (mvp_welfare(lat, H1, v, 2, eq.effort)
                > mvp_welfare(lat, H1, v, 2, race.effort))

    def test_agent_reward_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            lam, eta = rng.uniform(0.5, 8.0), rng.uniform(0.4, 2.5)
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.1, 1.5, size=n))]))
            c = float(rng.uniform(0.02, 1.2))
            latency = LatencyFamily.exponential(lam)
            h = TimeValue.exponential(eta)
            closed = mvp_agent_reward(latency, h, v, n, c, method="closed")
            quadr = mvp_agent_reward(latency, h, v, n, c, method="quadrature")
            assert closed == pytest.approx(quadr, abs=1e-8)


class TestFocCoincidence:
    """The selfish best response lands exactly on the welfare optimum."""

    def test_batch(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            lam = float(rng.uniform(1.3, 6.0))
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
            F = AccessFunction.exponential(lam)
            br = batch_equilibrium(F, v, n).effort
            sw = welfare_foc_root(lambda c: batch_welfare(F, v, n, c))
            assert br == pytest.approx(sw, abs=1e-8)

    def test_sequential(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            lam, eta = rng.uniform(0.8, 6.0), rng.uniform(0.5, 2.0)
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
            latency = LatencyFamily.exponential(lam)
            h = TimeValue.exponential(eta)
            br = mvp_equilibrium(latency, h, v, n).effort
            sw = welfare_foc_root(lambda c: mvp_welfare(latency, h, v, n, c))
            assert br == pytest.approx(sw, abs=1e-8)

    def test_sequential_small_effort(self):
        """Fast signals against a slowly fading value: the root sits near
        3.8e-5, where the oracle's relative step still resolves it."""
        v = v_sequence(InformationModel.binary_noisy(0.1, 0.05), ScoringRule("quadratic", 20.0), 64)
        latency, h = LatencyFamily.exponential(1e3), TimeValue.exponential(1e-3)
        br = mvp_equilibrium(latency, h, v, 64).effort
        sw = welfare_foc_root(lambda c: mvp_welfare(latency, h, v, 64, c))
        assert 3e-5 < br < 5e-5
        assert br == pytest.approx(sw, rel=1e-7)


def batch_foc(F, v, n):
    """The batch FOC with every term rebuilt and every effort checked per call."""
    def foc(c):
        terms = equilibrium_module._binomial_terms(n - 1)
        pmf = equilibrium_module._binomial_pmf(terms, F.value(c))
        return F.derivative(c) * float(pmf @ v.deltas[:n]) - 1.0
    return foc


def pm_batch_foc(F, n):
    """The winner-race FOC, each effort checked per call."""
    return lambda c: F.derivative(c) * pm_baseline_module._tie_sharing_factor(F.value(c), n) - 1.0


def solved(solve):
    """Every bit of a solve's result, or its error."""
    try:
        eq = solve()
    except NumericalError as exc:
        return f"NumericalError: {exc}"
    return eq.effort.hex(), eq.residual.hex(), eq.corner, eq.bracket, eq.evaluations


class TestPerSolveKernels:
    """Each solver's FOC, built once per solve, gives the bits of solving the
    public per-step FOC, which checks its inputs and rebuilds its fixed
    terms at every effort."""

    def test_solvers_match_the_per_step_focs(self):
        rng = np.random.default_rng(29)
        seen = collections.Counter()
        for n in rng.permutation(np.round(np.geomspace(2, 64, 30)).astype(int)):
            n = int(n)
            lam, eta = rng.uniform(0.5, 8.0), rng.uniform(0.4, 2.5)
            access = rng.uniform(1.5, 8.0)
            alpha, beta = rng.uniform(0.05, 0.5), rng.uniform(0.01, 0.4)
            # small scales put the mvp and batch equilibria at the corner 0
            rule = ScoringRule("quadratic", 10 ** rng.uniform(-1.0, 1.5))
            v = v_sequence(InformationModel.binary_noisy(alpha, beta), rule, n)
            latency, h = LatencyFamily.exponential(lam), TimeValue.exponential(eta)
            cases = [("mvp", lambda: mvp_equilibrium(latency, h, v, n),
                      lambda: solve_decreasing_foc(
                          lambda c: mvp_br_derivative(latency, h, v, n, c, c)))]
            for F in (AccessFunction.exponential(access), AccessFunction.linear(access)):
                cases += [
                    (f"batch {F.kind}", lambda F=F: batch_equilibrium(F, v, n),
                     lambda F=F: solve_decreasing_foc(batch_foc(F, v, n), F.domain_max)),
                    (f"pm_batch {F.kind}", lambda F=F: pm_batch_equilibrium(F, n),
                     lambda F=F: solve_decreasing_foc(pm_batch_foc(F, n), F.domain_max))]
            for name, kernel, reference in cases:
                ours = solved(kernel)
                assert ours == solved(reference), (name, n)
                if isinstance(ours, str):
                    seen[name, "error"] += 1
                else:
                    effort, _, corner, _, _ = ours
                    seen[name, "interior" if not corner else
                         "corner at 0" if effort == (0.0).hex() else "corner at cap"] += 1
        for name in ("mvp", "batch exponential", "batch linear"):
            assert seen[name, "interior"] and seen[name, "corner at 0"], seen
        for kind in ("exponential", "linear"):
            assert seen[f"pm_batch {kind}", "interior"], seen
        assert seen["pm_batch linear", "corner at cap"], seen


class TestTableTimeValue:
    def test_deadline_tends_to_the_batch_equilibrium(self):
        """A triangle of mass 1 on [1 - w, 1 + w] is a deadline at 1: as w -> 0
        the sequential equilibrium tends to the batch one with access 1 - e^(-lam c)."""
        v, n, lam = seq(0, 2, 3, 3.5), 3, 1.5
        batch = batch_equilibrium(AccessFunction.exponential(lam), v, n).effort
        gaps = []
        for w in (1e-2, 1e-3, 1e-4):
            h = TimeValue.table([1 - w, 1, 1 + w], [0.0, 1 / w, 0.0])
            result = mvp_equilibrium(LatencyFamily.exponential(lam), h, v, n)
            assert not result.corner and abs(result.residual) <= FOC_TOL
            gaps.append(abs(result.effort - batch) / batch)
        assert gaps[0] > 10 * gaps[1] > 100 * gaps[2]
        assert gaps[2] <= 1e-8

    def test_table_with_many_knots_solves(self):
        """400 knots of e^(-t): close to the exponential equilibrium (the chord
        overshoots a convex density by at most 0.1^2 / 8 relative)."""
        times = np.linspace(0.0, 40.0, 400)
        v = seq(0, 2, 3, 3.5)
        result = mvp_equilibrium(LAT1, TimeValue.table(times, np.exp(-times)), v, 3)
        exact = mvp_equilibrium(LAT1, H1, v, 3).effort
        assert not result.corner and abs(result.residual) <= FOC_TOL
        assert result.effort == pytest.approx(exact, rel=2e-3)


def adaptive_mixture(latency, h, c, weights, factor, cuts=()) -> float:
    """Oracle for the quadrature route: scipy's adaptive ``quad`` on each
    segment a table h is linear on (split further at ``cuts``), one Python
    integrand call per point."""
    terms = equilibrium_module._binomial_terms(weights.size - 1)

    def integrand(t):
        pmf = equilibrium_module._binomial_pmf(terms, latency.cdf(c, t))
        return factor(t) * float(pmf @ weights) * h.density(t)

    edges = np.union1d(h.times, [t for t in cuts if h.times[0] < t < h.times[-1]])
    # a relative floor of 1e-13: the FOC integral reaches about 1000 here
    return sum(quad(integrand, t0, t1, epsabs=QUAD_TOL / len(edges), epsrel=1e-13,
                    limit=300)[0] for t0, t1 in zip(edges, edges[1:]))


def route_and_oracle(latency, h, v, n, c_i, c, cuts=()):
    """(quadrature route, adaptive oracle) for each of the three evaluators."""
    deltas, values = v.deltas[:n], v.values[:n + 1]
    return [
        (mvp_br_derivative(latency, h, v, n, c_i, c),
         adaptive_mixture(latency, h, c, deltas, lambda t: latency.dcdf_dc(c_i, t),
                          cuts) - 1.0),
        (mvp_welfare(latency, h, v, n, c),
         adaptive_mixture(latency, h, c, values, lambda t: 1.0, cuts) - n * c),
        (mvp_agent_reward(latency, h, v, n, c),
         adaptive_mixture(latency, h, c, deltas, lambda t: latency.cdf(c, t), cuts)),
    ]


def latency_edges(latency, c):
    """Where F_c(t) = 2^-j and where 1 - F_c(t) = 2^-j, j = 1..48."""
    halvings = 0.5 ** np.arange(1, 49)
    return -np.log(np.concatenate([halvings, 1.0 - halvings])) / (latency.lam * c)


def halving(n):
    """v_k = 1 - 2^-k: increments halve, so the mixture peaks near t = 0."""
    return ScoreSequence(1.0 - 0.5 ** np.arange(n + 1.0))


def decay_table(knots, end):
    times = np.linspace(0.0, end, knots)
    return TimeValue.table(times, np.exp(-times))


def deadline(w):
    return TimeValue.table([1 - w, 1, 1 + w], [0.0, 1 / w, 0.0])


class TestQuadratureRoute:
    @pytest.mark.parametrize("h, n, points", [
        (decay_table(400, 40.0), 3, [(1.5, 0.3, 0.3)]),
        (decay_table(10, 9.0), 256, [(1.5, 0.3, 0.3), (8.0, 2.0, 2.0)]),
        (deadline(1e-2), 3, [(1.5, 0.3, 0.3), (8.0, 2.0, 2.0)]),
        (deadline(1e-3), 256, [(1.5, 0.3, 0.3), (8.0, 2.0, 2.0)]),
        (deadline(1e-4), 32, [(1.5, 0.3, 0.3), (2.0, 0.05, 1.0)]),
    ], ids=["knots400", "knots10", "deadline_1e-2", "deadline_1e-3", "deadline_1e-4"])
    def test_tables_match_the_adaptive_oracle(self, h, n, points):
        for lam, c_i, c in points:
            for got, oracle in route_and_oracle(LatencyFamily.exponential(lam), h,
                                                halving(n), n, c_i, c):
                assert got == pytest.approx(oracle, abs=QUAD_TOL)

    def test_coarse_table_resolves_the_rise_of_the_latency(self):
        """Three knots 150 apart against lam c = 24: the rise of F_c(t) to 1
        ends far inside the first segment.  The route missed it by 3.5e-5."""
        h = TimeValue.table([0.0, 150.0, 300.0], [1 / 150, 1 / 300, 0.0])
        latency = LatencyFamily.exponential(8.0)
        for n in (1, 3):
            for got, oracle in route_and_oracle(latency, h, seq(0, 1, 1.5, 1.75), n,
                                                1e-8, 3.0, latency_edges(latency, 3.0)):
                assert got == pytest.approx(oracle, abs=QUAD_TOL)

    @pytest.mark.parametrize("eta", [0.01, 0.03, 0.1])
    @pytest.mark.parametrize("lam, c_i, c", [(8.0, 1e-8, 3.0), (8.0, 1e-6, 1e-3)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_slow_decay_matches_the_closed_forms(self, eta, lam, c_i, c, n):
        """The horizon covers the FOC integrand's own tail, which outlives h's
        when c_i is small, and edges resolve the rise of F_c(t) to 1: the route
        missed by up to 2.5e-9 and 1.0e-4 without them."""
        latency, h = LatencyFamily.exponential(lam), TimeValue.exponential(eta)
        v = seq(0, 1, 1.5, 1.75)
        for fn in (lambda m: mvp_br_derivative(latency, h, v, n, c_i, c, method=m),
                   lambda m: mvp_welfare(latency, h, v, n, c, method=m),
                   lambda m: mvp_agent_reward(latency, h, v, n, c, method=m)):
            assert fn("quadrature") == pytest.approx(fn("closed"), abs=QUAD_TOL)

    def test_exponential_h_matches_the_closed_forms(self):
        """The adaptive route missed the peak near t = 0 here, by up to 1.3e-5."""
        worst = 0.0
        for eta in (0.4, 1.0, 2.5):
            h = TimeValue.exponential(eta)
            for n in (1, 2, 3, 8, 32, 64, 128, 256):
                v = halving(n)
                for lam, c_i, c in ((1.0, 0.3, 0.3), (2.0, 0.05, 1.0), (8.0, 1.5, 1e-12),
                                    (0.5, 1e-8, 3.0), (8.0, 2.0, 2.0)):
                    latency = LatencyFamily.exponential(lam)
                    for fn in (lambda m: mvp_br_derivative(latency, h, v, n, c_i, c, method=m),
                               lambda m: mvp_welfare(latency, h, v, n, c, method=m),
                               lambda m: mvp_agent_reward(latency, h, v, n, c, method=m)):
                        closed = fn("closed")
                        worst = max(worst, abs(fn("quadrature") - closed) / max(1.0, abs(closed)))
        assert worst <= 2.4e-12

    def test_steep_starting_segment_is_halved(self, monkeypatch):
        """lam c_i = 50 against eta = 0.4: the first segment of the grid is
        4.7 wide, so the FOC integrand falls by e^-50 within a tenth of it."""
        original, rounds = equilibrium_module.integrate_segments, []

        def counting(integrand, edges):
            def counted(t):
                rounds.append(t.shape)
                return integrand(t)
            return original(counted, edges)

        monkeypatch.setattr(equilibrium_module, "integrate_segments", counting)
        latency, h, v = LatencyFamily.exponential(10.0), TimeValue.exponential(0.4), halving(4)
        closed = mvp_br_derivative(latency, h, v, 4, 5.0, 1e-12, method="closed")
        quadr = mvp_br_derivative(latency, h, v, 4, 5.0, 1e-12, method="quadrature")
        assert len(rounds) > 1 and rounds[0][0] == 16
        assert quadr == pytest.approx(closed, rel=1e-12, abs=1e-12)

    def test_edges_are_sorted_and_distinct(self, monkeypatch):
        """The latency edges merge into h's as np.union1d would merge them."""
        original, seen = equilibrium_module.integrate_segments, []

        def capture(integrand, edges):
            seen.append(edges)
            return original(integrand, edges)

        monkeypatch.setattr(equilibrium_module, "integrate_segments", capture)
        latency = LatencyFamily.exponential(2.0)
        for h in (H1, decay_table(10, 9.0), TimeValue.table([0.0, 150.0, 300.0],
                                                              [1 / 150, 1 / 300, 0.0])):
            mvp_br_derivative(latency, h, halving(8), 8, 0.3, 0.3, method="quadrature")
        assert len(seen) == 3
        for edges in seen:
            assert np.array_equal(edges, np.union1d(edges, edges[:0]))
            assert len(edges) > 10

    def test_leaves_numpy_ma_unimported(self):
        """np.union1d imported numpy.ma on its first call: 12 ms and 1.3 MB
        of peak RSS in every fresh process that reached the quadrature."""
        script = """
import sys
import infomarkets as im
v = im.ScoreSequence((0.0, 1.0, 1.5, 1.75))
latency = im.LatencyFamily.exponential(1.0)
table = im.TimeValue.table([0.0, 1.0, 3.0], [1.0, 0.5, 0.0])
for h in (im.TimeValue.exponential(1.0), table):
    im.mvp_br_derivative(latency, h, v, 3, 0.2, 0.3, method="quadrature")
    im.mvp_welfare(latency, h, v, 3, 0.3, method="quadrature")
print("numpy.ma" in sys.modules)
"""
        src = pathlib.Path(equilibrium_module.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]


def test_negative_effort_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        mvp_welfare(LAT1, H1, seq(0, 1, 1), 2, -0.1)


#: every evaluator that takes an agent count n, as a function of n alone
_V = seq(0, 1, 1.5, 1.75)
_ACCESS = AccessFunction.exponential(3.0)
EVALUATORS = {
    "batch_equilibrium": lambda n: batch_equilibrium(_ACCESS, _V, n),
    "batch_welfare": lambda n: batch_welfare(_ACCESS, _V, n, 0.1),
    "mvp_br_derivative": lambda n: mvp_br_derivative(LAT1, H1, _V, n, 0.1, 0.2),
    "mvp_equilibrium": lambda n: mvp_equilibrium(LAT1, H1, _V, n),
    "mvp_welfare": lambda n: mvp_welfare(LAT1, H1, _V, n, 0.1),
    "mvp_agent_reward": lambda n: mvp_agent_reward(LAT1, H1, _V, n, 0.1),
    "mvp_principal_utility": lambda n: mvp_principal_utility(LAT1, H1, _V, n, 0.1),
    "pm_batch_utility": lambda n: pm_batch_utility(_ACCESS, n, 0.1, 0.2),
    "pm_batch_welfare": lambda n: pm_batch_welfare(_ACCESS, n, 0.1),
    "pm_batch_equilibrium": lambda n: pm_batch_equilibrium(_ACCESS, n),
    "pm_race_equilibrium": lambda n: pm_race_equilibrium(_V, n),
}


@pytest.mark.parametrize("n", [0, -1, 2.5, True], ids=["0", "-1", "2.5", "True"])
@pytest.mark.parametrize("name", EVALUATORS)
def test_agent_count_must_be_a_positive_integer(name, n):
    with pytest.raises(ValueError, match=r"^n must be an integer of at least [12], got "):
        EVALUATORS[name](n)


@pytest.mark.parametrize("name", EVALUATORS)
def test_numpy_agent_count_is_an_integer(name):
    assert EVALUATORS[name](np.int64(2)) == EVALUATORS[name](2)


class TestMethodSwitch:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            mvp_welfare(LAT1, H1, seq(0, 1, 1), 2, 0.1, method="magic")

    def test_closed_form_unavailable_for_table_h(self):
        h = TimeValue.table([0.0, 1.0, 5.0], [1.0, 0.5, 0.0])
        with pytest.raises(ValueError):
            mvp_welfare(LAT1, h, seq(0, 1, 1), 2, 0.1, method="closed")

    def test_table_h_uses_quadrature_automatically(self):
        h = TimeValue.table([0.0, 1.0, 5.0], [1.0, 0.5, 0.0])
        value = mvp_welfare(LAT1, h, seq(0, 1, 1), 2, 0.1)
        assert np.isfinite(value)
