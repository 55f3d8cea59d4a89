import collections
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gammaln

import infomarkets.equilibrium as equilibrium_module
import infomarkets.numerics as numerics_module
import infomarkets.pm_baseline as pm_baseline_module
from infomarkets import (AccessFunction, InformationModel, LatencyFamily,
                         NumericalError, ScoreSequence, ScoringRule, TimeValue,
                         batch_equilibrium, mvp_equilibrium, pm_batch_equilibrium,
                         v_sequence)
from infomarkets.numerics import (FOC_TOL, _brent, _log_factorials, _log_gamma_of_integer,
                                  integrate_segments, solve_decreasing_foc)

#: the tolerances solve_decreasing_foc hands the root finder
XTOL, RTOL = 1e-300, 4.0 * np.finfo(float).eps


def foc_with_midpoint(value):
    """Positive below effort 0.1, negative from effort 1, ``value`` between."""
    def foc(c):
        if c < 0.1:
            return 1.0
        return -0.5 if c >= 1.0 else value
    return foc


class TestSolverCertificate:
    @pytest.mark.parametrize("value", [-2.0, math.nan, math.inf])
    def test_impossible_value_at_midpoint_raises(self, value):
        with pytest.raises(NumericalError, match=r"at effort \S+ is not") as info:
            solve_decreasing_foc(foc_with_midpoint(value))
        effort = float(re.search(r"at effort (\S+) is not", str(info.value)).group(1))
        assert 0.1 <= effort < 1.0

    def test_impossible_value_at_lower_bracket_raises(self):
        with pytest.raises(NumericalError, match="at effort 1e-12"):
            solve_decreasing_foc(lambda c: -3.0)

    def test_upper_bracket_doubles_until_the_sign_changes(self):
        eq = solve_decreasing_foc(lambda c: 6.0 / (1.0 + c) - 1.0)
        assert not eq.corner and eq.bracket == (1e-12, 8.0)
        assert eq.effort == pytest.approx(5.0, rel=1e-14)

    def test_no_sign_change_after_every_doubling_raises(self):
        with pytest.raises(NumericalError, match="no sign change"):
            solve_decreasing_foc(lambda c: 0.5)


V023 = ScoreSequence(np.array([0.0, 2.0, 3.0]))


class TestSolverCost:
    @pytest.mark.parametrize("solve, expected", [
        (lambda: mvp_equilibrium(LatencyFamily.exponential(1.0),
                                 TimeValue.exponential(1.0), V023, 2),
         0.29077297896941146),
        (lambda: batch_equilibrium(AccessFunction.exponential(3.0), V023, 2),
         0.44423525427342003),
    ], ids=["mvp", "batch"])
    def test_reference_solves_take_few_foc_calls(self, monkeypatch, solve, expected):
        """Brent's method needs 10-11 FOC calls on these; plain bisection needs 57."""
        calls = []

        def counting_solver(f, *args, **kwargs):
            def counted(c):
                calls.append(c)
                return f(c)
            return solve_decreasing_foc(counted, *args, **kwargs)

        monkeypatch.setattr(equilibrium_module, "solve_decreasing_foc", counting_solver)
        eq = solve()
        assert not eq.corner
        assert eq.effort == pytest.approx(expected, rel=1e-13)
        assert len(calls) <= 25
        assert len(set(calls)) == len(calls), "an effort was evaluated twice"


def named_segment(exc) -> tuple[float, float]:
    lo, hi = re.search(r"segment \[(\S+), (\S+)\]", str(exc)).groups()
    return float(lo), float(hi)


def guarded(integrand, edges):
    """The NumericalError ``integrate_segments`` raises, its time and its
    traced memory peak."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(NumericalError) as info:
            integrate_segments(integrand, edges)
        return info.value, time.perf_counter() - started, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIntegrator:
    def test_smooth_integrand_to_rounding(self):
        assert integrate_segments(np.exp, [0.0, 1.0, 3.0]) == pytest.approx(
            math.e ** 3 - 1.0, rel=1e-15)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_names_its_segment(self, value):
        exc, seconds, peak = guarded(
            lambda t: np.where(abs(t - 0.6) < 0.05, value, 1.0), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert "not finite" in str(exc) and named_segment(exc) == (0.5, 0.75)
        assert seconds < 1.0 and peak < 2 ** 20

    def test_step_stays_unresolved_at_the_depth_limit(self):
        """Halving never makes the two rules agree across a jump: the binary
        digits of 1/3 alternate, so each halving leaves the step a third of
        the way into one live segment, between nodes of both rules."""
        step = 1.0 / 3.0
        exc, seconds, peak = guarded(lambda t: (t > step).astype(float), [0.0, 1.0])
        assert "halvings" in str(exc)
        lo, hi = named_segment(exc)
        assert lo < step < hi and hi - lo < 1e-11
        assert seconds < 1.0 and peak < 2 ** 20

    def test_disagreement_everywhere_stops_at_the_segment_bound(self):
        exc, seconds, peak = guarded(lambda t: np.sign(np.sin(1e9 * t)), [0.0, 1.0])
        assert "segments" in str(exc) and named_segment(exc)
        assert seconds < 1.0 and peak < 4 * 2 ** 20


class TestLogFactorials:
    """scipy's ``gammaln`` runs Cephes ``lgam``, so it is the bitwise oracle."""

    def test_table_matches_gammaln_bit_for_bit(self):
        ks = np.arange(10 ** 5 + 1)  # crosses lgam's branches at 13 and 1000
        np.testing.assert_array_equal(_log_factorials(10 ** 5), gammaln(ks + 1.0))

    @pytest.mark.parametrize("x", [1e8, 1e8 + 1, 2e8, 3e9, 1e12])
    def test_large_arguments_match_gammaln(self, x):
        assert _log_gamma_of_integer(x) == gammaln(x)

    def test_callers_cannot_write_into_the_table(self):
        log_fact = _log_factorials(20)
        assert not log_fact.flags.writeable
        with pytest.raises(ValueError):
            log_fact.flags.writeable = True

    def test_threads_growing_the_table_at_once_agree(self, monkeypatch):
        empty = np.zeros(1)
        empty.flags.writeable = False
        monkeypatch.setattr(numerics_module, "_log_factorial_table", empty)
        sizes = [50 * (j + 1) for j in range(16)]
        results = [None] * len(sizes)

        def grow(j):
            results[j] = _log_factorials(sizes[j])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(j,)) for j in range(len(sizes))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for n, log_fact in zip(sizes, results):
            np.testing.assert_array_equal(log_fact, gammaln(np.arange(n + 1) + 1.0))
        # a lost update would leave a table shorter than the largest n asked for
        assert numerics_module._log_factorial_table.size == max(sizes) + 1


def recording(f):
    """``f`` and the list of points it is called at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)
    return g, points


def sweep_focs(count, seed):
    """(solver, FOC, bracket) of the interior roots of ``count`` random
    points, drawn as the benchmark's solver sweep draws its comparison
    points; each point also solves the batch markets with linear access at
    its access rate."""
    rng = np.random.default_rng(seed)
    captured = []
    solver = None

    def capture(f, *args, **kwargs):
        eq = solve_decreasing_foc(f, *args, **kwargs)
        if not eq.corner:
            captured.append((solver, f, eq.bracket))
        return eq

    rule = ScoringRule("quadratic", 20.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium_module, "solve_decreasing_foc", capture)
        mp.setattr(pm_baseline_module, "solve_decreasing_foc", capture)
        for n in rng.permutation(np.round(np.geomspace(2, 64, count)).astype(int)):
            n = int(n)
            lam, eta = rng.uniform(0.5, 8.0), rng.uniform(0.4, 2.5)
            access = rng.uniform(1.5, 8.0)
            alpha, beta = rng.uniform(0.05, 0.5), rng.uniform(0.01, 0.4)
            v = v_sequence(InformationModel.binary_noisy(alpha, beta), rule, n)
            solver = "mvp"
            mvp_equilibrium(LatencyFamily.exponential(lam), TimeValue.exponential(eta), v, n)
            for F in (AccessFunction.exponential(access), AccessFunction.linear(access)):
                solver = f"batch {F.kind}"
                batch_equilibrium(F, v, n)
                solver = f"pm_batch {F.kind}"
                pm_batch_equilibrium(F, n)
    return captured


def steep_sigmoid(c):
    """Saturates to exactly +-1 away from 0.3, so interpolation cannot move."""
    return math.tanh(1e3 * (0.3 - c))


class TestBrent:
    """scipy's ``brentq`` is the oracle: the same points, the same root bits."""

    def assert_same_as_brentq(self, f, lo, hi):
        ours, our_points = recording(f)
        theirs, their_points = recording(f)
        root = _brent(ours, lo, hi, XTOL, RTOL)
        assert root == brentq(theirs, lo, hi, xtol=XTOL, rtol=RTOL)
        assert our_points == their_points
        return our_points

    def test_sweep_focs_match_brentq(self):
        focs = sweep_focs(25, seed=5)
        solved = collections.Counter(solver for solver, _, _ in focs)
        assert solved["mvp"] + solved["batch exponential"] >= 40
        assert min(solved[f"{market} {kind}"] for market in ("batch", "pm_batch")
                   for kind in ("linear", "exponential")) >= 5, solved
        for _, f, (lo, hi) in focs:
            self.assert_same_as_brentq(f, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (1e-12, 0.5)])
    def test_zero_at_a_bracket_end_returns_it(self, lo, hi):
        points = self.assert_same_as_brentq(lambda c: 0.5 - c, lo, hi)
        assert points == [lo, hi]

    def test_steep_sigmoid_takes_bisection_steps(self):
        points = self.assert_same_as_brentq(steep_sigmoid, 1e-12, 1.0)
        # the first two steps halve the bracket
        mid = 1.0 + (1e-12 - 1.0) / 2
        assert points[2:4] == [mid, mid + (1e-12 - mid) / 2]

    def test_triple_root_converges_within_brents_bound(self):
        """Brent's steps creep towards a triple root: neither port converges
        in the usual 100 steps, but the solver allows Brent's bound of about
        k^2 and takes scipy's steps to its root."""
        def foc(c):
            return (0.3 - c) ** 3

        with pytest.raises(RuntimeError, match="converge"):
            brentq(foc, 1e-12, 1.0, xtol=XTOL, rtol=RTOL)
        with pytest.raises(NumericalError, match=r"100 steps on the bracket \[1e-12, 1.0\]"):
            _brent(foc, 1e-12, 1.0, XTOL, RTOL)
        ours, our_points = recording(foc)
        theirs, their_points = recording(foc)
        result = solve_decreasing_foc(ours)
        assert result.effort == brentq(theirs, 1e-12, 1.0, xtol=XTOL, rtol=RTOL,
                                       maxiter=10_000)
        # the bracket ends, then the steps of brentq (the solver's cache
        # serves the root finder's second look at the ends)
        assert our_points == their_points and len(our_points) > 100
        assert not result.corner and abs(result.residual) <= FOC_TOL
        assert abs(result.effort - 0.3) < 1e-15
