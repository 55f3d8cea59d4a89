import math
import re
import time
import tracemalloc

import numpy as np
import pytest

import infomarkets.equilibrium as equilibrium_module
from infomarkets import (AccessFunction, LatencyFamily, NumericalError,
                         ScoreSequence, TimeValue, batch_equilibrium,
                         mvp_equilibrium)
from infomarkets.numerics import integrate_segments, solve_decreasing_foc


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
