import math
import re

import numpy as np
import pytest

import infomarkets.equilibrium as equilibrium_module
from infomarkets import (AccessFunction, LatencyFamily, NumericalError,
                         ScoreSequence, TimeValue, batch_equilibrium,
                         mvp_equilibrium)
from infomarkets.numerics import solve_decreasing_foc


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
