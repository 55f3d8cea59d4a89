import math

import pytest

from infomarkets import NumericalError
from infomarkets.numerics import solve_decreasing_foc


def foc_with_midpoint(value):
    """Positive at the lower bracket, negative at effort 1, ``value`` between."""
    def foc(c):
        if c < 0.1:
            return 1.0
        return -0.5 if c >= 1.0 else value
    return foc


class TestSolverCertificate:
    @pytest.mark.parametrize("value", [-2.0, math.nan, math.inf])
    def test_impossible_value_at_midpoint_raises(self, value):
        with pytest.raises(NumericalError, match=r"at effort 0\.5"):
            solve_decreasing_foc(foc_with_midpoint(value))

    def test_impossible_value_at_lower_bracket_raises(self):
        with pytest.raises(NumericalError, match="at effort 1e-12"):
            solve_decreasing_foc(lambda c: -3.0)
