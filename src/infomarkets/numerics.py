"""Root finding and quadrature plumbing for the equilibrium solvers.

All first-order conditions in this package are smooth functions of effort
that start positive (marginal value exceeds marginal cost) and eventually
go negative, so bracketed bisection is unconditionally safe and we never
reach for derivative-based methods.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import NumericalError

#: tolerance on the FOC residual at an interior root
FOC_TOL = 1e-10

#: lowest FOC value accepted: -1, less rounding for increments down to -1e-12
_FOC_FLOOR = -1.0 - 1e-9

_BISECT_ITERS = 200
_MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class EquilibriumResult:
    """A symmetric effort level together with its numerical certificate.

    ``residual`` is the FOC value at ``effort``; ``corner`` marks solutions
    pinned at 0 or at the domain boundary, where the one-sided derivative
    sign condition holds instead of a zero residual. ``bracket`` is the
    interval the root was isolated in.
    """

    effort: float
    residual: float
    corner: bool
    bracket: tuple[float, float]


def solve_decreasing_foc(f, lo: float = 1e-12, hi: float = 1.0,
                         domain_max: float = np.inf) -> EquilibriumResult:
    """Root of a first-order condition ``f`` that crosses from + to -.

    Returns a corner at 0 when ``f(lo) <= 0`` (no effort is ever worth it)
    and a corner at ``domain_max`` when the FOC is still positive there.
    Every FOC here is a nonnegative marginal value minus 1: a value that is
    not finite or below -1 raises :class:`NumericalError`.
    """
    def foc(c: float) -> float:
        value = float(f(c))
        if not math.isfinite(value) or value < _FOC_FLOOR:
            raise NumericalError(f"FOC value {value!r} at effort {c!r} is not a "
                                 f"nonnegative marginal value minus 1")
        return value

    f_lo = foc(lo)
    if f_lo <= 0.0:
        return EquilibriumResult(0.0, f_lo, True, (0.0, lo))

    hi = min(hi, domain_max)
    doublings = 0
    while foc(hi) > 0.0:
        if hi >= domain_max:
            # marginal value exceeds marginal cost on the whole domain
            return EquilibriumResult(float(domain_max), foc(domain_max),
                                     True, (lo, float(domain_max)))
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise NumericalError(f"no sign change for the FOC up to effort {hi}")
        hi = min(hi * 2.0, domain_max)

    bracket = (lo, hi)
    a, b = lo, hi
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if foc(mid) > 0.0:
            a = mid
        else:
            b = mid
    root = 0.5 * (a + b)
    residual = foc(root)
    if abs(residual) > FOC_TOL:
        raise NumericalError(f"bisection stalled: residual {residual:.3e} at {root}")
    return EquilibriumResult(float(root), residual, False, bracket)


def integrate_decaying(integrand, upper: float, *, tol: float = 1e-10) -> float:
    """Adaptive quadrature of a smooth exponentially damped integrand on [0, upper]."""
    value, abserr, info, *rest = quad(integrand, 0.0, upper, epsabs=tol,
                                      epsrel=0.0, limit=300, full_output=1)
    if rest:
        raise NumericalError(f"quadrature did not converge: {rest[0]}")
    if abserr > 100 * tol:
        raise NumericalError(f"quadrature error estimate {abserr:.3e} above tolerance")
    return float(value)
