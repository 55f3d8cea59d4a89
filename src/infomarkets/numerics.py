"""Root finding and quadrature plumbing for the equilibrium solvers.

All first-order conditions in this package are smooth functions of effort
that start positive (marginal value exceeds marginal cost) and eventually
go negative.  Once a sign change is bracketed, Brent's method (Brent 1973,
*Algorithms for Minimization without Derivatives*, ch. 4) finds the root to
full double precision: like bisection it never leaves the bracket, but it
converges superlinearly and needs no derivatives.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import NumericalError

#: tolerance on the FOC residual at an interior root
FOC_TOL = 1e-10

#: absolute error target of every quadrature
QUAD_TOL = 1e-10

#: lowest FOC value accepted: -1, less rounding for increments down to -1e-12
_FOC_FLOOR = -1.0 - 1e-9

#: lower end of every bracket; a FOC already <= 0 here gives the corner at 0
_LOWER_BRACKET = 1e-12
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


def solve_decreasing_foc(f, domain_max: float = np.inf) -> EquilibriumResult:
    """Root of a first-order condition ``f`` that crosses from + to -.

    Returns a corner at 0 when ``f`` is already <= 0 at the lower bracket
    (no effort is ever worth it) and a corner at ``domain_max`` when the FOC
    is still positive there.  Otherwise the upper bracket starts at
    ``min(1, domain_max)`` and doubles until the sign changes, and Brent's
    method isolates the root.  ``f`` is called once per distinct effort.
    Every FOC here is a nonnegative marginal value minus 1: a value that is
    not finite or below -1 raises :class:`NumericalError`.
    """
    seen = {}  # brentq re-evaluates the bracket ends, the certificate the root

    def foc(c: float) -> float:
        if c not in seen:
            value = float(f(c))
            if not math.isfinite(value) or value < _FOC_FLOOR:
                raise NumericalError(f"FOC value {value!r} at effort {c!r} is not a "
                                     f"nonnegative marginal value minus 1")
            seen[c] = value
        return seen[c]

    lo = _LOWER_BRACKET
    f_lo = foc(lo)
    if f_lo <= 0.0:
        return EquilibriumResult(0.0, f_lo, True, (0.0, lo))

    hi = min(1.0, domain_max)
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

    # xtol far below the lower bracket, so rtol (its floor, 4 eps) decides
    root = brentq(foc, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    residual = foc(root)
    if abs(residual) > FOC_TOL:
        raise NumericalError(f"root finder stalled: residual {residual:.3e} at {root}")
    return EquilibriumResult(float(root), residual, False, (lo, hi))


def integrate_decaying(integrand, upper: float) -> float:
    """Adaptive quadrature of a smooth exponentially damped integrand on [0, upper]."""
    value, abserr, info, *rest = quad(integrand, 0.0, upper, epsabs=QUAD_TOL,
                                      epsrel=0.0, limit=300, full_output=1)
    if rest:
        raise NumericalError(f"quadrature did not converge: {rest[0]}")
    if abserr > 100 * QUAD_TOL:
        raise NumericalError(f"quadrature error estimate {abserr:.3e} above tolerance")
    return float(value)
