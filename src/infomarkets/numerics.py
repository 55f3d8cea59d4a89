"""Root finding, quadrature and log-factorials for the equilibrium solvers.

All first-order conditions in this package are smooth functions of effort
that start positive (marginal value exceeds marginal cost) and eventually
go negative.  Once a sign change is bracketed, Brent's method (Brent 1973,
*Algorithms for Minimization without Derivatives*, ch. 4) finds the root to
full double precision: like bisection it never leaves the bracket, but it
converges superlinearly and needs no derivatives.  :func:`_brent` takes the
steps of scipy's C ``brentq`` in the same order, so it returns its roots.

Every integral is one call of :func:`integrate_segments`: the 8- and
16-node Gauss-Legendre rules on every segment at once, halving where they
disagree, so the difference of the two rules certifies each value.

:func:`_log_factorials` serves ``log k!`` from one table, each entry by the
steps of Moshier's Cephes ``lgam`` (1989), which scipy's ``gammaln`` runs.
"""
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

#: tolerance on the FOC residual at an interior root
FOC_TOL = 1e-10

#: absolute error target of every quadrature
QUAD_TOL = 1e-10

#: Gauss-Legendre nodes on [-1, 1], the 8-node rule's then the 16-node rule's,
#: and the two weight vectors
_GL8, _GL16 = (np.polynomial.legendre.leggauss(m) for m in (8, 16))
_GL_NODES = np.concatenate([_GL8[0], _GL16[0]])
#: halvings of a starting segment before a disagreement is an error
_MAX_DEPTH = 40
#: live segments a round may carry: an integrand the two rules disagree on
#: everywhere would otherwise double them every round
_MAX_SEGMENTS = 4096

#: lowest FOC value accepted: -1, less rounding for increments down to -1e-12
_FOC_FLOOR = -1.0 - 1e-9

#: lower end of every bracket; a FOC already <= 0 here gives the corner at 0
_LOWER_BRACKET = 1e-12
_MAX_DOUBLINGS = 60

#: Cephes lgam's Stirling-series coefficients for 13 <= x < 1000, and log sqrt(2 pi)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178

#: log k! for k = 0..size-1, read-only; replaced, never written, under the lock
_log_factorial_table = np.zeros(1)
_log_factorial_table.flags.writeable = False
_log_factorial_lock = threading.Lock()


@dataclass(frozen=True)
class EquilibriumResult:
    """A symmetric effort level together with its numerical certificate.

    ``residual`` is the FOC value at ``effort``; ``corner`` marks solutions
    pinned at 0 or at the domain boundary, where the one-sided derivative
    sign condition holds instead of a zero residual. ``bracket`` is the
    interval the root was isolated in, and ``evaluations`` the number of
    distinct efforts the FOC was evaluated at (0 for a closed form).
    """

    effort: float
    residual: float
    corner: bool
    bracket: tuple[float, float]
    evaluations: int = 0


def solve_decreasing_foc(f, domain_max: float = np.inf) -> EquilibriumResult:
    """Root of a first-order condition ``f`` that crosses from + to -.

    Returns a corner at 0 when ``f`` is already <= 0 at the lower bracket
    (no effort is ever worth it) and a corner at ``domain_max`` when the FOC
    is still positive there.  Otherwise the upper bracket starts at
    ``min(1, domain_max)`` and doubles until the sign changes, and Brent's
    method isolates the root.  ``f`` is called once per distinct effort,
    always inside [0, ``domain_max``], so a FOC built once per solve from
    checked inputs needs no check of its own per call.  Every FOC here is a
    nonnegative marginal value minus 1: a value that is not finite or below
    -1 raises :class:`NumericalError`.
    """
    seen = {}  # _brent re-evaluates the bracket ends, the certificate the root

    def foc(c: float) -> float:
        value = seen.get(c)
        if value is None:
            value = float(f(c))
            if not math.isfinite(value) or value < _FOC_FLOOR:
                raise NumericalError(f"FOC value {value!r} at effort {c!r} is not a "
                                     f"nonnegative marginal value minus 1")
            seen[c] = value
        return value

    lo = _LOWER_BRACKET
    f_lo = foc(lo)
    if f_lo <= 0.0:
        return EquilibriumResult(0.0, f_lo, True, (0.0, lo), len(seen))

    hi = min(1.0, domain_max)
    doublings = 0
    while foc(hi) > 0.0:
        if hi >= domain_max:
            # marginal value exceeds marginal cost on the whole domain
            return EquilibriumResult(float(domain_max), foc(domain_max),
                                     True, (lo, float(domain_max)), len(seen))
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise NumericalError(f"no sign change for the FOC up to effort {hi}")
        hi = min(hi * 2.0, domain_max)

    # xtol far below the lower bracket, so rtol (its floor, 4 eps) decides
    xtol, rtol = 1e-300, 4.0 * np.finfo(float).eps
    # Brent (1973) bounds the evaluations by about k^2, k the bisections
    # that shrink the bracket to the tolerance at its lower end; a FOC flat
    # at its root needs more steps than the usual 100
    bisections = math.ceil(math.log2((hi - lo) / (xtol + rtol * lo)))
    root = _brent(foc, lo, hi, xtol, rtol, maxiter=(bisections + 1) ** 2)
    residual = foc(root)
    if abs(residual) > FOC_TOL:
        raise NumericalError(f"root finder stalled: residual {residual:.3e} at {root}")
    return EquilibriumResult(float(root), residual, False, (lo, hi), len(seen))


def _brent(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of ``f`` bracketed by [a, b], to within ``xtol + rtol |root|``.

    The steps of scipy's C ``brentq`` in its order: inverse quadratic
    interpolation or the secant step when it falls well inside the
    bracket, bisection otherwise.  So it evaluates ``f`` at the same points
    and returns the same root.  ``f(a)`` and ``f(b)`` must differ in sign,
    and ``f`` must not return NaN, where ``signbit`` and ``< 0`` differ.
    When ``maxiter`` steps do not converge it raises
    :class:`NumericalError` naming the bracket.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NumericalError(f"Brent's method did not converge in {maxiter} steps "
                         f"on the bracket [{a}, {b}]")


def _log_gamma_of_integer(x: float) -> float:
    """``log Gamma(x)`` for an integer ``x >= 1``, by the steps Cephes ``lgam``
    takes for it: below 13 the exact product (x-1)!, then one log; from 13
    Stirling's series, with lgam's five coefficients below 1000, three from
    1000 on and none above 1e8."""
    if x < 13.0:
        return math.log(math.factorial(int(x) - 1))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a0, a1, a2, a3, a4 = _LGAM_A
    return q + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


def _log_factorials(n: int) -> np.ndarray:
    """``log k!`` for k = 0..n, a read-only view of one table grown on demand."""
    global _log_factorial_table
    table = _log_factorial_table
    if table.size <= n:
        with _log_factorial_lock:
            table = _log_factorial_table
            if table.size <= n:
                grown = [_log_gamma_of_integer(k + 1.0) for k in range(table.size, n + 1)]
                table = np.concatenate([table, grown])
                table.flags.writeable = False
                _log_factorial_table = table
    return table[:n + 1]


def _segment(lo, hi) -> str:
    return f"segment [{float(lo)}, {float(hi)}]"


def integrate_segments(integrand, edges) -> float:
    """Integral of ``integrand`` from ``edges[0]`` to ``edges[-1]``.

    ``integrand`` maps an array of points to the values there, elementwise;
    each round calls it once, on a (segments, 24) array holding the nodes of
    both rules on every live segment.  A segment whose 16-node value differs
    from its 8-node value by more than its width's share of ``QUAD_TOL`` is
    halved; otherwise its 16-node value counts, so the differences of the
    accepted segments add up to at most ``QUAD_TOL``.  A non-finite value, a
    segment unresolved after ``_MAX_DEPTH`` halvings, or more than
    ``_MAX_SEGMENTS`` live segments raises :class:`NumericalError` naming a
    segment.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    share = QUAD_TOL / (edges[-1] - edges[0])
    total = 0.0
    for depth in range(_MAX_DEPTH + 1):
        half = (hi - lo) / 2
        values = integrand((lo + half)[:, None] + half[:, None] * _GL_NODES)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            j = np.flatnonzero(~finite)[0]
            raise NumericalError(f"integrand not finite on {_segment(lo[j], hi[j])}")
        coarse = half * (values[:, :8] @ _GL8[1])
        fine = half * (values[:, 8:] @ _GL16[1])
        done = np.abs(fine - coarse) <= share * 2 * half
        total += fine[done].sum()
        if done.all():
            return float(total)
        lo, hi = lo[~done], hi[~done]
        if depth == _MAX_DEPTH:
            raise NumericalError(f"quadrature unresolved on {_segment(lo[0], hi[0])} "
                                 f"after {_MAX_DEPTH} halvings")
        if 2 * lo.size > _MAX_SEGMENTS:
            raise NumericalError(f"quadrature needs more than {_MAX_SEGMENTS} segments, "
                                 f"unresolved on {_segment(lo[0], hi[0])} and "
                                 f"{lo.size - 1} more")
        mid = (lo + hi) / 2
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
