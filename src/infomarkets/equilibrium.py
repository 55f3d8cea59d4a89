"""Symmetric effort equilibria for the batch and sequential mechanisms.

Everything here evaluates or solves first-order conditions built from the
score sequence ``v``: a marginal unit of effort buys a higher chance of
being the (k+1)-th reporter and earning ``v_{k+1} - v_k``.  The central
structural fact, verified property-style in the tests, is that the
best-response condition of one agent coincides with the welfare condition
of the group, so the solved equilibria are also the welfare optima.

For the built-in exponential latency family combined with an exponential
time-value density, ``u = exp(-lam c t)`` turns every sequential-market
integral into Beta integrals with an integer second argument (DLMF 5.12.1):
running products of positive ratios, exact for any n and down to c = 0.
Each evaluator also has a quadrature route, the only route for a table time
value: one binomial-mixture integrand times ``h.density``, evaluated at all
nodes at once and integrated by :func:`numerics.integrate_segments` over a
table's knots or over a fixed grid for the exponential kind.  The ``method``
of mvp_br_derivative, mvp_welfare and mvp_agent_reward picks the route, so
the tests can cross-validate the two to tight tolerance.

A solver builds its FOC once per solve: it checks its caller's inputs and
prepares the terms that do not depend on effort (the rows of
:func:`_beta_rows`, the ranges of :func:`_binomial_terms`), so each of the
root finder's steps only does the public evaluator's arithmetic on the
effort, in the same order, and gives its bits.  The root finder never
leaves [0, domain_max], so the steps need no effort check; a table time
value still solves through :func:`mvp_br_derivative`.

Binomial coefficients come from :func:`numerics._log_factorials` in log
space, so the library needs no special-function package.
"""
import math
from dataclasses import dataclass

import numpy as np

from .info_model import (ScoreSequence, _check_inputs, _check_nonnegative,
                         _check_nonnegative_array)
from .mvp import TimeValue
from .numerics import (QUAD_TOL, EquilibriumResult, _log_factorials,
                       integrate_segments, solve_decreasing_foc)
from .pm_baseline import AccessFunction

#: h tail mass the exponential quadrature route drops beyond its finite horizon
TAIL_MASS = 1e-13
#: share of QUAD_TOL the quadrature route leaves unresolved: the integrand
#: it drops beyond the horizon, and 1 - F_c(t) past its last latency edge
_TAIL_SHARE = 1 / 16
#: equal segments of the exponential quadrature route's starting grid
_EXP_SEGMENTS = 16


@dataclass(frozen=True)
class LatencyFamily:
    """Distribution of signal-arrival time as a function of effort.

    The family is exponential: investing effort c makes the arrival time
    Exp(lam * c), so more effort means stochastically earlier signals and
    zero effort means the signal never arrives.
    """

    lam: float = 1.0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and positive, got {self.lam}")

    @classmethod
    def exponential(cls, lam: float) -> "LatencyFamily":
        return cls(lam)

    def cdf(self, c: float, t):
        _check_nonnegative("c", c)
        out = -np.expm1(-self.lam * c * _check_nonnegative_array("t", t))
        return float(out) if out.ndim == 0 else out

    def dcdf_dc(self, c: float, t):
        """Sensitivity of arrival probability to effort, d F_c(t) / d c.

        Where the decay ``exp(-lam c t)`` is 0 (t = +inf at c > 0) it is 0,
        the limit; at c = 0 it is ``lam * t``, +inf at t = +inf.
        """
        _check_nonnegative("c", c)
        t = _check_nonnegative_array("t", t)
        decay = np.exp(-self.lam * c * t) if c > 0 else 1.0
        out = self.lam * np.where(decay > 0, t, 0.0) * decay
        return float(out) if out.ndim == 0 else out


def _resolve_method(method: str, h: TimeValue) -> str:
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        return "closed" if h.kind == "exponential" else "quadrature"
    if method == "closed" and h.kind != "exponential":
        raise ValueError(f"no closed form for the {h.kind!r} time-value density")
    return method


def _binomial_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(log C(n, k), k, n - k)`` for k = 0..n: the terms of a Binomial(n, p)
    pmf that do not depend on p, built once per solve or integral."""
    log_fact = _log_factorials(n)
    ks = np.arange(n + 1)
    return log_fact[n] - log_fact - log_fact[::-1], ks, n - ks


def _binomial_pmf(terms: tuple, p) -> np.ndarray:
    """Binomial(N, p) probabilities of k = 0..N along a new last axis, given
    :func:`_binomial_terms` of N; ``p`` is a number in [0, 1] or an array of them."""
    log_binom, hits_k, misses_k = terms
    if isinstance(p, np.ndarray):
        # a zero count takes 0 log 0 as 0, so p = 0 and p = 1 need no branch
        p = p[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            hits = np.where(hits_k == 0, 0.0, hits_k * np.log(p))
            misses = np.where(misses_k == 0, 0.0, misses_k * np.log1p(-p))
        return np.exp(log_binom + hits + misses)
    if p <= 0.0 or p >= 1.0:
        pmf = np.zeros(log_binom.size)
        pmf[0 if p <= 0.0 else -1] = 1.0
        return pmf
    return np.exp(log_binom + hits_k * math.log(p) + misses_k * math.log1p(-p))


# ----------------------------------------------------------- batch setting

def batch_equilibrium(F: AccessFunction, v: ScoreSequence, n: int) -> EquilibriumResult:
    """Symmetric equilibrium effort of the batch mechanism.

    Solves ``F'(c) * sum_k C(n-1,k) F^k (1-F)^(n-1-k) (v_{k+1}-v_k) = 1``;
    returns the corner c = 0 when even the first unit of effort is not
    worth its marginal value.
    """
    _check_inputs(v, n)
    deltas = v.deltas[:n]
    terms = _binomial_terms(n - 1)
    value, derivative = F._value, F._derivative

    def foc(c: float) -> float:
        return derivative(c) * float(_binomial_pmf(terms, value(c)) @ deltas) - 1.0

    return solve_decreasing_foc(foc, domain_max=F.domain_max)


def batch_welfare(F: AccessFunction, v: ScoreSequence, n: int, c: float) -> float:
    """Expected welfare gain over the prior at symmetric effort c.

    Binomially mixes v_k over the number of agents who obtain signals,
    minus the total effort spent.
    """
    _check_inputs(v, n)
    return float(_binomial_pmf(_binomial_terms(n), F.value(c)) @ v.values[:n + 1]) - n * c


# ------------------------------------------------------ sequential setting

def _beta_rows(weights: list) -> list:
    """The rows ``(N - k, N - k + 1, w_k)`` of float weights, k = 0..N =
    len(weights) - 1: what :func:`_beta_mixture` needs of them, built once."""
    top = len(weights) - 1
    return [(float(top - k), float(top - k + 1), w) for k, w in enumerate(weights)]


def _beta_mixture(rows: list, base: float, a: float) -> tuple[float, float]:
    """``sum_k w_k Q_k`` and ``sum_k w_k Q_k G_k`` over the :func:`_beta_rows`.

    With R(m) = base + a m and s = base / a, ``Q_k = C(N,k) B(s+N-k, k+1) / a
    = prod_{j=1..k} [(N-j+1) a / R(N-j)] / R(N)`` and the log moment
    ``G_k = (psi(s+N+1) - psi(s+N-k)) / a = sum_{m=N-k}^{N} 1 / R(m)``.
    Every factor is positive; a = 0 is the exact limit.  A plain loop beats
    numpy's per-call overhead at the n of interest.
    """
    top, _, w = rows[0]
    q = g = 1.0 / (base + a * top)
    plain = w * q
    moment = plain * g
    for m, f, w in rows[1:]:
        r = 1.0 / (base + a * m)
        q *= f * a * r
        g += r
        plain += w * q
        moment += w * q * g
    return plain, moment


def _quadrature_mixture(latency: LatencyFamily, h: TimeValue, c: float,
                        weights: np.ndarray, factor, tail) -> float:
    """Quadrature of ``factor(t) E[w_K] h(t)``, K ~ Binomial(len(weights)-1, F_c(t)).

    A table h is linear between its knots, which are the segment edges; the
    exponential kind starts from equal segments up to a horizon T where its
    tail mass is at most ``TAIL_MASS`` and ``max|w| tail(T)`` at most
    ``_TAIL_SHARE * QUAD_TOL``, ``tail(T)`` being the mass of ``|factor| h``
    beyond T, so it bounds the integrand dropped there.  Edges where
    F_c(t) = 2^-j, down to about 1 / (4N), are added to either: a mixture
    weighted to small k can peak within 1 / (N lam c) of t = 0, between all
    nodes of a wider segment.  So are edges where 1 - F_c(t) = 2^-j, until
    that is ``_TAIL_SHARE * QUAD_TOL``: on a wide segment past the last of
    them, the two rules can agree on a wrong value of the mixture's rise.
    """
    top = weights.size - 1
    terms = _binomial_terms(top)

    def integrand(t: np.ndarray) -> np.ndarray:
        mixture = _binomial_pmf(terms, latency.cdf(c, t)) @ weights
        return factor(t) * mixture * h.density(t)

    if h.kind == "table":
        edges = np.array(h.times)
    else:
        horizon, scale = -math.log(TAIL_MASS) / h.eta, np.abs(weights).max()
        while scale * tail(horizon) > _TAIL_SHARE * QUAD_TOL:
            horizon *= 1.25
        edges = np.linspace(0.0, horizon, _EXP_SEGMENTS + 1)
    if c > 0.0:
        halvings = 0.5 ** np.arange(1, top.bit_length() + 3)
        # on the rising side j then doubles: each further segment holds one
        # smooth exponential stretch of the rise
        rising = [halvings[-1]]
        while rising[-1] > _TAIL_SHARE * QUAD_TOL:
            rising.append(rising[-1] ** 2)
        steps = -np.log(np.concatenate([1.0 - halvings, halvings, rising[1:]]))
        steps /= latency.lam * c
        # sorted and deduplicated as np.union1d would, without its first-call
        # import of numpy.ma
        edges = np.sort(np.concatenate((edges, steps[(steps > edges[0]) & (steps < edges[-1])])))
        edges = edges[np.insert(edges[1:] != edges[:-1], 0, True)]
    return integrate_segments(integrand, edges)


def mvp_br_derivative(latency: LatencyFamily, h: TimeValue, v: ScoreSequence,
                      n: int, c_i: float, c: float, method: str = "auto") -> float:
    """Marginal utility of agent i's effort when everyone else invests c.

    Zero at the best response; the sequential analogue of the batch FOC
    with arrival times doing the rank mixing.
    """
    _check_inputs(v, n)
    _check_nonnegative("c_i", c_i)
    _check_nonnegative("c", c)
    deltas = v.deltas[:n]
    if _resolve_method(method, h) == "closed":
        lam = latency.lam
        _, moment = _beta_mixture(_beta_rows(deltas.tolist()), h.eta + lam * c_i, lam * c)
        return lam * h.eta * moment - 1.0
    lam, a = latency.lam, h.eta + latency.lam * c_i

    def tail(T: float) -> float:
        """The mass of lam t e^(-lam c_i t) h(t) beyond T, h exponential."""
        return lam * h.eta * math.exp(-a * T) * (T / a + 1 / a**2)

    return _quadrature_mixture(latency, h, c, deltas,
                               lambda t: latency.dcdf_dc(c_i, t), tail) - 1.0


def mvp_equilibrium(latency: LatencyFamily, h: TimeValue, v: ScoreSequence,
                    n: int) -> EquilibriumResult:
    """Symmetric equilibrium effort of the sequential mechanism.

    Root of the best-response derivative on the diagonal c_i = c; the
    corner c = 0 applies when information value decays too fast (or is too
    small) for any effort to pay.
    """
    _check_inputs(v, n)
    if _resolve_method("auto", h) == "quadrature":
        def foc(c: float) -> float:
            return mvp_br_derivative(latency, h, v, n, c, c)
    else:
        # mvp_br_derivative's closed form on the diagonal c_i = c
        rows, lam, eta = _beta_rows(v.deltas[:n].tolist()), latency.lam, h.eta
        scale = lam * eta

        def foc(c: float) -> float:
            a = lam * c
            return scale * _beta_mixture(rows, eta + a, a)[1] - 1.0

    return solve_decreasing_foc(foc)


def mvp_welfare(latency: LatencyFamily, h: TimeValue, v: ScoreSequence,
                n: int, c: float, method: str = "auto") -> float:
    """Expected welfare gain over the prior at symmetric effort c.

    Time-integrates the binomial mixture of v_k over how many signals have
    arrived by t, weighted by the time value, minus total effort.
    """
    _check_inputs(v, n)
    _check_nonnegative("c", c)
    values = v.values[:n + 1]
    if _resolve_method(method, h) == "closed":
        plain, _ = _beta_mixture(_beta_rows(values.tolist()), h.eta, latency.lam * c)
        return h.eta * plain - n * c
    return _quadrature_mixture(latency, h, c, values, lambda t: 1.0, h.tail) - n * c


def mvp_agent_reward(latency: LatencyFamily, h: TimeValue, v: ScoreSequence,
                     n: int, c: float, method: str = "auto") -> float:
    """Exact expected reward of one agent under symmetric truthful timely play."""
    _check_inputs(v, n)
    _check_nonnegative("c", c)
    deltas = v.deltas[:n]
    if _resolve_method(method, h) == "closed":
        a = latency.lam * c
        # B(x, k+2) = B(x, k+1) (k+1) / (x+k+1) moves the factor k+1 into the weights
        plain, _ = _beta_mixture(_beta_rows((deltas * np.arange(1, n + 1)).tolist()),
                                 h.eta, a)
        return h.eta * a / (h.eta + a * n) * plain
    return _quadrature_mixture(latency, h, c, deltas, lambda t: latency.cdf(c, t), h.tail)


def mvp_principal_utility(latency: LatencyFamily, h: TimeValue, v: ScoreSequence,
                          n: int, c: float) -> float:
    """Principal's expected utility gain: welfare minus what agents keep.

    Identity: welfare = principal utility + sum of agent utilities, with
    each agent keeping (expected reward - effort).
    """
    welfare = mvp_welfare(latency, h, v, n, c)
    reward = mvp_agent_reward(latency, h, v, n, c)
    return welfare - n * (reward - c)
