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
Each evaluator also carries an adaptive-quadrature route over one
binomial-mixture integrand; ``method="auto"`` picks the closed form when it
exists and the tests cross-validate the two to tight tolerance.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .info_model import ScoreSequence
from .mvp import TAIL_MASS, TimeValue
from .numerics import EquilibriumResult, integrate_decaying, solve_decreasing_foc
from .pm_baseline import AccessFunction


@dataclass(frozen=True)
class LatencyFamily:
    """Distribution of signal-arrival time as a function of effort.

    The built-in (and only) kind is exponential: investing effort c makes
    the arrival time Exp(lam * c), so more effort means stochastically
    earlier signals and zero effort means the signal never arrives.
    """

    kind: str = "exponential"
    lam: float = 1.0

    def __post_init__(self):
        if self.kind != "exponential":
            raise ValueError("only the exponential latency family is built in")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")

    @classmethod
    def exponential(cls, lam: float) -> "LatencyFamily":
        return cls("exponential", lam)

    def cdf(self, c: float, t):
        t = np.asarray(t, dtype=float)
        out = -np.expm1(-self.lam * c * t)
        return float(out) if out.ndim == 0 else out

    def dcdf_dc(self, c: float, t):
        """Sensitivity of arrival probability to effort, d F_c(t) / d c."""
        t = np.asarray(t, dtype=float)
        out = self.lam * t * np.exp(-self.lam * c * t)
        return float(out) if out.ndim == 0 else out


def _check_inputs(v: ScoreSequence, n: int, *efforts: float) -> None:
    if len(v) < n + 1:
        raise ValueError(f"need v_0..v_{n}, got {len(v)} values")
    if min(efforts, default=0.0) < 0:
        raise ValueError("efforts must be nonnegative")


def _resolve_method(method: str, h: TimeValue) -> str:
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        return "closed" if h.kind == "exponential" else "quadrature"
    if method == "closed" and h.kind != "exponential":
        raise ValueError(f"no closed form for the {h.kind!r} time-value density")
    return method


def _log_binomials(n: int) -> np.ndarray:
    """``log C(n, k)`` for k = 0..n."""
    ks = np.arange(n + 1.0)
    return gammaln(n + 1.0) - gammaln(ks + 1.0) - gammaln(n - ks + 1.0)


def _binomial_pmf(log_binom: np.ndarray, p: float) -> np.ndarray:
    """Binomial(N, p) probabilities of k = 0..N, given ``log C(N, k)``."""
    top = log_binom.size - 1
    if p <= 0.0 or p >= 1.0:
        pmf = np.zeros(top + 1)
        pmf[0 if p <= 0.0 else top] = 1.0
        return pmf
    ks = np.arange(top + 1)
    return np.exp(log_binom + ks * math.log(p) + (top - ks) * math.log1p(-p))


# ----------------------------------------------------------- batch setting

def batch_equilibrium(F: AccessFunction, v: ScoreSequence, n: int) -> EquilibriumResult:
    """Symmetric equilibrium effort of the batch mechanism.

    Solves ``F'(c) * sum_k C(n-1,k) F^k (1-F)^(n-1-k) (v_{k+1}-v_k) = 1``;
    returns the corner c = 0 when even the first unit of effort is not
    worth its marginal value.
    """
    _check_inputs(v, n)
    deltas = v.deltas[:n]
    log_binom = _log_binomials(n - 1)

    def foc(c: float) -> float:
        return F.derivative(c) * float(_binomial_pmf(log_binom, F.value(c)) @ deltas) - 1.0

    return solve_decreasing_foc(foc, hi=min(1.0, F.domain_max),
                                domain_max=F.domain_max)


def batch_welfare(F: AccessFunction, v: ScoreSequence, n: int, c: float) -> float:
    """Expected welfare gain over the prior at symmetric effort c.

    Binomially mixes v_k over the number of agents who obtain signals,
    minus the total effort spent.
    """
    _check_inputs(v, n)
    return float(_binomial_pmf(_log_binomials(n), F.value(c)) @ v.values[:n + 1]) - n * c


# ------------------------------------------------------ sequential setting

def _beta_mixture(weights: list, base: float, a: float) -> tuple[float, float]:
    """``sum_k w_k Q_k`` and ``sum_k w_k Q_k G_k``, k = 0..N = len(weights) - 1.

    With R(m) = base + a m and s = base / a, ``Q_k = C(N,k) B(s+N-k, k+1) / a
    = prod_{j=1..k} [(N-j+1) a / R(N-j)] / R(N)`` and the log moment
    ``G_k = (psi(s+N+1) - psi(s+N-k)) / a = sum_{m=N-k}^{N} 1 / R(m)``.
    Every factor is positive; a = 0 is the exact limit.  A plain loop beats
    numpy's per-call overhead at the n of interest.
    """
    top = len(weights) - 1
    q = g = 1.0 / (base + a * top)
    plain = weights[0] * q
    moment = plain * g
    for k in range(1, top + 1):
        r = 1.0 / (base + a * (top - k))
        q *= (top - k + 1) * a * r
        g += r
        plain += weights[k] * q
        moment += weights[k] * q * g
    return plain, moment


def _quadrature_mixture(latency: LatencyFamily, h: TimeValue, c: float,
                        weights: np.ndarray, factor) -> float:
    """Quadrature of ``factor(t) E[w_K] h(t)``, K ~ Binomial(len(weights)-1, F_c(t))."""
    log_binom = _log_binomials(weights.size - 1)

    def integrand(t: float) -> float:
        mix = float(_binomial_pmf(log_binom, latency.cdf(c, t)) @ weights)
        return factor(t) * mix * h.density(t)

    return integrate_decaying(integrand, h.horizon(TAIL_MASS))


def mvp_br_derivative(latency: LatencyFamily, h: TimeValue, v: ScoreSequence,
                      n: int, c_i: float, c: float, method: str = "auto") -> float:
    """Marginal utility of agent i's effort when everyone else invests c.

    Zero at the best response; the sequential analogue of the batch FOC
    with arrival times doing the rank mixing.
    """
    _check_inputs(v, n, c_i, c)
    deltas = v.deltas[:n]
    if _resolve_method(method, h) == "closed":
        lam = latency.lam
        _, moment = _beta_mixture(deltas.tolist(), h.eta + lam * c_i, lam * c)
        return lam * h.eta * moment - 1.0
    return _quadrature_mixture(latency, h, c, deltas,
                               lambda t: latency.dcdf_dc(c_i, t)) - 1.0


def mvp_equilibrium(latency: LatencyFamily, h: TimeValue, v: ScoreSequence,
                    n: int, method: str = "auto") -> EquilibriumResult:
    """Symmetric equilibrium effort of the sequential mechanism.

    Root of the best-response derivative on the diagonal c_i = c; the
    corner c = 0 applies when information value decays too fast (or is too
    small) for any effort to pay.
    """
    _check_inputs(v, n)

    def foc(c: float) -> float:
        return mvp_br_derivative(latency, h, v, n, c, c, method=method)

    return solve_decreasing_foc(foc, hi=1.0)


def mvp_welfare(latency: LatencyFamily, h: TimeValue, v: ScoreSequence,
                n: int, c: float, method: str = "auto") -> float:
    """Expected welfare gain over the prior at symmetric effort c.

    Time-integrates the binomial mixture of v_k over how many signals have
    arrived by t, weighted by the time value, minus total effort.
    """
    _check_inputs(v, n, c)
    values = v.values[:n + 1]
    if _resolve_method(method, h) == "closed":
        plain, _ = _beta_mixture(values.tolist(), h.eta, latency.lam * c)
        return h.eta * plain - n * c
    return _quadrature_mixture(latency, h, c, values, lambda t: 1.0) - n * c


def mvp_agent_reward(latency: LatencyFamily, h: TimeValue, v: ScoreSequence,
                     n: int, c: float, method: str = "auto") -> float:
    """Exact expected reward of one agent under symmetric truthful timely play."""
    _check_inputs(v, n, c)
    deltas = v.deltas[:n]
    if _resolve_method(method, h) == "closed":
        a = latency.lam * c
        # B(x, k+2) = B(x, k+1) (k+1) / (x+k+1) moves the factor k+1 into the weights
        plain, _ = _beta_mixture((deltas * np.arange(1, n + 1)).tolist(), h.eta, a)
        return h.eta * a / (h.eta + a * n) * plain
    return _quadrature_mixture(latency, h, c, deltas, lambda t: latency.cdf(c, t))


def mvp_principal_utility(latency: LatencyFamily, h: TimeValue, v: ScoreSequence,
                          n: int, c: float, method: str = "auto") -> float:
    """Principal's expected utility gain: welfare minus what agents keep.

    Identity: welfare = principal utility + sum of agent utilities, with
    each agent keeping (expected reward - effort).
    """
    welfare = mvp_welfare(latency, h, v, n, c, method=method)
    reward = mvp_agent_reward(latency, h, v, n, c, method=method)
    return welfare - n * (reward - c)
