"""Traditional prediction-market baselines and their effort equilibria.

Two stylized competition models:

* The single-batch winner race: each agent pays effort ``c`` for a chance
  ``F(c)`` at the (perfectly substitutable) signal, and one unit of reward
  goes to a uniformly random agent among those who got it.  With linear
  access the equilibrium dissipates all social value; with exponential
  access welfare decays like 1/n.

* The sequential rank race: signal arrival times are exponential with rate
  proportional to effort, agents report on arrival, and the j-th reporter
  collects the undiscounted score improvement ``v_j - v_{j-1}``.  Rank
  probabilities depend only on effort ratios, so the equilibrium is
  independent of the arrival-rate scale.
"""
import math
from dataclasses import dataclass

import numpy as np

from .info_model import ScoreSequence, _check_count, _check_inputs, _check_nonnegative
from .numerics import EquilibriumResult, solve_decreasing_foc


@dataclass(frozen=True)
class AccessFunction:
    """Probability of obtaining the signal as a function of effort.

    ``linear``: F(c) = lam * c on [0, 1/lam] (the boundary case of zero
    curvature); ``exponential``: F(c) = 1 - exp(-lam * c), strictly concave.
    """

    kind: str
    lam: float

    def __post_init__(self):
        if self.kind not in ("linear", "exponential"):
            raise ValueError(f"unknown access kind {self.kind!r}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and positive, got {self.lam}")

    @classmethod
    def linear(cls, lam: float) -> "AccessFunction":
        return cls("linear", lam)

    @classmethod
    def exponential(cls, lam: float) -> "AccessFunction":
        return cls("exponential", lam)

    @property
    def domain_max(self) -> float:
        """Largest meaningful effort: 1/lam for linear (F caps at 1), else inf."""
        return 1.0 / self.lam if self.kind == "linear" else math.inf

    def value(self, c: float) -> float:
        _check_nonnegative("c", c, self.domain_max)
        return self._value(c)

    def derivative(self, c: float) -> float:
        _check_nonnegative("c", c, self.domain_max)
        return self._derivative(c)

    def _value(self, c: float) -> float:
        """F(c) for an effort already checked to lie in [0, domain_max]."""
        if self.kind == "linear":
            return self.lam * c
        return -math.expm1(-self.lam * c)

    def _derivative(self, c: float) -> float:
        """F'(c) for an effort already checked to lie in [0, domain_max]."""
        if self.kind == "linear":
            return self.lam
        return self.lam * math.exp(-self.lam * c)


def _tie_sharing_factor(F: float, n: int) -> float:
    """sum_k C(n-1,k) F^k (1-F)^(n-1-k) / (k+1): expected share of one reward unit."""
    if F == 0.0:
        return 1.0
    # closed form of the sum: (1 - (1-F)^n) / (n F)
    return -np.expm1(n * math.log1p(-F)) / (n * F) if F < 1.0 else 1.0 / n


def pm_batch_utility(F: AccessFunction, n: int, x: float, c: float) -> float:
    """Expected utility of one agent investing x while the other n-1 invest c.

    The winner among all signal holders is uniform, hence the 1/(k+1)
    sharing factor against k signal-holding competitors.
    """
    _check_count("n", n, 1)
    _check_nonnegative("x", x, F.domain_max)
    return F.value(x) * _tie_sharing_factor(F.value(c), n) - x


def pm_batch_welfare(F: AccessFunction, n: int, c: float) -> float:
    """Social welfare at symmetric effort: P(any signal) minus total cost."""
    _check_count("n", n, 1)
    Fc = F.value(c)
    return -np.expm1(n * math.log1p(-Fc)) - c * n if Fc < 1.0 else 1.0 - c * n


def pm_batch_equilibrium(F: AccessFunction, n: int) -> EquilibriumResult:
    """Symmetric equilibrium effort of the single-batch winner race.

    Interior solutions satisfy F'(c) * sharing_factor(F(c), n) = 1.  With
    linear access and lam > n the marginal payoff stays above the marginal
    cost on the whole domain, so everyone invests the cap 1/lam (a corner
    with strictly positive welfare 1 - n/lam).
    """
    _check_count("n", n, 2)
    if not F.lam > 1:
        raise ValueError("the race is degenerate unless lam > 1")
    value, derivative = F._value, F._derivative

    def foc(c: float) -> float:
        return derivative(c) * _tie_sharing_factor(value(c), n) - 1.0

    return solve_decreasing_foc(foc, domain_max=F.domain_max)


def _rank_weights(n: int) -> np.ndarray:
    """w_j = 1 - sum_{r=n-j+1}^{n} 1/r for ranks j = 1..n.

    Differentiating the exponential-race rank probabilities at the
    symmetric point gives d P(rank j) / d c_i = w_j / (n c): raising one's
    rate helps win early slots and steals probability from late ones.  The
    arrival-rate scale cancels because ranks depend only on rate ratios.
    """
    return 1.0 - np.cumsum(1.0 / np.arange(n, 0, -1))


def pm_race_equilibrium(v: ScoreSequence, n: int) -> EquilibriumResult:
    """Symmetric equilibrium of the sequential rank race, in closed form.

    The j-th reporter earns ``v_j - v_{j-1}`` with no time discount.  The
    arrival-rate scale takes no part: rank probabilities depend only on
    effort ratios.  The FOC ``gain / (n c) - 1`` has the root c = gain / n;
    zero effort when faster arrival is not worth its cost at any level.
    """
    _check_inputs(v, n, least=2)
    gain = float(np.dot(_rank_weights(n), v.deltas[:n]))
    if gain <= 0.0:
        return EquilibriumResult(0.0, -1.0, True, (0.0, 0.0))
    c = gain / n
    return EquilibriumResult(c, gain / (n * c) - 1.0, False, (c, c))
