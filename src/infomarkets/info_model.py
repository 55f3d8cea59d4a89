"""Conditionally i.i.d. information structures and exact score expectations.

An :class:`InformationModel` couples an outcome prior with a per-signal
likelihood table; every agent draws his signal from the same table,
independently conditioned on the outcome.  The canonical special case is
the binary noisy model: outcome 1 has prior probability ``alpha`` and each
signal equals the outcome with probability ``1 - beta``.

On top of the model this module computes, by exact enumeration over the
count vectors of signal values, the expected-score sequence ``v_0 .. v_n``:
how much the self-expected proper score of the market belief rises after k
truthful reports.  That sequence is the single input through which the
information structure enters every equilibrium computation downstream.
"""
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .errors import CapacityError, reject_unknown_keys, require_keys
from .scoring import ScoringRule, expected_score

#: most terms an exact enumeration may visit: signal count vectors in
#: :func:`v_sequence`, enumerated rows times agents (the report columns
#: ``settle_batch`` holds) in ``fpm_expected_reward``
ENUMERATION_BUDGET = 10 ** 6

_PROB_TOL = 1e-12


def _validate_distribution(vec: np.ndarray, what: str, tol: float) -> None:
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{what} has non-finite entries: {vec}")
    if np.any(vec < -tol) or np.any(vec > 1 + tol):
        raise ValueError(f"{what} has entries outside [0, 1]: {vec}")
    if abs(vec.sum() - 1.0) > tol:
        raise ValueError(f"{what} sums to {vec.sum()!r}, not 1")


@dataclass(frozen=True)
class Belief:
    """A probability vector over the d outcomes; the market state."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("a belief needs at least two outcome probabilities")
        _validate_distribution(probs, "belief", 1e-10)

    @classmethod
    def normalized(cls, raw) -> "Belief":
        raw = np.asarray(raw, dtype=float)
        total = raw.sum()
        if total <= 0:
            raise ValueError("cannot normalize a nonpositive mass vector")
        return cls(raw / total)

    @property
    def num_outcomes(self) -> int:
        return self.probs.size

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, y: int) -> float:
        return float(self.probs[y])


@dataclass(frozen=True)
class InformationModel:
    """Outcome prior plus the shared conditional signal table.

    ``likelihood[y, x]`` is the probability that any one agent observes
    signal value ``x`` when the outcome is ``y``.
    """

    prior: np.ndarray
    likelihood: np.ndarray

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        lik = np.asarray(self.likelihood, dtype=float)
        prior.flags.writeable = False
        lik.flags.writeable = False
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "likelihood", lik)
        _validate_distribution(prior, "prior", _PROB_TOL)
        if lik.ndim != 2 or lik.shape[0] != prior.size:
            raise ValueError("likelihood must be a d x m table matching the prior")
        for y in range(lik.shape[0]):
            _validate_distribution(lik[y], f"likelihood row {y}", _PROB_TOL)

    @classmethod
    def binary_noisy(cls, alpha: float, beta: float) -> "InformationModel":
        """Binary outcome with prior ``alpha`` on outcome 1 and flip noise ``beta``."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if not 0.0 <= beta <= 0.5:
            raise ValueError(f"beta must lie in [0, 1/2], got {beta}")
        prior = np.array([1.0 - alpha, alpha])
        likelihood = np.array([[1.0 - beta, beta], [beta, 1.0 - beta]])
        return cls(prior, likelihood)

    @classmethod
    def from_config(cls, cfg: dict) -> "InformationModel":
        """Parse ``{kind: "binary_noisy", alpha, beta}`` or ``{kind: "table", ...}``.

        A key the kind does not read is a ValueError, except the legacy
        ``num_agents``, which is accepted and ignored.
        """
        if not isinstance(cfg, dict):
            raise ValueError(f"model config must be an object, got {cfg!r}")
        kind = cfg.get("kind")
        keys = {"binary_noisy": ("alpha", "beta"),
                "table": ("prior", "likelihood")}.get(kind)
        if keys is None:
            raise ValueError(f"unknown model kind {kind!r}")
        reject_unknown_keys(f"{kind} model", cfg, ("kind", "num_agents") + keys)
        require_keys(f"{kind} model", cfg, keys)
        if kind == "binary_noisy":
            return cls.binary_noisy(float(cfg["alpha"]), float(cfg["beta"]))
        return cls(np.asarray(cfg["prior"], float),
                   np.asarray(cfg["likelihood"], float))

    @property
    def num_outcomes(self) -> int:
        return self.prior.size

    @property
    def num_signal_values(self) -> int:
        return self.likelihood.shape[1]

    def prior_belief(self) -> Belief:
        return Belief(self.prior.copy())


@dataclass(frozen=True)
class ScoreSequence:
    """Expected score gains ``v_0 = 0 <= v_1 <= ... <= v_n`` after k reports."""

    values: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("a score sequence needs at least v_0")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"score sequence values must be finite, got {values}")
        if values[0] != 0.0:
            raise ValueError(f"v_0 must be exactly 0, got {values[0]!r}")
        if np.any(np.diff(values) < -1e-12):
            raise ValueError("score sequence must be nondecreasing: more reports "
                             "cannot lower the expected proper score")

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])

    @cached_property
    def deltas(self) -> np.ndarray:
        """Marginal gains ``v_{k+1} - v_k``, computed once and read-only."""
        deltas = np.diff(self.values)
        deltas.flags.writeable = False
        return deltas


def posterior(model: InformationModel, signals) -> Belief:
    """Exact Bayes posterior over outcomes given observed signal values.

    The result is invariant to the order of ``signals`` because they are
    conditionally independent.  Each step renormalizes, as
    ``belief.fold_path`` does, so arbitrarily many signals never underflow.

    This loop is kept apart from ``fold_path`` on purpose: it is the
    independent Bayes reference that market folds (``apply_report``, the
    batch and sequential settlements) are checked against, so it must not
    share their code.
    """
    m = model.num_signal_values
    weights = model.prior
    for x in signals:
        if not 0 <= x < m:
            raise ValueError(f"signal value {x} outside the table with {m} columns")
        weights = weights * model.likelihood[:, x]
        total = weights.sum()
        if total <= 0:
            raise ValueError("signals are jointly impossible under this model")
        weights = weights / total
    return Belief(weights)


def expected_base_score(model: InformationModel, rule: ScoringRule) -> float:
    """Self-expected score of the prior, the additive constant in welfare."""
    return expected_score(rule, model.prior)


def _count_vectors(m: int, n: int) -> np.ndarray:
    """Every vector of m nonnegative signal counts with total at most n, one per row."""
    counts = np.zeros((1, 0), dtype=np.int64)
    for _ in range(m):
        room = n + 1 - counts.sum(axis=1)
        rows = np.repeat(np.arange(len(counts)), room)
        nxt = np.arange(rows.size) - np.repeat(np.cumsum(room) - room, room)
        counts = np.column_stack([counts[rows], nxt])
    return counts


def _count_weights(counts: np.ndarray, lik: np.ndarray) -> np.ndarray:
    """P(count vector | y) for i.i.d. draws from row y of the d x m table
    ``lik``: one log-space multinomial per row of ``counts`` and column y."""
    k = counts.sum(axis=1)
    log_multinomial = gammaln(k + 1.0) - gammaln(counts + 1.0).sum(axis=1)
    # 0 * log 0 is 0: an unseen value costs nothing, a seen impossible one zeroes the row
    log_lik = counts @ np.log(np.where(lik > 0, lik, 1.0)).T
    weights = np.exp(log_multinomial[:, None] + log_lik)
    weights[counts @ (lik == 0).T > 0] = 0.0
    return weights


def _mean_self_scores(model: InformationModel, rule: ScoringRule, n: int) -> np.ndarray:
    """E[self-expected score after k signals] for k = 0..n, by count vector.

    The posterior after k conditionally i.i.d. signals depends only on how
    often each value was seen.  Each k's sum is divided by its total weight
    (1 up to rounding), which keeps saturated sequences nondecreasing.
    """
    counts = _count_vectors(model.num_signal_values, n)
    k = counts.sum(axis=1)
    joint = _count_weights(counts, model.likelihood) * model.prior
    mass = joint.sum(axis=1)
    scores = expected_score(rule, joint / np.where(mass > 0, mass, 1.0)[:, None])
    return (np.bincount(k, weights=mass * scores, minlength=n + 1)
            / np.bincount(k, weights=mass, minlength=n + 1))


def v_sequence(model: InformationModel, rule: ScoringRule, n: int) -> ScoreSequence:
    """Expected score gains after k = 0..n truthful reports, exactly.

    Enumerates the C(n+m, m) signal count vectors with total at most n (286
    for m = 3, n = 10) instead of m^k tuples, within :data:`ENUMERATION_BUDGET`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = model.num_signal_values
    terms = math.comb(n + m, m)
    if terms > ENUMERATION_BUDGET:
        raise CapacityError(
            f"{terms} signal count vectors (m = {m}, n = {n}) exceed the "
            f"exact-enumeration budget of {ENUMERATION_BUDGET}; estimate the "
            f"score sequence by simulation (infomarkets.montecarlo) instead")
    means = _mean_self_scores(model, rule, n)
    return ScoreSequence(means - means[0])
