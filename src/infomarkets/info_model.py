"""Conditionally i.i.d. information structures and exact score expectations.

An :class:`InformationModel` couples an outcome prior with a per-signal
likelihood table; every agent draws their signal from the same table,
independently conditioned on the outcome.  The canonical special case is
the binary noisy model: outcome 1 has prior probability ``alpha`` and each
signal equals the outcome with probability ``1 - beta``.

On top of the model this module computes, by exact enumeration over the
count vectors of signal values, the expected-score sequence ``v_0 .. v_n``:
how much the self-expected proper score of the market belief rises after k
truthful reports.  That sequence is the single input through which the
information structure enters every equilibrium computation downstream.
Each count vector's multinomial weight is taken in log space from
:func:`numerics._log_factorials`.
"""
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError
from .numerics import _log_factorials
from .scoring import ScoringRule, _outcome_sum, expected_score

#: most terms an exact enumeration may visit: signal count vectors in
#: :func:`v_sequence`, enumerated rows times agents (the report columns
#: it stacks) in ``fpm_expected_reward``
ENUMERATION_BUDGET = 10 ** 6

_PROB_TOL = 1e-12


def _validate_distribution(vec: np.ndarray, what: str, tol: float, least: int = 1) -> None:
    if vec.ndim != 1 or vec.size < least:
        raise ValueError(f"{what} must list at least {least} probabilities, got {vec}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{what} has non-finite entries: {vec}")
    if np.any(vec < -tol) or np.any(vec > 1 + tol):
        raise ValueError(f"{what} has entries outside [0, 1]: {vec}")
    if abs(vec.sum() - 1.0) > tol:
        raise ValueError(f"{what} sums to {float(vec.sum())!r}, not 1")


@dataclass(frozen=True)
class Belief:
    """A probability vector over the d outcomes; the market state."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        _validate_distribution(probs, "belief", 1e-10, least=2)

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
        try:
            lik = np.asarray(self.likelihood, dtype=float)
        except ValueError:  # ragged rows
            lik = np.empty(0)
        prior.flags.writeable = False
        lik.flags.writeable = False
        object.__setattr__(self, "prior", prior)
        _validate_distribution(prior, "prior", _PROB_TOL, least=2)
        if lik.ndim != 2 or lik.shape[0] != prior.size:
            raise ValueError(f"likelihood must be a d x m table matching the prior, "
                             f"got {self.likelihood!r}")
        object.__setattr__(self, "likelihood", lik)
        for y in range(lik.shape[0]):
            _validate_distribution(lik[y], f"likelihood row {y}", _PROB_TOL)

    @classmethod
    def binary_noisy(cls, alpha: float, beta: float) -> "InformationModel":
        """Binary outcome with prior ``alpha`` on outcome 1 and flip noise ``beta``."""
        _check_nonnegative("alpha", alpha, 1.0)
        _check_nonnegative("beta", beta, 0.5)
        prior = np.array([1.0 - alpha, alpha])
        likelihood = np.array([[1.0 - beta, beta], [beta, 1.0 - beta]])
        return cls(prior, likelihood)

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
            raise ValueError(f"v_0 must be exactly 0, got {values[0]}")
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


def _check_count(name: str, value, least: int, most: int | None = None) -> None:
    """Refuse a bool, or anything but an integer from ``least`` to ``most``, as ``name``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or most is not None and value > most):
        bound = "" if most is None else f" and at most {most}"
        raise ValueError(f"{name} must be an integer of at least {least}{bound}, got {value!r}")


def _check_nonnegative(name: str, value, most: float = math.inf) -> None:
    """Refuse a bool, or anything but a finite number in [0, ``most``], as ``name``.
    Comparisons only, as every public evaluator call runs it; NaN fails them all."""
    if not (0 <= value <= most and value < math.inf) or isinstance(value, bool):
        bound = "" if most == math.inf else f" at most {most}"
        raise ValueError(f"{name} must be a finite nonnegative number{bound}, got {value!r}")


def _check_nonnegative_array(name: str, values) -> np.ndarray:
    """``values`` as a float array; refuse it as ``name`` unless every entry
    is nonnegative, +inf included.  NaN fails the comparison."""
    values = np.asarray(values, dtype=float)
    if not (values >= 0).all():
        raise ValueError(f"{name} must be nonnegative in every entry (+inf allowed), "
                         f"got {values}")
    return values


def _check_inputs(v: ScoreSequence, n: int, least: int = 1) -> None:
    """An evaluator's ``n``, an integer of at least ``least``, and ``v`` holding v_0..v_n."""
    _check_count("n", n, least)
    if len(v) < n + 1:
        raise ValueError(f"need v_0..v_{n}, got {len(v)} values")


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
        _check_count("signal", x, 0, m - 1)
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
    log_fact = _log_factorials(int(k.max()))
    log_multinomial = log_fact[k] - log_fact[counts].sum(axis=1)
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
    mass = _outcome_sum(joint)
    scores = expected_score(rule, joint / np.where(mass > 0, mass, 1.0)[:, None])
    return (np.bincount(k, weights=mass * scores, minlength=n + 1)
            / np.bincount(k, weights=mass, minlength=n + 1))


def v_sequence(model: InformationModel, rule: ScoringRule, n: int) -> ScoreSequence:
    """Expected score gains after k = 0..n truthful reports, exactly.

    Enumerates the C(n+m, m) signal count vectors with total at most n (286
    for m = 3, n = 10) instead of m^k tuples, within :data:`ENUMERATION_BUDGET`.
    """
    _check_count("n", n, 0)
    m = model.num_signal_values
    terms = math.comb(n + m, m)
    if terms > ENUMERATION_BUDGET:
        raise CapacityError(
            f"{terms} signal count vectors (m = {m}, n = {n}) exceed the "
            f"exact-enumeration budget of {ENUMERATION_BUDGET}; estimate the "
            f"score sequence by simulation (infomarkets.montecarlo) instead")
    means = _mean_self_scores(model, rule, n)
    return ScoreSequence(means - means[0])
