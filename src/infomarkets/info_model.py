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
The count vectors, their totals and log-multinomial coefficients come
from one table per signal count (:func:`_count_table`), listed by total
so that every smaller n reads a prefix.
"""
import math
import numbers
import threading
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
    """Refuse ``vec`` as ``what`` unless it lists at least ``least`` finite
    probabilities within ``tol`` of [0, 1] that sum to 1 within ``tol``.

    Every check reads one of three reductions: a NaN entry makes the min
    NaN, and an infinite one makes the min or the max infinite.
    """
    if vec.ndim != 1 or vec.size < least:
        raise ValueError(f"{what} must list at least {least} probabilities, got {vec}")
    lo, hi, total = float(vec.min()), float(vec.max()), float(vec.sum())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} has non-finite entries: {vec}")
    if lo < -tol or hi > 1 + tol:
        raise ValueError(f"{what} has entries outside [0, 1]: {vec}")
    if abs(total - 1.0) > tol:
        raise ValueError(f"{what} sums to {total!r}, not 1")


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
    """Every vector of m nonnegative signal counts with total at most n, one
    per row, by total and then lexicographically: the rows for a smaller n
    are a prefix.

    Built one leading coordinate at a time: the vectors of total t are, for
    c = 0..t, c followed by the shorter vectors of total t - c, which are
    one contiguous block (a shell) of the shorter table.
    """
    if m == 0:
        return np.zeros((1, 0), dtype=np.int64)
    if m == 1:
        return np.arange(n + 1, dtype=np.int64)[:, None]
    total, lead = np.tril_indices(n + 1)  # the pairs (t, c), c = 0..t, by t and then c
    rest = total - lead
    counts = np.stack([lead, rest], axis=1)
    shell = np.arange(1, n + 2)  # rows of each total in ``counts``
    for _ in range(2, m):
        size = shell[rest]
        first = np.cumsum(shell) - shell  # each shell's first row in ``counts``
        out_first = np.cumsum(size) - size
        src = np.arange(out_first[-1] + size[-1]) + np.repeat(first[rest] - out_first, size)
        grown = np.empty((src.size, counts.shape[1] + 1), dtype=np.int64)
        grown[:, 0] = np.repeat(lead, size)
        grown[:, 1:] = counts[src]
        counts, shell = grown, np.cumsum(shell)
    return counts


#: per signal count m, the table ``(counts, totals, log_multinomials)`` of
#: every count vector up to the largest total asked for yet, in
#: :func:`_count_vectors`' order; read-only, replaced, never written, under the lock
_count_tables = {}
_count_lock = threading.Lock()


def _count_table(m: int, n: int) -> tuple:
    """Read-only views of the count vectors of m values with total at most
    n, their totals and the log-multinomials ``log(total! / prod(counts!))``,
    prefixes of one table per m that grows on demand."""
    rows = math.comb(n + m, m)
    table = _count_tables.get(m)
    if table is None or len(table[0]) < rows:
        with _count_lock:
            table = _count_tables.get(m)
            if table is None or len(table[0]) < rows:
                counts = _count_vectors(m, n)
                totals = counts.sum(axis=1)
                log_fact = _log_factorials(n)
                table = (counts, totals, log_fact[totals] - log_fact[counts].sum(axis=1))
                for part in table:
                    part.flags.writeable = False
                _count_tables[m] = table
    return tuple(part[:rows] for part in table)


def _count_weights(counts: np.ndarray, log_multinomial: np.ndarray,
                   lik: np.ndarray) -> np.ndarray:
    """P(count vector | y) for i.i.d. draws from row y of the d x m table
    ``lik``: one log-space multinomial per row of ``counts`` and column y,
    given each row's log-multinomial coefficient."""
    log_lik = counts @ np.log(np.where(lik > 0, lik, 1.0)).T
    weights = np.exp(log_multinomial[:, None] + log_lik)
    # 0 * log 0 is 0: an unseen value costs nothing, a seen impossible one zeroes the row
    impossible = lik == 0
    if impossible.any():
        weights[counts @ impossible.T > 0] = 0.0
    return weights


def _mean_self_scores(model: InformationModel, rule: ScoringRule, n: int) -> np.ndarray:
    """E[self-expected score after k signals] for k = 0..n, by count vector.

    The posterior after k conditionally i.i.d. signals depends only on how
    often each value was seen.  Each k's sum is divided by its total weight
    (1 up to rounding), which keeps saturated sequences nondecreasing.
    """
    counts, k, log_multinomial = _count_table(model.num_signal_values, n)
    joint = _count_weights(counts, log_multinomial, model.likelihood) * model.prior
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
