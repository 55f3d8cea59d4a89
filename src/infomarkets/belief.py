"""Odds-form market updates and the likelihood-ratio report encoding.

A market maintains a belief vector; each report multiplies the odds of an
outcome by a likelihood ratio the reporter encodes as a number in (0, 1).
For binary outcome spaces this per-coordinate update is an exact Bayes
step (see :func:`truthful_report`); for three or more outcomes it is not,
because "all other outcomes" do not share one likelihood, so a report there
is the full likelihood column itself.  Either kind of report is folded by
:func:`apply_report`, one exact :func:`fold_path` step, and mechanisms
accept both.

Report entry convention: ``entries[i]`` carries the ratio for outcome
``i + 1``; outcome 0 is the residual coordinate that keeps the belief
summing to one.  An agent with nothing to say submits entries of 1/2
(likelihood ratio one), which leaves any belief unchanged.
"""
from dataclasses import dataclass, field

import numpy as np

from .info_model import Belief, InformationModel, _check_count
from .scoring import _outcome_sum

#: degenerate likelihood ratios (0 or infinite) are encoded this far inside (0, 1)
RATIO_CLAMP = 1e-12


@dataclass(frozen=True)
class ReportVector:
    """d-1 likelihood-ratio entries, each strictly inside (0, 1).

    ``clamped`` records that a degenerate ratio (a noiseless signal) was
    squeezed to the open interval; downstream analysis of noiseless models
    should prefer the score-sequence shortcut over pushing these through
    the odds update.
    """

    entries: tuple[float, ...]
    clamped: bool = field(default=False, compare=False)

    def __post_init__(self):
        entries = tuple(float(b) for b in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise ValueError("a report needs at least one entry")
        for b in entries:
            if not 0.0 < b < 1.0:
                raise ValueError(f"report entry {b!r} is not strictly inside (0, 1)")

    @classmethod
    def no_signal(cls, num_outcomes: int) -> "ReportVector":
        """The report of an agent without a signal: all entries 1/2."""
        return cls((0.5,) * (num_outcomes - 1))

    @property
    def num_outcomes(self) -> int:
        return len(self.entries) + 1


def truthful_report(model: InformationModel, signal: int) -> ReportVector:
    """Encode a signal as the report that performs its exact Bayes update.

    For a binary outcome space the entry ``b`` satisfies
    ``b/(1-b) = P(x | Y=1) / P(x | Y=0)``, so :func:`apply_report` with it
    turns any market belief P(Y=1 | evidence) into P(Y=1 | evidence, x).
    Noiseless models produce ratios of 0 or infinity; those are clamped
    just inside (0, 1) and flagged.

    With three or more outcomes the per-coordinate encoding is not an
    exact Bayes step; report the likelihood column
    ``model.likelihood[:, signal]`` itself, which :func:`apply_report` and
    the mechanisms accept.
    """
    if model.num_outcomes != 2:
        raise ValueError(
            "the likelihood-ratio encoding is exact only for binary outcome "
            "spaces; for d > 2 submit the likelihood column "
            "model.likelihood[:, signal] as the report")
    _check_count("signal", signal, 0, model.num_signal_values - 1)
    ell = model.likelihood[:, signal]
    clamped = False
    if ell[0] == 0.0 or ell[1] == 0.0:
        b = RATIO_CLAMP if ell[1] == 0.0 else 1.0 - RATIO_CLAMP
        clamped = True
    else:
        b = ell[1] / (ell[0] + ell[1])
    return ReportVector((b,), clamped=clamped)


def report_column(report, num_outcomes: int) -> np.ndarray:
    """The likelihood column a report multiplies a d-outcome belief by.

    ``report`` is either a :class:`ReportVector` (binary markets only:
    the column ``(1-b, b)``) or a nonnegative likelihood column of length
    d with a finite sum.
    """
    if isinstance(report, ReportVector):
        if report.num_outcomes != num_outcomes:
            raise ValueError(f"report covers {report.num_outcomes} outcomes, "
                             f"market has {num_outcomes}")
        if num_outcomes != 2:
            raise ValueError("per-coordinate reports are exact only for binary "
                             "markets; submit a likelihood column for d > 2")
        b = report.entries[0]
        return np.array([1.0 - b, b])
    column = np.asarray(report, dtype=float)
    if column.shape != (num_outcomes,):
        raise ValueError(f"likelihood column shape {column.shape} does not match "
                         f"a market over {num_outcomes} outcomes")
    if not np.all(np.isfinite(column)):
        raise ValueError(f"likelihood column entries must be finite, got {column.tolist()}")
    if np.any(column < 0):
        raise ValueError("likelihood column entries must be nonnegative")
    with np.errstate(over="ignore"):  # no fold_path step sums past this sum
        finite = np.isfinite(_outcome_sum(column))
    if not finite:
        raise ValueError(f"likelihood column entries must sum to a finite number, "
                         f"got {column.tolist()}")
    return column


def apply_report(belief: Belief, report) -> Belief:
    """Fold one report into a market belief.

    ``report`` is a :class:`ReportVector` (binary markets: the column
    ``(1-b, b)``, which multiplies the odds by ``b/(1-b)``) or a likelihood
    column of length d; either way it is one exact :func:`fold_path` step,
    the Bayes update by that column.  A belief of 0 or 1 stays fixed.
    """
    column = report_column(report, belief.num_outcomes)
    return Belief(fold_path(belief.probs, column[None])[1])


def _state_table(model: InformationModel, report=None) -> np.ndarray:
    """The (m + 1, d) columns reported in each signal state: row 0 without
    a signal, row 1 + x with signal x.  ``report`` maps a signal (None for
    no signal) to a report; the truthful default is a row of ones, then
    the likelihood columns."""
    if report is None:
        return np.vstack([np.ones(model.num_outcomes), model.likelihood.T])
    return np.array([report_column(report(s - 1 if s else None), model.num_outcomes)
                     for s in range(model.num_signal_values + 1)])


def fold_path(start, columns) -> np.ndarray:
    """Beliefs after folding 0, 1, .., K likelihood columns into ``start``.

    ``columns`` has shape (K, ..., d) and ``start`` broadcasts against one
    column.  Row k of the result is the belief after the first k columns
    (row 0 is ``start`` itself).  Each step multiplies by one column and
    renormalizes, so arbitrarily long products never underflow.  Raises
    ``ValueError`` when the columns leave no outcome with positive mass.
    """
    columns = np.asarray(columns, dtype=float)
    path = np.empty((columns.shape[0] + 1,
                     *np.broadcast_shapes(np.shape(start), columns.shape[1:])))
    path[0] = start
    with np.errstate(invalid="ignore"):
        for k, column in enumerate(columns):
            weights = np.multiply(path[k], column, out=path[k + 1])
            weights /= _outcome_sum(weights)[..., None]
    _require_support(np.isfinite(path[-1]))
    return path


def _require_support(folded) -> None:
    """Refuse folded reports that left no outcome with positive mass: ``folded``
    is false wherever a fold came out NaN."""
    if not np.all(folded):
        raise ValueError("the folded reports have disjoint support; the reported "
                         "evidence is inconsistent with the market state")
