"""The fair batch market: aggregate all reports, pay leave-one-out gains.

Every agent is rewarded as if they had reported last:

    r_k = S(p_all, y*) - S(p_without_k, y*)

where p_without_k folds everyone's report but agent k's.  Because odds
updates commute, this equals the randomized construction that draws a
permutation ending in k and pays the final score difference, with the
randomness gone: :func:`settle_batch` is deterministic, and it settles
every batch here, whether one recorded batch (:func:`fpm_run`) or every
realization of an exact expectation (:func:`fpm_expected_reward`, which
enumerates signal count vectors as ``v_sequence`` does).

Rewards may be negative; an agent whose report degrades the belief others
built pays for it, which is what makes misreporting strictly unprofitable.
"""
import math
from dataclasses import dataclass

import numpy as np

from .belief import _state_table, fold_path, report_column
from .errors import CapacityError
from .info_model import (ENUMERATION_BUDGET, Belief, InformationModel,
                         _check_count, _count_table, _count_weights)
from .numerics import _log_factorials
from .scoring import ScoringRule, score

#: report-column entries (batches x agents x outcomes) settled at once: a
#: Monte Carlo chunk's trials, or a block of :func:`fpm_expected_reward`'s
#: (row, outcome) pairs.  Traced peaks (``tracemalloc``, draws included):
#: 1.9 / 4.4 MiB for an fpm / mvp ``simulate`` at n = 2, whose agent-major
#: books (0.75 MiB) the statistics reduce in place; 4.0 MiB for a paired mvp
#: deviation at n = 2; 1.9 / 4.3 MiB for fpm / mvp at n = 32; and 9.4 MiB
#: for 300 agents with 40-valued signals, settled by folds.  A chunk
#: gathered from a Monte Carlo score table holds a few integer keys and
#: gathered scores per trial and agent, no belief paths
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class BatchOutcomeReport:
    """One settlement input: n reports (index-aligned to agents) and the outcome.

    Agents without a signal appear explicitly with the 1/2 vector rather
    than being omitted, so reward vectors stay index-aligned.
    """

    reports: tuple
    outcome: int

    def __post_init__(self):
        object.__setattr__(self, "reports", tuple(self.reports))
        if len(self.reports) < 1:
            raise ValueError("a batch needs at least one report slot")

    @property
    def num_agents(self) -> int:
        return len(self.reports)


@dataclass(frozen=True)
class FpmResult:
    aggregated: Belief
    rewards: np.ndarray

    def __post_init__(self):
        rewards = np.asarray(self.rewards, dtype=float)
        rewards.flags.writeable = False
        object.__setattr__(self, "rewards", rewards)
        if not np.all(np.isfinite(rewards)):
            raise ValueError(f"non-finite rewards {rewards}; use a scoring rule "
                             "that stays finite on reachable beliefs")


def settle_batch(prior, columns, y, rule: ScoringRule):
    """Aggregated beliefs and leave-one-out rewards of T batches at once.

    ``columns[k, t]`` is agent k's likelihood column in batch t, whose
    outcome is ``y[t]``.  Agent k's leave-one-out belief joins the forward
    fold of the reports before k with the backward fold of the reports
    after k, so no report is ever divided out.  Returns
    ``(aggregated[T, d], rewards[n, T])``.
    """
    columns = np.asarray(columns, dtype=float)
    forward = fold_path(prior, columns)
    backward = fold_path(np.ones(columns.shape[-1]), columns[:0:-1])
    without = fold_path(forward[:-1], backward[::-1][None])[1]
    with np.errstate(invalid="ignore"):  # a logarithmic -inf - -inf: callers refuse the NaN
        rewards = score(rule, forward[-1], y) - score(rule, without, y)
    return forward[-1], rewards


def fpm_run(model_prior: Belief, batch: BatchOutcomeReport,
            rule: ScoringRule) -> FpmResult:
    """Settle a batch: aggregated belief plus each agent's leave-one-out reward."""
    d = model_prior.num_outcomes
    _check_count("outcome", batch.outcome, 0, d - 1)
    columns = np.array([report_column(r, d) for r in batch.reports])
    aggregated, rewards = settle_batch(model_prior.probs, columns[:, None],
                                       np.array([batch.outcome]), rule)
    return FpmResult(Belief(aggregated[0]), rewards[:, 0])


def fpm_expected_reward(model: InformationModel, rule: ScoringRule,
                        effort_profile, report_override=None) -> np.ndarray:
    """Exact expected reward per agent when agent i has a signal w.p. q_i.

    Truthful agents sharing q are interchangeable: each such class is
    enumerated by the count vectors of its m + 1 states (no signal, then
    each value), whose signal counts are read from
    ``info_model._count_table``, and each agent earns their class's mean
    slot reward.  The classes combine as a Cartesian product whose rows,
    times n agents, must fit :data:`ENUMERATION_BUDGET`.
    :func:`settle_batch` settles the (row, outcome) pairs of positive
    weight in blocks of :data:`_CHUNK_ELEMENTS` report-column entries, so
    its scratch does not grow with the rows or the outcomes.
    ``report_override`` maps an agent (a class of their own) to a report
    function ``f(signal or None) -> report``; that is how deviation losses
    are measured exactly.  Reports no belief can fold together, and under
    the logarithmic rule a report that rules out an outcome that occurs,
    raise ``ValueError``.
    """
    q = np.asarray(effort_profile, dtype=float)
    if q.ndim != 1 or q.size == 0 or not np.all((q >= 0) & (q <= 1)):
        raise ValueError(f"signal probabilities q must be a nonempty list of "
                         f"values in [0, 1], got {q}")
    override = report_override or {}
    d, m, n = model.num_outcomes, model.num_signal_values, q.size
    unknown = set(override) - set(range(n))
    if unknown:
        try:
            unknown = sorted(unknown)
        except TypeError:  # keys of types that do not compare
            unknown = sorted(unknown, key=repr)
        raise ValueError(f"report_override names agents {unknown} outside 0..{n - 1}")
    for agent in override:  # each equals an agent index; refuse True and 1.0
        _check_count("report_override key", agent, 0)
    classes = {}
    for i in range(n):
        classes.setdefault((i,) if i in override else float(q[i]), []).append(i)
    sizes = [math.comb(len(agents) + m, m) for agents in classes.values()]
    rows = math.prod(sizes)
    if rows * n > ENUMERATION_BUDGET:
        raise CapacityError(f"{rows} count-vector rows x {n} agents exceed the "
                            f"exact-enumeration budget of {ENUMERATION_BUDGET}; "
                            f"estimate rewards with infomarkets.montecarlo.simulate")
    truthful = _state_table(model)
    joint = np.tile(model.prior, (rows, 1))
    columns = []
    for (key, agents), idx in zip(classes.items(),
                                  np.indices(sizes).reshape(-1, rows)):
        size, qc = len(agents), q[agents[0]]
        # the signal counts of at most ``size`` agents; the rest saw no signal
        signals, seen, _ = _count_table(m, size)
        counts = np.column_stack([size - seen, signals])
        log_fact = _log_factorials(size)
        joint *= _count_weights(counts, log_fact[size] - log_fact[counts].sum(axis=1),
                                np.column_stack([np.full(d, 1.0 - qc),
                                                 qc * model.likelihood]))[idx]
        cols = truthful if isinstance(key, float) else _state_table(model, override[key[0]])
        # the class's slots hold each state as often as its count vector says
        states = np.repeat(np.tile(np.arange(m + 1), len(counts)), counts.ravel())
        columns.append(cols[states.reshape(-1, size)[idx]].swapaxes(0, 1))
    columns = np.concatenate(columns)
    row, y = np.nonzero(joint > 0)
    # settle_batch's agent-major layout, so that the product below reads the
    # layout, and so the bits, of one settle_batch call on every pair
    rewards = np.empty((n, row.size))
    block = max(1, _CHUNK_ELEMENTS // (n * d))
    for start in range(0, row.size, block):
        pairs = slice(start, start + block)
        rewards[:, pairs] = settle_batch(model.prior, columns[:, row[pairs]],
                                         y[pairs], rule)[1]
    if not np.all(np.isfinite(rewards)):
        # the prior and the truthful columns are positive at every pair of
        # positive weight: only an override's report can rule its outcome out
        agents = [i for members in classes.values() for i in members]
        who = [agents[k] for k in range(n) if np.any(columns[k, row, y] == 0)]
        raise ValueError(f"the reports of agents {who} give probability 0 to an outcome "
                         f"that occurs, which the {rule.kind} rule scores -inf")
    slot_rewards = joint[row, y] @ rewards.T
    out, start = np.empty(n), 0
    for agents in classes.values():
        out[agents] = slot_rewards[start:start + len(agents)].mean()
        start += len(agents)
    return out
