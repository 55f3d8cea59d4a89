"""The fair batch market: aggregate all reports, pay leave-one-out gains.

Every agent is rewarded as if they had reported last:

    r_k = S(p_all, y*) - S(p_without_k, y*)

where p_without_k folds everyone's report but agent k's.  Because odds
updates commute, this equals the randomized construction that draws a
permutation ending in k and pays the final score difference, with the
randomness gone: :func:`settle_batch` is deterministic, and it settles
a recorded batch (:func:`fpm_run`).  The exact expectation
(:func:`fpm_expected_reward`) reads the same differences from the
count-vector score table the simulator settles by.

Rewards may be negative; an agent whose report degrades the belief others
built pays for it, which is what makes misreporting strictly unprofitable.
"""
from dataclasses import dataclass

import numpy as np

from .belief import (_TABLE_ENTRIES, _require_support, _score_table, _state_table,
                     fold_path, report_column)
from .errors import CapacityError
from .info_model import Belief, InformationModel, _check_count
from .scoring import ScoringRule, score


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
        rewards = np.array(self.rewards, dtype=float)  # a copy: the caller's stays writable
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

    Agent i's reward is S(N + e_i) - S(N), N the count vector of the other
    agents' report columns, read from the score table the simulator settles
    by (``belief._score_table``).  Agents sharing q and a report policy
    are interchangeable, so per such class one member's expectation is
    taken over the exact law of N given each outcome, built one other
    agent at a time (a Poisson-multinomial pass), and only terms of
    positive weight are read.  ``report_override`` maps an agent (a class
    of their own) to a report function ``f(signal or None) -> report``;
    that is how deviation losses are measured exactly.  A profile whose
    table exceeds ``belief._TABLE_ENTRIES`` entries raises
    ``CapacityError``.  Reports no belief can fold together, and under the
    logarithmic rule a report that rules out an outcome that occurs, raise
    ``ValueError``.
    """
    q = np.asarray(effort_profile, dtype=float)
    if q.ndim != 1 or q.size == 0 or not np.all((q >= 0) & (q <= 1)):
        raise ValueError(f"signal probabilities q must be a nonempty list of "
                         f"values in [0, 1], got {q}")
    override = report_override or {}
    d, n = model.num_outcomes, q.size
    unknown = set(override) - set(range(n))
    if unknown:
        try:
            unknown = sorted(unknown)
        except TypeError:  # keys of types that do not compare
            unknown = sorted(unknown, key=repr)
        raise ValueError(f"report_override names agents {unknown} outside 0..{n - 1}")
    for agent in override:  # each equals an agent index; refuse True and 1.0
        _check_count("report_override key", agent, 0)
    tables = np.stack([_state_table(model)] + [_state_table(model, f) for f in override.values()])
    holder = np.zeros(n, dtype=np.intp)
    holder[list(override)] = np.arange(1, len(tables))
    scored = _score_table(model, rule, tables, holder)
    if scored is None:
        raise CapacityError(f"the score table of {n} agents exceeds {_TABLE_ENTRIES} "
                            f"entries (count vectors x outcomes); estimate rewards "
                            f"with infomarkets.montecarlo.simulate")
    steps, scores = scored
    steps = steps.reshape(n, -1)
    # P(state | y) of each agent: no signal, then each signal value
    chance = np.concatenate([np.broadcast_to(1.0 - q[:, None, None], (n, 1, d)),
                             q[:, None, None] * model.likelihood.T], axis=1)
    classes = {}
    for i in range(n):
        classes.setdefault((q[i], holder[i]), []).append(i)
    out = np.empty(n)
    for agents in classes.values():
        i = agents[0]
        law = np.zeros((len(scores) // d, d))  # P(N = key, y), as scores[key + y]
        law[0] = model.prior
        for j in np.flatnonzero(np.arange(n) != i):
            law, moved = np.zeros(law.shape), law
            for step, p in zip(steps[j] // d, chance[j]):
                law[step:] += moved[:len(moved) - step] * p
        reward = 0.0
        for step, p in zip(steps[i], chance[i]):
            weight = (law * p).ravel()
            key = np.flatnonzero(weight > 0)
            full = scores[key + step]
            _require_support(not np.isnan(full.sum()))  # a NaN score carries into the sum
            with np.errstate(invalid="ignore"):  # a logarithmic -inf - -inf: refused below
                reward += weight[key] @ (full - scores[key])
        out[agents] = reward
    if not np.all(np.isfinite(out)):
        # the prior and the truthful columns are positive wherever an outcome
        # and a state occur together: only an override's report rules one out
        who = np.flatnonzero(np.any((chance * model.prior > 0) & (tables[holder] == 0),
                                    axis=(1, 2)))
        raise ValueError(f"the reports of agents {who.tolist()} give probability 0 to an "
                         f"outcome that occurs, which the {rule.kind} rule scores -inf")
    return out
