"""The fair batch market: aggregate all reports, pay leave-one-out gains.

Every agent is rewarded as if he had reported last:

    r_k = S(p_all, y*) - S(p_without_k, y*)

where p_without_k folds everyone's report but agent k's.  Because odds
updates commute, this equals the randomized construction that draws a
permutation ending in k and pays the final score difference, with the
randomness gone: :func:`fpm_run` is deterministic, and
:func:`fpm_run_sampled_permutation` keeps the literal randomized form as a
test oracle.

Rewards may be negative; an agent whose report degrades the belief others
built pays for it, which is what makes misreporting strictly unprofitable.
"""
import itertools
from dataclasses import dataclass, field

import numpy as np

from .belief import (ReportVector, apply_report, fold_path, parse_report,
                     report_column, truthful_report)
from .errors import CapacityError
from .info_model import ENUMERATION_BUDGET, Belief, InformationModel
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
    ``(aggregated[T, d], rewards[T, n])``.
    """
    columns = np.asarray(columns, dtype=float)
    forward = fold_path(prior, columns)
    backward = fold_path(np.ones(columns.shape[-1]), columns[:0:-1])
    without = fold_path(forward[:-1], backward[::-1][None])[1]
    rewards = score(rule, forward[-1], y) - score(rule, without, y)
    return forward[-1], rewards.T


def fpm_run(model_prior: Belief, batch: BatchOutcomeReport,
            rule: ScoringRule) -> FpmResult:
    """Settle a batch: aggregated belief plus each agent's leave-one-out reward."""
    d = model_prior.num_outcomes
    if not 0 <= batch.outcome < d:
        raise ValueError(f"outcome {batch.outcome} outside the belief support")
    columns = np.array([report_column(r, d) for r in batch.reports])
    aggregated, rewards = settle_batch(model_prior.probs, columns[:, None],
                                       np.array([batch.outcome]), rule)
    return FpmResult(Belief(aggregated[0]), rewards[0])


def fpm_run_sampled_permutation(model_prior: Belief, batch: BatchOutcomeReport,
                                rule: ScoringRule, rng: np.random.Generator) -> FpmResult:
    """Literal randomized settlement: per agent, a random order ending with him.

    Kept as an oracle for the determinism property; agrees with
    :func:`fpm_run` because updates commute.
    """
    n = batch.num_agents
    rewards = np.empty(n)
    aggregated = None
    for k in range(n):
        order = list(rng.permutation([i for i in range(n) if i != k])) + [k]
        belief = model_prior
        before_last = None
        for j in order:
            before_last = belief
            belief = apply_report(belief, batch.reports[j])
        rewards[k] = (score(rule, belief, batch.outcome)
                      - score(rule, before_last, batch.outcome))
        aggregated = belief
    return FpmResult(aggregated, rewards)


def _signal_states(model: InformationModel, q: float):
    """(probability-given-y vector, report) for no-signal and each signal value."""
    d = model.num_outcomes
    states = [(np.full(d, 1.0 - q), ReportVector.no_signal(d))]
    for x in range(model.num_signal_values):
        report = (truthful_report(model, x) if d == 2
                  else model.likelihood[:, x])
        states.append((q * model.likelihood[:, x], report))
    return states


def fpm_expected_reward(model: InformationModel, rule: ScoringRule,
                        effort_profile, report_override=None) -> np.ndarray:
    """Exact expected reward per agent when agent i has a signal w.p. q_i.

    Enumerates (signal obtained?, signal value, outcome) jointly and
    settles every realization with truthful reports, each as one row of a
    single :func:`settle_batch` call.  ``report_override`` maps one
    agent to a replacement report function ``f(signal or None) -> report``,
    which is how deviation losses are measured exactly.
    """
    q = np.asarray(effort_profile, dtype=float)
    if np.any(q < 0) or np.any(q > 1):
        raise ValueError("signal probabilities must lie in [0, 1]")
    n = q.size
    m = model.num_signal_values
    if (m + 1) ** n > ENUMERATION_BUDGET:
        raise CapacityError(
            f"({m}+1)^{n} signal-state tuples exceed the exact-enumeration "
            f"budget; estimate rewards with infomarkets.montecarlo.simulate")
    per_agent_states = []
    for i in range(n):
        states = _signal_states(model, q[i])
        if report_override and i in report_override:
            override = report_override[i]
            states = [(w, override(None if s == 0 else s - 1))
                      for s, (w, _) in enumerate(states)]
        per_agent_states.append(states)

    d = model.num_outcomes
    weights = np.array([[w for w, _ in states] for states in per_agent_states])
    columns = np.array([[report_column(r, d) for _, r in states]
                        for states in per_agent_states])
    combos = np.array(list(itertools.product(range(m + 1), repeat=n)))
    agents = np.arange(n)
    joint = model.prior * np.prod(weights[agents, combos], axis=1)
    rows, y = np.nonzero(joint > 0)
    _, rewards = settle_batch(model.prior, columns[agents, combos[rows]].swapaxes(0, 1),
                              y, rule)
    return joint[rows, y] @ rewards


def batch_from_json(record: dict, num_outcomes: int) -> BatchOutcomeReport:
    """Parse ``{"reports": [[...], ...], "outcome": y}``; see :func:`parse_report`."""
    reports = [parse_report(entry, num_outcomes, f"report {slot}")
               for slot, entry in enumerate(record["reports"])]
    return BatchOutcomeReport(tuple(reports), int(record["outcome"]))


def result_to_json(result: FpmResult) -> dict:
    return {"aggregated": [float(p) for p in result.aggregated.probs],
            "rewards": [float(r) for r in result.rewards]}
