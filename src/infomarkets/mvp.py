"""The sequential market: marginal-value rewards under time-decaying value.

The market belief is a piecewise-constant path updated by timed reports.
Agent i's counterfactual path is the path of the same stream without
agent i's report.  After the outcome reveals, agent i earns the
time-weighted integral of his marginal contribution:

    r_i = integral over t > 0 of (S(p(t), y*) - S(p~i(t), y*)) h(t) dt

where h is the time-value density.  The integral runs over the whole
timeline with no truncation: both kinds of h have an exact mass beyond
any t (:meth:`TimeValue.tail`), so every segment mass is exact.

Reports are folded in time order; simultaneous timestamps (possible in
input files, never under continuous latencies) are broken by agent index,
which cannot affect rewards because tied segments have zero width.
"""
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .belief import fold_path, parse_report, report_column
from .errors import ProtocolError, reject_unknown_keys, require_keys
from .info_model import Belief
from .scoring import ScoringRule, score


@dataclass(frozen=True)
class TimeValue:
    """How much belief quality at time t is worth: a density h(t) on t > 0.

    The exponential kind ``h(t) = eta * exp(-eta * t)`` integrates to one.
    The table kind interpolates a sampled density linearly between knots
    (zero outside them); a narrow table around D is a deadline at D.  Both
    kinds have exact interval masses, see :meth:`tail`.
    """

    kind: str = "exponential"
    eta: float = 1.0
    times: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "exponential":
            if not 0 < self.eta < math.inf:
                raise ValueError(f"decay rate eta must be finite and positive, "
                                 f"got {self.eta}")
        elif self.kind == "table":
            if self.times is None or self.values is None:
                raise ValueError("table kind needs times and values")
            times = tuple(float(t) for t in self.times)
            values = tuple(float(v) for v in self.values)
            object.__setattr__(self, "times", times)
            object.__setattr__(self, "values", values)
            if len(times) != len(values) or len(times) < 2:
                raise ValueError("times and values must align with >= 2 knots")
            # written so that NaN, which compares false, fails each test
            if not (0 <= times[0] and times[-1] < math.inf
                    and all(t0 < t1 for t0, t1 in zip(times, times[1:]))):
                raise ValueError(f"times must be finite and strictly increasing "
                                 f"from >= 0, got {times}")
            if not all(0 <= v < math.inf for v in values) or not any(values):
                raise ValueError(f"density values must be finite and nonnegative, "
                                 f"not all zero, got {values}")
        else:
            raise ValueError(f"unknown time-value kind {self.kind!r}")

    @classmethod
    def exponential(cls, eta: float) -> "TimeValue":
        return cls("exponential", eta=eta)

    @classmethod
    def table(cls, times, values) -> "TimeValue":
        return cls("table", times=tuple(times), values=tuple(values))

    @classmethod
    def from_config(cls, cfg: dict) -> "TimeValue":
        if isinstance(cfg, (int, float)):
            return cls.exponential(float(cfg))
        if cfg.get("kind", "exponential") == "exponential":
            reject_unknown_keys("exponential time value", cfg, ("kind", "eta"))
            return cls.exponential(float(cfg.get("eta", 1.0)))
        reject_unknown_keys("table time value", cfg, ("kind", "times", "values"))
        require_keys("table time value", cfg, ("times", "values"))
        return cls.table(cfg["times"], cfg["values"])

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Table kind: read-only knot times, values, and the trapezoid mass
        below each knot, built on first use and shared by every call."""
        x, y = np.array(self.times), np.array(self.values)
        below = np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2)])
        for a in (x, y, below):
            a.flags.writeable = False
        return x, y, below

    def density(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            out = self.eta * np.exp(-self.eta * t)
        else:
            x, y, _ = self._knots
            out = np.interp(t, x, y, left=0.0, right=0.0)
        return float(out) if out.ndim == 0 else out

    def tail(self, t) -> np.ndarray:
        """The exact mass of h beyond t, elementwise; t may be infinite.

        A linear interpolant integrates exactly: trapezoid sums up to the
        knot x_j below t, plus ``(t - x_j) * (h(x_j) + h(t)) / 2``.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            return np.exp(-self.eta * t)
        x, y, below = self._knots
        inside = np.clip(t, x[0], x[-1])
        j = np.clip(np.searchsorted(x, inside, side="right") - 1, 0, x.size - 2)
        partial = (inside - x[j]) * (y[j] + np.interp(inside, x, y)) / 2
        return np.where(t < x[-1], below[-1] - below[j] - partial, 0.0)


def time_value_mass(h: TimeValue, a, b):
    """Interval masses of the time-value density, integral of h over [a, b].

    ``a`` and ``b`` broadcast elementwise; either may be infinite.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(a > b):
        raise ValueError(f"empty interval [{a}, {b}]")
    out = h.tail(a) - h.tail(b)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TimedReport:
    """One agent's single submission: who, when, and what."""

    agent: int
    time: float
    report: object

    def __post_init__(self):
        if self.agent < 0:
            raise ValueError(f"agent index must be nonnegative, got {self.agent}")
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"report time must be finite and >= 0, got {self.time}")


@dataclass(frozen=True)
class MarketTrace:
    """The belief path of one settled report stream.

    ``beliefs[j]`` is in force between ``breakpoints[j-1]`` and
    ``breakpoints[j]`` (prior before the first report, final belief
    afterwards).  The path without agent i is the trace of the stream
    without i's report.
    """

    breakpoints: np.ndarray
    beliefs: np.ndarray

    def k(self, t) -> int | np.ndarray:
        """Number of reports strictly before time t (right-continuous count)."""
        out = np.searchsorted(self.breakpoints, np.asarray(t, dtype=float), side="left")
        return int(out) if out.ndim == 0 else out

    def belief_at(self, t) -> np.ndarray:
        return self.beliefs[self.k(t)]


def _segment_masses(h: TimeValue, sorted_times) -> np.ndarray:
    """h's mass on (0, t_1), (t_1, t_2), .., (t_K, inf), along axis 0.

    ``sorted_times`` is a float array of shape (K, ...), sorted along
    axis 0; an infinite time gives zero-mass segments after it.  Each mass is a
    difference of neighbouring tails, so every tail is evaluated once.
    """
    tails = np.empty((sorted_times.shape[0] + 2, *sorted_times.shape[1:]))
    tails[0] = h.tail(0.0)
    tails[1:-1] = h.tail(sorted_times)
    tails[-1] = 0.0  # tail(inf) for both kinds
    return tails[:-1] - tails[1:]


def settle_sequential(prior, columns, masses, y, rule: ScoringRule):
    """Belief paths and each slot's marginal-value reward for T report streams.

    ``columns[s, t]`` is the likelihood column of the s-th report (in time
    order) of stream t, whose outcome is ``y[t]``, and ``masses[t, j]`` is
    the time-value mass of the segment on which the belief after j reports
    is in force.  The report in slot s earns the sum over j > s of
    ``(S(p_j) - S(q_j)) * masses[t, j]``, where q is the path without it.
    That path equals the actual one up to slot s, so it is folded only
    after s, as one vectorized row update per report.  Returns
    ``(path[K+1, T, d], rewards[T, K], scores[K+1, T])``, where
    ``scores[j, t]`` is the score of the belief after j reports.
    """
    columns = np.asarray(columns, dtype=float)
    path = fold_path(prior, columns)
    s_path = score(rule, path, y)
    without = np.empty_like(path[:-1])
    rewards = np.zeros(without.shape[:-1])
    for j in range(1, path.shape[0]):
        without[:j - 1] = fold_path(without[:j - 1], columns[j - 1:j])[1]
        without[j - 1] = path[j - 1]
        rewards[:j] += (s_path[j] - score(rule, without[:j], y)) * masses[:, j]
    return path, rewards.T, s_path


def mvp_run(prior: Belief, reports: list[TimedReport], outcome: int,
            rule: ScoringRule, h: TimeValue,
            num_agents: int | None = None) -> tuple[MarketTrace, np.ndarray]:
    """Run the sequential market on a recorded report stream and settle it.

    Returns the trace (the actual belief path) and the reward of every
    agent ``0 .. num_agents-1``; agents who never reported earn 0.
    """
    d = prior.num_outcomes
    if not 0 <= outcome < d:
        raise ValueError(f"outcome {outcome} outside the belief support")
    seen = set()
    for rep in reports:
        if rep.agent in seen:
            raise ProtocolError(f"agent {rep.agent} reported twice; each agent "
                                "may report only once")
        seen.add(rep.agent)
    n = (max(seen) + 1 if seen else 0) if num_agents is None else num_agents
    if seen and max(seen) >= n:
        raise ValueError(f"agent index {max(seen)} outside 0..{n - 1}")

    ordered = sorted(reports, key=lambda r: (r.time, r.agent))
    breakpoints = np.array([r.time for r in ordered], dtype=float)
    reporters = np.array([r.agent for r in ordered], dtype=int)
    columns = np.array([report_column(r.report, d) for r in ordered]).reshape(-1, d)
    masses = _segment_masses(h, breakpoints)
    path, slot_rewards, _ = settle_sequential(prior.probs, columns[:, None],
                                              masses[None], np.array([outcome]), rule)
    rewards = np.zeros(n)
    rewards[reporters] = slot_rewards[0]
    if not np.all(np.isfinite(rewards)):
        raise ValueError("non-finite reward; the scoring rule hit a zero-probability "
                         "outcome on some segment")
    return MarketTrace(breakpoints, path[:, 0]), rewards


def reports_from_stream(lines, num_outcomes: int) -> list[TimedReport]:
    """Parse ``agent_id, time, b_1, ..., b_{d-1}`` records (one per line).

    Records with d trailing numbers are read as likelihood columns.
    """
    out = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 3:
            raise ValueError(f"line {lineno}: expected agent_id, time, entries")
        report = parse_report(parts[2:], num_outcomes, f"line {lineno}")
        out.append(TimedReport(int(parts[0]), float(parts[1]), report))
    return out


def trace_dump_rows(trace: MarketTrace):
    """Rows ``time, p_1, ..., p_d`` describing the belief path (time 0 first)."""
    yield (0.0, *map(float, trace.beliefs[0]))
    for j in range(trace.breakpoints.size):
        yield (float(trace.breakpoints[j]), *map(float, trace.beliefs[j + 1]))
