"""Agent-based sampling of the full games, vectorized over trials and agents.

One trial draws an outcome, gives each agent a shot at a signal (a
Bernoulli access draw in batch settings, an exponential arrival time in
sequential ones), applies each agent's report policy, settles the chosen
mechanism, and records rewards, costs and the principal's value.  The
per-trial books close exactly: welfare is computed as principal utility
plus the agents' utilities, so the accounting identity holds bit for bit.

Randomness comes from counter-based Philox streams keyed by (master seed,
purpose, agent) with the trial index as the counter position.  Two
consequences the tests rely on: results are bitwise independent of how the
trial range is chunked, and two runs with the same seed see identical
draws, so a deviation test compares strategies on common random numbers
and certifies harm with tiny variance.  A deviation test draws each chunk
once and settles both arms, baseline and deviant, on that one draw, and
skips the principal's value, which only the books need.

A chunk's draws are agent-major ``(n, T)`` arrays, and its kernel (built
once per profile by :func:`_kernel`) runs no Python loop over agents or
agents x signal values: signals compare each of the m - 1 thresholds
against all agents at once, and report columns come from one gather into
a per-agent table; a sequential market gathers the signal states into
time order before the table.  So the Python work per chunk does not
grow with n x m, and the chunk length is derived, not set: each chunk
settles about :data:`_CHUNK_ELEMENTS` trials x agents x outcomes
report-column entries, so scratch memory is bounded at any width.
:func:`simulate` reduces each chunk's books as soon as they are settled
(see :class:`_Moments`), so its memory does not grow with the trial count
either; only :func:`per_trial_records` keeps every trial.
"""
import math
from dataclasses import dataclass

import numpy as np

from .belief import RATIO_CLAMP, fold_path, truthful_report
from .equilibrium import LatencyFamily
from .fpm import settle_batch
from .info_model import InformationModel
from .mvp import TimeValue, _segment_masses, settle_sequential
from .pm_baseline import AccessFunction
from .scoring import ScoringRule, score

MECHANISMS = ("fpm", "mvp", "pm_batch", "pm_sequential")

#: report-column entries settled per chunk.  A chunk holds 7-12 floats of
#: scratch per entry, draws included: 4-6 MB at its peak for n = 2 to 300
#: and d = 2 or 3 (``tracemalloc``), and an n = 2 chunk's belief paths
#: (768 KB) fit in a 2 MB L2 cache
_CHUNK_ELEMENTS = 1 << 16

# purpose tags for the random streams
_OUTCOME, _LATENCY, _SIGNAL, _WINNER = 0, 1, 2, 3


@dataclass(frozen=True)
class ReportPolicy:
    """What an agent does with the report he would otherwise submit truthfully.

    ``perturbed`` shifts the binary ratio entry by ``epsilon``; ``delayed`` adds
    ``delay`` to the submission time (sequential settings only); ``silent``
    never reports.
    """

    kind: str = "truthful"
    epsilon: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in ("truthful", "perturbed", "delayed", "silent"):
            raise ValueError(f"unknown report policy {self.kind!r}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ValueError(f"delay must be finite and nonnegative, got {self.delay!r}")


TRUTHFUL = ReportPolicy()


@dataclass(frozen=True)
class StrategyProfile:
    """Per-agent efforts and report policies."""

    efforts: tuple[float, ...]
    policies: tuple[ReportPolicy, ...] = ()

    def __post_init__(self):
        efforts = tuple(float(c) for c in self.efforts)
        object.__setattr__(self, "efforts", efforts)
        if not all(math.isfinite(c) and c >= 0 for c in efforts):
            raise ValueError(f"efforts must be finite and nonnegative, got {efforts}")
        policies = tuple(self.policies) or (TRUTHFUL,) * len(efforts)
        if len(policies) != len(efforts):
            raise ValueError("one policy per agent required")
        object.__setattr__(self, "policies", policies)

    @classmethod
    def symmetric(cls, effort: float, n: int,
                  policy: ReportPolicy = TRUTHFUL) -> "StrategyProfile":
        return cls((effort,) * n, (policy,) * n)

    def replace_agent(self, i: int, effort: float | None = None,
                      policy: ReportPolicy | None = None) -> "StrategyProfile":
        efforts = list(self.efforts)
        policies = list(self.policies)
        if effort is not None:
            efforts[i] = effort
        if policy is not None:
            policies[i] = policy
        return StrategyProfile(tuple(efforts), tuple(policies))

    @property
    def num_agents(self) -> int:
        return len(self.efforts)


#: trials per block of :class:`_Moments`.  Fixed, and independent of the
#: chunk length, so the statistics depend on the trial sequence alone
_BLOCK = 1024


class _Moments:
    """Streaming means and standard errors of the rows of the books.

    The trials, fed in order, are cut into blocks of :data:`_BLOCK`; a block
    that spans two :meth:`add` calls is buffered.  Each block is a
    ``(rows, block)`` array with contiguous rows, reduced by numpy to a sum
    and a sum of squared deviations per row, and the blocks merge in trial
    order by the pairwise update of Chan, Golub and LeVeque (1979).  Memory
    stays at one block however many trials pass, and a run of fewer
    ``trials`` than a block holds only those: it is one partial block
    either way.
    """

    def __init__(self, rows: int, trials: int):
        # at least one column, so that a bad count reaches the caller's check
        self._size = min(_BLOCK, max(trials, 1))
        self._block = np.empty((rows, self._size))
        self._fill = 0
        self._count = 0
        self._sum = np.zeros(rows)
        self._m2 = np.zeros(rows)

    def add(self, *parts: np.ndarray) -> None:
        """Append the trials of ``parts``: trial-major ``(T, k)`` or ``(T,)``
        arrays, stacked as rows in order."""
        parts = [p.reshape(p.shape[0], -1) for p in parts]
        trials, done = parts[0].shape[0], 0
        while done < trials:
            take = min(self._size - self._fill, trials - done)
            cols = slice(self._fill, self._fill + take)
            row = 0
            for p in parts:
                self._block[row:row + p.shape[1], cols] = p[done:done + take].T
                row += p.shape[1]
            self._fill += take
            done += take
            if self._fill == self._size:
                self._merge(self._block)

    def _merge(self, block: np.ndarray) -> None:
        """Fold ``block`` into the running sums; it is overwritten."""
        nb = block.shape[1]
        total = block.sum(axis=1)
        block -= (total / nb)[:, None]
        np.square(block, out=block)
        m2 = block.sum(axis=1)
        na = self._count
        if na:
            delta = total / nb - self._sum / na
            m2 += delta * delta * (na * nb / (na + nb))
        self._count = na + nb
        self._sum += total
        self._m2 += m2
        self._fill = 0

    def finish(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``(trials, means, standard errors)`` of every row."""
        if self._fill:
            self._merge(self._block[:, :self._fill])
        count = self._count
        if count < 2:
            return count, self._sum / count, np.zeros_like(self._sum)
        return (count, self._sum / count,
                np.sqrt(self._m2 / (count - 1)) / math.sqrt(count))


@dataclass(frozen=True)
class SimStats:
    """Aggregates of one simulation run (per-agent arrays are agent-indexed)."""

    mechanism: str
    trials: int
    reward_mean: np.ndarray
    reward_se: np.ndarray
    cost_mean: np.ndarray
    cost_se: np.ndarray
    utility_mean: np.ndarray
    utility_se: np.ndarray
    principal_utility_mean: float
    welfare_mean: float

    @classmethod
    def from_records(cls, mechanism: str, profile: "StrategyProfile",
                     records: dict[str, np.ndarray]) -> "SimStats":
        """Reduce the books of :func:`per_trial_records` to means and standard errors."""
        return cls._reduce(mechanism, profile, [records], len(records["welfare"]))

    @classmethod
    def _reduce(cls, mechanism, profile, books, trials: int) -> "SimStats":
        """Reduce ``books``, an iterable of :func:`per_trial_records`-style
        dicts over consecutive ranges of ``trials`` trials in all, through
        one :class:`_Moments`.

        How the trials are split among the dicts never changes the result.
        """
        n = profile.num_agents
        moments = _Moments(2 * n + 2, trials)
        for chunk in books:
            moments.add(chunk["rewards"], chunk["utilities"],
                        chunk["principal_utility"], chunk["welfare"])
        trials, mean, se = moments.finish()
        costs = np.asarray(profile.efforts)
        return cls(
            mechanism=mechanism, trials=trials,
            reward_mean=mean[:n], reward_se=se[:n],
            cost_mean=costs, cost_se=np.zeros_like(costs),
            utility_mean=mean[n:2 * n], utility_se=se[n:2 * n],
            principal_utility_mean=float(mean[-2]), welfare_mean=float(mean[-1]),
        )

    def to_json(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "trials": self.trials,
            "reward_mean": self.reward_mean.tolist(),
            "reward_se": self.reward_se.tolist(),
            "cost_mean": self.cost_mean.tolist(),
            "cost_se": self.cost_se.tolist(),
            "utility_mean": self.utility_mean.tolist(),
            "utility_se": self.utility_se.tolist(),
            "principal_utility_mean": self.principal_utility_mean,
            "welfare_mean": self.welfare_mean,
        }


def _stream(seed: int, purpose: int, agent: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(int(seed), purpose, agent))))


def _report_columns(model: InformationModel, policy: ReportPolicy) -> np.ndarray:
    """Columns indexed by extended signal state (0 = no signal, 1+x = signal x).

    Truthful content is the likelihood column itself; the ratio-encoded
    binary report (1-b, b) is the same column up to scale.  Perturbation
    works in ratio space and therefore requires a binary market.
    """
    d, m = model.num_outcomes, model.num_signal_values
    cols = np.ones((m + 1, d))
    if policy.kind == "silent":
        return cols
    if policy.kind == "perturbed":
        if d != 2:
            raise ValueError("perturbed policies target the binary ratio encoding")
        for x in range(m):
            b = truthful_report(model, x).entries[0]
            b = min(max(b + policy.epsilon, RATIO_CLAMP), 1.0 - RATIO_CLAMP)
            cols[1 + x] = (1.0 - b, b)
        # a signal-less perturbed agent distorts the 1/2 default too
        b0 = min(max(0.5 + policy.epsilon, RATIO_CLAMP), 1.0 - RATIO_CLAMP)
        cols[0] = (1.0 - b0, b0)
        return cols
    cols[1:] = model.likelihood.T
    return cols


def _draw_outcomes(model: InformationModel, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(model.prior)
    return np.minimum(np.searchsorted(cum, u, side="right"),
                      model.num_outcomes - 1)


def _draw_signals(model: InformationModel, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF signal draws: how many of the first m - 1 cumulative
    likelihoods of row ``y`` lie at or below ``u`` (the m-th is 1 up to
    rounding, so leaving it out caps the index at m - 1).

    ``u`` is ``(T,)`` or agent-major ``(n, T)``: each threshold is compared
    against every agent at once.
    """
    cum = np.cumsum(model.likelihood, axis=1)
    signals = np.zeros(u.shape, dtype=np.intp)
    for j in range(model.num_signal_values - 1):
        signals += np.take(cum[:, j], y) <= u
    return signals


def _column_table(model: InformationModel, profile: StrategyProfile,
                  sequential: bool) -> np.ndarray:
    """Every agent's report column in every extended signal state, flattened.

    Row ``i * (m + 1) + s`` is agent i's column in state s (see
    :func:`_report_columns`).  In a sequential market state 0 means the
    agent never reports, so that row is the neutral column of ones.
    """
    by_policy = {p: _report_columns(model, p) for p in set(profile.policies)}
    table = np.stack([by_policy[p] for p in profile.policies])
    if sequential:
        table[:, 0] = 1.0
    return table.reshape(-1, model.num_outcomes)


def _table_rows(model: InformationModel, y: np.ndarray, u_sig: np.ndarray,
                active: np.ndarray) -> np.ndarray:
    """(n, T) rows of :func:`_column_table`: state 0 where ``active`` is
    false, else 1 + the drawn signal."""
    first = (model.num_signal_values + 1) * np.arange(u_sig.shape[0])[:, None]
    return np.where(active, first + 1 + _draw_signals(model, y, u_sig), first)


def _kernel(model, mechanism, profile, rule, access, latency, h):
    """The chunk kernel of one profile: ``settle(y, u_lat, u_sig, u_win, value)``.

    ``settle`` maps one chunk's draws (agent-major ``(n, T)`` uniforms) to
    agent-major rewards ``(n, T)`` and, if ``value``, the principal's value
    ``(T,)`` (else None).  Every per-agent constant is built here, once per
    run, so a chunk runs no Python loop over agents or signal values.
    """
    if mechanism in ("fpm", "pm_batch"):
        return _batch_kernel(model, mechanism, profile, rule, access)
    return _sequential_kernel(model, mechanism, profile, rule, latency, h)


def _batch_kernel(model, mechanism, profile, rule, access):
    q = np.array([access.value(c) for c in profile.efforts])[:, None]

    if mechanism == "pm_batch":
        speaks = np.array([p.kind != "silent" for p in profile.policies])[:, None]

        def settle(y, u_lat, u_sig, u_win, value=True):
            active = (u_lat < q) & speaks
            count = active.sum(axis=0)
            pick = np.floor(u_win * count).astype(int)  # uniform among signal holders
            wins = active & (np.cumsum(active, axis=0) == pick + 1)
            return wins.astype(float), (count > 0).astype(float) if value else None
        return settle

    table = _column_table(model, profile, sequential=False)

    def settle(y, u_lat, u_sig, u_win, value=True):
        cols = np.take(table, _table_rows(model, y, u_sig, u_lat < q), axis=0)
        p_all, rewards = settle_batch(model.prior, cols, y, rule)
        if not value:
            return rewards.T, None
        return rewards.T, score(rule, p_all, y) - score(rule, model.prior, y)
    return settle


def _sequential_kernel(model, mechanism, profile, rule, latency, h):
    efforts = np.asarray(profile.efforts)
    speaks = (efforts > 0) & np.array([p.kind != "silent" for p in profile.policies])
    rate = np.where(speaks, latency.lam * efforts, 1.0)[:, None]
    delay = np.array([p.delay if p.kind == "delayed" else 0.0
                      for p in profile.policies])[:, None]
    table = _column_table(model, profile, sequential=True)

    def settle(y, u_lat, u_sig, u_win, value=True):
        n = u_lat.shape[0]
        times = np.where(speaks[:, None], -np.log1p(-u_lat) / rate + delay, np.inf)
        # slot s holds the s-th report in time order; an agent who never
        # reports sorts last, in state 0 (the neutral column)
        if n == 2:
            # one comparison orders two agents; a tie keeps agent order, as
            # the stable sort does, and the swap is its own inverse
            swap = times[1] < times[0]

            def to_slots(a):
                return np.where(swap, a[::-1], a)
            from_slots = to_slots
        else:
            order = np.argsort(times, axis=0, kind="stable")

            def to_slots(a):
                return np.take_along_axis(a, order, axis=0)

            def from_slots(a):
                out = np.empty_like(a)
                np.put_along_axis(out, order, a, axis=0)
                return out
        sorted_times = to_slots(times)
        rows = _table_rows(model, y, u_sig, np.isfinite(times))
        slot_cols = np.take(table, to_slots(rows), axis=0)
        masses = _segment_masses(h, sorted_times)  # (n + 1, T)

        if mechanism == "mvp":
            _, slot_rewards, s_path = settle_sequential(model.prior, slot_cols,
                                                        masses.T, y, rule)
            slot_rewards = slot_rewards.T
        else:
            s_path = score(rule, fold_path(model.prior, slot_cols), y)  # (n+1, T)
            slot_rewards = np.where(np.isfinite(sorted_times),
                                    s_path[1:] - s_path[:-1], 0.0)
        rewards = from_slots(slot_rewards)
        if not value:
            return rewards, None
        return rewards, np.einsum("jt,tj->t", s_path - s_path[0], masses.T)
    return settle


def _validate_setup(model, mechanism, profile, trials, rule, access, latency, h):
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}, try one of {MECHANISMS}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if mechanism in ("fpm", "pm_batch") and access is None:
        raise ValueError(f"{mechanism} needs an AccessFunction")
    if mechanism in ("mvp", "pm_sequential"):
        if latency is None:
            raise ValueError(f"{mechanism} needs a LatencyFamily")
        if h is None:
            h = TimeValue.exponential(1.0)
    if mechanism != "pm_batch" and rule is None:
        raise ValueError(f"{mechanism} needs a ScoringRule")
    if profile.num_agents < 1:
        raise ValueError("need at least one agent")
    return h


def _draws(model: InformationModel, n: int, trials: int, seed: int):
    """The trial range in chunks, with their draws: ``(slice, y, u_lat, u_sig, u_win)``.

    ``u_lat`` and ``u_sig`` are agent-major ``(n, T)``: row i is filled in
    place from agent i's own streams.  The draws depend on the seed, the
    number of agents and the outcome count only, never on the strategies,
    so every profile of n agents settles on the same ones.
    """
    chunk = max(1, _CHUNK_ELEMENTS // (n * model.num_outcomes))
    g_outcome = _stream(seed, _OUTCOME)
    g_winner = _stream(seed, _WINNER)
    g_lat = [_stream(seed, _LATENCY, i) for i in range(n)]
    g_sig = [_stream(seed, _SIGNAL, i) for i in range(n)]
    for done in range(0, trials, chunk):
        T = min(chunk, trials - done)
        y = _draw_outcomes(model, g_outcome.random(T))
        u_win = g_winner.random(T)
        u_lat, u_sig = np.empty((n, T)), np.empty((n, T))
        for i in range(n):
            g_lat[i].random(out=u_lat[i])
            g_sig[i].random(out=u_sig[i])
        yield slice(done, done + T), y, u_lat, u_sig, u_win


def _books(model, mechanism, profile, trials, seed, rule, access, latency, h):
    """The books chunk by chunk: ``(slice, books)`` in trial order.

    ``books`` holds the chunk's trial-major ``(T, n)`` rewards and
    utilities and its ``(T,)`` value, principal utility and welfare, the
    keys of :func:`per_trial_records`.  Welfare is principal utility plus
    the agents' utilities, so the identity holds bit for bit.
    """
    h = _validate_setup(model, mechanism, profile, trials, rule, access, latency, h)
    settle = _kernel(model, mechanism, profile, rule, access, latency, h)
    efforts = np.asarray(profile.efforts)
    for sl, *draws in _draws(model, profile.num_agents, trials, seed):
        rewards, value = settle(*draws)
        rewards = np.ascontiguousarray(rewards.T)
        utilities = rewards - efforts
        principal = value - rewards.sum(axis=1)
        welfare = principal + utilities.sum(axis=1)
        yield sl, {"rewards": rewards, "value": value, "utilities": utilities,
                   "principal_utility": principal, "welfare": welfare}


def per_trial_records(model, mechanism, profile, trials, seed, *,
                      rule=None, access=None, latency=None,
                      h=None) -> dict[str, np.ndarray]:
    """Per-trial books: rewards, value, utilities, principal utility, welfare."""
    records = {}
    for sl, books in _books(model, mechanism, profile, trials, seed,
                            rule, access, latency, h):
        for key, a in books.items():
            if key not in records:
                records[key] = np.empty((trials,) + a.shape[1:])
            records[key][sl] = a
    return records


def simulate(model: InformationModel, mechanism: str, profile: StrategyProfile,
             trials: int, seed: int, *, rule: ScoringRule | None = None,
             access: AccessFunction | None = None,
             latency: LatencyFamily | None = None,
             h: TimeValue | None = None) -> SimStats:
    """Sample ``trials`` independent plays and aggregate the books.

    Each chunk's books are reduced as they are settled, so memory does not
    grow with ``trials``.  Deterministic given ``seed`` and the
    configuration, and bit for bit
    ``SimStats.from_records(mechanism, profile, per_trial_records(...))``.
    """
    books = _books(model, mechanism, profile, trials, seed, rule, access, latency, h)
    return SimStats._reduce(mechanism, profile, (chunk for _, chunk in books), trials)


def deviation_test(model: InformationModel, mechanism: str,
                   baseline: StrategyProfile, deviant_agent: int, deviation,
                   trials: int, seed: int, *, rule: ScoringRule | None = None,
                   access: AccessFunction | None = None,
                   latency: LatencyFamily | None = None,
                   h: TimeValue | None = None) -> tuple[float, float]:
    """Paired estimate of how a unilateral deviation changes the deviant's utility.

    ``deviation`` is a :class:`ReportPolicy`, a bare effort level, or an
    ``(effort, policy)`` pair.  Each chunk is drawn once and both arms,
    baseline and deviant, settle on that draw, so the difference has tiny
    variance; a mean below ``-3 * se`` certifies the deviation as harmful.
    The result equals, bit for bit, the paired difference of two
    :func:`per_trial_records` runs with the same seed.  Returns
    ``(delta_mean, delta_se)``.
    """
    if not 0 <= deviant_agent < baseline.num_agents:
        raise ValueError(f"no agent {deviant_agent} in the profile")
    if isinstance(deviation, ReportPolicy):
        devprofile = baseline.replace_agent(deviant_agent, policy=deviation)
    elif isinstance(deviation, (int, float)):
        devprofile = baseline.replace_agent(deviant_agent, effort=float(deviation))
    else:
        effort, policy = deviation
        devprofile = baseline.replace_agent(deviant_agent, effort=float(effort),
                                            policy=policy)

    h = _validate_setup(model, mechanism, baseline, trials, rule, access, latency, h)
    i = deviant_agent
    arms = [(_kernel(model, mechanism, profile, rule, access, latency, h),
             profile.efforts[i]) for profile in (baseline, devprofile)]
    delta = np.empty(trials)  # only the deviant's utility change is kept
    for sl, *draws in _draws(model, baseline.num_agents, trials, seed):
        # both arms settle on the same draws: common random numbers; the
        # principal's value is not needed
        utility = [settle(*draws, value=False)[0][i] - cost for settle, cost in arms]
        delta[sl] = utility[1] - utility[0]
    se = float(delta.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(delta.mean()), se
