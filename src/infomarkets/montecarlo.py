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
once and settles both arms, baseline and deviant, on that one draw, each
through its own profile's kernel; in a marginal-value market each arm
settles only the deviant's reward (see :func:`_paired_sequential`).

A chunk's draws are the ``(T,)`` outcomes, agent-major ``(n, T)``
latency uniforms, and the signal indices, or in a ``pm_batch`` market,
which reads no signals, the winner uniforms (see :func:`_draws`).  Its
kernel (built once per profile by :func:`_kernel`) maps them to rewards
and the principal's value with no Python loop per trial or per signal
value: report columns come from one gather into a table of each agent's
signal-state columns (built as ``fpm_expected_reward`` builds its own),
in time order in a sequential market.  Each chunk settles about :data:`_CHUNK_ELEMENTS`
trials x agents x outcomes entries, so scratch memory is bounded at any
width.

Drawing is a stage of its own.  A run of several chunks, on a process
that may use two CPUs, draws chunk k + 1 on a one-worker thread pool while
the calling thread settles chunk k; settlement and every sum stay on the
calling thread.  Each stream is read by one thread in trial order, so the
bits are those of drawing inline.  Such a run holds one chunk's draws
beyond the chunk it settles: traced peaks of 2.7 / 5.0 MiB for an fpm /
mvp ``simulate`` at n = 2 against 1.8 / 4.4 MiB in one chunk.

The books stay agent-major: :func:`_books` writes a chunk's rewards,
utilities, principal utility and welfare as the rows of one ``(2n + 2,
T)`` array, :func:`simulate` reduces each chunk's whole blocks of trials
at once and in place (see :class:`_Moments`), and only
:func:`per_trial_records` transposes, into its trial-major records.
Sums over fewer than 8 agents and the mvp kernel's running ORs are row
operations, each over the chunk's trials: numpy runs a reduction along a
short contiguous axis, or an accumulation along axis 0, as one inner
loop per trial, several times as long at a few agents.

A profile with at most :data:`_TABLE_ENTRIES` count vectors x outcomes is
settled by gathers from one :func:`_score_table`: a batch reward is
S(N) - S(N - e_c), and a marginal-value slot reward is one suffix sum per
column over S(K_j) - S(K_j - e_c) times the segment masses, O(n) gathers
per trial and column where a fold costs O(n^2 d).  A larger profile is
settled by :func:`settle_batch` and :func:`settle_sequential`; the route
depends on the profile alone, never on the chunk.
"""
import math
import numbers
import os
from dataclasses import asdict, dataclass

import numpy as np

from .belief import (RATIO_CLAMP, _require_support, _state_table, fold_path,
                     truthful_report)
from .equilibrium import LatencyFamily
from .fpm import _CHUNK_ELEMENTS, settle_batch
from .info_model import InformationModel, _check_count, _check_nonnegative
from .mvp import TimeValue, _segment_masses, settle_sequential
from .pm_baseline import AccessFunction
from .scoring import ScoringRule, _outcome_sum, score

MECHANISMS = ("fpm", "mvp", "pm_batch", "pm_sequential")

# purpose tags for the random streams
_OUTCOME, _LATENCY, _SIGNAL, _WINNER = 0, 1, 2, 3


@dataclass(frozen=True)
class ReportPolicy:
    """What an agent does with the report they would otherwise submit truthfully.

    ``perturbed`` shifts the binary ratio entry by ``epsilon``; ``delayed`` adds
    ``delay`` (finite, >= 0) to the submission time (sequential settings
    only); ``silent`` never reports.  No other kind takes a nonzero
    ``epsilon`` or ``delay``.
    """

    kind: str = "truthful"
    epsilon: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in ("truthful", "perturbed", "delayed", "silent"):
            raise ValueError(f"unknown report policy {self.kind!r}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        _check_nonnegative("delay", self.delay)
        for name, kind in (("epsilon", "perturbed"), ("delay", "delayed")):
            if getattr(self, name) != 0 and self.kind != kind:
                raise ValueError(f"the {self.kind} policy takes no {name}, "
                                 f"got {getattr(self, name)!r}")


TRUTHFUL = ReportPolicy()


@dataclass(frozen=True)
class StrategyProfile:
    """Per-agent efforts (each finite and >= 0, named ``efforts[i]``) and report policies."""

    efforts: tuple[float, ...]
    policies: tuple[ReportPolicy, ...] = ()

    def __post_init__(self):
        for i, c in enumerate(self.efforts):
            _check_nonnegative(f"efforts[{i}]", c)
        object.__setattr__(self, "efforts", tuple(float(c) for c in self.efforts))
        policies = tuple(self.policies) or (TRUTHFUL,) * len(self.efforts)
        if len(policies) != len(self.efforts):
            raise ValueError("one policy per agent required")
        object.__setattr__(self, "policies", policies)

    @classmethod
    def symmetric(cls, effort: float, n: int,
                  policy: ReportPolicy = TRUTHFUL) -> "StrategyProfile":
        return cls((effort,) * n, (policy,) * n)

    def replace_agent(self, i: int, effort: float | None = None,
                      policy: ReportPolicy | None = None) -> "StrategyProfile":
        _check_count("i", i, 0, self.num_agents - 1)
        efforts, policies = list(self.efforts), list(self.policies)
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
    """Streaming means and standard errors of the rows of agent-major books.

    :meth:`add` takes the ``(rows, T)`` books of consecutive trials.  The
    trials, fed in order, are cut into blocks of :data:`_BLOCK`.  The whole
    blocks of one call are reduced at once, in place, as a ``(rows, k,
    block)`` view: numpy sums each block's contiguous run, then its
    squared deviations from the block mean.  The blocks merge in trial
    order by the pairwise update of Chan, Golub and LeVeque (1979), with
    the running sums taken by ``np.cumsum``, which adds left to right as
    one merge per block would, so the bits are those of merging block by
    block.  Only a block that spans two calls is copied, into a buffer
    that is merged in place.  Memory is one buffered block however many
    trials pass.  When a call's whole blocks do not start its rows (the
    buffer took the first trials) or do not fill them, they are updated
    one block at a time, in place as well.  A run of fewer ``trials``
    than a block buffers only those: it is one partial block either way.
    """

    def __init__(self, rows: int, trials: int):
        # at least one column, so that a bad count reaches the caller's check
        self._size = min(_BLOCK, max(trials, 1))
        self._block = np.empty((rows, self._size))
        self._fill = 0
        self._count = 0
        self._sum = np.zeros(rows)
        self._m2 = np.zeros(rows)

    def add(self, books: np.ndarray) -> None:
        """Append the trials of the C-contiguous ``(rows, T)`` ``books``,
        which it overwrites; each block is then one contiguous run of a row,
        summed in numpy's order for such a run."""
        size, trials, done = self._size, books.shape[1], 0
        if self._fill:  # first complete the buffered block
            done = min(size - self._fill, trials)
            self._block[:, self._fill:self._fill + done] = books[:, :done]
            self._fill += done
            if self._fill < size:
                return
            self._merge(self._block[:, None])
        whole = (trials - done) // size * size
        if whole:
            blocks = books[:, done:done + whole].reshape(len(books), -1, size)
            self._merge(blocks)
        self._fill = trials - done - whole
        self._block[:, :self._fill] = books[:, done + whole:]

    def _merge(self, blocks: np.ndarray) -> None:
        """Fold the ``(rows, k, nb)`` ``blocks``, in order, into the running
        sums; they are overwritten."""
        nb = blocks.shape[2]
        totals = blocks.sum(axis=2)
        means = totals / nb
        if blocks.flags.c_contiguous:
            blocks -= means[..., None]
            np.square(blocks, out=blocks)
        else:  # numpy would copy the strided view for each in-place ufunc
            for row, mean in zip(blocks, means):  # each row's blocks are contiguous
                row -= mean[:, None]
                np.square(row, out=row)
        m2 = blocks.sum(axis=2)
        # the running sums before each block and after the last
        sums = np.cumsum(np.concatenate((self._sum[:, None], totals), axis=1), axis=1)
        first = int(self._count == 0)  # a run's first block has nothing to merge with
        na = self._count + nb * np.arange(first, blocks.shape[1])
        delta = means[:, first:] - sums[:, first:-1] / na
        m2[:, first:] += delta * delta * (na * nb / (na + nb))
        self._count += nb * blocks.shape[1]
        self._sum = sums[:, -1]
        self._m2 = np.cumsum(np.concatenate((self._m2[:, None], m2), axis=1), axis=1)[:, -1]
        self._fill = 0

    def finish(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``(trials, means, standard errors)`` of every row."""
        if self._fill:
            self._merge(self._block[:, None, :self._fill])
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
        """Reduce the books of :func:`per_trial_records` to means and standard errors.

        The records are copied into :func:`_books`' agent-major layout a
        slice of about :data:`_CHUNK_ELEMENTS` entries at a time, never whole.
        """
        n, trials = profile.num_agents, len(records["welfare"])
        step = max(1, _CHUNK_ELEMENTS // (2 * n + 2))
        if step > _BLOCK:  # whole blocks: each slice reduces in place, buffering none
            step -= step % _BLOCK

        def chunks():
            for start in range(0, trials, step):
                sl = slice(start, min(start + step, trials))
                books = np.empty((2 * n + 2, sl.stop - start))
                books[:n] = records["rewards"][sl].T
                books[n:2 * n] = records["utilities"][sl].T
                books[-2] = records["principal_utility"][sl]
                books[-1] = records["welfare"][sl]
                yield books
                del books
        return cls._reduce(mechanism, profile, chunks(), trials)

    @classmethod
    def _reduce(cls, mechanism, profile, chunks, trials: int) -> "SimStats":
        """Reduce ``chunks``, an iterable of :func:`_books`' agent-major
        books over consecutive ranges of ``trials`` trials in all, through
        one :class:`_Moments`.

        How the trials are split among the chunks never changes the result.
        """
        n = profile.num_agents
        moments = _Moments(2 * n + 2, trials)
        for books in chunks:
            moments.add(books)
            del books  # free this chunk before the next one is settled
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
        """Every field in declaration order, arrays as lists."""
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in asdict(self).items()}


def _stream(seed: int, purpose: int, agent: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(int(seed), purpose, agent))))


def _report_columns(model: InformationModel, policy: ReportPolicy) -> np.ndarray:
    """The (m + 1, d) state table of one policy (see :func:`_state_table`).

    Perturbation shifts the ratio-encoded binary report (1-b, b), the
    truthful column up to scale, so it requires a binary market; a
    signal-less perturbed agent distorts the 1/2 default too.
    """
    if policy.kind == "silent":
        return _state_table(model, lambda s: np.ones(model.num_outcomes))
    if policy.kind == "perturbed":
        if model.num_outcomes != 2:
            raise ValueError("perturbed policies target the binary ratio encoding")

        def shifted(s):
            b = 0.5 if s is None else truthful_report(model, s).entries[0]
            b = min(max(b + policy.epsilon, RATIO_CLAMP), 1.0 - RATIO_CLAMP)
            return (1.0 - b, b)
        return _state_table(model, shifted)
    return _state_table(model)


def _draw_outcomes(model: InformationModel, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcome draws, counted as :func:`_draw_signals` counts:
    how many of the first d - 1 cumulative prior masses lie at or below ``u``."""
    cum = np.cumsum(model.prior)
    y = np.zeros(u.shape, dtype=np.intp)
    for j in range(model.num_outcomes - 1):
        y += cum[j] <= u
    return y


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


def _policy_tables(model: InformationModel, profile: StrategyProfile,
                   sequential: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(tables, holder)``: the ``(P, m + 1, d)`` state tables of the
    profile's P distinct policies (see :func:`_report_columns`), in order of
    their first holder, and each agent's ``(n,)`` index into them.

    ``tables[holder]`` flattened to ``(n (m + 1), d)`` is the column table:
    row ``i * (m + 1) + s`` is agent i's column in state s.  In a
    sequential market state 0 means the agent never reports, so that row is
    the neutral column of ones.
    """
    policies = list(dict.fromkeys(profile.policies))
    index = {p: k for k, p in enumerate(policies)}
    tables = np.stack([_report_columns(model, p) for p in policies])
    if sequential:
        tables[:, 0] = 1.0
    return tables, np.array([index[p] for p in profile.policies])


def _states(signals: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Signal states: 0 where ``active`` is false, else 1 + the drawn signal
    (``signals``, from :func:`_draw_signals`)."""
    return (1 + signals) * active


def _table_rows(model: InformationModel, states: np.ndarray) -> np.ndarray:
    """(n, T) column-table rows (see :func:`_policy_tables`) of the
    agent-major ``states``."""
    first = (model.num_signal_values + 1) * np.arange(states.shape[0])[:, None]
    return first + states


#: score-table entries (count vectors x outcomes) up to which a profile is
#: settled by gathers from :func:`_score_table`: building a table at the
#: bound traces 5.1 MiB, about one chunk's scratch.  Fixed, not the chunk
#: length, so a profile's route never depends on the chunking
_TABLE_ENTRIES = 1 << 17


def _score_table(model: InformationModel, rule: ScoringRule, tables: np.ndarray,
                 holder: np.ndarray):
    """``(steps, scores)`` of the :func:`_policy_tables` ``tables`` and
    ``holder``, or None if they would exceed :data:`_TABLE_ENTRIES` entries.

    Odds updates commute, so a belief depends only on how often each
    distinct column was folded.  Each column but one of all ones gets a
    mixed-radix axis, one longer than the number of agents who hold it in
    some state.  ``scores[key + y]`` scores at outcome y the belief that
    folds the columns, in lexicographic order (not report order: the last
    bits move), each as often as its digit in the key, by :func:`fold_path`'s
    steps; NaN marks disjoint support.  ``steps[r]`` adds one fold of
    column-table row r's column (0 for ones), so ``steps[rows].sum() + y``
    indexes any rows.  The columns come from the distinct policies' tables,
    m + 1 rows each, never from one row per agent and state.
    """
    d, policies = model.num_outcomes, len(tables)
    columns, kind = np.unique(tables.reshape(-1, d), axis=0, return_inverse=True)
    kind = kind.reshape(policies, -1)  # each policy's column in each state
    reports = np.zeros((policies, len(columns)), dtype=np.intp)
    reports[np.arange(policies)[:, None], kind] = 1  # whether a policy holds a column
    ones = np.all(columns == 1.0, axis=1)
    radices = np.where(ones, 1, 1 + np.bincount(holder, minlength=policies) @ reports)
    if math.prod(radices.tolist()) * d > _TABLE_ENTRIES:
        return None
    probs = np.empty((*radices, d))
    probs[(0,) * len(columns)] = model.prior
    with np.errstate(invalid="ignore"):  # a disjoint support folds to NaN
        for axis, column in enumerate(columns):
            # the beliefs with every count on the axes up to this one, 0 after it
            block = np.moveaxis(probs[(slice(None),) * (axis + 1)
                                      + (0,) * (len(columns) - axis - 1)], axis, 0)
            for k in range(1, radices[axis]):
                weights = np.multiply(block[k - 1], column, out=block[k])
                weights /= _outcome_sum(weights)[..., None]
    # each axis's flat index step in probs, where entry key + y is at outcome y
    strides = np.array(probs.strides[:-1]) // probs.itemsize
    probs = probs.reshape(-1, d)
    scores = np.empty(probs.shape)
    for y in range(d):
        scores[:, y] = score(rule, probs, np.full(len(probs), y))
    return np.where(ones[kind], 0, strides[kind])[holder].reshape(-1), scores.ravel()


def _settlement_tables(model, rule, profile, sequential):
    """``(table, scored)``: the profile's flat column table (see
    :func:`_policy_tables`) and its :func:`_score_table`, None over the bound."""
    tables, holder = _policy_tables(model, profile, sequential)
    return (tables[holder].reshape(-1, model.num_outcomes),
            _score_table(model, rule, tables, holder))


def _path_keys(steps: np.ndarray, slot_rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The ``(n + 1, T)`` :func:`_score_table` keys after 0..n of the time-ordered rows."""
    keys = np.empty((slot_rows.shape[0] + 1, y.size), dtype=np.intp)
    keys[0] = y
    np.take(steps, slot_rows, out=keys[1:])
    for j in range(1, len(keys)):
        keys[j] += keys[j - 1]
    return keys


def _suffix_rewards(scores, s_path, masses, without) -> np.ndarray:
    """``(n, T)``: row s sums (S(K_j) - S(W_j)) * masses[j] over j > s from the
    last j down, the reward of the report in slot s, where ``s_path`` is
    S(K) and ``without[j - 1]`` indexes W_j, the belief without it."""
    terms = np.take(scores, without)
    np.subtract(s_path[1:], terms, out=terms)
    terms *= masses[1:]
    for s in range(len(terms) - 2, -1, -1):
        terms[s] += terms[s + 1]
    return terms


def _kernel(model, mechanism, profile, rule, access, latency, h):
    """The chunk kernel of one profile, built once per run: ``settle(y,
    u_lat, signals, u_win)`` maps one chunk's draws (see :func:`_draws`:
    agent-major ``(n, T)`` latency uniforms and signal indices; in
    ``pm_batch`` the winner uniforms ``u_win`` and no signals, else no
    ``u_win``) to agent-major rewards ``(n, T)`` and the principal's value
    ``(T,)``.  A kernel writes into no draw, so two kernels may settle the
    same ones."""
    if mechanism in ("fpm", "pm_batch"):
        return _batch_kernel(model, mechanism, profile, rule, access)
    return _sequential_kernel(model, mechanism, profile, rule, latency, h)


def _batch_kernel(model, mechanism, profile, rule, access):
    for i, c in enumerate(profile.efforts):
        _check_nonnegative(f"efforts[{i}]", c, access.domain_max)
    q = np.array([access.value(c) for c in profile.efforts])[:, None]

    if mechanism == "pm_batch":
        speaks = np.array([p.kind != "silent" for p in profile.policies])[:, None]

        def settle(y, u_lat, signals, u_win):
            active = (u_lat < q) & speaks
            count = active.sum(axis=0)
            pick = np.floor(u_win * count).astype(int)  # uniform among signal holders
            wins = active & (np.cumsum(active, axis=0) == pick + 1)
            return wins.astype(float), (count > 0).astype(float)
        return settle

    table, scored = _settlement_tables(model, rule, profile, sequential=False)

    def settle(y, u_lat, signals, u_win):
        rows = _table_rows(model, _states(signals, u_lat < q))
        if scored is None:
            p_all, rewards = settle_batch(model.prior, np.take(table, rows, axis=0), y, rule)
            return rewards, score(rule, p_all, y) - score(rule, model.prior, y)
        steps, scores = scored
        agent_steps = np.take(steps, rows)
        key = agent_steps.sum(axis=0)
        key += y
        s_all = np.take(scores, key)
        _require_support(not np.isnan(s_all.sum()))  # a NaN score carries into the sum
        # each agent's reward leaves one of its own column out of the count
        rewards = np.take(scores, np.subtract(key, agent_steps, out=agent_steps))
        value = np.take(scores, y)
        return np.subtract(s_all, rewards, out=rewards), np.subtract(s_all, value, out=value)
    return settle


def _arrivals(profile: StrategyProfile, latency: LatencyFamily):
    """Per-agent ``(speaks, rate, delay)`` columns ``(n, 1)`` of a sequential market.

    An agent with positive effort who is not silent speaks: the signal
    arrives at rate ``latency.lam * effort``, and a delayed policy adds its
    delay to the submission time.
    """
    efforts = np.asarray(profile.efforts)
    speaks = (efforts > 0) & np.array([p.kind != "silent" for p in profile.policies])
    rate = np.where(speaks, latency.lam * efforts, 1.0)
    delay = np.array([p.delay if p.kind == "delayed" else 0.0 for p in profile.policies])
    return speaks[:, None], rate[:, None], delay[:, None]


def _report_times(waits: np.ndarray, speaks, rate, delay) -> np.ndarray:
    """Submission times from unit-rate exponential ``waits``
    (``-log1p(-u_lat)``): ``waits / rate + delay``, or inf for an agent who
    never reports."""
    times = waits / rate
    times += delay
    # a mask per agent, not per trial: a broadcast np.where takes 3x as long
    np.copyto(times, np.inf, where=~speaks)
    return times


def _time_order(times: np.ndarray) -> np.ndarray:
    """The ``(n, T)`` agents of the reports of ``times`` in time order.

    Row s holds the agent of the s-th report; a tie keeps agent order, so
    an agent who never reports (time inf) sorts last in agent order.
    """
    if times.shape[0] == 2:
        # one comparison orders two agents; a tie keeps agent order, as
        # the stable sort does
        order = np.empty(times.shape, dtype=np.intp)
        order[0] = times[1] < times[0]
        np.subtract(1, order[0], out=order[1])
        return order
    return np.argsort(times, axis=0, kind="stable")


def _slot_gathers(order: np.ndarray):
    """``(to_slots, from_slots)``: gathers of an agent-major ``(n, T)``
    array into the order ``order`` (see :func:`_time_order`) and back.

    Both go through one flat index ``order * T + t``, which a per-trial
    select or an axis gather would spend several times as long on.
    """
    flat = order * order.shape[1] + np.arange(order.shape[1])

    def to_slots(a):
        return np.take(a, flat)

    def from_slots(a):
        out = np.empty_like(a)
        np.put(out, flat, a)
        return out
    return to_slots, from_slots


def _sequential_kernel(model, mechanism, profile, rule, latency, h):
    arrivals = _arrivals(profile, latency)
    table, scored = _settlement_tables(model, rule, profile, sequential=True)

    def settle(y, u_lat, signals, u_win):
        times = _report_times(-np.log1p(-u_lat), *arrivals)
        to_slots, from_slots = _slot_gathers(_time_order(times))
        sorted_times = to_slots(times)
        # an agent who never reports sorts last, in state 0 (the neutral column)
        slot_rows = to_slots(_table_rows(model, _states(signals, np.isfinite(times))))
        masses = _segment_masses(h, sorted_times)  # (n + 1, T)

        if scored is None and mechanism == "mvp":
            _, slot_rewards, s_path = settle_sequential(
                model.prior, np.take(table, slot_rows, axis=0), masses, y, rule)
        elif scored is None:
            s_path = score(rule, fold_path(model.prior, np.take(table, slot_rows, axis=0)), y)
        else:
            steps, scores = scored
            keys = _path_keys(steps, slot_rows, y)
            s_path = np.take(scores, keys)  # (n + 1, T)
            _require_support(not np.isnan(s_path[-1].sum()))
            if mechanism == "mvp":
                slot_steps = np.diff(keys, axis=0)
                slot_rewards = np.zeros(slot_steps.shape)
                for step in set(steps[steps > 0].tolist()):  # one suffix sum per column
                    holds = slot_steps == step
                    # a running OR row by row: 10x as fast as np.logical_or.accumulate
                    # at 2 agents, 1.6x as slow at 255 (about 3 % of that simulate)
                    reported = holds.copy()
                    for j in range(1, len(reported)):
                        reported[j] |= reported[j - 1]
                    # K_j - step after a report of this column, else K_j: a 0 term
                    without = keys[1:] - step * reported
                    np.copyto(slot_rewards, _suffix_rewards(scores, s_path, masses, without),
                              where=holds)
        if mechanism == "pm_sequential":
            slot_rewards = np.where(np.isfinite(sorted_times), s_path[1:] - s_path[:-1], 0.0)
        return (from_slots(slot_rewards),
                np.einsum("jt,tj->t", s_path - s_path[0], masses.T))
    return settle


def _paired_sequential(model, arms, i, rule, latency, h):
    """The paired chunk function of an mvp deviation by agent i: ``settle(y,
    u_lat, signals, u_win)`` -> agent i's ``(T,)`` rewards in the baseline and
    deviant arm.

    Each arm sums agent i's terms alone, as :func:`_sequential_kernel`
    would on that arm's route: from the arm's :func:`_score_table`, or,
    over the bound, against the fold of the other agents' columns in time
    order (at step j after agent i's slot, row j - 1 is the path without
    agent i), in :func:`settle_sequential`'s order; both arms share it.
    """
    tables, scored = zip(*(_settlement_tables(model, rule, p, sequential=True)
                           for p in arms))
    n, first = arms[0].num_agents, model.num_signal_values + 1
    arrivals = [_arrivals(p, latency) for p in arms]
    # whether agent i's report time differs between the arms
    moves = not all(np.array_equal(a[i], b[i]) for a, b in zip(*arrivals))
    others = np.flatnonzero(np.arange(n) != i)
    rows_after = np.arange(n)[:, None]

    def settle(y, u_lat, signals, u_win):
        waits = -np.log1p(-u_lat)
        times = _report_times(waits, *arrivals[0])
        rows = _table_rows(model, _states(signals, np.isfinite(times)))
        # each arm recomputes agent i's rows alone, from these two
        wait, signal = waits[i].copy(), signals[i]
        del waits
        if any(arm is None for arm in scored):  # the other agents' columns fit both arms
            others_rows = _slot_gathers(others[_time_order(times[others])])[0](rows)
            s_without = score(rule, fold_path(model.prior, np.take(tables[0], others_rows,
                                                                   axis=0)), y)  # (n, T)
        rewards = []
        for arm, (table, table_scores) in enumerate(zip(tables, scored)):
            if arm == 0 or moves:
                times[i] = _report_times(wait, *(a[i] for a in arrivals[arm]))
                rows[i] = first * i + _states(signal, np.isfinite(times[i]))
                slot = ((times[:i] <= times[i]).sum(axis=0)  # agent i's, ties in agent order
                        + (times[i + 1:] < times[i]).sum(axis=0))
                to_slots = _slot_gathers(_time_order(times))[0]
                masses = _segment_masses(h, to_slots(times))  # (n + 1, T)
                slot_rows = to_slots(rows)
            if table_scores is None:
                terms = score(rule, fold_path(model.prior, np.take(table, slot_rows, axis=0)),
                              y)[1:] - s_without
                terms *= masses[1:]
                terms[rows_after < slot] = 0.0  # the steps up to agent i's slot pay nothing
                reward = np.zeros(len(y))
                for term in terms:  # in increasing j, as settle_sequential sums
                    reward += term
                rewards.append(reward)
                continue
            steps, scores = table_scores
            keys = _path_keys(steps, slot_rows, y)
            s_path = np.take(scores, keys)
            _require_support(not np.isnan(s_path[-1].sum()))
            # agent i's report left out after its slot; before it, 0 terms
            keys[1:] -= np.take(steps, rows[i]) * (rows_after >= slot)
            rewards.append(_suffix_rewards(scores, s_path, masses, keys[1:])[0])
            del keys, s_path
        return rewards
    return settle


def _validate_setup(model, mechanism, profile, trials, seed, rule, access, latency, h):
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}, try one of {MECHANISMS}")
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)
    if mechanism in ("fpm", "pm_batch") and access is None:
        raise ValueError(f"{mechanism} needs an AccessFunction")
    if mechanism in ("mvp", "pm_sequential"):
        if latency is None:
            raise ValueError(f"{mechanism} needs a LatencyFamily")
        if h is None:
            h = TimeValue.exponential(1.0)
    if mechanism != "pm_batch" and rule is None:
        raise ValueError(f"{mechanism} needs a ScoringRule")
    _check_count("profile.num_agents", profile.num_agents, 1)
    return h


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _draws(model: InformationModel, n: int, trials: int, seed: int, winner: bool):
    """The trial range in chunks, with their draws: ``(slice, y, u_lat, signals, u_win)``.

    ``y`` holds the ``(T,)`` outcomes, ``u_lat`` the agent-major ``(n, T)``
    latency uniforms and ``signals`` the ``(n, T)`` signal indices of
    :func:`_draw_signals`; row i is filled from agent i's own streams.
    ``winner`` marks a ``pm_batch`` market, which reads no signals: it gets
    the winner uniforms ``u_win`` and ``signals`` None, any other market the
    reverse.  Each has streams of its own, so the other draws are the same
    either way.  The draws depend on the seed, the number of agents and the
    outcome count only, never on the strategies, so every profile of n
    agents settles on the same ones.

    A run of two chunks or more, on a process that may use two CPUs, draws
    on the one worker of a ``ThreadPoolExecutor``: chunk k + 1 is submitted
    when the caller takes chunk k, so it is drawn while chunk k settles,
    and a run holds the draws of one chunk beyond the chunk it settles.
    Each stream is read by that one thread, in trial order, so the bits
    are those of drawing inline.  Leaving the executor joins the worker
    before the generator finishes, raises or is closed, and ``result()``
    raises the worker's exception in the caller as is.
    """
    chunk = max(1, _CHUNK_ELEMENTS // (n * model.num_outcomes))
    g_outcome = _stream(seed, _OUTCOME)
    g_winner = _stream(seed, _WINNER) if winner else None
    g_lat = [_stream(seed, _LATENCY, i) for i in range(n)]
    g_sig = None if winner else [_stream(seed, _SIGNAL, i) for i in range(n)]
    starts = range(0, trials, chunk)

    def draw(done):
        T = min(chunk, trials - done)
        y = _draw_outcomes(model, g_outcome.random(T))
        u_lat = np.empty((n, T))
        for i in range(n):
            g_lat[i].random(out=u_lat[i])
        if winner:
            return slice(done, done + T), y, u_lat, None, g_winner.random(T)
        u_sig = np.empty((n, T))
        for i in range(n):
            g_sig[i].random(out=u_sig[i])
        return slice(done, done + T), y, u_lat, _draw_signals(model, y, u_sig), None

    if len(starts) == 1 or _cpus() < 2:  # a helper would only wait, or share one CPU
        for done in starts:
            yield draw(done)
        return

    # imported here: its logging, traceback and queue imports serve threaded runs alone
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="montecarlo-draws") as helper:
        ahead = helper.submit(draw, starts[0])
        for done in starts[1:]:
            draws = ahead.result()
            ahead = helper.submit(draw, done)  # drawn while this chunk settles
            yield draws
            del draws  # free this chunk before taking the next
        yield ahead.result()


def _agent_sum(rows: np.ndarray) -> np.ndarray:
    """The sum over the agents of agent-major ``(n, T)`` ``rows``, bit for
    bit numpy's ``sum(axis=1)`` of their trial-major ``(T, n)`` copy, the
    sign of zero included.

    numpy adds fewer than 8 terms left to right and adds the total to
    +0.0; row additions in that order skip its inner loop per trial over
    the short agent axis.  From 8 terms up numpy sums pairwise, so those
    rows are summed by numpy itself.
    """
    if len(rows) >= 8:
        return np.ascontiguousarray(rows.T).sum(axis=1)
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    total += 0.0  # -0.0 to +0.0, as the final addition to numpy's identity
    return total


def _books(model, mechanism, profile, trials, seed, rule, access, latency, h):
    """The books chunk by chunk: ``(slice, value, books)`` in trial order.

    ``value`` is the chunk's ``(T,)`` principal's value and ``books`` one
    agent-major ``(2n + 2, T)`` array: n rows of rewards, n of utilities,
    then principal utility and welfare.  Welfare is principal utility plus
    the :func:`_agent_sum` of the utilities, so ``welfare ==
    principal_utility + utilities.sum(axis=1)`` holds bit for bit on the
    trial-major records at any n.  The arguments are those
    :func:`_validate_setup` has passed.
    """
    n = profile.num_agents
    settle = _kernel(model, mechanism, profile, rule, access, latency, h)
    efforts = np.asarray(profile.efforts)[:, None]
    for sl, *draws in _draws(model, n, trials, seed, mechanism == "pm_batch"):
        rewards, value = settle(*draws)
        books = np.empty((2 * n + 2, len(value)))
        books[:n] = rewards
        del rewards  # an agent sum over 8 or more copies its rows: hold one n-row copy
        np.subtract(books[:n], efforts, out=books[n:2 * n])
        np.subtract(value, _agent_sum(books[:n]), out=books[-2])
        np.add(books[-2], _agent_sum(books[n:2 * n]), out=books[-1])
        yield sl, value, books
        del draws, value, books  # as in _draws


def per_trial_records(model, mechanism, profile, trials, seed, *,
                      rule=None, access=None, latency=None,
                      h=None) -> dict[str, np.ndarray]:
    """Per-trial books: rewards, value, utilities, principal utility, welfare.

    Trial-major: ``(trials, n)`` rewards and utilities, ``(trials,)`` the rest.
    """
    h = _validate_setup(model, mechanism, profile, trials, seed, rule, access, latency, h)
    n = profile.num_agents
    records = {"rewards": np.empty((trials, n)), "value": np.empty(trials),
               "utilities": np.empty((trials, n)), "principal_utility": np.empty(trials),
               "welfare": np.empty(trials)}
    for sl, value, books in _books(model, mechanism, profile, trials, seed,
                                   rule, access, latency, h):
        records["rewards"][sl] = books[:n].T
        records["value"][sl] = value
        records["utilities"][sl] = books[n:2 * n].T
        records["principal_utility"][sl] = books[-2]
        records["welfare"][sl] = books[-1]
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
    h = _validate_setup(model, mechanism, profile, trials, seed, rule, access, latency, h)

    def chunks():
        for _, value, books in _books(model, mechanism, profile, trials, seed,
                                      rule, access, latency, h):
            del value  # hold no part of this chunk while the next one is settled
            yield books
            del books
    return SimStats._reduce(mechanism, profile, chunks(), trials)


def _is_effort(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def deviation_test(model: InformationModel, mechanism: str,
                   baseline: StrategyProfile, deviant_agent: int, deviation,
                   trials: int, seed: int, *, rule: ScoringRule | None = None,
                   access: AccessFunction | None = None,
                   latency: LatencyFamily | None = None,
                   h: TimeValue | None = None) -> tuple[float, float]:
    """Paired estimate of how a unilateral deviation changes the deviant's utility.

    ``deviation`` is a :class:`ReportPolicy`, an effort level (a real >= 0 of
    any numeric type), or an ``(effort, ReportPolicy)`` pair.  Each chunk is drawn
    once and both arms, baseline and deviant, settle on that draw, so the
    difference has tiny variance; a mean below ``-3 * se`` certifies the
    deviation as harmful.  Each arm takes the deviant's rewards from its
    own profile's kernel, or in ``mvp`` from :func:`_paired_sequential`;
    either way the result equals, bit for bit, the paired difference of
    two :func:`per_trial_records` runs with the same seed.  Returns
    ``(delta_mean, delta_se)``.
    """
    _check_count("deviant_agent", deviant_agent, 0, baseline.num_agents - 1)
    if isinstance(deviation, ReportPolicy):
        effort, policy = None, deviation
    elif _is_effort(deviation):
        effort, policy = float(deviation), None
    elif (isinstance(deviation, (tuple, list)) and len(deviation) == 2
          and _is_effort(deviation[0]) and isinstance(deviation[1], ReportPolicy)):
        effort, policy = float(deviation[0]), deviation[1]
    else:
        raise ValueError("deviation must be a ReportPolicy, an effort or an "
                         f"(effort, ReportPolicy) pair, got {deviation!r}")
    arms = (baseline, baseline.replace_agent(deviant_agent, effort=effort, policy=policy))

    h = _validate_setup(model, mechanism, baseline, trials, seed, rule, access, latency, h)
    i, n = deviant_agent, baseline.num_agents
    if mechanism == "mvp":
        settle = _paired_sequential(model, arms, i, rule, latency, h)
    else:
        kernels = [_kernel(model, mechanism, p, rule, access, latency, h) for p in arms]

        def settle(*draws):
            return [kernel(*draws)[0][i] for kernel in kernels]
    costs = [p.efforts[i] for p in arms]
    delta = np.empty(trials)  # only the deviant's utility change is kept
    for sl, *draws in _draws(model, n, trials, seed, mechanism == "pm_batch"):
        # both arms settle on the same draws: common random numbers
        base, dev = settle(*draws)
        delta[sl] = (dev - costs[1]) - (base - costs[0])
        del draws, base, dev  # free this chunk before taking the next
    mean = delta.mean()
    if trials < 2:
        return float(mean), 0.0
    # np.std(ddof=1)'s operations in its order, in place: the same bits, no copy
    delta -= mean
    np.square(delta, out=delta)
    return float(mean), math.sqrt(delta.sum() / (trials - 1)) / math.sqrt(trials)
