import dataclasses
import itertools
import json
import math
import numbers
import re
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from infomarkets import (AccessFunction, BatchOutcomeReport, Belief,
                         InformationModel, LatencyFamily, ReportPolicy,
                         ReportVector, ScoreSequence, ScoringRule, SimStats,
                         StrategyProfile, TimeValue, TimedReport,
                         deviation_test, fpm_expected_reward, fpm_run,
                         mvp_agent_reward, mvp_run, per_trial_records,
                         simulate, truthful_report, v_sequence)
from infomarkets import montecarlo
from infomarkets.belief import fold_path
from infomarkets.fpm import settle_batch
from infomarkets.montecarlo import (_LATENCY, _OUTCOME, _SIGNAL, _WINNER,
                                    _draw_outcomes, _draw_signals,
                                    _report_columns, _stream)
from infomarkets.mvp import settle_sequential, time_value_mass
from infomarkets.scoring import score
from helpers import BlockMoments, unique_row_score_table

MODEL = InformationModel.binary_noisy(0.1, 0.05)
QUAD20 = ScoringRule("quadratic", 20.0)
LOG3 = ScoringRule("logarithmic", 3.0)
LAT1 = LatencyFamily.exponential(1.0)
H1 = TimeValue.exponential(1.0)
ACC = AccessFunction.exponential(3.0)
PROFILE = StrategyProfile.symmetric(0.3, 2)
#: the deadline setting: information is worth something only around t = 1
DEADLINE = TimeValue.table([0.95, 1.0, 1.05], [0.0, 20.0, 0.0])


def weak_wide_model():
    """Binary outcome, 40 signal values, every likelihood near 1/40."""
    rng = np.random.default_rng(8)
    lik = 1.0 + 0.5 * rng.random((2, 40))
    return InformationModel(np.array([0.6, 0.4]), lik / lik.sum(axis=1, keepdims=True))


def binary_model(m, seed):
    """Binary outcome, m random signal values."""
    lik = np.random.default_rng(seed).dirichlet(np.ones(m), size=2)
    return InformationModel(np.array([0.6, 0.4]), lik)


def mixed_profile(n, seed, start=0):
    """Agent i plays policy ``k % 4`` of truthful, silent, perturbed and
    delayed at zero effort if ``k % 3 == 2``, else at a random effort, where
    k = start + i; twelve agents cover every pair."""
    rng = np.random.default_rng(seed)
    efforts, policies = [], []
    for k in range(start, start + n):
        efforts.append(0.0 if k % 3 == 2 else float(rng.uniform(0.1, 1.2)))
        delay = float(rng.uniform(0.0, 1.0))
        policies.append([
            ReportPolicy(),
            ReportPolicy("silent"),
            ReportPolicy("perturbed", epsilon=float(rng.uniform(-0.2, 0.2))),
            ReportPolicy("delayed", delay=delay),
        ][k % 4])
    return StrategyProfile(tuple(efforts), tuple(policies))


def column_stack_draws(model, n, trials, seed):
    """Oracle draws: each stream read whole, trial-major ``(T, n)`` uniforms."""
    y = _draw_outcomes(model, _stream(seed, _OUTCOME).random(trials))
    u_win = _stream(seed, _WINNER).random(trials)
    u_lat = np.column_stack([_stream(seed, _LATENCY, i).random(trials)
                             for i in range(n)])
    u_sig = np.column_stack([_stream(seed, _SIGNAL, i).random(trials)
                             for i in range(n)])
    return y, u_lat, u_sig, u_win


def agent_columns(model, profile, y, u_sig, active):
    """Oracle (n, T, d) report columns: one agent at a time."""
    cols = np.empty((profile.num_agents, y.size, model.num_outcomes))
    for i, policy in enumerate(profile.policies):
        state = np.where(active[:, i], 1 + _draw_signals(model, y, u_sig[:, i]), 0)
        cols[i] = _report_columns(model, policy)[state]
    return cols


def score_table(model, rule, profile, sequential):
    """``montecarlo._score_table`` of ``profile``'s policy tables."""
    return montecarlo._score_table(model, rule,
                                   *montecarlo._policy_tables(model, profile, sequential))


def on_table(model, mechanism, profile, rule):
    """Whether the chunk kernel settles ``profile`` from its score table."""
    if mechanism == "pm_batch":
        return False
    return score_table(model, rule, profile, mechanism in ("mvp", "pm_sequential")) is not None


def canonical_scorer(model, rule):
    """Oracle ``S(columns, y)``: the score of the belief that folds the
    multiset ``columns`` (a ``(K, d)`` array), its columns of ones left out
    and the rest in lexicographic order, computed one trial at a time (and
    cached by multiset and outcome)."""
    cache = {}

    def scores(columns, y):
        multiset = tuple(sorted(tuple(c) for c in columns.tolist() if any(x != 1.0 for x in c)))
        if (multiset, y) not in cache:
            folded = np.array(multiset).reshape(-1, model.num_outcomes)
            cache[multiset, y] = score(rule, fold_path(model.prior, folded)[-1], y)
        return cache[multiset, y]
    return scores


def loop_settlement(model, mechanism, profile, trials, seed, rule, access,
                    latency, h, canonical=False):
    """Oracle for the chunk kernel: per-agent loops over trial-major draws.

    Builds every agent's columns in agent order and permutes them into
    time order afterwards.  Returns agent-major rewards (n, T), as the
    kernel does, and the value (T,).  Folds run in time (batch: agent)
    order, as ``settle_batch`` and ``settle_sequential`` fold them; with
    ``canonical``, each trial's multisets fold in the order of the score
    table (see :func:`canonical_scorer`), and a marginal-value slot sums
    its terms in decreasing step, as the table kernel does.
    """
    y, u_lat, u_sig, u_win = column_stack_draws(model, profile.num_agents,
                                                trials, seed)
    T = y.size
    S = canonical_scorer(model, rule)
    if mechanism in ("fpm", "pm_batch"):
        has = u_lat < np.array([access.value(c) for c in profile.efforts])
        if mechanism == "pm_batch":
            silent = np.array([p.kind == "silent" for p in profile.policies])
            active = has & ~silent
            count = active.sum(axis=1)
            rewards = np.zeros(active.shape)
            pick = np.floor(u_win * count).astype(int)
            rewards[active & (np.cumsum(active, axis=1) == (pick + 1)[:, None])] = 1.0
            return rewards.T, (count > 0).astype(float)
        cols = agent_columns(model, profile, y, u_sig, has)
        if not canonical:
            p_all, rewards = settle_batch(model.prior, cols, y, rule)
            return rewards, score(rule, p_all, y) - score(rule, model.prior, y)
        rewards, value = np.empty((profile.num_agents, T)), np.empty(T)
        for t in range(T):
            s_all = S(cols[:, t], y[t])
            value[t] = s_all - score(rule, model.prior, y[t])
            for i in range(profile.num_agents):
                rewards[i, t] = s_all - S(np.delete(cols[:, t], i, axis=0), y[t])
        return rewards, value

    times = np.full((profile.num_agents, T), np.inf)
    for i, (c, policy) in enumerate(zip(profile.efforts, profile.policies)):
        if policy.kind == "silent" or c == 0.0:
            continue
        times[i] = -np.log1p(-u_lat[:, i]) / (latency.lam * c)
        if policy.kind == "delayed":
            times[i] += policy.delay
    cols = agent_columns(model, profile, y, u_sig, np.isfinite(times).T)
    order = np.argsort(times, axis=0, kind="stable")
    sorted_times = np.take_along_axis(times, order, axis=0)
    reported = np.isfinite(sorted_times)
    slot_cols = np.where(reported[..., None], cols[order, np.arange(T)], 1.0)
    masses = time_value_mass(h, np.vstack([np.zeros(T), sorted_times]),
                             np.vstack([sorted_times, np.full(T, np.inf)]))
    if not canonical and mechanism == "mvp":
        _, slot_rewards, s_path = settle_sequential(model.prior, slot_cols, masses,
                                                    y, rule)
    elif not canonical:
        s_path = score(rule, fold_path(model.prior, slot_cols), y)
    else:
        n = profile.num_agents
        s_path = np.array([[S(slot_cols[:j, t], y[t]) for t in range(T)]
                           for j in range(n + 1)])
        slot_rewards = np.zeros((n, T))
        for t, s in np.ndindex(T, n):
            if np.any(slot_cols[s, t] != 1.0):
                for j in range(n, s, -1):
                    without = np.delete(slot_cols[:j, t], s, axis=0)
                    slot_rewards[s, t] += (s_path[j, t] - S(without, y[t])) * masses[j, t]
    if mechanism == "pm_sequential":
        slot_rewards = np.where(reported, s_path[1:] - s_path[:-1], 0.0)
    rewards = np.empty_like(slot_rewards)
    np.put_along_axis(rewards, order, slot_rewards, axis=0)
    return rewards, np.einsum("jt,tj->t", s_path - s_path[0], masses.T)


def draw_working_set(model, n):
    """Bytes of one full chunk's draws while they are drawn: the outcome
    uniforms, the outcomes, ``u_lat``, the signal uniforms and the signals."""
    trials = montecarlo._CHUNK_ELEMENTS // (n * model.num_outcomes)
    return 8 * trials * (2 + 3 * n)


def assert_close(actual, expected):
    """Equal within 1e-13 of the largest magnitude in ``expected``."""
    assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))


def stats_equal(a, b):
    """Every field of two SimStats, bit for bit."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(SimStats))


def assert_paired_equals_separate(model, mechanism, base, i, deviation, trials, seed, h):
    """``deviation_test`` equals, bit for bit, the paired difference of two
    separate ``per_trial_records`` runs."""
    kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=h)
    if isinstance(deviation, ReportPolicy):
        dev = base.replace_agent(i, policy=deviation)
    elif isinstance(deviation, tuple):
        dev = base.replace_agent(i, effort=deviation[0], policy=deviation[1])
    else:
        dev = base.replace_agent(i, effort=deviation)
    u_base = per_trial_records(model, mechanism, base, trials, seed, **kw)["utilities"]
    u_dev = per_trial_records(model, mechanism, dev, trials, seed, **kw)["utilities"]
    delta = u_dev[:, i] - u_base[:, i]
    expected = (float(delta.mean()), float(delta.std(ddof=1) / math.sqrt(trials)))
    assert deviation_test(model, mechanism, base, i, deviation, trials, seed,
                          **kw) == expected, (mechanism, i, deviation, h)


class TestDeterminism:
    @pytest.mark.parametrize("mechanism", ["fpm", "mvp", "pm_batch", "pm_sequential"])
    def test_same_seed_same_stats(self, mechanism):
        kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=H1)
        a = simulate(MODEL, mechanism, PROFILE, 3000, 17, **kw)
        b = simulate(MODEL, mechanism, PROFILE, 3000, 17, **kw)
        assert stats_equal(a, b)

    @pytest.mark.parametrize("mechanism, wide", [
        (mechanism, wide) for wide in (False, True)
        for mechanism in ("fpm", "mvp", "pm_batch", "pm_sequential")],
        ids=["fpm", "mvp", "pm_batch", "pm_sequential", "fpm-wide-mixed",
             "mvp-wide-mixed", "pm_batch-wide-mixed", "pm_sequential-wide-mixed"])
    def test_chunking_never_changes_results(self, mechanism, wide, monkeypatch):
        # the wide case: 40 agents of every policy kind, 3-valued signals
        model, profile, trials = ((binary_model(3, 4), mixed_profile(40, 4), 700)
                                  if wide else (MODEL, PROFILE, 5000))

        def run(h):
            kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=h)
            stats = simulate(model, mechanism, profile, trials, 23, **kw)
            records = per_trial_records(model, mechanism, profile, trials, 23, **kw)
            # the streamed reduction and the reduction of the whole books agree
            assert stats_equal(stats, SimStats.from_records(mechanism, profile, records))
            return (stats, records,
                    deviation_test(model, mechanism, profile, 0, 0.5, trials, 23, **kw))

        whole = [run(h) for h in (H1, DEADLINE)]
        # 2 agents x 2 outcomes: 613-trial chunks instead of one (30 when wide)
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 4 * 613)
        for h, expected in zip((H1, DEADLINE), whole):
            chunked = run(h)
            assert stats_equal(expected[0], chunked[0])
            for key, array in expected[1].items():
                assert np.array_equal(array, chunked[1][key]), key
            assert expected[2] == chunked[2]

    def test_paired_sequential_chunking_never_changes_results(self, monkeypatch):
        kw = dict(rule=QUAD20, latency=LAT1, h=H1)
        base, delayed = StrategyProfile.symmetric(0.3, 8), ReportPolicy("delayed", delay=0.5)
        whole = [deviation_test(MODEL, "mvp", base, i, delayed, 5000, 23, **kw)
                 for i in (0, 4, 7)]
        # 8 agents x 2 outcomes: 613-trial chunks instead of one
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 16 * 613)
        assert [deviation_test(MODEL, "mvp", base, i, delayed, 5000, 23, **kw)
                for i in (0, 4, 7)] == whole

    def test_different_seeds_differ(self):
        a = simulate(MODEL, "fpm", PROFILE, 1000, 1, rule=QUAD20, access=ACC)
        b = simulate(MODEL, "fpm", PROFILE, 1000, 2, rule=QUAD20, access=ACC)
        assert not np.array_equal(a.reward_mean, b.reward_mean)


class TestAccounting:
    @pytest.mark.parametrize("market", ["n2", "n9", "wide-mixed"])
    @pytest.mark.parametrize("mechanism", ["fpm", "mvp", "pm_batch", "pm_sequential"])
    def test_welfare_identity_bit_exact(self, mechanism, market):
        # from 8 agents up numpy sums the utilities pairwise, not left to right
        model, profile, trials = {
            "n2": (MODEL, PROFILE, 2000),
            "n9": (MODEL, StrategyProfile.symmetric(0.3, 9), 2000),
            "wide-mixed": (binary_model(3, 4), mixed_profile(40, 4), 700)}[market]
        rec = per_trial_records(model, mechanism, profile, trials, 5,
                                rule=QUAD20, access=ACC, latency=LAT1, h=H1)
        recomputed = rec["principal_utility"] + rec["utilities"].sum(axis=1)
        assert np.array_equal(rec["welfare"], recomputed)
        assert np.array_equal(np.signbit(rec["welfare"]), np.signbit(recomputed))
        principal = rec["value"] - rec["rewards"].sum(axis=1)
        assert np.array_equal(rec["principal_utility"], principal)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 128, 129, 300])
    def test_agent_sum_is_numpys_sum(self, n):
        """Row additions left to right under 8 terms, added to +0.0; numpy's
        own sum from 8 up."""
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, 600)) * 10.0 ** rng.integers(-30, 30, (n, 600))
        rows[:, :40] = -0.0  # whole trials of -0.0 sum to +0.0
        rows[:, 40:80] = 0.0
        rows[:, 80:100] *= np.where(rng.random((n, 20)) < 0.5, -0.0, 0.0)
        rows[rng.random(rows.shape) < 0.1] = -0.0
        rows[:, 100] = 1e300  # and a few with one term that dwarfs the rest
        rows[0, 101] = -1e300
        expected = np.ascontiguousarray(rows.T).sum(axis=1)
        got = montecarlo._agent_sum(rows)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 5000, 40_000])
    @pytest.mark.parametrize("chunks", [(613,), (1024,), (10_922,), (16_384,), (500, 10_922)],
                             ids=["613", "1024", "10922", "16384", "500-10922"])
    def test_block_reducer_equals_the_per_block_oracle(self, trials, chunks):
        """The whole blocks of a chunk at once, cumulative sums for the
        merges, one buffered block: the per-block reducer's bits.  40 000
        trials in chunks of 16 384 merge 16 blocks at once onto earlier ones;
        chunks of 10 922 (n = 3, d = 2) leave a partial block, and after
        one of 500 a chunk first completes the buffered block, so its whole
        blocks neither start nor fill its rows."""
        rng = np.random.default_rng(trials + sum(chunks))
        books = rng.standard_normal((6, trials)) * 10.0 ** rng.integers(-8, 8, (6, 1))
        books[2] += 1e6  # a large mean, where a naive sum of squares cancels
        oracle = BlockMoments(6, trials)
        oracle.add(books[:2].T, books[2:4].T, books[4], books[5])
        moments = montecarlo._Moments(6, trials)
        start, lengths = 0, itertools.cycle(chunks)
        while start < trials:
            stop = start + next(lengths)
            moments.add(books[:, start:stop].copy())  # add overwrites it
            start = stop
        got, expected = moments.finish(), oracle.finish()
        assert got[0] == expected[0] == trials
        for a, b in zip(got[1:], expected[1:]):
            assert np.array_equal(a, b)

    def test_block_reducer_copies_no_strided_blocks(self):
        """A 6 x 10 922 chunk reduces 10 whole blocks in place, as a 16 384
        one reduces 16: a copy of its whole blocks alone would be 480 KiB.
        So does the next chunk, which first completes the buffered block."""
        rng = np.random.default_rng(5)
        moments = montecarlo._Moments(6, 1_000_000)
        for books in (rng.standard_normal((6, 10_922)), rng.standard_normal((6, 10_922))):
            tracemalloc.start()
            try:
                moments.add(books)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 128 * 2 ** 10, peak

    def test_from_records_copies_one_chunk_at_a_time(self):
        """2e5 trials of n = 2: an agent-major copy of the whole records
        would take 9.2 MiB; slices of about 2^16 entries take 0.5 MiB and the
        buffered block 48 KiB."""
        records = per_trial_records(MODEL, "fpm", PROFILE, 200_000, 5, rule=QUAD20, access=ACC)
        tracemalloc.start()
        try:
            SimStats.from_records("fpm", PROFILE, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak

    @pytest.mark.parametrize("mechanism", ["fpm", "mvp"])
    def test_block_merged_stats_match_numpy(self, mechanism):
        # 5000 trials: four full 1024-trial blocks and a partial one
        profile = StrategyProfile((0.3, 0.6, 0.0))
        kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=H1)
        rec = per_trial_records(MODEL, mechanism, profile, 5000, 8, **kw)
        stats = simulate(MODEL, mechanism, profile, 5000, 8, **kw)
        for mean, se, books in [(stats.reward_mean, stats.reward_se, rec["rewards"]),
                                (stats.utility_mean, stats.utility_se, rec["utilities"])]:
            np.testing.assert_allclose(mean, books.mean(axis=0), rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(se, books.std(axis=0, ddof=1) / math.sqrt(5000),
                                       rtol=1e-12, atol=1e-15)
        assert stats.welfare_mean == pytest.approx(rec["welfare"].mean(), rel=1e-12)
        assert stats.principal_utility_mean == pytest.approx(
            rec["principal_utility"].mean(), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("mechanism", ["fpm", "mvp"])
    def test_one_trial_has_zero_standard_errors(self, mechanism):
        stats = simulate(MODEL, mechanism, PROFILE, 1, 3, rule=QUAD20,
                         access=ACC, latency=LAT1, h=H1)
        rec = per_trial_records(MODEL, mechanism, PROFILE, 1, 3, rule=QUAD20,
                                access=ACC, latency=LAT1, h=H1)
        assert stats.trials == 1
        np.testing.assert_array_equal(stats.reward_mean, rec["rewards"][0])
        np.testing.assert_array_equal(stats.reward_se, 0.0)
        np.testing.assert_array_equal(stats.utility_se, 0.0)

    def test_pm_batch_hands_all_value_to_the_winner(self):
        rec = per_trial_records(MODEL, "pm_batch", PROFILE, 2000, 5, access=ACC)
        np.testing.assert_array_equal(rec["rewards"].sum(axis=1), rec["value"])
        np.testing.assert_array_equal(rec["principal_utility"], 0.0)

    def test_silent_profile_earns_and_costs_nothing(self):
        profile = StrategyProfile.symmetric(0.0, 2, ReportPolicy("silent"))
        for mechanism in ("fpm", "mvp", "pm_batch", "pm_sequential"):
            stats = simulate(MODEL, mechanism, profile, 500, 9, rule=QUAD20,
                             access=ACC, latency=LAT1, h=H1)
            np.testing.assert_array_equal(stats.reward_mean, 0.0)
            assert stats.welfare_mean == 0.0


class TestAgainstExactValues:
    def test_fpm_matches_exact_expected_rewards(self):
        q = ACC.value(0.3)
        exact = fpm_expected_reward(MODEL, QUAD20, [q, q])
        stats = simulate(MODEL, "fpm", PROFILE, 200_000, 31, rule=QUAD20, access=ACC)
        for i in range(2):
            assert abs(stats.reward_mean[i] - exact[i]) < 3 * stats.reward_se[i]

    def test_mvp_matches_analytic_reward(self):
        v = v_sequence(MODEL, QUAD20, 2)
        exact = mvp_agent_reward(LAT1, H1, v, 2, 0.3)
        stats = simulate(MODEL, "mvp", PROFILE, 200_000, 37, rule=QUAD20,
                         latency=LAT1, h=H1)
        for i in range(2):
            assert abs(stats.reward_mean[i] - exact) < 3 * stats.reward_se[i]

    @pytest.mark.parametrize("n", [2, 8])
    def test_mvp_with_deadline_matches_quadrature_reward(self, n):
        v = v_sequence(MODEL, QUAD20, n)
        exact = mvp_agent_reward(LAT1, DEADLINE, v, n, 0.3, method="quadrature")
        stats = simulate(MODEL, "mvp", StrategyProfile.symmetric(0.3, n), 100_000, 47,
                         rule=QUAD20, latency=LAT1, h=DEADLINE)
        assert np.all(np.abs(stats.reward_mean - exact) < 4 * stats.reward_se)

    def test_mvp_single_agent_closed_form(self):
        model = InformationModel.binary_noisy(0.02, 0.2)
        rule = ScoringRule("quadratic")
        v = v_sequence(model, rule, 1)
        # arrival Exp(1), reward v1 * E[e^-T] = v1 * lam c / (lam c + eta)
        exact = v[1] * 0.5
        stats = simulate(model, "mvp", StrategyProfile.symmetric(1.0, 1),
                         400_000, 41, rule=rule, latency=LAT1, h=H1)
        assert abs(stats.reward_mean[0] - exact) < 3 * stats.reward_se[0]

    def test_pm_sequential_rank_rewards_average_to_total_gain(self):
        # uniform ranks: every agent expects v_n / n
        v = v_sequence(MODEL, QUAD20, 2)
        stats = simulate(MODEL, "pm_sequential", PROFILE, 200_000, 43,
                         rule=QUAD20, latency=LAT1, h=H1)
        for i in range(2):
            assert abs(stats.reward_mean[i] - v[2] / 2) < 3 * stats.reward_se[i]


class TestEngineMatchesMechanisms:
    """Replaying the exact draw streams through the reference mechanisms."""

    def _draws(self, model, n, trials, seed):
        y, u_lat, u_sig, _ = column_stack_draws(model, n, trials, seed)
        return y, u_lat, _draw_signals(model, y, u_sig.T).T

    def test_fpm_settlement(self):
        trials, seed = 150, 99
        efforts = (0.4, 0.7)
        profile = StrategyProfile(efforts)
        rec = per_trial_records(MODEL, "fpm", profile, trials, seed,
                                rule=QUAD20, access=ACC)
        y, u_lat, xs = self._draws(MODEL, 2, trials, seed)
        prior = MODEL.prior_belief()
        for t in range(trials):
            reports = []
            for i in range(2):
                if u_lat[t, i] < ACC.value(efforts[i]):
                    reports.append(truthful_report(MODEL, int(xs[t, i])))
                else:
                    reports.append(ReportVector.no_signal(2))
            result = fpm_run(prior, BatchOutcomeReport(tuple(reports), int(y[t])),
                             QUAD20)
            np.testing.assert_allclose(rec["rewards"][t], result.rewards, atol=1e-10)

    def test_mvp_settlement(self):
        trials, seed = 150, 77
        efforts = (0.5, 1.1)
        profile = StrategyProfile(efforts)
        rec = per_trial_records(MODEL, "mvp", profile, trials, seed,
                                rule=QUAD20, latency=LAT1, h=H1)
        y, u_lat, xs = self._draws(MODEL, 2, trials, seed)
        prior = MODEL.prior_belief()
        for t in range(trials):
            reports = [TimedReport(i, float(-np.log1p(-u_lat[t, i])
                                            / (LAT1.lam * efforts[i])),
                                   truthful_report(MODEL, int(xs[t, i])))
                       for i in range(2)]
            _, rewards = mvp_run(prior, reports, int(y[t]), QUAD20, H1,
                                 num_agents=2)
            np.testing.assert_allclose(rec["rewards"][t], rewards, atol=1e-10)


class TestKernelMatchesLoopOracle:
    """The agent-vectorized chunk kernel against the per-agent loops it replaced."""

    @pytest.mark.parametrize("m", [2, 3, 40])
    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_bit_for_bit(self, n, m, monkeypatch):
        model = binary_model(m, m)
        # one agent, or two neighbours (the two-agent slot order), play each
        # (policy, effort) pair in turn
        profiles = [mixed_profile(n, n + m, start) for start in range(12 if n <= 2 else 1)]
        trials, seed = 600, 61
        # several chunks, the last one short
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 1 << 12)
        for profile in profiles:
            for mechanism, h in [("fpm", None), ("pm_batch", None),
                                 ("mvp", H1), ("mvp", DEADLINE),
                                 ("pm_sequential", H1), ("pm_sequential", DEADLINE)]:
                kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=h)
                rec = per_trial_records(model, mechanism, profile, trials, seed, **kw)
                canonical = on_table(model, mechanism, profile, QUAD20)
                rewards, value = loop_settlement(model, mechanism, profile, trials,
                                                 seed, **kw, canonical=canonical)
                assert np.array_equal(rec["rewards"].T, rewards), (mechanism, h)
                assert np.array_equal(rec["value"], value), (mechanism, h)
                if canonical:
                    # the table's fold order moves only the last bits
                    rewards, value = loop_settlement(model, mechanism, profile, trials,
                                                     seed, **kw)
                    assert_close(rec["rewards"].T, rewards)
                    assert_close(rec["value"], value)


class TestDeviations:
    def test_identical_policy_is_exactly_neutral(self):
        delta, se = deviation_test(MODEL, "mvp", PROFILE, 0,
                                   ReportPolicy("truthful"), 2000, 3,
                                   rule=QUAD20, latency=LAT1, h=H1)
        assert delta == 0.0 and se == 0.0

    def test_delaying_reports_hurts(self):
        delta, se = deviation_test(MODEL, "mvp", PROFILE, 0,
                                   ReportPolicy("delayed", delay=0.5),
                                   100_000, 13, rule=QUAD20, latency=LAT1, h=H1)
        assert delta < -3 * se

    def test_misreporting_hurts_in_the_batch_market(self):
        delta, se = deviation_test(MODEL, "fpm", PROFILE, 0,
                                   ReportPolicy("perturbed", epsilon=0.1),
                                   100_000, 13, rule=QUAD20, access=ACC)
        assert delta < -3 * se

    def test_misreporting_hurts_in_the_sequential_market(self):
        delta, se = deviation_test(MODEL, "mvp", PROFILE, 0,
                                   ReportPolicy("perturbed", epsilon=0.1),
                                   100_000, 13, rule=QUAD20, latency=LAT1, h=H1)
        assert delta < -3 * se

    def test_effort_deviation_from_equilibrium_hurts(self):
        from infomarkets import mvp_equilibrium
        v = v_sequence(MODEL, QUAD20, 2)
        c_star = mvp_equilibrium(LAT1, H1, v, 2).effort
        base = StrategyProfile.symmetric(c_star, 2)
        for c_dev in (c_star / 2, c_star * 2):
            delta, se = deviation_test(MODEL, "mvp", base, 0, c_dev,
                                       400_000, 19, rule=QUAD20,
                                       latency=LAT1, h=H1)
            assert delta < 0
            assert delta < -2 * se

    @pytest.mark.parametrize("deviation", [
        ReportPolicy("delayed", delay=0.5), ReportPolicy("perturbed", epsilon=0.1),
        0.5, 1.5,
    ], ids=["delayed", "perturbed", "half-effort", "one-and-a-half-effort"])
    def test_every_deviation_hurts_before_a_deadline(self, deviation):
        """n = 2 at the deadline equilibrium; a bare number scales its effort."""
        from infomarkets import mvp_equilibrium
        c_star = mvp_equilibrium(LAT1, DEADLINE, v_sequence(MODEL, QUAD20, 2), 2).effort
        if isinstance(deviation, float):
            deviation *= c_star
        delta, se = deviation_test(MODEL, "mvp", StrategyProfile.symmetric(c_star, 2), 0,
                                   deviation, 200_000, 53, rule=QUAD20, latency=LAT1,
                                   h=DEADLINE)
        assert delta < -3 * se

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("mechanism, deviation", [
        ("fpm", 0.6),
        ("fpm", ReportPolicy("perturbed", epsilon=0.1)),
        ("fpm", 0.0),
        ("fpm", ReportPolicy("silent")),
        ("fpm", (0.45, ReportPolicy("perturbed", epsilon=-0.15))),
        ("mvp", ReportPolicy("delayed", delay=0.5)),
        ("mvp", ReportPolicy("perturbed", epsilon=0.1)),
        ("mvp", 0.6),
        ("mvp", 0.0),
        ("mvp", ReportPolicy("silent")),
        ("mvp", (0.45, ReportPolicy("delayed", delay=0.3))),
        ("pm_batch", 0.6),
        ("pm_sequential", ReportPolicy("delayed", delay=0.5)),
    ], ids=["fpm-effort", "fpm-perturbed", "fpm-zero-effort", "fpm-silent", "fpm-pair",
            "mvp-delayed", "mvp-perturbed", "mvp-effort", "mvp-zero-effort", "mvp-silent",
            "mvp-pair", "pm_batch-effort", "pm_sequential-delayed"])
    def test_shared_draws_equal_two_separate_runs(self, mechanism, deviation, n):
        """Settling both arms on one draw per chunk (the deviant alone in
        mvp) changes no bit, whichever agent deviates and whatever the
        time value."""
        base = StrategyProfile.symmetric(0.3, n)
        for h in (H1, DEADLINE) if mechanism in ("mvp", "pm_sequential") else (H1,):
            for i in sorted({0, n // 2, n - 1}):
                assert_paired_equals_separate(MODEL, mechanism, base, i, deviation,
                                              3000, 41, h)

    @pytest.mark.parametrize("mechanism", ["fpm", "mvp", "pm_batch", "pm_sequential"])
    def test_shared_draws_equal_two_separate_runs_wide_mixed(self, mechanism):
        """40 agents of every policy kind, 3-valued signals: the deviant's
        own baseline policy may be silent, perturbed or delayed."""
        model, base = binary_model(3, 4), mixed_profile(40, 4)
        # at agents 8 and 12 the batch rewards' last bits depend on folding
        # the later columns backward, as settle_batch does
        for i in (0, 8, 12, 20, 39):
            for deviation in (0.6, ReportPolicy("perturbed", epsilon=0.1)):
                assert_paired_equals_separate(model, mechanism, base, i, deviation,
                                              700, 23, H1)

    def test_shared_draws_equal_two_separate_runs_mixed_on_the_table(self):
        """mvp, 8 agents of every policy kind: both arms gather from their
        score tables, whether the deviant's own baseline policy is truthful,
        silent, perturbed or delayed, at zero effort or not."""
        model, base = binary_model(3, 4), mixed_profile(8, 4)
        for i in range(8):
            for deviation in (dict(effort=0.6), dict(policy=ReportPolicy("perturbed",
                                                                         epsilon=0.1))):
                for profile in (base, base.replace_agent(i, **deviation)):
                    assert on_table(model, "mvp", profile, QUAD20)
                deviation = deviation.get("policy", deviation.get("effort"))
                for h in (H1, DEADLINE):
                    assert_paired_equals_separate(model, "mvp", base, i, deviation,
                                                  700, 23, h)

    def test_shared_draws_equal_two_separate_runs_across_the_bound(self):
        """mvp, 9 agents: perturbing a silent agent takes the deviant arm
        over the table bound, while the baseline arm stays on its table."""
        model, base = binary_model(3, 4), mixed_profile(9, 4)
        perturb = ReportPolicy("perturbed", epsilon=0.1)
        for i in (1, 5):
            assert on_table(model, "mvp", base, QUAD20)
            assert not on_table(model, "mvp", base.replace_agent(i, policy=perturb), QUAD20)
            assert_paired_equals_separate(model, "mvp", base, i, perturb, 700, 23, H1)

    @pytest.mark.parametrize("mechanism, deviation", [
        ("fpm", ReportPolicy("perturbed", epsilon=0.1)),
        ("mvp", ReportPolicy("delayed", delay=0.5)),
    ], ids=["fpm-perturbed", "mvp-delayed"])
    def test_many_chunks_equal_two_separate_runs(self, mechanism, deviation):
        """12 chunks of 16 384 trials and a partial one: the in-place
        standard error is np.std(ddof=1)'s, bit for bit."""
        assert_paired_equals_separate(MODEL, mechanism, PROFILE, 0, deviation,
                                      200_000, 41, H1)

    def test_memory_is_one_float_per_trial_and_one_chunk(self, monkeypatch):
        # 1e6 trials: the (trials,) differences take 7.6 MiB and a chunk's
        # scratch about 4.2 MiB; a copy of the differences for the standard
        # error would add 7.6 MiB.  Past one chunk the helper thread draws
        # the next chunk while one settles: 1 MiB more at n = 2
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        kw = dict(rule=QUAD20, latency=LAT1, h=H1)
        delay = ReportPolicy("delayed", delay=0.5)
        for trials, bound in ((16_384, 4.5 * 2 ** 20),
                              (1_000_000, 12 * 2 ** 20 + draw_working_set(MODEL, 2))):
            tracemalloc.start()
            try:
                deviation_test(MODEL, "mvp", PROFILE, 0, delay, trials, 1, **kw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (trials, peak)

    def test_deviant_agent_must_exist(self):
        with pytest.raises(ValueError):
            deviation_test(MODEL, "fpm", PROFILE, 5, 0.1, 100, 0,
                           rule=QUAD20, access=ACC)

    @pytest.mark.parametrize("agent", [True, 0.5, -1])
    def test_deviant_agent_must_be_an_index(self, agent):
        with pytest.raises(ValueError, match=r"^deviant_agent must be an integer of at least 0"):
            deviation_test(MODEL, "fpm", PROFILE, agent, 0.1, 100, 0,
                           rule=QUAD20, access=ACC)


class TestDrawAhead:
    """A run of several chunks draws chunk k + 1 on a helper thread while
    chunk k settles: the bits of drawing inline, the helper's exceptions
    raised in the caller, and no thread left behind."""

    @staticmethod
    def draw_on(monkeypatch, cpus):
        """Let runs see ``cpus`` CPUs; returns, for each chunk drawn, whether
        the main thread drew its outcomes (every mechanism draws those)."""
        monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
        on_main = []

        def spy(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            return _draw_outcomes(*args)
        monkeypatch.setattr(montecarlo, "_draw_outcomes", spy)
        return on_main

    @pytest.mark.parametrize("wide", [False, True], ids=["n2", "wide-mixed"])
    @pytest.mark.parametrize("mechanism", ["fpm", "mvp", "pm_batch", "pm_sequential"])
    def test_helper_draws_give_the_inline_bits(self, mechanism, wide, monkeypatch):
        # 613-trial chunks at n = 2, 30 for 40 agents
        model, profile, trials = ((binary_model(3, 4), mixed_profile(40, 4), 700)
                                  if wide else (MODEL, PROFILE, 5000))
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 4 * 613)
        kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=DEADLINE)
        deviations = (0.5, ReportPolicy("perturbed", epsilon=0.1))

        def run(cpus):
            on_main = self.draw_on(monkeypatch, cpus)
            results = (simulate(model, mechanism, profile, trials, 23, **kw),
                       per_trial_records(model, mechanism, profile, trials, 23, **kw),
                       [deviation_test(model, mechanism, profile, i, deviation, trials, 23,
                                       **kw)
                        for i in (0, profile.num_agents - 1) for deviation in deviations])
            return results, on_main
        inline, on_main = run(1)
        assert on_main and all(on_main)
        ahead, on_main = run(2)
        assert on_main and not any(on_main)
        assert stats_equal(inline[0], ahead[0])
        for key, array in inline[1].items():
            assert np.array_equal(array, ahead[1][key]), key
        assert inline[2] == ahead[2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pm_batch_draws_no_signals(self, cpus, monkeypatch):
        """A winner race reads no signals, so none are drawn for it."""
        def refused(*args):
            raise AssertionError("a pm_batch run drew signals")
        monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
        monkeypatch.setattr(montecarlo, "_draw_signals", refused)
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 4 * 613)
        simulate(MODEL, "pm_batch", PROFILE, 3000, 7, access=ACC)
        per_trial_records(MODEL, "pm_batch", PROFILE, 3000, 7, access=ACC)
        deviation_test(MODEL, "pm_batch", PROFILE, 0, 0.5, 3000, 7, access=ACC)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_draw_error_reaches_the_caller(self, cpus, monkeypatch):
        """A draw that raises in chunk 3 ends the run with its own exception,
        and the helper is gone while its traceback is still alive."""
        class DrawError(Exception):
            pass
        calls = []

        def failing(*args):
            calls.append(threading.current_thread() is threading.main_thread())
            if len(calls) == 3:
                raise DrawError("chunk 3")
            return _draw_signals(*args)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
        monkeypatch.setattr(montecarlo, "_draw_signals", failing)
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 4 * 613)
        kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=H1)
        threads = threading.active_count()
        for run in (lambda: simulate(MODEL, "mvp", PROFILE, 5000, 3, **kw),
                    lambda: per_trial_records(MODEL, "fpm", PROFILE, 5000, 3, **kw),
                    lambda: deviation_test(MODEL, "mvp", PROFILE, 0, 0.5, 5000, 3, **kw)):
            calls.clear()
            with pytest.raises(DrawError, match="chunk 3") as info:
                run()
            assert threading.active_count() == threads, info.traceback
            assert calls == [cpus == 1] * 3

    def test_concurrent_runs_keep_their_bits(self, monkeypatch):
        """Four runs at once, each with its helper (eight threads on fewer
        cores), under a short switch interval: each hand-over of a chunk
        still gives every run the inline bits."""
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 4 * 101)
        kw = dict(rule=QUAD20, latency=LAT1, h=H1)
        seeds = (1, 2, 3, 4)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 1)
        inline = [per_trial_records(MODEL, "mvp", PROFILE, 3000, seed, **kw) for seed in seeds]
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        results = {}

        def run(seed):
            results[seed] = per_trial_records(MODEL, "mvp", PROFILE, 3000, seed, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
            for thread in runs:
                thread.start()
            for thread in runs:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed, expected in zip(seeds, inline):
            for key, array in expected.items():
                assert np.array_equal(results[seed][key], array), (seed, key)

    def test_no_thread_outlives_a_run(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 4 * 613)
        kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=H1)
        threads = threading.active_count()
        simulate(MODEL, "mvp", PROFILE, 5000, 3, **kw)
        assert threading.active_count() == threads
        books = montecarlo._books(MODEL, "mvp", PROFILE, 5000, 3, QUAD20, None, LAT1, H1)
        next(books)
        assert threading.active_count() == threads + 1  # drawing the next chunk
        del books  # abandoned after one chunk
        assert threading.active_count() == threads


class TestScoreTable:
    """The count-vector score table against exact beliefs, and the two
    settlement routes against each other."""

    #: 3 outcomes, 3 signal values
    THREE = InformationModel(np.array([0.5, 0.3, 0.2]),
                             np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]))
    #: noiseless binary signals: two agents who saw different signals are impossible
    NOISELESS = InformationModel.binary_noisy(0.3, 0.0)
    #: 3-valued signals with zero likelihoods
    PARTIAL = InformationModel(np.array([0.6, 0.4]),
                               np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]))

    @staticmethod
    def exact_score(model, counts, y, scale):
        """The quadratic score at y of the posterior after ``counts[x]``
        signals x, in exact rational arithmetic, or None if impossible."""
        weights = [Fraction(model.prior[k]) * math.prod(
            Fraction(model.likelihood[k, x]) ** c for x, c in enumerate(counts))
            for k in range(model.num_outcomes)]
        total = sum(weights)
        if total == 0:
            return None
        p = [w / total for w in weights]
        return float(scale * (2 * p[y] - sum(q * q for q in p)))

    @pytest.mark.parametrize("name", ["MODEL", "NOISELESS", "THREE"])
    def test_scores_match_exact_beliefs(self, name):
        """Every count vector of up to six truthful agents, every outcome."""
        model = MODEL if name == "MODEL" else getattr(self, name)
        m, d = model.num_signal_values, model.num_outcomes
        for n in range(1, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                steps, scores = score_table(model, QUAD20, StrategyProfile.symmetric(0.3, n),
                                            sequential=False)
            # the table has a key for each count vector of the n agents' states
            assert scores.size == (n + 1) ** m * d
            for counts in itertools.product(range(n + 1), repeat=m):
                if sum(counts) > n:
                    continue
                # agent k in state 0 (no signal) or 1 + its signal
                states = np.repeat(np.arange(m + 1), [n - sum(counts), *counts])
                key = steps[(m + 1) * np.arange(n) + states].sum()
                for y in range(d):
                    exact = self.exact_score(model, counts, y, QUAD20.scale)
                    if exact is None:
                        assert np.isnan(scores[key + y]), (n, counts, y)
                    else:
                        assert scores[key + y] == pytest.approx(exact, rel=1e-13, abs=1e-13), (
                            n, counts, y)

    @pytest.mark.parametrize("mechanism", ["fpm", "mvp", "pm_sequential"])
    def test_impossible_configuration_is_refused(self, mechanism, monkeypatch):
        """Agent 0 saw signal 0 and agent 1 signal 1 of a noiseless model: the
        table holds NaN there, and gathering it raises as the fold does."""
        def signals(model, y, u):
            return np.broadcast_to(np.arange(u.shape[0])[:, None] % 2, u.shape)
        monkeypatch.setattr(montecarlo, "_draw_signals", signals)
        profile = StrategyProfile.symmetric(3.0, 2)
        kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=H1)
        assert on_table(self.NOISELESS, mechanism, profile, QUAD20)
        threads, bound = threading.active_count(), montecarlo._TABLE_ENTRIES
        # one chunk drawn inline, then 50-trial chunks drawn by the helper
        for cpus, chunk_elements in ((1, montecarlo._CHUNK_ELEMENTS), (2, 4 * 50)):
            monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
            monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", chunk_elements)
            for entries in (bound, 0):  # the table route, then the direct fold
                monkeypatch.setattr(montecarlo, "_TABLE_ENTRIES", entries)
                with pytest.raises(ValueError, match="disjoint support"):
                    simulate(self.NOISELESS, mechanism, profile, 200, 3, **kw)
                assert threading.active_count() == threads

    @pytest.mark.parametrize("mechanism", ["fpm", "mvp", "pm_sequential"])
    @pytest.mark.parametrize("name, n, rule", [
        ("MODEL", 2, QUAD20), ("MODEL", 8, QUAD20), ("MODEL", 32, QUAD20),
        ("THREE", 3, QUAD20), ("mixed", 5, QUAD20), ("MODEL", 3, LOG3),
        ("NOISELESS", 3, LOG3), ("PARTIAL", 3, LOG3)],
        ids=["MODEL-2", "MODEL-8", "MODEL-32", "THREE-3", "mixed-5", "MODEL-3-log",
             "NOISELESS-3-log", "PARTIAL-3-log"])
    def test_table_route_agrees_with_the_direct_fold(self, name, n, rule, mechanism,
                                                     monkeypatch):
        """``simulate``, ``per_trial_records`` and ``deviation_test`` on the
        table and, with the bound at 0, by the direct fold."""
        if name == "mixed":
            model, base = binary_model(3, 5), mixed_profile(n, 5)
        else:
            model = MODEL if name == "MODEL" else getattr(self, name)
            base = StrategyProfile.symmetric(0.3, n)
        assert on_table(model, mechanism, base, rule)
        deviation = (ReportPolicy("delayed", delay=0.5) if mechanism != "fpm"
                     else 0.6 if name == "THREE" else ReportPolicy("perturbed", epsilon=0.1))
        kw = dict(rule=rule, access=ACC, latency=LAT1, h=DEADLINE)

        def run():
            return (simulate(model, mechanism, base, 2000, 11, **kw),
                    per_trial_records(model, mechanism, base, 2000, 11, **kw),
                    [deviation_test(model, mechanism, base, i, deviation, 2000, 11, **kw)
                     for i in (0, n - 1)])
        tabled = run()
        monkeypatch.setattr(montecarlo, "_TABLE_ENTRIES", 0)
        direct = run()
        for field in ("reward_mean", "reward_se", "utility_mean", "utility_se",
                      "principal_utility_mean", "welfare_mean"):
            assert_close(getattr(tabled[0], field), getattr(direct[0], field))
        for key, books in direct[1].items():
            assert_close(tabled[1][key], books)
        assert_close(np.array(tabled[2]), np.array(direct[2]))


class TestRoutes:
    """Which profiles a score table settles, and what the table costs."""

    @staticmethod
    def truthful_tables(n):
        """The batch policy tables of n truthful agents with binary signals:
        two columns of n + 1 counts each, at 2 outcomes."""
        return montecarlo._policy_tables(MODEL, StrategyProfile.symmetric(0.3, n),
                                         sequential=False)

    def test_bound_on_the_entries(self):
        # 256^2 x 2 entries fill 2^17, 257^2 x 2 exceed it
        assert montecarlo._TABLE_ENTRIES == 1 << 17
        assert montecarlo._score_table(MODEL, QUAD20, *self.truthful_tables(255)) is not None
        assert montecarlo._score_table(MODEL, QUAD20, *self.truthful_tables(256)) is None

    def test_building_a_table_at_the_bound_is_bounded(self):
        """The beliefs and scores of 2^17 entries, 1 MiB each, and the
        scratch of scoring one outcome at a time: 5.1 MiB traced."""
        tables = self.truthful_tables(255)
        tracemalloc.start()
        try:
            montecarlo._score_table(MODEL, QUAD20, *tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 2 ** 20, peak

    @pytest.mark.parametrize("mechanism", ["fpm", "mvp", "pm_sequential"])
    def test_over_bound_profiles_equal_the_loop_oracle(self, mechanism):
        """Many distinct perturbed reports, or 40-valued signals at n = 300:
        settled by the direct fold, bit for bit."""
        for model, profile, trials in ((binary_model(3, 7), mixed_profile(33, 7), 300),
                                       (weak_wide_model(), StrategyProfile.symmetric(1.0, 300),
                                        20)):
            assert not on_table(model, mechanism, profile, QUAD20)
            kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=H1)
            rec = per_trial_records(model, mechanism, profile, trials, 61, **kw)
            rewards, value = loop_settlement(model, mechanism, profile, trials, 61, **kw)
            assert np.array_equal(rec["rewards"].T, rewards)
            assert np.array_equal(rec["value"], value)

    @pytest.mark.parametrize("sequential", [False, True])
    def test_policy_tables_give_the_unique_row_table(self, sequential):
        """Distinct columns from the distinct policies' tables: the steps and
        scores of ``np.unique`` over one row per agent and state, or None
        for both, on and over the bound."""
        perturb = ReportPolicy("perturbed", epsilon=0.1)
        cases = [(MODEL, StrategyProfile.symmetric(0.3, n)) for n in (2, 32, 255, 256)]
        cases += [(binary_model(3, 4), mixed_profile(n, 4)) for n in (8, 9, 33)]
        cases += [(binary_model(3, 4), mixed_profile(9, 4).replace_agent(i, policy=perturb))
                  for i in (1, 5)]
        cases += [(binary_model(3, 7), mixed_profile(33, 7)),
                  (weak_wide_model(), StrategyProfile.symmetric(1.0, 300))]
        routes = []
        for model, profile in cases:
            tables, holder = montecarlo._policy_tables(model, profile, sequential)
            expected = unique_row_score_table(
                model, QUAD20, tables[holder].reshape(-1, model.num_outcomes))
            got = montecarlo._score_table(model, QUAD20, tables, holder)
            routes.append(got is not None)
            assert (got is None) == (expected is None)
            if got is not None:
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1], equal_nan=True)
        assert any(routes) and not all(routes)

    def test_chunk_length_never_switches_the_route(self, monkeypatch):
        built = montecarlo._score_table
        routes = []

        def spy(*args):
            scored = built(*args)
            routes.append(scored is not None)
            return scored
        monkeypatch.setattr(montecarlo, "_score_table", spy)
        cases = [(MODEL, PROFILE), (MODEL, StrategyProfile.symmetric(0.3, 32)),
                 (binary_model(3, 4), mixed_profile(33, 4))]
        seen = []
        for chunk in (1 << 8, 1 << 16, 1 << 22):
            monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", chunk)
            routes.clear()
            for model, profile in cases:
                for mechanism in ("fpm", "mvp", "pm_sequential"):
                    per_trial_records(model, mechanism, profile, 100, 3, rule=QUAD20,
                                      access=ACC, latency=LAT1, h=H1)
            seen.append(list(routes))
        assert seen[0] == seen[1] == seen[2]
        assert seen[0] == [True] * 6 + [False] * 3


class TestSignalDraws:
    @staticmethod
    def reference(model, y, u):
        """Count every cumulative likelihood at or below u, capped at m - 1."""
        cum_rows = np.cumsum(model.likelihood, axis=1)[y]
        return np.minimum((cum_rows <= u[:, None]).sum(axis=1),
                          model.num_signal_values - 1)

    @pytest.mark.parametrize("m", [2, 3, 40])
    def test_counts_match_the_capped_reference(self, m):
        rng = np.random.default_rng(m)
        lik = rng.dirichlet(np.ones(m), size=3)
        lik[0, : m // 2] = 0.0           # leading zeros: a run of equal cumsums
        lik[1, -1] = 0.0                 # the last cumsum can fall below 1
        lik[2, m // 2] = 0.0
        lik /= lik.sum(axis=1, keepdims=True)
        model = InformationModel(np.array([0.2, 0.5, 0.3]), lik)
        # agent-major draws: 4 agents share each trial's outcome
        y = rng.integers(3, size=5_000)
        u = rng.random((4, 5_000))
        # u exactly at each row's cumulative likelihoods, and at both ends
        y[:3 * m] = np.repeat(np.arange(3), m)
        u[1, :3 * m] = np.cumsum(lik, axis=1).ravel()
        u[:, 3 * m], u[:, 3 * m + 1] = 0.0, 1.0 - 2 ** -53
        x = _draw_signals(model, y, u)
        assert x.shape == u.shape
        assert np.array_equal(x, np.stack([self.reference(model, y, row) for row in u]))
        assert x.min() >= 0 and x.max() <= m - 1

    @pytest.mark.parametrize("prior", [[0.6, 0.4], [0.5, 0.3, 0.2], [0.0, 0.5, 0.0, 0.5],
                                       [0.2, 0.3, 0.5, 0.0, 0.0], [0.1, 0.2, 0.3, 0.15, 0.25]])
    def test_outcomes_match_the_searchsorted_reference(self, prior):
        """Counting the first d - 1 cumulative prior masses at or below u
        is ``searchsorted(cum, u, side="right")`` capped at d - 1,
        zero-mass outcomes included."""
        model = InformationModel(np.array(prior), np.full((len(prior), 2), 0.5))
        cum = np.cumsum(model.prior)
        # u exactly at each cumulative mass, and at both ends
        u = np.concatenate([np.random.default_rng(len(prior)).random(5_000), cum,
                            [0.0, 1.0 - 2 ** -53]])
        expected = np.minimum(np.searchsorted(cum, u, side="right"), len(prior) - 1)
        y = _draw_outcomes(model, u)
        assert y.dtype == expected.dtype and np.array_equal(y, expected)


class TestValidation:
    def test_unknown_mechanism(self):
        with pytest.raises(ValueError, match="mechanism"):
            simulate(MODEL, "lmsr", PROFILE, 10, 0, rule=QUAD20, access=ACC)

    def test_missing_components(self):
        with pytest.raises(ValueError):
            simulate(MODEL, "fpm", PROFILE, 10, 0, rule=QUAD20)
        with pytest.raises(ValueError):
            simulate(MODEL, "mvp", PROFILE, 10, 0, rule=QUAD20)
        with pytest.raises(ValueError):
            simulate(MODEL, "mvp", PROFILE, 10, 0, latency=LAT1)

    @pytest.mark.parametrize("name, trials, seed", [
        ("trials", 0, 0), ("trials", -5, 0), ("trials", 2.5, 0), ("trials", True, 0),
        ("seed", 10, 1.5), ("seed", 10, -1), ("seed", 10, True),
    ])
    def test_trials_positive_and_seed_nonnegative_integers(self, name, trials, seed):
        kw = dict(rule=QUAD20, access=ACC)
        message = rf"^{name} must be an integer of at least"
        for run in (simulate, per_trial_records):
            with pytest.raises(ValueError, match=message):
                run(MODEL, "fpm", PROFILE, trials, seed, **kw)
        with pytest.raises(ValueError, match=message):
            deviation_test(MODEL, "fpm", PROFILE, 0, 0.5, trials, seed, **kw)

    @pytest.mark.parametrize("deviation, effort", [
        (np.int64(1), 1.0), (np.float32(0.5), 0.5), (1, 1.0),
        ((np.float64(0.5), ReportPolicy("delayed", delay=0.5)), 0.5),
        ([0.5, ReportPolicy("delayed", delay=0.5)], 0.5),
    ], ids=["numpy-int", "numpy-float32", "int", "pair-numpy-effort", "pair-list"])
    def test_deviation_effort_may_be_any_real(self, deviation, effort):
        kw = dict(rule=QUAD20, latency=LAT1, h=H1)
        plain = effort if isinstance(deviation, numbers.Real) else (effort, deviation[1])
        assert (deviation_test(MODEL, "mvp", PROFILE, 0, deviation, 500, 3, **kw)
                == deviation_test(MODEL, "mvp", PROFILE, 0, plain, 500, 3, **kw))

    @pytest.mark.parametrize("deviation", [
        "delayed", None, True, np.bool_(True), (0.5,), (0.5, "delayed"),
        (ReportPolicy(), 0.5), (0.5, ReportPolicy(), 1), (True, ReportPolicy()),
    ], ids=["string", "none", "bool", "numpy-bool", "one-tuple", "pair-string-policy",
            "pair-reversed", "triple", "pair-bool-effort"])
    def test_deviation_of_another_type_is_named(self, deviation):
        with pytest.raises(ValueError, match=r"^deviation .*, got " + re.escape(repr(deviation))):
            deviation_test(MODEL, "mvp", PROFILE, 0, deviation, 100, 0,
                           rule=QUAD20, latency=LAT1, h=H1)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            StrategyProfile((-0.1, 0.2))
        with pytest.raises(ValueError):
            StrategyProfile((0.1,), (ReportPolicy(), ReportPolicy()))
        with pytest.raises(ValueError):
            ReportPolicy("noisy")
        with pytest.raises(ValueError):
            ReportPolicy("delayed", delay=-1.0)

    @pytest.mark.parametrize("build, field", [
        (lambda: InformationModel([math.nan, math.nan], np.eye(2)), "prior"),
        (lambda: InformationModel([0.5, 0.5], [[1.0, 0.0], [math.nan, 1.0]]),
         "likelihood row 1"),
        (lambda: Belief([math.nan, math.nan]), "belief"),
        (lambda: ScoreSequence([0.0, math.nan, 1.0]), "score sequence"),
        (lambda: StrategyProfile((math.nan, 0.3)), "efforts"),
        (lambda: ReportPolicy("delayed", delay=math.nan), "delay"),
        (lambda: ReportPolicy("delayed", delay=math.inf), "delay"),
        (lambda: ReportPolicy("perturbed", epsilon=math.nan), "epsilon"),
        (lambda: TimeValue.exponential(math.inf), "eta"),
        (lambda: TimeValue.table([0.0, math.nan], [1.0, 0.0]), "times"),
        (lambda: TimeValue.table([0.0, math.inf], [1.0, 0.0]), "times"),
        (lambda: TimeValue.table([0.0, 1.0], [1.0, math.nan]), "values"),
        (lambda: TimeValue.table([0.0, 1.0], [math.inf, 0.0]), "values"),
        (lambda: ScoringRule("quadratic", math.inf), "scale"),
        (lambda: LatencyFamily(math.inf), "lam"),
        (lambda: AccessFunction.exponential(math.inf), "lam"),
        (lambda: fpm_expected_reward(MODEL, QUAD20, [0.5, math.nan]),
         "signal probabilities"),
    ], ids=["prior", "likelihood", "belief", "score_sequence", "efforts",
            "delay_nan", "delay_inf", "epsilon", "eta_inf", "table_times_nan",
            "table_times_inf", "table_values_nan", "table_values_inf",
            "scale_inf", "latency_lam_inf", "access_lam_inf", "fpm_q_nan"])
    def test_non_finite_inputs_rejected(self, build, field):
        """NaN compares false and inf passes "> 0", so range checks alone let
        them reach simulate; each error names the offending field."""
        with pytest.raises(ValueError, match=field):
            build()

    def test_perturbation_needs_binary_market(self):
        wide = InformationModel(np.full(3, 1 / 3),
                                np.array([[0.8, 0.1, 0.1],
                                          [0.1, 0.8, 0.1],
                                          [0.1, 0.1, 0.8]]))
        profile = StrategyProfile.symmetric(0.3, 2, ReportPolicy("perturbed",
                                                                 epsilon=0.05))
        with pytest.raises(ValueError, match="binary"):
            simulate(wide, "fpm", profile, 10, 0, rule=QUAD20, access=ACC)

    def test_wide_outcome_spaces_simulate_fine_when_truthful(self):
        wide = InformationModel(np.array([0.5, 0.3, 0.2]),
                                np.array([[0.8, 0.1, 0.1],
                                          [0.1, 0.8, 0.1],
                                          [0.1, 0.1, 0.8]]))
        stats = simulate(wide, "mvp", PROFILE, 2000, 7, rule=QUAD20,
                         latency=LAT1, h=H1)
        assert np.all(np.isfinite(stats.reward_mean))

    def test_wide_batch_market_with_many_weak_signals_stays_finite(self):
        # 300 agents with 40-valued signals: each likelihood is about 1/40,
        # far below the smallest double once multiplied together
        profile = StrategyProfile.symmetric(1.0, 300)
        stats = simulate(weak_wide_model(), "fpm", profile, 1000, 5,
                         rule=QUAD20, access=ACC)
        for field in (stats.reward_mean, stats.reward_se, stats.utility_mean,
                      stats.principal_utility_mean, stats.welfare_mean):
            assert np.all(np.isfinite(field))
        books = stats.principal_utility_mean + stats.utility_mean.sum()
        assert stats.welfare_mean == pytest.approx(books, rel=1e-9, abs=1e-9)

    def test_wide_market_memory_is_bounded_by_the_chunk(self):
        # about 40 KB of settlement scratch per trial at n = 300: the chunk
        # shrinks with n so that 8192 trials never settle at once
        model = weak_wide_model()
        profile = StrategyProfile.symmetric(1.0, 300)
        tracemalloc.start()
        try:
            simulate(model, "fpm", profile, 8192, 5, rule=QUAD20, access=ACC)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 150e6

    def test_simulate_memory_does_not_grow_with_the_trials(self, monkeypatch):
        # 1000-trial chunks: the books of 200 000 trials would be 11 MB
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 4 * 1000)
        peaks = []
        for trials in (20_000, 200_000):
            tracemalloc.start()
            try:
                simulate(MODEL, "fpm", PROFILE, trials, 5, rule=QUAD20, access=ACC)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0] + 64e3

    def test_simulate_holds_one_chunk_and_the_next_chunks_draws(self, monkeypatch):
        # n = 2 x 2 outcomes: one 16 384-trial chunk, drawn inline, against
        # 2, 4 and 8, drawn by the helper thread; a chunk's draws and books
        # are about 0.9 MB.  Chunk k + 1 is drawn while chunk k settles, and
        # where the peak falls depends on the helper's timing, so each run
        # is repeated
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        chunk = montecarlo._CHUNK_ELEMENTS // 4

        def peak(trials):
            tracemalloc.start()
            try:
                simulate(MODEL, "fpm", PROFILE, trials, 5, rule=QUAD20, access=ACC)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        bound = peak(chunk) + 64e3 + draw_working_set(MODEL, 2)
        for chunks in (2, 4, 8):
            for _ in range(20):
                assert peak(chunks * chunk) < bound, chunks

    def test_short_wide_run_holds_no_full_block(self):
        # 300 agents: one full reducer block is 602 rows x 1024 trials, 4.9 MB
        model, profile = weak_wide_model(), StrategyProfile.symmetric(1.0, 300)
        full_block = (2 * 300 + 2) * montecarlo._BLOCK * 8
        kw = dict(rule=QUAD20, access=ACC)
        records = per_trial_records(model, "fpm", profile, 10, 5, **kw)
        for run in (lambda: simulate(model, "fpm", profile, 10, 5, **kw),
                    lambda: SimStats.from_records("fpm", profile, records)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < full_block / 2

    def test_stats_serialize(self):
        stats = simulate(MODEL, "fpm", PROFILE, 100, 0, rule=QUAD20, access=ACC)
        payload = stats.to_json()
        assert list(payload) == [
            "mechanism", "trials", "reward_mean", "reward_se", "cost_mean", "cost_se",
            "utility_mean", "utility_se", "principal_utility_mean", "welfare_mean"]
        assert payload["mechanism"] == "fpm" and payload["trials"] == 100
        assert payload["cost_mean"] == [0.3, 0.3] and payload["cost_se"] == [0.0, 0.0]
        for key in ("reward_mean", "reward_se", "utility_mean", "utility_se"):
            assert payload[key] == getattr(stats, key).tolist()
        assert payload["principal_utility_mean"] == stats.principal_utility_mean
        assert payload["welfare_mean"] == stats.welfare_mean
        assert json.loads(json.dumps(payload)) == payload
