import dataclasses
import math
import tracemalloc

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

MODEL = InformationModel.binary_noisy(0.1, 0.05)
QUAD20 = ScoringRule("quadratic", 20.0)
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
            # a delay on any other kind is ignored
            ReportPolicy("perturbed", epsilon=float(rng.uniform(-0.2, 0.2)), delay=delay),
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


def loop_settlement(model, mechanism, profile, trials, seed, rule, access,
                    latency, h):
    """Oracle for the chunk kernel: per-agent loops over trial-major draws.

    Builds every agent's columns in agent order and permutes them into
    time order afterwards.  Returns rewards (T, n) and the value (T,).
    """
    y, u_lat, u_sig, u_win = column_stack_draws(model, profile.num_agents,
                                                trials, seed)
    T = y.size
    if mechanism in ("fpm", "pm_batch"):
        has = u_lat < np.array([access.value(c) for c in profile.efforts])
        if mechanism == "pm_batch":
            silent = np.array([p.kind == "silent" for p in profile.policies])
            active = has & ~silent
            count = active.sum(axis=1)
            rewards = np.zeros(active.shape)
            pick = np.floor(u_win * count).astype(int)
            rewards[active & (np.cumsum(active, axis=1) == (pick + 1)[:, None])] = 1.0
            return rewards, (count > 0).astype(float)
        cols = agent_columns(model, profile, y, u_sig, has)
        p_all, rewards = settle_batch(model.prior, cols, y, rule)
        return rewards, score(rule, p_all, y) - score(rule, model.prior, y)

    times = np.full((T, profile.num_agents), np.inf)
    for i, (c, policy) in enumerate(zip(profile.efforts, profile.policies)):
        if policy.kind == "silent" or c == 0.0:
            continue
        times[:, i] = -np.log1p(-u_lat[:, i]) / (latency.lam * c)
        if policy.kind == "delayed":
            times[:, i] += policy.delay
    cols = agent_columns(model, profile, y, u_sig, np.isfinite(times))
    order = np.argsort(times, axis=1, kind="stable")
    sorted_times = np.take_along_axis(times, order, axis=1)
    reported = np.isfinite(sorted_times)
    slot_cols = np.where(reported.T[..., None], cols[order.T, np.arange(T)], 1.0)
    masses = time_value_mass(h, np.column_stack([np.zeros(T), sorted_times]),
                             np.column_stack([sorted_times, np.full(T, np.inf)]))
    if mechanism == "mvp":
        _, slot_rewards, s_path = settle_sequential(model.prior, slot_cols, masses,
                                                    y, rule)
    else:
        s_path = score(rule, fold_path(model.prior, slot_cols), y)
        slot_rewards = np.where(reported, (s_path[1:] - s_path[:-1]).T, 0.0)
    rewards = np.empty_like(slot_rewards)
    np.put_along_axis(rewards, order, slot_rewards, axis=1)
    return rewards, np.einsum("jt,tj->t", s_path - s_path[0], masses)


def stats_equal(a, b):
    """Every field of two SimStats, bit for bit."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(SimStats))


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

    def test_different_seeds_differ(self):
        a = simulate(MODEL, "fpm", PROFILE, 1000, 1, rule=QUAD20, access=ACC)
        b = simulate(MODEL, "fpm", PROFILE, 1000, 2, rule=QUAD20, access=ACC)
        assert not np.array_equal(a.reward_mean, b.reward_mean)


class TestAccounting:
    @pytest.mark.parametrize("mechanism", ["fpm", "mvp", "pm_batch", "pm_sequential"])
    def test_welfare_identity_bit_exact(self, mechanism):
        rec = per_trial_records(MODEL, mechanism, PROFILE, 2000, 5,
                                rule=QUAD20, access=ACC, latency=LAT1, h=H1)
        recomputed = rec["principal_utility"] + rec["utilities"].sum(axis=1)
        assert np.array_equal(rec["welfare"], recomputed)

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
                rewards, value = loop_settlement(model, mechanism, profile, trials,
                                                 seed, **kw)
                assert np.array_equal(rec["rewards"], rewards), (mechanism, h)
                assert np.array_equal(rec["value"], value), (mechanism, h)


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

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("mechanism, deviation", [
        ("fpm", 0.6),
        ("mvp", ReportPolicy("delayed", delay=0.5)),
        ("mvp", ReportPolicy("perturbed", epsilon=0.1)),
    ], ids=["fpm-effort", "mvp-delayed", "mvp-perturbed"])
    def test_shared_draws_equal_two_separate_runs(self, mechanism, deviation, n):
        """Settling both arms on one draw per chunk changes no bit."""
        kw = dict(rule=QUAD20, access=ACC, latency=LAT1, h=H1)
        trials, seed, i = 3000, 41, n - 1
        base = StrategyProfile.symmetric(0.3, n)
        dev = (base.replace_agent(i, effort=deviation) if isinstance(deviation, float)
               else base.replace_agent(i, policy=deviation))
        u_base = per_trial_records(MODEL, mechanism, base, trials, seed, **kw)["utilities"]
        u_dev = per_trial_records(MODEL, mechanism, dev, trials, seed, **kw)["utilities"]
        delta = u_dev[:, i] - u_base[:, i]
        expected = (float(delta.mean()), float(delta.std(ddof=1) / math.sqrt(trials)))
        assert deviation_test(MODEL, mechanism, base, i, deviation, trials, seed,
                              **kw) == expected

    def test_deviant_agent_must_exist(self):
        with pytest.raises(ValueError):
            deviation_test(MODEL, "fpm", PROFILE, 5, 0.1, 100, 0,
                           rule=QUAD20, access=ACC)


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

    def test_trials_positive(self):
        kw = dict(rule=QUAD20, access=ACC)
        for trials in (0, -5):
            with pytest.raises(ValueError, match="trials"):
                simulate(MODEL, "fpm", PROFILE, trials, 0, **kw)
            with pytest.raises(ValueError, match="trials"):
                per_trial_records(MODEL, "fpm", PROFILE, trials, 0, **kw)
            with pytest.raises(ValueError, match="trials"):
                deviation_test(MODEL, "fpm", PROFILE, 0, 0.5, trials, 0, **kw)

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
        assert payload["trials"] == 100
        assert len(payload["reward_mean"]) == 2
