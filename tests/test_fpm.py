import itertools
import json
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from infomarkets import (AccessFunction, BatchOutcomeReport, Belief,
                         CapacityError, FpmResult, InformationModel,
                         ReportPolicy, ReportVector, ScoringRule,
                         StrategyProfile, apply_report, fpm_expected_reward,
                         fpm_run, posterior, score, simulate, truthful_report,
                         v_sequence)
from infomarkets import fpm, info_model
from infomarkets.belief import RATIO_CLAMP, report_column
from infomarkets.cli import _batch_from_json, main
from infomarkets.fpm import settle_batch

QUAD = ScoringRule("quadratic")


def random_binary_batch(rng, n):
    reports = tuple(ReportVector((float(rng.uniform(0.05, 0.95)),))
                    for _ in range(n))
    return BatchOutcomeReport(reports, int(rng.integers(2)))


def sampled_permutation_run(model_prior, batch, rule, rng):
    """Literal randomized settlement: per agent, a random order ending with him.

    The oracle for :func:`fpm_run`'s determinism: the two agree because
    odds updates commute.
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


def tuple_expected_reward(model, rule, q, report_override=None):
    """Oracle for ``fpm_expected_reward``: all (m+1)^n signal-state tuples.

    State 0 is no signal (a ones column), state 1 + x is signal x (its
    likelihood column); every tuple and outcome of positive probability
    is settled as its own batch.
    """
    d, m, n = model.num_outcomes, model.num_signal_values, len(q)
    override = report_override or {}

    def column(i, s):
        if i in override:
            return report_column(override[i](s - 1 if s else None), d)
        return np.ones(d) if s == 0 else model.likelihood[:, s - 1]

    def chance(i, s, y):
        return 1.0 - q[i] if s == 0 else q[i] * model.likelihood[y, s - 1]

    combos = np.array(list(itertools.product(range(m + 1), repeat=n)))
    joint = np.array([[model.prior[y] * math.prod(chance(i, s, y)
                                                  for i, s in enumerate(combo))
                       for y in range(d)] for combo in combos])
    columns = np.array([[column(i, s) for s in range(m + 1)] for i in range(n)])
    rows, y = np.nonzero(joint > 0)
    _, rewards = settle_batch(model.prior,
                              columns[np.arange(n), combos[rows]].swapaxes(0, 1),
                              y, rule)
    return rewards @ joint[rows, y]


def random_expected_reward_case(rng):
    """A small random model, effort profile, override and rule."""
    d, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    prior = rng.dirichlet(np.ones(d))
    likelihood = rng.dirichlet(np.ones(m), size=d)
    if rng.random() < 0.4:  # some impossible (outcome, signal) pairs
        likelihood[rng.random((d, m)) < 0.3] = 0.0
        likelihood[np.arange(d), rng.integers(m, size=d)] += 0.5
        likelihood /= likelihood.sum(axis=1, keepdims=True)
    model = InformationModel(prior, likelihood)
    pool = [0.0, 1.0, float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))]
    q = [pool[k] for k in rng.integers(len(pool), size=int(rng.integers(1, 5)))]
    override = None
    if rng.random() < 0.5:
        table = rng.uniform(0.05, 1.0, size=(m + 1, d))
        override = {int(rng.integers(len(q))):
                    lambda s: table[0 if s is None else s + 1]}
    rule = ScoringRule(str(rng.choice(["quadratic", "logarithmic"])),
                       float(rng.uniform(0.5, 20.0)))
    return model, rule, q, override


class TestFpmRun:
    def test_all_half_reports_pay_nothing(self):
        prior = Belief(np.array([0.7, 0.3]))
        batch = BatchOutcomeReport((ReportVector.no_signal(2),) * 3, 1)
        result = fpm_run(prior, batch, QUAD)
        np.testing.assert_allclose(result.rewards, 0.0, atol=0)
        np.testing.assert_allclose(result.aggregated.probs, prior.probs, atol=0)

    def test_perfect_substitutes_earn_nothing(self):
        # both agents reveal the outcome; leave-one-out beliefs already know it
        m = InformationModel.binary_noisy(0.5, 0.0)
        rep = truthful_report(m, 1)
        batch = BatchOutcomeReport((rep, rep), 1)
        result = fpm_run(m.prior_belief(), batch, QUAD)
        np.testing.assert_allclose(result.rewards, 0.0, atol=1e-9)

    def test_lone_informative_agent_earns_full_gain(self):
        m = InformationModel.binary_noisy(0.5, 0.0)
        batch = BatchOutcomeReport((truthful_report(m, 1),
                                    ReportVector.no_signal(2)), 1)
        result = fpm_run(m.prior_belief(), batch, QUAD)
        # S(point mass, y*) - S(prior, y*) = 1 - 0.5
        assert result.rewards[0] == pytest.approx(0.5, abs=1e-9)
        assert result.rewards[1] == pytest.approx(0.0, abs=1e-9)

    def test_aggregated_equals_posterior_under_truthful_play(self):
        m = InformationModel.binary_noisy(0.02, 0.2)
        batch = BatchOutcomeReport((truthful_report(m, 1), truthful_report(m, 0),
                                    truthful_report(m, 1)), 0)
        result = fpm_run(m.prior_belief(), batch, QUAD)
        np.testing.assert_allclose(result.aggregated.probs,
                                   posterior(m, [1, 0, 1]).probs, atol=1e-12)

    def test_outcome_out_of_range(self):
        with pytest.raises(ValueError):
            fpm_run(Belief(np.array([0.5, 0.5])),
                    BatchOutcomeReport((ReportVector.no_signal(2),), 2), QUAD)

    def test_rewards_can_be_negative(self):
        # an agent pushing the belief the wrong way pays
        prior = Belief(np.array([0.5, 0.5]))
        batch = BatchOutcomeReport((ReportVector((0.1,)),), 1)
        result = fpm_run(prior, batch, QUAD)
        assert result.rewards[0] < 0

    def test_disjoint_support_raises(self):
        # every pair of these columns shares an outcome; all three share none
        prior = Belief(np.full(3, 1 / 3))
        reports = (np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0]),
                   np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="disjoint support"):
            fpm_run(prior, BatchOutcomeReport(reports, 0), QUAD)

    def test_many_weak_wide_reports_match_posterior(self):
        rng = np.random.default_rng(23)
        m = InformationModel(np.array([0.5, 0.3, 0.2]),
                             rng.dirichlet([30.0] * 3, size=3))
        signals = rng.integers(3, size=300).tolist()
        batch = BatchOutcomeReport(tuple(m.likelihood[:, x] for x in signals), 1)
        result = fpm_run(m.prior_belief(), batch, QUAD)
        np.testing.assert_allclose(result.aggregated.probs,
                                   posterior(m, signals).probs, rtol=0, atol=1e-12)
        assert np.all(np.isfinite(result.rewards))

    def test_matches_sampled_permutation_construction(self):
        rng = np.random.default_rng(20)
        prior = Belief(np.array([0.6, 0.4]))
        for _ in range(200):
            batch = random_binary_batch(rng, int(rng.integers(2, 6)))
            direct = fpm_run(prior, batch, QUAD)
            sampled = sampled_permutation_run(prior, batch, QUAD, rng)
            np.testing.assert_allclose(direct.rewards, sampled.rewards, atol=1e-12)
            np.testing.assert_allclose(direct.aggregated.probs,
                                       sampled.aggregated.probs, atol=1e-12)


class TestExpectedReward:
    def test_symmetric_play_is_fair(self):
        m = InformationModel.binary_noisy(0.3, 0.15)
        rewards = fpm_expected_reward(m, QUAD, [0.6, 0.6, 0.6])
        assert rewards.max() - rewards.min() <= 1e-10

    def test_fairness_across_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            alpha, beta = rng.uniform(0.1, 0.9), rng.uniform(0.02, 0.45)
            q = float(rng.uniform(0.1, 0.95))
            m = InformationModel.binary_noisy(alpha, beta)
            rewards = fpm_expected_reward(m, QUAD, [q, q])
            assert rewards.max() - rewards.min() <= 1e-10

    def test_certain_and_absent_agents(self):
        m = InformationModel.binary_noisy(0.5, 0.0)
        rewards = fpm_expected_reward(m, QUAD, [1.0, 0.0])
        np.testing.assert_allclose(rewards, [0.5, 0.0], atol=1e-9)

    def test_no_effort_no_reward(self):
        m = InformationModel.binary_noisy(0.3, 0.1)
        np.testing.assert_allclose(fpm_expected_reward(m, QUAD, [0.0, 0.0]),
                                   0.0, atol=0)

    def test_truthful_reporting_is_strictly_optimal(self):
        """Shifting one agent's report entry strictly lowers their expected reward."""
        rng = np.random.default_rng(22)
        for _ in range(50):
            alpha = float(rng.uniform(0.1, 0.9))
            beta = float(rng.uniform(0.05, 0.45))
            q = float(rng.uniform(0.2, 0.95))
            eps = float(rng.choice([-0.05, 0.05]))
            m = InformationModel.binary_noisy(alpha, beta)
            truthful = fpm_expected_reward(m, QUAD, [q, q])[0]

            def perturbed(signal):
                base = (ReportVector.no_signal(2) if signal is None
                        else truthful_report(m, signal))
                b = min(max(base.entries[0] + eps, 1e-9), 1 - 1e-9)
                return ReportVector((b,))

            deviated = fpm_expected_reward(m, QUAD, [q, q],
                                           report_override={0: perturbed})[0]
            assert deviated < truthful - 1e-9

    def test_probability_domain(self):
        m = InformationModel.binary_noisy(0.3, 0.1)
        for q in ([0.5, 1.2], [], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match="signal probabilities"):
                fpm_expected_reward(m, QUAD, q)

    def test_override_of_unknown_agent_rejected(self):
        m = InformationModel.binary_noisy(0.3, 0.1)

        def silent(signal):
            return ReportVector.no_signal(2)

        for agents in ([5], [-1], [0, 3, -2]):
            override = {i: silent for i in agents}
            bad = sorted(i for i in agents if not 0 <= i < 3)
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                fpm_expected_reward(m, QUAD, [0.5] * 3, report_override=override)

    def test_capacity_guard(self):
        # eleven distinct q: 3^11 rows x 11 agents; equal q would share one class
        m = InformationModel.binary_noisy(0.3, 0.1)
        with pytest.raises(CapacityError):
            fpm_expected_reward(m, QUAD, np.linspace(0.1, 0.9, 11))

    def test_matches_tuple_enumeration(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            model, rule, q, override = random_expected_reward_case(rng)
            np.testing.assert_allclose(
                fpm_expected_reward(model, rule, q, report_override=override),
                tuple_expected_reward(model, rule, q, override), rtol=0, atol=1e-12)

    def test_one_perturbed_agent_matches_tuples_closely(self):
        """Classes are read from the count-vector table in total order; the
        rewards stay within 1e-13 of settling every signal-state tuple."""
        model = InformationModel.binary_noisy(0.3, 0.15)
        rule = ScoringRule("quadratic", 20.0)

        def perturbed(signal):
            b = 0.5 if signal is None else truthful_report(model, signal).entries[0]
            return ReportVector((min(b + 0.1, 1 - RATIO_CLAMP),))
        for n in (2, 4, 6):
            override = {0: perturbed}
            np.testing.assert_allclose(
                fpm_expected_reward(model, rule, [0.7] * n, report_override=override),
                tuple_expected_reward(model, rule, [0.7] * n, override), rtol=0, atol=1e-13)

    def test_classes_read_only_the_signal_table_they_need(self, monkeypatch):
        """A class of k agents reads the m-value table up to total k, the
        rows it settles, and grows no table of m + 1 values."""
        monkeypatch.setattr(info_model, "_count_tables", {})
        model = InformationModel.binary_noisy(0.3, 0.15)
        fpm_expected_reward(model, QUAD, [0.7] * 6 + [0.4] * 3)
        assert list(info_model._count_tables) == [2]
        assert len(info_model._count_tables[2][0]) == math.comb(6 + 2, 2)

    @pytest.mark.parametrize("q", [[1.0, 1.0], [0.5, 0.5]])
    @pytest.mark.parametrize("rule", [QUAD, ScoringRule("logarithmic")])
    def test_jointly_impossible_reports_are_refused(self, rule, q):
        """Agent 0 always reports outcome 0, which agent 1's noiseless signal
        1 rules out: no belief folds both."""
        model = InformationModel.binary_noisy(0.3, 0.0)
        with pytest.raises(ValueError, match="disjoint support"):
            fpm_expected_reward(model, rule, q, report_override={0: lambda s: [1.0, 0.0]})

    @pytest.mark.parametrize("q, agent", [([0.5, 0.5], 0), ([1.0, 0.5], 0),
                                          ([0.5, 0.3, 0.5], 1)])
    def test_log_score_of_a_ruled_out_outcome_is_refused(self, q, agent):
        """Agent ``agent`` always reports outcome 0, while outcome 1 occurs:
        the logarithmic rule would pay -inf and NaN, so the call names the
        agent before numpy warns."""
        model = InformationModel.binary_noisy(0.3, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"agents [{agent}]")):
                fpm_expected_reward(model, ScoringRule("logarithmic"), q,
                                    report_override={agent: lambda s: [1.0, 0.0]})

    @pytest.mark.parametrize("rule", [ScoringRule("quadratic", 20.0),
                                      ScoringRule("logarithmic", 3.0)],
                             ids=["quadratic", "logarithmic"])
    @pytest.mark.parametrize("name", ["noisy", "noiseless", "three"])
    def test_truthful_rewards_are_marginal_score_gains(self, name, rule):
        """Truthful agent i earns q_i E[v(K + 1) - v(K)], K the number of the
        other agents with a signal, Poisson-binomial over their q."""
        model = {"noisy": InformationModel.binary_noisy(0.1, 0.05),
                 "noiseless": InformationModel.binary_noisy(0.3, 0.0),
                 "three": InformationModel(np.array([0.5, 0.3, 0.2]),
                                           np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3],
                                                     [0.1, 0.2, 0.7]]))}[name]
        one_class = 20 if model.num_signal_values == 3 else 30
        profiles = [np.linspace(0.05, 0.95, 8),  # all distinct
                    [0.6] * one_class,
                    [0.2] * 4 + [0.7] * 3 + [0.45],
                    [0.0, 1.0, 1.0, 0.0, 0.5, 1.0]]
        for q in profiles:
            v = v_sequence(model, rule, len(q)).values
            expected = []
            for i in range(len(q)):
                others = np.ones(1)  # P(K = k) for the agents other than i
                for qj in np.delete(q, i):
                    others = np.convolve(others, [1.0 - qj, qj])
                expected.append(q[i] * others @ np.diff(v))
            np.testing.assert_allclose(fpm_expected_reward(model, rule, q), expected,
                                       rtol=0, atol=1e-14 * rule.scale)

    def test_three_outcomes(self):
        model = InformationModel(np.array([0.5, 0.3, 0.2]),
                                 np.array([[0.7, 0.2, 0.1],
                                           [0.2, 0.6, 0.2],
                                           [0.1, 0.3, 0.6]]))
        rewards = fpm_expected_reward(model, QUAD, [0.6, 0.6, 0.3])
        np.testing.assert_allclose(rewards, tuple_expected_reward(
            model, QUAD, [0.6, 0.6, 0.3]), rtol=0, atol=1e-12)
        assert rewards[0] == rewards[1] > rewards[2] > 0

    def test_blocks_change_no_bit(self, monkeypatch):
        """Settling the pairs in blocks of 5 (and a partial one) gives the
        bits of settling them in one block."""
        model = InformationModel(np.array([0.5, 0.3, 0.2]),
                                 np.array([[0.7, 0.2, 0.1],
                                           [0.2, 0.6, 0.2],
                                           [0.1, 0.3, 0.6]]))
        q, override = [0.6, 0.6, 0.6, 0.3, 0.3, 0.9], {5: lambda s: [0.2, 0.5, 0.3]}
        cases = [(QUAD, None), (ScoringRule("logarithmic", 3.0), override)]
        whole = [fpm_expected_reward(model, rule, q, report_override=o) for rule, o in cases]
        monkeypatch.setattr(fpm, "_CHUNK_ELEMENTS", 5 * len(q) * 3)
        for (rule, o), expected in zip(cases, whole):
            assert np.array_equal(fpm_expected_reward(model, rule, q, report_override=o),
                                  expected)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_memory_does_not_grow_with_the_outcomes(self, d):
        # 24 agents in two q classes: 8281 rows x 24 agents.  Settled in one
        # call, the pairs would take 43, 88 and 223 MiB for d = 2, 3 and 5
        likelihood = np.random.default_rng(d).dirichlet(np.ones(2), size=d)
        model = InformationModel(np.full(d, 1.0 / d), likelihood)
        tracemalloc.start()
        try:
            rewards = fpm_expected_reward(model, QUAD, [0.3] * 12 + [0.6] * 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(rewards))
        assert peak <= 24 * 2 ** 20

    def test_wide_market_with_one_perturbed_agent(self):
        """n = 32: fast, and pinned by the simulator within 4 standard errors."""
        model = InformationModel.binary_noisy(0.3, 0.1)
        rule = ScoringRule("quadratic", 20.0)
        access, effort, eps, n = AccessFunction.exponential(1.0), 0.5, 0.1, 32

        def perturbed(signal):
            b = 0.5 if signal is None else truthful_report(model, signal).entries[0]
            return ReportVector((min(max(b + eps, RATIO_CLAMP), 1 - RATIO_CLAMP),))

        start = time.perf_counter()
        exact = fpm_expected_reward(model, rule, [access.value(effort)] * n,
                                    report_override={0: perturbed})
        assert time.perf_counter() - start < 1.0
        profile = StrategyProfile.symmetric(effort, n).replace_agent(
            0, policy=ReportPolicy("perturbed", epsilon=eps))
        stats = simulate(model, "fpm", profile, 20_000, 5, rule=rule, access=access)
        assert np.all(np.abs(stats.reward_mean - exact) < 4 * stats.reward_se)
        assert exact[0] < exact[1]
        assert np.ptp(exact[1:]) == 0.0


class TestSerialization:
    def test_batch_round_trip(self, tmp_path, capsys):
        record = {"reports": [[0.8], [0.5]], "outcome": 1}
        batch = _batch_from_json(record, 2)
        assert isinstance(batch.reports[0], ReportVector)
        result = fpm_run(Belief(np.array([0.98, 0.02])), batch, QUAD)
        # the settlement JSON is written by the settle-fpm command
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(record))
        assert main(["settle-fpm", "--alpha", "0.02", "--beta", "0.2",
                     "--batch", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"aggregated", "rewards"}
        assert len(out["rewards"]) == 2
        assert out["rewards"] == result.rewards.tolist()

    def test_column_reports_parse_for_wide_markets(self):
        record = {"reports": [[0.2, 0.3, 0.5]], "outcome": 0}
        batch = _batch_from_json(record, 3)
        assert isinstance(batch.reports[0], np.ndarray)

    def test_bad_report_length(self):
        with pytest.raises(ValueError, match="report 1: 3 entries fit neither"):
            _batch_from_json({"reports": [[0.5], [0.1, 0.2, 0.3]], "outcome": 0}, 2)

    def test_result_requires_finite_rewards(self):
        with pytest.raises(ValueError):
            FpmResult(Belief(np.array([0.5, 0.5])), np.array([np.inf, 0.0]))

    def test_run_refuses_the_log_score_of_a_ruled_out_outcome(self):
        """The first report rules out outcome 1, which occurs: the others'
        rewards are -inf - -inf, refused as non-finite before numpy warns."""
        batch = BatchOutcomeReport(([1.0, 0.0], [0.7, 0.3], [0.4, 0.6]), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite rewards"):
                fpm_run(Belief(np.array([0.5, 0.5])), batch, ScoringRule("logarithmic"))
