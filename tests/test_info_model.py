import itertools
import time

import numpy as np
import pytest

from infomarkets import (Belief, CapacityError, InformationModel,
                         ScoreSequence, ScoringRule, apply_report,
                         expected_base_score, posterior, v_sequence)
from infomarkets.belief import fold_path
from infomarkets.info_model import _mean_self_scores
from infomarkets.scoring import expected_score

QUAD = ScoringRule("quadratic")

# frozen from an independent raw-tuple enumeration oracle
V1_NOISE = 0.10898671096345525   # alpha=0.1, beta=0.05
V2_NOISE = 0.15800961330561347
V1_FIG3 = 0.0016557034766784273  # alpha=0.02, beta=0.2

FIG3_SCORES = [0.9608, 0.962456, 0.96656, 0.972778, 0.977909, 0.982417,
               0.98605, 0.988961, 0.991309, 0.993133, 0.994609]


def _mean_self_score_enumerated(model, rule, k):
    """Oracle: E[self-expected score after k signals] over all m^k signal tuples."""
    m = model.num_signal_values
    total = 0.0
    for tup in itertools.product(range(m), repeat=k):
        weights = model.prior.copy()
        for x in tup:
            weights = weights * model.likelihood[:, x]
        mass = weights.sum()
        if mass == 0.0:
            continue
        total += mass * expected_score(rule, weights / mass)
    return total


def random_model(rng, d=None, m=None):
    d = d or int(rng.integers(2, 4))
    m = m or int(rng.integers(2, 4))
    prior = rng.dirichlet(np.ones(d))
    likelihood = np.vstack([rng.dirichlet(np.ones(m)) for _ in range(d)])
    return InformationModel(prior, likelihood)


class TestPosterior:
    def test_no_signals_returns_prior(self):
        m = InformationModel.binary_noisy(0.02, 0.2)
        np.testing.assert_allclose(posterior(m, []).probs, [0.98, 0.02], atol=1e-15)

    def test_single_signal_hand_value(self):
        m = InformationModel.binary_noisy(0.02, 0.2)
        # (0.02*0.8) / (0.98*0.2 + 0.02*0.8) = 4/53
        assert posterior(m, [1])[1] == pytest.approx(4 / 53, abs=1e-12)

    def test_noiseless_signal_reveals_outcome(self):
        m = InformationModel.binary_noisy(0.5, 0.0)
        np.testing.assert_allclose(posterior(m, [1]).probs, [0.0, 1.0], atol=0)

    def test_many_weak_signals_match_the_renormalized_fold(self):
        # 300 likelihoods near 1/40 multiply to far below the smallest double
        rng = np.random.default_rng(8)
        lik = 1.0 + 0.5 * rng.random((2, 40))
        model = InformationModel(np.array([0.6, 0.4]),
                                 lik / lik.sum(axis=1, keepdims=True))
        signals = rng.integers(40, size=300)
        folded = fold_path(model.prior, model.likelihood[:, signals].T)[-1]
        np.testing.assert_allclose(posterior(model, signals).probs, folded,
                                   rtol=0, atol=1e-12)

    def test_impossible_signals_still_raise(self):
        m = InformationModel.binary_noisy(0.5, 0.0)
        with pytest.raises(ValueError, match="jointly impossible"):
            posterior(m, [0, 1])

    def test_signal_out_of_range(self):
        m = InformationModel.binary_noisy(0.5, 0.1)
        with pytest.raises(ValueError):
            posterior(m, [2])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            model = random_model(rng)
            signals = list(rng.integers(0, model.num_signal_values, size=5))
            base = posterior(model, signals).probs
            for _ in range(3):
                rng.shuffle(signals)
                np.testing.assert_allclose(posterior(model, signals).probs,
                                           base, atol=1e-12)

    def test_chaining_equals_batching(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            model = random_model(rng)
            signals = list(rng.integers(0, model.num_signal_values, size=4))
            belief = model.prior_belief()
            for x in signals:
                belief = apply_report(belief, model.likelihood[:, x])
            np.testing.assert_allclose(belief.probs, posterior(model, signals).probs,
                                       atol=1e-12)


class TestVSequence:
    def test_reference_score_curve(self):
        m = InformationModel.binary_noisy(0.02, 0.2)
        v = v_sequence(m, QUAD, 10)
        scores = v.values + expected_base_score(m, QUAD)
        np.testing.assert_allclose(scores, FIG3_SCORES, atol=1e-5)
        assert v[1] == pytest.approx(V1_FIG3, abs=1e-15)

    def test_marginal_reward_peaks_at_third_report(self):
        m = InformationModel.binary_noisy(0.02, 0.2)
        v = v_sequence(m, QUAD, 10)
        deltas = v.deltas
        assert int(np.argmax(deltas)) == 2  # the k = 3 report
        assert deltas[2] == pytest.approx(0.00621856, abs=1e-6)

    def test_noise_model_values(self):
        m = InformationModel.binary_noisy(0.1, 0.05)
        v = v_sequence(m, QUAD, 2)
        assert v[1] == pytest.approx(V1_NOISE, abs=1e-14)
        assert v[2] == pytest.approx(V2_NOISE, abs=1e-14)

    def test_scale_multiplies_values(self):
        m = InformationModel.binary_noisy(0.1, 0.05)
        v20 = v_sequence(m, ScoringRule("quadratic", 20.0), 2)
        assert v20[1] == pytest.approx(20 * V1_NOISE, rel=1e-12)

    def test_zero_information_model(self):
        m = InformationModel(np.array([0.7, 0.3]),
                             np.array([[0.4, 0.6], [0.4, 0.6]]))
        v = v_sequence(m, QUAD, 6)
        np.testing.assert_allclose(v.values, 0.0, atol=1e-12)

    def test_noiseless_model_saturates_immediately(self):
        m = InformationModel.binary_noisy(0.1, 0.0)
        v = v_sequence(m, QUAD, 4)
        np.testing.assert_allclose(v.values[1:], 1 - 0.82, atol=1e-12)

    def test_binary_statistic_matches_raw_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_model(rng, d=2, m=2)
            for k in range(4):
                fast = _mean_self_scores(model, QUAD, k)[k]
                slow = _mean_self_score_enumerated(model, QUAD, k)
                assert fast == pytest.approx(slow, abs=1e-13)

    def test_general_table_model_runs(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, d=3, m=3)
        v = v_sequence(model, QUAD, 4)
        assert v[0] == 0.0
        assert np.all(np.diff(v.values) >= -1e-12)

    def test_capacity_guard(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, d=2, m=8)
        with pytest.raises(CapacityError, match="montecarlo"):
            v_sequence(model, QUAD, 40)

    def test_count_vectors_match_tuple_enumeration(self):
        rng = np.random.default_rng(15)
        for d, m in itertools.product((2, 3), (2, 3, 4)):
            model = random_model(rng, d=d, m=m)
            lik = model.likelihood.copy()
            lik[0] = 0.0            # outcome 0 never emits signal values >= 1
            lik[0, 0] = 1.0
            sparse = InformationModel(model.prior, lik)
            for mod, rule in ((model, QUAD), (sparse, QUAD),
                              (sparse, ScoringRule("logarithmic"))):
                fast = _mean_self_scores(mod, rule, 5)
                slow = [_mean_self_score_enumerated(mod, rule, k) for k in range(6)]
                np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

    def test_long_binary_sequence_is_finite_and_nondecreasing(self):
        v = v_sequence(InformationModel.binary_noisy(0.3, 0.2), QUAD, 1100)
        assert np.all(np.isfinite(v.values))
        # saturated increments are zero up to rounding, ScoreSequence's 1e-12
        assert np.all(np.diff(v.values) >= -1e-12)
        assert v[1100] == pytest.approx(1 - (0.3 ** 2 + 0.7 ** 2), abs=1e-12)

    def test_three_valued_enumeration_is_fast(self):
        model = random_model(np.random.default_rng(16), d=2, m=3)
        best = np.inf
        for _ in range(5):
            start = time.perf_counter()
            v_sequence(model, QUAD, 10)
            best = min(best, time.perf_counter() - start)
        assert best < 0.010

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            v_sequence(InformationModel.binary_noisy(0.1, 0.1), QUAD, -1)


class TestExpectedBaseScore:
    def test_values(self):
        assert expected_base_score(InformationModel.binary_noisy(0.02, 0.2),
                                   QUAD) == pytest.approx(0.9608, abs=1e-12)
        assert expected_base_score(InformationModel.binary_noisy(0.1, 0.0),
                                   QUAD) == pytest.approx(0.82, abs=1e-12)
        assert expected_base_score(InformationModel.binary_noisy(0.5, 0.3),
                                   QUAD) == pytest.approx(0.5, abs=1e-12)


class TestTypes:
    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValueError):
            InformationModel(np.array([0.6, 0.6]), np.eye(2))

    def test_likelihood_rows_must_be_distributions(self):
        with pytest.raises(ValueError):
            InformationModel(np.array([0.5, 0.5]),
                             np.array([[0.9, 0.2], [0.5, 0.5]]))

    def test_likelihood_shape_must_match_prior(self):
        with pytest.raises(ValueError):
            InformationModel(np.array([0.5, 0.5]), np.eye(3))

    def test_belief_validation(self):
        with pytest.raises(ValueError):
            Belief(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Belief(np.array([1.0]))

    def test_belief_normalized(self):
        b = Belief.normalized([2.0, 6.0])
        np.testing.assert_allclose(b.probs, [0.25, 0.75])

    def test_belief_probs_read_only(self):
        b = Belief(np.array([0.4, 0.6]))
        with pytest.raises(ValueError):
            b.probs[0] = 0.9

    def test_score_sequence_requires_zero_start(self):
        with pytest.raises(ValueError):
            ScoreSequence(np.array([0.1, 0.2]))

    def test_score_sequence_requires_monotone(self):
        with pytest.raises(ValueError):
            ScoreSequence(np.array([0.0, 0.5, 0.4]))

    def test_binary_noisy_parameter_domains(self):
        with pytest.raises(ValueError):
            InformationModel.binary_noisy(1.5, 0.2)
        with pytest.raises(ValueError):
            InformationModel.binary_noisy(0.5, 0.7)

    def test_from_config(self):
        m = InformationModel.from_config({"kind": "binary_noisy",
                                          "alpha": 0.02, "beta": 0.2})
        np.testing.assert_allclose(m.prior, [0.98, 0.02])
        t = InformationModel.from_config(
            {"kind": "table", "prior": [0.5, 0.5],
             "likelihood": [[0.9, 0.1], [0.1, 0.9]]})
        assert t.num_signal_values == 2
        with pytest.raises(ValueError):
            InformationModel.from_config({"kind": "mystery"})
        # the legacy agent count is accepted and ignored
        legacy = InformationModel.from_config({"kind": "binary_noisy", "alpha": 0.02,
                                               "beta": 0.2, "num_agents": 3})
        np.testing.assert_array_equal(legacy.likelihood, m.likelihood)

    @pytest.mark.parametrize("cfg, key", [
        ({"kind": "binary_noisy", "alpha": 0.1, "beta": 0.05, "betta": 0.3}, "betta"),
        ({"kind": "table", "prior": [0.5, 0.5], "likelihood": [[0.9, 0.1], [0.1, 0.9]],
          "alpha": 0.1}, "alpha"),
    ], ids=["binary_noisy", "table"])
    def test_from_config_rejects_unknown_keys(self, cfg, key):
        with pytest.raises(ValueError, match=key):
            InformationModel.from_config(cfg)
