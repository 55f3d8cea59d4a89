import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from infomarkets import (BatchOutcomeReport, Belief, CapacityError, FpmResult,
                         InformationModel, ScoreSequence, ScoringRule, apply_report,
                         expected_base_score, fpm_expected_reward, fpm_run, posterior,
                         v_sequence)
from infomarkets import info_model
from infomarkets.belief import fold_path
from infomarkets.cli import _model_from_config
from infomarkets.info_model import _count_table, _count_vectors, _mean_self_scores
from infomarkets.numerics import _log_factorials
from infomarkets.scoring import expected_score

from helpers import lexicographic_v_values

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

    @pytest.mark.parametrize("n", [-1, 2.5, True])
    def test_n_must_be_a_nonnegative_integer(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer of at least 0, got "):
            v_sequence(InformationModel.binary_noisy(0.1, 0.1), QUAD, n)

    #: the bits of v_1..v_n, frozen before the outcome sums of the
    #: enumeration moved from numpy's reduction to ``scoring._outcome_sum``
    PINNED = {
        ("binary", "quadratic"): [
            0.03031185031185024, 0.0683751724137931, 0.09392780357904629,
            0.11467406049421569, 0.12966735136004126, 0.1414031512675583],
        ("binary", "logarithmic"): [
            0.07265449359323245, 0.13182149237865776, 0.17622372237860245,
            0.2103549816356453, 0.23632957283997794, 0.2563245643551342],
        ("three", "quadratic"): [
            0.11228438743918623, 0.18789609585937006, 0.24708020702218247,
            0.29504154775408775],
        ("three", "logarithmic"): [
            0.17267512691708364, 0.3002807181062511, 0.4010168548127132,
            0.4827385622742445],
    }

    @pytest.mark.parametrize("market, kind", PINNED)
    def test_bits_are_pinned(self, market, kind):
        model = {"binary": InformationModel.binary_noisy(0.1, 0.2),
                 "three": InformationModel(
                     np.array([0.5, 0.3, 0.2]),
                     np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]))}[market]
        expected = self.PINNED[market, kind]
        v = v_sequence(model, ScoringRule(kind), len(expected))
        assert v.values.tolist() == [0.0] + expected


def _sparse_model(rng, d, m):
    """A random model; with m >= 2, outcome 0 never emits some signal values."""
    prior = rng.dirichlet(np.ones(d))
    likelihood = rng.dirichlet(np.ones(m), size=d)
    if m >= 2 and rng.random() < 0.5:
        likelihood[0] = 0.0
        likelihood[0, rng.integers(m)] = 1.0
    if m >= 3 and rng.random() < 0.5:
        likelihood[1, rng.integers(m)] = 0.0
        likelihood[1] /= likelihood[1].sum()
    return InformationModel(prior, likelihood)


class TestCountTable:
    @pytest.fixture(autouse=True)
    def empty_tables(self, monkeypatch):
        """Each test grows its own tables from empty."""
        monkeypatch.setattr(info_model, "_count_tables", {})

    @pytest.mark.parametrize("m", range(6))
    def test_every_vector_once_by_total_then_lexicographically(self, m):
        for n in range(9):
            expected = sorted((sum(v), v) for v in itertools.product(range(n + 1), repeat=m)
                              if sum(v) <= n)
            counts = _count_vectors(m, n)
            assert counts.shape == (len(expected), m) == (math.comb(n + m, m), m)
            assert [tuple(row) for row in counts.tolist()] == [v for _, v in expected]

    @pytest.mark.parametrize("m", range(1, 6))
    def test_prefix_equals_a_fresh_enumeration(self, m):
        for n in range(8):
            fresh = _count_vectors(m, n)
            counts, totals, log_multinomial = _count_table(m, 8)
            rows = len(fresh)
            assert np.array_equal(counts[:rows], fresh)
            assert np.array_equal(_count_table(m, n)[0], fresh)
            assert np.array_equal(totals[:rows], fresh.sum(axis=1))
            log_fact = _log_factorials(n)
            assert np.array_equal(log_multinomial[:rows], log_fact[fresh.sum(axis=1)]
                                  - log_fact[fresh].sum(axis=1))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_growth_order_changes_no_view(self, monkeypatch, m):
        ns = list(range(13))
        np.random.default_rng(m).shuffle(ns)
        views = {}
        for n in ns:
            views[n] = _count_table(m, n)
        assert len(info_model._count_tables[m][0]) == math.comb(12 + m, m)
        monkeypatch.setattr(info_model, "_count_tables", {})
        for n in sorted(ns, reverse=True):
            for grown, again in zip(views[n], _count_table(m, n)):
                assert np.array_equal(grown, again)
        assert len(info_model._count_tables[m][0]) == math.comb(12 + m, m)

    def test_views_are_read_only(self):
        for m in (1, 2, 3):
            for part in _count_table(m, 5) + info_model._count_tables[m]:
                assert not part.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    part[0] = 1

    def test_single_value_enumeration_stays_linear(self):
        """m = 1 at n = 10^5: no (n + 1)^2 / 2 pair array, and its
        zero-information sequence, under 16 MiB traced."""
        model = InformationModel(np.array([0.5, 0.5]), np.ones((2, 1)))
        tracemalloc.start()
        try:
            counts = _count_vectors(1, 10 ** 5)
            v = v_sequence(model, QUAD, 10 ** 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(counts[:, 0], np.arange(10 ** 5 + 1))
        assert not v.values.any()
        assert peak <= 16 * 2 ** 20

    def test_v_sequence_keeps_the_lexicographic_bits(self):
        """Random models (zero-likelihood rows too), both rules, n in random
        order so the tables grow and are read as prefixes: every v equals the
        lexicographic enumeration bit for bit."""
        rng = np.random.default_rng(40)
        most = {1: 40, 2: 120, 3: 30, 4: 12}
        for case in range(200):
            d, m = int(rng.integers(2, 4)), int(rng.integers(1, 5))
            model = _sparse_model(rng, d, m)
            rule = ScoringRule(("quadratic", "logarithmic")[case % 2])
            n = int(rng.integers(0, most[m] + 1))
            assert np.array_equal(v_sequence(model, rule, n).values,
                                  lexicographic_v_values(model, rule, n)), (case, d, m, n)

    def test_concurrent_growth_keeps_the_bits(self, monkeypatch):
        """Four threads grow one table from empty, under a short switch
        interval: each gets its serial bits, and the table ends at the
        largest n."""
        models = [_sparse_model(np.random.default_rng(seed), 2 + seed % 2, 2)
                  for seed in range(4)]
        ns = [(800, 60, 7), (780, 300, 2), (760, 90, 30), (740, 640, 5)]
        serial = [[v_sequence(model, QUAD, n).values for n in mine]
                  for model, mine in zip(models, ns)]
        monkeypatch.setattr(info_model, "_count_tables", {})
        results = {}

        def run(i):
            results[i] = [v_sequence(models[i], QUAD, n).values for n in ns[i]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for thread in runs:
                thread.start()
            for thread in runs:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for i, expected in enumerate(serial):
            for got, values in zip(results[i], expected):
                assert np.array_equal(got, values), (i, len(values))
        assert len(info_model._count_tables[2][0]) == math.comb(800 + 2, 2)


def _refusal_case(kind: str, size: int, tol: float):
    """A vector of ``size`` entries that ``kind`` spoils, and the check
    (from ``_validate_distribution``'s four) that names it."""
    vec = np.full(size, 1.0 / size)
    if kind == "too_few":  # for a prior or a belief; a likelihood row needs none
        return vec[:1], "size"
    if kind == "two_dimensional":
        return vec[None], "size"
    if kind in ("nan", "inf", "minus_inf"):
        vec[-1] = {"nan": np.nan, "inf": np.inf, "minus_inf": -np.inf}[kind]
        return vec, "finite"
    if kind == "below":
        vec[0] = -100 * tol
        return vec, "range"
    if kind == "above":
        vec[-1] = 1 + 100 * tol
        return vec, "range"
    vec[0] += 0.25  # kind == "sum"
    return vec, "sum"


def _refusal_message(what: str, vec: np.ndarray, check: str, least: int) -> str:
    return {"size": f"{what} must list at least {least} probabilities, got {vec}",
            "finite": f"{what} has non-finite entries: {vec}",
            "range": f"{what} has entries outside [0, 1]: {vec}",
            "sum": f"{what} sums to {float(vec.sum())!r}, not 1"}[check]


REFUSALS = ["nan", "inf", "minus_inf", "below", "above", "sum", "two_dimensional",
            "too_few"]


class TestRefusalMessages:
    """Every refusal of ``_validate_distribution`` names its check, whichever
    vector it checks and however long: the fast accept path never hides one."""

    @pytest.mark.parametrize("size", [2, 40])
    @pytest.mark.parametrize("kind", REFUSALS)
    def test_prior(self, kind, size):
        vec, check = _refusal_case(kind, size, 1e-12)
        likelihood = np.full((max(len(vec), 1), 2), 0.5)
        with pytest.raises(ValueError) as info:
            InformationModel(vec, likelihood)
        assert str(info.value) == _refusal_message("prior", vec, check, 2)

    @pytest.mark.parametrize("size", [2, 40])
    @pytest.mark.parametrize("kind", REFUSALS)
    def test_likelihood_row(self, kind, size):
        vec, check = _refusal_case(kind, size, 1e-12)
        if kind == "too_few":
            vec = vec[:0]
        rows = [np.full(len(vec), 1.0 / max(len(vec), 1)), vec]
        if kind == "two_dimensional":  # the rows of a three-dimensional table
            with pytest.raises(ValueError, match=r"^likelihood must be a d x m table "
                                                 r"matching the prior, got "):
                InformationModel(np.array([0.5, 0.5]), np.stack([vec, vec]))
            return
        with pytest.raises(ValueError) as info:
            InformationModel(np.array([0.5, 0.5]), np.stack(rows))
        row = 0 if kind == "too_few" else 1  # a table of empty rows fails at its first
        assert str(info.value) == _refusal_message(f"likelihood row {row}", vec, check, 1)

    @pytest.mark.parametrize("size", [2, 40])
    @pytest.mark.parametrize("kind", REFUSALS)
    def test_belief(self, kind, size):
        vec, check = _refusal_case(kind, size, 1e-10)
        with pytest.raises(ValueError) as info:
            Belief(vec)
        assert str(info.value) == _refusal_message("belief", vec, check, 2)

    @pytest.mark.parametrize("size", [2, 40])
    def test_entries_within_the_tolerance_pass(self, size):
        vec = np.full(size, 1.0 / size)
        vec[0] -= 1e-13
        vec[-1] += 1e-13
        near = np.zeros(size)
        near[0], near[1] = -1e-13, 1.0 + 1e-13
        for probs in (vec, near):
            InformationModel(probs, np.full((size, 2), 0.5))
            InformationModel(np.array([0.5, 0.5]), np.stack([probs, probs]))
            Belief(probs)


    @pytest.mark.parametrize("low, zero", [
        (([0.5, 0.5], [[1.0, -1e-13], [0.3, 0.7]]), ([0.5, 0.5], [[1.0, 0.0], [0.3, 0.7]])),
        (([0.6, 0.4, -1e-13], [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]),
         ([0.6, 0.4, 0.0], [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]))],
        ids=["likelihood", "prior"])
    def test_negative_entries_within_the_tolerance_count_as_zero(self, low, zero):
        """An entry of -1e-13 is stored as 0.0, so the model gives the bits of
        its twin with 0.0 there: taken as it came, a likelihood of -1e-13
        weighted its count vectors as if it were 1."""
        low, zero = InformationModel(*low), InformationModel(*zero)
        assert low.prior.tobytes() == zero.prior.tobytes()
        assert low.likelihood.tobytes() == zero.likelihood.tobytes()
        for rule in (QUAD, ScoringRule("logarithmic")):
            assert np.array_equal(v_sequence(low, rule, 4).values,
                                  v_sequence(zero, rule, 4).values)
            assert np.array_equal(fpm_expected_reward(low, rule, [0.5, 0.5]),
                                  fpm_expected_reward(zero, rule, [0.5, 0.5]))
        assert np.array_equal(posterior(low, [1]).probs, posterior(zero, [1]).probs)

    def test_negative_belief_entries_within_the_tolerance_count_as_zero(self):
        """A belief entry of -1e-11 is stored as 0.0: taken as it came, it
        paid each agent of a log-scored batch about 1e-11 for reports that
        move nothing."""
        low = Belief([-1e-11, 1 + 1e-11])
        assert low.probs.tolist() == [0.0, 1 + 1e-11]
        batch = BatchOutcomeReport(([0.7, 0.3], [0.4, 0.6]), 1)
        result = fpm_run(low, batch, ScoringRule("logarithmic"))
        assert result.rewards.tolist() == [0.0, 0.0]
        assert np.array_equal(result.aggregated.probs,
                              fpm_run(Belief([0.0, 1 + 1e-11]), batch,
                                      ScoringRule("logarithmic")).aggregated.probs)


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

    def test_prior_sum_prints_as_a_plain_float(self):
        with pytest.raises(ValueError, match=r"^prior sums to 0\.0, not 1$"):
            InformationModel(np.array([0.0, 0.0]), np.eye(2))

    @pytest.mark.parametrize("prior, likelihood", [
        ([1.0], [[0.5, 0.5]]), ([[0.5, 0.5]], [[1.0]]),
    ], ids=["one_outcome", "two_dimensional"])
    def test_prior_needs_two_outcomes(self, prior, likelihood):
        with pytest.raises(ValueError, match=r"^prior must list at least 2 probabilities, got "):
            InformationModel(prior, likelihood)

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

    @pytest.mark.parametrize("build, field", [
        (Belief, "probs"),
        (ScoreSequence, "values"),
        (lambda a: FpmResult(Belief([0.5, 0.5]), a), "rewards"),
    ], ids=["Belief", "ScoreSequence", "FpmResult"])
    def test_value_objects_keep_a_copy_of_the_callers_array(self, build, field):
        """The object stores a read-only copy: the caller's array stays
        writable, and writing to it leaves the object as it was."""
        given = np.array([0.0, 1.0])
        stored = getattr(build(given), field)
        assert given.flags.writeable and not stored.flags.writeable
        given[0] = 0.5
        assert stored.tolist() == [0.0, 1.0]

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
        m = _model_from_config({"kind": "binary_noisy",
                                "alpha": 0.02, "beta": 0.2})
        np.testing.assert_allclose(m.prior, [0.98, 0.02])
        t = _model_from_config(
            {"kind": "table", "prior": [0.5, 0.5],
             "likelihood": [[0.9, 0.1], [0.1, 0.9]]})
        assert t.num_signal_values == 2
        with pytest.raises(ValueError):
            _model_from_config({"kind": "mystery"})
        # the legacy agent count is accepted and ignored
        legacy = _model_from_config({"kind": "binary_noisy", "alpha": 0.02,
                                     "beta": 0.2, "num_agents": 3})
        np.testing.assert_array_equal(legacy.likelihood, m.likelihood)

    @pytest.mark.parametrize("cfg, key", [
        ({"kind": "binary_noisy", "alpha": 0.1, "beta": 0.05, "betta": 0.3}, "betta"),
        ({"kind": "table", "prior": [0.5, 0.5], "likelihood": [[0.9, 0.1], [0.1, 0.9]],
          "alpha": 0.1}, "alpha"),
    ], ids=["binary_noisy", "table"])
    def test_from_config_rejects_unknown_keys(self, cfg, key):
        with pytest.raises(ValueError, match=key):
            _model_from_config(cfg)
