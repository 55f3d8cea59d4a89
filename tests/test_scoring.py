import numpy as np
import pytest

from infomarkets import ScoringRule, expected_score, score
from infomarkets.cli import _rule_from_config
from infomarkets.scoring import _outcome_sum

QUAD = ScoringRule("quadratic")
LOG = ScoringRule("logarithmic")


class TestScoreValues:
    def test_quadratic_example(self):
        assert score(QUAD, np.array([0.98, 0.02]), 0) == pytest.approx(0.9992, abs=1e-12)

    def test_point_mass_scores_one(self):
        for d in (2, 3, 5):
            for y in range(d):
                p = np.zeros(d)
                p[y] = 1.0
                assert score(QUAD, p, y) == pytest.approx(1.0, abs=1e-12)

    def test_scale_wrapper(self):
        rule = ScoringRule("quadratic", scale=20.0)
        assert score(rule, np.array([0.5, 0.5]), 0) == pytest.approx(10.0, abs=1e-12)

    def test_scaling_is_exact_multiplication(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            y = rng.integers(3)
            for kind in ("quadratic", "logarithmic"):
                base = score(ScoringRule(kind), p, y)
                scaled = score(ScoringRule(kind, scale=7.5), p, y)
                assert scaled == 7.5 * base

    def test_log_rule_zero_probability_sentinel(self):
        assert score(LOG, np.array([1.0, 0.0]), 1) == -np.inf

    def test_batched_scores(self):
        p = np.array([[0.98, 0.02], [0.5, 0.5]])
        y = np.array([0, 0])
        np.testing.assert_allclose(score(QUAD, p, y), [0.9992, 0.5], atol=1e-12)


def reference_score(rule, probs, y):
    """The batch score as a gather along the outcome axis and a numpy sum."""
    index = np.broadcast_to(np.asarray(y)[..., None], (*probs.shape[:-1], 1))
    p_y = np.take_along_axis(probs, index, axis=-1)[..., 0]
    if rule.kind == "quadratic":
        raw = 2.0 * p_y - np.sum(probs * probs, axis=-1)
    else:
        with np.errstate(divide="ignore"):
            raw = np.log(p_y)
    return rule.scale * raw


class TestBatchKernel:
    """The batch kernel against the plain gather-and-sum formulation."""

    @staticmethod
    def batch(rng, shape, d):
        probs = rng.dirichlet(np.ones(d), size=shape)
        probs[rng.random(shape) < 0.2, 0] = 0.0  # zeros: -inf under the log rule
        return probs, rng.integers(d, size=shape[-1])

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["quadratic", "logarithmic"])
    def test_bitwise_equal_to_reference_below_eight_outcomes(self, d, kind):
        rule = ScoringRule(kind, scale=7.3)
        rng = np.random.default_rng(d)
        for shape in [(1,), (50,), (4, 50), (2, 3, 50)]:
            probs, y = self.batch(rng, shape, d)
            got = score(rule, probs, y)
            assert got.shape == shape
            assert np.array_equal(got, reference_score(rule, probs, y))
            scalar_y = score(rule, probs, d - 1)
            assert np.array_equal(scalar_y, reference_score(rule, probs, d - 1))
        if kind == "logarithmic":
            assert np.any(np.isneginf(got))

    @pytest.mark.parametrize("d", [8, 13])
    def test_pairwise_sums_agree_to_rounding_from_eight_outcomes(self, d):
        rng = np.random.default_rng(d)
        probs, y = self.batch(rng, (3, 200), d)
        norm = np.sum(probs * probs, axis=-1)
        np.testing.assert_allclose(_outcome_sum(probs, square=True), norm,
                                   rtol=1e-15, atol=0)
        # 2 p(y) - norm may cancel: the sums differ by rounding of the norm
        diff = np.abs(score(QUAD, probs, y) - reference_score(QUAD, probs, y))
        assert np.all(diff <= 1e-15 * norm)
        assert np.array_equal(score(LOG, probs, y), reference_score(LOG, probs, y))

    def test_single_belief_matches_its_batch_of_one(self):
        rng = np.random.default_rng(7)
        for rule in (QUAD, LOG):
            p = rng.dirichlet(np.ones(3))
            y = rng.integers(3, size=20)
            assert np.array_equal(score(rule, p, y), score(rule, np.tile(p, (20, 1)), y))
            assert score(rule, p, 2) == score(rule, p[None], np.array([2]))[0]

    @pytest.mark.parametrize("y", [-1, 3, [0, 3]])
    def test_outcome_out_of_range_raises(self, y):
        for probs in (np.full(3, 1 / 3), np.full((2, 3), 1 / 3)):
            with pytest.raises(ValueError, match="outside 0..2"):
                score(QUAD, probs, y)


class TestExpectedScore:
    def test_quadratic_values(self):
        assert expected_score(QUAD, np.array([0.98, 0.02])) == pytest.approx(0.9608, abs=1e-12)
        assert expected_score(QUAD, np.array([0.9, 0.1])) == pytest.approx(0.82, abs=1e-12)
        assert expected_score(QUAD, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_norm_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.dirichlet(np.ones(rng.integers(2, 6)))
            rule = ScoringRule("quadratic", scale=float(rng.uniform(0.5, 30)))
            assert expected_score(rule, p) == pytest.approx(
                rule.scale * np.dot(p, p), abs=1e-12)

    def test_log_treats_zero_times_log_zero_as_zero(self):
        assert np.isfinite(expected_score(LOG, np.array([1.0, 0.0])))

    def test_matches_probability_weighted_scores(self):
        rng = np.random.default_rng(2)
        for rule in (QUAD, LOG):
            p = rng.dirichlet(np.ones(4)) + 1e-3
            p = p / p.sum()
            direct = sum(p[y] * score(rule, p, y) for y in range(4))
            assert expected_score(rule, p) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_equals_numpy_sums_below_eight_outcomes(self, d):
        """The left-to-right outcome sum moves no bit while numpy adds left to right too."""
        probs = np.random.default_rng(d).dirichlet(np.ones(d), size=(3, 40))
        probs[0, :, -1] = 0.0  # the log rule's 0 ln 0 = 0 branch
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(probs > 0, probs * np.log(probs), 0.0)
        assert np.array_equal(expected_score(QUAD, probs), np.sum(probs * probs, axis=-1))
        assert np.array_equal(expected_score(LOG, probs), np.sum(terms, axis=-1))
        assert expected_score(QUAD, probs[1, 0]) == np.sum(probs[1, 0] ** 2)
        assert expected_score(LOG, probs[0, 0]) == np.sum(terms[0, 0])


class TestProperness:
    """Reporting the true belief must (strictly) maximize the expected score."""

    @pytest.mark.parametrize("kind", ["quadratic", "logarithmic"])
    def test_properness_gap(self, kind):
        rule = ScoringRule(kind)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            b = rng.dirichlet(np.ones(d)) * 0.98 + 0.01 / d
            b = b / b.sum()
            p = rng.dirichlet(np.ones(d)) * 0.98 + 0.01 / d
            p = p / p.sum()
            gap = (sum(b[y] * score(rule, b, y) for y in range(d))
                   - sum(b[y] * score(rule, p, y) for y in range(d)))
            assert gap >= -1e-12
            if np.max(np.abs(b - p)) > 1e-3:
                assert gap > 1e-9


class TestConstruction:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ScoringRule("spherical")

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            ScoringRule("quadratic", scale=0.0)

    def test_config_round_trip(self):
        assert (_rule_from_config({"rule": "quadratic", "scale": 20.0})
                == ScoringRule("quadratic", 20.0))
        assert _rule_from_config({"rule": "log"}) == LOG

    def test_config_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            _rule_from_config({"rule": "brier"})

    def test_config_rejects_unknown_key(self):
        # a misspelled scale must not fall back to scale 1
        with pytest.raises(ValueError, match="scle"):
            _rule_from_config({"rule": "quadratic", "scle": 20})
