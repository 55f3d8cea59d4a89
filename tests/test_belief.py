import numpy as np
import pytest

import infomarkets
from infomarkets import (Belief, InformationModel, ReportVector, apply_report,
                         posterior, truthful_report)
from infomarkets.belief import report_column


def odds_step(p, b):
    """The binary odds update through apply_report: P(Y=1) after report b."""
    return apply_report(Belief(np.array([1.0 - p, p])), ReportVector((b,)))[1]


class TestUpdate:
    """The binary odds update, one ratio-encoded apply_report step."""

    def test_half_is_identity(self):
        for p in np.linspace(0.0, 1.0, 21):
            assert odds_step(p, 0.5) == pytest.approx(p, abs=1e-15)

    def test_hand_value(self):
        # matches the Bayes posterior P(Y=1 | x=1) for alpha=.02, beta=.2
        assert odds_step(0.02, 0.8) == pytest.approx(4 / 53, abs=1e-12)

    def test_degenerate_beliefs_are_fixed_points(self):
        for b in (0.1, 0.5, 0.9):
            assert odds_step(0.0, b) == 0.0
            assert odds_step(1.0, b) == 1.0

    def test_multiplies_odds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = float(rng.uniform(0.01, 0.99))
            b = float(rng.uniform(0.01, 0.99))
            q = odds_step(p, b)
            assert q / (1 - q) == pytest.approx(p / (1 - p) * b / (1 - b), rel=1e-12)

    def test_commutes(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p, b1, b2 = rng.uniform(0.01, 0.99, size=3)
            assert odds_step(odds_step(p, b1), b2) == pytest.approx(
                odds_step(odds_step(p, b2), b1), abs=1e-12)

    def test_rejects_closed_interval_entries(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                odds_step(0.3, bad)
        with pytest.raises(ValueError):
            odds_step(1.2, 0.5)


class TestTruthfulReport:
    def test_example_model(self):
        m = InformationModel.binary_noisy(0.02, 0.2)
        assert truthful_report(m, 1).entries == (0.8,)
        assert truthful_report(m, 0).entries == (0.2,)

    def test_uninformative_signal_gives_half(self):
        m = InformationModel(np.array([0.6, 0.4]),
                             np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert truthful_report(m, 0).entries == (0.5,)
        assert truthful_report(m, 1).entries == (0.5,)

    def test_low_noise_value(self):
        m = InformationModel.binary_noisy(0.1, 0.05)
        # L = 0.05/0.95 = 1/19, b = 1/20
        assert truthful_report(m, 0).entries[0] == pytest.approx(0.05, abs=1e-12)

    def test_noiseless_model_clamps_and_flags(self):
        m = InformationModel.binary_noisy(0.5, 0.0)
        rep = truthful_report(m, 1)
        assert rep.clamped
        assert 0.0 < rep.entries[0] < 1.0
        assert rep.entries[0] > 1 - 1e-11

    def test_round_trip_reproduces_posterior(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            alpha, beta = rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.49)
            m = InformationModel.binary_noisy(alpha, beta)
            for x in (0, 1):
                rep = truthful_report(m, x)
                p1 = apply_report(m.prior_belief(), rep)[1]
                assert p1 == pytest.approx(posterior(m, [x])[1], abs=1e-12)

    def test_rejects_wide_outcome_spaces(self):
        m = InformationModel(np.full(3, 1 / 3), np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match="likelihood column"):
            truthful_report(m, 0)

    def test_rejects_bad_signal(self):
        m = InformationModel.binary_noisy(0.5, 0.2)
        with pytest.raises(ValueError):
            truthful_report(m, 3)


class TestBayesLikelihoodUpdate:
    """apply_report with a likelihood column: the exact Bayes step."""

    def test_hand_value(self):
        b = apply_report(Belief(np.array([0.98, 0.02])), np.array([0.2, 0.8]))
        np.testing.assert_allclose(b.probs, [49 / 53, 4 / 53], atol=1e-12)

    def test_uniform_column_is_identity(self):
        p = Belief(np.array([0.3, 0.2, 0.5]))
        b = apply_report(p, np.full(3, 0.25))
        np.testing.assert_allclose(b.probs, p.probs, atol=1e-15)

    def test_point_mass_is_fixed(self):
        p = Belief(np.array([0.0, 1.0]))
        b = apply_report(p, np.array([0.9, 0.4]))
        np.testing.assert_allclose(b.probs, [0.0, 1.0], atol=0)

    def test_disjoint_support_raises(self):
        p = Belief(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="inconsistent"):
            apply_report(p, np.array([1.0, 0.0]))

    def test_binary_equivalence_with_ratio_update(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            alpha, beta = rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.49)
            m = InformationModel.binary_noisy(alpha, beta)
            p = Belief.normalized(rng.uniform(0.05, 1.0, size=2))
            x = int(rng.integers(2))
            via_column = apply_report(p, m.likelihood[:, x])
            via_ratio = apply_report(p, truthful_report(m, x))
            np.testing.assert_allclose(via_ratio.probs, via_column.probs, atol=1e-12)


class TestReportVector:
    def test_no_signal_is_all_halves(self):
        rep = ReportVector.no_signal(4)
        assert rep.entries == (0.5, 0.5, 0.5)

    def test_boundary_entries_rejected_at_parse_time(self):
        for bad in ((0.0,), (1.0,), (0.4, 1.0)):
            with pytest.raises(ValueError):
                ReportVector(bad)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReportVector(())

    def test_apply_report_requires_matching_width(self):
        p = Belief(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            apply_report(p, ReportVector((0.5, 0.5)))

    def test_apply_report_rejects_wide_ratio_reports(self):
        p = Belief(np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="binary"):
            apply_report(p, ReportVector((0.5, 0.5)))

    def test_apply_report_accepts_columns_for_wide_markets(self):
        p = Belief(np.full(3, 1 / 3))
        out = apply_report(p, np.array([0.1, 0.3, 0.6]))
        np.testing.assert_allclose(out.probs, [0.1, 0.3, 0.6], atol=1e-15)

    def test_report_column_rejects_wrong_shape_and_negative_entries(self):
        with pytest.raises(ValueError, match="shape"):
            report_column([0.2, 0.3, 0.5], 2)
        with pytest.raises(ValueError, match="nonnegative"):
            report_column([-0.1, 1.1], 2)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_report_column_rejects_non_finite_entries(self, entry):
        # a NaN or infinite entry would otherwise surface later, as
        # "disjoint support" from the fold, far from the report
        with pytest.raises(ValueError, match="must be finite"):
            report_column([entry, 0.3], 2)

    def test_report_to_column_matches_update(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            b = float(rng.uniform(0.01, 0.99))
            p = Belief.normalized(rng.uniform(0.05, 1.0, size=2))
            via_col = apply_report(p, report_column(ReportVector((b,)), 2))
            via_upd = apply_report(p, ReportVector((b,)))
            np.testing.assert_allclose(via_col.probs, via_upd.probs, atol=1e-15)


def test_star_import_lists_only_live_names():
    namespace = {}
    exec("from infomarkets import *", namespace)
    assert set(infomarkets.__all__) <= namespace.keys()
    for retired in ("update", "bayes_likelihood_update"):
        assert not hasattr(infomarkets, retired)
