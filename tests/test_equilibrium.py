import math

import numpy as np
import pytest

from infomarkets import (AccessFunction, LatencyFamily, ScoreSequence,
                         TimeValue, batch_equilibrium, batch_welfare,
                         mvp_agent_reward, mvp_br_derivative, mvp_equilibrium,
                         mvp_principal_utility, mvp_welfare,
                         pm_race_equilibrium)
from infomarkets.numerics import FOC_TOL
from helpers import welfare_foc_root

H1 = TimeValue.exponential(1.0)
LAT1 = LatencyFamily.exponential(1.0)


def seq(*values):
    return ScoreSequence(np.array(values, dtype=float))


class TestLatencyFamily:
    def test_cdf_shape(self):
        lat = LatencyFamily.exponential(2.0)
        assert lat.cdf(0.5, 1.0) == pytest.approx(1 - math.exp(-1.0))
        assert lat.cdf(0.0, 5.0) == 0.0  # zero effort never obtains

    def test_effort_sensitivity(self):
        lat = LatencyFamily.exponential(2.0)
        assert lat.dcdf_dc(0.5, 1.0) == pytest.approx(2 * math.exp(-1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyFamily("weibull")
        with pytest.raises(ValueError):
            LatencyFamily.exponential(-1.0)


class TestBatchEquilibrium:
    def test_linear_matches_winner_race_optimum(self):
        eq = batch_equilibrium(AccessFunction.linear(3.0), seq(0, 1, 1), 2)
        assert eq.effort == pytest.approx(2 / 9, abs=1e-10)

    def test_exponential_matches_winner_race_optimum(self):
        eq = batch_equilibrium(AccessFunction.exponential(3.0), seq(0, 1, 1), 2)
        assert eq.effort == pytest.approx(math.log(3) / 6, abs=1e-10)

    def test_worthless_information_means_no_effort(self):
        eq = batch_equilibrium(AccessFunction.exponential(3.0), seq(0, 0, 0), 2)
        assert eq.corner and eq.effort == 0.0

    def test_welfare_maximality(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            lam = float(rng.uniform(1.3, 6.0))
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
            F = AccessFunction.exponential(lam)
            eq = batch_equilibrium(F, v, n)
            best = batch_welfare(F, v, n, eq.effort)
            for delta in (1e-3, 1e-2):
                assert best >= batch_welfare(F, v, n, eq.effort + delta) - 1e-12
                if eq.effort - delta >= 0:
                    assert best >= batch_welfare(F, v, n, eq.effort - delta) - 1e-12

    def test_requires_long_enough_sequence(self):
        with pytest.raises(ValueError):
            batch_equilibrium(AccessFunction.exponential(2.0), seq(0, 1), 2)

    def test_two_thousand_agents_stay_finite_and_certified(self):
        n = 2000
        v = ScoreSequence(10 * (1 - 0.9 ** np.arange(n + 1)))
        for F in (AccessFunction.exponential(3.0), AccessFunction.linear(3.0)):
            eq = batch_equilibrium(F, v, n)
            assert not eq.corner and abs(eq.residual) <= FOC_TOL
            assert 0 < eq.effort < 0.01
            assert np.isfinite(batch_welfare(F, v, n, eq.effort))


class TestBatchWelfare:
    def test_reference_value(self):
        assert batch_welfare(AccessFunction.linear(3.0), seq(0, 1, 1), 2,
                             2 / 9) == pytest.approx(4 / 9, abs=1e-12)

    def test_zero_effort(self):
        assert batch_welfare(AccessFunction.exponential(2.0), seq(0, 1, 1), 2, 0.0) == 0.0

    def test_certain_discovery(self):
        # linear access at the cap: discovery certain, welfare 1 - n c
        F = AccessFunction.linear(2.0)
        assert batch_welfare(F, seq(0, 1, 1), 2, 0.5) == pytest.approx(0.0, abs=1e-12)


class TestBrDerivative:
    def test_reference_residuals(self):
        # plotted equilibrium points must zero the derivative
        for lam, c in ((1.0, 0.290773), (2.0, 0.364519), (15.0, 0.229687)):
            d = mvp_br_derivative(LatencyFamily.exponential(lam), H1,
                                  seq(0, 2, 3), 2, c, c)
            assert abs(d) < 1e-5

    def test_substitutability_residual(self):
        d = mvp_br_derivative(LAT1, H1, seq(0, 2, 2), 2, 0.207107, 0.207107)
        assert abs(d) < 1e-5

    def test_zero_value_gives_minus_one(self):
        assert mvp_br_derivative(LAT1, H1, seq(0, 0, 0), 2, 0.0, 0.0) == -1.0

    def test_two_agent_closed_form(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            lam, eta = rng.uniform(0.5, 6.0), rng.uniform(0.4, 2.5)
            v1 = float(rng.uniform(0.3, 3.0))
            v2 = float(rng.uniform(v1, 2 * v1))
            c_i, c = rng.uniform(0.01, 1.0, size=2)
            got = mvp_br_derivative(LatencyFamily.exponential(lam),
                                    TimeValue.exponential(eta),
                                    seq(0, v1, v2), 2, c_i, c)
            # hand-expanded n=2 form: the rival has either reported or not
            hand = lam * eta * (v1 / (eta + lam * c_i + lam * c) ** 2
                                + (v2 - v1) * (1 / (eta + lam * c_i) ** 2
                                               - 1 / (eta + lam * c_i + lam * c) ** 2)) - 1
            assert got == pytest.approx(hand, abs=1e-12)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            lam, eta = rng.uniform(0.5, 8.0), rng.uniform(0.4, 2.5)
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.1, 1.5, size=n))]))
            c_i, c = rng.uniform(0.02, 1.2, size=2)
            latency = LatencyFamily.exponential(lam)
            h = TimeValue.exponential(eta)
            closed = mvp_br_derivative(latency, h, v, n, c_i, c, method="closed")
            quadr = mvp_br_derivative(latency, h, v, n, c_i, c, method="quadrature")
            assert closed == pytest.approx(quadr, abs=1e-8)


class TestMvpEquilibrium:
    def test_ease_reference_points(self):
        v = seq(0, 2, 3)
        for lam, target in ((1.0, 0.290773), (2.0, 0.364519), (15.0, 0.229687)):
            eq = mvp_equilibrium(LatencyFamily.exponential(lam), H1, v, 2)
            assert eq.effort == pytest.approx(target, abs=1e-4)
            assert abs(eq.residual) <= 1e-10

    def test_noise_reference_points(self):
        v = seq(0, 2.179734219269105, 3.1601922661122694)  # scale-20, beta=.05
        eq = mvp_equilibrium(LAT1, H1, v, 2)
        assert eq.effort == pytest.approx(0.324463, abs=1e-4)
        eq_slow = mvp_equilibrium(LatencyFamily.exponential(0.5), H1, v, 2)
        assert eq_slow.effort == pytest.approx(0.0570997, abs=1e-4)

    def test_saturated_value_closed_form(self):
        eq = mvp_equilibrium(LatencyFamily.exponential(0.5), H1,
                             seq(0, 3.6, 3.6), 2)
        assert eq.effort == pytest.approx(math.sqrt(1.8) - 1, abs=1e-10)

    def test_wide_markets_match_quadrature(self):
        lat2 = LatencyFamily.exponential(2.0)
        for n in (48, 64):
            v = ScoreSequence(np.arange(n + 1) / n)
            eq = mvp_equilibrium(lat2, H1, v, n)
            assert eq.corner and eq.effort == 0.0 and -1.0 <= eq.residual <= 0.0
            quadr = mvp_br_derivative(lat2, H1, v, n, 1e-12, 1e-12,
                                      method="quadrature")
            assert eq.residual == pytest.approx(quadr, abs=1e-8)

    def test_corner_when_decay_beats_value(self):
        eq = mvp_equilibrium(LatencyFamily.exponential(0.4), H1, seq(0, 2, 3), 2)
        assert eq.corner and eq.effort == 0.0

    def test_substitutability_is_not_monotone_for_easy_signals(self):
        """With quick discovery, concentrating value in the first report
        lowers equilibrium effort."""
        lat8 = LatencyFamily.exponential(8.0)
        grid = np.linspace(1.0, 2.0, 11)
        efforts = [mvp_equilibrium(lat8, H1, seq(0, v1, 2.0), 2).effort
                   for v1 in grid]
        assert efforts[0] == pytest.approx(0.228553, abs=1e-4)
        assert efforts[-1] == pytest.approx(0.1875, abs=1e-4)
        assert np.all(np.diff(efforts) < 0)


class TestMvpWelfare:
    def test_zero_effort(self):
        assert mvp_welfare(LAT1, H1, seq(0, 1, 1), 2, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_single_agent_closed_form(self):
        for c in (0.1, 0.7, 2.0):
            assert mvp_welfare(LAT1, H1, seq(0, 1), 1, c) == pytest.approx(
                c / (1 + c) - c, abs=1e-12)

    def test_closed_form_matches_quadrature(self):
        v = seq(0, 1, 1)
        for c in (0.1, 0.5, 1.0):
            closed = mvp_welfare(LAT1, H1, v, 2, c, method="closed")
            quadr = mvp_welfare(LAT1, H1, v, 2, c, method="quadrature")
            assert closed == pytest.approx(quadr, abs=1e-8)

    def test_equilibrium_maximizes_welfare(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            lam, eta = rng.uniform(0.8, 6.0), rng.uniform(0.5, 2.0)
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
            latency = LatencyFamily.exponential(lam)
            h = TimeValue.exponential(eta)
            eq = mvp_equilibrium(latency, h, v, n)
            best = mvp_welfare(latency, h, v, n, eq.effort)
            for delta in (1e-3, 1e-2):
                assert best >= mvp_welfare(latency, h, v, n, eq.effort + delta) - 1e-12
                if eq.effort - delta >= 0:
                    assert best >= mvp_welfare(latency, h, v, n,
                                               eq.effort - delta) - 1e-12


class TestPrincipalUtility:
    def test_zero_effort(self):
        assert mvp_principal_utility(LAT1, H1, seq(0, 1, 1), 2, 0.0) == pytest.approx(
            0.0, abs=1e-14)

    def test_accounting_identity(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            lam, eta = rng.uniform(0.8, 6.0), rng.uniform(0.5, 2.0)
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
            c = float(rng.uniform(0.05, 1.0))
            latency = LatencyFamily.exponential(lam)
            h = TimeValue.exponential(eta)
            w = mvp_welfare(latency, h, v, n, c)
            u = mvp_principal_utility(latency, h, v, n, c)
            r = mvp_agent_reward(latency, h, v, n, c)
            assert u + n * (r - c) == pytest.approx(w, abs=1e-8)

    def test_beats_the_race_on_welfare_when_signals_are_easy(self):
        lat = LatencyFamily.exponential(4.0)
        v = seq(0, 1, 1)
        eq = mvp_equilibrium(lat, H1, v, 2)
        assert mvp_principal_utility(lat, H1, v, 2, eq.effort) > 0
        race = pm_race_equilibrium(v, 2)
        assert (mvp_welfare(lat, H1, v, 2, eq.effort)
                > mvp_welfare(lat, H1, v, 2, race.effort))

    def test_agent_reward_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            lam, eta = rng.uniform(0.5, 8.0), rng.uniform(0.4, 2.5)
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.1, 1.5, size=n))]))
            c = float(rng.uniform(0.02, 1.2))
            latency = LatencyFamily.exponential(lam)
            h = TimeValue.exponential(eta)
            closed = mvp_agent_reward(latency, h, v, n, c, method="closed")
            quadr = mvp_agent_reward(latency, h, v, n, c, method="quadrature")
            assert closed == pytest.approx(quadr, abs=1e-8)


class TestFocCoincidence:
    """The selfish best response lands exactly on the welfare optimum."""

    def test_batch(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            lam = float(rng.uniform(1.3, 6.0))
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
            F = AccessFunction.exponential(lam)
            br = batch_equilibrium(F, v, n).effort
            sw = welfare_foc_root(lambda c: batch_welfare(F, v, n, c))
            assert br == pytest.approx(sw, abs=1e-8)

    def test_sequential(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            lam, eta = rng.uniform(0.8, 6.0), rng.uniform(0.5, 2.0)
            n = int(rng.integers(2, 5))
            v = ScoreSequence(np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
            latency = LatencyFamily.exponential(lam)
            h = TimeValue.exponential(eta)
            br = mvp_equilibrium(latency, h, v, n).effort
            sw = welfare_foc_root(lambda c: mvp_welfare(latency, h, v, n, c))
            assert br == pytest.approx(sw, abs=1e-8)


class TestMethodSwitch:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            mvp_welfare(LAT1, H1, seq(0, 1, 1), 2, 0.1, method="magic")

    def test_closed_form_unavailable_for_table_h(self):
        h = TimeValue.table([0.0, 1.0, 5.0], [1.0, 0.5, 0.0])
        with pytest.raises(ValueError):
            mvp_welfare(LAT1, h, seq(0, 1, 1), 2, 0.1, method="closed")

    def test_table_h_uses_quadrature_automatically(self):
        h = TimeValue.table([0.0, 1.0, 5.0], [1.0, 0.5, 0.0])
        value = mvp_welfare(LAT1, h, seq(0, 1, 1), 2, 0.1)
        assert np.isfinite(value)
