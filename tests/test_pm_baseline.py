import math

import numpy as np
import pytest
from scipy.optimize import brentq

from infomarkets import (AccessFunction, ScoreSequence, pm_batch_equilibrium,
                         pm_batch_utility, pm_batch_welfare,
                         pm_race_equilibrium)

EXP3 = AccessFunction.exponential(3.0)
LIN3 = AccessFunction.linear(3.0)

# root of 3u^2 + 3u - 2 = 0 in u = exp(-3c)
C_SELF_EXP3_N2 = -math.log((-3 + math.sqrt(33)) / 6) / 3


def seq(*values):
    return ScoreSequence(np.array(values, dtype=float))


class TestAccessFunction:
    def test_linear_domain(self):
        assert LIN3.domain_max == pytest.approx(1 / 3)
        assert LIN3.value(1 / 3) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            LIN3.value(0.4)

    def test_exponential_shape(self):
        assert EXP3.value(0.0) == 0.0
        assert EXP3.value(1.0) == pytest.approx(1 - math.exp(-3))
        assert EXP3.derivative(0.0) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AccessFunction("quadratic", 1.0)
        with pytest.raises(ValueError):
            AccessFunction("linear", 0.0)


class TestBatchUtility:
    def test_no_effort_no_utility(self):
        assert pm_batch_utility(LIN3, 2, 0.0, 0.0) == 0.0

    def test_certain_access_splits_reward(self):
        # F(1/3) = 1 for both, so the reward is shared: 1/2 - 1/3
        assert pm_batch_utility(LIN3, 2, 1 / 3, 1 / 3) == pytest.approx(1 / 6, abs=1e-12)

    def test_single_agent_reduces_to_welfare(self):
        for x in (0.1, 0.4, 1.0):
            assert pm_batch_utility(EXP3, 1, x, 0.7) == pytest.approx(
                (1 - math.exp(-3 * x)) - x, abs=1e-12)

    def test_sharing_factor_equals_literal_tie_sum(self):
        """The closed form must match the k-competitors binomial sum."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            x, c = rng.uniform(0.0, 1.0, size=2)
            F = EXP3
            Fc = F.value(c)
            share = sum(math.comb(n - 1, k) * Fc ** k * (1 - Fc) ** (n - 1 - k)
                        / (k + 1) for k in range(n))
            literal = F.value(x) * share - x
            assert pm_batch_utility(F, n, x, c) == pytest.approx(literal, abs=1e-12)


class TestBatchEquilibrium:
    def test_exponential_reference_point(self):
        eq = pm_batch_equilibrium(EXP3, 2)
        assert not eq.corner
        assert eq.effort == pytest.approx(C_SELF_EXP3_N2, abs=1e-10)
        assert abs(eq.residual) <= 1e-10

    def test_exponential_solves_the_rate_equation(self):
        for n in (2, 4, 16, 64):
            c = pm_batch_equilibrium(EXP3, n).effort
            lhs = n * (1 - math.exp(-3 * c))
            rhs = 3 * math.exp(-3 * c) * (1 - math.exp(-n * 3 * c))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_linear_interior_condition(self):
        F = AccessFunction.linear(1.5)
        for n in (2, 3, 5):
            eq = pm_batch_equilibrium(F, n)
            assert not eq.corner
            # sharing factor equals 1/lam at an interior equilibrium
            Fc = F.value(eq.effort)
            share = (1 - (1 - Fc) ** n) / (n * Fc)
            assert share == pytest.approx(1 / 1.5, abs=1e-9)

    def test_linear_corner_when_access_outpaces_agents(self):
        # lam > n: marginal payoff stays above cost, everyone invests the cap
        eq = pm_batch_equilibrium(LIN3, 2)
        assert eq.corner
        assert eq.effort == pytest.approx(1 / 3, abs=1e-12)
        assert pm_batch_welfare(LIN3, 2, eq.effort) == pytest.approx(1 / 3, abs=1e-12)

    def test_linear_rent_dissipation(self):
        """Interior equilibria burn all social value (welfare 0)."""
        for n in (3, 4, 5, 8):
            eq = pm_batch_equilibrium(LIN3, n)
            assert not eq.corner
            assert pm_batch_welfare(LIN3, n, eq.effort) == pytest.approx(0.0, abs=1e-10)

    def test_interior_foc_residual(self):
        for n in (2, 3, 10):
            eq = pm_batch_equilibrium(EXP3, n)
            assert abs(eq.residual) <= 1e-8

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            pm_batch_equilibrium(EXP3, 1)
        with pytest.raises(ValueError):
            pm_batch_equilibrium(AccessFunction.exponential(0.8), 2)


class TestBatchWelfare:
    def test_linear_optimum_value(self):
        assert pm_batch_welfare(LIN3, 2, 2 / 9) == pytest.approx(4 / 9, abs=1e-12)

    def test_exponential_optimum_limit(self):
        lam = 3.0
        target = 1 - (1 + math.log(lam)) / lam
        for n in (8, 64, 256):
            c_opt = math.log(lam) / (n * lam)
            assert pm_batch_welfare(EXP3, n, c_opt) == pytest.approx(target, abs=1e-9)

    def test_zero_effort(self):
        assert pm_batch_welfare(EXP3, 5, 0.0) == 0.0


class TestRaceEquilibrium:
    def test_reference_points(self):
        assert pm_race_equilibrium(seq(0, 2, 3), 2).effort == pytest.approx(0.25, abs=1e-12)
        assert pm_race_equilibrium(seq(0, 3.6, 3.6), 2).effort == pytest.approx(0.9, abs=1e-12)

    def test_two_agent_closed_form(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            v1 = float(rng.uniform(0.5, 3.0))
            v2 = float(rng.uniform(v1, 2 * v1))  # keep 2 v1 >= v2
            eq = pm_race_equilibrium(seq(0.0, v1, v2), 2)
            assert eq.effort == pytest.approx((2 * v1 - v2) / 4, abs=1e-10)

    def test_substitutability_line(self):
        for v1 in (1.0, 1.25, 1.5, 2.0):
            eq = pm_race_equilibrium(seq(0.0, v1, 2.0), 2)
            assert eq.effort == pytest.approx((v1 - 1) / 2, abs=1e-10)

    def test_clamps_when_late_ranks_eat_the_prize(self):
        eq = pm_race_equilibrium(seq(0.0, 0.2, 3.0), 2)
        assert eq.corner
        assert eq.effort == 0.0

    def test_needs_enough_values(self):
        with pytest.raises(ValueError):
            pm_race_equilibrium(seq(0.0, 1.0), 3)

    def test_general_n_against_rank_race_oracle(self):
        """Cross-check the FOC against brute-force rank probabilities."""
        def rank_reward(c_i, c, n, deltas, lam):
            total, ahead = 0.0, 1.0
            for j in range(1, n + 1):
                win = lam * c_i / (lam * c_i + (n - j) * lam * c)
                total += ahead * win * deltas[j - 1]
                lose = (n - j) * lam * c / (lam * c_i + (n - j) * lam * c)
                ahead *= lose
            return total

        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            # strictly decreasing marginal values keep the equilibrium interior
            deltas = np.sort(rng.uniform(0.3, 1.5, size=n))[::-1]
            deltas[0] += 0.5
            v = ScoreSequence(np.concatenate([[0.0], np.cumsum(deltas)]))
            eq = pm_race_equilibrium(v, n)
            assert not eq.corner
            step = 1e-7

            def foc(c):
                return (rank_reward(c + step, c, n, deltas, 2.0)
                        - rank_reward(c - step, c, n, deltas, 2.0)) / (2 * step) - 1.0

            oracle = brentq(foc, 1e-4, 20.0, xtol=1e-12)
            assert eq.effort == pytest.approx(oracle, abs=1e-6)
