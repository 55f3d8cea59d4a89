import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from infomarkets import (Belief, InformationModel, ProtocolError, ReportVector,
                         ScoringRule, TimeValue, TimedReport, mvp_run,
                         reports_from_stream, score, time_value_mass,
                         trace_dump_rows, truthful_report)

QUAD = ScoringRule("quadratic")
H1 = TimeValue.exponential(1.0)

# frozen quadrature oracle: energy score gain 0.21129484 discounted by e^{-1}
SINGLE_AGENT_REWARD = 0.07773103


def fraction_mass(h, a, b):
    """Integral of a table h over [a, b], in rationals on the stored floats."""
    a, b, total = Fraction(a), Fraction(b) if b < math.inf else b, Fraction(0)
    knots = list(zip(h.times, h.values))
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        lo, hi = max(Fraction(x0), a), min(Fraction(x1), b)
        if lo < hi:
            slope = (Fraction(y1) - Fraction(y0)) / (Fraction(x1) - Fraction(x0))
            total += (hi - lo) * (Fraction(y0) + slope * ((lo + hi) / 2 - Fraction(x0)))
    return total


def exact_expected_reward(model, rule, h, times, agent, override=None):
    """Expected MVP reward of one agent, enumerating outcomes and all signals.

    Report times are fixed; content is truthful except where ``override``
    maps the agent's signal to a different report.
    """
    n = len(times)
    prior = model.prior_belief()
    total = 0.0
    m = model.num_signal_values
    for combo in itertools.product(range(m), repeat=n):
        reports = []
        for i, x in enumerate(combo):
            content = truthful_report(model, x)
            if override is not None and i == agent:
                content = override(x)
            reports.append(TimedReport(i, times[i], content))
        for y in range(model.num_outcomes):
            w = model.prior[y] * math.prod(model.likelihood[y, x] for x in combo)
            if w == 0.0:
                continue
            _, rewards = mvp_run(prior, reports, y, rule, h, num_agents=n)
            total += w * rewards[agent]
    return total


class TestTimeValueMass:
    def test_exponential_total_mass_is_one(self):
        assert time_value_mass(H1, 0.0, np.inf) == pytest.approx(1.0, abs=1e-15)

    def test_exponential_tail(self):
        assert time_value_mass(H1, 1.0, np.inf) == pytest.approx(math.exp(-1), abs=1e-15)

    def test_empty_interval(self):
        h_table = TimeValue.table([0.0, 1.0, 4.0], [1.0, 0.5, 0.1])
        for h in (H1, h_table):
            assert time_value_mass(h, 2.0, 2.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            time_value_mass(H1, 2.0, 1.0)

    def test_table_kind_matches_quadrature(self):
        h = TimeValue.table([0.0, 1.0, 3.0], [1.0, 0.4, 0.0])
        expected = quad(h.density, 0.2, 2.5, epsabs=1e-12)[0]
        assert time_value_mass(h, 0.2, 2.5) == pytest.approx(expected, abs=1e-9)

    def test_table_mass_beyond_support_is_zero(self):
        h = TimeValue.table([0.0, 2.0], [1.0, 1.0])
        assert time_value_mass(h, 2.0, np.inf) == 0.0

    def test_array_arguments_match_scalar_calls(self):
        a = np.array([0.0, 0.4, 1.0, 2.5, 2.5])
        b = np.array([0.4, 1.0, 2.5, 2.5, np.inf])
        for h in (H1, TimeValue.table([0.0, 1.0, 3.0], [1.0, 0.4, 0.0])):
            masses = time_value_mass(h, a, b)
            assert masses.shape == a.shape
            for j in range(a.size):
                assert masses[j] == time_value_mass(h, a[j], b[j])

    def test_table_masses_are_exact(self):
        """Random tables and deadline spikes, against rationals on the stored floats."""
        rng = np.random.default_rng(60)
        tables = []
        for _ in range(300):
            k = int(rng.integers(2, 12))
            times = np.sort(rng.uniform(0.0, 10.0, k))
            values = rng.uniform(0.0, 3.0, k) * (rng.random(k) < 0.8)
            values[int(rng.integers(k))] += 0.5  # never all zero
            tables.append(TimeValue.table(times, values))
        for deadline in (1.0, 5.0, 50.0):
            for w in (1e-2, 1e-4, 1e-6):
                tables.append(TimeValue.table([deadline - w, deadline, deadline + w],
                                              [0.0, 1.0 / w, 0.0]))
        worst = 0.0
        for h in tables:
            total = fraction_mass(h, 0.0, math.inf)
            cuts = np.unique(np.concatenate([[0.0], h.times, np.array(h.times) + 1e-7,
                                             rng.uniform(0.0, 1.1 * h.times[-1], 6)]))
            edges = np.append(cuts, np.inf)
            masses = time_value_mass(h, edges[:-1], edges[1:])
            for a, b, mass in zip(edges[:-1], edges[1:], masses):
                error = abs(Fraction(mass) - fraction_mass(h, a, b)) / total
                worst = max(worst, float(error))
        assert worst <= 1e-12

    def test_table_knots_are_built_once_and_read_only(self):
        h = TimeValue.table([0.0, 1.0, 3.0], [1.0, 0.4, 0.0])
        first = h.tail(np.array([0.5, 2.0]))
        x, y, below = h._knots
        assert h._knots[0] is x
        assert np.array_equal(below, [0.0, 0.7, 1.1])
        for a in (x, y, below):
            with pytest.raises(ValueError):
                a[0] = 9.0
        assert np.array_equal(h.tail(np.array([0.5, 2.0])), first)
        assert h.density(1.0) == 0.4
        # the cache is not a field: equal tables stay equal and hash alike
        fresh = TimeValue.table([0.0, 1.0, 3.0], [1.0, 0.4, 0.0])
        assert fresh == h and hash(fresh) == hash(h)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeValue.exponential(0.0)
        with pytest.raises(ValueError):
            TimeValue.table([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            TimeValue.table([1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            TimeValue("gaussian")

    def test_config_rejects_unknown_key(self):
        # a misspelled rate must not fall back to eta 1
        with pytest.raises(ValueError, match="rate"):
            TimeValue.from_config({"kind": "exponential", "rate": 5})
        with pytest.raises(ValueError, match="eta"):
            TimeValue.from_config({"kind": "table", "times": [0.0, 1.0],
                                   "values": [1.0, 1.0], "eta": 2.0})
        assert TimeValue.from_config({"kind": "exponential", "eta": 5}).eta == 5.0


class TestMvpRun:
    def test_single_truthful_report(self):
        m = InformationModel.binary_noisy(0.02, 0.2)
        rep = truthful_report(m, 1)
        trace, rewards = mvp_run(m.prior_belief(), [TimedReport(0, 1.0, rep)],
                                 1, QUAD, H1)
        assert rewards[0] == pytest.approx(SINGLE_AGENT_REWARD, abs=1e-8)
        np.testing.assert_allclose(trace.beliefs[1], [49 / 53, 4 / 53], atol=1e-12)

    def test_no_reports(self):
        prior = Belief(np.array([0.7, 0.3]))
        trace, rewards = mvp_run(prior, [], 0, QUAD, H1, num_agents=3)
        np.testing.assert_allclose(rewards, 0.0, atol=0)
        assert trace.breakpoints.size == 0
        np.testing.assert_allclose(trace.belief_at(5.0), prior.probs, atol=0)

    def test_half_report_is_invisible(self):
        m = InformationModel.binary_noisy(0.1, 0.2)
        informative = TimedReport(0, 0.5, truthful_report(m, 1))
        noise = TimedReport(1, 1.5, ReportVector.no_signal(2))
        _, with_noise = mvp_run(m.prior_belief(), [informative, noise], 1, QUAD, H1)
        _, alone = mvp_run(m.prior_belief(), [informative], 1, QUAD, H1,
                           num_agents=2)
        assert with_noise[1] == pytest.approx(0.0, abs=1e-15)
        assert with_noise[0] == pytest.approx(alone[0], abs=1e-15)

    def test_duplicate_agent_rejected(self):
        m = InformationModel.binary_noisy(0.1, 0.2)
        rep = truthful_report(m, 1)
        with pytest.raises(ProtocolError):
            mvp_run(m.prior_belief(),
                    [TimedReport(0, 0.5, rep), TimedReport(0, 1.5, rep)],
                    1, QUAD, H1)

    def test_bad_times_rejected(self):
        rep = ReportVector((0.8,))
        with pytest.raises(ValueError):
            TimedReport(0, -1.0, rep)
        with pytest.raises(ValueError):
            TimedReport(0, np.inf, rep)

    def test_reward_equals_quadrature_of_integrand(self):
        """Segment sums must agree with direct integration of the reward integrand."""
        rng = np.random.default_rng(30)
        m = InformationModel.binary_noisy(0.3, 0.2)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            eta = float(rng.uniform(0.4, 2.5))
            h = TimeValue.exponential(eta)
            reports = [TimedReport(i, float(rng.uniform(0, 3)),
                                   ReportVector((float(rng.uniform(0.1, 0.9)),)))
                       for i in range(n)]
            y = int(rng.integers(2))
            trace, rewards = mvp_run(m.prior_belief(), reports, y, QUAD, h)
            horizon = 60.0 / eta
            points = sorted(float(t) for t in trace.breakpoints)
            for i in range(n):
                # the path without agent i: the same stream without his report
                without, _ = mvp_run(m.prior_belief(),
                                     [r for r in reports if r.agent != i], y, QUAD, h)

                def integrand(t):
                    return (score(QUAD, trace.belief_at(t), y)
                            - score(QUAD, without.belief_at(t), y)) * h.density(t)
                direct = quad(integrand, 0, horizon, points=points, limit=200)[0]
                assert rewards[i] == pytest.approx(direct, abs=1e-8)

    def test_simultaneous_reports_are_order_invariant(self):
        m = InformationModel.binary_noisy(0.3, 0.1)
        r0 = TimedReport(0, 1.0, truthful_report(m, 1))
        r1 = TimedReport(1, 1.0, truthful_report(m, 0))
        _, fwd = mvp_run(m.prior_belief(), [r0, r1], 1, QUAD, H1)
        _, rev = mvp_run(m.prior_belief(), [r1, r0], 1, QUAD, H1)
        np.testing.assert_array_equal(fwd, rev)

    def test_nonreporting_agents_get_zero(self):
        m = InformationModel.binary_noisy(0.3, 0.1)
        _, rewards = mvp_run(m.prior_belief(),
                             [TimedReport(2, 0.3, truthful_report(m, 1))],
                             1, QUAD, H1, num_agents=4)
        assert rewards[2] != 0.0
        assert rewards[0] == rewards[1] == rewards[3] == 0.0

    def test_three_outcome_market_uses_likelihood_columns(self):
        m = InformationModel(np.array([0.5, 0.3, 0.2]),
                             np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]))
        reports = [TimedReport(0, 0.5, m.likelihood[:, 1]),
                   TimedReport(1, 1.5, m.likelihood[:, 0])]
        trace, rewards = mvp_run(m.prior_belief(), reports, 1, QUAD, H1)
        from infomarkets import posterior
        np.testing.assert_allclose(trace.beliefs[1], posterior(m, [1]).probs,
                                   atol=1e-12)
        np.testing.assert_allclose(trace.beliefs[2], posterior(m, [1, 0]).probs,
                                   atol=1e-12)
        assert np.all(np.isfinite(rewards))


    def test_disjoint_support_raises(self):
        prior = Belief(np.full(3, 1 / 3))
        reports = [TimedReport(0, 0.5, np.array([1.0, 1.0, 0.0])),
                   TimedReport(1, 1.0, np.array([0.0, 1.0, 1.0])),
                   TimedReport(2, 1.5, np.array([1.0, 0.0, 1.0]))]
        with pytest.raises(ValueError, match="disjoint support"):
            mvp_run(prior, reports, 0, QUAD, H1)

    def test_many_weak_wide_reports_match_posterior(self):
        rng = np.random.default_rng(33)
        m = InformationModel(np.array([0.5, 0.3, 0.2]),
                             rng.dirichlet([30.0] * 3, size=3))
        signals = rng.integers(3, size=300).tolist()
        reports = [TimedReport(i, float(t), m.likelihood[:, x])
                   for i, (t, x) in enumerate(zip(rng.exponential(1.0, 300), signals))]
        trace, rewards = mvp_run(m.prior_belief(), reports, 2, QUAD, H1)
        from infomarkets import posterior
        np.testing.assert_allclose(trace.beliefs[-1], posterior(m, signals).probs,
                                   rtol=0, atol=1e-12)
        assert np.all(np.isfinite(rewards))


def literal_mvp_rewards(prior, reports, y, rule, eta, n):
    """Each agent's reward from its definition, one separate market per agent.

    Sums, over the segments between consecutive report times, the score gap
    between the actual path and the path of a market that never saw the
    agent, weighted by the segment's exponential time-value mass.
    """
    actual, _ = mvp_run(prior, reports, y, rule, TimeValue.exponential(eta),
                        num_agents=n)
    edges = [0.0, *sorted(r.time for r in reports), math.inf]
    rewards = np.zeros(n)
    for i in range(n):
        without, _ = mvp_run(prior, [r for r in reports if r.agent != i], y, rule,
                             TimeValue.exponential(eta), num_agents=n)
        for a, b in zip(edges, edges[1:]):
            if a == b:
                continue
            t = a + 1.0 if math.isinf(b) else 0.5 * (a + b)
            mass = math.exp(-eta * a) - (0.0 if math.isinf(b) else math.exp(-eta * b))
            rewards[i] += (score(rule, actual.belief_at(t), y)
                           - score(rule, without.belief_at(t), y)) * mass
    return rewards


class TestLiteralDefinition:
    def test_rewards_match_separate_markets_without_each_agent(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2, 7))
            reporters = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            reports = []
            for agent in reporters:
                column = rng.uniform(0.05, 1.0, size=d)
                if d == 3:
                    column[1:] *= rng.random(2) < 0.7  # zeros, outcome 0 kept
                time = float(rng.choice([0.2, 0.7, 0.7, 1.3, 2.0]))  # ties
                reports.append(TimedReport(int(agent), time, column))
            y = int(rng.integers(d))
            eta = float(rng.uniform(0.4, 2.5))
            prior = Belief.normalized(rng.uniform(0.1, 1.0, size=d))
            _, rewards = mvp_run(prior, reports, y, QUAD, TimeValue.exponential(eta),
                                 num_agents=n)
            expected = literal_mvp_rewards(prior, reports, y, QUAD, eta, n)
            np.testing.assert_allclose(rewards, expected, rtol=0, atol=1e-12)


class TestIncentives:
    def test_reporting_late_never_helps(self):
        """Exact expected reward is strictly decreasing in the report time."""
        m = InformationModel.binary_noisy(0.2, 0.2)
        grid = [0.2, 0.6, 1.0, 1.8, 3.0]
        values = [exact_expected_reward(m, QUAD, H1, (s, 0.7, 1.9), agent=0)
                  for s in grid]
        diffs = np.diff(values)
        assert np.all(diffs < -1e-6)

    def test_truthful_content_is_strictly_optimal(self):
        m = InformationModel.binary_noisy(0.2, 0.2)
        times = (0.4, 0.9, 1.6)
        truthful = exact_expected_reward(m, QUAD, H1, times, agent=0)
        for eps in (-0.05, 0.05):
            def shifted(x, eps=eps):
                b = truthful_report(m, x).entries[0] + eps
                return ReportVector((min(max(b, 1e-9), 1 - 1e-9),))
            deviated = exact_expected_reward(m, QUAD, H1, times, agent=0,
                                             override=shifted)
            assert deviated < truthful - 1e-9


class TestStreamFormat:
    def test_parse_ratio_entries(self):
        lines = ["# agent, time, entries", "1, 0.5, 0.8", "0, 1.25, 0.3"]
        reports = reports_from_stream(lines, 2)
        assert [r.agent for r in reports] == [1, 0]
        assert isinstance(reports[0].report, ReportVector)
        assert reports[0].report.entries == (0.8,)

    def test_parse_likelihood_columns(self):
        reports = reports_from_stream(["0, 1.0, 0.2, 0.3, 0.5"], 3)
        assert isinstance(reports[0].report, np.ndarray)

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="line 2: 3 entries fit neither"):
            reports_from_stream(["1, 0.5, 0.8", "0, 1.0, 0.2, 0.3, 0.4"], 2)
        with pytest.raises(ValueError):
            reports_from_stream(["0"], 2)

    def test_trace_dump(self):
        m = InformationModel.binary_noisy(0.02, 0.2)
        trace, _ = mvp_run(m.prior_belief(),
                           [TimedReport(0, 1.0, truthful_report(m, 1))],
                           1, QUAD, H1)
        rows = list(trace_dump_rows(trace))
        assert rows[0] == (0.0, 0.98, 0.02)
        assert rows[1][0] == 1.0
        assert rows[1][2] == pytest.approx(4 / 53, abs=1e-12)
