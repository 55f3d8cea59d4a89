"""Acceptance suite: the package's quantitative exit criteria.

Each test evaluates one numbered criterion at its stated tolerance and
prints a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Reference coordinates are the plotted values the library is
expected to reproduce; tolerances are part of the criteria, not tuning
knobs.
"""
import math
import time

import numpy as np

from infomarkets import (AccessFunction, InformationModel, LatencyFamily,
                         ReportPolicy, ScoreSequence, ScoringRule,
                         StrategyProfile, TimeValue, batch_equilibrium,
                         batch_welfare, deviation_test, expected_base_score,
                         mvp_agent_reward, mvp_br_derivative, mvp_equilibrium,
                         mvp_principal_utility, mvp_welfare,
                         per_trial_records, pm_batch_equilibrium,
                         pm_batch_welfare, pm_race_equilibrium, simulate,
                         time_value_mass, v_sequence)
from infomarkets.numerics import integrate_decaying
from helpers import welfare_foc_root

QUAD = ScoringRule("quadratic")
H1 = TimeValue.exponential(1.0)


def certify(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def seq(*values):
    return ScoreSequence(np.array(values, dtype=float))


def test_criterion_1_score_sequence_reproduction():
    target_scores = [0.9608, 0.962456, 0.96656, 0.972778, 0.977909, 0.982417,
                     0.98605, 0.988961, 0.991309, 0.993133, 0.994609]
    started = time.perf_counter()
    model = InformationModel.binary_noisy(0.02, 0.2)
    v = v_sequence(model, QUAD, 10)
    scores = v.values + expected_base_score(model, QUAD)
    elapsed = time.perf_counter() - started
    ok_scores = bool(np.all(np.abs(scores - target_scores) < 1e-5))
    deltas = v.deltas
    ok_peak = (int(np.argmax(deltas)) == 2
               and abs(deltas[2] - 0.00621856) <= 1e-6)
    certify(1, "expected-score curve and marginal-reward peak",
            ok_scores and ok_peak and elapsed < 1.0,
            f"max score err {np.max(np.abs(scores - target_scores)):.2e}, "
            f"peak delta {deltas[2]:.8f}, {elapsed:.3f}s")


def test_criterion_2_ease_curve_points():
    started = time.perf_counter()
    v = seq(0, 2, 3)
    points = {1.0: 0.290773, 2.0: 0.364519, 15.0: 0.229687}
    errs = []
    for lam, target in points.items():
        eq = mvp_equilibrium(LatencyFamily.exponential(lam), H1, v, 2)
        errs.append(abs(eq.effort - target))
    race = pm_race_equilibrium(v, 2)
    elapsed = time.perf_counter() - started
    certify(2, "sequential-market effort vs ease reference points",
            max(errs) < 1e-4 and abs(race.effort - 0.25) <= 1e-12
            and elapsed < 1.0,
            f"max |err| {max(errs):.2e}, race {race.effort!r}, {elapsed:.3f}s")


def test_criterion_3_noise_curve_points():
    started = time.perf_counter()
    rule20 = ScoringRule("quadratic", 20.0)
    checks = []
    for beta, pm_target, mvp1_target in ((0.0, 0.9, 0.448683),
                                         (0.05, 0.299819, 0.324463)):
        model = InformationModel.binary_noisy(0.1, beta)
        v = v_sequence(model, rule20, 2)
        pm = pm_race_equilibrium(v, 2)
        mvp1 = mvp_equilibrium(LatencyFamily.exponential(1.0), H1, v, 2)
        checks.append(abs(pm.effort - pm_target) < 1e-4)
        checks.append(abs(mvp1.effort - mvp1_target) < 1e-4)
    v0 = v_sequence(InformationModel.binary_noisy(0.1, 0.0), rule20, 2)
    mvp_half = mvp_equilibrium(LatencyFamily.exponential(0.5), H1, v0, 2)
    checks.append(abs(mvp_half.effort - 0.341641) < 1e-4)
    elapsed = time.perf_counter() - started
    certify(3, "noise-curve reference points at score scale 20",
            all(checks) and elapsed < 5.0, f"{elapsed:.3f}s")


def test_criterion_4_substitutability_curves():
    grid = [1.0 + 0.04 * k for k in range(26)]
    pm_exact = all(abs(pm_race_equilibrium(seq(0.0, v1, 2.0), 2).effort
                       - (v1 - 1) / 2) <= 1e-12 for v1 in grid)
    lat1 = LatencyFamily.exponential(1.0)
    low = mvp_equilibrium(lat1, H1, seq(0.0, 1.0, 2.0), 2)
    high = mvp_equilibrium(lat1, H1, seq(0.0, 2.0, 2.0), 2)
    ok_lam1 = (low.effort == 0.0
               and abs(high.effort - 0.207107) < 1e-5)
    lat8 = LatencyFamily.exponential(8.0)
    efforts8 = [mvp_equilibrium(lat8, H1, seq(0.0, v1, 2.0), 2).effort
                for v1 in grid]
    ok_lam8 = (abs(efforts8[0] - 0.228553) < 1e-4
               and abs(efforts8[-1] - 0.1875) < 1e-4
               and bool(np.all(np.diff(efforts8) < 0)))
    certify(4, "substitutability curves (race line, slow and fast discovery)",
            pm_exact and ok_lam1 and ok_lam8)


def test_criterion_5_winner_race_closed_forms():
    lin3 = AccessFunction.linear(3.0)
    c_opt = batch_equilibrium(lin3, seq(0, 1, 1), 2).effort
    w_opt = batch_welfare(lin3, seq(0, 1, 1), 2, c_opt)
    ok_linear = abs(c_opt - 2 / 9) <= 1e-12 and abs(w_opt - 4 / 9) <= 1e-12

    lam = 3.0
    exp3 = AccessFunction.exponential(lam)
    n_hi = 256
    c_star = batch_equilibrium(exp3, seq(*([0.0] + [1.0] * n_hi)), n_hi).effort
    w_star = pm_batch_welfare(exp3, n_hi, c_star)
    ok_exp_opt = abs(w_star - (1 - (1 + math.log(lam)) / lam)) < 1e-3

    ns = [4, 8, 16, 32, 64, 128, 256]
    exp1_resid, n_w = [], []
    for n in ns:
        c = pm_batch_equilibrium(exp3, n).effort
        exp1_resid.append(abs(n * (1 - math.exp(-lam * c))
                              - lam * math.exp(-lam * c)
                              * (1 - math.exp(-n * lam * c))))
        n_w.append(n * pm_batch_welfare(exp3, n, c))
    ok_strategic = max(exp1_resid) <= 1e-10
    ok_bounded = all(0.5 < x < 2.0 for x in n_w)
    certify(5, "winner-race optima and strategic-equilibrium scaling",
            ok_linear and ok_exp_opt and ok_strategic and ok_bounded,
            f"max rate-eq resid {max(exp1_resid):.2e}, "
            f"n*W in [{min(n_w):.3f}, {max(n_w):.3f}]")


def test_criterion_6_best_response_meets_welfare_optimum():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):  # batch setting
        lam = float(rng.uniform(1.3, 6.0))
        n = int(rng.integers(2, 5))
        v = ScoreSequence(np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
        F = AccessFunction.exponential(lam)
        br = batch_equilibrium(F, v, n).effort
        sw = welfare_foc_root(lambda c: batch_welfare(F, v, n, c))
        worst = max(worst, abs(br - sw))
    for _ in range(50):  # sequential setting
        lam, eta = rng.uniform(0.8, 6.0), rng.uniform(0.5, 2.0)
        n = int(rng.integers(2, 5))
        v = ScoreSequence(np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.3, 1.5, size=n))]))
        latency = LatencyFamily.exponential(lam)
        h = TimeValue.exponential(eta)
        br = mvp_equilibrium(latency, h, v, n).effort
        sw = welfare_foc_root(lambda c: mvp_welfare(latency, h, v, n, c))
        worst = max(worst, abs(br - sw))
    certify(6, "best-response and welfare FOC roots coincide (100 instances)",
            worst < 1e-8, f"worst gap {worst:.2e}")


def test_criterion_7_deviation_suite_at_scale():
    started = time.perf_counter()
    trials, seed = 10 ** 6, 1234
    model = InformationModel.binary_noisy(0.1, 0.05)
    rule = ScoringRule("quadratic", 20.0)
    access = AccessFunction.exponential(3.0)
    latency = LatencyFamily.exponential(1.0)
    profile = StrategyProfile.symmetric(0.3, 2)

    results = {}
    results["fpm perturb"] = deviation_test(
        model, "fpm", profile, 0, ReportPolicy("perturbed", epsilon=0.1),
        trials, seed, rule=rule, access=access)
    results["mvp perturb"] = deviation_test(
        model, "mvp", profile, 0, ReportPolicy("perturbed", epsilon=0.1),
        trials, seed, rule=rule, latency=latency, h=H1)
    results["mvp delay"] = deviation_test(
        model, "mvp", profile, 0, ReportPolicy("delayed", delay=0.5),
        trials, seed, rule=rule, latency=latency, h=H1)
    ok_deviations = all(delta < -3 * se for delta, se in results.values())

    stats = simulate(model, "fpm", profile, trials, seed, rule=rule,
                     access=access)
    gap = abs(stats.reward_mean[0] - stats.reward_mean[1])
    gap_se = math.hypot(stats.reward_se[0], stats.reward_se[1])
    ok_fair = gap < 3 * gap_se

    rec = per_trial_records(model, "mvp", profile, 50_000, seed, rule=rule,
                            latency=latency, h=H1)
    ok_books = np.array_equal(
        rec["welfare"], rec["principal_utility"] + rec["utilities"].sum(axis=1))
    elapsed = time.perf_counter() - started
    detail = ", ".join(f"{k} {d:.4f}±{s:.4f}" for k, (d, s) in results.items())
    certify(7, "million-trial deviation suite, fairness and books",
            ok_deviations and ok_fair and ok_books and elapsed < 60.0,
            f"{detail}, fairness gap {gap:.5f} (3se {3 * gap_se:.5f}), "
            f"{elapsed:.1f}s")


def test_criterion_8_welfare_comparison_grid():
    started = time.perf_counter()
    ns = list(range(2, 12))
    lams = [1.5 + 0.5 * k for k in range(10)]
    pm_w = np.empty((len(ns), len(lams)))
    mvp_w = np.empty_like(pm_w)
    mvp_u = np.empty_like(pm_w)
    for i, n in enumerate(ns):
        v = ScoreSequence(np.array([0.0] + [1.0] * n))
        race_effort = pm_race_equilibrium(v, n).effort
        for j, lam in enumerate(lams):
            latency = LatencyFamily.exponential(lam)
            pm_w[i, j] = mvp_welfare(latency, H1, v, n, race_effort)
            c_star = mvp_equilibrium(latency, H1, v, n).effort
            mvp_w[i, j] = mvp_welfare(latency, H1, v, n, c_star)
            mvp_u[i, j] = mvp_principal_utility(latency, H1, v, n, c_star)
    elapsed = time.perf_counter() - started

    ok_pm_decreasing = bool(np.all(np.diff(pm_w, axis=0) < 1e-12))
    bound = np.array([2.0 / n for n in ns])[:, None]
    ok_pm_bound = bool(np.all(pm_w[np.array(ns) >= 4] <= bound[np.array(ns) >= 4]))
    ok_mvp_nonneg = bool(np.all(mvp_w >= -1e-12) and np.all(mvp_u >= -1e-12))
    ok_mvp_monotone = bool(np.all(np.diff(mvp_w, axis=1) >= -1e-10)
                           and np.all(np.diff(mvp_u, axis=1) >= -1e-10))
    certify(8, "welfare comparison grid (race fades, sequential market holds up)",
            ok_pm_decreasing and ok_pm_bound and ok_mvp_nonneg
            and ok_mvp_monotone and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_9_closed_forms_vs_quadrature():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        lam, eta = rng.uniform(0.5, 8.0), rng.uniform(0.4, 2.5)
        n = int(rng.integers(2, 5))
        v = ScoreSequence(np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.1, 1.5, size=n))]))
        c_i, c = rng.uniform(0.02, 1.2, size=2)
        latency = LatencyFamily.exponential(lam)
        h = TimeValue.exponential(eta)
        pairs = [
            (mvp_br_derivative(latency, h, v, n, c_i, c, method="closed"),
             mvp_br_derivative(latency, h, v, n, c_i, c, method="quadrature")),
            (mvp_welfare(latency, h, v, n, c, method="closed"),
             mvp_welfare(latency, h, v, n, c, method="quadrature")),
            (mvp_agent_reward(latency, h, v, n, c, method="closed"),
             mvp_agent_reward(latency, h, v, n, c, method="quadrature")),
            (time_value_mass(h, c_i, c_i + 3.0),
             integrate_decaying(lambda t: h.density(c_i + t), 3.0)),
        ]
        worst = max(worst, max(abs(a - b) for a, b in pairs))
    certify(9, "closed-form integral evaluators match adaptive quadrature",
            worst < 1e-8, f"worst gap {worst:.2e}")


def test_criterion_9_holds_up_to_256_agents():
    """Criterion 9 at market sizes where expanded binomial sums cancel."""
    rng = np.random.default_rng(990)
    worst = 0.0
    for n in np.geomspace(2, 256, 15).astype(int):
        lam, eta = rng.uniform(0.5, 8.0), rng.uniform(0.4, 2.5)
        v = ScoreSequence(np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.0, 1.5, size=n))]))
        c_i, c = rng.uniform(0.02, 1.2, size=2)
        latency = LatencyFamily.exponential(lam)
        h = TimeValue.exponential(eta)
        # marginal value, gross welfare and reward are positive: compare relatively
        pairs = [tuple(fn(method) for method in ("closed", "quadrature")) for fn in (
            lambda m: mvp_br_derivative(latency, h, v, n, c_i, c, method=m) + 1.0,
            lambda m: mvp_welfare(latency, h, v, n, c, method=m) + n * c,
            lambda m: mvp_agent_reward(latency, h, v, n, c, method=m))]
        worst = max(worst, max(abs(a - b) / abs(b) for a, b in pairs))
    certify(9, "closed forms match quadrature for n up to 256, c_i != c",
            worst < 1e-8, f"worst relative gap {worst:.2e}")
