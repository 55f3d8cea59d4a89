"""The benchmark's workloads: inputs drawn from a seed, the ops, their checks.

Each workload is a fixed list of ops (one pass); the worker repeats passes
in a closed loop.  An op calls the library only through its public names,
resolved at call time (``im.simulate``, ``cli.main``) so that a traced pass
sees the wrappers.  Checks run after the timed phase and return failure
strings ``"<tag>: <detail>"``; a failure whose tag is in ``Op.known`` is a
recorded defect of the library (it still counts as a failed op).
"""
import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import infomarkets as im
from infomarkets import cli
from infomarkets.numerics import FOC_TOL

#: how far a closed-form FOC root may sit from the quadrature FOC's zero
QUAD_AGREE = 1e-6
#: the solver sweep's closed-form sequential-market sums cancel badly from here on
WIDE_N = 16
#: criterion 7 pins this seed for its 3-se fairness check
FAIRNESS_SEED = 1234

RULE = im.ScoringRule("quadratic", 20.0)
H1 = im.TimeValue.exponential(1.0)
LATENCY1 = im.LatencyFamily.exponential(1.0)
ACCESS3 = im.AccessFunction.exponential(3.0)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    kind: str                   # mc | settle | point | exact | figure
    collect: Callable[[object], object] = lambda out: out
    trials: int = 0             # simulated trials; each paired deviation arm counts
    reports: int = 0            # recorded reports settled
    cf_minimal: int = 0         # belief updates an mvp settlement cannot avoid
    known: tuple = ()           # failure tags that are recorded library defects


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Callable[[], None]
    sizes: dict = field(default_factory=dict)


def build(name: str, seed: int, workdir: str, smoke: bool) -> Workload:
    builders = {"mc_deep": mc_deep, "settle_wide": settle_wide,
                "solve_sweep": solve_sweep}
    if name not in builders:
        raise SystemExit(f"unknown workload {name!r}, try one of {sorted(builders)}")
    return builders[name](np.random.default_rng(seed), workdir, smoke)


# ----------------------------------------------------------------- checks

def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _check_stats(stats) -> list:
    fails = []
    fields = (stats.reward_mean, stats.reward_se, stats.utility_mean,
              stats.utility_se, stats.principal_utility_mean, stats.welfare_mean)
    if not _finite(*fields):
        bad = int(np.sum(~np.isfinite(stats.reward_mean)))
        fails.append(f"nonfinite: {bad} of {stats.reward_mean.size} reward means "
                     f"are not finite")
        return fails
    books = stats.principal_utility_mean + float(np.sum(stats.utility_mean))
    if abs(stats.welfare_mean - books) > 1e-9 * max(1.0, abs(books)):
        fails.append(f"books: welfare {stats.welfare_mean!r} != principal + "
                     f"utilities {books!r}")
    return fails


def _check_deviation(out) -> list:
    delta, se = out
    if not _finite(delta, se):
        return [f"nonfinite: delta {delta}, se {se}"]
    return [] if delta < -3 * se else [f"deviation: delta {delta:.5f} not below "
                                       f"-3 se ({-3 * se:.5f})"]


def _check_fairness(stats) -> list:
    fails = _check_stats(stats)
    if fails:
        return fails
    gap = abs(stats.reward_mean[0] - stats.reward_mean[1])
    gap_se = math.hypot(stats.reward_se[0], stats.reward_se[1])
    return [] if gap < 3 * gap_se else [f"fairness: gap {gap:.5f} not below "
                                        f"3 se ({3 * gap_se:.5f})"]


def _check_books(rec) -> list:
    if not _finite(*rec.values()):
        return ["nonfinite: per-trial records"]
    books = rec["principal_utility"] + rec["utilities"].sum(axis=1)
    return [] if np.array_equal(rec["welfare"], books) else [
        "books: per-trial welfare differs from principal + utilities"]


def _certificate(tag: str, eq) -> list:
    """The solver certificate: an interior root within FOC_TOL, or a signed corner."""
    if not _finite(eq.effort, eq.residual):
        return [f"{tag}: non-finite result {eq}"]
    if not eq.corner:
        return [] if abs(eq.residual) <= FOC_TOL else [
            f"{tag}: interior residual {eq.residual:.3e} above FOC_TOL"]
    if eq.effort == 0.0:
        return [] if eq.residual <= 0.0 else [
            f"{tag}: corner at 0 with positive FOC {eq.residual:.3e}"]
    return [] if eq.residual >= 0.0 else [
        f"{tag}: corner at the cap with negative FOC {eq.residual:.3e}"]


# ------------------------------------------------------------- mc_deep

def mc_deep(rng: np.random.Generator, workdir: str, smoke: bool) -> Workload:
    """Criterion 7: three paired deviation tests, fairness, and the books."""
    trials = 20_000 if smoke else 1_000_000
    book_trials = 5_000 if smoke else 50_000
    mc_seed = int(rng.integers(2 ** 31))
    model = im.InformationModel.binary_noisy(0.1, 0.05)
    profile = im.StrategyProfile.symmetric(0.3, 2)
    batch = dict(rule=RULE, access=ACCESS3)
    seq = dict(rule=RULE, latency=LATENCY1, h=H1)

    def deviation(mechanism, policy, kw, n_trials):
        return lambda: im.deviation_test(model, mechanism, profile, 0, policy,
                                         n_trials, mc_seed, **kw)

    perturb = im.ReportPolicy("perturbed", epsilon=0.1)
    delay = im.ReportPolicy("delayed", delay=0.5)
    ops = [
        Op("deviation fpm perturb", deviation("fpm", perturb, batch, trials),
           _check_deviation, "mc", trials=2 * trials),
        Op("deviation mvp perturb", deviation("mvp", perturb, seq, trials),
           _check_deviation, "mc", trials=2 * trials),
        Op("deviation mvp delay", deviation("mvp", delay, seq, trials),
           _check_deviation, "mc", trials=2 * trials),
        Op("fairness fpm simulate",
           lambda: im.simulate(model, "fpm", profile, trials, FAIRNESS_SEED, **batch),
           _check_fairness, "mc", trials=trials),
        Op("books mvp per_trial_records",
           lambda: im.per_trial_records(model, "mvp", profile, book_trials,
                                        mc_seed, **seq),
           _check_books, "mc", trials=book_trials),
    ]

    def warmup():
        deviation("fpm", perturb, batch, 1000)()
        deviation("mvp", delay, seq, 1000)()
        im.simulate(model, "fpm", profile, 1000, mc_seed, **batch)

    return Workload("mc_deep", ops, warmup,
                    {"agents": 2, "trials": trials, "book_trials": book_trials})


# ---------------------------------------------------------- settle_wide

def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_bytes(*paths) -> dict:
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def _near(a, b, tol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


def settle_wide(rng: np.random.Generator, workdir: str, smoke: bool) -> Workload:
    """Many agents per market: the O(n^2) settlement folds."""
    n, sim_trials = (8, 2_000) if smoke else (32, 20_000)
    K = 40 if smoke else 300
    n_wide, m_wide, wide_trials = 300, 40, (50 if smoke else 1000)
    alpha, beta = rng.uniform(0.2, 0.8), rng.uniform(0.3, 0.45)
    mc_seed = int(rng.integers(2 ** 31))
    model = im.InformationModel.binary_noisy(alpha, beta)
    profile = im.StrategyProfile.symmetric(0.3, n)
    batch = dict(rule=RULE, access=ACCESS3)
    seq = dict(rule=RULE, latency=LATENCY1, h=H1)

    # 40-valued, weakly informative signals: each agent's likelihood is ~1/40,
    # so n = 300 reports underflow the unnormalized product.
    wide_lik = 1.0 + 0.5 * rng.random((2, m_wide))
    wide_model = im.InformationModel(np.array([1.0 - alpha, alpha]),
                                     wide_lik / wide_lik.sum(axis=1, keepdims=True))
    wide_profile = im.StrategyProfile.symmetric(1.0, n_wide)

    # one recorded stream: K agents, each one truthful report at an Exp(1) time
    outcome = int(rng.random() < alpha)
    lik = model.likelihood
    signals = (rng.random(K) < lik[outcome, 1]).astype(int)
    times = rng.exponential(1.0, K)
    ratios = lik[1, signals] / (lik[0, signals] + lik[1, signals])
    stream_path = os.path.join(workdir, "stream.csv")
    with open(stream_path, "w") as fh:
        fh.writelines(f"{i},{float(times[i])!r},{float(ratios[i])!r}\n"
                      for i in range(K))
    batch_path = os.path.join(workdir, "batch.json")
    with open(batch_path, "w") as fh:
        json.dump({"reports": [[float(b)] for b in ratios], "outcome": outcome}, fh)
    expected = im.posterior(model, signals.tolist()).probs
    model_args = ["--alpha", repr(alpha), "--beta", repr(beta), "--scale", "20"]
    rewards_path = os.path.join(workdir, "mvp_rewards.csv")
    trace_path = os.path.join(workdir, "mvp_trace.csv")
    fpm_path = os.path.join(workdir, "fpm.json")
    mvp_argv = (["settle-mvp", *model_args, "--reports", stream_path,
                 "--outcome", str(outcome), "--out-rewards", rewards_path,
                 "--out-trace", trace_path])
    fpm_argv = ["settle-fpm", *model_args, "--batch", batch_path, "--out", fpm_path]

    def check_mvp(out) -> list:
        if out["rc"] != 0:
            return [f"exit: settle-mvp returned {out['rc']}"]
        rewards = [float(r[1]) for r in _read_csv(rewards_path)[1:]]
        trace = _read_csv(trace_path)[1:]
        final = np.array([float(p) for p in trace[-1][1:]])
        fails = []
        if len(rewards) != K or not _finite(rewards):
            fails.append(f"rewards: {len(rewards)} rows, finite={_finite(rewards)}")
        # the trace CSV carries 9 significant digits
        if len(trace) != K + 1 or not _near(final, expected,
                                            1e-12 + 5e-9 * max(abs(final))):
            fails.append(f"belief: final {final} vs posterior {expected}")
        return fails

    def check_fpm(out) -> list:
        if out["rc"] != 0:
            return [f"exit: settle-fpm returned {out['rc']}"]
        with open(fpm_path) as fh:
            result = json.load(fh)
        fails = []
        if len(result["rewards"]) != K or not _finite(result["rewards"]):
            fails.append("rewards: missing or non-finite")
        if not _near(result["aggregated"], expected, 1e-12):
            fails.append(f"belief: aggregated {result['aggregated']} vs "
                         f"posterior {expected}")
        return fails

    def settle(argv, paths, check, **kw):
        return Op(f"cli {argv[0]} K={K}", lambda: cli.main(argv), check, "settle",
                  collect=lambda rc: {"rc": rc, "files": _read_bytes(*paths)},
                  reports=K, **kw)

    # the actual path needs K updates; agent i's counterfactual path only
    # differs after i's own slot
    settle_mvp = settle(mvp_argv, (rewards_path, trace_path), check_mvp,
                        cf_minimal=K + K * (K - 1) // 2)
    settle_fpm = settle(fpm_argv, (fpm_path,), check_fpm)

    def sim(mechanism, kw):
        return Op(f"simulate {mechanism} n={n}",
                  lambda: im.simulate(model, mechanism, profile, sim_trials,
                                      mc_seed, **kw),
                  _check_stats, "mc", trials=sim_trials)

    ops = [
        sim("mvp", seq), sim("fpm", batch), sim("pm_sequential", seq),
        settle_mvp, settle_fpm,
        Op(f"simulate fpm n={n_wide} m={m_wide}",
           lambda: im.simulate(wide_model, "fpm", wide_profile, wide_trials,
                               mc_seed, **batch),
           _check_stats, "mc", trials=wide_trials, known=("nonfinite",)),
    ]

    small = im.StrategyProfile.symmetric(0.3, 3)

    def warmup():
        for mechanism, kw in (("mvp", seq), ("fpm", batch), ("pm_sequential", seq)):
            im.simulate(model, mechanism, small, 100, mc_seed, **kw)
        few = os.path.join(workdir, "warm_stream.csv")
        with open(few, "w") as fh:
            fh.write("0,0.5,0.6\n1,0.7,0.3\n")
        cli.main(["settle-mvp", *model_args, "--reports", few, "--outcome", "1",
                  "--out-rewards", rewards_path, "--out-trace", trace_path])

    return Workload("settle_wide", ops, warmup,
                    {"agents": n, "sim_trials": sim_trials, "stream_reports": K,
                     "wide_agents": n_wide, "wide_signal_values": m_wide,
                     "wide_trials": wide_trials})


# ---------------------------------------------------------- solve_sweep

def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _stage(fn):
    try:
        return fn()
    except (im.NumericalError, im.CapacityError, ValueError,
            ZeroDivisionError, OverflowError) as exc:
        return exc


def _point(n, lam, eta, access, alpha, beta):
    """One comparison point: score sequence, then the four markets' equilibria."""
    latency = im.LatencyFamily.exponential(lam)
    h = im.TimeValue.exponential(eta)
    F = im.AccessFunction.exponential(access)

    def run():
        v = im.v_sequence(im.InformationModel.binary_noisy(alpha, beta), RULE, n)

        def mvp():
            eq = im.mvp_equilibrium(latency, h, v, n)
            return (eq, im.mvp_welfare(latency, h, v, n, eq.effort),
                    im.mvp_principal_utility(latency, h, v, n, eq.effort))

        def batch():
            eq = im.batch_equilibrium(F, v, n)
            return eq, im.batch_welfare(F, v, n, eq.effort)

        def pm_batch():
            eq = im.pm_batch_equilibrium(F, n)
            return eq, im.pm_batch_welfare(F, n, eq.effort)

        return {"v": v, "mvp": _stage(mvp), "batch": _stage(batch),
                "race": _stage(lambda: (im.pm_race_equilibrium(v, n),)),
                "pm_batch": _stage(pm_batch)}

    def check(out) -> list:
        v = out["v"]
        fails = [] if _finite(v.values) else ["v: non-finite score sequence"]
        for tag in ("mvp", "batch", "race", "pm_batch"):
            res = out[tag]
            if isinstance(res, Exception):
                fails.append(f"{tag}: {_error(res)}")
                continue
            eq, *values = res
            fails += _certificate(tag, eq)
            if not _finite(*values):
                fails.append(f"{tag}: non-finite welfare {values}")
        if not isinstance(out["mvp"], Exception):
            fails += _check_mvp_quadrature(latency, h, v, n, out["mvp"][0])
        return fails

    return run, check


def _check_mvp_quadrature(latency, h, v, n, eq) -> list:
    """The closed-form root must also be a root of the quadrature FOC."""
    c = max(eq.effort, 1e-12)
    try:
        q = im.mvp_br_derivative(latency, h, v, n, c, c, method="quadrature")
    except im.NumericalError as exc:
        return [f"mvp: quadrature check failed: {_error(exc)}"]
    if eq.corner and eq.effort == 0.0:
        return [] if q <= 0.0 else [
            f"mvp: corner at 0 but the quadrature FOC at 0+ is {q:.3e}"]
    return [] if abs(q) <= QUAD_AGREE else [
        f"mvp: quadrature FOC {q:.3e} at the closed-form root {eq.effort:.6g}"]


FIGURES = ("fig_original", "fig_late", "fig_eas", "fig_noise", "fig_subst",
           "fig_welfare_heatmap")


def _figure(name: str, outdir: str) -> Op:
    csv_path = os.path.join(outdir, f"{name}.csv")
    manifest_path = os.path.join(outdir, f"{name}_manifest.json")

    def check(out) -> list:
        if out["rc"] != 0:
            return [f"exit: figure {name} returned {out['rc']}"]
        rows = _read_csv(csv_path)
        header, body = rows[0], rows[1:]
        values = np.array([[float(x) for x in row] for row in body])
        if not body or not _finite(values):
            return ["table: empty or non-finite"]
        fails = []
        for j, col in enumerate(header):
            if "residual" not in col:
                continue
            r = values[:, j]
            effort = values[:, header.index(col.replace("residual", "effort"))]
            corner_col = col.replace("residual", "corner")
            corner = (values[:, header.index(corner_col)] == 1 if corner_col in header
                      else effort == 0)
            # interior roots sit within FOC_TOL (printed to 9 digits); a corner
            # at 0 has FOC <= 0 and a corner at the cap has FOC >= 0
            ok = np.where(corner, np.where(effort == 0, r <= 0, r >= 0),
                          np.abs(r) <= FOC_TOL * (1 + 1e-8))
            if not np.all(ok):
                fails.append(f"residual: {col} has {int((~ok).sum())} "
                             f"uncertified rows")
        with open(manifest_path) as fh:
            if json.load(fh)["rows"] != len(body):
                fails.append("manifest: row count differs from the table")
        return fails

    return Op(f"cli figure {name}",
              lambda: cli.main(["figure", name, "--out", outdir]), check, "figure",
              # the manifest records its own wall time, so only the table is compared
              collect=lambda rc: {"rc": rc, "files": _read_bytes(csv_path)})


def solve_sweep(rng: np.random.Generator, workdir: str, smoke: bool) -> Workload:
    """Scalar solver work: a random comparison grid, the figures, two enumerations."""
    points = 20 if smoke else 200
    n_exact_v, n_exact_fpm = (6, 4) if smoke else (10, 6)
    ns = np.round(np.geomspace(2, 64, points)).astype(int)
    ops = []
    for n in rng.permutation(ns):
        lam, eta = rng.uniform(0.5, 8.0), rng.uniform(0.4, 2.5)
        access = rng.uniform(1.5, 8.0)
        alpha, beta = rng.uniform(0.05, 0.5), rng.uniform(0.01, 0.4)
        run, check = _point(int(n), lam, eta, access, alpha, beta)
        ops.append(Op(f"point n={n} lam={lam:.3f} eta={eta:.3f} access={access:.3f} "
                      f"alpha={alpha:.3f} beta={beta:.3f}", run, check, "point",
                      known=("mvp",) if n >= WIDE_N else ()))

    alpha = rng.uniform(0.1, 0.5)
    prior = np.array([1.0 - alpha, alpha])
    model3 = im.InformationModel(prior, rng.dirichlet([2.0, 2.0, 2.0], size=2))
    ceiling = RULE.scale * (1.0 - float(prior @ prior))

    def check_v(v) -> list:
        ok = _finite(v.values) and np.all(v.values >= 0) and np.all(
            v.values <= ceiling + 1e-9)
        return [] if ok else [f"v: values outside [0, {ceiling}]: {v.values}"]

    model2 = im.InformationModel.binary_noisy(rng.uniform(0.1, 0.5),
                                              rng.uniform(0.05, 0.3))
    q = rng.uniform(0.3, 0.9)

    def perturbed(signal):
        b = 0.5 if signal is None else (
            model2.likelihood[1, signal] / model2.likelihood[:, signal].sum())
        return im.ReportVector((min(max(b + 0.1, 1e-12), 1.0 - 1e-12),))

    def check_fpm(rewards) -> list:
        others = np.asarray(rewards[1:])
        if not _finite(rewards):
            return [f"rewards: non-finite {rewards}"]
        spread = float(others.max() - others.min())
        return [] if spread <= 1e-12 * max(1.0, float(np.abs(others).max())) else [
            f"fairness: symmetric truthful agents differ by {spread:.3e}"]

    ops += [
        Op(f"v_sequence m=3 n={n_exact_v}",
           lambda: im.v_sequence(model3, RULE, n_exact_v), check_v, "exact"),
        Op(f"fpm_expected_reward n={n_exact_fpm} one perturbed",
           lambda: im.fpm_expected_reward(model2, RULE, [q] * n_exact_fpm,
                                          report_override={0: perturbed}),
           check_fpm, "exact"),
    ]
    figdir = os.path.join(workdir, "figures")
    ops += [_figure(name, figdir) for name in FIGURES]

    warm_run, _ = _point(4, 1.0, 1.0, 3.0, 0.1, 0.05)

    def warmup():
        warm_run()
        cli.main(["figure", "fig_late", "--out", figdir])

    return Workload("solve_sweep", ops, warmup,
                    {"points": points, "n_range": [int(ns.min()), int(ns.max())],
                     "exact_v_sequence_n": n_exact_v,
                     "exact_fpm_expected_reward_n": n_exact_fpm,
                     "figures": len(FIGURES)})
