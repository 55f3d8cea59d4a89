"""Command-line front end.

Subcommands expose every piece of the library for scripted use:

* ``figure <name>``  -- run one experiment grid, write CSV + manifest;
* ``solve``          -- solve a single equilibrium and print it as JSON;
* ``simulate``       -- Monte Carlo run from a config file, stats as JSON;
* ``settle-fpm``     -- settle a recorded batch of reports;
* ``settle-mvp``     -- settle a recorded timed-report stream.

Exit codes: 0 success, 1 numerical failure, 2 usage error.  A config key
that nothing reads (in a figure or simulation config, or in a rule, access
or time-value entry) is a usage error that names the key, and so is a
required key that is missing.
"""
import argparse
import json
import sys

import numpy as np

from .equilibrium import (LatencyFamily, batch_equilibrium, mvp_equilibrium,
                          mvp_welfare)
from .errors import (CapacityError, NumericalError, reject_unknown_keys,
                     require_keys)
from .experiments import EXPERIMENTS, run_experiment, write_csv
from .fpm import batch_from_json, fpm_run, result_to_json
from .info_model import InformationModel, ScoreSequence
from .montecarlo import (ReportPolicy, SimStats, StrategyProfile,
                         per_trial_records, simulate)
from .mvp import TimeValue, mvp_run, reports_from_stream, trace_dump_rows
from .pm_baseline import (AccessFunction, pm_batch_equilibrium,
                          pm_batch_welfare, pm_race_equilibrium)
from .scoring import ScoringRule

USAGE_ERROR, NUMERICAL_ERROR = 2, 1


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _model_from_args(args) -> InformationModel:
    if args.model:
        return InformationModel.from_config(_load_json(args.model))
    if args.alpha is None or args.beta is None:
        raise SystemExit("either --model FILE or both --alpha and --beta are required")
    return InformationModel.binary_noisy(args.alpha, args.beta)


def _rule_from_args(args) -> ScoringRule:
    return ScoringRule.from_config({"rule": args.rule, "scale": args.scale})


def _parse_v(text: str) -> ScoreSequence:
    return ScoreSequence(np.array([float(x) for x in text.split(",")]))


def _policy_from_config(cfg) -> ReportPolicy:
    try:
        return ReportPolicy(**cfg)
    except TypeError as exc:  # an unknown key, or a policy that is not an object
        raise ValueError(f"policy {cfg!r}: {exc}") from None


def _eq_to_json(eq, extra=None) -> dict:
    out = {"effort": eq.effort, "residual": eq.residual, "corner": eq.corner,
           "bracket": list(eq.bracket)}
    if extra:
        out.update(extra)
    return out


def _emit(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_figure(args) -> int:
    cfg = {"experiment": args.name}
    if args.config:
        cfg = _load_json(args.config)
        reject_unknown_keys("figure config", cfg,
                            ("experiment", "parameters", "output_path"))
        require_keys("figure config", cfg, ("experiment",))
        if args.name and args.name != cfg["experiment"]:
            raise SystemExit(f"config is for {cfg['experiment']!r}, "
                             f"not {args.name!r}")
    elif not args.name:
        raise SystemExit("a figure name or --config is required")
    paths = run_experiment(cfg["experiment"], cfg.get("parameters"),
                           args.out or cfg.get("output_path", "."))
    print("\n".join(paths))
    return 0


def cmd_solve(args) -> int:
    n = args.n
    if args.setting == "mvp":
        v = _parse_v(args.v)
        eq = mvp_equilibrium(LatencyFamily.exponential(args.lam),
                             TimeValue.exponential(args.eta), v, n)
        welfare = mvp_welfare(LatencyFamily.exponential(args.lam),
                              TimeValue.exponential(args.eta), v, n, eq.effort)
        _emit(_eq_to_json(eq, {"setting": "mvp", "welfare": welfare}), args.out)
    elif args.setting == "pm_race":
        eq = pm_race_equilibrium(_parse_v(args.v), n)
        _emit(_eq_to_json(eq, {"setting": "pm_race"}), args.out)
    elif args.setting == "batch":
        F = AccessFunction(args.access, args.lam)
        eq = batch_equilibrium(F, _parse_v(args.v), n)
        _emit(_eq_to_json(eq, {"setting": "batch"}), args.out)
    else:  # pm_batch
        F = AccessFunction(args.access, args.lam)
        eq = pm_batch_equilibrium(F, n)
        _emit(_eq_to_json(eq, {"setting": "pm_batch",
                               "welfare": pm_batch_welfare(F, n, eq.effort)}),
              args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    reject_unknown_keys("simulate config", cfg, ("model", "mechanism", "profile",
                        "trials", "seed", "rule", "access", "latency", "h"))
    require_keys("simulate config", cfg, ("model", "mechanism", "profile"))
    reject_unknown_keys("profile", cfg["profile"], ("efforts", "policies"))
    require_keys("profile", cfg["profile"], ("efforts",))
    if "latency" in cfg:
        reject_unknown_keys("latency", cfg["latency"], ("lambda",))
        require_keys("latency", cfg["latency"], ("lambda",))
    model = InformationModel.from_config(cfg["model"])
    mechanism = cfg["mechanism"]
    profile = StrategyProfile(
        tuple(cfg["profile"]["efforts"]),
        tuple(_policy_from_config(p) for p in cfg["profile"].get("policies", [])))
    trials = args.trials if args.trials is not None else int(cfg.get("trials", 10000))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    rule = ScoringRule.from_config(cfg["rule"]) if "rule" in cfg else None
    access = AccessFunction.from_config(cfg["access"]) if "access" in cfg else None
    latency = (LatencyFamily.exponential(float(cfg["latency"]["lambda"]))
               if "latency" in cfg else None)
    h = TimeValue.from_config(cfg["h"]) if "h" in cfg else None
    kw = dict(rule=rule, access=access, latency=latency, h=h)
    if args.per_trial_csv:
        # the dump needs every trial's books; they reduce to the same stats
        rec = per_trial_records(model, mechanism, profile, trials, seed, **kw)
        stats = SimStats.from_records(mechanism, profile, rec)
    else:
        # streamed: memory does not grow with the trial count
        stats = simulate(model, mechanism, profile, trials, seed, **kw)
    _emit({**stats.to_json(), "seed": seed}, args.out)
    if args.per_trial_csv:
        n = profile.num_agents
        header = (["trial"] + [f"reward_{i}" for i in range(n)]
                  + [f"utility_{i}" for i in range(n)]
                  + ["value", "principal_utility", "welfare"])
        rows = ((t, *rec["rewards"][t], *rec["utilities"][t], rec["value"][t],
                 rec["principal_utility"][t], rec["welfare"][t])
                for t in range(trials))
        write_csv(args.per_trial_csv, header, rows)
    return 0


def cmd_settle_fpm(args) -> int:
    model = _model_from_args(args)
    rule = _rule_from_args(args)
    batch = batch_from_json(_load_json(args.batch), model.num_outcomes)
    result = fpm_run(model.prior_belief(), batch, rule)
    _emit(result_to_json(result), args.out)
    return 0


def cmd_settle_mvp(args) -> int:
    model = _model_from_args(args)
    rule = _rule_from_args(args)
    h = TimeValue.exponential(args.eta)
    with open(args.reports) as fh:
        reports = reports_from_stream(fh, model.num_outcomes)
    trace, rewards = mvp_run(model.prior_belief(), reports, args.outcome,
                             rule, h, num_agents=args.num_agents)
    write_csv(args.out_rewards, ["agent_id", "reward"],
              [(i, float(r)) for i, r in enumerate(rewards)])
    d = model.num_outcomes
    write_csv(args.out_trace, ["time"] + [f"p_{y}" for y in range(d)],
              trace_dump_rows(trace))
    print(f"settled {len(reports)} reports; rewards -> {args.out_rewards}, "
          f"trace -> {args.out_trace}")
    return 0


def _add_model_args(sub) -> None:
    sub.add_argument("--model", help="JSON model config file")
    sub.add_argument("--alpha", type=float, help="binary model: prior of outcome 1")
    sub.add_argument("--beta", type=float, help="binary model: signal noise")
    sub.add_argument("--rule", default="quadratic", choices=["quadratic", "log"])
    sub.add_argument("--scale", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infomarkets",
        description="Information-market mechanisms, equilibria and simulations.")
    subs = parser.add_subparsers(dest="command", required=True)

    fig = subs.add_parser("figure", help="run an experiment grid to CSV")
    fig.add_argument("name", nargs="?", choices=list(EXPERIMENTS))
    fig.add_argument("--config", help="JSON experiment config file")
    fig.add_argument("--out", help="output directory")
    fig.set_defaults(func=cmd_figure)

    solve = subs.add_parser("solve", help="solve one symmetric equilibrium")
    solve.add_argument("--setting", required=True,
                       choices=["mvp", "pm_race", "batch", "pm_batch"])
    solve.add_argument("--v", default="0,2,3",
                       help="comma-separated score sequence v_0,v_1,...")
    solve.add_argument("--n", type=int, default=2)
    solve.add_argument("--lam", type=float, default=1.0,
                       help="latency/access rate parameter")
    solve.add_argument("--eta", type=float, default=1.0, help="time-value decay")
    solve.add_argument("--access", default="exponential",
                       choices=["linear", "exponential"])
    solve.add_argument("--out", help="write JSON here instead of stdout")
    solve.set_defaults(func=cmd_solve)

    sim = subs.add_parser("simulate", help="Monte Carlo run from a config file")
    sim.add_argument("--config", required=True)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", help="write stats JSON here instead of stdout")
    sim.add_argument("--per-trial-csv", help="also dump one row per trial here")
    sim.set_defaults(func=cmd_simulate)

    sf = subs.add_parser("settle-fpm", help="settle a recorded report batch")
    _add_model_args(sf)
    sf.add_argument("--batch", required=True,
                    help='JSON file {"reports": [[...]], "outcome": y}')
    sf.add_argument("--out", help="write settlement JSON here instead of stdout")
    sf.set_defaults(func=cmd_settle_fpm)

    sm = subs.add_parser("settle-mvp", help="settle a recorded timed report stream")
    _add_model_args(sm)
    sm.add_argument("--reports", required=True,
                    help="stream file: agent_id, time, b_1..b_{d-1} per line")
    sm.add_argument("--outcome", type=int, required=True)
    sm.add_argument("--eta", type=float, default=1.0)
    sm.add_argument("--num-agents", type=int, default=None)
    sm.add_argument("--out-rewards", required=True)
    sm.add_argument("--out-trace", required=True)
    sm.set_defaults(func=cmd_settle_mvp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NumericalError, CapacityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return USAGE_ERROR
        return int(exc.code or 0)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
