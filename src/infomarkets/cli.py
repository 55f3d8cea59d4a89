"""Command-line front end.

Subcommands expose every piece of the library for scripted use:

* ``figure <name>``  -- run one experiment grid, write CSV + manifest;
* ``solve``          -- solve a single equilibrium and print it as JSON;
* ``simulate``       -- Monte Carlo run from a config file, stats as JSON;
* ``settle-fpm``     -- settle a recorded batch of reports;
* ``settle-mvp``     -- settle a recorded timed-report stream.

Every file and config format the commands read is parsed here, and only here.
Exit codes: 0 success, 1 numerical failure, 2 usage error.  Each reader
declares the keys of its entry once, with their types and defaults, and
reads them through :func:`errors.read_config`; a nested entry (a model,
profile, policy, rule, access, latency or time value) is read and named by
its own reader.  An unknown key, a missing required key and a value of the
wrong type are usage errors that name the entry and the key, and so is a
bad record of a batch file or a report stream, named ``report k`` or
``line k``.
"""
import argparse
import functools
import json
import sys
from contextlib import contextmanager

import numpy as np

from .belief import ReportVector, report_column
from .equilibrium import (LatencyFamily, batch_equilibrium, mvp_equilibrium,
                          mvp_welfare)
from .errors import CapacityError, NumericalError, check_type, read_config
from .experiments import EXPERIMENTS, run_experiment, write_csv
from .fpm import BatchOutcomeReport, fpm_run
from .info_model import InformationModel, ScoreSequence
from .montecarlo import (ReportPolicy, SimStats, StrategyProfile,
                         per_trial_records, simulate)
from .mvp import TimedReport, TimeValue, mvp_run
from .pm_baseline import (AccessFunction, pm_batch_equilibrium,
                          pm_batch_welfare, pm_race_equilibrium)
from .scoring import KINDS, ScoringRule

USAGE_ERROR, NUMERICAL_ERROR = 2, 1


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@contextmanager
def _record(where: str):
    """Prefix a ValueError raised inside with the record it came from."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _read_kind(what: str, noun: str, cfg, kinds: dict, default=None) -> tuple[str, dict]:
    """The ``kind`` of the config object ``cfg`` (``default`` if it has none),
    one of ``kinds``, and its entries read by ``kinds[kind]``, the fields
    of that kind besides ``kind``.  ``what`` names ``cfg`` until its kind
    is known, ``"<kind> <noun>"`` after."""
    if "kind" not in check_type(what, None, cfg, "object") and default is None:
        raise ValueError(f"{what}: missing key 'kind'")
    kind = check_type(what, "kind", cfg.get("kind", default), "string")
    if kind not in kinds:
        raise ValueError(f"unknown {noun} kind {kind!r}")
    return kind, read_config(f"{kind} {noun}", cfg, {"kind": ("string", kind), **kinds[kind]})


#: model kind -> its fields; a legacy agent count is accepted and ignored
_MODEL_FIELDS = {kind: {**fields, "num_agents": ("integer", None)} for kind, fields in {
    "binary_noisy": {"alpha": "number", "beta": "number"},
    "table": {"prior": "list of number", "likelihood": "list of list of number"}}.items()}

#: time-value kind -> its fields
_TIME_VALUE_FIELDS = {"exponential": {"eta": ("number", 1.0)},
                      "table": {"times": "list of number", "values": "list of number"}}


def _model_from_config(cfg) -> InformationModel:
    """``{kind: "binary_noisy", alpha, beta}`` or ``{kind: "table", prior,
    likelihood}``; of the keys a kind does not read, only ``num_agents`` passes."""
    kind, cfg = _read_kind("model config", "model", cfg, _MODEL_FIELDS)
    if kind == "binary_noisy":
        return InformationModel.binary_noisy(float(cfg["alpha"]), float(cfg["beta"]))
    return InformationModel(cfg["prior"], cfg["likelihood"])


def _rule_from_config(cfg) -> ScoringRule:
    """``{"rule": "quadratic" | "log", "scale": <real>}``."""
    cfg = read_config("scoring rule", cfg, {"rule": ("string", "quadratic"),
                                            "scale": ("number", 1.0)})
    kind = {"log": "logarithmic"}.get(cfg["rule"], cfg["rule"])
    if kind not in KINDS:
        raise ValueError(f"unknown scoring rule {cfg['rule']!r}")
    return ScoringRule(kind, float(cfg["scale"]))


def _access_from_config(cfg) -> AccessFunction:
    """``{"kind": "linear" | "exponential", "lambda": <real>}``."""
    cfg = read_config("access function", cfg, {"kind": "string", "lambda": "number"})
    return AccessFunction(cfg["kind"], float(cfg["lambda"]))


def _latency_from_config(cfg) -> LatencyFamily:
    """``{"lambda": <real>}``: arrival after an Exp(lambda * effort) time."""
    return LatencyFamily.exponential(float(read_config("latency", cfg,
                                                       {"lambda": "number"})["lambda"]))


def _time_value_from_config(cfg) -> TimeValue:
    """A decay rate eta (a real number), or an exponential or table object."""
    if not isinstance(check_type("time value h", None, cfg, "number or object"), dict):
        return TimeValue.exponential(float(cfg))
    kind, cfg = _read_kind("time value h", "time value", cfg, _TIME_VALUE_FIELDS,
                           "exponential")
    if kind == "exponential":
        return TimeValue.exponential(float(cfg["eta"]))
    return TimeValue.table(cfg["times"], cfg["values"])


def _policy_from_config(cfg) -> ReportPolicy:
    """``{"kind": ..., "epsilon": <real>, "delay": <real>}``, all optional."""
    return ReportPolicy(**read_config("report policy", cfg, {
        "kind": ("string", "truthful"), "epsilon": ("number", 0.0), "delay": ("number", 0.0)}))


def _profile_from_config(cfg) -> StrategyProfile:
    """``{"efforts": [...], "policies": [{"kind": ..., ...}, ...]}``."""
    cfg = read_config("profile", cfg, {"efforts": "list of number",
                                       "policies": ("list of object", [])})
    return StrategyProfile(tuple(cfg["efforts"]),
                           tuple(_policy_from_config(p) for p in cfg["policies"]))


def _parse_report(entries, num_outcomes: int):
    """A report from its numbers: d-1 entries are a ratio-encoded
    :class:`ReportVector`, d entries a likelihood column (exact for d > 2)."""
    entries = [float(e) for e in entries]
    if len(entries) == num_outcomes - 1:
        return ReportVector(tuple(entries))
    if len(entries) == num_outcomes:
        return report_column(entries, num_outcomes)
    raise ValueError(f"{len(entries)} entries fit neither the ratio encoding "
                     f"({num_outcomes - 1} entries) nor a likelihood column "
                     f"({num_outcomes} entries)")


def _batch_from_json(record, num_outcomes: int) -> BatchOutcomeReport:
    """``{"reports": [[...], ...], "outcome": y}``; an error in report k names it."""
    record = read_config("batch file", record, {"reports": "list of list of number",
                                                "outcome": "integer"})
    reports = []
    for slot, entry in enumerate(record["reports"]):
        with _record(f"report {slot}"):
            reports.append(_parse_report(entry, num_outcomes))
    return BatchOutcomeReport(tuple(reports), record["outcome"])


def _reports_from_stream(lines, num_outcomes: int) -> list[TimedReport]:
    """``agent_id, time, b_1, ..., b_{d-1}`` records, one per line; blank
    lines and ``#`` comments are skipped, and an error names its line."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        with _record(f"line {lineno}"):
            if len(parts) < 3:
                raise ValueError("expected agent_id, time, entries")
            out.append(TimedReport(int(parts[0]), float(parts[1]),
                                   _parse_report(parts[2:], num_outcomes)))
    return out


def _market_from_args(args) -> tuple[InformationModel, ScoringRule]:
    if args.model:
        model = _model_from_config(_load_json(args.model))
    elif args.alpha is None or args.beta is None:
        raise SystemExit("either --model FILE or both --alpha and --beta are required")
    else:
        model = InformationModel.binary_noisy(args.alpha, args.beta)
    return model, _rule_from_config({"rule": args.rule, "scale": args.scale})


def _parse_v(text: str) -> ScoreSequence:
    with _record("--v"):
        return ScoreSequence(np.array([float(x) for x in text.split(",")]))


def _emit(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_figure(args) -> int:
    if not (args.name or args.config):
        raise SystemExit("a figure name or --config is required")
    cfg = read_config("figure config",
                      _load_json(args.config) if args.config else {"experiment": args.name},
                      {"experiment": "string", "parameters": ("value", None),
                       "output_path": ("string", ".")})
    if args.name and args.name != cfg["experiment"]:
        raise SystemExit(f"config is for {cfg['experiment']!r}, not {args.name!r}")
    paths = run_experiment(cfg["experiment"], cfg["parameters"],
                           args.out or cfg["output_path"])
    print("\n".join(paths))
    return 0


def cmd_solve(args) -> int:
    n, extra = args.n, {"setting": args.setting}
    if args.setting == "mvp":
        v = _parse_v(args.v)
        latency, h = LatencyFamily.exponential(args.lam), TimeValue.exponential(args.eta)
        eq = mvp_equilibrium(latency, h, v, n)
        extra["welfare"] = mvp_welfare(latency, h, v, n, eq.effort)
    elif args.setting == "pm_race":
        eq = pm_race_equilibrium(_parse_v(args.v), n)
    elif args.setting == "batch":
        eq = batch_equilibrium(AccessFunction(args.access, args.lam), _parse_v(args.v), n)
    else:  # pm_batch
        F = AccessFunction(args.access, args.lam)
        eq = pm_batch_equilibrium(F, n)
        extra["welfare"] = pm_batch_welfare(F, n, eq.effort)
    _emit({"effort": eq.effort, "residual": eq.residual, "corner": eq.corner,
           "bracket": list(eq.bracket), "evaluations": eq.evaluations, **extra}, args.out)
    return 0


def cmd_simulate(args) -> int:
    # each nested entry is checked and named by its own reader
    cfg = read_config("simulate config", _load_json(args.config), {
        "model": "value", "mechanism": "string", "profile": "value",
        "trials": ("integer", 10000), "seed": ("integer", 0), "rule": ("value", None),
        "access": ("value", None), "latency": ("value", None), "h": ("value", None)})
    profile, model = _profile_from_config(cfg["profile"]), _model_from_config(cfg["model"])
    kw = {key: None if cfg[key] is None else read(cfg[key]) for key, read in (
        ("rule", _rule_from_config), ("access", _access_from_config),
        ("latency", _latency_from_config), ("h", _time_value_from_config))}
    mechanism = cfg["mechanism"]
    trials = cfg["trials"] if args.trials is None else args.trials
    seed = cfg["seed"] if args.seed is None else args.seed
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
    model, rule = _market_from_args(args)
    batch = _batch_from_json(_load_json(args.batch), model.num_outcomes)
    result = fpm_run(model.prior_belief(), batch, rule)
    _emit({"aggregated": result.aggregated.probs.tolist(),
           "rewards": result.rewards.tolist()}, args.out)
    return 0


def cmd_settle_mvp(args) -> int:
    model, rule = _market_from_args(args)
    h = TimeValue.exponential(args.eta)
    with open(args.reports) as fh:
        reports = _reports_from_stream(fh, model.num_outcomes)
    trace, rewards = mvp_run(model.prior_belief(), reports, args.outcome,
                             rule, h, num_agents=args.num_agents)
    write_csv(args.out_rewards, ["agent_id", "reward"],
              [(i, float(r)) for i, r in enumerate(rewards)])
    # one row per belief of the path: time 0 (the prior), then each report time
    write_csv(args.out_trace, ["time"] + [f"p_{y}" for y in range(model.num_outcomes)],
              np.column_stack([np.concatenate([[0.0], trace.breakpoints]), trace.beliefs]))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s parser, built once per process: parsing never
    changes it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
