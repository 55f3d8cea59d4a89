"""Run one workload in this (fresh) process and write its raw measurements.

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --out RESULT.json [--setup-only] [--smoke]

``bench/run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS/OpenMP thread variables set to 1.  Setup (imports,
input generation, input files, warm-up) ends with a monotonic time stamp
that run.py turns into ``setup_s``.  The timed phase is a closed loop: one
thread issues the workload's ops in order, pass after pass, each op only
after the previous one returned, until ``--seconds`` have elapsed and every
op has run at least once in every mode.  With ``--trace 1`` passes
alternate between untraced and traced.  Checks run after the timed phase.
"""
import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: per-layer metrics of a traced run: name -> (unit, better)
LAYER_METRICS = {
    "montecarlo.simulate.s": ("s", "lower"),
    "montecarlo.per_trial_records.s": ("s", "lower"),
    "montecarlo.deviation_test.s": ("s", "lower"),
    "montecarlo.self_s": ("s", "lower"),
    "montecarlo.trials": ("count", "higher"),
    "fpm.fpm_run.calls": ("count", "lower"),
    "fpm.fpm_run.s": ("s", "lower"),
    "fpm.fpm_run.self_s": ("s", "lower"),
    "fpm.fpm_expected_reward.s": ("s", "lower"),
    "mvp.mvp_run.s": ("s", "lower"),
    "mvp.mvp_run.self_s": ("s", "lower"),
    "mvp.time_value_mass.calls": ("count", "lower"),
    "mvp.cf_update_useful_frac": ("ratio", "higher"),
    "belief.apply_report.calls": ("count", "lower"),
    "belief.apply_report.s": ("s", "lower"),
    "scoring.score.calls": ("count", "lower"),
    "scoring.score.s": ("s", "lower"),
    "scoring.expected_score.calls": ("count", "lower"),
    "scoring.expected_score.s": ("s", "lower"),
    "info_model.v_sequence.calls": ("count", "lower"),
    "info_model.v_sequence.s": ("s", "lower"),
    "info_model.v_sequence.self_s": ("s", "lower"),
    "equilibrium.mvp_equilibrium.s": ("s", "lower"),
    "equilibrium.mvp_br_derivative.calls": ("count", "lower"),
    "equilibrium.foc_evals_per_solve": ("count", "lower"),
    "equilibrium.mvp_welfare.s": ("s", "lower"),
    "equilibrium.mvp_agent_reward.s": ("s", "lower"),
    "equilibrium.batch_equilibrium.s": ("s", "lower"),
    "numerics.solve_decreasing_foc.calls": ("count", "lower"),
    "numerics.solve_decreasing_foc.s": ("s", "lower"),
    "numerics.integrate_decaying.calls": ("count", "lower"),
    "numerics.certified_frac": ("ratio", "higher"),
    "numerics.numerical_errors": ("count", "lower"),
    "pm_baseline.pm_race_equilibrium.s": ("s", "lower"),
    "pm_baseline.pm_batch_equilibrium.s": ("s", "lower"),
    "experiments.run_experiment.s": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def digest(obj, h=None) -> str:
    """Order-stable hash of an op's output, to show that passes agree bit for bit."""
    import numpy as np

    top = h is None
    h = h or hashlib.blake2b(digest_size=16)
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    elif isinstance(obj, (bool, int, str, np.integer, np.bool_)) or obj is None:
        h.update(repr(obj).encode())
    elif isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, BaseException):
        h.update(f"{type(obj).__name__}:{obj}".encode())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            digest(item, h)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")
    return h.hexdigest() if top else ""


def _pass_time(samples: list) -> float:
    """Time of one pass: each op's mean over the passes it ran in, summed.

    The mean integrates over the whole timed phase, which averages out the
    host's multi-second swings in speed better than a median of a few passes.
    """
    return float(sum(statistics.fmean(s) for s in samples))


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_loop(ops, seconds: float, trace, tracer):
    """The closed loop; returns per-mode per-op times, outputs, instance list."""
    modes = ("untraced", "traced") if trace else ("untraced",)
    times = {m: [[] for _ in ops] for m in modes}
    first = [None] * len(ops)
    digests = [None] * len(ops)
    mismatch = [0] * len(ops)
    instances = []  # (op index, mode)
    perf_counter = time.perf_counter
    deadline = perf_counter() + seconds

    def finished() -> bool:
        return perf_counter() >= deadline and all(
            t for m in modes for t in times[m])

    pass_no = 0
    while not finished():
        mode = modes[pass_no % len(modes)]
        if mode == "traced":
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if finished():
                    break
                if tracer is not None:
                    tracer.op_instance = len(instances)
                instances.append((i, mode))
                t0 = perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # an op that raises is a failed op
                    out = exc
                elapsed = perf_counter() - t0
                times[mode][i].append(elapsed)
                if not isinstance(out, Exception):
                    out = op.collect(out)
                d = digest(out)
                if digests[i] is None:
                    first[i], digests[i] = out, d
                elif d != digests[i]:
                    mismatch[i] += 1
        finally:
            if mode == "traced":
                tracer.uninstall()
        pass_no += 1
    return times, first, mismatch, instances


def check_ops(ops, first, mismatch) -> list:
    """Per op: list of (failure, known) pairs."""
    results = []
    for op, out, bad in zip(ops, first, mismatch):
        if isinstance(out, Exception):
            fails = [f"raised: {type(out).__name__}: {out}"]
        else:
            try:
                fails = list(op.check(out))
            except Exception as exc:  # a check that cannot read the output fails it
                fails = [f"check: {type(exc).__name__}: {exc}"]
        if bad:
            fails.append(f"nondeterministic: {bad} passes differ from the first")
        results.append([(f, f.split(":", 1)[0] in op.known) for f in fails])
    return results


def end_to_end(ops, times, instances, failed_ops, peak_rss_mb) -> tuple[dict, dict]:
    """The gated metrics plus the workload-specific ones the note describes."""
    untraced = times["untraced"]
    metrics = {"wall_s": _pass_time(untraced), "peak_rss_mb": peak_rss_mb}
    extras = {}
    kinds = {op.kind for op in ops}
    if "mc" in kinds:
        mc = [i for i, op in enumerate(ops) if op.kind == "mc"]
        work = sum(ops[i].trials * len(untraced[i]) for i in mc)
        extras["trials_per_s"] = (work / sum(sum(untraced[i]) for i in mc), "1/s")
    if "settle" in kinds:
        st = [i for i, op in enumerate(ops) if op.kind == "settle"]
        work = sum(ops[i].reports * len(untraced[i]) for i in st)
        extras["reports_per_s"] = (work / sum(sum(untraced[i]) for i in st), "1/s")
    if "point" in kinds:
        lat = [t * 1e3 for i, op in enumerate(ops) if op.kind == "point"
               for t in untraced[i]]
        extras["solve_ms_p50"] = (_percentile(lat, 50), "ms")
        extras["solve_ms_p95"] = (_percentile(lat, 95), "ms")
        extras["solve_samples"] = (len(lat), "count")
    if "exact" in kinds:
        extras["exact_s"] = (_pass_time([untraced[i] for i, op in enumerate(ops)
                                          if op.kind == "exact"]), "s")
    # each op's output is checked bit for bit across passes, so an op either
    # fails in every pass or in none: count distinct ops, which depends on the
    # seed only and not on how many passes fitted into the timed phase
    attempted = len(ops)
    failed = sum(failed_ops)
    extras["ops_failed_frac"] = (failed / attempted, "ratio")
    extras["ops_attempted"] = (attempted, "count")
    extras["ops_failed"] = (failed, "count")
    return metrics, extras


def per_layer(ops, times, instances, tracer) -> dict:
    """Per-pass layer totals from the traced passes (per-op means, summed)."""
    import numpy as np
    from spans import per_instance_totals

    totals = per_instance_totals(tracer, len(instances))
    names = tracer.names
    traced_by_op = [[] for _ in ops]
    for inst, (i, mode) in enumerate(instances):
        if mode == "traced":
            traced_by_op[i].append(inst)
    per_pass = {stat: np.sum([np.mean(arr[idx], axis=0) for idx in traced_by_op],
                             axis=0)
                for stat, arr in totals.items()}

    def get(stat: str, name: str) -> float:
        return float(per_pass[stat][names.index(name)]) if name in names else 0.0

    def layer(stat: str, prefix: str) -> float:
        return float(sum(per_pass[stat][j] for j, nm in enumerate(names)
                         if nm.startswith(prefix)))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {}
    for metric in LAYER_METRICS:
        parts = metric.rsplit(".", 1)
        if len(parts) == 2 and parts[1] in ("calls", "s", "self_s") and parts[0] in names:
            out[metric] = get(parts[1], parts[0])
    out["montecarlo.self_s"] = layer("self_s", "montecarlo.")
    out["montecarlo.trials"] = float(sum(op.trials for op in ops))
    out["mvp.cf_update_useful_frac"] = ratio(
        sum(op.cf_minimal for op in ops), get("under_mvp_run", "belief.apply_report"))
    out["equilibrium.foc_evals_per_solve"] = ratio(
        get("calls", "equilibrium.mvp_br_derivative"),
        get("calls", "equilibrium.mvp_equilibrium"))
    out["numerics.certified_frac"] = ratio(
        get("certified", "numerics.solve_decreasing_foc"),
        get("calls", "numerics.solve_decreasing_foc"))
    out["numerics.numerical_errors"] = layer("numerical_errors", "numerics.")
    untraced = _pass_time(times["untraced"])
    out["trace_overhead_frac"] = (_pass_time(times["traced"]) - untraced) / untraced
    # a name that no longer exists reads 0 and is listed as absent
    return {m: out.get(m, 0.0) for m in LAYER_METRICS}


def versions() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import infomarkets

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(infomarkets.__file__).startswith(src):
        print(f"infomarkets was imported from {infomarkets.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3
    import workloads

    os.makedirs(os.path.join(ROOT, "bench", ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(ROOT, "bench", ".work"))
    try:
        wl = workloads.build(args.workload, args.seed, workdir, args.smoke)
        wl.warmup()
        setup_done = time.monotonic()
        result = {"setup_done": setup_done, "sizes": wl.sizes}
        if not args.setup_only:
            result.update(measure(wl, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(wl, args) -> dict:
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.prepare()
    times, first, mismatch, instances = run_loop(wl.ops, args.seconds,
                                                 args.trace, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = check_ops(wl.ops, first, mismatch)
    failed_ops = [bool(c) for c in checks]
    metrics, extras = end_to_end(wl.ops, times, instances, failed_ops, peak_rss_mb)
    result = {
        "attempted": extras["ops_attempted"][0],
        "failed": extras["ops_failed"][0],
        "correct": all(known for c in checks for _, known in c),
        "failures": [{"op": op.name, "failure": f, "known": known,
                      "instances": sum(1 for j, _ in instances if j == i)}
                     for i, (op, c) in enumerate(zip(wl.ops, checks))
                     for f, known in c],
        "passes": min(len(t) for t in times["untraced"]),
        "metrics": metrics,
        "extras": extras,
        "versions": versions(),
    }
    if args.trace:
        result["layers"] = per_layer(wl.ops, times, instances, tracer)
        result["absent"] = tracer.absent
        spans = os.path.join(ROOT, "bench", ".work",
                             f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    return result


if __name__ == "__main__":
    sys.exit(main())
