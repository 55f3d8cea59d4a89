"""The infomarkets benchmark: one workload per call, checked and measured.

    python3 bench/run.py --workload mc_deep|settle_wide|solve_sweep \
        --seed N --seconds T --trace 0|1
    python3 bench/run.py --seconds T  # every workload in turn, one result line each
    python3 bench/run.py --smoke      # every workload at reduced size, with checks

Run from anywhere inside a checkout; the library is taken from the
checkout's ``src`` and nowhere else.  Each workload runs in a fresh child
process (``bench/worker.py``) whose BLAS and OpenMP thread variables are 1.
With ``--trace 0`` four more children only set up, and ``setup_s`` is the
median of the five set-up times.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics untraced, the per-layer metrics traced).  The lines
before it give the machine, the workload sizes, the workload-specific
metrics and every failed check.  See ``bench/README.md``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_deep", "settle_wide", "solve_sweep")
SETUP_PROBES = 4
#: a run must end within this many seconds of its start
BUDGET_S = 170.0
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, started: float, *extra) -> dict:
    """Start one worker, wait for it, and return its result and setup time."""
    out = os.path.join(HERE, ".work", f"result-{args.workload}-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, *extra]
    remaining = BUDGET_S - (time.monotonic() - started)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker exceeded the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}:\n{err[-4000:]}")
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    result["setup_s"] = result["setup_done"] - spawned
    return result


def measure(args) -> dict:
    """One benchmark run; returns the worker result with final metrics."""
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "infomarkets", "__init__.py")):
        raise HarnessError(f"no library source under {os.path.join(ROOT, 'src')}")
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    extra = ["--smoke"] if args.smoke else []
    setups = []
    if not args.trace:
        setups = [run_worker(args, started, "--setup-only", *extra)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    result = run_worker(args, started, *extra)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    if args.trace:
        result["final"] = {m: {"value": v, "unit": LAYER_METRICS[m][0]}
                           for m, v in result["layers"].items()}
    else:
        metrics = dict(result["metrics"], setup_s=statistics.median(setups))
        result["final"] = {m: {"value": metrics[m], "unit": unit}
                           for m, unit in E2E_UNITS.items()}
    return result


def report(args, result) -> None:
    print(f"# machine {json.dumps(result['versions'], sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} passes {result['passes']} "
          f"sizes {json.dumps(result['sizes'], sort_keys=True)}")
    if not args.trace:
        print("# setup_s samples " + " ".join(f"{s:.4f}" for s in result["setup_samples"]))
    for name, (value, unit) in result["extras"].items():
        print(f"# {name} {value:.6g} {unit}")
    for f in result["failures"]:
        kind = "known defect" if f["known"] else "FAILED"
        print(f"# {kind}: {f['op']} x{f['instances']}: {f['failure'][:300]}")
    if result.get("absent"):
        print(f"# absent (not traced): {', '.join(result['absent'])}")
    if args.trace:
        print(f"# spans written to {result['spans_file']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["final"]}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload to run (default: each in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, untraced and traced, as a quick check")
    args = parser.parse_args()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)
    ok = True
    try:
        for workload in workloads:
            for trace in ((0, 1) if args.smoke else (args.trace,)):
                run = argparse.Namespace(**dict(vars(args), workload=workload,
                                                trace=trace))
                result = measure(run)
                report(run, result)
                ok &= result["correct"]
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        print("smoke", "passed" if ok else "FAILED")
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
