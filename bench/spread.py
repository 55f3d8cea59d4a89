"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload W --seeds 1 2 3 4 5 [--seconds 25]

Runs ``bench/run.py`` once per seed (sequentially) and prints, per metric,
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
the interquartile range as a share of the median.  A metric is steady
enough for its bound in BENCHMARK.json when that share stays well below
the bound (a third of it leaves room for a second set of runs).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()),
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{name}: median {med:.5g}, quartiles {q1:.5g} .. {q3:.5g}, "
              f"IQR/median {share:.4f} (bound {bounds[name]}, a third is "
              f"{bounds[name] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
