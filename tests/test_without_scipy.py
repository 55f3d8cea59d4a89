"""The library runs with scipy absent; scipy is only the tests' oracle."""
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: one call into each layer, after making every scipy import fail
SCRIPT = """
import sys
sys.modules["scipy"] = None

import numpy as np
import infomarkets as im
import infomarkets.cli

rule = im.ScoringRule("quadratic", 20.0)
binary = im.InformationModel.binary_noisy(0.1, 0.05)
v = im.v_sequence(binary, rule, 8)
im.v_sequence(im.InformationModel([0.6, 0.4], [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]),
              rule, 6)
access = im.AccessFunction.exponential(3.0)
eq = im.batch_equilibrium(access, v, 8)
im.batch_welfare(access, v, 8, eq.effort)
latency, h = im.LatencyFamily.exponential(1.0), im.TimeValue.exponential(1.0)
eq = im.mvp_equilibrium(latency, h, v, 8)
table = im.TimeValue.table(np.linspace(0.0, 3.0, 10), np.linspace(2.0, 0.2, 10))
im.mvp_welfare(latency, table, v, 8, eq.effort, method="quadrature")
im.pm_race_equilibrium(v, 8)
im.fpm_expected_reward(binary, rule, [0.5, 0.5])
profile = im.StrategyProfile.symmetric(0.3, 2)
im.simulate(binary, "fpm", profile, 1000, 1, rule=rule, access=access)
im.deviation_test(binary, "mvp", profile, 0, im.ReportPolicy("delayed", delay=0.5),
                  1000, 1, rule=rule, latency=latency, h=h)
# the score-table route: 32 agents, and a paired deviation among 8
wide = im.StrategyProfile.symmetric(0.3, 32)
im.simulate(binary, "fpm", wide, 2000, 1, rule=rule, access=access)
for mechanism in ("mvp", "pm_sequential"):
    im.simulate(binary, mechanism, wide, 2000, 1, rule=rule, latency=latency, h=h)
im.deviation_test(binary, "mvp", im.StrategyProfile.symmetric(0.3, 8), 0,
                  im.ReportPolicy("delayed", delay=0.5), 1000, 1, rule=rule,
                  latency=latency, h=h)
sys.exit(infomarkets.cli.main(["figure", "fig_late", "--out", sys.argv[1]]))
"""


def test_every_layer_runs_with_scipy_blocked(tmp_path):
    """A check of ``sys.modules`` after import would miss a later lazy
    import of scipy; this runs each layer once with every import failing."""
    env = {**os.environ, "PYTHONPATH": SRC}
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT,
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=60)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "fig_late.csv").exists()
    assert elapsed < 2.0
