"""Where the noise experiment's score scale of 20 comes from.

The noise-sweep experiment (``figure fig_noise``) prices information with
the quadratic rule scaled by 20 rather than the bare rule.  The scale is
not arbitrary: it is pinned by requiring the solved equilibria to land on
three independent reference values at once.  This script re-derives it.

With prior 10% and noiseless signals the unscaled score gain of the first
report is 1 - |prior|^2 = 0.18, and the gain saturates there (a second
copy of a perfect signal adds nothing).  Under a scale s the race
equilibrium is (2 v1 - v2)/4 = s * 0.18 / 4 and the rate-1 sequential
equilibrium solves s * 0.18 / (1 + 2c)^2 = 1.  Matching the reference
efforts 0.9 and 0.448683 forces s = 20 in both, and the same scale then
reproduces the third reference point at noise 0.05 with no further
freedom.
"""
from infomarkets import (InformationModel, LatencyFamily, ScoringRule,
                         TimeValue, mvp_equilibrium, pm_race_equilibrium,
                         v_sequence)

h = TimeValue.exponential(1.0)

print("Solving for the scale from the noiseless reference points:")
race_target, mvp_target = 0.9, 0.448683
scale_from_race = 4 * race_target / 0.18
scale_from_mvp = (1 + 2 * mvp_target) ** 2 / 0.18
print(f"  race effort 0.9       ->  s = 4 * 0.9 / 0.18        = "
      f"{scale_from_race:.6f}")
print(f"  sequential effort {mvp_target} -> s = (1 + 2c)^2 / 0.18 = "
      f"{scale_from_mvp:.6f}")

print("\nCross-check: with s = 20 the solved equilibria hit all three "
      "reference values.")
rule20 = ScoringRule("quadratic", 20.0)
for beta, race_ref, mvp_ref in ((0.0, 0.9, 0.448683), (0.05, 0.299819, 0.324463)):
    model = InformationModel.binary_noisy(0.1, beta)
    v = v_sequence(model, rule20, 2)
    race = pm_race_equilibrium(v, 2).effort
    mvp = mvp_equilibrium(LatencyFamily.exponential(1.0), h, v, 2).effort
    print(f"  noise {beta:.2f}: v = (0, {v[1]:.6f}, {v[2]:.6f})")
    print(f"    race effort {race:.6f}  (reference {race_ref})")
    print(f"    mvp  effort {mvp:.6f}  (reference {mvp_ref})")

print("\nWithout the scale (s = 1) the same sweep collapses toward the")
print("zero-effort corner, which is why fig_noise carries scale=20 in its")
print("default parameters:")
rule1 = ScoringRule("quadratic")
model = InformationModel.binary_noisy(0.1, 0.05)
v1 = v_sequence(model, rule1, 2)
eq = mvp_equilibrium(LatencyFamily.exponential(1.0), h, v1, 2)
print(f"  noise 0.05, s = 1: sequential equilibrium effort = {eq.effort:.6f} "
      f"(corner = {eq.corner})")
