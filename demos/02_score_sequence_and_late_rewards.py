"""Why classic sequential markets invite agents to report late.

The expected proper score of the market belief rises with every truthful
report, but the *marginal* rise is not monotone: for a rare event observed
through noisy signals, early reports barely move the needle (one noisy
"yes" about a 2% event is probably noise) while the third corroborating
report is the most valuable.  A market that pays each reporter their own
score improvement therefore rewards waiting.
"""
import numpy as np

from infomarkets import (InformationModel, ScoringRule, expected_base_score,
                         v_sequence)

model = InformationModel.binary_noisy(alpha=0.02, beta=0.2)
rule = ScoringRule("quadratic")
v = v_sequence(model, rule, 10)
base = expected_base_score(model, rule)

print("Expected market score and per-report reward (prior 2%, noise 20%)")
print(f"{'k':>3} {'E[score after k]':>18} {'reward of k-th report':>22}")
print(f"{0:>3} {base:>18.6f} {'-':>22}")
for k in range(1, 11):
    bar = "#" * int(round(3000 * (v[k] - v[k - 1])))
    print(f"{k:>3} {base + v[k]:>18.6f} {v[k] - v[k - 1]:>22.8f}  {bar}")

peak = int(np.argmax(v.deltas)) + 1
print(f"\nThe largest reward goes to report #{peak}, not #1:")
print("an agent confident they would be first prefers to wait, and the")
print("market aggregates stale information exactly when speed matters.")
print("\nThe sequential marginal-value market (see demo 04) removes this:")
print("it pays marginal contribution over the whole timeline, weighted by")
print("a time-value density, so early reporting is always optimal.")
