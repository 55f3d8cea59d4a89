"""How a market aggregates dispersed signals into one belief.

Walks through the binary noisy model: a rare event with prior 2%, and
agents who each observe the outcome through a 20%-noise channel.  Shows
that the odds-form report encoding lets a market reach the exact Bayes
posterior without ever seeing the agents' raw signals, in any order.
"""
import numpy as np

from infomarkets import (Belief, InformationModel, ReportVector,
                         apply_report, posterior, truthful_report)

model = InformationModel.binary_noisy(alpha=0.02, beta=0.2)

print("Information model")
print(f"  prior:            P(event) = {model.prior[1]:.2f}")
print(f"  signal channel:   P(signal = outcome) = {model.likelihood[1, 1]:.2f}")

print("\nPosterior after observing signals directly:")
for signals in ([], [1], [1, 1], [1, 1, 0]):
    p = posterior(model, signals)
    print(f"  signals {signals!s:12} ->  P(event) = {p[1]:.6f}")

print("\nThe same posteriors reached through market reports.")
print("A report encodes the likelihood ratio of the agent's signal as a")
print("single number b in (0,1); the market multiplies its odds by b/(1-b).")
for x in (0, 1):
    b = truthful_report(model, x).entries[0]
    ratio = model.likelihood[1, x] / model.likelihood[0, x]
    print(f"  signal {x}: likelihood ratio {ratio:.2f} -> report b = {b:.2f}")

belief = model.prior_belief()
print(f"\nmarket starts at          P(event) = {belief[1]:.6f}")
for k, x in enumerate([1, 1, 0], start=1):
    belief = apply_report(belief, truthful_report(model, x))
    print(f"after report #{k} (signal {x}): P(event) = {belief[1]:.6f}")

exact = posterior(model, [1, 1, 0])
print(f"direct Bayes posterior:    P(event) = {exact[1]:.6f}")
print(f"difference: {abs(belief[1] - exact[1]):.2e}")

print("\nOrder never matters (odds multiplications commute):")
start = Belief(np.array([0.98, 0.02]))
for b1, b2 in [(0.8, 0.2), (0.2, 0.8)]:
    q = apply_report(apply_report(start, ReportVector((b1,))), ReportVector((b2,)))
    print(f"  fold order ({b1}, {b2}): {q[1]:.10f}")

rng = np.random.default_rng(0)
signals = list(rng.integers(0, 2, size=8))
perm = list(signals)
rng.shuffle(perm)
pa, pb = posterior(model, signals), posterior(model, perm)
print(f"\n8 random signals, two orders: max belief gap = "
      f"{np.max(np.abs(pa.probs - pb.probs)):.2e}")
