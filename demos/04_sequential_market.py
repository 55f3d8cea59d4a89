"""The sequential marginal-value market on a recorded report stream.

Three agents report at different times; the market tracks the actual
belief path, and each agent's counterfactual path is the path of the same
stream without his report.  Each reward is the time-value-weighted area
between the two paths, so a report is worth more the earlier it lands and
the more it adds to what others already contributed.
"""
import numpy as np

from infomarkets import (InformationModel, ScoringRule, TimeValue,
                         TimedReport, mvp_run, time_value_mass,
                         trace_dump_rows, truthful_report)

model = InformationModel.binary_noisy(alpha=0.1, beta=0.2)
rule = ScoringRule("quadratic")
h = TimeValue.exponential(eta=1.0)

reports = [TimedReport(agent=0, time=0.4, report=truthful_report(model, 1)),
           TimedReport(agent=1, time=1.1, report=truthful_report(model, 1)),
           TimedReport(agent=2, time=2.7, report=truthful_report(model, 0))]
outcome = 1

trace, rewards = mvp_run(model.prior_belief(), reports, outcome, rule, h)

print("Belief path (event probability over time):")
for t, *probs in trace_dump_rows(trace):
    print(f"  t = {t:4.1f}:  P(event) = {probs[1]:.6f}")

print("\nCounterfactual paths at t = 3 (what the market would believe")
print("had each agent stayed silent):")
for i in range(3):
    others = [rep for rep in reports if rep.agent != i]
    without, _ = mvp_run(model.prior_belief(), others, outcome, rule, h)
    print(f"  without agent {i}: P(event) = {without.belief_at(3.0)[1]:.6f}")

print(f"\nTime value remaining after each report "
      f"(exponential decay, total mass 1):")
for rep in reports:
    print(f"  t = {rep.time}: {time_value_mass(h, rep.time, np.inf):.4f}")

print(f"\nSettled rewards (outcome = {outcome}):")
for i, r in enumerate(rewards):
    print(f"  agent {i}: {r:+.6f}")
print("Agent 0 reported earliest, while most time value remained, and his")
print("signal moved the belief most against the others' counterfactual;")
print("agent 2's contrarian (and wrong) late report costs him.")

print("\nReporting the same content later only shrinks the reward:")
for t0 in (0.4, 1.0, 2.0, 4.0):
    shifted = [TimedReport(0, t0, reports[0].report)] + reports[1:]
    _, r = mvp_run(model.prior_belief(), shifted, outcome, rule, h)
    print(f"  agent 0 reports at t = {t0}: reward {r[0]:+.6f}")
