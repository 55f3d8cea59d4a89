"""The fair batch market: everyone is paid as if they reported last.

Settles a small batch by hand, showing the leave-one-out reward rule, the
fairness property (equal expected rewards under symmetric truthful play),
and why misreporting strictly hurts.
"""
from infomarkets import (BatchOutcomeReport, InformationModel, ReportVector,
                         ScoringRule, fpm_expected_reward, fpm_run,
                         truthful_report)

model = InformationModel.binary_noisy(alpha=0.1, beta=0.2)
rule = ScoringRule("quadratic")
prior = model.prior_belief()

print("Three agents; agents 0 and 2 saw signal 1, agent 1 saw nothing.")
reports = (truthful_report(model, 1),
           ReportVector.no_signal(2),
           truthful_report(model, 1))
batch = BatchOutcomeReport(reports, outcome=1)
result = fpm_run(prior, batch, rule)
print(f"aggregated belief: P(event) = {result.aggregated[1]:.6f}")
for k, r in enumerate(result.rewards):
    print(f"  agent {k}: reward {r:+.6f}")
print("Agent 1 reported the no-information vector (all 1/2) and earns 0;")
print("agents 0 and 2 made identical updates and earn identical rewards.")

print("\nAn agent who pushes the belief the wrong way pays for it:")
wrong = BatchOutcomeReport((truthful_report(model, 1),
                            ReportVector((0.05,)),   # strong (false) 'no'
                            truthful_report(model, 1)), outcome=1)
print(f"  agent 1 reward: {fpm_run(prior, wrong, rule).rewards[1]:+.6f}")

print("\nFairness: exact expected rewards when every agent finds a signal")
print("with the same probability q and reports truthfully.")
for q in (0.3, 0.7, 1.0):
    rewards = fpm_expected_reward(model, rule, [q, q, q])
    print(f"  q = {q:.1f}: E[reward] = {rewards[0]:.8f}  "
          f"(spread across agents {rewards.max() - rewards.min():.1e})")

print("\nMisreporting is strictly unprofitable (exact expectation):")
truthful_value = fpm_expected_reward(model, rule, [0.7, 0.7])[0]
for eps in (-0.1, -0.05, 0.05, 0.1):
    def shifted(signal, eps=eps):
        base = (ReportVector.no_signal(2) if signal is None
                else truthful_report(model, signal))
        b = min(max(base.entries[0] + eps, 1e-9), 1 - 1e-9)
        return ReportVector((b,))
    value = fpm_expected_reward(model, rule, [0.7, 0.7],
                                report_override={0: shifted})[0]
    print(f"  shift all report entries by {eps:+.2f}: "
          f"E[reward] drops by {truthful_value - value:.6f}")
