"""Every public entry point that takes an effort, a time, a delay or an index
refuses a value outside its domain with a ``ValueError`` naming the argument.

Efforts, report times and delays go through ``info_model._check_nonnegative``;
arrays of times through ``info_model._check_nonnegative_array``; outcome,
agent and signal indices, agent counts and ``report_override`` keys through
``info_model._check_count``.
"""
import math
import re

import pytest

from infomarkets import (AccessFunction, BatchOutcomeReport, InformationModel,
                         LatencyFamily, ReportPolicy, ReportVector, ScoreSequence,
                         ScoringRule, StrategyProfile, TimedReport, TimeValue,
                         batch_welfare, deviation_test, fpm_expected_reward, fpm_run,
                         mvp_agent_reward, mvp_br_derivative, mvp_principal_utility,
                         mvp_run, mvp_welfare, pm_batch_utility, pm_batch_welfare,
                         posterior, simulate, time_value_mass, truthful_report)

MODEL = InformationModel.binary_noisy(0.3, 0.2)
PRIOR = MODEL.prior_belief()
RULE = ScoringRule("quadratic")
REPORT = ReportVector((0.8,))
V = ScoreSequence([0.0, 1.0, 1.5])
ACCESS = AccessFunction.exponential(3.0)
LATENCY = LatencyFamily.exponential(1.0)
H = TimeValue.exponential(1.0)
TABLE_H = TimeValue.table([0.0, 1.0], [1.0, 1.0])
PROFILE = StrategyProfile.symmetric(0.2, 2)

#: what no effort, time or delay may be
NOT_NONNEGATIVE = [math.nan, math.inf, -math.inf, -1, True]
#: what no index may be, besides one past the end
NOT_AN_INDEX = [math.nan, math.inf, -math.inf, -1, True, 1.5]

#: site -> (argument name, one call with the argument set to x); each
#: refuses every value of NOT_NONNEGATIVE
NONNEGATIVE = {
    "AccessFunction.value": ("c", lambda x: ACCESS.value(x)),
    "AccessFunction.derivative": ("c", lambda x: ACCESS.derivative(x)),
    "LatencyFamily.cdf": ("c", lambda x: LATENCY.cdf(x, 1.0)),
    "LatencyFamily.dcdf_dc": ("c", lambda x: LATENCY.dcdf_dc(x, 1.0)),
    "batch_welfare": ("c", lambda x: batch_welfare(ACCESS, V, 2, x)),
    "pm_batch_utility x": ("x", lambda x: pm_batch_utility(ACCESS, 2, x, 0.1)),
    "pm_batch_utility c": ("c", lambda x: pm_batch_utility(ACCESS, 2, 0.1, x)),
    "pm_batch_welfare": ("c", lambda x: pm_batch_welfare(ACCESS, 2, x)),
    "mvp_br_derivative c_i": ("c_i", lambda x: mvp_br_derivative(LATENCY, H, V, 2, x, 0.1)),
    "mvp_br_derivative c": ("c", lambda x: mvp_br_derivative(LATENCY, H, V, 2, 0.1, x)),
    "mvp_welfare": ("c", lambda x: mvp_welfare(LATENCY, H, V, 2, x)),
    "mvp_agent_reward": ("c", lambda x: mvp_agent_reward(LATENCY, H, V, 2, x)),
    "mvp_principal_utility": ("c", lambda x: mvp_principal_utility(LATENCY, H, V, 2, x)),
    "StrategyProfile": ("efforts[1]", lambda x: StrategyProfile((0.2, x))),
    "StrategyProfile.symmetric": ("efforts[0]", lambda x: StrategyProfile.symmetric(x, 2)),
    "StrategyProfile.replace_agent": ("efforts[1]",
                                      lambda x: PROFILE.replace_agent(1, effort=x)),
    # a bool deviation is refused as neither a policy nor an effort
    "deviation_test effort": ("efforts[0]",
                              lambda x: deviation_test(MODEL, "fpm", PROFILE, 0, x, 10, 0,
                                                       rule=RULE, access=ACCESS)),
    "ReportPolicy": ("delay", lambda x: ReportPolicy("delayed", delay=x)),
    "TimedReport time": ("time", lambda x: TimedReport(0, x, REPORT)),
}

#: what no array of times may hold (each entry may be +inf)
NOT_NONNEGATIVE_ARRAY = [math.nan, -math.inf, -1, [0.5, math.nan], [[0.5], [-1.0]]]

#: site -> (argument name, one call with the argument set to x); each
#: refuses every value of NOT_NONNEGATIVE_ARRAY
NONNEGATIVE_ARRAY = {
    "time_value_mass a": ("a", lambda x: time_value_mass(H, x, math.inf)),
    "time_value_mass b": ("b", lambda x: time_value_mass(H, 0.0, x)),
    "TimeValue.density": ("t", lambda x: H.density(x)),
    "TimeValue.tail": ("t", lambda x: H.tail(x)),
    "table TimeValue.density": ("t", lambda x: TABLE_H.density(x)),
    "table TimeValue.tail": ("t", lambda x: TABLE_H.tail(x)),
    "LatencyFamily.cdf t": ("t", lambda x: LATENCY.cdf(0.2, x)),
    "LatencyFamily.dcdf_dc t": ("t", lambda x: LATENCY.dcdf_dc(0.2, x)),
}

#: site -> (argument name, one call with the argument set to x): an effort
#: above the 1/3 a linear access at rate 3 caps it at
LINEAR = {
    "linear AccessFunction.value": ("c", lambda x: AccessFunction.linear(3.0).value(x)),
    "linear simulate": ("efforts[1]",
                        lambda x: simulate(MODEL, "fpm", StrategyProfile((0.2, x)), 10, 0,
                                           rule=RULE, access=AccessFunction.linear(3.0))),
    "linear deviation_test": ("efforts[0]",
                              lambda x: deviation_test(MODEL, "pm_batch", PROFILE, 0, x, 10,
                                                       0, access=AccessFunction.linear(3.0))),
}

#: site -> (argument name, one call with the argument set to x, the first
#: value past the end or None); each refuses every value of NOT_AN_INDEX
INDEX = {
    "TimedReport agent": ("agent", lambda x: TimedReport(x, 1.0, REPORT), None),
    "fpm_run": ("outcome",
                lambda x: fpm_run(PRIOR, BatchOutcomeReport((REPORT,), x), RULE), 2),
    "mvp_run outcome": ("outcome", lambda x: mvp_run(PRIOR, [], x, RULE, H), 2),
    "mvp_run agent": ("agent", lambda x: mvp_run(PRIOR, [TimedReport(x, 1.0, REPORT)], 1,
                                                 RULE, H, num_agents=2), 2),
    "mvp_run num_agents": ("num_agents",
                           lambda x: mvp_run(PRIOR, [], 1, RULE, H, num_agents=x), None),
    "deviation_test deviant_agent": ("deviant_agent",
                                     lambda x: deviation_test(MODEL, "fpm", PROFILE, x, 0.1,
                                                              10, 0, rule=RULE,
                                                              access=ACCESS), 2),
    "StrategyProfile.replace_agent i": ("i", lambda x: PROFILE.replace_agent(x, effort=0.1), 2),
    "truthful_report": ("signal", lambda x: truthful_report(MODEL, x), 2),
    "posterior": ("signal", lambda x: posterior(MODEL, [0, x]), 2),
}

#: site -> (argument name, one call with the argument set to x): a
#: report_override key equal to an agent index but not an integer
OVERRIDE_KEY = {
    "fpm_expected_reward report_override": (
        "report_override key", lambda x: fpm_expected_reward(
            MODEL, RULE, [0.5, 0.5], report_override={x: lambda signal: REPORT})),
}

CASES = ([(site, x, "a finite nonnegative number") for site in NONNEGATIVE
          for x in NOT_NONNEGATIVE if not (site == "deviation_test effort" and x is True)]
         + [(site, 0.4, "a finite nonnegative number at most") for site in LINEAR]
         + [(site, x, "an integer of at least 0") for site, (_, _, end) in INDEX.items()
            for x in NOT_AN_INDEX + ([] if end is None else [end])]
         + [(site, x, "nonnegative in every entry") for site in NONNEGATIVE_ARRAY
            for x in NOT_NONNEGATIVE_ARRAY]
         + [(site, x, "an integer of at least 0") for site in OVERRIDE_KEY
            for x in (True, 1.0)])
SITES = {**NONNEGATIVE, **INDEX, **LINEAR, **NONNEGATIVE_ARRAY, **OVERRIDE_KEY}


@pytest.mark.parametrize("site, x, kind", CASES, ids=[f"{site}-{x!r}" for site, x, _ in CASES])
def test_out_of_domain_argument_is_refused_by_name(site, x, kind):
    name, call = SITES[site][:2]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be {kind}"):
        call(x)


@pytest.mark.parametrize("site", SITES)
def test_in_domain_argument_is_accepted(site):
    SITES[site][1](1 if site in INDEX or site in OVERRIDE_KEY else 0.25)


@pytest.mark.parametrize("site", NONNEGATIVE_ARRAY)
def test_infinite_time_is_accepted(site):
    SITES[site][1]([0.0, math.inf])


@pytest.mark.parametrize("c, expected", [(0.2, 0.0), (0.0, math.inf)])
def test_dcdf_dc_at_infinite_time_is_its_limit(c, expected):
    """d F_c(t) / d c = lam t exp(-lam c t) tends to 0 as t grows when c > 0."""
    assert LATENCY.dcdf_dc(c, math.inf) == expected
    assert LATENCY.dcdf_dc(c, [0.0, math.inf]).tolist() == [0.0, expected]


@pytest.mark.parametrize("keys, named", [(("a", 5), "['a', 5]"), ((10, 5), "[5, 10]")])
def test_report_override_keys_outside_the_agents_are_named(keys, named):
    """Sorted, by value where the keys compare and by ``repr`` where not."""
    with pytest.raises(ValueError, match=rf"^report_override names agents {re.escape(named)} "
                                         r"outside 0\.\.1$"):
        fpm_expected_reward(MODEL, RULE, [0.5, 0.5],
                            report_override={key: lambda signal: REPORT for key in keys})


@pytest.mark.parametrize("kind, field", [
    (kind, field) for field, own in (("epsilon", "perturbed"), ("delay", "delayed"))
    for kind in ("truthful", "perturbed", "delayed", "silent") if kind != own])
def test_policy_field_its_kind_never_reads_is_refused(kind, field):
    with pytest.raises(ValueError, match=rf"^the {kind} policy takes no {field}, got 0\.5$"):
        ReportPolicy(kind, **{field: 0.5})
