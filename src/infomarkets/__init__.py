"""Welfare-maximizing information markets.

A library for studying how market mechanisms elicit costly, timely
information from strategic agents: exact Bayesian belief aggregation,
proper-scoring-rule payments, a fair batch mechanism, a sequential
marginal-value mechanism, traditional prediction-market baselines, the
symmetric effort equilibria of all of them, and a Monte Carlo engine for
empirical deviation tests.
"""
from .belief import RATIO_CLAMP, ReportVector, apply_report, truthful_report
from .equilibrium import (LatencyFamily, batch_equilibrium, batch_welfare,
                          mvp_agent_reward, mvp_br_derivative,
                          mvp_equilibrium, mvp_principal_utility, mvp_welfare)
from .errors import CapacityError, NumericalError, ProtocolError
from .fpm import (BatchOutcomeReport, FpmResult, batch_from_json,
                  fpm_expected_reward, fpm_run, result_to_json)
from .info_model import (Belief, InformationModel, ScoreSequence,
                         expected_base_score, posterior, v_sequence)
from .montecarlo import (ReportPolicy, SimStats, StrategyProfile,
                         deviation_test, per_trial_records, simulate)
from .mvp import (MarketTrace, TimedReport, TimeValue, mvp_run,
                  reports_from_stream, time_value_mass, trace_dump_rows)
from .numerics import EquilibriumResult
from .pm_baseline import (AccessFunction, pm_batch_equilibrium,
                          pm_batch_utility, pm_batch_welfare,
                          pm_race_equilibrium)
from .scoring import ScoringRule, expected_score, score

__version__ = "0.1.0"

__all__ = [
    "AccessFunction", "BatchOutcomeReport", "Belief", "CapacityError",
    "EquilibriumResult", "FpmResult", "InformationModel", "LatencyFamily",
    "MarketTrace", "NumericalError", "ProtocolError", "RATIO_CLAMP",
    "ReportPolicy", "ReportVector", "ScoreSequence", "ScoringRule",
    "SimStats", "StrategyProfile", "TimeValue", "TimedReport",
    "apply_report", "batch_equilibrium", "batch_from_json", "batch_welfare",
    "deviation_test", "expected_base_score", "expected_score",
    "fpm_expected_reward", "fpm_run", "mvp_agent_reward",
    "mvp_br_derivative", "mvp_equilibrium", "mvp_principal_utility",
    "mvp_run", "mvp_welfare",
    "per_trial_records", "pm_batch_equilibrium", "pm_batch_utility",
    "pm_batch_welfare", "pm_race_equilibrium", "posterior",
    "reports_from_stream", "result_to_json", "score",
    "simulate", "time_value_mass", "trace_dump_rows", "truthful_report",
    "v_sequence",
]
