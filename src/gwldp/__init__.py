"""Large-deviation rate functions for empirical means of Galton-Watson total progeny.

The library computes the Cramer rate functions attached to i.i.d.
replications of the total progeny of a subcritical branching process with a
random initial population, verifies the closed forms against independent
numerical conjugates, and estimates the predicted exponential decay rates by
Monte Carlo simulation.
"""

from .errors import (ConfigError, ConvergenceError, GwldpError,
                     HypothesisError, ParameterError, PopulationCapError,
                     TruncationError)
from .montecarlo import (EmpiricalRate, LdpScenario, ReplicationBlock,
                         TailRatioRow, Threshold, empirical_rate,
                         estimator_tail_ratio, replicate, sample_progeny)
from .offspring import (CgfEvaluator, LawKernel, Pmf, mean, mean_exact,
                        pgf_eval, pgf_exact, pmf_from_dict, pmf_from_family,
                        pmf_from_spec, pmf_to_spec)
from .progeny import (ProgenyModel, build_model, compound_pgf,
                      extinction_probability, progeny_mean,
                      total_progeny_pgf, total_progeny_pmf_dwass)
from .ratefn import (RateComparison, RateValue, cgf_of_pmf,
                     cgf_progeny_unit, compare_rates, legendre,
                     rate_bivariate, rate_bivariate_oracle,
                     rate_estimator_deterministic, rate_estimator_meaninit,
                     rate_estimator_ratio, rate_initial, rate_offspring,
                     rate_progeny_closed, rate_progeny_direct,
                     rate_progeny_marginal, ratio_rate_via_contraction)

__version__ = "0.1.0"

__all__ = [
    "CgfEvaluator", "ConfigError", "ConvergenceError", "EmpiricalRate",
    "GwldpError", "HypothesisError", "LawKernel", "LdpScenario",
    "ParameterError", "Pmf", "PopulationCapError", "ProgenyModel",
    "RateComparison", "RateValue", "ReplicationBlock", "TailRatioRow",
    "Threshold", "TruncationError", "build_model", "cgf_of_pmf",
    "cgf_progeny_unit", "compare_rates", "compound_pgf", "empirical_rate",
    "estimator_tail_ratio", "extinction_probability",
    "legendre", "mean", "mean_exact", "pgf_eval", "pgf_exact",
    "pmf_from_dict", "pmf_from_family", "pmf_from_spec", "pmf_to_spec",
    "progeny_mean", "rate_bivariate", "rate_bivariate_oracle",
    "rate_estimator_deterministic", "rate_estimator_meaninit",
    "rate_estimator_ratio", "rate_initial", "rate_offspring",
    "rate_progeny_closed", "rate_progeny_direct", "rate_progeny_marginal",
    "ratio_rate_via_contraction", "replicate", "sample_progeny",
    "total_progeny_pgf", "total_progeny_pmf_dwass",
]
