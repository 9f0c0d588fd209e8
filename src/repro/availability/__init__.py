"""Availability evaluation: tier models, engines, and the job-time model.

The numeric tier model (:class:`TierAvailabilityModel`) is generated by
the design evaluator (:mod:`repro.core.evaluation`) and consumed by any
of three interchangeable engines (Markov, analytic, simulation); tiers
compose in series.  :mod:`repro.availability.jobtime` implements the
paper's Eq. 1 for finite applications.
"""

from .ctmc import ContinuousTimeMarkovChain
from .engine import (ENGINE_NAMES, AnalyticEngine, AvailabilityEngine,
                     MarkovEngine, SimulationEngine, build_engine,
                     get_engine)
from .fit import (MtbfEstimate, MttrEstimate, estimate_mtbf,
                  estimate_mttr, estimates_from_simulation, refine_modes)
from .jobtime import (JobTimeEstimate, estimate_job_time,
                      failure_probability, mean_time_per_loss_window,
                      useful_fraction)
from .model import (AvailabilityResult, EngineProvenance, FailureModeEntry,
                    ModeResult, TierAvailabilityModel, TierResult)
from .rbd import (k_of_n_availability, k_of_n_identical,
                  parallel_availability, series_availability,
                  series_unavailability)
from .simulation import SimulationResult, TierSimulator, simulate_tier
from .transient import (availability_curve, interval_availability,
                        point_availability, time_to_steady_state,
                        transient_distribution,
                        transient_distributions)

__all__ = [
    "TierAvailabilityModel", "FailureModeEntry",
    "TierResult", "ModeResult", "AvailabilityResult", "EngineProvenance",
    "ContinuousTimeMarkovChain",
    "AvailabilityEngine", "MarkovEngine", "AnalyticEngine",
    "SimulationEngine", "ENGINE_NAMES", "build_engine", "get_engine",
    "series_availability", "series_unavailability",
    "parallel_availability", "k_of_n_availability", "k_of_n_identical",
    "failure_probability", "mean_time_per_loss_window", "useful_fraction",
    "JobTimeEstimate", "estimate_job_time",
    "TierSimulator", "SimulationResult", "simulate_tier",
    "transient_distribution", "transient_distributions",
    "point_availability",
    "availability_curve", "interval_availability",
    "time_to_steady_state",
    "MtbfEstimate", "MttrEstimate", "estimate_mtbf", "estimate_mttr",
    "estimates_from_simulation", "refine_modes",
]
