"""Estimating failure-model parameters from observed operation.

The paper's future work (section 7) proposes "online mechanisms to
continuously monitor service performance and other infrastructure
attributes to dynamically refine Aved's models".  The statistical core
of that loop is here: given observed failure counts and resource-hours
of exposure (from monitoring -- or from our simulator, which reports
both), produce MTBF estimates with confidence intervals and updated
failure-mode objects.

For exponential failures, the MLE of the rate is ``count / exposure``
and a two-sided confidence interval comes from the chi-square
distribution on ``2 * count`` (lower) and ``2 * count + 2`` (upper)
degrees of freedom -- the standard reliability-engineering interval,
valid for time-terminated observation.

``scipy.stats`` is imported inside the two estimators, not at module
level: this module loads with :mod:`repro.availability`, which every
design run imports, and no design run calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..errors import EvaluationError
from ..units import Duration
from .model import FailureModeEntry, TierAvailabilityModel
from .simulation import SimulationResult


@dataclass(frozen=True)
class MtbfEstimate:
    """An estimated MTBF with a two-sided confidence interval."""

    mode: str
    failures: int
    exposure_hours: float
    mtbf: Optional[Duration]          # None when no failures observed
    lower: Duration                   # CI lower bound on MTBF
    upper: Optional[Duration]         # None = unbounded (no failures)
    confidence: float

    def contains(self, true_mtbf: Duration) -> bool:
        if true_mtbf < self.lower:
            return False
        return self.upper is None or true_mtbf <= self.upper


def estimate_mtbf(mode: str, failures: int, exposure_hours: float,
                  confidence: float = 0.95) -> MtbfEstimate:
    """MTBF point estimate + chi-square CI from count and exposure."""
    if exposure_hours <= 0:
        raise EvaluationError("exposure must be positive")
    if failures < 0:
        raise EvaluationError("failure count cannot be negative")
    if not 0.0 < confidence < 1.0:
        raise EvaluationError("confidence must be in (0, 1)")
    import scipy.stats
    alpha = 1.0 - confidence
    # Rate CI: [chi2(alpha/2; 2k) / (2T), chi2(1-alpha/2; 2k+2) / (2T)]
    upper_rate = scipy.stats.chi2.ppf(1.0 - alpha / 2.0,
                                      2 * failures + 2) \
        / (2.0 * exposure_hours)
    mtbf_lower = Duration.hours(1.0 / upper_rate)
    if failures == 0:
        return MtbfEstimate(mode, 0, exposure_hours, None, mtbf_lower,
                            None, confidence)
    lower_rate = scipy.stats.chi2.ppf(alpha / 2.0, 2 * failures) \
        / (2.0 * exposure_hours)
    point = Duration.hours(exposure_hours / failures)
    mtbf_upper = Duration.hours(1.0 / lower_rate) if lower_rate > 0 \
        else None
    return MtbfEstimate(mode, failures, exposure_hours, point,
                        mtbf_lower, mtbf_upper, confidence)


@dataclass(frozen=True)
class MttrEstimate:
    """An estimated MTTR with a two-sided confidence interval.

    For exponential repairs the total repair time over ``k`` completed
    repairs is Gamma(k, MTTR), so ``2 * total / MTTR`` is chi-square on
    ``2k`` degrees of freedom -- the interval dual to the MTBF one (the
    observation here is *failure-terminated*: we stop at the k-th
    completed repair, not at a fixed clock time).
    """

    mode: str
    repairs: int
    repair_hours: float
    mttr: Optional[Duration]          # None when no repairs observed
    lower: Optional[Duration]         # None = no repairs observed
    upper: Optional[Duration]
    confidence: float

    def contains(self, true_mttr: Duration) -> bool:
        if self.mttr is None:
            return True                # no data contradicts nothing
        assert self.lower is not None and self.upper is not None
        return self.lower <= true_mttr <= self.upper


def estimate_mttr(mode: str, repairs: int, repair_hours: float,
                  confidence: float = 0.95) -> MttrEstimate:
    """MTTR point estimate + chi-square CI from count and total time."""
    if repairs < 0:
        raise EvaluationError("repair count cannot be negative")
    if repair_hours < 0:
        raise EvaluationError("total repair time cannot be negative")
    if not 0.0 < confidence < 1.0:
        raise EvaluationError("confidence must be in (0, 1)")
    if repairs == 0:
        return MttrEstimate(mode, 0, repair_hours, None, None, None,
                            confidence)
    if repair_hours == 0:
        raise EvaluationError("observed repairs with zero total time")
    import scipy.stats
    alpha = 1.0 - confidence
    # MTTR CI: [2T / chi2(1-a/2; 2k), 2T / chi2(a/2; 2k)]
    high = scipy.stats.chi2.ppf(1.0 - alpha / 2.0, 2 * repairs)
    low = scipy.stats.chi2.ppf(alpha / 2.0, 2 * repairs)
    point = Duration.hours(repair_hours / repairs)
    lower = Duration.hours(2.0 * repair_hours / high)
    upper = (Duration.hours(2.0 * repair_hours / low) if low > 0
             else Duration.hours(float("inf")))
    return MttrEstimate(mode, repairs, repair_hours, point, lower, upper,
                        confidence)


def estimates_from_simulation(model: TierAvailabilityModel,
                              result: SimulationResult,
                              confidence: float = 0.95) \
        -> Dict[str, MtbfEstimate]:
    """Per-mode MTBF estimates from a simulation's observed history.

    Exposure per mode: manned resource-hours, plus idle-spare hours for
    spare-susceptible modes -- mirroring which populations each mode's
    clock runs against in the simulator.
    """
    if result.mode_failures is None:
        raise EvaluationError("simulation result carries no per-mode "
                              "failure counts")
    estimates: Dict[str, MtbfEstimate] = {}
    for mode in model.modes:
        exposure = result.manned_hours
        if mode.spare_susceptible:
            exposure += result.idle_hours
        estimates[mode.name] = estimate_mtbf(
            mode.name, result.mode_failures.get(mode.name, 0), exposure,
            confidence)
    return estimates


def refine_modes(model: TierAvailabilityModel,
                 estimates: Mapping[str, MtbfEstimate],
                 min_failures: int = 10) -> TierAvailabilityModel:
    """A refined tier model with observed MTBFs substituted.

    Modes with fewer than ``min_failures`` observations keep their
    declared MTBF (the data cannot overrule the prior yet) -- the
    pragmatic version of the paper's model-refinement loop.
    """
    refined = []
    for mode in model.modes:
        estimate = estimates.get(mode.name)
        if estimate is None or estimate.mtbf is None \
                or estimate.failures < min_failures:
            refined.append(mode)
            continue
        refined.append(FailureModeEntry(
            mode.name, estimate.mtbf, mode.mttr, mode.failover_time,
            mode.spare_susceptible))
    return TierAvailabilityModel(model.name, n=model.n, m=model.m,
                                 s=model.s, modes=tuple(refined))
