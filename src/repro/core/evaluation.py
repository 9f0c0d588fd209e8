"""Design evaluation: availability model generation, cost, job time.

This module implements the "Design Evaluation" half of the paper's
section 4: given a resolved :class:`~repro.core.design.Design`, it

* generates the numeric :class:`~repro.availability.TierAvailabilityModel`
  for each tier (section 4.2's n, m, s, MTBF_i, MTTR_i, FailoverTime_i),
* computes the design's annual cost,
* feeds the tier models to an availability engine and composes tiers in
  series, and
* for finite applications, derives the expected job completion time
  from the loss window, the tier failure rate, and the uptime fraction
  (Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..availability import (AvailabilityEngine, AvailabilityResult,
                            FailureModeEntry, JobTimeEstimate, MarkovEngine,
                            TierAvailabilityModel, estimate_job_time,
                            loss_window_seconds)
from ..cost import CostBreakdown, tier_cost
from ..errors import EvaluationError, ModelError
from ..model import (InfrastructureModel, JobRequirements, MechanismConfig,
                     OperationalMode, ResourceOption, ServiceModel,
                     ServiceRequirements)
from ..obs import current as _obs_current
from ..units import Duration, WorkAmount
from .design import Design, TierDesign


@dataclass(frozen=True)
class DesignEvaluation:
    """Everything the search needs to accept/reject/compare a design."""

    design: Design
    cost: CostBreakdown
    availability: AvailabilityResult
    job_time: Optional[JobTimeEstimate] = None

    @property
    def annual_cost(self) -> float:
        return self.cost.total

    @property
    def downtime_minutes(self) -> float:
        return self.availability.downtime_minutes

    def engines_used(self) -> Tuple[Tuple[str, str], ...]:
        """(tier, engine) pairs, from per-tier provenance records.

        Tiers evaluated by a plain engine (no provenance attached)
        are omitted; a resilient run reports every tier here.
        """
        return tuple((tier.name, tier.provenance.engine)
                     for tier in self.availability.tiers
                     if tier.provenance is not None)

    def meets(self, requirements) -> bool:
        """Does this design satisfy the given requirements object?"""
        if isinstance(requirements, ServiceRequirements):
            return (self.availability.annual_downtime
                    <= requirements.max_annual_downtime)
        if isinstance(requirements, JobRequirements):
            return (self.job_time is not None
                    and self.job_time.expected_time.is_finite()
                    and self.job_time.expected_time
                    <= requirements.max_execution_time)
        raise EvaluationError("unknown requirements type %r"
                              % type(requirements).__name__)


class DesignEvaluator:
    """Evaluates designs against an infrastructure + service model pair."""

    def __init__(self, infrastructure: InfrastructureModel,
                 service: ServiceModel,
                 engine: Optional[AvailabilityEngine] = None,
                 repair_crew: Optional[int] = None):
        """``repair_crew`` optionally bounds concurrent repairs per tier
        (None = the paper's implicit unlimited-staff assumption)."""
        self.infrastructure = infrastructure
        self.service = service
        self.engine = engine if engine is not None else MarkovEngine()
        self.repair_crew = repair_crew
        # Resolved failure-mode entries keyed by (resource, spare
        # prefix, mechanism combo) -- every input the entries depend
        # on.  Entries are frozen dataclasses, so sharing one tuple
        # across the many designs that differ only in (n, s) is safe
        # and skips re-deriving identical Duration arithmetic.
        self._mode_entry_cache: dict = {}
        self._tier_cost_cache: dict = {}

    # ------------------------------------------------------------------
    # Availability model generation (paper section 4.2)
    # ------------------------------------------------------------------

    def tier_model(self, tier_design: TierDesign,
                   required_throughput: Optional[float] = None) \
            -> TierAvailabilityModel:
        """Generate the numeric availability model for one tier design."""
        obs = _obs_current()
        if obs.enabled:
            with obs.span("model-gen", tier=tier_design.tier,
                          resource=tier_design.resource):
                return self._tier_model(tier_design, required_throughput)
        return self._tier_model(tier_design, required_throughput)

    def _tier_model(self, tier_design: TierDesign,
                    required_throughput: Optional[float]) \
            -> TierAvailabilityModel:
        resource = self.infrastructure.resource(tier_design.resource)
        m = self.minimum_active(tier_design, required_throughput)
        cache_key = (tier_design.resource,
                     tier_design.spare_active_prefix,
                     tuple(config.key
                           for config in tier_design.mechanism_configs))
        modes = self._mode_entry_cache.get(cache_key)
        if modes is None:
            spare_modes = resource.modes_for_prefix(
                tier_design.spare_active_prefix)
            modes = tuple(self.failure_mode_entries(
                resource, spare_modes,
                lambda failure: self._resolve_mttr(tier_design, failure)))
            self._mode_entry_cache[cache_key] = modes
        return TierAvailabilityModel(tier_design.tier,
                                     n=tier_design.n_active, m=m,
                                     s=tier_design.n_spare,
                                     modes=modes,
                                     repair_crew=self.repair_crew)

    def failure_mode_entries(self, resource,
                             spare_modes,
                             resolve_mttr) -> List[FailureModeEntry]:
        """Resolved failure-mode entries for a resource (section 4.2).

        ``resolve_mttr`` maps a component :class:`FailureMode` to its
        concrete repair :class:`Duration` -- the only mechanism-dependent
        input.  Shared between tier-model generation here and the static
        dominance prover (:mod:`repro.lint.space`), which sweeps
        mechanism combos without constructing tier designs; both must
        derive MTTR/failover vectors identically for the prover's
        certificates to be sound.
        """
        activation = resource.activation_time(spare_modes)
        modes: List[FailureModeEntry] = []
        for slot in resource.slots:
            component = self.infrastructure.component(slot.component)
            restart = resource.restart_time(slot.component)
            susceptible = (spare_modes[slot.component]
                           is OperationalMode.ACTIVE)
            for failure in component.failure_modes:
                repair = resolve_mttr(failure)
                mttr_total = failure.detect_time + repair + restart
                failover = (failure.detect_time + resource.reconfig_time
                            + activation)
                modes.append(FailureModeEntry(
                    name="%s.%s" % (slot.component, failure.name),
                    mtbf=failure.mtbf,
                    mttr=mttr_total,
                    failover_time=failover,
                    spare_susceptible=susceptible))
        return modes

    def minimum_active(self, tier_design: TierDesign,
                       required_throughput: Optional[float]) -> int:
        """The paper's ``m`` (section 4.2 item 2)."""
        option = self._option(tier_design)
        from ..model import FailureScope, Sizing
        if (option.sizing is Sizing.STATIC
                or option.failure_scope is FailureScope.TIER):
            return tier_design.n_active
        if required_throughput is None:
            raise EvaluationError(
                "tier %r has dynamic sizing; a throughput requirement is "
                "needed to compute m" % tier_design.tier)
        m = option.min_active_for(required_throughput)
        if m is None:
            raise EvaluationError(
                "tier %r cannot meet throughput %g with any allowed "
                "resource count" % (tier_design.tier, required_throughput))
        if m > tier_design.n_active:
            raise EvaluationError(
                "tier %r design has %d active resources but needs %d for "
                "throughput %g" % (tier_design.tier, tier_design.n_active,
                                   m, required_throughput))
        return m

    def _resolve_mttr(self, tier_design: TierDesign, failure) -> Duration:
        mechanism_name = failure.mttr_mechanism
        if mechanism_name is None:
            return failure.mttr
        config = tier_design.mechanism_config(mechanism_name)
        return config.duration_attribute("mttr")

    def _option(self, tier_design: TierDesign) -> ResourceOption:
        return self.service.tier(tier_design.tier).option_for(
            tier_design.resource)

    # ------------------------------------------------------------------
    # Cost
    # ------------------------------------------------------------------

    def tier_cost(self, tier_design: TierDesign) -> CostBreakdown:
        # Cost is a pure function of the design against the static
        # infrastructure; the search asks for the same design's cost
        # several times (prefetch filter, cost pruning, decision loop),
        # so memoize per design instance.
        cached = self._tier_cost_cache.get(tier_design)
        if cached is not None:
            return cached
        resource = self.infrastructure.resource(tier_design.resource)
        spare_modes = resource.modes_for_prefix(
            tier_design.spare_active_prefix)
        cost = tier_cost(self.infrastructure, resource,
                         tier_design.n_active, tier_design.n_spare,
                         spare_modes, tier_design.mechanism_configs)
        self._tier_cost_cache[tier_design] = cost
        return cost

    def design_cost(self, design: Design) -> CostBreakdown:
        total = None
        for tier_design in design.tiers:
            cost = self.tier_cost(tier_design)
            total = cost if total is None else total + cost
        return total

    # ------------------------------------------------------------------
    # Full evaluation
    # ------------------------------------------------------------------

    def availability(self, design: Design,
                     required_throughput: Optional[float] = None) \
            -> AvailabilityResult:
        models = [self.tier_model(tier_design, required_throughput)
                  for tier_design in design.tiers]
        return self.engine.evaluate(models)

    def evaluate(self, design: Design, requirements) -> DesignEvaluation:
        """Evaluate cost, availability and (for jobs) completion time."""
        obs = _obs_current()
        if obs.enabled:
            with obs.span("verify-design", tiers=len(design.tiers)):
                return self._evaluate(design, requirements)
        return self._evaluate(design, requirements)

    def _evaluate(self, design: Design, requirements) -> DesignEvaluation:
        throughput = (requirements.throughput
                      if isinstance(requirements, ServiceRequirements)
                      else None)
        cost = self.design_cost(design)
        availability = self.availability(design, throughput)
        job_time = None
        if self.service.is_finite_job:
            job_time = self.job_time(design, availability)
        return DesignEvaluation(design, cost, availability, job_time)

    # ------------------------------------------------------------------
    # Job completion time (paper section 4.2, Eq. 1)
    # ------------------------------------------------------------------

    def job_time(self, design: Design,
                 availability: Optional[AvailabilityResult] = None) \
            -> JobTimeEstimate:
        """Expected completion time of the service's finite job."""
        if not self.service.is_finite_job:
            raise EvaluationError("service %r is not a finite job"
                                  % self.service.name)
        if availability is None:
            availability = self.availability(design)

        tier_design, window = self._loss_window(design)
        option = self._option(tier_design)
        n = tier_design.n_active
        throughput = self.job_throughput(option, tier_design.tier, n)
        overhead = self.overhead_factor(option,
                                        _configs_by_name(tier_design), n)
        tier_mtbf = self.tier_model(tier_design).tier_mtbf()
        # A whole-job or work-unit window (paper footnote 1) converts
        # at the effective (overhead-adjusted) processing rate.
        loss_window = loss_window_seconds(window, self.service.job_size,
                                          throughput / overhead)
        return estimate_job_time(
            job_size=self.service.job_size,
            throughput_per_hour=throughput,
            overhead_factor=overhead,
            loss_window=Duration(loss_window),
            tier_mtbf=tier_mtbf,
            uptime_fraction=availability.availability)

    def job_throughput(self, option: ResourceOption, tier_name: str,
                       n_active: int) -> float:
        """Failure-free throughput of ``n_active`` resources; positive."""
        throughput = option.performance.throughput(n_active)
        if throughput <= 0:
            raise EvaluationError("tier %r has zero throughput at n=%d"
                                  % (tier_name, n_active))
        return throughput

    def _loss_window(self, design: Design) \
            -> Tuple[TierDesign, Optional[Union[Duration, WorkAmount]]]:
        """Locate the design's loss window and the tier that owns it.

        Exactly one tier may carry loss-window components; if none does,
        the first (single) tier is the compute tier and the loss window
        is "the whole job" (returned as None for the caller to derive).
        """
        owner: Optional[TierDesign] = None
        window = None
        for tier_design in design.tiers:
            if not self._has_loss_window(tier_design.resource):
                continue
            if owner is not None:
                raise EvaluationError(
                    "loss windows in multiple tiers (%r and %r) are "
                    "not supported" % (owner.tier, tier_design.tier))
            owner = tier_design
            window = self.tier_loss_window(tier_design.tier,
                                           tier_design.resource,
                                           _configs_by_name(tier_design))
        if owner is None:
            if len(design.tiers) != 1:
                raise EvaluationError(
                    "no loss window found and the design has several "
                    "tiers; cannot locate the compute tier")
            return design.tiers[0], None
        return owner, window

    def _has_loss_window(self, resource_name: str) -> bool:
        resource = self.infrastructure.resource(resource_name)
        return any(self.infrastructure.component(slot.component)
                   .loss_window is not None for slot in resource.slots)

    def tier_loss_window(self, tier_name: str, resource_name: str,
                         configs: Mapping[str, MechanismConfig]) \
            -> Optional[Union[Duration, WorkAmount]]:
        """The largest loss window of a tier's components (None if no
        component has one), resolving mechanism references against
        ``configs`` (mechanism name -> configuration)."""
        resource = self.infrastructure.resource(resource_name)
        window = None
        for slot in resource.slots:
            component = self.infrastructure.component(slot.component)
            if component.loss_window is None:
                continue
            value = component.loss_window
            mechanism_name = component.loss_window_mechanism
            if mechanism_name is not None:
                config = configs.get(mechanism_name)
                if config is None:
                    raise ModelError(
                        "tier %r design has no configuration for "
                        "mechanism %r" % (tier_name, mechanism_name))
                value = config.attribute("loss_window")
                if isinstance(value, str):
                    value = (WorkAmount.parse(value)
                             if value.endswith("u")
                             else Duration.parse(value))
            if window is not None and type(value) is not type(window):
                raise EvaluationError(
                    "cannot combine time and work-unit loss windows "
                    "in one design")
            if window is None or value > window:
                window = value
        return window

    def overhead_factor(self, option: ResourceOption,
                        configs: Mapping[str, MechanismConfig],
                        n_active: int) -> float:
        """Product of the configured mechanisms' execution slowdowns,
        in the option's mechanism order."""
        factor = 1.0
        for use in option.mechanisms:
            config = configs.get(use.mechanism)
            if config is None:
                continue
            factor *= use.overhead.factor(config.settings, n_active)
        return factor

    # ------------------------------------------------------------------
    # Mechanism bookkeeping for the search
    # ------------------------------------------------------------------

    def required_mechanisms(self, tier_name: str, resource_name: str) \
            -> Tuple[List[str], List[str]]:
        """Mechanisms a design for this tier/resource must configure.

        Returns ``(structural, performance)``: *structural* mechanisms
        change the availability model (component MTTRs); *performance*
        mechanisms change only loss windows / execution overhead, so
        the search can sweep them without re-solving availability.
        """
        option = self.service.tier(tier_name).option_for(resource_name)
        resource = self.infrastructure.resource(resource_name)
        structural: List[str] = []
        performance: List[str] = []
        for slot in resource.slots:
            component = self.infrastructure.component(slot.component)
            for failure in component.failure_modes:
                name = failure.mttr_mechanism
                if name is not None and name not in structural:
                    structural.append(name)
            lw_name = component.loss_window_mechanism
            if lw_name is not None and lw_name not in performance:
                performance.append(lw_name)
        for use in option.mechanisms:
            if (use.mechanism not in performance
                    and use.mechanism not in structural):
                performance.append(use.mechanism)
        # A mechanism that is both structural and performance is treated
        # as structural (availability must be re-solved when it moves).
        performance = [name for name in performance
                       if name not in structural]
        return structural, performance


def _configs_by_name(tier_design: TierDesign) \
        -> Dict[str, MechanismConfig]:
    return {config.name: config for config in tier_design.mechanism_configs}
