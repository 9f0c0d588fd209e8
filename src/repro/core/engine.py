"""The Aved engine facade (paper Fig. 1).

:class:`Aved` wires the pieces together: it takes the infrastructure
model, a service model, and a requirements object; validates the pair;
runs the appropriate search (tier search + frontier combination for
enterprise services, job search for finite applications); and returns
the minimum-cost design with its full evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from ..availability import AvailabilityEngine, MarkovEngine
from ..errors import InfeasibleError, ModelError, SearchError
from ..lint import Diagnostic, LintReport
from ..model import (InfrastructureModel, JobRequirements, ServiceModel,
                     ServiceRequirements, validate_pair)
from ..obs import current as _obs_current
from .design import Design
from .evaluation import DesignEvaluation, DesignEvaluator
from .search import (JobSearch, SearchLimits, SearchStats, TierSearch,
                     combine_tier_frontiers,
                     refine_tier_frontiers_greedy)


@dataclass(frozen=True)
class DesignOutcome:
    """The engine's output: the chosen design plus its evaluation.

    ``degradation`` reports the faults the run survived and how it
    got its result -- checkpoint resumption and failed saves
    (``AVD3xx``), parallel-runtime events such as worker crashes,
    quarantines, and pool restarts (``AVD4xx``), cache trouble
    (``AVD6xx``) and stacked solves re-run on the DFS chain builder
    (``AVD802``/``AVD803``); None when there was nothing to report.

    ``metrics`` is the run's :mod:`repro.obs` metrics snapshot (a
    plain nested dict -- counters, gauges, histograms); None unless an
    observer was installed (``repro design --metrics-out``,
    ``repro profile``, or :func:`repro.obs.observing`).  Its
    ``search.*`` counters mirror :attr:`stats` field for field.

    ``cache`` is the tier-evaluation store's per-run counter snapshot
    (hits, misses, writes, corrupt entries quarantined, ...); None
    when the run had no cache attached.  Cache trouble -- corruption,
    failed writes, degradation to off, a verification mismatch --
    additionally lands on ``degradation`` as ``AVD6xx`` diagnostics.
    """

    design: Design
    evaluation: DesignEvaluation
    stats: SearchStats
    degradation: Optional[LintReport] = None
    metrics: Optional[Mapping] = None
    cache: Optional[Mapping] = None

    @property
    def annual_cost(self) -> float:
        return self.evaluation.annual_cost

    @property
    def downtime_minutes(self) -> float:
        return self.evaluation.downtime_minutes

    @property
    def degraded(self) -> bool:
        """True when the run reported any degradation event."""
        return self.degradation is not None and len(self.degradation) > 0

    def summary(self) -> str:
        from .report import outcome_summary
        return outcome_summary(self)


class Aved:
    """Automated system design engine for availability (the paper's Aved).

    >>> from repro.spec.paper import paper_infrastructure, ecommerce_service
    >>> from repro.model import ServiceRequirements
    >>> from repro.units import Duration
    >>> engine = Aved(paper_infrastructure(), ecommerce_service())
    >>> outcome = engine.design(ServiceRequirements(
    ...     throughput=1000, max_annual_downtime=Duration.minutes(100)))
    """

    def __init__(self, infrastructure: InfrastructureModel,
                 service: ServiceModel,
                 availability_engine: Optional[AvailabilityEngine] = None,
                 limits: Optional[SearchLimits] = None,
                 combination: str = "exact",
                 repair_crew: Optional[int] = None,
                 lint: str = "warn",
                 checkpoint=None,
                 jobs: Optional[int] = None,
                 task_timeout: Optional[float] = None,
                 parallel=None,
                 cache=None,
                 cache_verify: bool = False):
        """``combination`` picks the multi-tier assembly strategy:
        ``"exact"`` (branch-and-bound over the frontier product) or
        ``"greedy"`` (the paper's incremental per-tier tightening).
        ``repair_crew`` optionally bounds concurrent repairs per tier.

        ``checkpoint`` (a :class:`repro.resilience.SearchCheckpoint`)
        makes searches durable: progress snapshots to disk as the
        search runs, and a checkpoint loaded from a previous
        interrupted run resumes instead of restarting.

        ``jobs`` enables the supervised evaluation runtime
        (:mod:`repro.parallel`): ``jobs > 1`` fans availability solves
        out across a worker pool (deterministically -- the resulting
        :class:`DesignOutcome` is identical to a serial run);
        ``jobs=1`` supervises in-process (cancel checks, and retry and
        poison quarantine for a candidate whose wavefront solve
        failed; no pool); the default None runs unsupervised.
        ``task_timeout`` is the per-candidate wall-clock budget in
        seconds (requires ``jobs``).  A
        pre-built :class:`repro.parallel.ParallelEvaluationRuntime`
        can be injected via ``parallel`` instead (the caller then owns
        its lifecycle); runtimes the engine builds itself are closed
        when :meth:`design` returns.

        ``lint`` controls the static-analysis pass that runs before any
        search: ``"warn"`` (default) stores findings on
        :attr:`lint_report`; ``"error"`` additionally raises
        :class:`~repro.errors.ModelError` when any error-severity
        finding exists; ``"off"`` skips the pass (``lint_report`` is
        None).  Gating reference checks (:func:`validate_pair`) always
        run regardless.

        ``cache`` attaches a persistent tier-evaluation store
        (:mod:`repro.cache`): a directory path or a pre-opened
        :class:`~repro.cache.TierEvaluationStore`.  Deterministic
        engines then serve repeat solves from disk; a warm cache
        reaches the same :class:`DesignOutcome` as a cold or cache-off
        run.
        ``cache_verify`` additionally re-solves a seeded sample of
        cache hits after the search and quarantines the whole store on
        any divergence (``AVD604``) -- the paranoid mode for stores on
        untrusted media.
        """
        validate_pair(infrastructure, service)
        if combination not in ("exact", "greedy"):
            raise SearchError("combination must be 'exact' or 'greedy', "
                              "got %r" % combination)
        if lint not in ("off", "warn", "error"):
            raise SearchError("lint must be 'off', 'warn', or 'error', "
                              "got %r" % lint)
        self.lint_report = None
        if lint != "off":
            from ..lint import lint_pair
            self.lint_report = lint_pair(infrastructure, service)
            if lint == "error" and self.lint_report.has_errors:
                raise ModelError(
                    "lint found %d error(s) in the model pair:\n  - %s"
                    % (len(self.lint_report.errors),
                       "\n  - ".join(d.format()
                                     for d in self.lint_report.errors)))
        if jobs is not None and jobs < 1:
            raise SearchError("jobs must be >= 1, got %r" % (jobs,))
        if task_timeout is not None and jobs is None and parallel is None:
            raise SearchError("task_timeout requires jobs")
        self.infrastructure = infrastructure
        self.service = service
        self.limits = limits or SearchLimits()
        self.combination = combination
        self.checkpoint = checkpoint
        self.evaluator = DesignEvaluator(
            infrastructure, service,
            availability_engine if availability_engine is not None
            else MarkovEngine(),
            repair_crew=repair_crew)
        if cache_verify and cache is None:
            raise SearchError("cache_verify requires a cache")
        self.cache_store = None
        self.cache_verify = cache_verify
        if cache is not None:
            from ..cache import TierEvaluationStore, attach_cache
            store = (cache if isinstance(cache, TierEvaluationStore)
                     else TierEvaluationStore(str(cache)))
            if cache_verify and store.verify_sample <= 0:
                store.verify_sample = 8
            self.cache_store = store
            self.evaluator.engine = attach_cache(self.evaluator.engine,
                                                 store)
        self.parallel = parallel
        self._owns_runtime = False
        if parallel is None and jobs is not None:
            from ..parallel import make_runtime
            self.parallel = make_runtime(self.evaluator.engine, jobs,
                                         task_timeout=task_timeout)
            self._owns_runtime = True

    # ------------------------------------------------------------------

    def design(self, requirements) -> DesignOutcome:
        """Find the minimum-cost design satisfying ``requirements``.

        Raises :class:`InfeasibleError` when no design in the modeled
        space satisfies them.
        """
        obs = _obs_current()
        if obs.enabled:
            with obs.span("design", service=self.service.name,
                          requirements=requirements.describe()
                          if hasattr(requirements, "describe")
                          else str(requirements)):
                return self._design(requirements)
        return self._design(requirements)

    def _design(self, requirements) -> DesignOutcome:
        try:
            if isinstance(requirements, ServiceRequirements):
                return self._design_service(requirements)
            if isinstance(requirements, JobRequirements):
                return self._design_job(requirements)
        finally:
            # A crashed search keeps its progress: whatever was
            # recorded since the last autosave hits the disk here.
            if self.checkpoint is not None:
                self.checkpoint.flush()
            if self.parallel is not None and self._owns_runtime:
                self.parallel.close()
        raise SearchError("unsupported requirements type %r"
                          % type(requirements).__name__)

    def _degradation_report(self, search) -> Optional[LintReport]:
        """Collect the runtime's record of this run.

        Drains the search's solver log and the parallel-runtime, cache
        and checkpoint logs, and notes checkpoint resumption.  Returns
        None when none of them has anything to report, so plain runs
        stay report-free.
        """
        report = LintReport()
        report.extend(search.log.to_lint_report())
        if self.parallel is not None:
            report.extend(self.parallel.drain_log().to_lint_report())
        if self.cache_store is not None:
            # Drained store-side (not via the engine wrapper): worker
            # copies of the wrapper share the one store, and its log
            # must be reported exactly once.
            report.extend(self.cache_store.drain_log().to_lint_report())
        drain_checkpoint = getattr(self.checkpoint, "drain_log", None)
        if drain_checkpoint is not None:
            report.extend(drain_checkpoint().to_lint_report())
        if self.checkpoint is not None and self.checkpoint.resumed:
            report.add(Diagnostic.new(
                "AVD308",
                "resumed from checkpoint: %d prior solve(s), %d "
                "completed frontier(s) reused"
                % (self.checkpoint.resumed_evaluations,
                   len(self.checkpoint.completed_tiers))))
        return report if len(report) else None

    def _outcome(self, design: Design, evaluation: DesignEvaluation,
                 search) -> DesignOutcome:
        """Assemble the outcome: degradation report + metrics snapshot.

        With an observer installed, the search's own counters are
        mirrored into the registry (``search.*``) just before the
        snapshot, so the outcome's metrics always agree with its
        ``stats`` -- the invariant the observability tests pin.
        """
        stats = search.stats
        self._verify_cache()
        degradation = self._degradation_report(search)
        metrics = None
        obs = _obs_current()
        if obs.enabled:
            obs.metrics.publish_search_stats(stats)
            metrics = obs.metrics.snapshot()
        cache = (self.cache_store.snapshot()
                 if self.cache_store is not None else None)
        return DesignOutcome(design, evaluation, stats,
                             degradation=degradation, metrics=metrics,
                             cache=cache)

    def _verify_cache(self) -> None:
        """Paranoid mode (``cache_verify``): re-solve sampled hits.

        Delegated to :func:`repro.cache.verify_sampled_hits`; a
        divergence quarantines the whole store, and the resulting
        ``AVD604`` event reaches the outcome via the store's
        degradation log (drained next in :meth:`_degradation_report`).
        """
        if self.cache_store is None or not self.cache_verify:
            return
        from ..cache import verify_sampled_hits
        verify_sampled_hits(self.cache_store, self.evaluator.engine)

    # ------------------------------------------------------------------

    def _design_service(self, requirements: ServiceRequirements) \
            -> DesignOutcome:
        search = TierSearch(self.evaluator, self.limits,
                            checkpoint=self.checkpoint,
                            runtime=self.parallel)
        tier_names = [tier.name for tier in self.service.tiers]

        if len(tier_names) == 1:
            best = search.best_tier_design(tier_names[0],
                                           requirements.throughput,
                                           requirements.max_annual_downtime)
            if best is None:
                raise InfeasibleError(
                    "no design meets %s" % requirements.describe())
            design = Design((best.design,))
        else:
            # Per-tier Pareto frontiers, then series combination.
            frontiers: List = []
            for name in tier_names:
                frontier = search.tier_frontier(name,
                                                requirements.throughput)
                if not frontier:
                    raise InfeasibleError(
                        "tier %r cannot carry load %g"
                        % (name, requirements.throughput))
                frontiers.append(frontier)
            obs = _obs_current()
            if obs.enabled:
                with obs.span("combine-frontiers", tiers=len(frontiers),
                              strategy=self.combination):
                    design = self._combine(frontiers, requirements)
            else:
                design = self._combine(frontiers, requirements)
            if design is None:
                raise InfeasibleError(
                    "no tier combination meets %s"
                    % requirements.describe())

        evaluation = self.evaluator.evaluate(design, requirements)
        if not evaluation.meets(requirements):
            raise InfeasibleError(
                "search result fails verification against %s"
                % requirements.describe(), best_infeasible=evaluation)
        return self._outcome(design, evaluation, search)

    def _combine(self, frontiers: List, requirements: ServiceRequirements):
        if self.combination == "greedy":
            return refine_tier_frontiers_greedy(
                frontiers, requirements.max_annual_downtime)
        return combine_tier_frontiers(
            frontiers, requirements.max_annual_downtime)

    def _design_job(self, requirements: JobRequirements) -> DesignOutcome:
        search = JobSearch(self.evaluator, self.limits,
                           checkpoint=self.checkpoint,
                           runtime=self.parallel)
        evaluation = search.best_design(requirements)
        if evaluation is None:
            raise InfeasibleError(
                "no design meets %s" % requirements.describe())
        return self._outcome(evaluation.design, evaluation, search)
