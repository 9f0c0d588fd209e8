"""Design-space search (paper section 4.1).

The search examines each tier in isolation: for every candidate
resource type it starts from the minimum resource count that meets the
performance requirement without failures, then adds resources one at a
time.  For each total it enumerates every split into active/spare, every
spare activation level, and every availability-mechanism configuration.
Once a feasible design is found, more expensive designs are rejected on
cost alone without evaluating availability (the paper's pruning rule);
the search for a resource type ends when even the cheapest conceivable
design at the next resource count costs more than the incumbent, or --
if nothing feasible has been found -- when availability degrades as
resources are added (then no feasible design exists in that direction).

Availability is solved one resource total at a time: every uncached
candidate structure of the total that clears the incumbent's cost is
handed to the engine as one *wavefront*
(:meth:`repro.availability.AvailabilityEngine.evaluate_tiers`), and
the serial decision loop then reads the results from the search's
memo (see ``docs/BATCHING.md``).

Two searches are provided:

* :class:`TierSearch` for enterprise tiers (throughput + downtime);
* :class:`JobSearch` for finite applications (expected execution time),
  which exploits the structural/performance mechanism split: the
  availability model is solved once per structure and the checkpoint
  parameter sweep reuses it in closed form.

Multi-tier designs are assembled from per-tier Pareto frontiers by
exact enumeration (:func:`combine_tier_frontiers`), which subsumes the
paper's incremental per-tier tightening.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..availability import (JobTimeEstimate, TierResult, job_time_seconds,
                            loss_window_seconds)
from ..cost import (CostBreakdown, fold_charges, mechanism_multiplier,
                    mechanism_reference_counts)
from ..errors import SearchError
from ..model import JobRequirements, MechanismConfig, ResourceOption
from ..obs import current as _obs_current
from ..units import Duration, MINUTES_PER_YEAR
from .design import Design, EvaluatedTierDesign, TierDesign
from .evaluation import DesignEvaluation, DesignEvaluator


@dataclass(frozen=True)
class SearchLimits:
    """Knobs bounding the design-space enumeration.

    ``max_redundancy`` bounds how many resources beyond the failure-free
    minimum are tried (extras + spares combined).  ``spare_policy``
    selects which spare activation levels are enumerated: ``"cold"``
    (all spare components inactive -- the paper's first example),
    ``"hot"`` (all active), or ``"all"`` (every dependency-respecting
    prefix).  ``patience`` is how many consecutive resource-count
    increases may degrade availability before the search gives up when
    no feasible design has been seen.  ``fixed_settings`` pins mechanism
    parameters (e.g. the paper's Fig. 7 fixes maintenance at bronze):
    mechanism name -> {parameter: value}; listed parameters are frozen,
    others still sweep.
    """

    max_redundancy: int = 8
    patience: int = 2
    spare_policy: str = "cold"
    max_spares: Optional[int] = None
    fixed_settings: Mapping[str, Mapping[str, object]] = \
        field(default_factory=dict)

    def __post_init__(self):
        if self.max_redundancy < 0:
            raise SearchError("max_redundancy cannot be negative")
        if self.patience < 1:
            raise SearchError("patience must be >= 1")
        if self.spare_policy not in ("cold", "hot", "all"):
            raise SearchError("spare_policy must be cold|hot|all, got %r"
                              % self.spare_policy)


@dataclass
class SearchStats:
    """Counters describing how much work a search did."""

    structures_enumerated: int = 0
    availability_evaluations: int = 0
    cost_pruned: int = 0
    #: Reads of a solve the search already had: solved by an earlier
    #: wavefront, read before, or carried over from a checkpoint.  The
    #: first read of a fresh wavefront solve is not a hit.
    cache_hits: int = 0
    job_time_evaluations: int = 0
    #: Availability solves carried over from a resumed checkpoint.
    resumed_evaluations: int = 0
    #: Whole tier frontiers reused from a resumed checkpoint.
    resumed_frontiers: int = 0
    #: Candidates skipped because the parallel runtime quarantined them.
    quarantined: int = 0
    #: Wavefronts dispatched to the parallel runtime's worker pool.
    parallel_batches: int = 0
    #: Candidate wavefronts solved (in process or across the pool).
    batched_wavefronts: int = 0
    #: Tier evaluations submitted in wavefronts, however each was
    #: served (solved, or read from a persistent cache).
    batched_solves: int = 0


class _TierSearchBase:
    """Shared enumeration machinery for both search flavors.

    ``checkpoint`` (a :class:`repro.resilience.SearchCheckpoint`)
    makes the search durable: every availability solve is recorded and
    periodically flushed to disk, and a search constructed with a
    resumed checkpoint replays prior solves as cache hits instead of
    re-paying for them.

    ``runtime`` (a
    :class:`repro.parallel.ParallelEvaluationRuntime`) supervises
    evaluation: with more than one job, each wavefront is fanned out
    across the worker pool in shape chunks; otherwise it is solved in
    process.  Either way the (unchanged, serial) decision logic
    consumes the results from the memo -- which is why ``jobs=N``
    reaches bit-identical designs to ``jobs=1``.  The runtime's cancel
    check runs before each wavefront.  Candidates the runtime
    quarantines evaluate to None and are skipped.

    :attr:`log` collects the engine's ``AVD802``/``AVD803`` events
    (stacked solves that fell back to the DFS chain builder).
    """

    def __init__(self, evaluator: DesignEvaluator,
                 limits: Optional[SearchLimits] = None,
                 checkpoint=None, runtime=None):
        from ..resilience.events import DegradationLog
        self.evaluator = evaluator
        self.limits = limits or SearchLimits()
        self.stats = SearchStats()
        self.checkpoint = checkpoint
        self.runtime = runtime
        self.log = DegradationLog()
        self._availability_cache: Dict[tuple, float] = {}
        #: Keys a wavefront solved that no decision loop has read yet.
        self._unread: set = set()
        #: Each mechanism's configurations, built and validated once.
        self._configs: Dict[str, List[MechanismConfig]] = {}
        #: Per-search memo of solved chains: (shape, rates) -> (u, f).
        self._chains: dict = {}
        if checkpoint is not None:
            self.stats.resumed_evaluations = checkpoint.seed_cache(
                self._availability_cache)

    # -- mechanism enumeration -----------------------------------------

    def _mechanism_configs(self, name: str) -> List[MechanismConfig]:
        configs = self._configs.get(name)
        if configs is not None:
            return configs
        mechanism = self.evaluator.infrastructure.mechanism(name)
        pinned = self.limits.fixed_settings.get(name, {})
        configs = []
        for config in mechanism.configurations():
            if all(config.settings.get(key) == value
                   for key, value in pinned.items()):
                configs.append(config)
        if not configs:
            raise SearchError(
                "fixed settings %r eliminate every configuration of "
                "mechanism %r" % (dict(pinned), name))
        self._configs[name] = configs
        return configs

    def _mechanism_combos(self, names: Sequence[str]) \
            -> List[Tuple[MechanismConfig, ...]]:
        if not names:
            return [()]
        pools = [self._mechanism_configs(name) for name in names]
        return [tuple(combo) for combo in itertools.product(*pools)]

    # -- spares ----------------------------------------------------------

    def _spare_prefixes(self, resource_name: str,
                        n_spare: int) -> List[Tuple[str, ...]]:
        if n_spare == 0:
            return [()]
        resource = self.evaluator.infrastructure.resource(resource_name)
        if self.limits.spare_policy == "cold":
            return [()]
        if self.limits.spare_policy == "hot":
            return [resource.activation_prefixes()[-1]]
        return resource.activation_prefixes()

    # -- cached availability -------------------------------------------

    def _tier_unavailability(self, tier_design: TierDesign,
                             load: Optional[float]) -> Optional[float]:
        """Unavailability of one structure, or None if quarantined."""
        key = self._structure_key(tier_design, load)
        if key in self._availability_cache:
            if key in self._unread:
                self._unread.discard(key)
            else:
                self.stats.cache_hits += 1
            return self._availability_cache[key]
        obs = _obs_current()
        if obs.enabled:
            with obs.span("tier-solve", tier=tier_design.tier,
                          resource=tier_design.resource,
                          n_active=tier_design.n_active,
                          n_spare=tier_design.n_spare, load=load):
                return self._tier_unavailability_miss(tier_design, load,
                                                      key)
        return self._tier_unavailability_miss(tier_design, load, key)

    def _tier_unavailability_miss(self, tier_design: TierDesign,
                                  load: Optional[float],
                                  key: tuple) -> Optional[float]:
        """The cache-miss path of :meth:`_tier_unavailability`."""
        if self.runtime is not None:
            if self.runtime.is_quarantined(key):
                self.stats.quarantined += 1
                return None
            model = self.evaluator.tier_model(tier_design, load)
            value = self.runtime.evaluate_candidate(key, model)
            self.stats.availability_evaluations += 1
            if value is None:
                self.stats.quarantined += 1
                return None
            self._availability_cache[key] = value
            if self.checkpoint is not None:
                self.checkpoint.record_evaluation(key, value)
            return value
        model = self.evaluator.tier_model(tier_design, load)
        result = self.evaluator.engine.evaluate_tier(model)
        self.stats.availability_evaluations += 1
        self._availability_cache[key] = result.unavailability
        if self.checkpoint is not None:
            self.checkpoint.record_evaluation(key, result.unavailability)
        return result.unavailability

    def _prefetch_structures(self, designs: Sequence[TierDesign],
                             load: Optional[float],
                             cost_cap: float) -> None:
        """Solve the structures the decision loop is about to need as
        one wavefront.

        Every not-yet-cached, not-quarantined structure whose cost
        clears ``cost_cap`` is solved -- across the worker pool in
        shape chunks when the runtime fans out, otherwise in process
        through the engine's ``evaluate_tiers`` -- and merged into the
        memo, so the serial decision loop that follows finds it there.
        ``cost_cap`` is the incumbent cost at wavefront start; since
        the incumbent only improves, the wavefront is always a
        superset of what a lazy loop would have evaluated --
        speculative work, never missing work.  Members whose solve
        errors are left out of the merge; if the decision loop
        actually reaches one, it is re-solved (and re-raises) alone,
        which keeps lazy error semantics.
        """
        runtime = self.runtime
        tasks = []
        seen = set()
        for design in designs:
            if self.evaluator.tier_cost(design).total > cost_cap:
                continue
            key = self._structure_key(design, load)
            if key in self._availability_cache or key in seen \
                    or (runtime is not None
                        and runtime.is_quarantined(key)):
                continue
            seen.add(key)
            tasks.append((key, self.evaluator.tier_model(design, load)))
        if not tasks:
            return
        if runtime is not None:
            runtime.check_cancel()
        obs = _obs_current()
        if obs.enabled:
            with obs.span("tier-solve", tier=designs[0].tier,
                          resource=designs[0].resource, load=load,
                          members=len(tasks)):
                merged = self._solve_wavefront(tasks)
        else:
            merged = self._solve_wavefront(tasks)
        self.stats.batched_wavefronts += 1
        self.stats.batched_solves += len(tasks)
        self.stats.availability_evaluations += len(tasks)
        self._availability_cache.update(merged)
        self._unread.update(merged)
        if self.checkpoint is not None:
            self.checkpoint.record_batch(merged.items())

    def _solve_wavefront(self, tasks) -> Dict[tuple, float]:
        """``{key: unavailability}`` for every member solved cleanly."""
        runtime = self.runtime
        if runtime is not None and runtime.parallel:
            # With a persistent tier-evaluation store on a plain cached
            # engine, probe it before paying for pool dispatch: warm
            # entries skip the pool entirely.
            probe = getattr(self.evaluator.engine, "cache_probe", None)
            merged: Dict[tuple, float] = {}
            remaining = tasks
            if probe is not None:
                remaining = []
                for key, model in tasks:
                    result = probe(model)
                    if result is not None:
                        merged[key] = result.unavailability
                    else:
                        remaining.append((key, model))
            if remaining:
                from ..batch import transport_shape_key
                merged.update(runtime.evaluate_batch(
                    remaining, grouper=transport_shape_key))
            self.stats.parallel_batches += 1
            return merged
        outcomes = self.evaluator.engine.evaluate_tiers(
            [model for _, model in tasks], chain_cache=self._chains,
            log=self.log)
        return {key: outcome.unavailability
                for (key, _), outcome in zip(tasks, outcomes)
                if isinstance(outcome, TierResult)}

    @staticmethod
    def _structure_key(tier_design: TierDesign,
                       load: Optional[float]) -> tuple:
        # TierDesign keeps its configurations sorted by (unique) name.
        return (tier_design.tier, tier_design.resource,
                tier_design.n_active, tier_design.n_spare,
                tier_design.spare_active_prefix,
                tuple(config.key
                      for config in tier_design.mechanism_configs),
                load)

    # -- structure enumeration --------------------------------------------

    def _splits(self, option: ResourceOption, n_min: int,
                total: int) -> List[Tuple[int, int]]:
        """All (n_active, n_spare) splits of ``total`` resources.

        Splits exceeding a component type's ``max_instances`` cap are
        excluded: every resource instance (active or spare) instantiates
        each of its components.
        """
        if total > self._max_total_resources(option.resource):
            return []
        allowed = set(option.active_counts())
        max_spares = (self.limits.max_spares
                      if self.limits.max_spares is not None
                      else total)
        splits = []
        for n_active in range(n_min, total + 1):
            n_spare = total - n_active
            if n_spare > max_spares:
                continue
            if n_active in allowed:
                splits.append((n_active, n_spare))
        return splits

    def _max_total_resources(self, resource_name: str) -> int:
        """Tightest component ``max_instances`` cap over the resource."""
        resource = self.evaluator.infrastructure.resource(resource_name)
        cap = math.inf
        for slot in resource.slots:
            component = self.evaluator.infrastructure.component(
                slot.component)
            if component.max_instances is not None:
                cap = min(cap, component.max_instances)
        return cap

    def _structures_for_total(self, tier_name: str,
                              option: ResourceOption,
                              structural: Sequence[str], n_min: int,
                              total: int) -> Iterator[TierDesign]:
        """Every candidate structure using exactly ``total`` resources.

        The single source of the (split x spare-prefix x mechanism)
        enumeration order; both the serial decision loops and the
        wavefront prefetch iterate it, which keeps them aligned.
        """
        for n_active, n_spare in self._splits(option, n_min, total):
            for prefix in self._spare_prefixes(option.resource, n_spare):
                for combo in self._mechanism_combos(structural):
                    yield TierDesign(tier_name, option.resource,
                                     n_active, n_spare, prefix, combo)

    def _min_cost_for_total(self, tier_name: str, option: ResourceOption,
                            structural: Sequence[str], n_min: int,
                            total: int) -> float:
        """Cheapest conceivable cost using ``total`` resources.

        Used for the paper's termination rule: once this exceeds the
        incumbent's cost, adding more resources cannot help.
        """
        best = math.inf
        for design in self._structures_for_total(tier_name, option,
                                                 structural, n_min, total):
            cost = self.evaluator.tier_cost(design).total
            if cost < best:
                best = cost
        return best


class TierSearch(_TierSearchBase):
    """Per-tier search for enterprise services (throughput + downtime)."""

    def enumerate_candidates(self, tier_name: str, load: float,
                             max_downtime: Optional[Duration] = None,
                             prune_cost_above: float = math.inf) \
            -> Iterator[EvaluatedTierDesign]:
        """Yield evaluated designs for one tier, cheapest totals first.

        When ``max_downtime`` is given the paper's termination rules
        apply; otherwise the enumeration is bounded only by
        ``max_redundancy`` (used for frontier construction).
        """
        tier = self.evaluator.service.tier(tier_name)
        for option in tier.options:
            yield from self._enumerate_option(tier_name, option, load,
                                              max_downtime,
                                              prune_cost_above)

    def _enumerate_option(self, tier_name: str, option: ResourceOption,
                          load: float, max_downtime: Optional[Duration],
                          prune_cost_above: float) \
            -> Iterator[EvaluatedTierDesign]:
        n_min = option.min_active_for(load)
        if n_min is None:
            return
        structural, _ = self.evaluator.required_mechanisms(
            tier_name, option.resource)
        best_cost = prune_cost_above
        found_feasible = False
        previous_best_downtime = math.inf
        degradations = 0
        target_minutes = (max_downtime.as_minutes
                          if max_downtime is not None else None)

        for extra in range(self.limits.max_redundancy + 1):
            total = n_min + extra
            if found_feasible:
                floor = self._min_cost_for_total(tier_name, option,
                                                 structural, n_min, total)
                if floor >= best_cost:
                    break
            designs = list(self._structures_for_total(
                tier_name, option, structural, n_min, total))
            self._prefetch_structures(designs, load, best_cost)
            best_downtime_this_total = math.inf
            for design in designs:
                self.stats.structures_enumerated += 1
                cost = self.evaluator.tier_cost(design).total
                if cost >= best_cost:
                    self.stats.cost_pruned += 1
                    continue
                unavailability = self._tier_unavailability(design, load)
                if unavailability is None:
                    continue  # quarantined by the parallel runtime
                downtime = unavailability * MINUTES_PER_YEAR
                best_downtime_this_total = min(
                    best_downtime_this_total, downtime)
                candidate = EvaluatedTierDesign(design, cost,
                                                unavailability)
                yield candidate
                if target_minutes is not None \
                        and downtime <= target_minutes:
                    found_feasible = True
                    best_cost = min(best_cost, cost)
            if target_minutes is not None and not found_feasible:
                if best_downtime_this_total >= previous_best_downtime:
                    degradations += 1
                    if degradations >= self.limits.patience:
                        break
                else:
                    degradations = 0
                previous_best_downtime = min(previous_best_downtime,
                                             best_downtime_this_total)

    def best_tier_design(self, tier_name: str, load: float,
                         max_downtime: Duration) \
            -> Optional[EvaluatedTierDesign]:
        """Minimum-cost design for one tier, or None if infeasible."""
        obs = _obs_current()
        if obs.enabled:
            with obs.span("tier-search", tier=tier_name, load=load,
                          mode="best"):
                return self._best_tier_design(tier_name, load,
                                              max_downtime)
        return self._best_tier_design(tier_name, load, max_downtime)

    def _best_tier_design(self, tier_name: str, load: float,
                          max_downtime: Duration) \
            -> Optional[EvaluatedTierDesign]:
        best: Optional[EvaluatedTierDesign] = None
        target = max_downtime.as_minutes
        for candidate in self.enumerate_candidates(tier_name, load,
                                                   max_downtime):
            if candidate.downtime_minutes <= target:
                if best is None or candidate.annual_cost < best.annual_cost:
                    best = candidate
        return best

    def tier_frontier(self, tier_name: str, load: float) \
            -> List[EvaluatedTierDesign]:
        """Pareto frontier (cost vs downtime) for one tier.

        Sorted by increasing cost / decreasing downtime; the first entry
        is the cheapest design at all, the last the most available one
        within the enumeration bounds.  With a checkpoint attached, a
        frontier this tier completed in a previous (interrupted) run is
        reused verbatim, and a freshly computed one is recorded.
        """
        obs = _obs_current()
        if obs.enabled:
            with obs.span("tier-search", tier=tier_name, load=load,
                          mode="frontier"):
                return self._tier_frontier(tier_name, load)
        return self._tier_frontier(tier_name, load)

    def _tier_frontier(self, tier_name: str, load: float) \
            -> List[EvaluatedTierDesign]:
        if self.checkpoint is not None:
            stored = self.checkpoint.frontier_for(
                tier_name, load, self.evaluator.infrastructure)
            if stored is not None:
                self.stats.resumed_frontiers += 1
                return stored
        frontier = pareto_filter(list(self.enumerate_candidates(
            tier_name, load)))
        if self.checkpoint is not None:
            self.checkpoint.store_frontier(tier_name, load, frontier)
        return frontier

    def best_within_budget(self, tier_name: str, load: float,
                           max_annual_cost: float) \
            -> Optional[EvaluatedTierDesign]:
        """The dual problem: minimize downtime within a cost budget.

        The paper optimizes cost subject to availability; procurement
        often runs the other way ("what is the most available design
        $50k buys?").  Returns the lowest-downtime frontier design not
        exceeding the budget, or None if even the cheapest
        load-carrying design costs more.
        """
        frontier = self.tier_frontier(tier_name, load)
        affordable = [candidate for candidate in frontier
                      if candidate.annual_cost
                      <= max_annual_cost + 1e-9]
        if not affordable:
            return None
        return min(affordable,
                   key=lambda candidate: (candidate.unavailability,
                                          candidate.annual_cost))


def pareto_filter(candidates: Sequence[EvaluatedTierDesign]) \
        -> List[EvaluatedTierDesign]:
    """Keep the non-dominated (cost, unavailability) candidates."""
    ordered = sorted(candidates,
                     key=lambda c: (c.annual_cost, c.unavailability))
    frontier: List[EvaluatedTierDesign] = []
    best_unavailability = math.inf
    for candidate in ordered:
        if candidate.unavailability < best_unavailability - 1e-15:
            frontier.append(candidate)
            best_unavailability = candidate.unavailability
    return frontier


def combine_tier_frontiers(
        frontiers: Sequence[List[EvaluatedTierDesign]],
        max_downtime: Duration,
        max_combinations: int = 2_000_000) -> Optional[Design]:
    """Assemble the min-cost multi-tier design from per-tier frontiers.

    Exact enumeration over the frontier product with branch-and-bound
    on cost; tiers compose in series
    (``1 - prod(1 - u_i) <= requirement``).
    """
    if not frontiers:
        raise SearchError("no tier frontiers to combine")
    if any(not frontier for frontier in frontiers):
        return None
    size = 1
    for frontier in frontiers:
        size *= len(frontier)
    if size > max_combinations:
        raise SearchError(
            "frontier product has %d combinations (> %d); tighten the "
            "search limits" % (size, max_combinations))

    target = max_downtime.as_minutes / MINUTES_PER_YEAR
    best_cost = math.inf
    best: Optional[Tuple[EvaluatedTierDesign, ...]] = None
    # Sort each frontier by cost so prefix sums can bound the search.
    sorted_frontiers = [sorted(frontier, key=lambda c: c.annual_cost)
                        for frontier in frontiers]
    min_cost_suffix = [min(c.annual_cost for c in frontier)
                       for frontier in sorted_frontiers]
    suffix_floor = [0.0] * (len(frontiers) + 1)
    for index in range(len(frontiers) - 1, -1, -1):
        suffix_floor[index] = suffix_floor[index + 1] + \
            min_cost_suffix[index]

    def recurse(index: int, cost_so_far: float, up_so_far: float,
                chosen: Tuple[EvaluatedTierDesign, ...]) -> None:
        nonlocal best_cost, best
        if cost_so_far + suffix_floor[index] >= best_cost:
            return
        if index == len(sorted_frontiers):
            if 1.0 - up_so_far <= target + 1e-15:
                best_cost = cost_so_far
                best = chosen
            return
        for candidate in sorted_frontiers[index]:
            cost = cost_so_far + candidate.annual_cost
            if cost + suffix_floor[index + 1] >= best_cost:
                break  # frontier sorted by cost: no cheaper entries left
            recurse(index + 1, cost,
                    up_so_far * (1.0 - candidate.unavailability),
                    chosen + (candidate,))

    recurse(0, 0.0, 1.0, ())
    if best is None:
        return None
    return Design(tuple(candidate.design for candidate in best))


def refine_tier_frontiers_greedy(
        frontiers: Sequence[List[EvaluatedTierDesign]],
        max_downtime: Duration) -> Optional[Design]:
    """The paper's incremental multi-tier refinement (section 4.1).

    Start from each tier's individually cheapest design; while the
    combined (series) downtime exceeds the requirement, "make the
    requirements for one tier incrementally more aggressive": advance
    the tier whose next Pareto step buys downtime at the lowest
    marginal cost.  Greedy, hence possibly suboptimal --
    :func:`combine_tier_frontiers` is the exact alternative; the search
    ablation benchmark compares them.
    """
    if not frontiers:
        raise SearchError("no tier frontiers to combine")
    if any(not frontier for frontier in frontiers):
        return None
    # Sort each frontier from cheapest/dirtiest to priciest/cleanest.
    ladders = [sorted(frontier, key=lambda c: c.annual_cost)
               for frontier in frontiers]
    indexes = [0] * len(ladders)
    target = max_downtime.as_minutes / MINUTES_PER_YEAR

    def combined(index_vector) -> float:
        up = 1.0
        for ladder, index in zip(ladders, index_vector):
            up *= 1.0 - ladder[index].unavailability
        return 1.0 - up

    while combined(indexes) > target + 1e-15:
        best_tier = -1
        best_marginal = math.inf
        current = combined(indexes)
        for tier_index, ladder in enumerate(ladders):
            if indexes[tier_index] + 1 >= len(ladder):
                continue
            trial = list(indexes)
            trial[tier_index] += 1
            reduction = current - combined(trial)
            step_cost = (ladder[trial[tier_index]].annual_cost
                         - ladder[indexes[tier_index]].annual_cost)
            if reduction <= 0:
                continue
            marginal = step_cost / reduction
            if marginal < best_marginal:
                best_marginal = marginal
                best_tier = tier_index
        if best_tier < 0:
            return None  # no tier can be tightened further
        indexes[best_tier] += 1
    return Design(tuple(ladder[index].design
                        for ladder, index in zip(ladders, indexes)))


class JobSearch(_TierSearchBase):
    """Search for finite applications (paper's scientific example).

    The service must have a single tier (the compute tier).  The
    availability model is solved once per structure (resource type,
    active/spare split, spare level, structural mechanisms); checkpoint
    parameters sweep in closed form on top of it.
    """

    def best_design(self, requirements: JobRequirements) \
            -> Optional[DesignEvaluation]:
        obs = _obs_current()
        if obs.enabled:
            with obs.span("job-search",
                          service=self.evaluator.service.name):
                return self._best_design(requirements)
        return self._best_design(requirements)

    def _best_design(self, requirements: JobRequirements) \
            -> Optional[DesignEvaluation]:
        service = self.evaluator.service
        if not service.is_finite_job:
            raise SearchError("service %r has no job size; use TierSearch"
                              % service.name)
        if len(service.tiers) != 1:
            raise SearchError("job search supports single-tier services")
        tier = service.tiers[0]
        best: Optional[DesignEvaluation] = None
        for option in tier.options:
            candidate = self._search_option(tier.name, option, requirements,
                                            best)
            if candidate is not None and (
                    best is None
                    or candidate.annual_cost < best.annual_cost):
                best = candidate
        return best

    # ------------------------------------------------------------------

    def _search_option(self, tier_name: str, option: ResourceOption,
                       requirements: JobRequirements,
                       incumbent: Optional[DesignEvaluation]) \
            -> Optional[DesignEvaluation]:
        n_min = self._min_active_for_deadline(option, requirements)
        if n_min is None:
            return None
        structural, performance = self.evaluator.required_mechanisms(
            tier_name, option.resource)
        perf_combos = self._mechanism_combos(performance)
        #: One settings table per structural mechanism combo.
        tables: Dict[Tuple[MechanismConfig, ...], _SettingTable] = {}
        best = incumbent
        best_time_previous = math.inf
        degradations = 0

        for extra in range(self.limits.max_redundancy + 1):
            total = n_min + extra
            if best is not None:
                floor = self._min_cost_for_total(tier_name, option,
                                                 structural, n_min, total)
                if floor >= best.annual_cost:
                    break
            structures = list(self._structures_for_total(
                tier_name, option, structural, n_min, total))
            # The structural design's cost lower-bounds every full
            # (structural + performance) design built on it, so this
            # cap keeps the prefetch a superset of the lazy solves.
            self._prefetch_structures(
                structures, None,
                best.annual_cost + _COST_TIE_EPSILON
                if best is not None else math.inf)
            best_time_this_total = math.inf
            for structure in structures:
                table = tables.get(structure.mechanism_configs)
                if table is None:
                    table = tables[structure.mechanism_configs] = \
                        _SettingTable(self.evaluator, option,
                                      structure, perf_combos)
                evaluation, best_time = self._evaluate_structure(
                    structure, table, requirements, best)
                best_time_this_total = min(best_time_this_total,
                                           best_time)
                if evaluation is not None:
                    best = evaluation
            if best is None or not self._meets(best, requirements):
                if best_time_this_total >= best_time_previous:
                    degradations += 1
                    if degradations >= self.limits.patience:
                        break
                else:
                    degradations = 0
                best_time_previous = min(best_time_previous,
                                         best_time_this_total)
        if best is not None and self._meets(best, requirements):
            return best
        return None

    @staticmethod
    def _meets(evaluation: DesignEvaluation,
               requirements: JobRequirements) -> bool:
        return (evaluation.job_time is not None
                and evaluation.job_time.expected_time.is_finite()
                and evaluation.job_time.expected_time
                <= requirements.max_execution_time)

    def _min_active_for_deadline(self, option: ResourceOption,
                                 requirements: JobRequirements) \
            -> Optional[int]:
        """Smallest n whose *failure-free, overhead-free* time meets the
        deadline -- the paper's starting point for the resource sweep."""
        job_size = self.evaluator.service.job_size
        hours = requirements.max_execution_time.as_hours
        needed = job_size / hours
        return option.min_active_for(needed)

    def _evaluate_structure(self, structure: TierDesign,
                            table: "_SettingTable",
                            requirements: JobRequirements,
                            incumbent: Optional[DesignEvaluation]) \
            -> Tuple[Optional[DesignEvaluation], float]:
        """Sweep one structure across every performance-mechanism setting.

        Returns (an evaluation improving on ``incumbent`` or None, best
        expected job time seen, in hours) -- the latter feeds the
        degradation-based termination rule.  "Improving" is
        lexicographic: lower cost wins; at equal cost, lower expected
        job time wins (the paper reports the *optimal* checkpoint
        configuration, not just any feasible one).

        The decision loop runs over plain floats from a
        :class:`_StructureSweep`; objects are built only for the
        setting that wins.
        """
        stats = self.stats
        stats.structures_enumerated += 1
        sweep = _StructureSweep(table, structure)
        limit = requirements.max_execution_time.as_seconds
        best_cost: Optional[float] = None
        best_seconds = math.inf
        if incumbent is not None:
            best_cost = incumbent.annual_cost
            if incumbent.job_time is not None:
                best_seconds = incumbent.job_time.expected_time.as_seconds
        availability = None
        winner = None
        best_time = math.inf

        for index, cost in enumerate(sweep.costs):
            if best_cost is not None \
                    and not cost <= best_cost + _COST_TIE_EPSILON:
                stats.cost_pruned += 1
                continue
            # Availability depends only on the structural part: the
            # first setting that clears pruning reads the structure's
            # solve, and every later one re-reads it.
            if availability is None:
                unavailability = self._tier_unavailability(structure, None)
                if unavailability is None:
                    # Quarantined structure: no setting can use it.
                    return None, best_time
                availability = self._as_result(structure.tier,
                                               unavailability)
            else:
                stats.cache_hits += 1
            outcome = sweep.job_seconds(index, availability.availability)
            stats.job_time_evaluations += 1
            seconds = outcome[0]
            if not math.isfinite(seconds):
                continue
            best_time = min(best_time, seconds / 3600.0)
            if seconds <= limit and _improves(cost, seconds, best_cost,
                                              best_seconds):
                best_cost, best_seconds = cost, seconds
                winner = (index, outcome)
        if winner is None:
            return None, best_time
        return sweep.evaluation(winner[0], availability,
                                *winner[1]), best_time

    @staticmethod
    def _as_result(tier_name: str, unavailability: float):
        from ..availability import AvailabilityResult, TierResult
        tier = TierResult(tier_name, unavailability)
        return AvailabilityResult((tier,), unavailability)


class _SettingTable:
    """Per-setting inputs of the job search's checkpoint sweep.

    Serves every structure of one resource option that shares a
    structural mechanism combo.  It holds what depends on the
    performance-mechanism setting: the setting's mechanism-cost total
    per resource total (the structural and performance charges folded
    in name order, as :func:`repro.cost.tier_cost` folds them), its
    overhead factor per ``n_active`` and its loss window.  Overheads
    and loss windows are computed at a setting's first evaluation, so
    one that raises aborts a search only when that setting is
    evaluated -- never when it is cost-pruned.  The structural and
    performance mechanism names are disjoint
    (:meth:`DesignEvaluator.required_mechanisms`), so no setting
    configures a mechanism twice.
    """

    def __init__(self, evaluator: DesignEvaluator, option: ResourceOption,
                 structure: TierDesign,
                 perf_combos: Sequence[Tuple[MechanismConfig, ...]]):
        self.evaluator = evaluator
        self.option = option
        self.tier_name = structure.tier
        self.structural = structure.mechanism_configs
        self.perf_combos = perf_combos
        fixed = {config.name: config for config in self.structural}
        #: Mechanism name -> configuration, per setting.
        self.configs: List[Dict[str, MechanismConfig]] = []
        for combo in perf_combos:
            configs = dict(fixed)
            configs.update((config.name, config) for config in combo)
            self.configs.append(configs)
        # Pruning needs every setting's cost, so costs resolve up
        # front: one that raises aborts the search, as pricing that
        # setting's design would.
        self._costs = [[config.cost() for config in combo]
                       for combo in perf_combos]
        self._order = sorted(self.configs[0])
        self._counts = mechanism_reference_counts(
            evaluator.infrastructure,
            evaluator.infrastructure.resource(option.resource))
        self._totals: Dict[int, List[float]] = {}
        self._overheads: Dict[int, List[Optional[float]]] = {}
        self._windows: List[object] = [_UNSET] * len(perf_combos)

    def mechanism_totals(self, total_resources: int) -> List[float]:
        """Each setting's mechanism cost for ``total_resources``."""
        totals = self._totals.get(total_resources)
        if totals is None:
            totals = self._totals[total_resources] = \
                self._fold(total_resources)
        return totals

    def _fold(self, total_resources: int) -> List[float]:
        counts = self._counts
        charges = {config.name: mechanism_multiplier(
            counts, config.name, total_resources) * config.cost()
            for config in self.structural}
        names = [config.name for config in self.perf_combos[0]]
        multipliers = [mechanism_multiplier(counts, name, total_resources)
                       for name in names]
        order = self._order
        totals = []
        for costs in self._costs:
            for name, multiplier, cost in zip(names, multipliers, costs):
                charges[name] = multiplier * cost
            totals.append(fold_charges([charges[name] for name in order]))
        return totals

    def overheads(self, n_active: int) -> List[Optional[float]]:
        """The (lazily filled) overhead factors at ``n_active``."""
        overheads = self._overheads.get(n_active)
        if overheads is None:
            overheads = self._overheads[n_active] = \
                [None] * len(self.configs)
        return overheads

    def window(self, index: int):
        """Setting ``index``'s loss window (None: the whole job)."""
        window = self._windows[index]
        if window is _UNSET:
            window = self._windows[index] = \
                self.evaluator.tier_loss_window(
                    self.tier_name, self.option.resource,
                    self.configs[index])
        return window


class _StructureSweep:
    """One structure's view of a :class:`_SettingTable`.

    ``costs[i]`` is setting ``i``'s annual cost, and :meth:`job_seconds`
    its Eq. 1 outcome; both are bit-identical to
    ``DesignEvaluator.design_cost`` and ``DesignEvaluator.job_time`` on
    the built design.  The structure's throughput and tier MTBF are
    derived once, at the first evaluated setting.
    """

    def __init__(self, table: "_SettingTable", structure: TierDesign):
        evaluator = table.evaluator
        self.table = table
        self.structure = structure
        self.base = evaluator.tier_cost(structure)
        self.mechanisms = table.mechanism_totals(structure.total_resources)
        floor = self.base.active_components + self.base.spare_components
        #: Each setting's annual cost (CostBreakdown.total's sum order).
        self.costs = [floor + mechanisms for mechanisms in self.mechanisms]
        self._overheads = table.overheads(structure.n_active)
        self._throughput: Optional[float] = None
        self._mtbf: Optional[float] = None

    def job_seconds(self, index: int, uptime: float) \
            -> Tuple[float, float, float, float]:
        """``(expected seconds, useful fraction, effective rate,
        overhead factor)`` of setting ``index``.

        Inputs are derived in the order ``DesignEvaluator.job_time``
        derives them, so an input that raises does so at the same
        setting, with the same error.
        """
        table = self.table
        evaluator = table.evaluator
        structure = self.structure
        window = table.window(index)
        throughput = self._throughput
        if throughput is None:
            throughput = self._throughput = evaluator.job_throughput(
                table.option, structure.tier, structure.n_active)
        overhead = self._overheads[index]
        if overhead is None:
            overhead = self._overheads[index] = evaluator.overhead_factor(
                table.option, table.configs[index], structure.n_active)
        mtbf = self._mtbf
        if mtbf is None:
            mtbf = self._mtbf = \
                evaluator.tier_model(structure).tier_mtbf().as_seconds
        job_size = evaluator.service.job_size
        seconds, fraction, effective = job_time_seconds(
            job_size, throughput, overhead,
            loss_window_seconds(window, job_size, throughput / overhead),
            mtbf, uptime)
        return seconds, fraction, effective, overhead

    def design(self, index: int) -> TierDesign:
        structure = self.structure
        return TierDesign(structure.tier, structure.resource,
                          structure.n_active, structure.n_spare,
                          structure.spare_active_prefix,
                          structure.mechanism_configs
                          + self.table.perf_combos[index])

    def evaluation(self, index: int, availability, seconds: float,
                   fraction: float, effective: float,
                   overhead: float) -> DesignEvaluation:
        """The full evaluation of setting ``index``."""
        cost = CostBreakdown(self.base.active_components,
                             self.base.spare_components,
                             self.mechanisms[index])
        job_time = JobTimeEstimate(Duration(seconds), fraction, overhead,
                                   availability.availability, effective)
        return DesignEvaluation(Design((self.design(index),)), cost,
                                availability, job_time)


_UNSET = object()
_COST_TIE_EPSILON = 1e-6


def _improves(cost: float, seconds: float, best_cost: Optional[float],
              best_seconds: float) -> bool:
    """Lexicographic (cost, expected job seconds) improvement test."""
    if best_cost is None:
        return True
    if cost < best_cost - _COST_TIE_EPSILON:
        return True
    if cost > best_cost + _COST_TIE_EPSILON:
        return False
    return seconds < best_seconds
