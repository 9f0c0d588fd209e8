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
    cache_hits: int = 0
    job_time_evaluations: int = 0
    #: Availability solves carried over from a resumed checkpoint.
    resumed_evaluations: int = 0
    #: Whole tier frontiers reused from a resumed checkpoint.
    resumed_frontiers: int = 0
    #: Candidates skipped because the parallel runtime quarantined them.
    quarantined: int = 0
    #: Prefetch batches dispatched to the parallel runtime.
    parallel_batches: int = 0
    #: Candidate wavefronts routed through the vectorized batch solver.
    batched_wavefronts: int = 0
    #: Tier evaluations solved through the vectorized batch solver.
    batched_solves: int = 0
    #: Candidates skipped because a static dominance certificate proved
    #: them no better than a probe that already missed the target.
    dominance_pruned: int = 0
    #: Probe solves spent establishing dominance-based skips.
    dominance_probes: int = 0
    #: Enumeration groups in which a probe's infeasibility pruned the
    #: dominated members.
    dominance_groups_pruned: int = 0


@dataclass(frozen=True)
class PrunedRegion:
    """Provenance of one dominance-pruned enumeration group (AVD506).

    Records exactly why a set of candidates was skipped without an
    availability solve: the ``probe`` (the group's provably-best
    mechanism combo) was evaluated, missed ``target_minutes``, and the
    ``lemma`` named here guarantees every combo in ``pruned`` is at
    least as bad.  Surfaced on
    :class:`repro.core.engine.DesignOutcome` as a lint report.
    """

    tier: str
    resource: str
    n_active: int
    n_spare: int
    spare_active_prefix: Tuple[str, ...]
    probe: str
    probe_downtime_minutes: float
    target_minutes: float
    pruned: Tuple[str, ...]
    lemma: str

    def describe(self) -> str:
        return ("%s/%s n=%d s=%d: probe %s at %.3f min/yr (> %.3f) "
                "prunes %d combo(s) [%s]"
                % (self.tier, self.resource, self.n_active, self.n_spare,
                   self.probe, self.probe_downtime_minutes,
                   self.target_minutes, len(self.pruned), self.lemma))


#: Slack added to the downtime target before a probe's infeasibility is
#: allowed to prune its group: guards engine-level float noise around
#: the mathematical bound downtime(member) >= downtime(probe).
_PRUNE_MARGIN_MINUTES = 1e-6


def _describe_combo(configs: Sequence[MechanismConfig]) -> str:
    return " + ".join(config.describe() for config in configs) or "(none)"


class _TierSearchBase:
    """Shared enumeration machinery for both search flavors.

    ``checkpoint`` (a :class:`repro.resilience.SearchCheckpoint`)
    makes the search durable: every availability solve is recorded and
    periodically flushed to disk, and a search constructed with a
    resumed checkpoint replays prior solves as cache hits instead of
    re-paying for them.

    ``runtime`` (a
    :class:`repro.parallel.ParallelEvaluationRuntime`) routes
    availability solves through supervised evaluation: with more than
    one job, each resource total's candidate structures are prefetched
    as a batch across the worker pool before the (unchanged, serial)
    decision logic consumes them from the cache -- which is why
    ``jobs=N`` reaches bit-identical designs to ``jobs=1``.
    Candidates the runtime quarantines evaluate to None and are
    skipped.  Without a runtime the legacy in-process path is used,
    byte for byte.
    """

    def __init__(self, evaluator: DesignEvaluator,
                 limits: Optional[SearchLimits] = None,
                 checkpoint=None, runtime=None, prune: bool = False,
                 batcher=None):
        """``prune`` enables static dominance pruning (TierSearch only):
        candidates a :class:`repro.lint.space.PruningCertificate` proves
        no better than an already-infeasible probe are skipped without
        an availability solve.  Sound only for deterministic,
        MTTR-monotone engines (Markov, analytic); callers gate it
        (see :class:`repro.core.engine.Aved`).  Off by default.

        ``batcher`` (a :class:`repro.batch.TierBatcher`, optional)
        routes each prefetch wavefront through the vectorized stacked
        solver instead of N scalar solves; results are bit-identical
        (see ``docs/BATCHING.md``), so enabling it never changes the
        designed outcome.  Callers gate it on engine support
        (:func:`repro.batch.batch_target`)."""
        self.evaluator = evaluator
        self.limits = limits or SearchLimits()
        self.stats = SearchStats()
        self.checkpoint = checkpoint
        self.runtime = runtime
        self.batcher = batcher
        self.prune = bool(prune)
        #: AVD506 provenance, one entry per pruned enumeration group.
        self.pruned_regions: List[PrunedRegion] = []
        self._certificates: Dict[Tuple[str, str], object] = {}
        self._availability_cache: Dict[tuple, float] = {}
        if checkpoint is not None:
            self.stats.resumed_evaluations = checkpoint.seed_cache(
                self._availability_cache)

    # -- mechanism enumeration -----------------------------------------

    def _mechanism_configs(self, name: str) -> List[MechanismConfig]:
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
        """Batch-solve the structures serial evaluation is about to need.

        Active when the runtime fans out (``jobs>1``), when a batcher
        is attached (``--batch``), or both: every not-yet-cached,
        not-quarantined structure whose cost clears ``cost_cap`` is
        solved as one wavefront -- dispatched across the pool,
        vectorized through the stacked solver, or pool-dispatched in
        shape-grouped chunks that the workers vectorize -- and merged
        into the availability cache, so the serial decision loop that
        follows finds pure cache hits.  ``cost_cap`` is the incumbent
        cost at batch start; since the incumbent only improves, the
        prefetched set is always a superset of what the serial loop
        would have evaluated lazily -- speculative work, never missing
        work.  Batched members whose solve errors are omitted from the
        merge; if the decision loop actually reaches one it re-solves
        (and re-raises) through the scalar path, preserving lazy error
        semantics.
        """
        runtime = self.runtime
        parallel = runtime is not None and runtime.parallel
        batcher = self.batcher
        if not parallel and batcher is None:
            return
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
        if parallel:
            # With a persistent tier-evaluation store on a plain cached
            # engine, probe it before paying for pool dispatch: warm
            # entries skip the pool entirely.  Stats bookkeeping stays
            # cache-state-independent (every task counts as an
            # evaluation and the batch still counts as a batch), so
            # cache-off, cold, and warm runs report identical search
            # statistics -- part of the byte-identical-outcome
            # contract.
            probe = getattr(self.evaluator.engine, "cache_probe", None)
            merged = {}
            if probe is not None:
                remaining = []
                for key, model in tasks:
                    result = probe(model)
                    if result is not None:
                        merged[key] = result.unavailability
                    else:
                        remaining.append((key, model))
                tasks_to_run = remaining
            else:
                tasks_to_run = tasks
            if tasks_to_run:
                grouper = None
                if batcher is not None:
                    from ..batch import transport_shape_key
                    grouper = transport_shape_key
                merged.update(runtime.evaluate_batch(tasks_to_run,
                                                     grouper=grouper))
            self.stats.parallel_batches += 1
            if batcher is not None:
                self.stats.batched_wavefronts += 1
                self.stats.batched_solves += len(tasks_to_run)
        else:
            # Serial batched path.  No cache_probe pre-loop here: the
            # batcher's solve_outcomes consults the store itself (one
            # get per model, the same count the scalar warm path
            # performs), so probing first would double every lookup.
            merged = batcher.solve_tasks(tasks)
            self.stats.batched_wavefronts += 1
            self.stats.batched_solves += len(tasks)
        self.stats.availability_evaluations += len(tasks)
        self._availability_cache.update(merged)
        if self.checkpoint is not None:
            self.checkpoint.record_batch(merged.items())

    @staticmethod
    def _structure_key(tier_design: TierDesign,
                       load: Optional[float]) -> tuple:
        mech_key = tuple(sorted(
            (config.name, tuple(sorted((k, str(v))
                                       for k, v in config.settings.items())))
            for config in tier_design.mechanism_configs))
        return (tier_design.tier, tier_design.resource,
                tier_design.n_active, tier_design.n_spare,
                tier_design.spare_active_prefix, mech_key, load)

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
        parallel prefetch iterate it, which keeps them aligned.
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
                             prune_cost_above: float = math.inf,
                             dominance_target: Optional[Duration] = None) \
            -> Iterator[EvaluatedTierDesign]:
        """Yield evaluated designs for one tier, cheapest totals first.

        When ``max_downtime`` is given the paper's termination rules
        apply; otherwise the enumeration is bounded only by
        ``max_redundancy`` (used for frontier construction).

        ``dominance_target`` feeds *only* the static dominance pruner
        (no effect unless the search was built with ``prune=True``):
        candidates provably above that downtime are skipped without a
        solve, while the paper's termination rules stay untouched.
        Frontier construction for exact multi-tier combination uses it
        with the service-level target -- a tier whose own downtime
        misses the target can never be part of a feasible series
        combination, so dropping it cannot change the optimum.
        """
        tier = self.evaluator.service.tier(tier_name)
        for option in tier.options:
            yield from self._enumerate_option(tier_name, option, load,
                                              max_downtime,
                                              prune_cost_above,
                                              dominance_target)

    def _enumerate_option(self, tier_name: str, option: ResourceOption,
                          load: float, max_downtime: Optional[Duration],
                          prune_cost_above: float,
                          dominance_target: Optional[Duration] = None) \
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
        prune_target = target_minutes
        if prune_target is None and dominance_target is not None:
            prune_target = dominance_target.as_minutes
        certificate = None
        # Pruning also requires an infinite starting cost cap: with a
        # finite one, a cost-pruned probe could leave the degradation
        # termination rule blind to downtimes the unpruned enumeration
        # would have seen (the probe-first argument needs the probe to
        # actually be solved whenever no incumbent exists yet).
        if self.prune and prune_target is not None \
                and math.isinf(prune_cost_above):
            certificate = self._pruning_certificate(tier_name, option,
                                                    structural)

        for extra in range(self.limits.max_redundancy + 1):
            total = n_min + extra
            if found_feasible:
                floor = self._min_cost_for_total(tier_name, option,
                                                 structural, n_min, total)
                if floor >= best_cost:
                    break
            designs = list(self._structures_for_total(
                tier_name, option, structural, n_min, total))
            skip: frozenset = frozenset()
            if certificate is not None:
                skip = self._dominance_skips(designs, certificate, load,
                                             prune_target, best_cost)
            self._prefetch_structures(
                [design for index, design in enumerate(designs)
                 if index not in skip], load, best_cost)
            best_downtime_this_total = math.inf
            for index, design in enumerate(designs):
                self.stats.structures_enumerated += 1
                if index in skip:
                    self.stats.dominance_pruned += 1
                    continue
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

    # -- static dominance pruning --------------------------------------

    def _pruning_certificate(self, tier_name: str, option: ResourceOption,
                             structural: Sequence[str]):
        """Build (once per tier/resource) the dominance certificate.

        The prover receives this search's own mechanism combos and
        spare prefixes, so the certificate is aligned with -- and
        verified against -- the exact enumeration order, including any
        ``fixed_settings`` pins.
        """
        key = (tier_name, option.resource)
        if key not in self._certificates:
            # Late import: repro.core.engine imports repro.lint at
            # module load, so the reverse edge must stay lazy.
            from ..lint.space import build_pruning_certificate
            self._certificates[key] = build_pruning_certificate(
                self.evaluator, tier_name, option,
                self._mechanism_combos(structural),
                self._spare_prefixes(option.resource, 1))
        return self._certificates[key]

    def _dominance_skips(self, designs: Sequence[TierDesign], certificate,
                         load: Optional[float], target_minutes: float,
                         best_cost: float) -> frozenset:
        """Indices of ``designs`` provably infeasible via the certificate.

        Per enumeration group (a contiguous run of mechanism combos at
        one split/prefix) the certificate's probe is solved first; if
        even the probe misses the target, the dominated members cannot
        meet it either (their downtime is >= the probe's by the
        certificate's lemma) and are skipped without a solve.  Order
        safety: skipped members are infeasible, so they can never
        update the incumbent (``found_feasible``/``best_cost``), and
        the probe -- always evaluated -- contributes the group's true
        minimum downtime to the degradation-based termination rule.
        """
        skip: set = set()
        size = certificate.combo_count
        if size < 2 or len(designs) % size != 0:
            return frozenset()
        from ..lint.canonical import combo_key
        aligned = tuple(combo_key(design.mechanism_configs)
                        for design in designs[:size])
        if aligned != certificate.combo_keys:
            return frozenset()
        for start in range(0, len(designs), size):
            anchor = designs[start]
            group = certificate.group_for(anchor.n_spare > 0,
                                          anchor.spare_active_prefix)
            if group is None:
                continue
            dominated = [start + offset for offset in group.dominated]
            if not any(self.evaluator.tier_cost(designs[index]).total
                       < best_cost for index in dominated):
                continue  # every skippable member is cost-pruned anyway
            probe = designs[start + group.least_index]
            self.stats.dominance_probes += 1
            unavailability = self._tier_unavailability(probe, load)
            if unavailability is None:
                continue  # quarantined: no bound established
            probe_downtime = unavailability * MINUTES_PER_YEAR
            if probe_downtime <= target_minutes + _PRUNE_MARGIN_MINUTES:
                continue  # probe feasible-ish: members must be examined
            skip.update(dominated)
            self.stats.dominance_groups_pruned += 1
            self.pruned_regions.append(PrunedRegion(
                tier=anchor.tier, resource=anchor.resource,
                n_active=anchor.n_active, n_spare=anchor.n_spare,
                spare_active_prefix=anchor.spare_active_prefix,
                probe=_describe_combo(probe.mechanism_configs),
                probe_downtime_minutes=probe_downtime,
                target_minutes=target_minutes,
                pruned=tuple(
                    _describe_combo(designs[index].mechanism_configs)
                    for index in dominated),
                lemma=group.lemma))
        return frozenset(skip)

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

    def tier_frontier(self, tier_name: str, load: float,
                      dominance_target: Optional[Duration] = None) \
            -> List[EvaluatedTierDesign]:
        """Pareto frontier (cost vs downtime) for one tier.

        Sorted by increasing cost / decreasing downtime; the first entry
        is the cheapest design at all, the last the most available one
        within the enumeration bounds.  With a checkpoint attached, a
        frontier this tier completed in a previous (interrupted) run is
        reused verbatim, and a freshly computed one is recorded.

        ``dominance_target`` (with ``prune=True``) statically drops
        candidates provably above that downtime -- sound for exact
        series combination against the same target, where such entries
        can never appear in a feasible combination.
        """
        obs = _obs_current()
        if obs.enabled:
            with obs.span("tier-search", tier=tier_name, load=load,
                          mode="frontier"):
                return self._tier_frontier(tier_name, load,
                                           dominance_target)
        return self._tier_frontier(tier_name, load, dominance_target)

    def _tier_frontier(self, tier_name: str, load: float,
                       dominance_target: Optional[Duration] = None) \
            -> List[EvaluatedTierDesign]:
        if self.checkpoint is not None:
            stored = self.checkpoint.frontier_for(
                tier_name, load, self.evaluator.infrastructure)
            if stored is not None:
                self.stats.resumed_frontiers += 1
                return stored
        pruned_before = self.stats.dominance_pruned
        candidates = list(self.enumerate_candidates(
            tier_name, load, dominance_target=dominance_target))
        frontier = pareto_filter(candidates)
        # A dominance-pruned frontier is target-specific (entries above
        # the target are missing), so it must not be recorded where a
        # later run with different flags would reuse it verbatim.
        if self.checkpoint is not None \
                and self.stats.dominance_pruned == pruned_before:
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
                evaluation, best_time = self._evaluate_structure(
                    tier_name, option, structure.n_active,
                    structure.n_spare, structure.spare_active_prefix,
                    structure.mechanism_configs, perf_combos,
                    requirements, best)
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

    def _evaluate_structure(self, tier_name: str, option: ResourceOption,
                            n_active: int, n_spare: int,
                            prefix: Tuple[str, ...],
                            structural_combo: Tuple[MechanismConfig, ...],
                            perf_combos: Sequence[Tuple[MechanismConfig,
                                                        ...]],
                            requirements: JobRequirements,
                            incumbent: Optional[DesignEvaluation]) \
            -> Tuple[Optional[DesignEvaluation], float]:
        """Evaluate one structure across all performance-mechanism combos.

        Returns (an evaluation improving on ``incumbent`` or None, best
        expected job time seen) -- the latter feeds the
        degradation-based termination rule.  "Improving" is
        lexicographic: lower cost wins; at equal cost, lower expected
        job time wins (the paper reports the *optimal* checkpoint
        configuration, not just any feasible one).
        """
        self.stats.structures_enumerated += 1
        evaluator = self.evaluator
        best_time = math.inf
        best_eval = incumbent

        for perf_combo in perf_combos:
            design = Design((TierDesign(tier_name, option.resource,
                                        n_active, n_spare, prefix,
                                        structural_combo + perf_combo),))
            cost = evaluator.design_cost(design)
            if not _may_improve(cost.total, best_eval):
                self.stats.cost_pruned += 1
                continue
            # Availability depends only on the structural part, so the
            # cached solve is shared across the performance sweep.
            unavailability = self._structural_unavailability(
                tier_name, option, n_active, n_spare, prefix,
                structural_combo)
            if unavailability is None:
                # Quarantined structure: no performance combo can use
                # it either, so the whole sweep is moot.
                return None, best_time
            availability = self._as_result(tier_name, unavailability)
            job_time = evaluator.job_time(design, availability)
            self.stats.job_time_evaluations += 1
            hours = job_time.expected_time.as_hours \
                if job_time.expected_time.is_finite() else math.inf
            best_time = min(best_time, hours)
            feasible = (job_time.expected_time.is_finite()
                        and job_time.expected_time
                        <= requirements.max_execution_time)
            if feasible:
                evaluation = DesignEvaluation(design, cost, availability,
                                              job_time)
                if _improves(evaluation, best_eval):
                    best_eval = evaluation
        if best_eval is incumbent:
            return None, best_time
        return best_eval, best_time

    def _structural_unavailability(self, tier_name: str,
                                   option: ResourceOption, n_active: int,
                                   n_spare: int, prefix: Tuple[str, ...],
                                   combo: Tuple[MechanismConfig, ...]) \
            -> Optional[float]:
        design = TierDesign(tier_name, option.resource, n_active, n_spare,
                            prefix, combo)
        return self._tier_unavailability(design, None)

    @staticmethod
    def _as_result(tier_name: str, unavailability: float):
        from ..availability import AvailabilityResult, TierResult
        tier = TierResult(tier_name, unavailability)
        return AvailabilityResult((tier,), unavailability)


_COST_TIE_EPSILON = 1e-6


def _may_improve(cost: float,
                 incumbent: Optional[DesignEvaluation]) -> bool:
    """Could a design at ``cost`` beat the incumbent lexicographically?"""
    if incumbent is None:
        return True
    return cost <= incumbent.annual_cost + _COST_TIE_EPSILON


def _improves(candidate: DesignEvaluation,
              incumbent: Optional[DesignEvaluation]) -> bool:
    """Lexicographic (cost, expected job time) improvement test."""
    if incumbent is None:
        return True
    if candidate.annual_cost < incumbent.annual_cost - _COST_TIE_EPSILON:
        return True
    if candidate.annual_cost > incumbent.annual_cost + _COST_TIE_EPSILON:
        return False
    if incumbent.job_time is None:
        return True
    return (candidate.job_time.expected_time
            < incumbent.job_time.expected_time)
