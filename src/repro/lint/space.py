"""Static analysis of the declared candidate space -- before any solve.

The design search (paper section 4.1) enumerates, per tier and
resource option, every (active/spare split) x (spare activation
prefix) x (structural mechanism combo).  Everything this module
derives about that space is *static*: no availability engine is ever
invoked.  Three artifacts come out:

* **Equivalence classes** -- how many of the enumerated structures are
  availability-distinct, via the content-addressed canonical keys of
  :mod:`repro.lint.canonical` (the cache-key machinery of ROADMAP
  item 1);
* **Dominance certificates** -- provable partial orders between
  mechanism combos (:class:`PruningCertificate`), whose coverage the
  report counts (``AVD505``);
* **A feasibility report** -- exact cardinality, empty or provably
  unreachable regions given the requirements, redundant dimensions,
  and contradictory fixed settings, as ``AVD5xx`` diagnostics
  (``repro lint --space``).

Dominance lemma (documented in ``docs/STATIC_ANALYSIS.md``, verified
by the property suite): with ``(n, m, s)``, every MTBF, and -- when
``s > 0`` -- every mode's failover regime held fixed, steady-state
tier unavailability under the deterministic engines (Markov, analytic)
is nondecreasing in each mode's MTTR.  Hence a combo whose per-mode
MTTR vector is pointwise minimal ("probe", e.g. a platinum maintenance
contract) lower-bounds the downtime of every combo it dominates: if
even the probe misses the downtime target, the dominated combos are
infeasible without being evaluated.  The regime condition guards the
paper's failover-rule discontinuity (``mttr > failover_time`` flips
the model structure).  The search itself does not skip candidates on
these certificates: solved in stacked wavefronts, the probes would
cost more than the solves they save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..availability import FailureModeEntry
from ..errors import EvaluationError, SearchError
from ..model import (FailureMode, InfrastructureModel, MechanismConfig,
                     ResourceOption, ResourceType, ServiceModel)
from ..units import MINUTES_PER_YEAR, Duration
from .canonical import canonical_key, combo_key
from .diagnostics import Diagnostic, LintReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> lint)
    from ..core.evaluation import DesignEvaluator
    from ..core.search import SearchLimits

#: Lemma identifiers recorded in certificates.
LEMMA_IN_PLACE = "mttr-monotone/in-place"
LEMMA_SPARES = "mttr-monotone/fixed-failover-regime"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupCertificate:
    """Provable dominance inside one enumeration group.

    A *group* is the contiguous run of structural mechanism combos the
    search enumerates at one fixed (active/spare split, spare prefix);
    its dominance structure depends only on whether spares exist
    (``spares``) and, when they do, on the activation ``prefix`` -- not
    on the split itself.  ``least_index`` is the probe -- the combo
    whose per-mode MTTR vector is pointwise <= every combo in
    ``dominated`` (indices into the owning certificate's
    ``combo_keys``).
    """

    resource: str
    prefix: Tuple[str, ...]
    spares: bool
    least_index: int
    dominated: Tuple[int, ...]
    lemma: str


@dataclass(frozen=True)
class PruningCertificate:
    """All dominance certificates for one (tier, resource option).

    ``combo_keys`` content-addresses the combos in enumeration order
    (:func:`repro.lint.canonical.combo_key`).  ``groups`` is keyed by
    ``(spares, prefix)``; spare-less groups all share the key
    ``(False, ())`` because without spares neither the prefix nor the
    failover times reach the availability model (see
    :meth:`repro.availability.FailureModeEntry.canonical_fragment`).
    """

    tier: str
    resource: str
    combo_keys: Tuple[str, ...]
    groups: Mapping[Tuple[bool, Tuple[str, ...]], GroupCertificate]

    @property
    def combo_count(self) -> int:
        return len(self.combo_keys)

    def group_for(self, spares: bool,
                  prefix: Tuple[str, ...]) -> Optional[GroupCertificate]:
        return self.groups.get((spares, prefix if spares else ()))


def _mttr_resolver(combo: Sequence[MechanismConfig]) \
        -> Callable[[FailureMode], Duration]:
    by_name = {config.name: config for config in combo}

    def resolve(failure: FailureMode) -> Duration:
        name = failure.mttr_mechanism
        if name is None:
            assert isinstance(failure.mttr, Duration)
            return failure.mttr
        config = by_name.get(name)
        if config is None:
            raise SearchError(
                "dominance prover: combo lacks structural mechanism %r"
                % name)
        return config.duration_attribute("mttr")

    return resolve


def _combo_entries(evaluator: "DesignEvaluator", resource: ResourceType,
                   prefix: Tuple[str, ...],
                   combo: Sequence[MechanismConfig]) \
        -> List[FailureModeEntry]:
    """The mode entries a design with this combo/prefix would generate.

    Delegates to the same
    :meth:`repro.core.evaluation.DesignEvaluator.failure_mode_entries`
    the tier-model generator uses, so prover and search derive
    MTTR/failover vectors from identical arithmetic.
    """
    spare_modes = resource.modes_for_prefix(prefix)
    entries = evaluator.failure_mode_entries(resource, spare_modes,
                                             _mttr_resolver(combo))
    return list(entries)


def _dominates(a: Sequence[FailureModeEntry], b: Sequence[FailureModeEntry],
               spares: bool) -> bool:
    """Is combo ``a`` provably no worse than ``b`` (same group)?"""
    for mode_a, mode_b in zip(a, b):
        if mode_a.mttr > mode_b.mttr:
            return False
        if spares and mode_a.uses_failover != mode_b.uses_failover:
            return False
    return True


def _group_certificate(resource: str, prefix: Tuple[str, ...], spares: bool,
                       vectors: Sequence[Sequence[FailureModeEntry]]) \
        -> Optional[GroupCertificate]:
    """Pick the probe dominating the most combos; None if none dominates."""
    best_index = -1
    best_dominated: Tuple[int, ...] = ()
    for index, vector in enumerate(vectors):
        dominated = tuple(
            other for other, other_vector in enumerate(vectors)
            if other != index and _dominates(vector, other_vector, spares))
        if len(dominated) > len(best_dominated):
            best_index = index
            best_dominated = dominated
    if best_index < 0:
        return None
    return GroupCertificate(
        resource=resource, prefix=prefix, spares=spares,
        least_index=best_index,
        dominated=best_dominated,
        lemma=LEMMA_SPARES if spares else LEMMA_IN_PLACE)


def build_pruning_certificate(
        evaluator: "DesignEvaluator", tier_name: str,
        option: ResourceOption,
        combos: Sequence[Tuple[MechanismConfig, ...]],
        spare_prefixes: Sequence[Tuple[str, ...]]) \
        -> Optional[PruningCertificate]:
    """Prove dominance relations for one tier option, statically.

    ``combos`` and ``spare_prefixes`` must come from the search's own
    enumeration (they honor its ``fixed_settings`` and
    ``spare_policy``).  Returns None when the combo dimension is
    trivial or nothing is provably dominated.
    """
    if len(combos) < 2:
        return None
    resource = evaluator.infrastructure.resource(option.resource)
    combo_keys = tuple(combo_key(combo) for combo in combos)

    groups: Dict[Tuple[bool, Tuple[str, ...]], GroupCertificate] = {}
    plain_vectors = [_combo_entries(evaluator, resource, (), combo)
                     for combo in combos]
    certificate = _group_certificate(option.resource, (), False,
                                     plain_vectors)
    if certificate is not None:
        groups[(False, ())] = certificate
    for prefix in spare_prefixes:
        vectors = [_combo_entries(evaluator, resource, prefix, combo)
                   for combo in combos]
        certificate = _group_certificate(option.resource, prefix, True,
                                         vectors)
        if certificate is not None:
            groups[(True, prefix)] = certificate
    if not groups:
        return None
    return PruningCertificate(tier=tier_name, resource=option.resource,
                              combo_keys=combo_keys, groups=groups)


# ---------------------------------------------------------------------------
# Space feasibility analysis
# ---------------------------------------------------------------------------


@dataclass
class OptionSpaceSummary:
    """Static facts about one tier option's slice of the space."""

    tier: str
    resource: str
    n_min: Optional[int]
    structures: int
    combos: int
    #: Distinct canonical availability models; None when the tier's
    #: sizing is dynamic and no load was supplied.
    equivalence_classes: Optional[int]
    #: Structures covered by a dominance certificate (provably no
    #: better than their group's probe).
    dominance_covered: int
    certificate: Optional[PruningCertificate]

    def to_dict(self) -> Dict[str, object]:
        groups = 0
        if self.certificate is not None:
            groups = len(self.certificate.groups)
        return {"resource": self.resource, "n_min": self.n_min,
                "structures": self.structures, "combos": self.combos,
                "equivalence_classes": self.equivalence_classes,
                "dominance_covered": self.dominance_covered,
                "certificate_groups": groups}


@dataclass
class TierSpaceSummary:
    """Static facts about one tier's slice of the space."""

    tier: str
    options: List[OptionSpaceSummary]

    @property
    def structures(self) -> int:
        return sum(option.structures for option in self.options)

    @property
    def dominance_covered(self) -> int:
        return sum(option.dominance_covered for option in self.options)

    def equivalence_classes(self) -> Optional[int]:
        total = 0
        for option in self.options:
            if option.equivalence_classes is None:
                return None
            total += option.equivalence_classes
        return total

    def to_dict(self) -> Dict[str, object]:
        return {"tier": self.tier, "structures": self.structures,
                "equivalence_classes": self.equivalence_classes(),
                "dominance_covered": self.dominance_covered,
                "options": [option.to_dict() for option in self.options]}


class SpaceReport:
    """Outcome of :func:`analyze_space`: diagnostics + structured data."""

    def __init__(self, report: LintReport,
                 tiers: List[TierSpaceSummary],
                 load: Optional[float],
                 max_downtime: Optional[Duration]):
        self.report = report
        self.tiers = tiers
        self.load = load
        self.max_downtime = max_downtime

    @property
    def structures(self) -> int:
        return sum(tier.structures for tier in self.tiers)

    @property
    def dominance_covered(self) -> int:
        return sum(tier.dominance_covered for tier in self.tiers)

    def certificates(self) -> Dict[str, Dict[str, PruningCertificate]]:
        """tier -> resource -> certificate."""
        result: Dict[str, Dict[str, PruningCertificate]] = {}
        for tier in self.tiers:
            for option in tier.options:
                if option.certificate is not None:
                    result.setdefault(tier.tier, {})[option.resource] = \
                        option.certificate
        return result

    def exit_code(self, strict: bool = False) -> int:
        return self.report.exit_code(strict=strict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "load": self.load,
            "max_downtime_minutes": (self.max_downtime.as_minutes
                                     if self.max_downtime is not None
                                     else None),
            "structures": self.structures,
            "dominance_covered": self.dominance_covered,
            "tiers": [tier.to_dict() for tier in self.tiers],
        }

    def to_text(self) -> str:
        lines = ["candidate space: %d structures across %d tier(s)"
                 % (self.structures, len(self.tiers))]
        for tier in self.tiers:
            classes = tier.equivalence_classes()
            detail = "%d structures" % tier.structures
            if classes is not None:
                detail += ", %d availability-distinct" % classes
            if tier.dominance_covered:
                detail += ", %d dominance-covered" % tier.dominance_covered
            lines.append("  tier %s: %s" % (tier.tier, detail))
            for option in tier.options:
                lines.append("    option %s: n_min=%s, %d structures, "
                             "%d combos"
                             % (option.resource, option.n_min,
                                option.structures, option.combos))
        return "\n".join(lines)


def _per_resource_availability_upper_bound(
        vectors: Sequence[Sequence[FailureModeEntry]]) -> float:
    """Best-case steady availability of ONE resource, over all combos.

    In-place repair makes a resource an alternating renewal process per
    mode: availability = prod_i mtbf_i / (mtbf_i + mttr_i), which is
    nonincreasing in each MTTR -- so taking each mode's minimal MTTR
    over the combo dimension upper-bounds every combo's availability.
    """
    if not vectors:
        return 1.0
    mode_count = len(vectors[0])
    best = 1.0
    for index in range(mode_count):
        min_mttr = min(vector[index].mttr.as_hours for vector in vectors)
        mtbf = vectors[0][index].mtbf.as_hours
        best *= mtbf / (mtbf + min_mttr)
    return best


def _zero_redundancy_downtime_floor(
        vectors: Sequence[Sequence[FailureModeEntry]], n_min: int) -> float:
    """Provable min/year downtime of every (n=m=n_min, s=0) candidate.

    With zero slack and zero spares the tier is down whenever any of
    its ``n_min`` independent resources is down, so unavailability
    >= 1 - a^n for the per-resource availability upper bound ``a``
    (exact for the binomial/analytic in-place form with unlimited
    repair staff -- the evaluator default).
    """
    a = _per_resource_availability_upper_bound(vectors)
    return (1.0 - a ** n_min) * MINUTES_PER_YEAR


def analyze_space(infrastructure: InfrastructureModel,
                  service: ServiceModel,
                  limits: Optional["SearchLimits"] = None,
                  load: Optional[float] = None,
                  max_downtime: Optional[Duration] = None) -> SpaceReport:
    """Statically analyze the candidate space of a model pair.

    Emits the AVD500-series diagnostics (cardinality, empty and
    provably unreachable regions, redundant dimensions, equivalence
    classes, dominance coverage, contradictory fixed settings) and
    returns the structured :class:`SpaceReport`.  No availability
    engine runs; everything here is closed-form over the declared
    models.  ``load``/``max_downtime`` condition the emptiness and
    reachability checks; without them only structural facts are
    reported.
    """
    # Imported lazily: repro.core imports repro.lint at module level.
    from ..core.evaluation import DesignEvaluator
    from ..core.search import SearchLimits, TierSearch

    search_limits = limits if limits is not None else SearchLimits()
    evaluator = DesignEvaluator(infrastructure, service)
    # The search instance supplies the authoritative enumeration; its
    # engine is never invoked (we only use the static machinery, which
    # is why reaching into its protected helpers is deliberate: the
    # analyzer must see the exact candidate stream the search will).
    search = TierSearch(evaluator, search_limits)
    report = LintReport()
    tiers: List[TierSpaceSummary] = []
    target_minutes = (max_downtime.as_minutes
                      if max_downtime is not None else None)

    for tier in service.tiers:
        options: List[OptionSpaceSummary] = []
        for option in tier.options:
            context = "tier %r option %r" % (tier.name, option.resource)
            if load is not None:
                n_min = option.min_active_for(load)
            else:
                counts = option.active_counts()
                n_min = min(counts) if counts else None
            if n_min is None:
                options.append(OptionSpaceSummary(
                    tier.name, option.resource, None, 0, 0, None, 0, None))
                continue

            structural, _ = evaluator.required_mechanisms(
                tier.name, option.resource)
            try:
                combos = search._mechanism_combos(structural)
            except SearchError as error:
                report.add(Diagnostic.new(
                    "AVD507", str(error), context=context))
                options.append(OptionSpaceSummary(
                    tier.name, option.resource, n_min, 0, 0, None, 0, None))
                continue

            structures = []
            for extra in range(search_limits.max_redundancy + 1):
                structures.extend(search._structures_for_total(
                    tier.name, option, structural, n_min, n_min + extra))

            certificate = build_pruning_certificate(
                evaluator, tier.name, option, combos,
                search._spare_prefixes(option.resource, 1))

            covered = 0
            if certificate is not None and combos:
                for start in range(0, len(structures), len(combos)):
                    first = structures[start]
                    group = certificate.group_for(
                        first.n_spare > 0, first.spare_active_prefix)
                    if group is not None:
                        covered += len(group.dominated)

            classes: Optional[int] = None
            try:
                keys = {canonical_key(evaluator.tier_model(design, load))
                        for design in structures}
                classes = len(keys)
            except EvaluationError:
                classes = None  # dynamic sizing without a load

            _redundant_dimension_check(report, context, combos,
                                       evaluator, option)
            if (target_minutes is not None and structures
                    and math.isfinite(target_minutes)):
                vectors = [_combo_entries(
                    evaluator,
                    infrastructure.resource(option.resource), (), combo)
                    for combo in combos]
                floor = _zero_redundancy_downtime_floor(vectors, n_min)
                if floor > target_minutes:
                    report.add(Diagnostic.new(
                        "AVD502",
                        "zero-redundancy region is provably infeasible: "
                        "every (n=%d, s=0) candidate has >= %.1f min/yr "
                        "downtime (target %.1f); redundancy is required"
                        % (n_min, floor, target_minutes),
                        context=context))

            options.append(OptionSpaceSummary(
                tier.name, option.resource, n_min, len(structures),
                len(combos), classes, covered, certificate))

        summary = TierSpaceSummary(tier.name, options)
        tiers.append(summary)
        tier_context = "tier %r" % tier.name
        if summary.structures == 0:
            message = "candidate space is empty within the search limits"
            if load is not None:
                message += " for load %g" % load
            report.add(Diagnostic.new("AVD501", message,
                                      context=tier_context))
            continue
        report.add(Diagnostic.new(
            "AVD500",
            "%d candidate structures across %d option(s) (exact count "
            "within max_redundancy=%d)"
            % (summary.structures, len(options),
               search_limits.max_redundancy),
            context=tier_context))
        classes = summary.equivalence_classes()
        if classes is not None:
            report.add(Diagnostic.new(
                "AVD504",
                "%d structures collapse into %d availability-distinct "
                "canonical classes (%.0f%% redundant solves avoidable "
                "by a keyed cache)"
                % (summary.structures, classes,
                   100.0 * (1.0 - classes / summary.structures)),
                context=tier_context))
        if summary.dominance_covered:
            report.add(Diagnostic.new(
                "AVD505",
                "dominance certificates cover %d of %d structures "
                "(%.0f%%): provably no better than their group's probe"
                % (summary.dominance_covered, summary.structures,
                   100.0 * summary.dominance_covered / summary.structures),
                context=tier_context))

    return SpaceReport(report, tiers, load, max_downtime)


def _redundant_dimension_check(report: LintReport, context: str,
                               combos: Sequence[Tuple[MechanismConfig, ...]],
                               evaluator: "DesignEvaluator",
                               option: ResourceOption) -> None:
    """AVD503: structural combos whose availability effect is identical.

    Two combos are availability-equivalent *everywhere* iff their
    per-mode MTTR vectors agree: MTBF, failover times, and spare
    susceptibility never depend on the combo, so equal MTTR vectors
    yield bit-identical models at every (split, prefix).
    """
    if len(combos) < 2:
        return
    resource = evaluator.infrastructure.resource(option.resource)
    signatures: Dict[Tuple[object, ...], List[int]] = {}
    for index, combo in enumerate(combos):
        entries = _combo_entries(evaluator, resource, (), combo)
        signature = tuple(float(entry.mttr.as_seconds).hex()
                          for entry in entries)
        signatures.setdefault(signature, []).append(index)
    for members in signatures.values():
        if len(members) < 2:
            continue
        names = ", ".join(
            " + ".join(config.describe() for config in combos[index])
            or "(no mechanisms)"
            for index in members)
        report.add(Diagnostic.new(
            "AVD503",
            "mechanism dimension is redundant: configurations {%s} "
            "generate identical availability models" % names,
            context=context))
