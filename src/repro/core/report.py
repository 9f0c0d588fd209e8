"""Human-readable reports of designs, evaluations, and frontiers.

These formatters back the example scripts and the benchmark harnesses;
they render the same rows/series the paper's figures report.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..units import Duration
from .design import EvaluatedTierDesign
from .evaluation import DesignEvaluation


def format_cost(value: float) -> str:
    return "$%s" % format(round(value), ",d")


def format_downtime(minutes: float) -> str:
    if minutes >= 60.0:
        return "%.1f h/yr" % (minutes / 60.0)
    if minutes >= 1.0:
        return "%.1f min/yr" % minutes
    return "%.2f min/yr" % minutes


def evaluation_summary(evaluation: DesignEvaluation) -> str:
    lines = ["design: %s" % evaluation.design.describe(),
             "annual cost: %s (components %s + spares %s + mechanisms %s)"
             % (format_cost(evaluation.cost.total),
                format_cost(evaluation.cost.active_components),
                format_cost(evaluation.cost.spare_components),
                format_cost(evaluation.cost.mechanisms)),
             "expected annual downtime: %s"
             % format_downtime(evaluation.downtime_minutes)]
    degraded = [(tier.name, tier.provenance)
                for tier in evaluation.availability.tiers
                if tier.provenance is not None
                and tier.provenance.degraded]
    for tier_name, provenance in degraded:
        lines.append("  tier %s evaluated by %s"
                     % (tier_name, provenance.describe()))
    if evaluation.job_time is not None:
        job = evaluation.job_time
        lines.append(
            "expected job time: %s (useful %.1f%%, overhead x%.2f, "
            "uptime %.4f%%)"
            % (job.expected_time.format(), job.useful_fraction * 100.0,
               job.overhead_factor, job.uptime_fraction * 100.0))
    return "\n".join(lines)


def outcome_summary(outcome) -> str:
    stats = outcome.stats
    search_line = ("search: %d structures, %d availability solves "
                   "(%d cache hits, %d cost-pruned)"
                   % (stats.structures_enumerated,
                      stats.availability_evaluations, stats.cache_hits,
                      stats.cost_pruned))
    if getattr(stats, "resumed_evaluations", 0):
        search_line += (", %d solve(s) resumed from checkpoint"
                        % stats.resumed_evaluations)
    lines = [evaluation_summary(outcome.evaluation), search_line]
    cache = getattr(outcome, "cache", None)
    if cache is not None:
        hits = cache.get("hits", 0)
        attempts = hits + cache.get("misses", 0)
        cache_line = ("cache: %d/%d tier solves served from cache"
                      % (hits, attempts))
        if not cache.get("enabled", True):
            cache_line += " (degraded to off)"
        lines.append(cache_line)
    degradation = getattr(outcome, "degradation", None)
    if degradation is not None and len(degradation):
        lines.append("degradation: %s" % degradation.summary())
        for diagnostic in degradation:
            lines.append("  %s" % diagnostic.format())
    return "\n".join(lines)


def frontier_table(frontier: Sequence[EvaluatedTierDesign],
                   title: Optional[str] = None) -> str:
    """Render a tier Pareto frontier as an aligned text table."""
    header = "%-58s %14s %16s" % ("design", "annual cost", "downtime")
    rows: List[str] = []
    if title:
        rows.append(title)
    rows.append(header)
    rows.append("-" * len(header))
    for candidate in sorted(frontier, key=lambda c: c.annual_cost):
        rows.append("%-58s %14s %16s"
                    % (candidate.design.describe()[:58],
                       format_cost(candidate.annual_cost),
                       format_downtime(candidate.downtime_minutes)))
    return "\n".join(rows)


def describe_infrastructure(infrastructure) -> str:
    """A human-readable inventory of an infrastructure model."""
    lines = ["infrastructure: %d components, %d mechanisms, %d resources"
             % (len(infrastructure.components),
                len(infrastructure.mechanisms),
                len(infrastructure.resources)), ""]
    lines.append("components:")
    for component in infrastructure.components:
        modes = ", ".join(
            "%s (MTBF %s, repair %s)"
            % (mode.name, mode.mtbf.format(),
               "via <%s>" % mode.mttr_mechanism
               if mode.mttr_mechanism else mode.mttr.format())
            for mode in component.failure_modes)
        lines.append("  %-14s $%g/$%g per year (inactive/active)%s"
                     % (component.name, component.cost.inactive,
                        component.cost.active,
                        "; loss window via <%s>"
                        % component.loss_window_mechanism
                        if component.loss_window_mechanism else ""))
        if modes:
            lines.append("    failures: %s" % modes)
    lines.append("")
    lines.append("mechanisms:")
    for mechanism in infrastructure.mechanisms:
        parameters = ", ".join(
            "%s (%d settings)" % (parameter.name, len(parameter.values))
            for parameter in mechanism.parameters)
        lines.append("  %-14s params: %s; affects: %s"
                     % (mechanism.name, parameters or "none",
                        ", ".join(sorted(mechanism.effects))))
    lines.append("")
    lines.append("resources:")
    for resource in infrastructure.resources:
        chain = " -> ".join(resource.startup_order)
        lines.append("  %-6s %s (full startup %s, reconfig %s)"
                     % (resource.name, chain,
                        resource.full_startup_time().format(),
                        resource.reconfig_time.format()))
    return "\n".join(lines)


def describe_service(service) -> str:
    """A human-readable summary of a service model."""
    kind = ("finite job (size %g)" % service.job_size
            if service.is_finite_job else "always-on service")
    lines = ["service %r: %s, %d tier(s)"
             % (service.name, kind, len(service.tiers))]
    for tier in service.tiers:
        lines.append("  tier %s:" % tier.name)
        for option in tier.options:
            counts = option.active_counts()
            mechanisms = ", ".join(use.mechanism
                                   for use in option.mechanisms)
            lines.append(
                "    %-6s sizing=%s scope=%s n=[%d..%d]%s"
                % (option.resource, option.sizing, option.failure_scope,
                   counts[0], counts[-1],
                   " mechanisms: " + mechanisms if mechanisms else ""))
    return "\n".join(lines)


def requirement_grid(map_obj, downtime_grid: Sequence[float]) -> str:
    """Fig. 6 as text: optimal family label per (load, downtime) cell."""
    loads = map_obj.loads
    width = max(len("%g" % load) for load in loads) + 2
    label_width = 44
    lines = ["optimal design family per (downtime requirement, load):"]
    header = "%12s" % "downtime"
    header += "".join("%*s" % (width, "%g" % load) for load in loads)
    lines.append(header)
    for downtime in downtime_grid:
        row = "%10.4g m" % downtime
        labels = []
        for load in loads:
            point = map_obj.optimal_for(load, Duration.minutes(downtime))
            labels.append("-" if point is None else
                          _family_index(map_obj, point))
        row += "".join("%*s" % (width, label) for label in labels)
        lines.append(row)
    families = _family_legend(map_obj)
    lines.append("")
    lines.append("families:")
    for index, family in enumerate(families, start=1):
        lines.append("  %2d - %s" % (index, family.label()[:label_width]))
    return "\n".join(lines)


def _family_legend(map_obj):
    seen = []
    # Order families by (typical downtime descending) so that indexes
    # resemble the paper's top-to-bottom legend.
    curves = map_obj.family_curves()
    averages = []
    for family, points in curves.items():
        mean = sum(d for _, d in points) / len(points)
        averages.append((-mean, family))
    for _, family in sorted(averages, key=lambda item: item[0]):
        seen.append(family)
    return seen


def _family_index(map_obj, point) -> str:
    families = _family_legend(map_obj)
    try:
        return str(families.index(point.family) + 1)
    except ValueError:
        return "?"
