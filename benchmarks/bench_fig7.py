"""Fig. 7: optimal scientific-application design vs job-time requirement.

Regenerates the figure's series -- resource type, resource count,
spares, checkpoint interval and storage location across a sweep of
execution-time requirements -- and benchmarks the job search.

``BENCH_fig7.json`` records the whole sweep's wall time as p50/p95
over repeated runs, each requirement searched by a fresh
``DesignEvaluator``/``JobSearch`` pair (as every ``repro design``
request is), and each requirement's deterministic work counters.
"""

import math
import statistics
import time

import pytest

from repro.core import (DesignEvaluator, JobSearch, SearchLimits,
                        TierDesign)
from repro.core.families import checkpoint_settings
from repro.core.search import _SettingTable
from repro.model import JobRequirements, MechanismConfig
from repro.units import Duration

from .conftest import write_bench_json, write_report

REQUIREMENT_HOURS = [2, 5, 10, 20, 50, 100, 200, 500, 1000]
SMOKE_HOURS = [20, 100, 1000]
#: Timed repetitions of the whole sweep (full, smoke).
SWEEP_REPS = (11, 5)
LIMITS = SearchLimits(
    spare_policy="cold", max_redundancy=12,
    fixed_settings={"maintenanceA": {"level": "bronze"},
                    "maintenanceB": {"level": "bronze"}})
#: The work counters recorded per requirement.
WORK_COUNTERS = ("structures_enumerated", "job_time_evaluations",
                 "cost_pruned")


@pytest.fixture(scope="module")
def requirement_hours(smoke):
    return SMOKE_HOURS if smoke else REQUIREMENT_HOURS


def run_sweep(infrastructure, service, requirement_hours):
    """({hours: best design}, {hours: work counters}) of one sweep."""
    results, work = {}, {}
    for hours in requirement_hours:
        search = JobSearch(DesignEvaluator(infrastructure, service),
                           LIMITS)
        best = search.best_design(JobRequirements(Duration.hours(hours)))
        if best is not None:
            results[hours] = best
        work[hours] = {name: getattr(search.stats, name)
                       for name in WORK_COUNTERS}
    return results, work


def percentile(ordered, fraction):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


@pytest.fixture(scope="module")
def sweep_runs(paper_infra, scientific, requirement_hours, smoke):
    """The sweep's answers, work counters and sorted wall times."""
    seconds = []
    for _ in range(SWEEP_REPS[1] if smoke else SWEEP_REPS[0]):
        start = time.perf_counter()
        results, work = run_sweep(paper_infra, scientific,
                                  requirement_hours)
        seconds.append(time.perf_counter() - start)
    return results, work, sorted(seconds)


@pytest.fixture(scope="module")
def sweep(sweep_runs):
    return sweep_runs[0]


@pytest.fixture(scope="module")
def fig7_report(sweep_runs, requirement_hours, smoke):
    sweep, work, seconds = sweep_runs
    lines = ["Fig. 7 -- optimal design vs job execution time requirement",
             "(maintenance fixed at bronze, as in the paper)", ""]
    header = ("%9s %-8s %7s %6s %-10s %-8s %11s %12s"
              % ("deadline", "resource", "active", "spares", "cpi",
                 "storage", "job time", "annual cost"))
    lines.append(header)
    lines.append("-" * len(header))
    points = []
    for hours in requirement_hours:
        if hours not in sweep:
            lines.append("%8dh  infeasible within search limits" % hours)
            continue
        evaluation = sweep[hours]
        tier = evaluation.design.tiers[0]
        config = checkpoint_settings(tier)
        lines.append(
            "%8dh %-8s %7d %6d %-10s %-8s %10.1fh %12s"
            % (hours, tier.resource, tier.n_active, tier.n_spare,
               config.settings["checkpoint_interval"].format(),
               config.settings["storage_location"],
               evaluation.job_time.expected_time.as_hours,
               "$" + format(round(evaluation.annual_cost), ",d")))
        points.append({
            "required_hours": hours,
            "resource": tier.resource,
            "n_active": tier.n_active,
            "n_spare": tier.n_spare,
            "storage_location": config.settings["storage_location"],
            "expected_hours":
                evaluation.job_time.expected_time.as_hours,
            "annual_cost": evaluation.annual_cost,
        })
    p50, p95 = statistics.median(seconds), percentile(seconds, 0.95)
    lines.extend(["", "sweep wall time: p50 %.3f s, p95 %.3f s over %d "
                  "runs (fresh search per requirement)"
                  % (p50, p95, len(seconds)), "",
                  "%9s %11s %9s %11s" % ("deadline", "structures",
                                         "job evals", "cost-pruned")])
    for hours in requirement_hours:
        lines.append("%8dh %11d %9d %11d" % ((hours,) + tuple(
            work[hours][name] for name in WORK_COUNTERS)))
    write_bench_json("fig7", {
        "points": points,
        "sweep_seconds": {"p50": p50, "p95": p95, "runs": len(seconds),
                          "samples": seconds},
        "work": [dict(required_hours=hours, **work[hours])
                 for hours in requirement_hours],
    }, smoke=smoke)
    return write_report("fig7.txt", "\n".join(lines))


class TestFig7Shape:
    """The qualitative claims the paper makes about Fig. 7."""

    def test_sweep_mostly_feasible(self, sweep, fig7_report,
                                   requirement_hours):
        assert len(sweep) >= len(requirement_hours) - 2

    def test_machineb_for_tight_machinea_for_loose(self, sweep,
                                                   full_sweep):
        assert sweep[2].design.tiers[0].resource == "rI"
        assert sweep[1000].design.tiers[0].resource == "rH"

    def test_resource_count_monotone_per_type(self, sweep):
        for resource in ("rH", "rI"):
            counts = [(h, e.design.tiers[0].n_active)
                      for h, e in sorted(sweep.items())
                      if e.design.tiers[0].resource == resource]
            values = [n for _, n in counts]
            assert values == sorted(values, reverse=True), resource

    def test_spares_track_cluster_size(self, sweep):
        pairs = sorted((e.design.tiers[0].n_active,
                        e.design.tiers[0].n_spare)
                       for e in sweep.values())
        assert pairs[-1][1] >= pairs[0][1]

    def test_storage_flip(self, sweep):
        for evaluation in sweep.values():
            tier = evaluation.design.tiers[0]
            location = checkpoint_settings(tier) \
                .settings["storage_location"]
            if tier.n_active < 30:
                assert location == "central"
            if tier.resource == "rH" and tier.n_active > 60:
                assert location == "peer"

    def test_every_design_meets_requirement(self, sweep):
        for hours, evaluation in sweep.items():
            assert evaluation.job_time.expected_time <= \
                Duration.hours(hours)


def test_benchmark_job_search_relaxed(benchmark, paper_infra, scientific,
                                      fig7_report):
    """A relaxed-deadline search (small clusters, quick)."""
    evaluator = DesignEvaluator(paper_infra, scientific)

    def run():
        return JobSearch(evaluator, LIMITS).best_design(
            JobRequirements(Duration.hours(500)))

    best = benchmark(run)
    assert best is not None


def test_benchmark_job_search_tight(benchmark, paper_infra, scientific):
    """A tight-deadline search (hundreds of nodes, bigger chains)."""
    evaluator = DesignEvaluator(paper_infra, scientific)

    def run():
        return JobSearch(evaluator, LIMITS).best_design(
            JobRequirements(Duration.hours(20)))

    best = benchmark(run)
    assert best is not None


def test_benchmark_structure_sweep(benchmark, paper_infra, scientific):
    """One structure's whole checkpoint sweep (2 x 151 = 302 settings):
    the job search's inner loop, from a freshly built settings table.
    The structure's availability is solved once, outside the timing."""
    search = JobSearch(DesignEvaluator(paper_infra, scientific), LIMITS)
    bronze = MechanismConfig(paper_infra.mechanism("maintenanceA"),
                             {"level": "bronze"})
    structure = TierDesign("computation", "rH", 20, 1, (), (bronze,))
    option = scientific.tiers[0].option_for("rH")
    _, performance = search.evaluator.required_mechanisms("computation",
                                                          "rH")
    perf_combos = search._mechanism_combos(performance)
    assert len(perf_combos) == 302
    requirements = JobRequirements(Duration.hours(1000))
    search._tier_unavailability(structure, None)

    def run():
        table = _SettingTable(search.evaluator, option, structure,
                              perf_combos)
        return search._evaluate_structure(structure, table, requirements,
                                          None)

    evaluation, _ = benchmark(run)
    assert evaluation is not None
    assert search.stats.cost_pruned == 0
