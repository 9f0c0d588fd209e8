"""Static space analysis vs the search it front-runs.

**Analyzer overhead** on the paper's e-commerce example:
``analyze_space`` (cardinality, canonical keys, dominance
certificates; zero engine solves) must cost a small fraction of the
full design search (< 5% wall-clock against the simulation engine,
the realistically-priced solver; the stacked Markov search on these
small models is itself only milliseconds, so both ratios are
reported).  The certificates' coverage is reported too; the search no
longer skips candidates on them.
"""

import time

import pytest

from repro.core import Aved, SearchLimits
from repro.lint import analyze_space
from repro.model import ServiceRequirements
from repro.spec.paper import ecommerce_service
from repro.units import Duration

from .conftest import write_bench_json, write_report

REQUIREMENTS = ServiceRequirements(1000.0, Duration.minutes(100))


def timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def limits(smoke):
    return SearchLimits(max_redundancy=2 if smoke else 4)


@pytest.fixture(scope="module")
def measurements(paper_infra, app_tier_service, limits):
    ecommerce = ecommerce_service()
    rows = {}
    for label, service in (("app-tier", app_tier_service),
                           ("e-commerce", ecommerce)):
        report, analyze_s = timed(lambda s=service: analyze_space(
            paper_infra, s, limits=limits, load=1000.0,
            max_downtime=REQUIREMENTS.max_annual_downtime))
        full, full_s = timed(lambda s=service: Aved(
            paper_infra, s, limits=limits).design(REQUIREMENTS))
        rows[label] = {
            "structures": report.structures,
            "dominance_covered": report.dominance_covered,
            "analyze_seconds": analyze_s,
            "search_seconds": full_s,
            "analyzer_ratio": analyze_s / full_s,
            "solves": full.stats.availability_evaluations,
            "enumerated": full.stats.structures_enumerated,
        }
    return rows


def test_space_report(measurements, smoke, limits):
    lines = ["Static space analysis vs search "
             "(load 1000, 100 min/yr, max_redundancy=%d)"
             % limits.max_redundancy, ""]
    header = ("%-12s %10s %9s %9s %9s %9s"
              % ("service", "structures", "covered", "analyze",
                 "search", "ratio"))
    lines += [header, "-" * len(header)]
    for label, row in measurements.items():
        lines.append("%-12s %10d %9d %8.3fs %8.3fs %8.1f%%"
                     % (label, row["structures"],
                        row["dominance_covered"],
                        row["analyze_seconds"], row["search_seconds"],
                        100.0 * row["analyzer_ratio"]))
    write_report("space_analysis.txt", "\n".join(lines))
    write_bench_json("space", measurements,
                     meta={"load": 1000.0, "downtime_minutes": 100.0,
                           "max_redundancy": limits.max_redundancy},
                     smoke=smoke)
    for row in measurements.values():
        assert row["dominance_covered"] > 0


@pytest.fixture(scope="module")
def sim_baseline(paper_infra, app_tier_service, limits, smoke):
    """Wall-clock of the app-tier search under the simulation engine."""
    from repro.availability import SimulationEngine
    _, seconds = timed(lambda: Aved(
        paper_infra, app_tier_service, limits=limits,
        availability_engine=SimulationEngine(
            years=20 if smoke else 150, seed=20040628))
        .design(REQUIREMENTS))
    return seconds


def test_analyzer_is_cheap(measurements, sim_baseline, smoke, full_sweep):
    ratio = measurements["app-tier"]["analyze_seconds"] / sim_baseline
    write_bench_json("space_overhead",
                     {"analyze_seconds":
                      measurements["app-tier"]["analyze_seconds"],
                      "simulation_search_seconds": sim_baseline,
                      "ratio": ratio},
                     smoke=smoke)
    assert ratio < 0.05

