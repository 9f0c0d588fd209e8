"""Sharded map builds over a warm cache, and map-lookup latency.

Two numbers carry the grid's performance story:

* a **sharded build over a warm tier cache** must beat a **cold
  unsharded** ``build_requirement_map`` sweep by at least 1.4x -- a
  warm store answers the per-tier availability solves instead of
  re-solving CTMCs, which is what makes restarting or re-sharding a
  big grid build cheap.  The cold sweep solves in stacked wavefronts,
  so model generation and store reads are most of what is left: ten
  full runs on a 2-core host measured 1.61-1.68x;
* serving the finished map must be a **sub-millisecond p50 lookup**
  -- `GET /v1/map` answers from the in-memory frontier index without
  ever searching.

Byte-identity of the sharded/warm map vs the cold unsharded sweep is
asserted inside the measurement, the same correctness-inside-the-
benchmark discipline as ``bench_cache``.
"""

import shutil
import tempfile
import time

import pytest

from repro.availability import get_engine
from repro.cache import TierEvaluationStore, attach_cache
from repro.core import DesignEvaluator
from repro.core.frontier import build_requirement_map
from repro.core.serialize import requirement_map_to_json
from repro.grid import GridBuilder, GridSpec, MapService
from repro.model import ServiceModel
from repro.spec.paper import ecommerce_service
from repro.units import Duration

from .conftest import write_bench_json, write_report

TIER = "application"


def budgets(smoke):
    """(loads, paired reps, warm speedup floor, lookup p50 budget s)."""
    if smoke:
        return (500.0, 1000.0, 1500.0, 2000.0), 2, 1.2, 0.005
    loads = tuple(500.0 + 250.0 * step for step in range(11))
    return loads, 3, 1.4, 0.001


def app_tier_service():
    return ServiceModel("app-tier",
                        [ecommerce_service().tier(TIER)])


def make_evaluator(paper_infra, store=None):
    evaluator = DesignEvaluator(paper_infra, app_tier_service(),
                                get_engine("markov"))
    if store is not None:
        evaluator.engine = attach_cache(evaluator.engine, store)
    return evaluator


def measure_builds(paper_infra, loads, reps):
    """Fastest cold unsharded sweep vs fastest warm sharded build."""
    cold_times, warm_times = [], []
    serialized = set()
    for _ in range(reps):
        cache_dir = tempfile.mkdtemp(prefix="bench-grid-")
        try:
            started = time.perf_counter()
            cold_map = build_requirement_map(
                make_evaluator(paper_infra), TIER, loads)
            cold_times.append(time.perf_counter() - started)
            serialized.add(requirement_map_to_json(cold_map))

            spec = GridSpec(TIER, loads, shard_size=4)
            GridBuilder(make_evaluator(
                paper_infra, TierEvaluationStore(cache_dir)),
                spec, sleep=lambda _s: None).build()   # fill the store
            started = time.perf_counter()
            warm_map = GridBuilder(make_evaluator(
                paper_infra, TierEvaluationStore(cache_dir)),
                spec, sleep=lambda _s: None).build()
            warm_times.append(time.perf_counter() - started)
            serialized.add(requirement_map_to_json(warm_map))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    assert len(serialized) == 1, \
        "sharding or the cache changed the map bytes"
    return min(cold_times), min(warm_times)


def measure_lookup_p50(paper_infra, loads, tmp_dir):
    space_map = build_requirement_map(make_evaluator(paper_infra),
                                      TIER, loads)
    path = tmp_dir + "/map.json"
    with open(path, "w") as handle:
        handle.write(requirement_map_to_json(space_map))
    service = MapService(path)
    requirement = Duration.minutes(100)
    service.lookup(loads[0], requirement)             # warm
    samples = []
    for index in range(500):
        load = loads[index % len(loads)] - 10.0
        started = time.perf_counter()
        answer = service.lookup(load, requirement)
        samples.append(time.perf_counter() - started)
        assert answer["answer"] in ("ok", "infeasible")
    samples.sort()
    return samples[len(samples) // 2]


@pytest.fixture(scope="module")
def grid_report(smoke, paper_infra):
    loads, reps, speedup_floor, p50_budget = budgets(smoke)
    cold, warm = measure_builds(paper_infra, loads, reps)
    lookup_dir = tempfile.mkdtemp(prefix="bench-grid-map-")
    try:
        p50 = measure_lookup_p50(paper_infra, loads, lookup_dir)
    finally:
        shutil.rmtree(lookup_dir, ignore_errors=True)
    speedup = cold / warm
    lines = [
        "requirement-space map: sharded warm build vs cold unsharded "
        "sweep (e-commerce %s tier, %d loads)" % (TIER, len(loads)),
        "",
        "cold unsharded sweep: %8.1f ms fastest of %d"
        % (cold * 1e3, reps),
        "warm sharded build:   %8.1f ms fastest of %d"
        % (warm * 1e3, reps),
        "speedup:              %8.2fx (floor %.1fx)"
        % (speedup, speedup_floor),
        "",
        "map lookup p50:       %8.3f ms (budget %.1f ms)"
        % (p50 * 1e3, p50_budget * 1e3),
    ]
    write_bench_json("grid",
                     {"cold_seconds": cold,
                      "warm_seconds": warm,
                      "warm_speedup": speedup,
                      "lookup_p50_seconds": p50},
                     meta={"speedup_floor": speedup_floor,
                           "p50_budget_seconds": p50_budget,
                           "loads": len(loads), "reps": reps},
                     smoke=smoke)
    write_report("grid.txt", "\n".join(lines))
    return speedup, p50


def test_warm_sharded_build_meets_speedup_floor(grid_report, smoke):
    speedup_floor = budgets(smoke)[2]
    speedup = grid_report[0]
    assert speedup >= speedup_floor, (
        "warm sharded build only %.2fx faster than the cold "
        "unsharded sweep (floor %.1fx)" % (speedup, speedup_floor))


def test_map_lookup_p50_is_submillisecond(grid_report, smoke):
    p50_budget = budgets(smoke)[3]
    p50 = grid_report[1]
    assert p50 < p50_budget, (
        "map lookup p50 %.3f ms (budget %.1f ms)"
        % (p50 * 1e3, p50_budget * 1e3))
