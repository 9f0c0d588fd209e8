"""Fault-free overhead of the supervised evaluation runtime.

With ``--jobs 1`` the supervised executor sits between the search and
the engine on every availability solve (quarantine lookup, timeout
clock reads, result validation) -- no pool, no pickling.  That
per-solve bookkeeping must be invisible next to the CTMC solve itself:
under 5% versus the pre-existing direct call.
"""

import time

import pytest

from repro.availability import MarkovEngine
from repro.parallel import ParallelPolicy, SupervisedExecutor

from .conftest import benchmark_models, write_bench_json, write_report

MAX_OVERHEAD = 0.05
# Smoke runs keep the harness honest but their timings are too noisy
# for the 5% budget; the gate widens accordingly.
SMOKE_MAX_OVERHEAD = 0.50
LOOPS = 60
REPS = 9
SMOKE_LOOPS = 6
SMOKE_REPS = 3


def budgets(smoke):
    """(loops, reps, max_overhead) for the requested mode."""
    if smoke:
        return SMOKE_LOOPS, SMOKE_REPS, SMOKE_MAX_OVERHEAD
    return LOOPS, REPS, MAX_OVERHEAD


def time_direct(engine, models, loops):
    started = time.perf_counter()
    for _ in range(loops):
        for model in models:
            engine.evaluate_tier(model)
    return time.perf_counter() - started


def time_supervised(executor, models, loops):
    started = time.perf_counter()
    for _ in range(loops):
        for index, model in enumerate(models):
            executor.evaluate_inline((model.name, index), model)
    return time.perf_counter() - started


def measure_overhead(loops, reps):
    models = benchmark_models()
    bare = MarkovEngine()
    executor = SupervisedExecutor(
        MarkovEngine(), jobs=1,
        policy=ParallelPolicy(task_timeout=60.0))
    time_direct(bare, models, loops=2)
    time_supervised(executor, models, loops=2)
    # Back-to-back pairs with alternating order (so slow thermal /
    # scheduler drift hits both sides equally); the fastest rep of
    # each side is the least-disturbed measurement of its true cost.
    pairs = []
    for rep in range(reps):
        if rep % 2 == 0:
            b = time_direct(bare, models, loops)
            s = time_supervised(executor, models, loops)
        else:
            s = time_supervised(executor, models, loops)
            b = time_direct(bare, models, loops)
        pairs.append((b, s))
    bare_time = min(b for b, _ in pairs)
    supervised_time = min(s for _, s in pairs)
    overhead = supervised_time / bare_time - 1.0
    return bare_time, supervised_time, overhead


@pytest.fixture(scope="module")
def overhead_report(smoke):
    loops, reps, budget = budgets(smoke)
    bare_time, supervised_time, overhead = measure_overhead(loops, reps)
    calls = loops * len(benchmark_models())
    lines = [
        "fault-free overhead of the supervised (--jobs 1) runtime",
        "",
        "batch: %d evaluate_tier calls, %d paired reps" % (calls, reps),
        "bare markov:       %8.1f ms fastest rep (%.3f ms/call)"
        % (bare_time * 1e3, bare_time * 1e3 / calls),
        "supervised jobs=1: %8.1f ms fastest rep (%.3f ms/call)"
        % (supervised_time * 1e3, supervised_time * 1e3 / calls),
        "overhead:          %+7.2f%% fastest-rep ratio "
        "(budget %.0f%%)" % (overhead * 100.0, budget * 100.0),
    ]
    write_bench_json("parallel",
                     {"bare_seconds": bare_time,
                      "supervised_seconds": supervised_time,
                      "overhead_ratio": overhead,
                      "calls": calls},
                     meta={"budget": budget}, smoke=smoke)
    write_report("parallel.txt", "\n".join(lines))
    return overhead


def test_supervised_serial_overhead_under_budget(overhead_report, smoke):
    budget = budgets(smoke)[2]
    assert overhead_report < budget, (
        "supervised jobs=1 runtime adds %.2f%% per fault-free solve "
        "(budget %.0f%%)"
        % (overhead_report * 100.0, budget * 100.0))


def test_supervised_results_identical():
    """Supervision must not change a single fault-free number."""
    models = benchmark_models()
    bare = MarkovEngine()
    executor = SupervisedExecutor(MarkovEngine(), jobs=1)
    for index, model in enumerate(models):
        assert executor.evaluate_inline((model.name, index), model) == \
            bare.evaluate_tier(model).unavailability
    assert len(executor.log) == 0
