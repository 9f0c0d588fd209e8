"""Observability overhead: disabled instrumentation must be free.

Every engine's ``evaluate_tier`` now opens a trace span when an
observer is installed.  The contract (docs/OBSERVABILITY.md) is that
the *disabled* path -- the default, what every plain ``repro design``
run takes -- costs one module-global read and one attribute check per
call: under 3% next to the CTMC solve itself.  This harness times the
raw markov kernel against the instrumented engine facade with no
observer installed, paired and alternated like the parallel
benchmark, and also records the enabled-mode cost for reference.
"""

import time

import pytest

from repro.availability import MarkovEngine
from repro.availability import markov
from repro.obs import Observer, observing

from .conftest import benchmark_models, write_bench_json, write_report

MAX_DISABLED_OVERHEAD = 0.03
# Smoke timings are too short for a 3% assertion to be stable.
SMOKE_MAX_DISABLED_OVERHEAD = 0.50
LOOPS = 60
REPS = 9
SMOKE_LOOPS = 6
SMOKE_REPS = 3


def time_raw(models, loops):
    """The uninstrumented kernel: no facade, no observer check."""
    started = time.perf_counter()
    for _ in range(loops):
        for model in models:
            markov.evaluate_tier(model)
    return time.perf_counter() - started


def time_engine(engine, models, loops):
    """The instrumented facade (observer check on every call)."""
    started = time.perf_counter()
    for _ in range(loops):
        for model in models:
            engine.evaluate_tier(model)
    return time.perf_counter() - started


def measure_disabled_overhead(loops, reps):
    models = benchmark_models()
    engine = MarkovEngine()
    time_raw(models, loops=2)
    time_engine(engine, models, loops=2)
    pairs = []
    for rep in range(reps):
        if rep % 2 == 0:
            raw = time_raw(models, loops)
            inst = time_engine(engine, models, loops)
        else:
            inst = time_engine(engine, models, loops)
            raw = time_raw(models, loops)
        pairs.append((raw, inst))
    ratios = sorted(inst / raw for raw, inst in pairs)
    overhead = ratios[len(ratios) // 2] - 1.0
    return (min(raw for raw, _ in pairs),
            min(inst for _, inst in pairs), overhead)


def measure_enabled_cost(loops):
    """Informational: what tracing costs when it is switched on."""
    models = benchmark_models()
    engine = MarkovEngine()
    raw = time_raw(models, loops)
    with observing(Observer()):
        enabled = time_engine(engine, models, loops)
    return enabled / raw - 1.0


@pytest.fixture(scope="module")
def obs_overhead(smoke):
    loops, reps = (SMOKE_LOOPS, SMOKE_REPS) if smoke else (LOOPS, REPS)
    budget = SMOKE_MAX_DISABLED_OVERHEAD if smoke \
        else MAX_DISABLED_OVERHEAD
    raw_time, engine_time, disabled = \
        measure_disabled_overhead(loops, reps)
    enabled = measure_enabled_cost(loops)
    calls = loops * len(benchmark_models())
    lines = [
        "observability overhead on the markov solve path",
        "",
        "batch: %d evaluate_tier calls, %d paired reps" % (calls, reps),
        "raw kernel:        %8.1f ms fastest rep (%.3f ms/call)"
        % (raw_time * 1e3, raw_time * 1e3 / calls),
        "engine (disabled): %8.1f ms fastest rep (%.3f ms/call)"
        % (engine_time * 1e3, engine_time * 1e3 / calls),
        "disabled overhead: %+7.2f%% median of paired ratios "
        "(budget %.0f%%)" % (disabled * 100.0, budget * 100.0),
        "enabled overhead:  %+7.2f%% single rep (informational; "
        "span + histogram per solve)" % (enabled * 100.0),
    ]
    write_bench_json("obs",
                     {"raw_seconds": raw_time,
                      "engine_disabled_seconds": engine_time,
                      "disabled_overhead_ratio": disabled,
                      "enabled_overhead_ratio": enabled,
                      "calls": calls},
                     meta={"budget": budget}, smoke=smoke)
    write_report("obs.txt", "\n".join(lines))
    return disabled, budget


def test_disabled_overhead_under_budget(obs_overhead):
    disabled, budget = obs_overhead
    assert disabled < budget, (
        "disabled observability adds %.2f%% per solve (budget %.0f%%)"
        % (disabled * 100.0, budget * 100.0))


def test_disabled_results_identical():
    """The facade must not perturb a single number, observed or not."""
    models = benchmark_models()
    engine = MarkovEngine()
    for model in models:
        bare = markov.evaluate_tier(model).unavailability
        assert engine.evaluate_tier(model).unavailability == bare
        with observing(Observer()):
            assert engine.evaluate_tier(model).unavailability == bare


def test_enabled_records_every_solve():
    """With an observer installed, nothing is sampled away."""
    models = benchmark_models()
    engine = MarkovEngine()
    with observing(Observer()) as obs:
        for model in models:
            engine.evaluate_tier(model)
    assert obs.metrics.counter_value("engine_solves.markov") \
        == len(models)
    assert len(obs.tracer.to_dicts()) == len(models)
