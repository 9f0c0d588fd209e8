"""End-to-end observability: a traced design run, serial and parallel.

These pin the ISSUE's acceptance criteria: the span tree covers
search -> evaluation -> engine, worker spans re-parent under the
parallel batch span, the outcome's metrics equal its ``SearchStats``
field for field, and traces are deterministic modulo timestamps.
"""

import dataclasses
import json

from repro.core import Aved, SearchLimits
from repro.model import ServiceRequirements
from repro.obs import observing
from repro.units import Duration

REQ = ServiceRequirements(throughput=1000,
                          max_annual_downtime=Duration.minutes(100))
LIMITS = SearchLimits(max_redundancy=2)


def _span_names(roots):
    names = set()

    def walk(span):
        names.add(span["name"])
        for child in span.get("children", []):
            walk(child)

    for root in roots:
        walk(root)
    return names


def _strip_times(span):
    return {
        "name": span["name"],
        "attributes": span["attributes"],
        "children": [_strip_times(child)
                     for child in span["children"]],
    }


def test_traced_design_covers_search_evaluation_engine(paper_infra,
                                                       app_tier_service):
    with observing() as obs:
        outcome = Aved(paper_infra, app_tier_service,
                       limits=LIMITS).design(REQ)
    roots = obs.tracer.to_dicts()
    assert [root["name"] for root in roots] == ["design"]
    names = _span_names(roots)
    assert {"design", "tier-search", "tier-solve", "model-gen",
            "engine-solve", "verify-design"} <= names
    # engine-solve sits under tier-solve which sits under tier-search
    (design,) = roots
    searches = [c for c in design["children"]
                if c["name"] == "tier-search"]
    assert searches
    solves = [c for c in searches[0]["children"]
              if c["name"] == "tier-solve"]
    assert solves
    assert any(g["name"] == "engine-solve"
               for s in solves for g in s["children"])
    assert outcome.metrics is not None


def test_multi_tier_design_has_combine_span(paper_infra, ecommerce):
    with observing() as obs:
        Aved(paper_infra, ecommerce, limits=LIMITS).design(REQ)
    names = _span_names(obs.tracer.to_dicts())
    assert "combine-frontiers" in names


def test_outcome_metrics_equal_search_stats(paper_infra,
                                            app_tier_service):
    with observing():
        outcome = Aved(paper_infra, app_tier_service,
                       limits=LIMITS).design(REQ)
    counters = outcome.metrics["counters"]
    for field in dataclasses.fields(outcome.stats):
        assert counters["search.%s" % field.name] \
            == getattr(outcome.stats, field.name), field.name
    # engine solves happened and were counted
    assert counters["engine_solves.markov"] > 0


def test_untraced_design_has_no_metrics(paper_infra, app_tier_service):
    outcome = Aved(paper_infra, app_tier_service,
                   limits=LIMITS).design(REQ)
    assert outcome.metrics is None


def test_trace_is_deterministic_modulo_timestamps(paper_infra,
                                                  app_tier_service):
    def run():
        with observing() as obs:
            Aved(paper_infra, app_tier_service,
                 limits=LIMITS).design(REQ)
        return [_strip_times(root)
                for root in json.loads(obs.tracer.to_json())["spans"]]

    assert run() == run()


def test_degradation_events_become_counters(paper_infra,
                                            app_tier_service):
    from repro.availability import MarkovEngine
    from repro.parallel import ParallelEvaluationRuntime, ParallelPolicy
    from repro.resilience import BackoffPolicy, WorkerFaultPlan

    runtime = ParallelEvaluationRuntime(
        MarkovEngine(), jobs=2,
        worker_plan=WorkerFaultPlan(seed=7, fault_rate=0.3,
                                    max_faults_per_task=1),
        policy=ParallelPolicy(task_retries=2,
                              backoff=BackoffPolicy(backoff_base=0.0)))
    try:
        with observing() as obs:
            outcome = Aved(paper_infra, app_tier_service, limits=LIMITS,
                           parallel=runtime).design(REQ)
    finally:
        runtime.close()
    counters = obs.metrics.snapshot()["counters"]
    assert counters.get("degradation_events.worker-crash", 0) > 0
    assert outcome.degraded
    assert "parallel-batch" in _span_names(obs.tracer.to_dicts())


def test_parallel_run_reparents_worker_spans(paper_infra,
                                             app_tier_service):
    with observing() as obs:
        outcome = Aved(paper_infra, app_tier_service, limits=LIMITS,
                       jobs=2).design(REQ)
    roots = obs.tracer.to_dicts()
    batches = []

    def collect(span):
        if span["name"] == "parallel-batch":
            batches.append(span)
        for child in span.get("children", []):
            collect(child)

    for root in roots:
        collect(root)
    assert batches, "no parallel-batch span recorded"
    workers = [child for batch in batches
               for child in batch["children"]]
    assert workers, "worker spans were not re-parented"
    assert all(child["attributes"].get("worker") is True
               for child in workers)
    assert all(child["name"] == "engine-solve" for child in workers)
    counters = outcome.metrics["counters"]
    assert counters["parallel.batches"] == len(batches)
    assert counters["search.parallel_batches"] \
        == outcome.stats.parallel_batches


def test_parallel_design_matches_serial_under_tracing(paper_infra,
                                                      app_tier_service):
    serial = Aved(paper_infra, app_tier_service,
                  limits=LIMITS).design(REQ)
    with observing():
        traced = Aved(paper_infra, app_tier_service, limits=LIMITS,
                      jobs=2).design(REQ)
    assert traced.design == serial.design
    assert traced.annual_cost == serial.annual_cost
