"""Process chaos against the *chunked* batch transport.

The scalar chaos suite (tests/integration/test_chaos_design.py)
proves crashes, hangs and poison candidates degrade gracefully under
per-candidate dispatch.  These tests re-run that battery with
batching on, where several candidates share one worker submission: a
fault inside a chunk must convict only the poison member (suspicion
-> isolation -> quarantine), never its chunk-mates, and the surviving
search must still produce the fault-free design.
"""

import json

import pytest

from repro.core import Aved
from repro.core.serialize import evaluation_to_dict
from repro.model import ServiceRequirements
from repro.parallel import ParallelEvaluationRuntime, ParallelPolicy
from repro.resilience import BackoffPolicy, WorkerFaultPlan
from repro.units import Duration

REQUIREMENTS = ServiceRequirements(1000, Duration.minutes(100))


def canonical(outcome):
    return json.dumps(evaluation_to_dict(outcome.evaluation),
                      sort_keys=True)


def supervised_batched(infra, service, worker_plan, jobs=2,
                       task_retries=2, task_timeout=None):
    """An Aved with batching AND a fault-injecting supervised pool."""
    probe = Aved(infra, service)
    runtime = ParallelEvaluationRuntime(
        probe.evaluator.engine, jobs=jobs, worker_plan=worker_plan,
        policy=ParallelPolicy(task_retries=task_retries,
                              task_timeout=task_timeout,
                              backoff=BackoffPolicy(backoff_base=0.0)))
    return Aved(infra, service, parallel=runtime, batch=True), runtime


@pytest.fixture(scope="module")
def fault_free(paper_infra, ecommerce):
    return Aved(paper_infra, ecommerce).design(REQUIREMENTS)


class TestChunkedWorkerCrashes:
    def test_thirty_percent_crashes_reproduce_design(
            self, paper_infra, ecommerce, fault_free):
        """30% of submissions crash their worker while candidates ride
        in shape chunks: the batched search still lands on the exact
        fault-free design, with the crashes on the record."""
        plan = WorkerFaultPlan(seed=7, fault_rate=0.3,
                               max_faults_per_task=1)
        engine, runtime = supervised_batched(paper_infra, ecommerce,
                                             plan)
        try:
            outcome = engine.design(REQUIREMENTS)
        finally:
            runtime.close()
        assert canonical(outcome) == canonical(fault_free)
        assert outcome.stats.quarantined == 0
        codes = {d.code for d in outcome.degradation}
        assert "AVD403" in codes      # crashes observed
        assert "AVD402" not in codes  # nobody falsely convicted

    def test_poison_member_quarantined_alone(self, paper_infra,
                                             ecommerce, fault_free):
        """A candidate that kills its worker on every submission is
        convicted in isolation; its chunk-mates are exonerated and the
        rest of the design matches the fault-free run."""
        plan = WorkerFaultPlan(seed=3, poison_tasks=(5,),
                               poison_mode="crash")
        engine, runtime = supervised_batched(paper_infra, ecommerce,
                                             plan, task_retries=1)
        try:
            outcome = engine.design(REQUIREMENTS)
        finally:
            runtime.close()
        assert len(runtime.quarantine) == 1
        assert outcome.stats.quarantined == 1
        quarantines = [d for d in outcome.degradation
                       if d.code == "AVD402"]
        assert len(quarantines) == 1
        assert "worker process crashed" in quarantines[0].message
        # One quarantined candidate must not change the winning design
        # (the paper models admit many same-cost neighbors, but the
        # fault-free winner here is not task 5).
        assert outcome.design.describe() == \
            fault_free.design.describe()
        assert outcome.annual_cost == fault_free.annual_cost

    def test_two_poison_members_both_convicted(self, paper_infra,
                                               ecommerce):
        plan = WorkerFaultPlan(seed=3, poison_tasks=(5, 17),
                               poison_mode="crash")
        engine, runtime = supervised_batched(paper_infra, ecommerce,
                                             plan, task_retries=1)
        try:
            outcome = engine.design(REQUIREMENTS)
        finally:
            runtime.close()
        assert len(runtime.quarantine) == 2
        assert outcome.stats.quarantined == 2
        assert len([d for d in outcome.degradation
                    if d.code == "AVD402"]) == 2


class TestChunkedHangs:
    def test_hanging_poison_member_is_timed_out(self, paper_infra,
                                                app_tier_service):
        """A hanging member inside a chunk burns the chunk's timeout
        budget, is isolated, and is convicted by the solo timeout."""
        plan = WorkerFaultPlan(seed=1, poison_tasks=(2,),
                               poison_mode="hang", hang_seconds=60.0)
        engine, runtime = supervised_batched(
            paper_infra, app_tier_service, plan, task_retries=0,
            task_timeout=0.5)
        try:
            outcome = engine.design(REQUIREMENTS)
        finally:
            runtime.close()
        assert outcome.stats.quarantined >= 1
        codes = {d.code for d in outcome.degradation}
        assert "AVD404" in codes
        assert "AVD402" in codes


class TestChunkedCleanRun:
    def test_fault_free_chunked_run_is_clean_and_identical(
            self, paper_infra, ecommerce, fault_free):
        engine, runtime = supervised_batched(paper_infra, ecommerce,
                                             WorkerFaultPlan())
        try:
            outcome = engine.design(REQUIREMENTS)
        finally:
            runtime.close()
        assert canonical(outcome) == canonical(fault_free)
        assert not outcome.degraded
        assert outcome.stats.parallel_batches > 0
        assert outcome.stats.batched_wavefronts > 0
