"""Unit tests for the supervised executor (inline and pooled).

The fake engines/models live at module level so they pickle across
the worker-pool boundary.
"""

import time

import pytest

from repro.errors import SearchError
from repro.parallel import ParallelPolicy, SupervisedExecutor
from repro.resilience import BackoffPolicy, WorkerFaultPlan
from repro.resilience.events import (POOL_DEGRADED, QUARANTINE,
                                     TASK_TIMEOUT, WORKER_CRASH)

#: A retry policy with no sleeping, so fault-path tests stay fast.
FAST = BackoffPolicy(backoff_base=0.0)


class FakeModel:
    def __init__(self, name, value):
        self.name = name
        self.value = value


class FakeResult:
    def __init__(self, unavailability):
        self.unavailability = unavailability


class FakeEngine:
    """Returns the model's own value; special values misbehave."""

    def evaluate_tier(self, model):
        if model.value == "raise":
            raise ValueError("engine exploded")
        if model.value == "nan":
            return FakeResult(float("nan"))
        if model.value == "garbage":
            return FakeResult(5.0)
        if isinstance(model.value, tuple) and model.value[0] == "sleep":
            time.sleep(model.value[1])
            return FakeResult(0.01)
        return FakeResult(model.value)


class FlakyEngine:
    """Raises on the first ``failures`` calls, then works.

    Only meaningful inline: worker processes would each get their own
    fresh copy of the counter.
    """

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def evaluate_tier(self, model):
        self.calls += 1
        if self.calls <= self.failures:
            raise ValueError("transient fault %d" % self.calls)
        return FakeResult(model.value)


def _model(key, value):
    return FakeModel(key[0], value)


class TestInlineSupervision:
    def test_success_returns_value(self):
        executor = SupervisedExecutor(FakeEngine(), jobs=1)
        assert executor.evaluate_inline(("a",), _model(("a",), 0.25)) \
            == 0.25

    def test_transient_fault_recovers_within_retries(self):
        executor = SupervisedExecutor(
            FlakyEngine(failures=2), jobs=1,
            policy=ParallelPolicy(task_retries=2, backoff=FAST))
        assert executor.evaluate_inline(("a",), _model(("a",), 0.5)) \
            == 0.5
        assert len(executor.quarantine) == 0

    def test_persistent_fault_quarantines(self):
        executor = SupervisedExecutor(
            FakeEngine(), jobs=1,
            policy=ParallelPolicy(task_retries=1, backoff=FAST))
        assert executor.evaluate_inline(("a",),
                                        _model(("a",), "raise")) is None
        assert ("a",) in executor.quarantine
        record = next(iter(executor.quarantine))
        assert record.attempts == 2  # task_retries + 1
        assert "engine exploded" in record.reason
        assert len(executor.log.of_kind(QUARANTINE)) == 1

    def test_quarantined_key_short_circuits(self):
        executor = SupervisedExecutor(
            FakeEngine(), jobs=1,
            policy=ParallelPolicy(task_retries=0, backoff=FAST))
        executor.evaluate_inline(("a",), _model(("a",), "raise"))
        # A later call must not re-run the engine at all.
        assert executor.evaluate_inline(("a",),
                                        _model(("a",), 0.5)) is None

    @pytest.mark.parametrize("value", ["nan", "garbage"])
    def test_garbage_results_are_faults(self, value):
        executor = SupervisedExecutor(
            FakeEngine(), jobs=1,
            policy=ParallelPolicy(task_retries=0, backoff=FAST))
        assert executor.evaluate_inline(("a",),
                                        _model(("a",), value)) is None
        assert ("a",) in executor.quarantine
        assert executor.counters.get("garbage") == 1

    def test_cooperative_timeout_discards_late_result(self):
        executor = SupervisedExecutor(
            FakeEngine(), jobs=1,
            policy=ParallelPolicy(task_retries=0, task_timeout=0.01,
                                  backoff=FAST))
        value = executor.evaluate_inline(("a",),
                                         _model(("a",), ("sleep", 0.05)))
        assert value is None
        assert len(executor.log.of_kind(TASK_TIMEOUT)) == 1
        assert ("a",) in executor.quarantine

    def test_run_batch_without_pool_runs_inline(self):
        executor = SupervisedExecutor(FakeEngine(), jobs=1)
        merged = executor.run_batch([(("a",), _model(("a",), 0.1)),
                                     (("b",), _model(("b",), 0.2))])
        assert merged == [(("a",), 0.1), (("b",), 0.2)]


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"task_retries": -1},
        {"task_timeout": 0.0},
        {"isolate_after": 0},
        {"max_pool_restarts": -1},
        {"poll_interval": 0.0},
        {"startup_timeout": 0.0},
    ])
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(SearchError):
            ParallelPolicy(**kwargs)

    def test_bad_jobs_rejected(self):
        with pytest.raises(SearchError):
            SupervisedExecutor(FakeEngine(), jobs=0)


class TestPooledSupervision:
    def test_batch_merges_in_submission_order(self):
        executor = SupervisedExecutor(FakeEngine(), jobs=2)
        try:
            merged = executor.run_batch(
                [(("k%d" % i,), _model(("k%d" % i,), i / 10.0))
                 for i in range(6)])
        finally:
            executor.close()
        assert merged == [(("k%d" % i,), i / 10.0) for i in range(6)]

    def test_worker_error_is_attributed_and_quarantined(self):
        executor = SupervisedExecutor(
            FakeEngine(), jobs=2,
            policy=ParallelPolicy(task_retries=1, backoff=FAST))
        try:
            merged = executor.run_batch(
                [(("good",), _model(("good",), 0.1)),
                 (("bad",), _model(("bad",), "raise"))])
        finally:
            executor.close()
        assert merged == [(("good",), 0.1)]
        assert ("bad",) in executor.quarantine
        assert "engine exploded" in next(iter(executor.quarantine)).reason
        # An in-worker exception must not have broken the pool.
        assert executor.counters.get("pool-break") is None

    def test_poison_crash_quarantined_innocents_survive(self):
        # Task ids are assigned in submission order starting at 0, so
        # poisoning task 1 crashes the second candidate every time.
        plan = WorkerFaultPlan(poison_tasks=(1,), poison_mode="crash")
        executor = SupervisedExecutor(
            FakeEngine(), jobs=2, worker_plan=plan,
            policy=ParallelPolicy(task_retries=1, backoff=FAST))
        try:
            merged = executor.run_batch(
                [(("a",), _model(("a",), 0.1)),
                 (("poison",), _model(("poison",), 0.2)),
                 (("c",), _model(("c",), 0.3))])
        finally:
            executor.close()
        assert merged == [(("a",), 0.1), (("c",), 0.3)]
        assert executor.quarantine.keys == (("poison",),)
        assert len(executor.log.of_kind(WORKER_CRASH)) >= 1
        assert len(executor.log.of_kind(QUARANTINE)) == 1

    def test_single_crash_recovers_without_quarantine(self):
        # Every task may crash at most once: bounded retry must
        # recover all of them with no quarantine.
        plan = WorkerFaultPlan(seed=11, fault_rate=1.0,
                               max_faults_per_task=1)
        executor = SupervisedExecutor(
            FakeEngine(), jobs=2, worker_plan=plan,
            policy=ParallelPolicy(task_retries=2, backoff=FAST))
        try:
            merged = executor.run_batch(
                [(("k%d" % i,), _model(("k%d" % i,), i / 10.0))
                 for i in range(4)])
        finally:
            executor.close()
        assert merged == [(("k%d" % i,), i / 10.0) for i in range(4)]
        assert len(executor.quarantine) == 0

    def test_hung_worker_times_out_and_is_quarantined(self):
        plan = WorkerFaultPlan(poison_tasks=(0,), poison_mode="hang",
                               hang_seconds=30.0)
        executor = SupervisedExecutor(
            FakeEngine(), jobs=2, worker_plan=plan,
            policy=ParallelPolicy(task_retries=0, task_timeout=0.3,
                                  backoff=FAST))
        try:
            merged = executor.run_batch(
                [(("hang",), _model(("hang",), 0.1)),
                 (("b",), _model(("b",), 0.2))])
        finally:
            executor.close()
        assert (("b",), 0.2) in merged
        assert ("hang",) in executor.quarantine
        assert len(executor.log.of_kind(TASK_TIMEOUT)) == 1

    def test_unstartable_pool_degrades_to_inline(self):
        def broken_factory(jobs, initializer, initargs):
            raise OSError("no processes for you")

        executor = SupervisedExecutor(FakeEngine(), jobs=2,
                                      pool_factory=broken_factory)
        try:
            merged = executor.run_batch([(("a",), _model(("a",), 0.1))])
            degraded = not executor.parallel
        finally:
            executor.close()  # resets degradation for the next search
        assert merged == [(("a",), 0.1)]
        assert degraded
        events = executor.log.of_kind(POOL_DEGRADED)
        assert len(events) == 1
        assert "no processes for you" in events[0].detail
