"""The supervised executor: batch evaluation that survives its workers.

:class:`SupervisedExecutor` runs batches of candidate availability
solves either **in-process** (supervised serial, ``jobs=1``) or across
a **worker pool** (``jobs>1``) owned by a
:class:`~repro.parallel.supervisor.PoolSupervisor`.  Either way it
upholds the same contract:

* an engine exception, garbage result, worker crash, or wall-clock
  timeout costs the *candidate* a bounded retry (with jittered
  backoff, reusing :mod:`repro.resilience.policy`), never the search;
* a candidate that keeps failing is handed to the
  :class:`~repro.parallel.quarantine.PoisonQuarantine` and skipped --
  recorded as an ``AVD402`` diagnostic, not raised as an error;
* results are returned through :func:`repro.parallel.merge.merge_results`
  in submission order, so downstream consumers are order-independent
  of worker scheduling.

Crash attribution.  When a worker dies, ``ProcessPoolExecutor``
invalidates the whole pool and cannot say *which* task was to blame.
Blaming every in-flight task would eventually quarantine innocent
candidates, so the executor keeps two counters per task: ``faults``
(precisely attributed -- isolated crashes, timeouts, worker-reported
errors) drives quarantine, while ``suspicion`` (shared blame from
pool-wide crashes) only *escalates*: a task suspected
``isolate_after`` times is re-run **alone** in the pool, where a crash
is unambiguous.  Innocent candidates always clear themselves in
isolation; poison candidates are convicted there and quarantined.

Worker-side faults injected by a
:class:`~repro.resilience.WorkerFaultPlan` (chaos tests) take the same
paths as real crashes: ``os._exit`` in the middle of a task, or a
sleep that outlives the task timeout.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import SearchError
from ..obs import current as _obs_current
from ..obs import observing as _obs_observing
from ..resilience.chaos import WorkerFaultPlan
from ..resilience.events import (QUARANTINE, TASK_TIMEOUT, WORKER_CRASH,
                                 DegradationLog)
from ..resilience.policy import (POOL_BACKOFF, BackoffPolicy,
                                 RetrySchedule)
from .merge import merge_results
from .quarantine import PoisonQuarantine
from .supervisor import PoolSupervisor


@dataclass(frozen=True)
class ParallelPolicy:
    """Knobs for the supervised evaluation runtime.

    ``task_retries`` bounds attributed faults per candidate before
    quarantine (so a candidate gets ``task_retries + 1`` chances).
    ``task_timeout`` is the per-candidate wall-clock budget in seconds
    (None disables it); in the pool it is enforced by killing the
    worker, in-process it is cooperative (the overrun is detected
    after the solve and treated as a fault).  ``isolate_after`` is the
    shared-blame threshold that sends a suspect candidate to an
    isolated run.  ``max_pool_restarts`` bounds pool restarts per
    batch before degrading to serial.  ``backoff`` supplies the
    jittered retry/restart delays
    (:meth:`repro.resilience.BackoffPolicy.backoff_delay`).
    """

    task_retries: int = 2
    task_timeout: Optional[float] = None
    isolate_after: int = 2
    max_pool_restarts: int = 50
    poll_interval: float = 0.02
    startup_timeout: float = 60.0
    validate_results: bool = True
    backoff: BackoffPolicy = POOL_BACKOFF

    def __post_init__(self) -> None:
        if self.task_retries < 0:
            raise SearchError("task_retries cannot be negative")
        if self.task_timeout is not None \
                and not 0 < self.task_timeout < math.inf:
            raise SearchError("task_timeout must be positive and finite "
                              "or None")
        if self.isolate_after < 1:
            raise SearchError("isolate_after must be >= 1")
        if self.max_pool_restarts < 0:
            raise SearchError("max_pool_restarts cannot be negative")
        if self.poll_interval <= 0:
            raise SearchError("poll_interval must be positive")
        if self.startup_timeout <= 0:
            raise SearchError("startup_timeout must be positive")


# ----------------------------------------------------------------------
# Worker-side code.  Module-level so every start method can import it;
# the engine and fault plan arrive via the pool initializer (inherited
# for free under fork, pickled under spawn).
# ----------------------------------------------------------------------

_WORKER_ENGINE: Any = None
_WORKER_PLAN: Optional[WorkerFaultPlan] = None


def _init_worker(engine_blob: bytes,
                 plan: Optional[WorkerFaultPlan]) -> None:
    # Shed signal handlers inherited under fork: the CLI maps SIGTERM
    # to KeyboardInterrupt for checkpoint flushing, but a worker that
    # raises mid-``call_queue.get()`` can die holding the shared queue
    # lock and deadlock its siblings (and the parent's shutdown).
    # Workers must die plainly on SIGTERM and leave Ctrl-C (delivered
    # group-wide by the terminal) to the parent's coordinated unwind.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):        # non-main thread / exotic host
        pass
    global _WORKER_ENGINE, _WORKER_PLAN
    _WORKER_ENGINE = pickle.loads(engine_blob)
    _WORKER_PLAN = plan


def _ping() -> str:
    return "pong"


def _evaluate_candidate(task_id: int, submission: int, model: Any,
                        trace: bool = False) -> Tuple[Any, ...]:
    """Evaluate one tier model; never raises across the pipe.

    Engine exceptions come back as ``("error", detail)`` so they stay
    attributable to the candidate instead of poisoning the pool
    protocol.  Injected process faults (chaos) bypass that, which is
    the point: they exercise the crash/hang supervision paths.

    When the parent is tracing (``trace=True``) the solve runs under a
    temporary in-worker observer; the spans it records travel back as
    serialized dicts in a fourth payload slot, and the parent
    re-parents them under its batch span (see
    :meth:`ParallelEvaluationRuntime.evaluate_batch`).  Untraced runs
    keep the legacy 3-tuple payload.
    """
    if _WORKER_PLAN is not None:
        action = _WORKER_PLAN.decide(task_id, submission)
        if action == "crash":
            os._exit(3)
        elif action == "hang":
            time.sleep(_WORKER_PLAN.hang_seconds)
    if not trace:
        try:
            result = _WORKER_ENGINE.evaluate_tier(model)
            return (task_id, "ok", float(result.unavailability))
        except Exception as exc:
            return (task_id, "error",
                    "%s: %s" % (type(exc).__name__, exc))
    with _obs_observing() as worker_obs:
        try:
            result = _WORKER_ENGINE.evaluate_tier(model)
            payload: Tuple[Any, ...] = (task_id, "ok",
                                        float(result.unavailability))
        except Exception as exc:
            payload = (task_id, "error",
                       "%s: %s" % (type(exc).__name__, exc))
    return payload + (worker_obs.tracer.to_dicts(),)


def _evaluate_chunk(task_ids: List[int], submissions: List[int],
                    models: List[Any]) -> List[Tuple[Any, ...]]:
    """Evaluate a shape-grouped chunk as one ``evaluate_tiers`` call.

    Returns one ``(task_id, "ok", value)`` / ``(task_id, "error",
    detail)`` payload per member, in submission order; like
    :func:`_evaluate_candidate`, never raises across the pipe.  Chaos
    faults are consulted per member *before* solving, so a poison
    member injected by a :class:`~repro.resilience.WorkerFaultPlan`
    still crashes or hangs the worker exactly as it would alone -- the
    parent cannot attribute the crash within the chunk, so members are
    re-run under suspicion until isolation convicts the poison one.
    """
    if _WORKER_PLAN is not None:
        for task_id, submission in zip(task_ids, submissions):
            action = _WORKER_PLAN.decide(task_id, submission)
            if action == "crash":
                os._exit(3)
            elif action == "hang":
                time.sleep(_WORKER_PLAN.hang_seconds)
    try:
        outcomes = _WORKER_ENGINE.evaluate_tiers(models)
    except Exception as exc:
        detail = "%s: %s" % (type(exc).__name__, exc)
        return [(task_id, "error", detail) for task_id in task_ids]
    payloads: List[Tuple[Any, ...]] = []
    for task_id, outcome in zip(task_ids, outcomes):
        if isinstance(outcome, Exception):
            payloads.append((task_id, "error", "%s: %s"
                             % (type(outcome).__name__, outcome)))
        else:
            payloads.append((task_id, "ok",
                             float(outcome.unavailability)))
    return payloads


# ----------------------------------------------------------------------
# Parent-side supervision.
# ----------------------------------------------------------------------

class _TaskState:
    """Parent-side bookkeeping for one submitted candidate."""

    __slots__ = ("task_id", "key", "model", "tier", "submissions",
                 "faults", "suspicion")

    def __init__(self, task_id: int, key: tuple, model: Any):
        self.task_id = task_id
        self.key = key
        self.model = model
        self.tier = getattr(model, "name", "")
        #: Times the task was handed to a worker (any outcome).
        self.submissions = 0
        #: Precisely attributed faults (drive quarantine).
        self.faults = 0
        #: Shared blame from unattributable pool crashes (drives
        #: isolation, never quarantine).
        self.suspicion = 0


class SupervisedExecutor:
    """Evaluates candidate batches under supervision (see module doc)."""

    def __init__(self, engine: Any, jobs: int = 1,
                 policy: Optional[ParallelPolicy] = None,
                 worker_plan: Optional[WorkerFaultPlan] = None,
                 log: Optional[DegradationLog] = None,
                 quarantine: Optional[PoisonQuarantine] = None,
                 seed: int = 1,
                 pool_factory: Any = None,
                 cancel_check: Any = None):
        if jobs < 1:
            raise SearchError("jobs must be >= 1, got %d" % jobs)
        self.engine = engine
        self.jobs = jobs
        #: Optional zero-arg callable invoked between candidate
        #: evaluations; raising from it aborts the batch/search
        #: cooperatively (the serving layer's drain/deadline hook).
        #: It runs *outside* the *fault-supervision* try blocks, so
        #: whatever it raises propagates instead of counting against
        #: any candidate.
        self.cancel_check = cancel_check
        self.policy = policy if policy is not None else ParallelPolicy()
        self.log = log if log is not None else DegradationLog()
        self.quarantine = (quarantine if quarantine is not None
                           else PoisonQuarantine())
        self._rng = random.Random(seed)
        self._backoff = RetrySchedule(self.policy.backoff, rng=self._rng)
        self._task_counter = 0
        #: ``(task_id, [span dict, ...])`` pairs from traced workers,
        #: accumulated per batch and drained by the runtime facade.
        self._worker_spans: List[Tuple[int, List[dict]]] = []
        #: Counters for tests/benchmarks: pool breaks, timeouts, etc.
        self.counters: Dict[str, int] = {}
        self.supervisor: Optional[PoolSupervisor] = None
        if jobs > 1:
            self.supervisor = PoolSupervisor(
                jobs=jobs, initializer=_init_worker,
                initargs=(pickle.dumps(engine), worker_plan),
                ping=_ping, log=self.log, backoff=self.policy.backoff,
                max_restarts_per_batch=self.policy.max_pool_restarts,
                startup_timeout=self.policy.startup_timeout, seed=seed,
                pool_factory=pool_factory)

    # ------------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True while batches may actually fan out across processes."""
        return (self.supervisor is not None
                and not self.supervisor.degraded)

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.close()

    def _count(self, kind: str) -> None:
        self.counters[kind] = self.counters.get(kind, 0) + 1

    def drain_worker_spans(self) -> List[dict]:
        """Spans shipped back by traced workers, in submission order.

        Flattened and sorted by task id (not completion order), so the
        re-parented trace is deterministic regardless of worker
        scheduling.  Clears the per-batch accumulator.
        """
        self._worker_spans.sort(key=lambda pair: pair[0])
        flat = [span for _, spans in self._worker_spans
                for span in spans]
        self._worker_spans = []
        return flat

    # ------------------------------------------------------------------
    # Batch evaluation (jobs > 1; falls back inline when the pool dies).
    # ------------------------------------------------------------------

    def run_batch(self, tasks: Sequence[Tuple[tuple, Any]],
                  grouper: Any = None) -> List[Tuple[tuple, float]]:
        """Evaluate ``[(key, model), ...]``; deterministic merge out.

        Quarantined candidates are absent from the result; the caller
        treats absence via :attr:`quarantine`.

        ``grouper`` (optional, ``model -> hashable``) turns on chunked
        dispatch: tasks sharing a group key are submitted to one worker
        as a single chunk, which the worker solves with one
        ``evaluate_tiers`` call (a stacked wavefront on the Markov
        engine) instead of N ``evaluate_tier`` calls.  Values are
        bit-identical either way.  Suspect tasks still run isolated,
        and traced runs stay unchunked so per-candidate spans keep
        their exact shape.
        """
        states: List[_TaskState] = []
        for key, model in tasks:
            state = _TaskState(self._task_counter, key, model)
            self._task_counter += 1
            states.append(state)
        results: Dict[int, float] = {}
        pending: Dict[int, _TaskState] = {s.task_id: s for s in states}
        self._worker_spans = []
        if self.supervisor is not None:
            self.supervisor.begin_batch()
        while pending:
            if self.cancel_check is not None:
                self.cancel_check()
            pool = (self.supervisor.pool()
                    if self.supervisor is not None else None)
            if pool is None:
                self._run_inline(pending, results)
                break
            group = self._next_group(pending)
            self._run_group(pool, group, pending, results,
                            grouper=grouper)
        return merge_results(states, results)

    def _next_group(self, pending: Dict[int, _TaskState]) \
            -> List[_TaskState]:
        """Suspects run alone (precise blame); everyone else together."""
        ordered = sorted(pending.values(), key=lambda s: s.task_id)
        suspects = [state for state in ordered
                    if state.suspicion >= self.policy.isolate_after]
        if suspects:
            return [suspects[0]]
        return ordered

    @staticmethod
    def _shape_chunks(group: List[_TaskState],
                      grouper: Any) -> List[List[_TaskState]]:
        """Partition a group by shape key, preserving task order."""
        buckets: Dict[Any, List[_TaskState]] = {}
        order: List[Any] = []
        for state in group:
            key = grouper(state.model)
            if key not in buckets:
                buckets[key] = []
                order.append(key)
            buckets[key].append(state)
        return [buckets[key] for key in order]

    def _run_group(self, pool: Any, group: List[_TaskState],
                   pending: Dict[int, _TaskState],
                   results: Dict[int, float],
                   grouper: Any = None) -> None:
        futures: Dict[Future, List[_TaskState]] = {}
        trace = _obs_current().enabled
        if grouper is not None and not trace and len(group) > 1:
            chunks = self._shape_chunks(group, grouper)
        else:
            chunks = [[state] for state in group]
        try:
            for chunk in chunks:
                for state in chunk:
                    state.submissions += 1
                if len(chunk) == 1:
                    state = chunk[0]
                    future = pool.submit(
                        _evaluate_candidate, state.task_id,
                        state.submissions, state.model, trace)
                else:
                    future = pool.submit(
                        _evaluate_chunk,
                        [state.task_id for state in chunk],
                        [state.submissions for state in chunk],
                        [state.model for state in chunk])
                futures[future] = chunk
        except BaseException:
            # submit() itself only fails when the pool is already
            # broken or shut down; treat it like a wholesale crash.
            self._pool_crashed(futures, group, pending)
            return
        self._collect(futures, group, pending, results)

    def _collect(self, futures: Dict[Future, List[_TaskState]],
                 group: List[_TaskState],
                 pending: Dict[int, _TaskState],
                 results: Dict[int, float]) -> None:
        timeout = self.policy.task_timeout
        running_since: Dict[int, float] = {}
        while futures:
            done, _ = wait(set(futures),
                           timeout=(self.policy.poll_interval
                                    if timeout is not None else None),
                           return_when=FIRST_COMPLETED)
            for future in done:
                chunk = futures.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    self._pool_crashed(futures, group, pending)
                    return
                except Exception as exc:
                    detail = ("dispatch failed: %s: %s"
                              % (type(exc).__name__, exc))
                    if len(chunk) == 1:
                        # The pool machinery failed for this task alone
                        # (e.g. the model did not pickle); attributable.
                        self._attributed_fault(chunk[0], pending, detail)
                    else:
                        # Which member broke the chunk is unknowable
                        # here; suspicion (not faults) so innocents
                        # clear themselves on the isolated re-run.
                        self._count("chunk-dispatch-failed")
                        for state in chunk:
                            state.suspicion += 1
                    continue
                payloads = (payload if isinstance(payload, list)
                            else [payload])
                for state, member_payload in zip(chunk, payloads):
                    self._settle(state, member_payload, pending, results)
            if timeout is not None and futures:
                now = time.monotonic()
                overdue = []
                for future, chunk in futures.items():
                    if not future.running():
                        continue
                    started = running_since.setdefault(
                        chunk[0].task_id, now)
                    # A chunk gets one task budget per member.
                    if now - started > timeout * len(chunk):
                        overdue.append((future, chunk))
                if overdue:
                    self._tasks_hung(overdue, futures, pending)
                    return

    def _settle(self, state: _TaskState, payload: Any,
                pending: Dict[int, _TaskState],
                results: Dict[int, float]) -> None:
        task_id, status, value = payload[0], payload[1], payload[2]
        spans = payload[3] if len(payload) > 3 else None
        if status == "ok":
            reason = self._garbage_reason(value)
            if reason is None:
                # Success clears shared blame: the candidate has
                # proven itself innocent of earlier pool crashes.
                state.suspicion = 0
                results[state.task_id] = value
                del pending[state.task_id]
                # Only the settling attempt's spans are kept, so the
                # trace stays deterministic under retries.
                if spans:
                    self._worker_spans.append((state.task_id, spans))
                return
            self._count("garbage")
            self._attributed_fault(state, pending, reason)
            return
        self._count("worker-error")
        self._attributed_fault(state, pending, str(value))

    def _garbage_reason(self, value: Any) -> Optional[str]:
        if not self.policy.validate_results:
            return None
        if not isinstance(value, (int, float)):
            return ("worker returned non-numeric unavailability %r"
                    % (value,))
        if value != value:  # NaN
            return "worker returned NaN unavailability"
        if not -1e-12 <= value <= 1.0 + 1e-12:
            return ("worker returned unavailability %r outside [0, 1]"
                    % (value,))
        return None

    # -- fault paths ----------------------------------------------------

    def _pool_crashed(self, futures: Dict[Future, List[_TaskState]],
                      group: List[_TaskState],
                      pending: Dict[int, _TaskState]) -> None:
        """A worker died and took the pool with it."""
        self._count("pool-break")
        survivors = [state for state in group
                     if state.task_id in pending]
        if len(group) == 1:
            # Isolated run: the crash is unambiguously this task's.
            state = group[0]
            self.log.add(WORKER_CRASH, tier=state.tier,
                         detail="worker died evaluating isolated "
                                "candidate (submission %d)"
                         % state.submissions,
                         attempt=state.faults + 1)
            self._attributed_fault(state, pending,
                                   "worker process crashed",
                                   logged=True)
        else:
            self.log.add(WORKER_CRASH,
                         detail="worker died with %d candidate(s) in "
                                "flight; re-running them under "
                                "suspicion" % len(survivors))
            for state in survivors:
                state.suspicion += 1
        futures.clear()
        if self.supervisor is not None:
            self.supervisor.restart("worker crash")

    def _tasks_hung(self, overdue: List[Tuple[Future, List[_TaskState]]],
                    futures: Dict[Future, List[_TaskState]],
                    pending: Dict[int, _TaskState]) -> None:
        """Overdue tasks: the pool is killed to reclaim the stuck
        workers, and innocents in flight are just re-run.  A lone task
        owns its overrun (attributable fault); within a chunk the
        culprit is unknowable, so every member is merely suspected and
        isolation convicts the real one."""
        for _, chunk in overdue:
            if len(chunk) == 1:
                state = chunk[0]
                self._count("task-timeout")
                self.log.add(TASK_TIMEOUT, tier=state.tier,
                             detail="candidate exceeded task timeout "
                                    "%.3fs (submission %d)"
                             % (self.policy.task_timeout,
                                state.submissions),
                             attempt=state.faults + 1)
                self._attributed_fault(state, pending,
                                       "evaluation hung past the task "
                                       "timeout", logged=True)
            else:
                self._count("chunk-timeout")
                self.log.add(TASK_TIMEOUT,
                             detail="batched chunk of %d exceeded its "
                                    "%.3fs budget; re-running members "
                                    "under suspicion"
                             % (len(chunk),
                                self.policy.task_timeout * len(chunk)))
                for state in chunk:
                    state.suspicion += 1
        futures.clear()
        if self.supervisor is not None:
            self.supervisor.restart("task timeout")

    def _attributed_fault(self, state: _TaskState,
                          pending: Dict[int, _TaskState], detail: str,
                          logged: bool = False) -> None:
        """One precisely attributed fault; quarantine when exhausted."""
        state.faults += 1
        if state.faults > self.policy.task_retries:
            self.quarantine.add(state.key, tier=state.tier,
                                attempts=state.faults, reason=detail)
            self.log.add(QUARANTINE, tier=state.tier,
                         detail="quarantined after %d fault(s): %s"
                         % (state.faults, detail),
                         attempt=state.faults)
            pending.pop(state.task_id, None)
            return
        self._backoff.pause(state.faults)

    # ------------------------------------------------------------------
    # In-process evaluation (jobs == 1, and the degraded-pool path).
    # ------------------------------------------------------------------

    def _run_inline(self, pending: Dict[int, _TaskState],
                    results: Dict[int, float]) -> None:
        for state in sorted(pending.values(), key=lambda s: s.task_id):
            value = self.evaluate_inline(state.key, state.model)
            if value is not None:
                results[state.task_id] = value
        pending.clear()

    def evaluate_inline(self, key: tuple, model: Any) -> Optional[float]:
        """One candidate, in-process, under the same supervision.

        Returns the unavailability, or None when the candidate ends up
        quarantined.  The timeout here is cooperative: a solve cannot
        be preempted in-process, so an overrun is detected after the
        fact and the (late) result discarded as a fault.
        """
        if key in self.quarantine:
            return None
        tier = getattr(model, "name", "")
        faults = 0
        while True:
            if self.cancel_check is not None:
                self.cancel_check()
            detail = None
            started = (time.monotonic()
                       if self.policy.task_timeout is not None else 0.0)
            try:
                value = float(self.engine.evaluate_tier(model)
                              .unavailability)
            except Exception as exc:
                detail = "%s: %s" % (type(exc).__name__, exc)
            else:
                if self.policy.task_timeout is not None:
                    elapsed = time.monotonic() - started
                    if elapsed > self.policy.task_timeout:
                        self._count("task-timeout")
                        detail = ("evaluation took %.3fs (task timeout "
                                  "%.3fs)" % (elapsed,
                                              self.policy.task_timeout))
                        self.log.add(TASK_TIMEOUT, tier=tier,
                                     detail=detail, attempt=faults + 1)
                if detail is None:
                    detail = self._garbage_reason(value)
                    if detail is not None:
                        self._count("garbage")
                if detail is None:
                    return value
            faults += 1
            if faults > self.policy.task_retries:
                self.quarantine.add(key, tier=tier, attempts=faults,
                                    reason=detail)
                self.log.add(QUARANTINE, tier=tier,
                             detail="quarantined after %d fault(s): %s"
                             % (faults, detail), attempt=faults)
                return None
            self._backoff.pause(faults)


__all__ = ["ParallelPolicy", "SupervisedExecutor"]
