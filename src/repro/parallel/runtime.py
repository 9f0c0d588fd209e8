"""The search-facing facade over the supervised executor.

:class:`ParallelEvaluationRuntime` is what
:class:`~repro.core.TierSearch` and :class:`~repro.core.JobSearch`
actually hold.  It narrows the machinery in
:mod:`repro.parallel.executor` to the operations the search needs:

* :meth:`check_cancel` -- the caller's cancel check, run by the
  search before each wavefront;
* :meth:`evaluate_candidate` -- one supervised solve, in-process (a
  candidate the decision loop reaches after its wavefront solve
  failed);
* :meth:`evaluate_batch` -- a wavefront fanned out across the pool
  (``jobs>1``), returned as deterministically merged
  ``(key, unavailability)`` pairs;
* :meth:`drain_log` -- the accumulated AVD4xx degradation events,
  consumed by :meth:`repro.core.Aved._degradation_report`.

Both evaluate methods return ``None`` for (or silently omit)
quarantined candidates; the search treats those candidates as
infeasible and moves on.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..obs import current as _obs_current
from ..resilience.chaos import WorkerFaultPlan
from ..resilience.events import DegradationLog
from .executor import ParallelPolicy, SupervisedExecutor
from .quarantine import PoisonQuarantine


class ParallelEvaluationRuntime:
    """Supervised candidate evaluation for the design search."""

    def __init__(self, engine: Any, jobs: int = 1,
                 policy: Optional[ParallelPolicy] = None,
                 worker_plan: Optional[WorkerFaultPlan] = None,
                 seed: int = 1,
                 pool_factory: Any = None,
                 cancel_check: Any = None,
                 quarantine: Any = None):
        self.jobs = jobs
        self.log = DegradationLog()
        self.executor = SupervisedExecutor(
            engine, jobs=jobs, policy=policy, worker_plan=worker_plan,
            log=self.log, quarantine=quarantine, seed=seed,
            pool_factory=pool_factory, cancel_check=cancel_check)
        #: Batches dispatched through :meth:`evaluate_batch`.
        self.batches = 0

    # ------------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True while evaluation may actually fan out across workers."""
        return self.executor.parallel

    @property
    def quarantine(self) -> PoisonQuarantine:
        return self.executor.quarantine

    @property
    def policy(self) -> ParallelPolicy:
        return self.executor.policy

    def is_quarantined(self, key: tuple) -> bool:
        return key in self.executor.quarantine

    # ------------------------------------------------------------------

    def check_cancel(self) -> None:
        """Run the caller's cancel check; raises to abort the search.

        The search calls this before each wavefront, so a serve
        deadline, drain or client cancel stops it between solves.
        """
        if self.executor.cancel_check is not None:
            self.executor.cancel_check()

    def evaluate_candidate(self, key: tuple,
                           model: Any) -> Optional[float]:
        """One candidate, supervised, in-process.

        Returns its unavailability, or None when the candidate is (or
        just became) quarantined.
        """
        return self.executor.evaluate_inline(key, model)

    def evaluate_batch(self, tasks: Sequence[Tuple[tuple, Any]],
                       grouper: Any = None) \
            -> List[Tuple[tuple, float]]:
        """Fan a ``[(key, model), ...]`` batch out across the pool.

        Results come back merged in submission order (bit-identical
        regardless of worker scheduling); quarantined candidates are
        omitted.  With ``jobs=1`` (or a degraded pool) the batch runs
        serially in-process through the same supervision.

        ``grouper`` (``model -> hashable``, optional) enables
        shape-chunked dispatch: same-group tasks travel to one worker
        as a chunk the worker solves with one ``evaluate_tiers`` call
        (see :meth:`SupervisedExecutor.run_batch`).
        """
        if not tasks:
            return []
        self.batches += 1
        obs = _obs_current()
        if not obs.enabled:
            return self.executor.run_batch(tasks, grouper=grouper)
        with obs.span("parallel-batch", tasks=len(tasks),
                      jobs=self.jobs):
            merged = self.executor.run_batch(tasks, grouper=grouper)
            # Spans recorded inside traced workers come back as dicts;
            # re-parent them (in submission order) under this batch
            # span so the trace shows one tree across processes.
            for span in self.executor.drain_worker_spans():
                obs.tracer.attach(span, worker=True)
            obs.inc("parallel.batches")
        return merged

    # ------------------------------------------------------------------

    def health(self) -> dict:
        """A point-in-time health view of the evaluation runtime.

        Consumed by the serving layer's readiness endpoint: whether
        candidate evaluation can still fan out, whether the pool
        supervisor has degraded to serial, how many restarts it has
        paid, and how much poison the quarantine holds.
        """
        supervisor = self.executor.supervisor
        return {
            "jobs": self.jobs,
            "parallel": self.parallel,
            "pool_degraded": bool(supervisor is not None
                                  and supervisor.degraded),
            "pool_restarts": (supervisor.restarts
                              if supervisor is not None else 0),
            "quarantined": len(self.quarantine),
            "batches": self.batches,
            "counters": dict(self.executor.counters),
        }

    def drain_log(self) -> DegradationLog:
        """Hand over (and reset) the accumulated AVD4xx events."""
        drained = self.log
        self.log = DegradationLog()
        self.executor.log = self.log
        if self.executor.supervisor is not None:
            self.executor.supervisor.log = self.log
        return drained

    def close(self) -> None:
        self.executor.close()


def make_runtime(engine: Any, jobs: Optional[int],
                 task_timeout: Optional[float] = None,
                 worker_plan: Optional[WorkerFaultPlan] = None,
                 seed: int = 1,
                 cancel_check: Any = None,
                 quarantine: Any = None) \
        -> Optional[ParallelEvaluationRuntime]:
    """The constructor convention used by Aved/controller/CLI/serve.

    ``jobs=None`` means "no runtime at all" (wavefronts solved in
    process, unsupervised); otherwise a runtime with ``jobs``
    workers and an optional per-candidate wall-clock timeout.
    ``cancel_check`` (a zero-arg callable that raises to abort) and
    ``quarantine`` (a shared :class:`PoisonQuarantine`) let a
    long-lived caller -- the ``repro serve`` daemon -- cancel
    searches cooperatively and keep poison knowledge across runs.
    """
    if jobs is None:
        return None
    policy = ParallelPolicy(task_timeout=task_timeout)
    return ParallelEvaluationRuntime(engine, jobs=jobs, policy=policy,
                                     worker_plan=worker_plan, seed=seed,
                                     cancel_check=cancel_check,
                                     quarantine=quarantine)


__all__ = ["ParallelEvaluationRuntime", "make_runtime"]
