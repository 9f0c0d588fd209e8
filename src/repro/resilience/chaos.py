"""Deterministic process-level fault injection for pool workers.

:class:`WorkerFaultPlan` is a seeded schedule of worker crashes and
hangs that the supervised parallel runtime (:mod:`repro.parallel`)
installs in every worker.  The same seed always yields the same
schedule, so the worker-crash chaos suites are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import SearchError


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A seeded schedule of *process-level* faults for pool workers.

    The plan injects the faults only a supervisor can survive: the
    worker process dies outright (``os._exit``) or hangs past its
    wall-clock timeout.  The supervised executor
    (:mod:`repro.parallel`) installs the plan in every worker;
    :meth:`decide` is a pure function of
    ``(seed, task_id, submission)``, so a schedule replays identically
    regardless of which worker picks the task up.

    ``fault_rate`` is the per-submission probability of a fault;
    ``hang_fraction`` of the injected faults hang (the rest crash).
    ``max_faults_per_task`` bounds how many submissions of one task
    may fault (default 1: a task crashes at most once, so bounded
    retry always recovers it); ``poison_tasks`` lists task ids that
    fault on *every* submission -- those are what the quarantine
    exists for.
    """

    seed: int = 0
    fault_rate: float = 0.0
    hang_fraction: float = 0.0
    hang_seconds: float = 30.0
    max_faults_per_task: Optional[int] = 1
    poison_tasks: Tuple[int, ...] = ()
    poison_mode: str = "crash"          # "crash" | "hang"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise SearchError("fault_rate must be in [0, 1], got %r"
                              % (self.fault_rate,))
        if not 0.0 <= self.hang_fraction <= 1.0:
            raise SearchError("hang_fraction must be in [0, 1], got %r"
                              % (self.hang_fraction,))
        if self.hang_seconds < 0:
            raise SearchError("hang_seconds cannot be negative")
        if self.max_faults_per_task is not None \
                and self.max_faults_per_task < 0:
            raise SearchError("max_faults_per_task cannot be negative")
        if self.poison_mode not in ("crash", "hang"):
            raise SearchError("poison_mode must be crash|hang, got %r"
                              % (self.poison_mode,))

    def decide(self, task_id: int, submission: int) -> Optional[str]:
        """The fault for this (task, submission), if any.

        Returns ``"crash"``, ``"hang"``, or None.  ``submission`` is
        1-based and counts every time the task is handed to a worker.
        """
        if task_id in self.poison_tasks:
            return self.poison_mode
        if self.max_faults_per_task is not None \
                and submission > self.max_faults_per_task:
            return None
        # hash() of an int tuple is stable within a process tree and
        # independent of which worker draws it.
        rng = random.Random(hash((self.seed, task_id, submission)))
        if rng.random() >= self.fault_rate:
            return None
        return "hang" if rng.random() < self.hang_fraction else "crash"
