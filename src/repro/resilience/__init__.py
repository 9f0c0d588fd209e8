"""Fault-tolerant search runtime: checkpoints, backoff, degradation.

The design search runs in process on deterministic engines, so a
failing solve is a bug and fails the run loudly.  What this package
keeps dependable are the faults that do happen around the solves:

* :class:`SearchCheckpoint` -- periodic snapshots of search progress
  so an interrupted run resumes instead of restarting
  (``repro design --checkpoint PATH --resume``);
* :class:`RetrySchedule` / :class:`BackoffPolicy` -- the one jittered
  exponential backoff that pool restarts, task retries and grid shard
  retries pause on;
* :class:`DegradationLog` -- every survived fault surfaces as an
  ``AVD`` diagnostic through :mod:`repro.lint` and in
  :meth:`repro.core.DesignOutcome.summary`;
* :class:`WorkerFaultPlan` -- seeded worker crash/hang injection for
  the parallel runtime's chaos suites.
"""

from .chaos import WorkerFaultPlan
from .checkpoint import SearchCheckpoint
from .events import DegradationEvent, DegradationLog
from .policy import POOL_BACKOFF, BackoffPolicy, RetrySchedule

__all__ = [
    "BackoffPolicy", "POOL_BACKOFF", "RetrySchedule",
    "WorkerFaultPlan",
    "SearchCheckpoint",
    "DegradationEvent", "DegradationLog",
]
