"""Worker-pool supervision: creation, liveness, restart, degradation.

:class:`PoolSupervisor` owns a ``ProcessPoolExecutor`` on behalf of
the supervised executor and makes three promises:

* a pool handed out by :meth:`pool` has answered a **liveness probe**
  (a trivial round-trip task), so a pool that cannot even spawn or
  initialize workers is caught before any real work is queued;
* a crashed or hung pool can be **restarted** a bounded number of
  times per batch, with jittered exponential backoff between restarts
  (reusing :meth:`repro.resilience.BackoffPolicy.backoff_delay`);
* when the pool cannot be created at all, or the restart budget runs
  out, the supervisor **degrades**: it records an ``AVD401`` event and
  from then on reports no pool, which the executor answers by
  evaluating the remaining candidates serially in-process.  The
  search never dies because multiprocessing did.

Hung workers cannot be cancelled through ``concurrent.futures`` (a
running task is not interruptible), so :meth:`kill` terminates the
worker processes directly before discarding the executor object.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Callable, Optional, Tuple

from ..resilience.events import POOL_DEGRADED, POOL_RESTART, DegradationLog
from ..resilience.policy import BackoffPolicy, RetrySchedule


def _default_pool_factory(jobs: int, initializer: Callable,
                          initargs: Tuple) -> Executor:
    """A ProcessPoolExecutor on the cheapest available start method.

    ``fork`` (where supported) starts workers in milliseconds and
    inherits the engine without pickling; other platforms fall back to
    the default start method.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = None
    if context is not None:
        return ProcessPoolExecutor(max_workers=jobs, mp_context=context,
                                   initializer=initializer,
                                   initargs=initargs)
    return ProcessPoolExecutor(max_workers=jobs, initializer=initializer,
                               initargs=initargs)


class PoolSupervisor:
    """Creates, probes, restarts, and (when it must) buries the pool."""

    def __init__(self, jobs: int, initializer: Callable, initargs: Tuple,
                 ping: Callable[[], str],
                 log: DegradationLog,
                 backoff: Optional[BackoffPolicy] = None,
                 max_restarts_per_batch: int = 50,
                 startup_timeout: float = 60.0,
                 seed: int = 1,
                 pool_factory: Optional[Callable] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.jobs = jobs
        self.log = log
        self.backoff = backoff
        self.startup_timeout = startup_timeout
        self.max_restarts_per_batch = max_restarts_per_batch
        self._initializer = initializer
        self._initargs = initargs
        self._ping = ping
        self._factory = pool_factory or _default_pool_factory
        self._sleep = sleep
        self._rng = random.Random(seed)
        # Restart backoff is capped at attempt 8 so a long fault storm
        # cannot grow the delay without bound.
        self._backoff_schedule = (
            None if backoff is None
            else RetrySchedule(backoff, rng=self._rng, sleep=sleep,
                               max_attempt=8))
        self._pool: Optional[Executor] = None
        self._degraded = False
        #: Lifetime restart count (all batches).
        self.restarts = 0
        self._restarts_this_batch = 0

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once the supervisor has given up on multiprocessing."""
        return self._degraded

    def begin_batch(self) -> None:
        """Reset the per-batch restart budget."""
        self._restarts_this_batch = 0

    def pool(self) -> Optional[Executor]:
        """A live, probed pool -- or None when degraded to serial."""
        if self._degraded:
            return None
        if self._pool is None:
            self._pool = self._create()
        return self._pool

    # ------------------------------------------------------------------

    def _create(self) -> Optional[Executor]:
        """Build a pool and prove it alive; degrade on any failure."""
        try:
            pool = self._factory(self.jobs, self._initializer,
                                 self._initargs)
            # Liveness probe: a worker must spawn, run the initializer,
            # and answer within the startup timeout.
            probe = pool.submit(self._ping)
            if probe.result(timeout=self.startup_timeout) != "pong":
                raise RuntimeError("worker liveness probe returned "
                                   "garbage")
        except BaseException as exc:
            self._degrade("cannot start a %d-worker pool: %s: %s"
                          % (self.jobs, type(exc).__name__, exc))
            return None
        return pool

    def _degrade(self, detail: str) -> None:
        self._degraded = True
        if self._pool is not None:
            self.kill()
        self.log.add(POOL_DEGRADED, detail=detail)

    # ------------------------------------------------------------------

    def kill(self) -> None:
        """Terminate worker processes and discard the executor.

        ``shutdown()`` alone would block on (or leak) a worker stuck
        in a hung solve; terminating the processes first makes the
        teardown prompt regardless of worker state.
        """
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def restart(self, reason: str) -> bool:
        """Kill and re-create the pool; False when budget is exhausted.

        The next :meth:`pool` call performs the actual re-creation
        (and liveness probe); this method only accounts for the
        restart and applies the backoff delay.
        """
        self.kill()
        if self._restarts_this_batch >= self.max_restarts_per_batch:
            self._degrade("restart budget exhausted (%d this batch); "
                          "last cause: %s"
                          % (self._restarts_this_batch, reason))
            return False
        self.restarts += 1
        self._restarts_this_batch += 1
        self.log.add(POOL_RESTART, detail="%s (restart %d this batch)"
                     % (reason, self._restarts_this_batch))
        if self._backoff_schedule is not None:
            self._backoff_schedule.pause(self._restarts_this_batch)
        return True

    def close(self) -> None:
        """Shut the pool down; a later :meth:`pool` call may reopen it.

        Degradation is *not* sticky across closes: a fresh search gets
        a fresh chance at multiprocessing.
        """
        self.kill()
        self._degraded = False


__all__ = ["PoolSupervisor"]
