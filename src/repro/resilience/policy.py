"""Jittered exponential backoff shared by every retry loop.

A :class:`BackoffPolicy` is the pure-data curve every retry loop
pauses on: the supervised executor's task retries, the pool
supervisor's restarts, and the grid builder's shard retries.
:class:`RetrySchedule` applies it through a seeded RNG and an
injectable sleep, so seeded runs reproduce the same pauses.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import SearchError


@dataclass(frozen=True)
class BackoffPolicy:
    """A jittered exponential backoff curve.

    Retry ``attempt`` (1-based) waits ``backoff_base *
    backoff_factor**(attempt - 1)`` seconds, scaled by a seeded
    uniform jitter of ``+-backoff_jitter`` (fractional).
    """

    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise SearchError("backoff must have base >= 0 and "
                              "factor >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise SearchError("backoff_jitter must be in [0, 1]")

    def backoff_delay(self, attempt: int, unit_jitter: float) -> float:
        """Backoff before retry ``attempt`` (1-based), in seconds.

        ``unit_jitter`` is a uniform draw in [0, 1) supplied by the
        caller's seeded RNG, so schedules are reproducible.
        """
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        scale = 1.0 + self.backoff_jitter * (2.0 * unit_jitter - 1.0)
        return max(base * scale, 0.0)


#: Backoff for the supervised parallel runtime (:mod:`repro.parallel`)
#: and the grid builder: task retries, pool restarts and shard retries
#: share this curve (restarting a worker pool is costlier than a
#: quick retry, hence the larger base).
POOL_BACKOFF = BackoffPolicy(backoff_base=0.05, backoff_factor=2.0,
                             backoff_jitter=0.5)


class RetrySchedule:
    """The one jittered-backoff pauser every retry loop shares.

    Before this class, the ``delay = policy.backoff_delay(attempt,
    rng.random()); sleep(delay)`` idiom was copy-pasted across every
    retry loop -- each with its own seeded RNG and injectable sleep.
    A schedule owns that whole triple: the policy supplying the
    curve, the RNG supplying the jitter draw, and the sleep it is
    applied through, so new retry loops (the grid's shard-lease
    reassignment) reuse it instead of adding another copy.

    Exactly one jitter draw is consumed per :meth:`pause`/:meth:`delay`
    call -- byte-compatible with the idiom it replaces, so seeded runs
    reproduce the same schedules as before the consolidation.

    ``max_attempt`` optionally caps the exponent (the supervisor caps
    restart backoff at attempt 8 so a long fault storm cannot grow the
    delay without bound); ``rng`` shares a caller's existing RNG,
    ``seed`` builds a private one.
    """

    def __init__(self, policy: BackoffPolicy,
                 seed: Optional[int] = None,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 max_attempt: Optional[int] = None):
        if rng is not None and seed is not None:
            raise SearchError("pass seed or rng, not both")
        if max_attempt is not None and max_attempt < 1:
            raise SearchError("max_attempt must be >= 1 or None")
        self.policy = policy
        self._rng = rng if rng is not None \
            else random.Random(1 if seed is None else seed)
        self._sleep = sleep
        self.max_attempt = max_attempt
        #: Pauses taken and total seconds requested (tests/telemetry).
        self.pauses = 0
        self.slept = 0.0

    def delay(self, attempt: int) -> float:
        """The next jittered delay for ``attempt`` (1-based), seconds.

        Consumes one draw from the schedule's RNG; does not sleep.
        """
        if self.max_attempt is not None:
            attempt = min(attempt, self.max_attempt)
        return self.policy.backoff_delay(attempt, self._rng.random())

    def pause(self, attempt: int) -> float:
        """Sleep the jittered delay for ``attempt``; returns it."""
        delay = self.delay(attempt)
        if delay > 0:
            self._sleep(delay)
        self.pauses += 1
        self.slept += delay
        return delay
