"""Per-request deadlines and cooperative cancellation.

A running design search cannot be preempted mid-solve; what the
service *can* do is refuse to start the next candidate.  Each job gets
a :class:`CancelToken`; the service threads it into the supervised
evaluation runtime as a ``cancel_check`` callable (called by
:class:`repro.parallel.SupervisedExecutor` before every candidate,
outside its fault-supervision blocks), so a cancelled or past-deadline
job stops at the next candidate boundary with its checkpoint intact.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..errors import ServeError

#: Why a job was cancelled -- drives terminal state and HTTP mapping.
REASON_DEADLINE = "deadline"
REASON_DRAIN = "drain"
REASON_CLIENT = "client-cancel"


class JobCancelled(ServeError):
    """A job's search was cancelled cooperatively.

    ``reason`` is one of :data:`REASON_DEADLINE` (budget exhausted ->
    the job fails), :data:`REASON_DRAIN` (daemon shutting down -> the
    job is requeued for the next boot), or :data:`REASON_CLIENT`
    (explicit DELETE -> the job is marked cancelled).
    """

    def __init__(self, reason: str, message: str = ""):
        self.reason = reason
        super().__init__(message or "job cancelled (%s)" % reason)


class CancelToken:
    """A one-shot, thread-safe cancellation flag with a reason."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None
        self._lock = threading.Lock()

    def cancel(self, reason: str) -> None:
        """First cancel wins; later reasons are ignored."""
        with self._lock:
            if self._reason is None:
                self._reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        return self._reason

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)


def make_cancel_check(token: CancelToken,
                      deadline_at: Optional[float] = None,
                      clock: Callable[[], float] = time.monotonic) \
        -> Callable[[], None]:
    """Build the zero-arg hook the evaluation runtime calls per candidate.

    Raises :class:`JobCancelled` when the token fires or the absolute
    ``deadline_at`` (on ``clock``'s timeline) has passed.  The deadline
    check also *fires the token*, so everything else watching the job
    (the HTTP layer, chaos delays) observes the same cancellation.
    """
    def check() -> None:
        if token.cancelled:
            raise JobCancelled(token.reason or REASON_CLIENT)
        if deadline_at is not None and clock() >= deadline_at:
            token.cancel(REASON_DEADLINE)
            raise JobCancelled(REASON_DEADLINE)
    return check


__all__ = ["CancelToken", "JobCancelled", "make_cancel_check",
           "REASON_DEADLINE", "REASON_DRAIN", "REASON_CLIENT"]
