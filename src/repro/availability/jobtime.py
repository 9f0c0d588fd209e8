"""Expected job completion time for finite applications (paper Eq. 1).

For applications with a loss window ``lw`` (the maximum work lost per
failure event -- e.g. one checkpoint interval), the paper derives the
mean computation time needed to bank ``lw`` of useful work:

    P_f  = 1 - exp(-lw / MTBF)
    T_lw = MTBF * P_f / (1 - P_f)

which simplifies to the numerically friendly form used here::

    T_lw = MTBF * (exp(lw / MTBF) - 1)

As ``lw -> 0``, ``T_lw -> lw`` (no re-execution); as ``lw`` approaches
MTBF, the re-execution penalty explodes.  The useful fraction of
computation time is ``lw / T_lw``; combined with the uptime fraction
from the availability engine and the checkpoint mechanism's normal-
operation overhead factor, it gives the expected job execution time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import EvaluationError, UnitError
from ..units import Duration, WorkAmount


def failure_probability(loss_window: Duration, mtbf: Duration) -> float:
    """``P_f``: probability of >= 1 failure within one loss window."""
    if mtbf.as_seconds <= 0:
        raise EvaluationError("MTBF must be positive")
    if loss_window.as_seconds < 0:
        raise EvaluationError("loss window cannot be negative")
    return -math.expm1(-loss_window / mtbf)


def _mean_time_seconds(loss_window: float, mtbf: float) -> float:
    """``T_lw`` in seconds, from a window and an MTBF in seconds."""
    if mtbf <= 0:
        raise EvaluationError("MTBF must be positive")
    if loss_window < 0:
        raise EvaluationError("loss window cannot be negative")
    if loss_window == 0.0:
        return 0.0
    ratio = loss_window / mtbf
    if ratio > 700.0:  # exp overflow guard: effectively never completes
        return math.inf
    return _not_nan(mtbf * math.expm1(ratio))


def _useful_fraction(loss_window: float, mtbf: float) -> float:
    """``lw / T_lw`` from a window and an MTBF in seconds."""
    if loss_window == 0.0:
        return 1.0
    t_lw = _mean_time_seconds(loss_window, mtbf)
    if not math.isfinite(t_lw):
        return 0.0
    return loss_window / t_lw


def _not_nan(seconds: float) -> float:
    """``seconds``, refused as :class:`Duration` refuses NaN."""
    if math.isnan(seconds):
        raise UnitError("duration cannot be NaN")
    return seconds


def mean_time_per_loss_window(loss_window: Duration,
                              mtbf: Duration) -> Duration:
    """``T_lw``: mean computation time to complete ``lw`` of useful work."""
    return Duration(_mean_time_seconds(loss_window.as_seconds,
                                       mtbf.as_seconds))


def useful_fraction(loss_window: Duration, mtbf: Duration) -> float:
    """``lw / T_lw``: fraction of computation time that is useful work."""
    return _useful_fraction(loss_window.as_seconds, mtbf.as_seconds)


def loss_window_seconds(window, job_size: float,
                        rate_per_hour: float) -> float:
    """A loss window in seconds at an effective processing rate.

    ``window`` is a :class:`Duration`, a :class:`WorkAmount` (paper
    footnote 1: converted via the overhead-adjusted rate, in work
    units per hour), or None for "the whole job" -- the worst case of
    an application that never checkpoints.
    """
    if window is None:
        return Duration.hours(job_size / rate_per_hour).as_seconds
    if isinstance(window, WorkAmount):
        return window.time_at(rate_per_hour).as_seconds
    return window.as_seconds


@dataclass(frozen=True)
class JobTimeEstimate:
    """Breakdown of an expected-job-time computation."""

    expected_time: Duration      # wall-clock expectation (may be inf)
    useful_fraction: float       # lw / T_lw (re-execution losses)
    overhead_factor: float       # checkpoint overhead in normal operation
    uptime_fraction: float       # from the availability engine
    effective_rate: float        # useful work units per wall-clock hour

    @property
    def feasible(self) -> bool:
        return self.expected_time.is_finite()


def job_time_seconds(job_size: float, throughput_per_hour: float,
                     overhead_factor: float, loss_window: float,
                     tier_mtbf: float, uptime_fraction: float) \
        -> Tuple[float, float, float]:
    """Eq. 1 over plain floats: ``(expected seconds, useful fraction,
    effective rate)``, with ``loss_window`` and ``tier_mtbf`` in
    seconds.

    The one implementation of the formula and of its input checks:
    :func:`estimate_job_time` wraps it in objects, and the job search
    calls it directly for each checkpoint setting it evaluates.  It
    uses :func:`math.expm1`, never numpy's, whose vectorized kernels
    can differ from libm in the last bit.  Expected seconds are
    ``inf`` when no useful work gets done.
    """
    if job_size <= 0:
        raise EvaluationError("job size must be positive")
    if throughput_per_hour <= 0:
        raise EvaluationError("throughput must be positive")
    if overhead_factor < 1.0:
        raise EvaluationError("overhead factor must be >= 1")
    if not 0.0 <= uptime_fraction <= 1.0:
        raise EvaluationError("uptime fraction must be in [0, 1]")

    fraction = _useful_fraction(loss_window, tier_mtbf)
    effective = (throughput_per_hour / overhead_factor
                 * fraction * uptime_fraction)
    if effective <= 0.0:
        return math.inf, fraction, 0.0
    return _not_nan(job_size / effective * 3600.0), fraction, effective


def estimate_job_time(job_size: float,
                      throughput_per_hour: float,
                      overhead_factor: float,
                      loss_window: Duration,
                      tier_mtbf: Duration,
                      uptime_fraction: float) -> JobTimeEstimate:
    """Expected wall-clock time to finish ``job_size`` units of work.

    ``throughput_per_hour`` is the tier's failure-free throughput;
    ``overhead_factor`` (>= 1) stretches execution for the availability
    mechanism's normal-operation cost (Table 1's ``mperformance``);
    ``loss_window`` and ``tier_mtbf`` feed Eq. 1; ``uptime_fraction``
    accounts for time lost to repairs.
    """
    seconds, fraction, effective = job_time_seconds(
        job_size, throughput_per_hour, overhead_factor,
        loss_window.as_seconds, tier_mtbf.as_seconds, uptime_fraction)
    return JobTimeEstimate(Duration(seconds), fraction, overhead_factor,
                           uptime_fraction, effective)
