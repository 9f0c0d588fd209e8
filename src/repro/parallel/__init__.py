"""Supervised multi-process candidate evaluation for the design search.

The availability searches (:class:`~repro.core.TierSearch`,
:class:`~repro.core.JobSearch`) spend nearly all their time in
independent per-candidate availability solves, which makes them
embarrassingly parallel -- but a naive ``ProcessPoolExecutor`` would
let one crashed or hung worker kill an hours-long search.  This
package provides the supervision layer:

* :class:`SupervisedExecutor` -- per-candidate wall-clock timeouts,
  bounded retry with jittered backoff (sharing
  :mod:`repro.resilience.policy`), and a blame model that restarts the
  pool on worker crashes without falsely convicting innocent
  candidates;
* :class:`PoisonQuarantine` -- candidates that repeatedly kill or
  hang workers are skipped and surfaced as ``AVD402`` diagnostics
  instead of aborting the search;
* :func:`merge_results` -- results are merged in submission order, so
  ``--jobs N`` produces the same
  :class:`~repro.core.DesignOutcome` (design, cost, provenance,
  diagnostics) as ``--jobs 1``;
* :class:`PoolSupervisor` -- pool liveness probing, bounded restarts,
  and graceful degradation to serial (``AVD401``) when multiprocessing
  is unavailable;
* :class:`ParallelEvaluationRuntime` -- the facade the searches hold;
  built by ``Aved(..., jobs=N)`` or ``repro design --jobs N``.

Degradation events surface through the same
:class:`~repro.resilience.DegradationLog` -> :mod:`repro.lint`
pipeline as checkpoint and cache faults, as the ``AVD4xx``
diagnostic family.
"""

from .executor import ParallelPolicy, SupervisedExecutor
from .merge import merge_results
from .quarantine import PoisonQuarantine, QuarantinedCandidate
from .runtime import ParallelEvaluationRuntime, make_runtime
from .supervisor import PoolSupervisor

__all__ = [
    "ParallelEvaluationRuntime", "make_runtime",
    "SupervisedExecutor", "ParallelPolicy",
    "PoolSupervisor",
    "PoisonQuarantine", "QuarantinedCandidate",
    "merge_results",
]
