"""Transient CTMC analysis by uniformization (Jensen's method).

The paper's steady-state downtime answers "what fraction of a year is
the service down, in the long run?".  For the utility-computing vision
in the paper's introduction -- continuously re-designing a service --
two *time-dependent* questions also matter and are answered here:

* :func:`transient_distribution`: the state distribution at time ``t``
  starting from a known state (e.g. everything freshly repaired);
* :func:`point_availability`: P(system up at time t);
* :func:`interval_availability`: expected fraction of ``[0, t]`` spent
  up, which converges to the steady-state availability and shows how
  long a fresh deployment takes to reach its long-run behavior.

Uniformization: with ``q >= max_i |Q_ii|`` and ``P = I + Q/q``,

    pi(t) = sum_k  Poisson(k; q t) * pi(0) P^k

truncated when the Poisson tail drops below a tolerance.  All vectors
are computed iteratively, so only matrix-vector products are needed.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from ..errors import EvaluationError
from .ctmc import ContinuousTimeMarkovChain, State


#: Chains below this size use a dense uniformized matrix: per-call
#: overhead of sparse matvec dwarfs the arithmetic for small chains.
#: Only larger chains import scipy.
_DENSE_TRANSIENT_LIMIT = 600


def _uniformized_matrix(chain: ContinuousTimeMarkovChain):
    """Build (P, q, states) where P = I + Q/q is a stochastic matrix."""
    states = chain.states
    index = {state: i for i, state in enumerate(states)}
    size = len(states)
    rows, cols, data = [], [], []
    diagonal = np.zeros(size)
    for origin, target, rate in chain.edges:
        rows.append(origin)
        cols.append(target)
        data.append(rate)
        diagonal[origin] += rate
    q = float(diagonal.max()) if size else 0.0
    if q <= 0.0:
        q = 1.0  # absorbing-everywhere chain: P = I
    if size <= _DENSE_TRANSIENT_LIMIT:
        matrix = np.zeros((size, size))
        for origin, target, rate in zip(rows, cols, data):
            matrix[origin, target] += rate / q
        matrix[np.diag_indices(size)] += 1.0 - diagonal / q
        return matrix, q, states, index
    import scipy.sparse
    matrix = scipy.sparse.csr_matrix(
        (np.array(data) / q, (rows, cols)), shape=(size, size))
    matrix = matrix + scipy.sparse.diags(1.0 - diagonal / q)
    return matrix, q, states, index


def transient_distributions(chain: ContinuousTimeMarkovChain,
                            initial: State,
                            times_hours: Sequence[float],
                            tolerance: float = 1e-12) \
        -> List[Mapping[State, float]]:
    """State distributions at several times, sharing one power series.

    The matrix-vector products ``pi0 P^k`` are identical for every
    time; only the Poisson weights differ.  Computing all requested
    times in one sweep makes availability curves and interval
    integrals cheap.
    """
    for t in times_hours:
        if t < 0:
            raise EvaluationError("time must be non-negative")
    matrix, q, states, index = _uniformized_matrix(chain)
    if initial not in index:
        raise EvaluationError("unknown initial state %r" % (initial,))
    size = len(states)
    vector = np.zeros(size)
    vector[index[initial]] = 1.0
    count = len(times_hours)
    if count == 0:
        return []

    qts = np.array([q * t for t in times_hours])
    max_qt = float(qts.max())
    accumulated = np.zeros((count, size))
    positive = qts > 0.0
    log_qts = np.where(positive, np.log(np.where(positive, qts, 1.0)),
                       0.0)
    log_weights = np.where(positive, -qts, 0.0)
    totals = np.zeros(count)
    done = ~positive  # t == 0 handled by the k == 0 term below
    accumulated[~positive] = vector
    totals[~positive] = 1.0
    max_terms = int(max_qt + 12.0 * math.sqrt(max_qt + 1.0) + 50)
    check_interval = 64
    previous_vector = vector.copy()
    for k in range(max_terms + 1):
        active = ~done
        if not active.any():
            break
        weights = np.exp(log_weights[active])
        accumulated[active] += np.outer(weights, vector)
        totals[active] += weights
        # A time is converged once its Poisson mass is exhausted and
        # the mode (k ~ qt) has passed.
        newly_done = active.copy()
        newly_done[active] = (totals[active] >= 1.0 - tolerance) \
            & (k > qts[active])
        done |= newly_done
        if done.all():
            break
        vector = vector @ matrix
        log_weights = log_weights + log_qts - math.log(k + 1)
        if k % check_interval == check_interval - 1:
            # Stationarity shortcut: once P^k pi0 stops moving, every
            # remaining Poisson term contributes the same vector, so
            # the tail sums to (1 - total) * vector exactly.
            if np.abs(vector - previous_vector).max() < tolerance / 10:
                active = ~done
                accumulated[active] += np.outer(
                    np.clip(1.0 - totals[active], 0.0, None), vector)
                totals[active] = 1.0
                done[:] = True
                break
            previous_vector = vector.copy()
    results = []
    for i in range(count):
        row = accumulated[i] / max(totals[i], tolerance)
        results.append(dict(zip(states, row)))
    return results


def transient_distribution(chain: ContinuousTimeMarkovChain,
                           initial: State, t_hours: float,
                           tolerance: float = 1e-12) \
        -> Mapping[State, float]:
    """State distribution at time ``t_hours`` from ``initial``."""
    return transient_distributions(chain, initial, [t_hours],
                                   tolerance)[0]


def point_availability(chain: ContinuousTimeMarkovChain, initial: State,
                       is_up: Callable[[State], bool],
                       t_hours: float) -> float:
    """P(system is in an up state at time ``t_hours``)."""
    distribution = transient_distribution(chain, initial, t_hours)
    return sum(probability for state, probability
               in distribution.items() if is_up(state))


def availability_curve(chain: ContinuousTimeMarkovChain, initial: State,
                       is_up: Callable[[State], bool],
                       times_hours: Sequence[float]) -> List[float]:
    """Point availability sampled at each time (one shared sweep)."""
    distributions = transient_distributions(chain, initial, times_hours)
    return [sum(probability for state, probability
                in distribution.items() if is_up(state))
            for distribution in distributions]


def interval_availability(chain: ContinuousTimeMarkovChain,
                          initial: State,
                          is_up: Callable[[State], bool],
                          t_hours: float, samples: int = 64) -> float:
    """Expected fraction of ``[0, t]`` spent up (trapezoidal estimate).

    ``samples`` grid points trade accuracy for time; the curve is
    smooth, so modest grids suffice.
    """
    if t_hours <= 0:
        raise EvaluationError("interval length must be positive")
    if samples < 2:
        raise EvaluationError("need at least 2 samples")
    times = [t_hours * i / (samples - 1) for i in range(samples)]
    values = availability_curve(chain, initial, is_up, times)
    total = 0.0
    for (t0, a0), (t1, a1) in zip(zip(times, values),
                                  zip(times[1:], values[1:])):
        total += 0.5 * (a0 + a1) * (t1 - t0)
    return total / t_hours


def time_to_steady_state(chain: ContinuousTimeMarkovChain, initial: State,
                         is_up: Callable[[State], bool],
                         tolerance: float = 0.01,
                         max_hours: float = 24.0 * 365.0) -> float:
    """Hours until point availability is within ``tolerance`` (relative)
    of its steady-state value, by doubling search.  Returns
    ``max_hours`` if not converged by then."""
    steady = chain.probability_where(is_up)
    if steady <= 0.0:
        raise EvaluationError("system is never up in steady state")
    t = 1.0
    while t < max_hours:
        value = point_availability(chain, initial, is_up, t)
        if abs(value - steady) <= tolerance * steady:
            return t
        t *= 2.0
    return max_hours
