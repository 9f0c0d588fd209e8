"""Stacked assembly and solve of same-shape birth-death chains.

Given one :class:`~repro.batch.chains.ChainTemplate` and a ``(4, K)``
rate matrix (one column per group member), this module assembles the
``K`` transposed-generator systems as ``(K, size, size)`` arrays and
solves them in stacked LAPACK gesv calls via numpy's
``np.linalg.solve``, each call holding at most :data:`STACK_BYTES` of
systems.

Bit-identity with the DFS chain builder of
:mod:`repro.availability.markov` (the scalar path, kept as the tests'
reference) is engineered, not hoped for:

* every off-diagonal cell is written by exactly one edge, so a single
  fancy-index assignment reproduces the scalar ``matrix[o, t] += rate``
  (on a zero cell) exactly;
* diagonal cells accumulate their origin's edge rates sequentially in
  emission order via the template's slot schedule -- the same
  left-to-right float subtraction chain as the scalar loop;
* stacked ``np.linalg.solve`` on ``(K, n, n) x (K, n, 1)`` performs an
  independent LU solve per slice, bitwise equal to the scalar per-chain
  ``solve`` (the rhs is lifted to a column matrix because numpy >= 2
  treats a 2-D rhs as one matrix, not a stack of vectors);
* reductions (normalization total, unavailability, failure flux) are
  computed per member with the scalar's exact operation order:
  contiguous per-row ``.sum()`` for the normalizer, and zero-seeded
  ``np.cumsum`` rows for the state-ordered accumulations (cumsum is a
  strict left-to-right chain, matching ``acc += term`` loops).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..obs import current as _obs_current
from ..units import HOURS_PER_YEAR
from .chains import KIND_FAILURE, KIND_SPARE, ChainTemplate

#: Byte budget of the stacked systems one LAPACK call may hold.  A
#: size class larger than this is solved in consecutive slices; LU
#: factorizes every slice independently, so where the stack is cut
#: cannot change any value -- it only bounds peak memory (a 1001-state
#: chain is 8 MB on its own).
STACK_BYTES = 8 * 1024 * 1024


def _assemble_into(template: ChainTemplate, rates: np.ndarray,
                   systems: np.ndarray) -> None:
    """Assemble one group's systems into a pre-zeroed ``(K, n, n)`` view.

    Each slice equals the scalar path's ``generator.T`` with the last
    row replaced by the normalization constraint.
    """
    size = template.size
    # (E, K): the scalar per-edge ``coeff * rate`` multiply, batched.
    vals = template.edge_coeff[:, None] * rates[template.edge_kind]
    # Off-diagonal of the *transposed* generator: cell (target, origin)
    # is owned by exactly one edge, so assignment == the scalar "+=" on
    # a fresh zero cell.
    systems[:, template.edge_target, template.edge_origin] = vals.T
    # Diagonal: subtract each origin's edge rates in emission order.
    for origins, rows in template.diag_slots:
        systems[:, origins, origins] -= vals[rows].T
    # Replace the last balance equation with sum(pi) = 1.
    systems[:, size - 1, :] = 1.0


def assemble_systems(template: ChainTemplate,
                     rates: np.ndarray) -> np.ndarray:
    """Build the ``(K, size, size)`` stacked linear systems."""
    systems = np.zeros((rates.shape[1], template.size, template.size))
    _assemble_into(template, rates, systems)
    return systems


def solve_size_class(groups: Sequence[Tuple[ChainTemplate, np.ndarray]]) \
        -> List[np.ndarray]:
    """Solve several same-size shape groups in stacked LAPACK calls.

    ``np.linalg.solve`` over a ``(K, n, n)`` stack factorizes each
    slice independently, so concatenating groups that share a matrix
    size changes nothing per member while amortizing the gufunc
    dispatch across every group in the class.  The stack is cut into
    calls of at most :data:`STACK_BYTES` of systems (at least one
    member each).  Returns per-group ``(K_g, size)`` probability
    arrays in input order.

    Raises :class:`numpy.linalg.LinAlgError` when any member is
    singular or degenerate; the caller retries per group, then falls
    back to DFS solves (which reproduce the least-squares /
    EvaluationError behavior exactly).
    """
    size = groups[0][0].size
    counts = [rates.shape[1] for _, rates in groups]
    total_members = sum(counts)
    per_call = max(1, STACK_BYTES // (size * size * 8))
    # Each group's members in runs of at most ``per_call``, packed in
    # order into calls that stay within the budget.
    calls: List[list] = [[]]
    room = per_call
    for template, rates in groups:
        for first in range(0, rates.shape[1], per_call):
            run = rates[:, first:first + per_call]
            if run.shape[1] > room:
                calls.append([])
                room = per_call
            calls[-1].append((template, run))
            room -= run.shape[1]
    solved = [_solve_call(call, size) for call in calls]
    clipped = solved[0] if len(solved) == 1 else np.concatenate(solved)
    for k in range(total_members):
        row = clipped[k]
        total = row.sum()
        if total <= 0:
            # Degenerate chain: re-solved per member by the DFS chain
            # builder, which raises the exact EvaluationError.
            raise np.linalg.LinAlgError(
                "stacked solve produced a zero vector")
        row /= total
    out = []
    start = 0
    for count in counts:
        out.append(clipped[start:start + count])
        start += count
    return out


def _solve_call(call: Sequence[Tuple[ChainTemplate, np.ndarray]],
                size: int) -> np.ndarray:
    """Assemble and solve one stacked LAPACK call; clipped ``(K, size)``."""
    members = sum(rates.shape[1] for _, rates in call)
    systems = np.zeros((members, size, size))
    start = 0
    for template, rates in call:
        count = rates.shape[1]
        _assemble_into(template, rates, systems[start:start + count])
        start += count
    rhs = np.zeros((members, size))
    rhs[:, size - 1] = 1.0
    obs = _obs_current()
    if obs.enabled:
        obs.inc("batch.lapack_calls")
    # numpy >= 2 treats a 2-D rhs as one matrix; lift to column vectors.
    solution = np.linalg.solve(systems, rhs[..., None])[..., 0]
    return np.clip(solution, 0.0, None)


def solve_stacked(template: ChainTemplate,
                  rates: np.ndarray) -> np.ndarray:
    """Steady-state probabilities, ``(K, size)``, scalar-bit-identical."""
    return solve_size_class([(template, rates)])[0]


def _ordered_row_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-row left-to-right accumulation starting from 0.0.

    ``cumsum`` is a strict sequential chain; seeding with a zero column
    reproduces ``acc = 0.0; for x in row: acc += x`` bitwise (including
    the 0.0 + first-term step, which matters for signed zeros).
    """
    K, width = matrix.shape
    seeded = np.zeros((K, width + 1))
    seeded[:, 1:] = matrix
    return np.cumsum(seeded, axis=1)[:, -1]


def reduce_group(template: ChainTemplate, rates: np.ndarray,
                 probabilities: np.ndarray) \
        -> Tuple[np.ndarray, np.ndarray]:
    """Per-member (unavailability, failures_per_year) arrays.

    Replays the scalar mode loops: unavailability accumulates the down
    states in discovery order; the failure flux accumulates over *all*
    states in discovery order (the scalar loop also adds zero terms for
    fully-unmanned states, so the float chains match term for term).
    """
    down = probabilities[:, template.down_index]
    unavailability = _ordered_row_sums(down)
    failure_rates = rates[KIND_FAILURE][:, None]      # (K, 1)
    if template.kind == "inplace":
        # Scalar: ``probability * (n - r) * failure_rate`` -- left
        # associated, so multiply probabilities by the manned counts
        # first.
        contributions = (probabilities
                         * template.flux_manned[None, :]) * failure_rates
    else:
        # Scalar: ``probability * ((n-w)*fr + idle*sr)`` -- the term is
        # built first here.
        term = (template.flux_manned[None, :] * failure_rates
                + template.flux_idle[None, :] * rates[KIND_SPARE][:, None])
        contributions = probabilities * term
    flux = _ordered_row_sums(contributions)
    return unavailability, flux * HOURS_PER_YEAR
