"""Shape templates for the batched birth-death chain solver.

The DFS chain builder (:mod:`repro.availability.markov`) re-explores
one CTMC per (candidate, failure mode).  But the chain's *shape* --
its state set, transition structure and integer edge coefficients --
depends only on ``(n, m, s, crew, susceptibility)``, never on the
rates; candidates that share a shape differ only in the four rate
scalars.  A :class:`ChainTemplate` captures one shape exactly once, in
the DFS builder's own exploration order, so stacked assemblies over
it reproduce that generator bit for bit.

Templates carry precomputed index arrays (edge origins/targets, the
per-origin diagonal accumulation schedule, down-state indices, flux
weights) so assembling a K-member group is a handful of vectorized
numpy operations instead of ``K * E`` scalar writes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..availability.ctmc import _DENSE_LIMIT

#: Rate-kind slots shared by templates and the stacked assembler.
KIND_FAILURE = 0
KIND_SPARE = 1
KIND_FAILOVER = 2
KIND_REPAIR = 3

#: Mirrors ``markov._TRUNCATION_MARGIN`` -- the failover chain keeps
#: this many unmanned-slot states beyond the first down state.
_TRUNCATION_MARGIN = 12

#: Shape key: ("inplace", n, m, crew) or
#: ("failover", n, m, s, crew, susceptible).
ShapeKey = Tuple

DENSE_LIMIT = _DENSE_LIMIT


class ChainTemplate:
    """One chain shape, with vectorized-assembly index arrays.

    Edges are ``(origin, target, kind, coeff)`` in the exact order the
    DFS chain builder emits them; down states and the flux weights are
    in state-discovery order.  Both orders matter: the stacked path
    replays the DFS builder's float-operation sequence per matrix cell
    and per reduction, which is what makes both bitwise identical.
    Only the numpy arrays are kept (templates live for the whole
    process); :attr:`edges` and :attr:`down_states` rebuild the tuple
    views from them.
    """

    def __init__(self, kind: str, size: int,
                 edges: List[Tuple[int, int, int, int]],
                 down_states: List[int],
                 flux_manned: List[int], flux_idle: List[int]):
        self.kind = kind
        self.size = size
        # -- vectorized assembly arrays --------------------------------
        self.edge_origin = np.array([e[0] for e in edges], dtype=np.intp)
        self.edge_target = np.array([e[1] for e in edges], dtype=np.intp)
        self.edge_kind = np.array([e[2] for e in edges], dtype=np.intp)
        # Integer coefficients as float64 (exact for these magnitudes):
        # coeff * rate is then the same IEEE multiply the scalar path
        # performs per edge.
        self.edge_coeff = np.array([e[3] for e in edges], dtype=np.float64)
        # Diagonal accumulation schedule: slot j selects the j-th
        # out-edge of every origin that has one, so sequential slot
        # updates subtract each origin's edge rates in emission order
        # -- the scalar ``matrix[o, o] -= rate`` sequence per cell.
        per_origin: Dict[int, List[int]] = {}
        for row, edge in enumerate(edges):
            per_origin.setdefault(edge[0], []).append(row)
        max_out = max((len(rows) for rows in per_origin.values()),
                      default=0)
        self.diag_slots = []
        for slot in range(max_out):
            rows = [rows[slot] for rows in per_origin.values()
                    if len(rows) > slot]
            rows_arr = np.array(rows, dtype=np.intp)
            self.diag_slots.append(
                (self.edge_origin[rows_arr], rows_arr))
        self.down_index = np.array(down_states, dtype=np.intp)
        self.flux_manned = np.array(flux_manned, dtype=np.float64)
        self.flux_idle = np.array(flux_idle, dtype=np.float64)

    @property
    def edges(self) -> Tuple[Tuple[int, int, int, int], ...]:
        """``(origin, target, kind, coeff)`` in emission order."""
        return tuple(zip(self.edge_origin.tolist(),
                         self.edge_target.tolist(),
                         self.edge_kind.tolist(),
                         self.edge_coeff.astype(np.int64).tolist()))

    @property
    def down_states(self) -> Tuple[int, ...]:
        """Down-state indices in discovery order."""
        return tuple(self.down_index.tolist())


def inplace_template(n: int, m: int, crew: int) -> ChainTemplate:
    """The in-place repair chain: state ``r`` = failed actives.

    Mirrors ``markov._solve_inplace_chain``'s exploration: states are
    discovered ``0..n`` in order, each emitting its failure edge before
    its repair edge; zero-rate edges are omitted exactly as the scalar
    explorer skips them.
    """
    edges: List[Tuple[int, int, int, int]] = []
    for r in range(n + 1):
        if r < n:
            edges.append((r, r + 1, KIND_FAILURE, n - r))
        if r > 0 and min(r, crew) > 0:
            edges.append((r, r - 1, KIND_REPAIR, min(r, crew)))
    size = n + 1
    down = [r for r in range(size) if n - r < m]
    flux_manned = [n - r for r in range(size)]
    return ChainTemplate("inplace", size, edges, down,
                         flux_manned, [0] * size)


def failover_template(n: int, m: int, s: int, crew: int,
                      susceptible: bool) -> ChainTemplate:
    """The failover chain: state ``(r, w)``.

    Replays ``markov._solve_failover_chain``'s DFS (LIFO frontier,
    transition emission order fail / spare / failover / repair, the
    ``w_cap`` truncation) so state indices, edge order and down-state
    order are identical to the scalar chain for every rate assignment
    with the same susceptibility.
    """
    total = n + s
    w_cap = min(n, (n - m + 1) + s + _TRUNCATION_MARGIN)
    index: Dict[Tuple[int, int], int] = {(0, 0): 0}
    states: List[Tuple[int, int]] = [(0, 0)]
    frontier: List[Tuple[int, int]] = [(0, 0)]
    edges: List[Tuple[int, int, int, int]] = []
    while frontier:
        state = frontier.pop()
        r, w = state
        origin = index[state]
        idle = s - r + w
        manned = n - w
        out: List[Tuple[Tuple[int, int], int, int]] = []
        if manned > 0 and r < total and w < w_cap:
            out.append(((r + 1, w + 1), KIND_FAILURE, manned))
        if susceptible and idle > 0:
            out.append(((r + 1, w), KIND_SPARE, idle))
        in_failover = min(w, idle)
        if in_failover > 0:
            out.append(((r, w - 1), KIND_FAILOVER, in_failover))
        if r > 0 and min(r, crew) > 0:
            out.append(((r - 1, w), KIND_REPAIR, min(r, crew)))
        for successor, kind, coeff in out:
            if successor not in index:
                index[successor] = len(states)
                states.append(successor)
                frontier.append(successor)
            edges.append((origin, index[successor], kind, coeff))
    size = len(states)
    down = [i for i, (_, w) in enumerate(states) if n - w < m]
    flux_manned = [n - w for (_, w) in states]
    flux_idle = [s - r + w for (r, w) in states]
    return ChainTemplate("failover", size, edges, down,
                         flux_manned, flux_idle)


class TemplateCache:
    """Per-process cache of chain templates keyed by shape."""

    def __init__(self):
        self._templates: Dict[ShapeKey, ChainTemplate] = {}

    def get(self, key: ShapeKey) -> ChainTemplate:
        template = self._templates.get(key)
        if template is None:
            if key[0] == "inplace":
                template = inplace_template(key[1], key[2], key[3])
            else:
                template = failover_template(key[1], key[2], key[3],
                                             key[4], key[5])
            self._templates[key] = template
        return template

    def __len__(self) -> int:
        return len(self._templates)
