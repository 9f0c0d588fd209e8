"""A small continuous-time Markov chain solver.

This is the reproduction's stand-in for the external availability
evaluation engines the paper interfaces to (Avanto, Mobius, SHARPE);
the paper notes Aved also ships "our own simplified Markov Model",
which is what this module provides.  Failures are independent with
exponentially distributed inter-arrival and repair times.

Chains are described by arbitrary hashable states and a transition
function; steady-state probabilities come from solving the global
balance equations ``pi Q = 0`` with ``sum(pi) = 1``.  Chains produced
by the tier models are small (tens to a few thousand states), so a
dense solve is used below a size threshold and a sparse LU solve above
it.  scipy is imported only by that sparse branch, so importing this
module does not load it.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Tuple)

import numpy as np

from ..errors import EvaluationError

State = Hashable
#: Transition function: state -> iterable of (successor, rate) pairs.
TransitionFn = Callable[[State], Iterable[Tuple[State, float]]]

_DENSE_LIMIT = 1500


class ContinuousTimeMarkovChain:
    """A CTMC built by exploring reachable states from an initial state."""

    def __init__(self, initial: State, transitions: TransitionFn,
                 max_states: int = 200_000):
        self._index: Dict[State, int] = {}
        self._states: List[State] = []
        self._edges: List[Tuple[int, int, float]] = []
        #: Human-readable annotations of degraded solves (e.g. a dense
        #: solve that fell back to least squares), appended by the
        #: solver so callers can attribute them in provenance records.
        self.solve_notes: List[str] = []
        self._explore(initial, transitions, max_states)

    def _explore(self, initial: State, transitions: TransitionFn,
                 max_states: int) -> None:
        self._index[initial] = 0
        self._states.append(initial)
        frontier = [initial]
        while frontier:
            state = frontier.pop()
            origin = self._index[state]
            for successor, rate in transitions(state):
                if rate < 0:
                    raise EvaluationError(
                        "negative transition rate %g from state %r"
                        % (rate, state))
                if rate == 0 or successor == state:
                    continue
                if successor not in self._index:
                    if len(self._states) >= max_states:
                        raise EvaluationError(
                            "CTMC exceeds %d states; the model is too "
                            "large for exact solution" % max_states)
                    self._index[successor] = len(self._states)
                    self._states.append(successor)
                    frontier.append(successor)
                self._edges.append((origin, self._index[successor], rate))

    # -- accessors -------------------------------------------------------

    @property
    def states(self) -> List[State]:
        return list(self._states)

    @property
    def edges(self) -> List[Tuple[int, int, float]]:
        """Transitions as (origin index, target index, rate) triples."""
        return list(self._edges)

    @property
    def size(self) -> int:
        return len(self._states)

    # -- solving ----------------------------------------------------------

    def steady_state(self) -> Mapping[State, float]:
        """Steady-state probability of each state.

        Solves ``pi Q = 0`` with the normalization constraint replacing
        one balance equation (dense) or appended as an extra row
        (sparse least squares).
        """
        size = self.size
        if size == 1:
            return {self._states[0]: 1.0}
        if size <= _DENSE_LIMIT:
            probabilities = self._solve_dense()
        else:
            probabilities = self._solve_sparse()
        # Clip tiny negative round-off and renormalize.
        probabilities = np.clip(probabilities, 0.0, None)
        total = probabilities.sum()
        if total <= 0:
            raise EvaluationError("steady-state solve produced a zero "
                                  "vector; the chain may be degenerate")
        probabilities /= total
        return {state: float(probabilities[index])
                for state, index in self._index.items()}

    def _generator_dense(self) -> np.ndarray:
        size = self.size
        matrix = np.zeros((size, size))
        for origin, target, rate in self._edges:
            matrix[origin, target] += rate
            matrix[origin, origin] -= rate
        return matrix

    def _solve_dense(self) -> np.ndarray:
        generator = self._generator_dense()
        size = self.size
        # pi Q = 0  <=>  Q^T pi^T = 0; replace last equation with sum=1.
        system = generator.T.copy()
        system[-1, :] = 1.0
        rhs = np.zeros(size)
        rhs[-1] = 1.0
        try:
            return np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            # Fall back to least squares for singular corner cases.
            # Chain the original error so a failing lstsq is still
            # attributable to the singular direct solve, and note the
            # degradation for provenance.
            try:
                solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            except np.linalg.LinAlgError as lstsq_exc:
                raise lstsq_exc from exc
            self.solve_notes.append(
                "dense solve degraded to least squares (%s)" % exc)
            return solution

    def _solve_sparse(self) -> np.ndarray:
        """Exact sparse LU solve of ``Q^T pi = 0`` with one balance
        equation replaced by the normalization ``sum(pi) = 1``."""
        import scipy.sparse
        import scipy.sparse.linalg
        size = self.size
        rows, cols, data = [], [], []
        diag = np.zeros(size)
        for origin, target, rate in self._edges:
            if target != size - 1:
                rows.append(target)
                cols.append(origin)
                data.append(rate)
            diag[origin] -= rate
        for index in range(size - 1):
            rows.append(index)
            cols.append(index)
            data.append(diag[index])
        # Final row: normalization sum(pi) = 1.
        rows.extend([size - 1] * size)
        cols.extend(range(size))
        data.extend([1.0] * size)
        matrix = scipy.sparse.csc_matrix(
            (data, (rows, cols)), shape=(size, size))
        rhs = np.zeros(size)
        rhs[size - 1] = 1.0
        return scipy.sparse.linalg.spsolve(matrix, rhs)

    def to_dot(self, label: Optional[Callable[[State], str]] = None,
               highlight: Optional[Callable[[State], bool]] = None) \
            -> str:
        """Render the chain as Graphviz DOT (debugging/documentation).

        ``label`` formats state names; ``highlight`` marks states (e.g.
        down states) with a filled style.  Rates label the edges.
        """
        label = label or (lambda state: str(state))
        lines = ["digraph ctmc {", "  rankdir=LR;",
                 "  node [shape=ellipse];"]
        for index, state in enumerate(self._states):
            attributes = ["label=\"%s\"" % label(state)]
            if highlight is not None and highlight(state):
                attributes.append("style=filled")
                attributes.append("fillcolor=\"#f4cccc\"")
            lines.append("  s%d [%s];" % (index, ", ".join(attributes)))
        for origin, target, rate in self._edges:
            lines.append("  s%d -> s%d [label=\"%.4g\"];"
                         % (origin, target, rate))
        lines.append("}")
        return "\n".join(lines)

    def expected_value(self, value_of: Callable[[State], float]) -> float:
        """Steady-state expectation of a state function."""
        probabilities = self.steady_state()
        return sum(probability * value_of(state)
                   for state, probability in probabilities.items())

    def probability_where(self,
                          predicate: Callable[[State], bool]) -> float:
        """Steady-state probability mass of states satisfying a predicate."""
        probabilities = self.steady_state()
        return sum(probability
                   for state, probability in probabilities.items()
                   if predicate(state))
