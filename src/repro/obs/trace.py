"""Hierarchical trace spans for the design engine.

A :class:`Tracer` records a tree of timed :class:`Span` objects:
``design`` at the root, ``tier-search`` under it, ``tier-solve`` per
wavefront of candidate structures, ``engine-solve`` per availability
engine call, ``parallel-batch`` per pooled wavefront with the
worker-side ``engine-solve`` spans re-parented under it on merge.

Design constraints (see docs/OBSERVABILITY.md):

* **Zero dependencies** -- stdlib only, importable everywhere
  (including worker processes).
* **Deterministic modulo timestamps** -- the span tree's structure,
  names, and attributes depend only on what the engine did, never on
  scheduling; serialization sorts every key, so two runs of the same
  search differ only in ``start_ms``/``duration_ms`` values.
* **Cheap when off** -- a tracer only exists inside an enabled
  :class:`~repro.obs.observer.Observer`; disabled call sites never
  construct spans (see the ``if obs.enabled`` convention).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Span attribute values are restricted to JSON scalars so traces
#: serialize without surprises; everything else is stringified.
_SCALARS = (str, int, float, bool, type(None))


def _clean(value: Any) -> Any:
    return value if isinstance(value, _SCALARS) else str(value)


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("name", "attributes", "start_ms", "duration_ms",
                 "children")

    def __init__(self, name: str,
                 attributes: Optional[Dict[str, Any]] = None,
                 start_ms: float = 0.0, duration_ms: float = 0.0):
        self.name = name
        self.attributes: Dict[str, Any] = {
            key: _clean(value)
            for key, value in (attributes or {}).items()}
        self.start_ms = start_ms
        self.duration_ms = duration_ms
        self.children: List["Span"] = []

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; keys and attributes deterministically
        ordered, only the ``*_ms`` fields carry timing."""
        return {
            "name": self.name,
            "attributes": {key: self.attributes[key]
                           for key in sorted(self.attributes)},
            "start_ms": round(self.start_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(str(data.get("name", "")),
                   dict(data.get("attributes", {})),
                   float(data.get("start_ms", 0.0)),
                   float(data.get("duration_ms", 0.0)))
        span.children = [cls.from_dict(child)
                         for child in data.get("children", ())]
        return span

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """All spans named ``name`` in this subtree."""
        return [span for span in self.walk() if span.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%r, %d children, %.3fms)" % (
            self.name, len(self.children), self.duration_ms)


class _ActiveSpan:
    """Context manager that opens a span on entry, times it on exit."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.span.attributes.setdefault("error", exc_type.__name__)
        self.tracer._pop(self.span)


class Tracer:
    """Builds the span tree; one instance per observed run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attributes: Any) -> _ActiveSpan:
        """Open a child of the current span (or a new root)."""
        span = Span(name, attributes,
                    start_ms=(self._clock() - self._epoch) * 1e3)
        return _ActiveSpan(self, span)

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.duration_ms = ((self._clock() - self._epoch) * 1e3
                            - span.start_ms)
        # Tolerate exception-driven unwinding: pop through to `span`.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    def attach(self, data: Dict[str, Any], **extra: Any) -> Span:
        """Re-parent a serialized subtree under the current span.

        Used to merge worker-process spans into the submitting span:
        the worker serializes its local span tree
        (:meth:`Span.to_dict`), ships it over the result pipe, and the
        parent attaches it here.  ``extra`` attributes (e.g.
        ``worker=True``) are stamped on the subtree root.  Worker-side
        ``*_ms`` values are kept verbatim -- they are durations on the
        worker's own clock, not offsets on the parent timeline.
        """
        span = Span.from_dict(data)
        for key, value in extra.items():
            span.attributes[key] = _clean(value)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    # -- reading -------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._stack)

    def find(self, name: str) -> List[Span]:
        """All spans named ``name`` anywhere in the recorded forest."""
        found: List[Span] = []
        for root in self.roots:
            found.extend(root.find(name))
        return found

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [root.to_dict() for root in self.roots]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The whole forest as deterministic JSON (modulo timestamps)."""
        return json.dumps({"spans": self.to_dicts()}, indent=indent,
                          sort_keys=True)


__all__ = ["Span", "Tracer"]
