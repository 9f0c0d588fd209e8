"""The observer: one object bundling a tracer and a metrics registry.

Instrumented code follows one convention everywhere::

    obs = current()
    if obs.enabled:
        with obs.span("tier-solve", tier=..., n=..., m=..., s=...):
            ...hot work...
    else:
        ...hot work...

``current()`` returns the installed :class:`Observer` or the shared
:class:`NullObserver`, whose ``enabled`` is False -- so the disabled
cost at every instrumentation site is one module-global read plus one
attribute check, verified to be <3% of a Markov solve by
``benchmarks/bench_obs.py``.

Installation is process-global and scoped::

    with observing(Observer()) as obs:
        outcome = engine.design(requirements)
    print(obs.tracer.to_json())

Worker processes inherit the default (disabled) state; the parallel
executor passes an explicit per-task flag instead (see
:func:`repro.parallel.executor._evaluate_candidate`), which keeps
enabling race-free without any pool re-initialization.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Dict, Iterator, Optional

from .metrics import MetricsRegistry
from .trace import Tracer


class _NoopSpan:
    """A reusable, allocation-free context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class NullObserver:
    """The disabled observer: every operation is a no-op.

    Instrumented call sites are expected to check :attr:`enabled`
    before doing anything; the methods below exist only so that code
    holding an observer reference never needs a None check.
    """

    enabled = False
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None

    def span(self, name: str, **attributes: Any) -> _NoopSpan:
        return _NOOP_SPAN

    def engine_span(self, engine: str, model: Any,
                    members: int = 1) -> _NoopSpan:
        return _NOOP_SPAN

    def inc(self, name: str, amount: int = 1) -> None:
        return None


class Observer:
    """An enabled recorder: hierarchical spans plus a metrics registry."""

    enabled = True

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()

    def span(self, name: str, **attributes: Any):
        return self.tracer.span(name, **attributes)

    def engine_span(self, engine: str, model: Any, members: int = 1):
        """Span + per-engine solve-time histogram for one engine call.

        ``model`` is a
        :class:`~repro.availability.TierAvailabilityModel` (the first
        of ``members`` models when one call solves a wavefront); its
        structure parameters become span attributes, the wall time
        lands in the ``engine_solve_seconds.<engine>`` histogram, and
        the ``engine_solves.<engine>`` counter grows by ``members``.
        """
        return _EngineSpan(self, engine, model, members)

    def inc(self, name: str, amount: int = 1) -> None:
        self.metrics.inc(name, amount)


class _EngineSpan:
    """Context manager composing a span with a solve-time histogram."""

    __slots__ = ("observer", "engine", "model", "members", "active",
                 "started")

    def __init__(self, observer: Observer, engine: str, model: Any,
                 members: int = 1):
        self.observer = observer
        self.engine = engine
        self.model = model
        self.members = members

    def __enter__(self) -> None:
        model = self.model
        self.active = self.observer.tracer.span(
            "engine-solve", engine=self.engine,
            tier=getattr(model, "name", ""),
            n=getattr(model, "n", None), m=getattr(model, "m", None),
            s=getattr(model, "s", None), members=self.members)
        self.active.__enter__()
        self.started = time.perf_counter()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        elapsed = time.perf_counter() - self.started
        metrics = self.observer.metrics
        metrics.observe("engine_solve_seconds.%s" % self.engine, elapsed)
        metrics.inc("engine_solves.%s" % self.engine, self.members)
        if exc_type is not None:
            metrics.inc("engine_errors.%s" % self.engine)
        self.active.__exit__(exc_type, exc, tb)


#: The process-wide current observer.  Disabled by default; the CLI
#: (or a test) swaps in a recording one via :func:`observing` /
#: :func:`install`.
_NULL = NullObserver()
_CURRENT: Any = _NULL


def current() -> Any:
    """The installed observer, or the shared disabled one."""
    return _CURRENT


def install(observer: Optional[Any]) -> Any:
    """Install ``observer`` (None restores the disabled default).

    Returns the previously installed observer so callers can restore
    it; prefer :func:`observing` for scoped use.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = observer if observer is not None else _NULL
    return previous


@contextlib.contextmanager
def observing(observer: Optional[Observer] = None) -> Iterator[Any]:
    """Scoped installation: record within the block, restore after.

    With no argument a fresh :class:`Observer` is created (and
    yielded, so the caller can read its tracer/metrics afterwards).
    """
    installed = observer if observer is not None else Observer()
    previous = install(installed)
    try:
        yield installed
    finally:
        install(previous)


@contextlib.contextmanager
def disabled() -> Iterator[Any]:
    """Scoped force-disable, regardless of the surrounding state."""
    previous = install(_NULL)
    try:
        yield _NULL
    finally:
        install(previous)


def snapshot_metrics(observer: Any) -> Optional[Dict[str, Any]]:
    """The observer's metrics snapshot, or None when disabled."""
    if not getattr(observer, "enabled", False):
        return None
    return observer.metrics.snapshot()


__all__ = ["Observer", "NullObserver", "current", "install",
           "observing", "disabled", "snapshot_metrics"]
