"""Outside-in span tracing of the program's layers.

The tracer wraps the program's public functions and methods at the
name each caller looks up (a module attribute, a class attribute, or
``numpy.linalg.solve``) and records one span per call: id, layer,
start, end, parent id, operation id and one optional attribute.  Spans
stay in memory and are written once, at exit.  The program is not
edited; a name it no longer has is reported as missing, and a layer
none of whose names exist is reported as absent.

A layer's self time is its spans' duration minus the time their child
spans cover.  Each operation's spans form one tree under the
operation's root span (layer ``op``), so the self times of an
operation sum to its wall time; the root's own self time is the
unattributed remainder.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional)

clock = time.monotonic   # CLOCK_MONOTONIC: comparable across processes

ROOT = "op"

# Span record fields (a list, so ``end`` and ``op`` can be filled late).
ID, LAYER, START, END, PARENT, OP, ATTR = range(7)


class Target(NamedTuple):
    """One wrapped name.  ``layer`` None counts without a span."""

    layer: Optional[str]
    module: str
    path: str
    attr: Any = None
    before: Optional[Callable] = None
    after: Optional[Callable] = None


class Tracer:
    """Collects spans and per-operation counts from every thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: List[list] = []
        self.missing: List[str] = []
        self.absent: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._gc_callback: Optional[Callable] = None

    # -- thread state --------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def set_op(self, op: Optional[str]) -> None:
        """Attribute this thread's next spans to operation ``op``."""
        state = self._state()
        state.op = op
        state.pending = []

    def claim_pending(self, op: str) -> None:
        """Attribute this thread's spans begun outside any operation
        (since its last :meth:`set_op`) to ``op``."""
        state = self._state()
        for span in state.pending:
            span[OP] = op
        state.pending = []

    # -- spans and counts ----------------------------------------------

    def begin(self, layer: str, attr: Any = None) -> list:
        state = self._state()
        stack = state.stack
        span = [next(self._ids), layer, clock(), 0.0,
                stack[-1][ID] if stack else None, state.op, attr]
        if state.op is None:
            state.pending.append(span)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = clock()
        stack = self._state().stack
        if stack and stack[-1] is span:
            stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` of this thread's operation."""
        op = self._state().op
        if op is not None:
            self.counts.append([op, name, value])

    @contextlib.contextmanager
    def operation(self, op: str) -> Iterator[list]:
        """One operation's root span on this thread."""
        self.set_op(op)
        span = self.begin(ROOT)
        try:
            yield span
        finally:
            self.end(span)
            self.set_op(None)

    # -- installation --------------------------------------------------

    def install(self, targets: List[Target]) -> None:
        """Wrap every target that resolves, noting the ones that do not,
        and time every collector pause as a ``gc`` span."""
        wrappers: Dict[tuple, Callable] = {}
        present: Dict[str, bool] = {}
        for target in targets:
            layer = target.layer or target.path
            present.setdefault(layer, False)
            resolved = _resolve(target)
            if resolved is None:
                self.missing.append("%s.%s" % (target.module, target.path))
                continue
            owner, name, raw, own = resolved
            function = raw.__func__ if isinstance(
                raw, (staticmethod, classmethod)) else raw
            key = (id(function), target.layer, target.attr)
            wrapper = wrappers.get(key)
            if wrapper is None:
                wrapper = wrappers[key] = self._wrap(function, target)
            if isinstance(raw, staticmethod):
                setattr(owner, name, staticmethod(wrapper))
            elif isinstance(raw, classmethod):
                setattr(owner, name, classmethod(wrapper))
            else:
                setattr(owner, name, wrapper)
            self._patches.append((owner, name, raw if own else None))
            present[layer] = True
        self.absent = sorted(layer for layer, seen in present.items()
                             if not seen)
        open_spans: List[list] = []

        def on_gc(phase: str, info: dict) -> None:
            if phase == "start":
                open_spans.append(self.begin("gc"))
            elif open_spans:
                self.end(open_spans.pop())

        self._gc_callback = on_gc
        gc.callbacks.append(on_gc)

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._patches):
            if raw is None:     # inherited: drop the override
                delattr(owner, name)
            else:
                setattr(owner, name, raw)
        self._patches = []
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        self._gc_callback = None

    def _wrap(self, function: Callable, target: Target) -> Callable:
        tracer = self
        layer, attr = target.layer, target.attr
        before, after = target.before, target.after
        if layer is None:
            def counting(*args, **kwargs):
                result = function(*args, **kwargs)
                after(tracer, None, args, result)
                return result
            return functools.wraps(function)(counting)

        def spanning(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            span = tracer.begin(layer, attr)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(tracer, span, args, result)
            return result
        return functools.wraps(function)(spanning)

    # -- output --------------------------------------------------------

    def dump(self, path: str, **extra: Any) -> None:
        """Unwrap everything, then write every span and count (at exit,
        once)."""
        self.uninstall()
        record = {"spans": self.spans, "counts": self.counts,
                  "missing": self.missing, "absent": self.absent}
        record.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))


class _ThreadState:
    __slots__ = ("op", "stack", "pending")

    def __init__(self) -> None:
        self.op: Optional[str] = None
        self.stack: List[list] = []
        self.pending: List[list] = []


def _resolve(target: Target):
    """``(owner, name, raw attribute, owned)`` of a target, or None if
    gone; ``owned`` is False for a method a class inherits."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError:
        return None
    *parents, name = target.path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    owned = True
    if isinstance(owner, type):
        raw = None
        for klass in owner.__mro__:
            if name in vars(klass):
                raw, owned = vars(klass)[name], klass is owner
                break
    else:
        raw = getattr(owner, name, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, name, raw, owned


# ----------------------------------------------------------------------
# The program's layers
# ----------------------------------------------------------------------

def _count_stats(tracer: Tracer, span, args, outcome) -> None:
    stats = getattr(outcome, "stats", None)
    if stats is None:
        return
    for name, field in (("search.candidates", "structures_enumerated"),
                        ("search.solves", "availability_evaluations"),
                        ("search.cost_pruned", "cost_pruned"),
                        ("search.job_evals", "job_time_evaluations"),
                        ("prune.probes", "dominance_probes"),
                        ("prune.skipped", "dominance_pruned")):
        tracer.count(name, getattr(stats, field, 0))


def _count_modes(tracer: Tracer, span, args, result) -> None:
    tracer.count("markov.modes", len(getattr(args[1], "modes", ())))


def _count_chain(tracer: Tracer, span, args, result) -> None:
    tracer.count("markov.chain_states", getattr(args[0], "size", 0))


def _note_size(tracer: Tracer, span, args, result) -> None:
    shape = getattr(args[0], "shape", None)
    span[ATTR] = int(shape[-1]) if shape else 0


def _count_members(tracer: Tracer, span, args, result) -> None:
    tracer.count("batch.members", len(args[1]))


def _count_hit(tracer: Tracer, span, args, result) -> None:
    tracer.count("cache.hits", 1 if result is not None else 0)


def _count_degraded(tracer: Tracer, span, args, result) -> None:
    provenance = getattr(result, "provenance", None)
    if provenance is not None and getattr(provenance, "degraded", False):
        tracer.count("fallback.degraded", 1)


def _claim_job(tracer: Tracer, span, args, job) -> None:
    tracer.claim_pending(job.id)


def _start_job(tracer: Tracer, args) -> None:
    tracer.set_op(args[1])


def _end_job(tracer: Tracer, span, args, result) -> None:
    tracer.set_op(None)


JOBSTORE = "repro.serve.jobstore"

TARGETS: List[Target] = [
    Target("spec", "repro.spec.parser", "parse_infrastructure"),
    Target("spec", "repro.spec.parser", "parse_service"),
    Target("spec", "repro.spec", "parse_infrastructure"),
    Target("spec", "repro.spec", "parse_service"),
    Target("spec", "repro.spec.paper", "parse_infrastructure"),
    Target("spec", "repro.spec.paper", "parse_service"),
    Target("spec", "repro.cli", "parse_infrastructure"),
    Target("spec", "repro.cli", "parse_service"),
    Target("lint", "repro.lint", "lint_pair"),
    Target("lint", "repro.lint.model_analyzer", "lint_pair"),
    Target("prune", "repro.lint.space", "build_pruning_certificate"),
    Target("prune", "repro.lint", "build_pruning_certificate"),
    Target(None, "repro.core.engine", "Aved.design", after=_count_stats),
    Target("search", "repro.core.search", "TierSearch.tier_frontier"),
    Target("search", "repro.core.search", "TierSearch.best_tier_design"),
    Target("search", "repro.core.search", "JobSearch.best_design"),
    Target("evaluation.tier_model", "repro.core.evaluation",
           "DesignEvaluator.tier_model"),
    Target("evaluation.tier_cost", "repro.core.evaluation",
           "DesignEvaluator.tier_cost"),
    Target("evaluation.job_time", "repro.core.evaluation",
           "DesignEvaluator.job_time"),
    Target("markov", "repro.availability.engine",
           "MarkovEngine.evaluate_tier", after=_count_modes),
    Target(None, "repro.availability.ctmc",
           "ContinuousTimeMarkovChain.steady_state", after=_count_chain),
    Target("lapack", "numpy.linalg", "solve", after=_note_size),
    Target("batch", "repro.batch.evaluator", "TierBatcher.solve_tasks",
           after=_count_members),
    Target("cache", "repro.cache.store", "TierEvaluationStore.get",
           attr="get", after=_count_hit),
    Target("cache", "repro.cache.store", "TierEvaluationStore.put",
           attr="put"),
    Target("combine", "repro.core.search", "combine_tier_frontiers"),
    Target("combine", "repro.core.engine", "combine_tier_frontiers"),
    Target("journal", JOBSTORE, "JobStore.submit", attr="submit",
           after=_claim_job),
    Target("journal", JOBSTORE, "JobStore.mark_started", attr="started",
           before=_start_job),
    Target("journal", JOBSTORE, "JobStore.mark_completed",
           attr="completed", after=_end_job),
    Target("journal", JOBSTORE, "JobStore.mark_failed", attr="completed",
           after=_end_job),
    Target("journal", JOBSTORE, "JobStore.mark_cancelled",
           attr="completed", after=_end_job),
    Target("journal", JOBSTORE, "JobStore.mark_requeued",
           attr="completed", after=_end_job),
    Target("fallback", "repro.resilience.fallback",
           "FallbackEngine.evaluate_tier", after=_count_degraded),
    Target("checkpoint", "repro.resilience.checkpoint",
           "SearchCheckpoint.save"),
    Target("parallel", "repro.parallel.runtime",
           "ParallelEvaluationRuntime.evaluate_candidate"),
    Target("parallel", "repro.parallel.runtime",
           "ParallelEvaluationRuntime.evaluate_batch"),
    Target("io.fsync", "os", "fsync"),
    Target("serialize", "repro.core.serialize", "evaluation_to_dict"),
    Target("serialize", "json", "dumps"),
    Target("serialize", "json", "dump"),
    Target("serialize", "json", "loads"),
]

#: The metric that reports each layer's self time.  With the root's
#: (``unattributed.self_s``) they add up to ``op.wall_s``.
SELF_METRICS = {layer: layer + ".self_s" for layer in (
    "spec", "lint", "prune", "search", "evaluation.tier_model",
    "evaluation.tier_cost", "evaluation.job_time", "markov", "lapack",
    "batch", "cache", "combine", "fallback", "checkpoint", "parallel",
    "serialize")}
SELF_METRICS.update({ROOT: "unattributed.self_s", "journal":
                     "serve.journal_s", "io.fsync": "io.fsync_s",
                     "gc": "gc.pause_s"})


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def merge(*dumps: Dict) -> Dict:
    """One record from several processes' dumps (span ids made unique)."""
    spans: List[list] = []
    counts: List[list] = []
    for index, dump in enumerate(dumps):
        offset = index << 40
        for span in dump.get("spans", ()):
            span = list(span)
            span[ID] += offset
            if span[PARENT] is not None:
                span[PARENT] += offset
            spans.append(span)
        counts.extend(dump.get("counts", ()))
    return {"spans": spans, "counts": counts}


def operation_trees(spans: List[list]) -> Dict[str, Dict]:
    """Self time of every span, per operation.

    Returns ``{op: {"root": span, "self": {span id: seconds},
    "batched": set of span ids under a ``batch`` span}}``.  Spans whose
    recorded parent is not part of the same operation hang off its
    root.
    Every span is clipped to its parent's interval first, so sibling
    spans never overlap their parent and the self times of one
    operation sum exactly to its root's duration.
    """
    roots = {span[OP]: span for span in spans if span[LAYER] == ROOT}
    members: Dict[int, list] = {}
    for span in spans:
        if span[LAYER] != ROOT and span[OP] in roots:
            members[span[ID]] = span
    children: Dict[int, List[list]] = defaultdict(list)
    for span in members.values():
        parent = span[PARENT]
        if parent not in members or members[parent][OP] != span[OP]:
            parent = roots[span[OP]][ID]
        children[parent].append(span)
    trees: Dict[str, Dict] = {}
    for op, root in roots.items():
        self_times: Dict[int, float] = {}
        batched = set()
        stack = [(root, root[START], root[END], False)]
        while stack:
            span, start, end, in_batch = stack.pop()
            covered = 0.0
            below = in_batch or span[LAYER] == "batch"
            for child in children.get(span[ID], ()):
                child_start = min(max(child[START], start), end)
                child_end = max(min(child[END], end), child_start)
                covered += child_end - child_start
                stack.append((child, child_start, child_end, below))
            self_times[span[ID]] = max(end - start - covered, 0.0)
            if in_batch:
                batched.add(span[ID])
        trees[op] = {"root": root, "self": self_times, "batched": batched}
    return trees


def layer_metrics(record: Dict, ops: List[str]) -> Dict[str, float]:
    """Per-operation means of every per-layer metric over ``ops``."""
    wanted = set(ops)
    spans = [span for span in record["spans"] if span[OP] in wanted]
    trees = operation_trees(spans)
    ops = [op for op in ops if op in trees]
    n = max(len(ops), 1)
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    lapack_sizes: List[int] = []
    lapack_batched = cache_gets = 0
    stamps: Dict[str, Dict[str, float]] = defaultdict(dict)
    for span in spans:
        tree = trees.get(span[OP])
        if tree is None:
            continue
        layer = span[LAYER]
        calls[layer] += 1
        self_s[layer] += tree["self"][span[ID]]
        if layer == "lapack":
            lapack_sizes.append(span[ATTR] or 0)
            if span[ID] in tree["batched"]:
                lapack_batched += 1
        elif layer == "cache":
            cache_gets += span[ATTR] == "get"
        elif layer == "journal":
            marks = stamps[span[OP]]
            if span[ATTR] == "submit":
                marks["submitted"] = span[END]
            elif span[ATTR] == "started":
                marks.setdefault("started", span[START])
            else:
                marks["completed"] = span[END]
    totals: Dict[str, float] = defaultdict(float)
    for op, name, value in record["counts"]:
        if op in wanted:
            totals[name] += value
    wall = sum(tree["root"][END] - tree["root"][START]
               for tree in trees.values())

    def per_op(value: float) -> float:
        return value / n

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    metrics = {
        "op.wall_s": per_op(wall),
        "spec.calls": per_op(calls["spec"]),
        "lint.calls": per_op(calls["lint"]),
        "prune.certificates": per_op(calls["prune"]),
        "prune.probes": per_op(totals["prune.probes"]),
        "prune.skipped": per_op(totals["prune.skipped"]),
        "prune.skipped_per_probe": ratio(totals["prune.skipped"],
                                         totals["prune.probes"]),
        "search.candidates": per_op(totals["search.candidates"]),
        "search.cost_pruned": per_op(totals["search.cost_pruned"]),
        "search.job_evals": per_op(totals["search.job_evals"]),
        "search.solves_per_candidate": ratio(totals["search.solves"],
                                             totals["search.candidates"]),
        "evaluation.tier_model.calls": per_op(
            calls["evaluation.tier_model"]),
        "evaluation.tier_cost.calls": per_op(calls["evaluation.tier_cost"]),
        "evaluation.job_time.calls": per_op(calls["evaluation.job_time"]),
        "markov.calls": per_op(calls["markov"]),
        "markov.modes": per_op(totals["markov.modes"]),
        "markov.chain_states": per_op(totals["markov.chain_states"]),
        "lapack.calls": per_op(calls["lapack"]),
        "lapack.mean_n": ratio(sum(lapack_sizes), len(lapack_sizes)),
        "lapack.max_n": float(max(lapack_sizes, default=0)),
        "batch.wavefronts": per_op(calls["batch"]),
        "batch.members": per_op(totals["batch.members"]),
        "batch.lapack_calls": per_op(lapack_batched),
        "cache.gets": per_op(cache_gets),
        "cache.hits": per_op(totals["cache.hits"]),
        "combine.calls": per_op(calls["combine"]),
        "fallback.calls": per_op(calls["fallback"]),
        "fallback.degraded": per_op(totals["fallback.degraded"]),
        "checkpoint.saves": per_op(calls["checkpoint"]),
        "parallel.calls": per_op(calls["parallel"]),
        "io.fsync_calls": per_op(calls["io.fsync"]),
        "gc.collections": per_op(calls["gc"]),
    }
    for layer, name in SELF_METRICS.items():
        metrics[name] = per_op(self_s[layer])
    waits = [marks["started"] - marks["submitted"]
             for marks in stamps.values()
             if "started" in marks and "submitted" in marks]
    runs = [marks["completed"] - marks["started"]
            for marks in stamps.values()
            if "completed" in marks and "started" in marks]
    results = [trees[op]["root"][END] - marks["completed"]
               for op, marks in stamps.items() if "completed" in marks]
    metrics["serve.queue_wait_s"] = ratio(sum(waits), len(waits))
    metrics["serve.run_s"] = ratio(sum(runs), len(runs))
    metrics["serve.result_s"] = ratio(sum(results), len(results))
    return metrics
