"""Degradation events and their rendering as AVD diagnostics.

Every fault the runtime survives -- a checkpoint that could not be
saved, a crashed worker, a quarantined candidate, a corrupt cache
entry, a retried grid shard -- is recorded as a
:class:`DegradationEvent` in a :class:`DegradationLog`.  The log
renders into the existing static-analysis machinery
(:class:`repro.lint.LintReport`) under each subsystem's ``AVD`` code
family, so degraded runs surface through the same text/JSON channels
CI already gates on, and in :meth:`repro.core.DesignOutcome.summary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..lint import Diagnostic, LintReport
from ..obs import current as _obs_current

#: Event kinds, with their diagnostic codes.
RESUME = "checkpoint-resume"
CHECKPOINT_FAULT = "checkpoint-fault"
#: Supervised parallel runtime (:mod:`repro.parallel`) event kinds.
POOL_DEGRADED = "pool-degraded"
QUARANTINE = "quarantine"
WORKER_CRASH = "worker-crash"
TASK_TIMEOUT = "task-timeout"
POOL_RESTART = "pool-restart"
#: Tier-evaluation store (:mod:`repro.cache`) event kinds.
CACHE_CORRUPT = "cache-corrupt"
CACHE_WRITE_FAILED = "cache-write-failed"
CACHE_DISABLED = "cache-disabled"
CACHE_VERIFY_MISMATCH = "cache-verify-mismatch"
CACHE_STALE = "cache-stale"
#: Continuous redesign watcher (:mod:`repro.watch`) event kinds.
TELEMETRY_MALFORMED = "telemetry-malformed"
TELEMETRY_CONFLICT = "telemetry-conflict"
TELEMETRY_GAP = "telemetry-gap"
TELEMETRY_SKEW = "telemetry-skew"
DRIFT_DETECTED = "drift-detected"
WATCH_WARM_START = "watch-warm-start"
WATCH_COLD_SEARCH = "watch-cold-search"
WATCH_RESUMED = "watch-resumed"
WATCH_JOURNAL_FAULT = "watch-journal-fault"
#: Stacked wavefront solves (:mod:`repro.batch`) re-run on the DFS
#: chain builder.
BATCH_GROUP_FALLBACK = "batch-group-fallback"
BATCH_MEMBER_DEGRADED = "batch-member-degraded"
#: Sharded requirement-space map builder (:mod:`repro.grid`) kinds.
GRID_SHARD_FAULT = "grid-shard-fault"
GRID_SHARD_ISOLATED = "grid-shard-isolated"
GRID_CELL_CONVICTED = "grid-cell-convicted"
GRID_RESUMED = "grid-resumed"
GRID_JOURNAL_FAULT = "grid-journal-fault"
GRID_LEASE_RECLAIMED = "grid-lease-reclaimed"
GRID_MAP_PARTIAL = "grid-map-partial"

EVENT_CODES: Dict[str, str] = {
    RESUME: "AVD308",
    CHECKPOINT_FAULT: "AVD309",
    POOL_DEGRADED: "AVD401",
    QUARANTINE: "AVD402",
    WORKER_CRASH: "AVD403",
    TASK_TIMEOUT: "AVD404",
    POOL_RESTART: "AVD405",
    CACHE_CORRUPT: "AVD601",
    CACHE_WRITE_FAILED: "AVD602",
    CACHE_DISABLED: "AVD603",
    CACHE_VERIFY_MISMATCH: "AVD604",
    CACHE_STALE: "AVD605",
    TELEMETRY_MALFORMED: "AVD701",
    TELEMETRY_CONFLICT: "AVD702",
    TELEMETRY_GAP: "AVD703",
    TELEMETRY_SKEW: "AVD704",
    DRIFT_DETECTED: "AVD705",
    WATCH_WARM_START: "AVD706",
    WATCH_COLD_SEARCH: "AVD707",
    WATCH_RESUMED: "AVD708",
    WATCH_JOURNAL_FAULT: "AVD709",
    BATCH_GROUP_FALLBACK: "AVD802",
    BATCH_MEMBER_DEGRADED: "AVD803",
    GRID_SHARD_FAULT: "AVD901",
    GRID_SHARD_ISOLATED: "AVD902",
    GRID_CELL_CONVICTED: "AVD903",
    GRID_RESUMED: "AVD904",
    GRID_JOURNAL_FAULT: "AVD905",
    GRID_LEASE_RECLAIMED: "AVD906",
    GRID_MAP_PARTIAL: "AVD907",
}


@dataclass(frozen=True)
class DegradationEvent:
    """One observed degradation of the evaluation runtime."""

    kind: str                   # one of the module-level kind constants
    engine: str = ""            # engine the event concerns
    tier: str = ""              # tier being evaluated, when known
    detail: str = ""            # human-readable cause/summary
    attempt: int = 0            # 1-based attempt number, when relevant

    def describe(self) -> str:
        parts: List[str] = [self.kind]
        if self.engine:
            parts.append("engine=%s" % self.engine)
        if self.tier:
            parts.append("tier=%s" % self.tier)
        if self.attempt:
            parts.append("attempt=%d" % self.attempt)
        text = " ".join(parts)
        if self.detail:
            text += ": %s" % self.detail
        return text

    def to_diagnostic(self) -> Diagnostic:
        # Strict: a kind without a registered code is a bug, never
        # something to file under a look-alike code.
        code = EVENT_CODES[self.kind]
        context_parts: List[str] = []
        if self.tier:
            context_parts.append("tier %r" % self.tier)
        if self.engine:
            context_parts.append("engine %r" % self.engine)
        message = self.detail or self.kind
        if self.attempt:
            message += " (attempt %d)" % self.attempt
        return Diagnostic.new(code, message,
                              context=", ".join(context_parts))


class DegradationLog:
    """An ordered record of degradation events with report rendering."""

    def __init__(self) -> None:
        self.events: List[DegradationEvent] = []

    def add(self, kind: str, engine: str = "", tier: str = "",
            detail: str = "", attempt: int = 0) -> DegradationEvent:
        event = DegradationEvent(kind, engine, tier, detail, attempt)
        self.events.append(event)
        # Every degradation decision (crash, quarantine, corrupt
        # entry, ...) doubles as a metric: one counter per event
        # kind, plus a per-engine one when the engine is known.
        obs = _obs_current()
        if obs.enabled:
            obs.inc("degradation_events.%s" % kind)
            if engine:
                obs.inc("degradation_events.%s.%s" % (kind, engine))
        return event

    def extend(self, other: "DegradationLog") -> None:
        self.events.extend(other.events)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[DegradationEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> List[DegradationEvent]:
        return [event for event in self.events if event.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event count per kind (only kinds that occurred)."""
        tally: Dict[str, int] = {}
        for event in self.events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return tally

    def summary(self) -> str:
        if not self.events:
            return "no degradation"
        counts = self.counts()
        return ", ".join("%d %s" % (counts[kind], kind)
                         for kind in sorted(counts))

    def to_lint_report(self,
                       extra: Optional[Tuple[Diagnostic, ...]] = None) \
            -> LintReport:
        """Render the log as a :class:`repro.lint.LintReport`."""
        report = LintReport(event.to_diagnostic()
                            for event in self.events)
        if extra:
            report.extend(extra)
        return report
