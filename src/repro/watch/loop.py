"""The watcher: ingest -> estimate -> detect drift -> re-search.

:class:`Watcher` ties the package together into the loop the paper's
section 7 calls for.  Each :meth:`Watcher.poll`:

1. drains the telemetry sources (file tails and/or the in-process
   metrics feed) into the ledger, quarantining malformed records
   (``AVD701``), conflicting duplicates (``AVD702``) and noting gaps
   and clock skew (``AVD703``/``AVD704``);
2. asks the drift detector whether the online estimates contradict
   the spec the incumbent was solved against;
3. on a (debounced) contradiction, journals a ``redesign-start`` with
   the full drifted spec, re-runs the tier search against it, and
   journals ``redesign-done`` -- so a ``kill -9`` anywhere in between
   resumes the redesign exactly once, deterministically, from the
   journaled spec (``AVD708``).

Re-searches are *incremental*: the in-run :class:`SearchCheckpoint`
is kept across load-only drift (its structure keys embed the load but
not the failure-mode parameters, so entries stay valid -- ``AVD706``)
and discarded when failure modes drift (stale entries would be
silently wrong -- a cold re-search, ``AVD707``).  The shared
:mod:`repro.cache` store is content-addressed over the canonical tier
model, so it is always sound and supplies cross-epoch reuse either
way.

Drifted parameters enter evaluation through
:class:`DriftedEvaluator`, which substitutes observed MTBF/MTTR into
the generated tier models by mode name (:func:`substitute_modes`) --
the spec stays declarative and the whole engine stack (caching,
wavefront solves) is reused untouched.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..availability import FailureModeEntry, TierAvailabilityModel
from ..core.design import EvaluatedTierDesign
from ..core.evaluation import DesignEvaluator
from ..core.search import SearchLimits, TierSearch
from ..core.serialize import evaluated_tier_design_to_dict
from ..errors import WatchError
from ..obs import current as _obs_current
from ..resilience.checkpoint import SearchCheckpoint
from ..resilience.events import (DRIFT_DETECTED, DegradationLog,
                                 TELEMETRY_CONFLICT, TELEMETRY_GAP,
                                 TELEMETRY_MALFORMED, TELEMETRY_SKEW,
                                 WATCH_COLD_SEARCH, WATCH_RESUMED,
                                 WATCH_WARM_START)
from ..units import Duration
from .drift import DriftDetector, DriftPolicy, DriftReport
from .estimator import OnlineEstimator
from .ingest import (ACCEPTED, CONFLICT, JsonlTailReader, MetricsFeed,
                     TelemetryLedger)
from .journal import WatchJournal

#: Quarantined payload excerpts kept in memory for status reporting.
QUARANTINE_KEEP = 50


def substitute_modes(modes: Sequence[FailureModeEntry],
                     mtbf_hours: Mapping[str, float],
                     mttr_hours: Mapping[str, float]) \
        -> Tuple[FailureModeEntry, ...]:
    """Failure-mode entries with observed parameters substituted in.

    Matching is by mode name (``component.failure``); failover times
    and spare susceptibility -- which telemetry does not observe --
    are preserved.
    """
    substituted = []
    for mode in modes:
        mtbf = mtbf_hours.get(mode.name)
        mttr = mttr_hours.get(mode.name)
        if mtbf is None and mttr is None:
            substituted.append(mode)
            continue
        substituted.append(dataclasses.replace(
            mode,
            mtbf=Duration.hours(mtbf) if mtbf is not None else mode.mtbf,
            mttr=Duration.hours(mttr) if mttr is not None
            else mode.mttr))
    return tuple(substituted)


class DriftedEvaluator(DesignEvaluator):
    """A :class:`DesignEvaluator` with drifted parameters grafted in.

    Availability models it generates carry the observed MTBF/MTTR in
    place of the declared ones; everything else (cost, throughput,
    mechanisms) is inherited.  Because the substitution changes the
    canonical tier-model form, the content-addressed cache naturally
    keeps drifted and declared solves apart.
    """

    def __init__(self, base: DesignEvaluator,
                 mtbf_hours: Mapping[str, float],
                 mttr_hours: Mapping[str, float]):
        super().__init__(base.infrastructure, base.service, base.engine,
                         base.repair_crew)
        self.mtbf_hours = dict(mtbf_hours)
        self.mttr_hours = dict(mttr_hours)

    def _tier_model(self, tier_design, required_throughput) \
            -> TierAvailabilityModel:
        model = super()._tier_model(tier_design, required_throughput)
        if not self.mtbf_hours and not self.mttr_hours:
            return model
        return TierAvailabilityModel(
            model.name, n=model.n, m=model.m, s=model.s,
            modes=substitute_modes(model.modes, self.mtbf_hours,
                                   self.mttr_hours),
            repair_crew=model.repair_crew)


@dataclass(frozen=True)
class WatchSpec:
    """The specification the incumbent design is currently solved for.

    ``mtbf_hours``/``mttr_hours`` are per-mode *overrides* of the
    declared model parameters, accumulated from accepted drift; an
    empty mapping means the declared value stands.  The spec is what
    the journal persists on ``redesign-start`` -- it fully determines
    the redesign, which is what makes crash replay deterministic.
    """

    tier: str
    load: float
    max_downtime: Duration
    mtbf_hours: Mapping[str, float] = field(default_factory=dict)
    mttr_hours: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tier:
            raise WatchError("spec needs a tier name")
        if self.load <= 0:
            raise WatchError("spec load must be positive")

    def with_drift(self, report: DriftReport) -> "WatchSpec":
        """The spec after accepting a drift report's parameters."""
        return WatchSpec(
            tier=self.tier,
            load=report.load if report.load is not None else self.load,
            max_downtime=self.max_downtime,
            mtbf_hours={**self.mtbf_hours,
                        **{mode: duration.as_hours
                           for mode, duration in report.mtbf.items()}},
            mttr_hours={**self.mttr_hours,
                        **{mode: duration.as_hours
                           for mode, duration in report.mttr.items()}})

    def modes_differ(self, other: "WatchSpec") -> bool:
        """Do the failure-mode parameters differ from ``other``'s?

        This is the warm/cold boundary: checkpoint structure keys
        embed the load but *not* the failure-mode parameters, so a
        checkpoint survives load-only drift and must be discarded on
        mode drift.
        """
        return dict(self.mtbf_hours) != dict(other.mtbf_hours) \
            or dict(self.mttr_hours) != dict(other.mttr_hours)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tier": self.tier,
            "load": self.load,
            "max_downtime_minutes": self.max_downtime.as_minutes,
            "mtbf_hours": dict(sorted(self.mtbf_hours.items())),
            "mttr_hours": dict(sorted(self.mttr_hours.items())),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "WatchSpec":
        if not isinstance(data, dict):
            raise WatchError("watch spec must be an object")
        try:
            return cls(
                tier=str(data["tier"]),
                load=float(data["load"]),
                max_downtime=Duration.minutes(
                    float(data["max_downtime_minutes"])),
                mtbf_hours={str(mode): float(value) for mode, value
                            in dict(data.get("mtbf_hours", {})).items()},
                mttr_hours={str(mode): float(value) for mode, value
                            in dict(data.get("mttr_hours", {})).items()})
        except (KeyError, TypeError, ValueError) as exc:
            raise WatchError("malformed watch spec: %s" % exc) from exc


class Watcher:
    """The drift-aware continuous redesign loop for one tier."""

    def __init__(self, evaluator: DesignEvaluator, spec: WatchSpec,
                 readers: Sequence[JsonlTailReader] = (),
                 feed: Optional[MetricsFeed] = None,
                 policy: Optional[DriftPolicy] = None,
                 limits: Optional[SearchLimits] = None,
                 journal_path: Optional[str] = None,
                 checkpoint_path: Optional[str] = None,
                 cache_dir: Optional[str] = None,
                 hysteresis: float = 0.05,
                 load_window: Optional[int] = None,
                 log: Optional[DegradationLog] = None):
        if hysteresis < 0:
            raise WatchError("hysteresis cannot be negative")
        self.spec = spec
        self.readers = list(readers)
        self.feed = feed
        self.policy = policy or DriftPolicy()
        self.limits = limits or SearchLimits()
        self.hysteresis = hysteresis
        self.log = log if log is not None else DegradationLog()
        self.journal = WatchJournal(journal_path, self.log) \
            if journal_path else None
        self.checkpoint_path = checkpoint_path
        self.cache_store = None
        if cache_dir:
            from ..cache import TierEvaluationStore, attach_cache
            self.cache_store = TierEvaluationStore(cache_dir)
            evaluator = DesignEvaluator(
                evaluator.infrastructure, evaluator.service,
                attach_cache(evaluator.engine, self.cache_store),
                evaluator.repair_crew)
        self.base_evaluator = evaluator
        self.ledger = TelemetryLedger()
        self.estimator = OnlineEstimator(self.ledger,
                                         self.policy.confidence,
                                         load_window)
        self.detector: Optional[DriftDetector] = None
        self.incumbent: Optional[EvaluatedTierDesign] = None
        self.epoch = 0
        self.polls = 0
        self.reconfigurations = 0
        self.infeasible_epochs = 0
        self.warm_starts = 0
        self.cold_searches = 0
        self.resumed = False
        self.started = False
        self.last_report: Optional[DriftReport] = None
        self.last_search_stats: Dict[str, int] = {}
        #: Every decision this watcher has applied, in order.  The
        #: chaos soak compares this list byte-for-byte between clean
        #: and fault-storm runs.
        self.decisions: List[Dict[str, Any]] = []
        self.quarantined: List[Dict[str, str]] = []
        self._checkpoint = SearchCheckpoint(path=checkpoint_path)
        self._gap_reported: Dict[str, int] = {}
        self._skew_reported: set = set()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Replay the journal, then establish the incumbent design.

        After a crash: a completed epoch restores its (journaled)
        spec; an interrupted redesign is re-executed from its
        journaled spec and completed exactly once (``AVD708``).
        """
        if self.started:
            return
        self.started = True
        pending: Optional[Dict[str, Any]] = None
        if self.journal is not None:
            state = WatchJournal.replay(self.journal.path)
            if state.last_spec is not None:
                self.spec = WatchSpec.from_dict(state.last_spec)
                self.epoch = state.last_epoch
                self.resumed = True
            if state.pending is not None:
                pending = state.pending
        if pending is not None:
            epoch = int(pending["epoch"])
            spec = WatchSpec.from_dict(pending.get("spec"))
            self.log.add(WATCH_RESUMED, tier=spec.tier,
                         detail="re-executing interrupted redesign "
                                "epoch %d from journaled spec" % epoch)
            self.resumed = True
            self.epoch = epoch - 1
            self._redesign_to(spec, journal_started=True)
        else:
            # (Re-)derive the incumbent for the current spec.  After a
            # clean restart this replays warm out of the shared cache.
            self.incumbent = self._search(self.spec)
            if self.incumbent is None:
                self.infeasible_epochs += 1
        self._rebuild_detector()

    def _rebuild_detector(self) -> None:
        mtbf: Dict[str, Duration] = {}
        mttr: Dict[str, Duration] = {}
        if self.incumbent is not None:
            for mode in self._mode_entries(self.spec,
                                           self.incumbent.design):
                mtbf[mode.name] = mode.mtbf
                mttr[mode.name] = mode.mttr
        previous = self.detector
        self.detector = DriftDetector(self.spec.tier, mtbf, mttr,
                                      self.spec.load, self.policy)
        if previous is not None:
            # Redesigns start a quiet period; streaks never carry over.
            self.detector.cooldown_left = self.policy.cooldown

    # -- evaluation plumbing -------------------------------------------

    def _evaluator_for(self, spec: WatchSpec) -> DesignEvaluator:
        if not spec.mtbf_hours and not spec.mttr_hours:
            return self.base_evaluator
        return DriftedEvaluator(self.base_evaluator, spec.mtbf_hours,
                                spec.mttr_hours)

    def _mode_entries(self, spec: WatchSpec, design) \
            -> Tuple[FailureModeEntry, ...]:
        """The incumbent's failure-mode entries under ``spec``.

        Deliberately avoids building a full tier model: mode entries
        do not depend on the load, and after an *infeasible* drift
        epoch the committed spec load may exceed what the retained
        incumbent can carry at all.
        """
        evaluator = self._evaluator_for(spec)
        resource = evaluator.infrastructure.resource(design.resource)
        spare_modes = resource.modes_for_prefix(
            design.spare_active_prefix)
        modes = evaluator.failure_mode_entries(
            resource, spare_modes,
            lambda failure: evaluator._resolve_mttr(design, failure))
        return substitute_modes(modes, spec.mtbf_hours,
                                spec.mttr_hours)

    def _search(self, spec: WatchSpec) -> Optional[EvaluatedTierDesign]:
        search = TierSearch(self._evaluator_for(spec), self.limits,
                            checkpoint=self._checkpoint)
        best = search.best_tier_design(spec.tier, spec.load,
                                       spec.max_downtime)
        self._checkpoint.flush()
        self.log.extend(self._checkpoint.drain_log())
        if self.cache_store is not None:
            self.log.extend(self.cache_store.drain_log())
        self.last_search_stats = {
            "availability_evaluations":
                search.stats.availability_evaluations,
            "cache_hits": search.stats.cache_hits,
            "resumed_evaluations": search.stats.resumed_evaluations,
        }
        return best

    # -- ingestion -----------------------------------------------------

    def _quarantine(self, source: str, excerpt: str,
                    reason: str, kind: str) -> None:
        if len(self.quarantined) < QUARANTINE_KEEP:
            self.quarantined.append({"source": source, "line": excerpt,
                                     "reason": reason})
        self.log.add(kind, tier=self.spec.tier,
                     detail="source=%s: %s" % (source, reason))

    def _ingest(self) -> int:
        """Drain every source into the ledger; returns new records."""
        added = 0
        batches = []
        for reader in self.readers:
            events, rejects = reader.poll()
            batches.append((reader.name, events))
            for reject in rejects:
                self._quarantine(reject.source, reject.line,
                                 reject.reason, TELEMETRY_MALFORMED)
        if self.feed is not None:
            batches.append((self.feed.source, self.feed.poll()))
        for name, events in batches:
            for event in events:
                outcome = self.ledger.add(event)
                if outcome == CONFLICT:
                    self._quarantine(
                        event.source, event.to_json_line()[:160],
                        "seq %d already bound to a different record"
                        % event.seq, TELEMETRY_CONFLICT)
                elif outcome == ACCEPTED:
                    added += 1
        # Report *growth* in gaps / newly skewed clocks, once each.
        for source, missing in self.ledger.gaps().items():
            if missing > self._gap_reported.get(source, 0):
                self._gap_reported[source] = missing
                self.log.add(TELEMETRY_GAP, tier=self.spec.tier,
                             detail="source=%s: %d sequence number%s "
                                    "missing" % (source, missing,
                                                 "" if missing == 1
                                                 else "s"))
        for source in self.ledger.skewed_sources():
            if source not in self._skew_reported:
                self._skew_reported.add(source)
                self.log.add(TELEMETRY_SKEW, tier=self.spec.tier,
                             detail="source=%s: clock disagrees with "
                                    "sequence order; timestamps "
                                    "ignored" % source)
        obs = _obs_current()
        if obs.enabled and added:
            obs.inc("watch.records_accepted", added)
        return added

    # -- the poll ------------------------------------------------------

    def poll(self) -> Dict[str, Any]:
        """One loop iteration; returns the current status document."""
        if not self.started:
            self.start()
        self.polls += 1
        self._ingest()
        assert self.detector is not None
        report = self.detector.observe(self.estimator)
        self.last_report = report
        obs = _obs_current()
        if obs.enabled:
            obs.inc("watch.polls")
        if report.drifted:
            self.log.add(DRIFT_DETECTED, tier=self.spec.tier,
                         detail="; ".join(report.reasons))
            if obs.enabled:
                obs.inc("watch.drifts")
            self._redesign_to(self.spec.with_drift(report))
            self._rebuild_detector()
        return self.status()

    # -- redesign ------------------------------------------------------

    def _redesign_to(self, spec: WatchSpec,
                     journal_started: bool = False) -> None:
        """Re-search against ``spec`` and apply the decision (once)."""
        self.epoch += 1
        cold = spec.modes_differ(self.spec)
        if self.journal is not None and not journal_started:
            self.journal.redesign_start(self.epoch, spec.to_dict())
        if cold:
            # Checkpoint structure keys ignore failure-mode params, so
            # every entry would silently describe the *old* world.
            self._checkpoint = SearchCheckpoint(path=self.checkpoint_path)
            self.cold_searches += 1
            self.log.add(WATCH_COLD_SEARCH, tier=spec.tier,
                         detail="failure-mode parameters drifted; "
                                "checkpoint discarded for epoch %d"
                         % self.epoch)
        else:
            self.warm_starts += 1
            self.log.add(WATCH_WARM_START, tier=spec.tier,
                         detail="load-only drift; epoch %d reuses %d "
                                "checkpointed evaluations"
                         % (self.epoch, self._checkpoint.evaluations))
        optimum = self._search(spec)
        reconfigured = False
        feasible = optimum is not None
        decision_design = self.incumbent
        if optimum is None:
            self.infeasible_epochs += 1
        elif self.incumbent is None:
            decision_design, reconfigured = optimum, True
        elif self._still_adequate(self.incumbent, spec) \
                and optimum.annual_cost >= self.incumbent.annual_cost \
                * (1.0 - self.hysteresis):
            decision_design = self.incumbent
        else:
            decision_design, reconfigured = optimum, True
        decision = {
            "epoch": self.epoch,
            "spec": spec.to_dict(),
            "feasible": feasible,
            "reconfigured": reconfigured,
            "design": (evaluated_tier_design_to_dict(decision_design)
                       if decision_design is not None else None),
        }
        if self.journal is not None:
            self.journal.redesign_done(self.epoch, decision)
        # The commit point: journal says done, so apply exactly once.
        self.spec = spec
        self.incumbent = decision_design
        if reconfigured:
            self.reconfigurations += 1
        self.decisions.append(decision)
        obs = _obs_current()
        if obs.enabled:
            obs.inc("watch.epochs")
            if reconfigured:
                obs.inc("watch.reconfigurations")
            if not feasible:
                obs.inc("watch.infeasible_epochs")

    def _still_adequate(self, incumbent: EvaluatedTierDesign,
                        spec: WatchSpec) -> bool:
        """Can the incumbent carry the drifted spec within the SLO?"""
        evaluator = self._evaluator_for(spec)
        option = evaluator.service.tier(spec.tier).option_for(
            incumbent.design.resource)
        needed = option.min_active_for(spec.load)
        if needed is None or needed > incumbent.design.n_active:
            return False
        model = evaluator.tier_model(incumbent.design, spec.load)
        result = evaluator.engine.evaluate_tier(model)
        return result.annual_downtime <= spec.max_downtime

    # -- reporting -----------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The watcher's state document (see ``WATCH_STATUS_SCHEMA``)."""
        incumbent = None
        if self.incumbent is not None:
            design = self.incumbent.design
            incumbent = {
                "resource": design.resource,
                "n_active": design.n_active,
                "n_spare": design.n_spare,
                "annual_cost": self.incumbent.annual_cost,
            }
        return {
            "tier": self.spec.tier,
            "epoch": self.epoch,
            "polls": self.polls,
            "resumed": self.resumed,
            "spec": self.spec.to_dict(),
            "incumbent": incumbent,
            "reconfigurations": self.reconfigurations,
            "infeasible_epochs": self.infeasible_epochs,
            "warm_starts": self.warm_starts,
            "cold_searches": self.cold_searches,
            "ingest": self.ledger.snapshot(),
            "quarantined": len(self.quarantined),
            "drift": (self.last_report.to_dict()
                      if self.last_report is not None else None),
            "journal": {
                "enabled": self.journal is not None,
                "degraded": (self.journal.degraded
                             if self.journal is not None else False),
                "appends": (self.journal.appends
                            if self.journal is not None else 0),
            },
            "search": dict(self.last_search_stats),
            "degradations": self.log.counts(),
        }

    def decisions_digest(self) -> str:
        """Canonical JSON of every applied decision (soak comparisons)."""
        return json.dumps(self.decisions, sort_keys=True)


__all__ = ["WatchSpec", "Watcher", "DriftedEvaluator",
           "substitute_modes", "QUARANTINE_KEEP"]
