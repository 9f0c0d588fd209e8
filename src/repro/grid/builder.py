"""The sharded, fault-first requirement-space map builder.

:class:`GridBuilder` computes a :class:`~repro.core.RequirementSpaceMap`
the way ``build_requirement_map`` does -- one Pareto frontier per load
-- but partitioned into shards executed under per-shard leases, with
the same supervision ladder the parallel runtime applies to candidates
(:mod:`repro.parallel`), lifted one level up to grid shards:

* **suspicion**: a shard attempt that crashes or overruns its lease is
  a fault (``AVD901``); the lease is reassigned to a fresh attempt
  after a jittered backoff (:class:`~repro.resilience.RetrySchedule`).
* **isolation**: a shard that keeps faulting past its retry budget is
  isolated (``AVD902``): its cells are re-run one at a time, so blame
  lands on a cell instead of the whole shard.
* **conviction**: a cell that *alone* exhausts its own retries is
  convicted as poison (``AVD903``) and excluded from the map; its
  shard-mates' results are kept.  A transient storm can therefore
  never convict a healthy cell -- convictions require a cell to fail
  repeatedly in isolation.

Shard completion is journaled durably (:class:`~repro.grid.GridJournal`);
a killed build resumes with every finished shard's points reused
exactly once (``AVD904``), abandoned leases reclaimed (``AVD906``),
and journaled convictions honored.  Within a shard one
:class:`~repro.core.TierSearch` is reused across the shard's loads, so
adjacent cells warm-start from the searcher's availability cache the
same way ``build_requirement_map`` warms across its sweep; attach a
persistent tier-evaluation store (:mod:`repro.cache`) to the
evaluator's engine to extend that warmth across shards, restarts, and
independent builds.

The whole point is the convergence guarantee the chaos suite enforces:
any partition, any shard order, any seeded storm of crashes / hangs /
torn journal tails / kills produces a map whose canonical JSON
(:func:`repro.core.serialize.requirement_map_to_json`) is
byte-identical to the fault-free single-process build's.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.evaluation import DesignEvaluator
from ..core.families import family_of
from ..core.frontier import FrontierPoint, RequirementSpaceMap
from ..core.search import SearchLimits, TierSearch
from ..core.serialize import (MAP_FORMAT_VERSION,
                              frontier_point_from_dict,
                              frontier_point_to_dict)
from ..errors import AvedError, GridError
from ..fsio import pid_alive
from ..resilience.events import (GRID_CELL_CONVICTED,
                                 GRID_LEASE_RECLAIMED, GRID_RESUMED,
                                 GRID_SHARD_FAULT, GRID_SHARD_ISOLATED,
                                 DegradationLog)
from ..resilience.policy import (POOL_BACKOFF, BackoffPolicy,
                                 RetrySchedule)
from .faults import GridBuildInterrupted, GridFaultPlan, InjectedFault
from .journal import GridJournal, lease_abandoned, loads_key
from .spec import GridShard, GridSpec


@dataclass(frozen=True)
class GridPolicy:
    """Supervision knobs for one grid build.

    ``lease_seconds`` is the wall-clock budget of one shard attempt --
    cooperative, like every timeout in this codebase: overruns are
    detected between cells and after the fact, never by preemption.
    ``shard_retries`` whole-shard faults are retried before the shard
    is isolated; in isolation, each cell gets ``cell_retries`` retries
    before conviction.  ``backoff`` supplies the shared
    jittered-exponential curve (:data:`~repro.resilience.POOL_BACKOFF`
    by default -- the same schedule pool restarts use).
    """

    lease_seconds: float = 300.0
    shard_retries: int = 2
    cell_retries: int = 2
    backoff: BackoffPolicy = POOL_BACKOFF
    seed: int = 1

    def __post_init__(self) -> None:
        if self.lease_seconds <= 0:
            raise GridError("lease_seconds must be positive")
        if self.shard_retries < 0:
            raise GridError("shard_retries cannot be negative")
        if self.cell_retries < 0:
            raise GridError("cell_retries cannot be negative")


class GridBuilder:
    """Builds one requirement-space map, shard by shard, under faults."""

    def __init__(self, evaluator: DesignEvaluator, spec: GridSpec,
                 limits: Optional[SearchLimits] = None,
                 journal_path: Optional[str] = None,
                 policy: Optional[GridPolicy] = None,
                 fault_plan: Optional[GridFaultPlan] = None,
                 log: Optional[DegradationLog] = None,
                 clock: Callable[[], float] = time.time,
                 sleep: Callable[[float], None] = time.sleep):
        self.evaluator = evaluator
        self.spec = spec
        self.limits = limits
        self.policy = policy if policy is not None else GridPolicy()
        self.fault_plan = fault_plan
        self.log = log if log is not None else DegradationLog()
        self.clock = clock
        self.journal = (GridJournal(journal_path, spec.key(), self.log)
                        if journal_path else None)
        self._schedule = RetrySchedule(self.policy.backoff,
                                       seed=self.policy.seed,
                                       sleep=sleep)
        #: Convicted cells: load -> reason (journaled + this run's).
        self.convicted: Dict[float, str] = {}
        self._abandoned: Dict[str, Dict[str, Any]] = {}
        self.counters: Dict[str, int] = {
            "shards_total": 0, "shards_done": 0, "shards_reused": 0,
            "shard_faults": 0, "shards_isolated": 0,
            "leases_reclaimed": 0,
        }
        self.resumed = False

    # -- the build -----------------------------------------------------

    def build(self) -> RequirementSpaceMap:
        """Compute (or resume) the map; convictions excluded honestly.

        Raises :class:`GridBuildInterrupted` when a fault plan kills
        the build mid-way -- call :meth:`build` again to resume from
        the journal, exactly as an operator restarting the process
        would.
        """
        shards = self.spec.shards()
        self.counters["shards_total"] = len(shards)
        done = self._replay()
        points: List[FrontierPoint] = []
        for shard in shards:
            key = loads_key(shard.loads)
            reused = done.get(key)
            if reused is not None:
                points.extend(reused)
                self.counters["shards_reused"] += 1
                self.counters["shards_done"] += 1
                continue
            points.extend(self._build_shard(shard))
            self.counters["shards_done"] += 1
            if self.fault_plan is not None \
                    and self.fault_plan.shard_completed():
                raise GridBuildInterrupted(
                    "injected kill after %d shard(s)"
                    % self.counters["shards_done"])
        return RequirementSpaceMap(self.spec.tier, self.spec.loads,
                                   tuple(points))

    def _replay(self) -> Dict[str, List[FrontierPoint]]:
        """Journal replay: reusable shard points + lease bookkeeping."""
        if self.journal is None:
            return {}
        state = GridJournal.replay(self.journal.path,
                                   self.journal.grid_key)
        self.convicted.update(state.convicted)
        self._abandoned = state.abandoned
        done: Dict[str, List[FrontierPoint]] = {}
        infrastructure = self.evaluator.infrastructure
        wanted = {loads_key(shard.loads)
                  for shard in self.spec.shards()}
        for key, payload in state.done.items():
            if key not in wanted:
                continue   # re-sharded since; rebuild what moved
            try:
                done[key] = [frontier_point_from_dict(item,
                                                      infrastructure)
                             for item in payload]
            except AvedError:
                # A journaled shard that no longer deserializes is
                # treated as unbuilt, never trusted blindly.
                continue
        if done or state.convicted:
            self.resumed = True
            self.log.add(GRID_RESUMED, tier=self.spec.tier,
                         detail="journal replayed: %d finished "
                                "shard(s) reused, %d conviction(s) "
                                "honored, %d torn/corrupt line(s) "
                                "skipped"
                         % (len(done), len(state.convicted),
                            state.skipped))
        return done

    # -- one shard through the ladder ----------------------------------

    def _build_shard(self, shard: GridShard) -> List[FrontierPoint]:
        attempt = self._first_attempt(shard)
        faults = 0
        while True:
            self._lease(shard, attempt)
            started = self.clock()
            try:
                points = self._run_shard_once(shard, attempt, started)
            except GridBuildInterrupted:
                raise
            except Exception as exc:   # noqa: BLE001 - ladder input
                faults += 1
                self.counters["shard_faults"] += 1
                self.log.add(GRID_SHARD_FAULT, tier=shard.tier,
                             detail="%s: %s; lease reassigned"
                             % (type(exc).__name__, exc),
                             attempt=attempt)
                if faults > self.policy.shard_retries:
                    return self._isolate(shard, attempt)
                self._schedule.pause(faults)
                attempt += 1
                continue
            self._finish(shard, points)
            return points

    def _first_attempt(self, shard: GridShard) -> int:
        """Resume attempt numbering past an abandoned journaled lease.

        Keeping the attempt counter monotonic across restarts is what
        lets a deterministic fault plan's storm die out instead of
        replaying the same fault forever.
        """
        record = self._abandoned.get(loads_key(shard.loads))
        if record is None:
            return 1
        abandoned, why = lease_abandoned(record, self.clock(),
                                         pid_alive)
        if not abandoned:
            raise GridError("%s is still leased: %s"
                            % (shard.describe(), why))
        self.counters["leases_reclaimed"] += 1
        self.log.add(GRID_LEASE_RECLAIMED, tier=shard.tier,
                     detail="%s: %s" % (shard.describe(), why))
        try:
            return int(record.get("attempt", 0)) + 1
        except (TypeError, ValueError):
            return 1

    def _lease(self, shard: GridShard, attempt: int) -> None:
        if self.journal is not None:
            self.journal.shard_start(shard.shard_id, shard.loads,
                                     attempt, os.getpid(),
                                     self.policy.lease_seconds,
                                     self.clock())

    def _finish(self, shard: GridShard,
                points: List[FrontierPoint]) -> None:
        if self.journal is not None:
            self.journal.shard_done(
                shard.shard_id, shard.loads,
                [frontier_point_to_dict(point) for point in points])

    def _run_shard_once(self, shard: GridShard, attempt: int,
                        started: float) -> List[FrontierPoint]:
        """All of a shard's cells under one lease and one TierSearch."""
        if self.fault_plan is not None:
            kind = self.fault_plan.shard_fault(shard.shard_id, attempt)
            if kind == "crash":
                raise InjectedFault("crash", "injected worker crash in "
                                    + shard.describe())
            if kind == "hang":
                raise InjectedFault("hang", "%s hung past its %.0fs "
                                    "lease" % (shard.describe(),
                                               self.policy
                                               .lease_seconds))
            if kind == "torn-kill":
                if self.journal is not None:
                    self.journal.tear_tail()
                raise GridBuildInterrupted(
                    "injected kill mid-append in " + shard.describe())
        search = TierSearch(self.evaluator, self.limits)
        points: List[FrontierPoint] = []
        for load in shard.loads:
            if load in self.convicted:
                continue
            points.extend(self._build_cell(search, shard, load))
            elapsed = self.clock() - started
            if elapsed > self.policy.lease_seconds:
                raise InjectedFault(
                    "hang", "%s overran its %.0fs lease (%.1fs "
                    "elapsed)" % (shard.describe(),
                                  self.policy.lease_seconds, elapsed))
        return points

    def _build_cell(self, search: TierSearch, shard: GridShard,
                    load: float) -> List[FrontierPoint]:
        """One grid cell: the load's Pareto frontier, as map points."""
        if self.fault_plan is not None:
            reason = self.fault_plan.cell_fault(load)
            if reason is not None:
                raise InjectedFault("crash", reason)
        frontier = search.tier_frontier(shard.tier, load)
        option_for = self.evaluator.service.tier(shard.tier).option_for
        points = []
        for candidate in frontier:
            n_min = option_for(candidate.design.resource) \
                .min_active_for(load)
            points.append(FrontierPoint(
                load=load, n_min=n_min,
                family=family_of(candidate.design, n_min),
                downtime_minutes=candidate.downtime_minutes,
                annual_cost=candidate.annual_cost,
                design=candidate))
        return points

    def _isolate(self, shard: GridShard,
                 attempt: int) -> List[FrontierPoint]:
        """The isolation rung: cells re-run one at a time.

        Only a cell that keeps failing *alone* is convicted; its
        shard-mates' results survive the shard's bad reputation.
        """
        self.counters["shards_isolated"] += 1
        self.log.add(GRID_SHARD_ISOLATED, tier=shard.tier,
                     detail="%s exhausted %d shard retries; re-running "
                            "its %d cell(s) individually"
                     % (shard.describe(), self.policy.shard_retries,
                        len(shard.loads)),
                     attempt=attempt)
        points: List[FrontierPoint] = []
        for load in shard.loads:
            if load in self.convicted:
                continue
            faults = 0
            while True:
                search = TierSearch(self.evaluator, self.limits)
                try:
                    points.extend(self._build_cell(search, shard, load))
                    break
                except GridBuildInterrupted:
                    raise
                except Exception as exc:   # noqa: BLE001 - ladder
                    faults += 1
                    if faults > self.policy.cell_retries:
                        self._convict(shard, load,
                                      "%s: %s" % (type(exc).__name__,
                                                  exc), faults)
                        break
                    self._schedule.pause(faults)
        self._finish(shard, points)
        return points

    def _convict(self, shard: GridShard, load: float, reason: str,
                 attempts: int) -> None:
        self.convicted[load] = reason
        self.log.add(GRID_CELL_CONVICTED, tier=shard.tier,
                     detail="grid cell at load %g convicted after %d "
                            "isolated fault(s): %s"
                     % (load, attempts, reason),
                     attempt=attempts)
        if self.journal is not None:
            self.journal.cell_convicted(load, reason)

    # -- status --------------------------------------------------------

    def status(self,
               built_loads: Optional[int] = None) -> Dict[str, Any]:
        """The build's MAP_STATUS_SCHEMA document."""
        total = len(self.spec.loads)
        if built_loads is None:
            done_shards = self.counters["shards_done"]
            built = 0
            for index, shard in enumerate(self.spec.shards()):
                if index < done_shards:
                    built += sum(1 for load in shard.loads
                                 if load not in self.convicted)
            built_loads = built
        state = "complete" if built_loads >= total else (
            "partial" if built_loads else "building")
        journal = (self.journal.status() if self.journal is not None
                   else {"enabled": False, "degraded": False,
                         "appends": 0})
        return {
            "tier": self.spec.tier,
            "state": state,
            "coverage": (built_loads / total) if total else 0.0,
            "loads_total": total,
            "loads_built": built_loads,
            "shards": {
                "total": self.counters["shards_total"],
                "done": self.counters["shards_done"],
                "pending": max(0, self.counters["shards_total"]
                               - self.counters["shards_done"]),
                "reused": self.counters["shards_reused"],
                "faults": self.counters["shard_faults"],
                "isolated": self.counters["shards_isolated"],
                "reclaimed_leases": self.counters["leases_reclaimed"],
            },
            "convicted_cells": [
                {"load": load, "reason": reason}
                for load, reason in sorted(self.convicted.items())],
            "journal": journal,
            "resumed": self.resumed,
            "format_version": MAP_FORMAT_VERSION,
            "degradations": self.log.counts(),
        }


__all__ = ["GridPolicy", "GridBuilder"]
