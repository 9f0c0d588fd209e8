"""Search checkpointing: snapshot progress, resume after a crash.

A :class:`SearchCheckpoint` captures the expensive state of a design
search -- the availability cache (structure key -> unavailability),
completed per-tier Pareto frontiers, and search counters -- as JSON on
disk.  A search that dies mid-run (engine fault, kill, power cut)
resumes by reloading the file: every structure evaluated before the
crash becomes a cache hit, and tiers whose frontiers completed are
skipped outright, so the resumed search reaches the same minimum-cost
design as an uninterrupted run without re-paying for solves.

The file is written atomically (temp file + fsync + ``os.replace``)
once ``interval`` newly recorded evaluations have accumulated (checked
after each recorded wavefront) and at every frontier completion, so a
crash never leaves a torn checkpoint.  Each save
holds a sidecar lock file (``<path>.lock``, pid-stamped) so two
writers can never interleave renames on the same path; a lock left
behind by a killed writer is detected (dead pid) and broken.  Both
disciplines live in :mod:`repro.fsio`, shared with the persistent
tier-evaluation store (:mod:`repro.cache`).

Autosaves are *best effort*: an unwritable disk (``ENOSPC``,
``EACCES``, a live competing writer) degrades the checkpoint -- the
failure is recorded as an ``AVD309`` diagnostic on :attr:`log` and the
search continues without persistence -- while an explicit
:meth:`save` still raises :class:`~repro.errors.CheckpointError`.

Wired in via ``TierSearch``/``JobSearch`` (``checkpoint=`` argument),
``Aved(checkpoint=...)``, and ``repro design --checkpoint PATH
[--resume]``.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from ..errors import AvedError, CheckpointError
from ..fsio import LockContention, acquire_lock, release_lock
from ..model import InfrastructureModel
from .events import CHECKPOINT_FAULT, DegradationLog

_VERSION = 1


def _acquire_lock(target: str) -> str:
    """Acquire the pid-stamped sidecar lock (see :mod:`repro.fsio`).

    A lock held by a *live* process raises :class:`CheckpointError`
    (single-writer assertion); stale locks are broken by the shared
    helper.
    """
    try:
        return acquire_lock(target)
    except LockContention as exc:
        raise CheckpointError("checkpoint %s" % exc) from exc.__cause__


_release_lock = release_lock


def _key_to_json(value: Any) -> Any:
    """Structure keys are nested tuples; JSON stores them as lists."""
    if isinstance(value, tuple):
        return [_key_to_json(item) for item in value]
    return value


def _key_from_json(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_key_from_json(item) for item in value)
    return value


class SearchCheckpoint:
    """Persistent snapshot of design-search progress.

    Create one with a ``path`` for a fresh checkpointed run, or load
    an existing file with :meth:`load` to resume.  Pass it to
    :class:`~repro.core.Aved` (or directly to a search); recording and
    reuse then happen automatically.
    """

    def __init__(self, path: Optional[str] = None, interval: int = 25):
        if interval < 1:
            raise CheckpointError("autosave interval must be >= 1")
        self.path = path
        self.interval = interval
        #: True when this checkpoint was loaded from disk.
        self.resumed = False
        #: Evaluations carried over from a previous run.
        self.resumed_evaluations = 0
        #: Degradations (failed autosaves) as AVD309-renderable events;
        #: drained into the run's report by ``Aved._degradation_report``.
        self.log = DegradationLog()
        #: Autosave attempts that failed with an OS-level error.
        self.save_failures = 0
        self._cache: Dict[tuple, float] = {}
        self._frontiers: Dict[str, Dict[str, Any]] = {}
        self._pending = 0
        #: After a failed autosave, wait until this many entries are
        #: pending before trying the disk again (backs off linearly).
        self._retry_at = 0

    # -- recording ------------------------------------------------------

    def record_evaluation(self, key: tuple, unavailability: float) \
            -> None:
        """Record one availability solve (a batch of one)."""
        self.record_batch(((key, unavailability),))

    def record_batch(self, pairs) -> None:
        """Record a wavefront's solves; autosaves at most once.

        Every newly recorded solve counts toward ``interval``.  The
        batch saves once, and only when ``interval`` unsaved solves
        have accumulated and the backoff after a failed save has
        passed -- so a crash loses at most ``interval`` solves plus
        the wavefront in flight, and a resumed run under *any*
        ``--jobs`` value replays the rest as cache hits.
        """
        for key, unavailability in pairs:
            if key in self._cache:
                continue
            self._cache[key] = unavailability
            self._pending += 1
        if self.path is not None and self._pending >= self.interval \
                and self._pending >= self._retry_at:
            self._autosave()

    def store_frontier(self, tier: str, load: float,
                       frontier: List[Any]) -> None:
        """Record a completed tier frontier (and save immediately)."""
        from ..core.serialize import evaluated_tier_design_to_dict
        self._frontiers[tier] = {
            "load": load,
            "frontier": [evaluated_tier_design_to_dict(candidate)
                         for candidate in frontier],
        }
        self._pending += 1
        if self.path is not None:
            self._autosave()

    # -- reuse ----------------------------------------------------------

    def seed_cache(self, cache: Dict[tuple, float]) -> int:
        """Copy recorded evaluations into a search's availability cache.

        Returns how many entries were contributed.
        """
        before = len(cache)
        cache.update(self._cache)
        return len(cache) - before

    def frontier_for(self, tier: str, load: float,
                     infrastructure: InfrastructureModel) \
            -> Optional[List[Any]]:
        """A previously completed frontier for ``tier`` at ``load``.

        Returns None when the checkpoint has no frontier for this tier
        or it was computed at a different load (stale -- ignored).
        """
        from ..core.serialize import evaluated_tier_design_from_dict
        entry = self._frontiers.get(tier)
        if entry is None or entry["load"] != load:
            return None
        try:
            return [evaluated_tier_design_from_dict(item,
                                                    infrastructure)
                    for item in entry["frontier"]]
        except AvedError as exc:
            raise CheckpointError(
                "checkpoint frontier for tier %r does not fit this "
                "infrastructure model: %s" % (tier, exc)) from exc

    @property
    def evaluations(self) -> int:
        """Recorded availability evaluations (including carried-over)."""
        return len(self._cache)

    @property
    def completed_tiers(self) -> Tuple[str, ...]:
        return tuple(sorted(self._frontiers))

    # -- persistence ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": _VERSION,
            "availability_cache": [
                [_key_to_json(key), value]
                for key, value in self._cache.items()],
            "tier_frontiers": self._frontiers,
        }

    def save(self, path: Optional[str] = None) -> str:
        """Atomically write the checkpoint; returns the path used.

        The temp file is fsynced before the rename (a crash right
        after :meth:`save` returns can never resurrect a stale or
        torn file), and the rename happens under the sidecar lock so
        concurrent writers to the same path fail loudly instead of
        interleaving.
        """
        target = path or self.path
        if target is None:
            raise CheckpointError("checkpoint has no path to save to")
        directory = os.path.dirname(os.path.abspath(target))
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise CheckpointError("cannot save checkpoint to %r: %s"
                                  % (target, exc)) from exc
        lock_path = _acquire_lock(target)
        try:
            handle = tempfile.NamedTemporaryFile(
                "w", dir=directory, prefix=".checkpoint-",
                suffix=".tmp", delete=False)
            try:
                with handle:
                    json.dump(self.to_dict(), handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(handle.name, target)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            raise CheckpointError("cannot save checkpoint to %r: %s"
                                  % (target, exc)) from exc
        finally:
            _release_lock(lock_path)
        self._pending = 0
        self._retry_at = 0
        return target

    def _autosave(self) -> None:
        """Best-effort save: disk faults degrade instead of aborting.

        ``ENOSPC``, ``EACCES``, a vanished directory, or a live
        competing writer must not kill a search that can finish
        without persistence: the failure becomes an ``AVD309`` event
        on :attr:`log`, recorded progress is kept pending, and the
        next attempt waits for another ``interval`` of new entries.
        """
        try:
            self.save()
        except CheckpointError as exc:
            if not isinstance(exc.__cause__, OSError):
                raise
            self.save_failures += 1
            self._retry_at = self._pending + self.interval
            self.log.add(
                CHECKPOINT_FAULT,
                detail="checkpoint autosave to %r failed (%s); search "
                       "continues without persistence (failure %d, %d "
                       "entr%s unsaved)"
                % (self.path, exc.__cause__, self.save_failures,
                   self._pending,
                   "y" if self._pending == 1 else "ies"))

    def drain_log(self) -> DegradationLog:
        """Hand over (and reset) the accumulated AVD309 events."""
        drained = self.log
        self.log = DegradationLog()
        return drained

    def flush(self) -> None:
        """Save any unsaved progress, best effort (no-op without a path).

        Like the periodic autosaves, a flush on a broken disk records
        an ``AVD309`` diagnostic instead of raising -- ``Aved`` calls
        this from the ``finally`` of every design run, where an
        exception would mask the search's own result.
        """
        if self.path is not None and self._pending > 0:
            self._autosave()

    @classmethod
    def load(cls, path: str, interval: int = 25) -> "SearchCheckpoint":
        """Load a checkpoint file for a resumed run.

        The loaded object keeps ``path``, so the resumed search
        continues to autosave to the same file.
        """
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise CheckpointError("cannot read checkpoint %r: %s"
                                  % (path, exc)) from exc
        except ValueError as exc:
            raise CheckpointError("checkpoint %r is not valid JSON: %s"
                                  % (path, exc)) from exc
        if not isinstance(data, dict) \
                or data.get("version") != _VERSION:
            raise CheckpointError(
                "checkpoint %r has unsupported version %r (expected %d)"
                % (path, data.get("version")
                   if isinstance(data, dict) else None, _VERSION))
        checkpoint = cls(path=path, interval=interval)
        try:
            for key, value in data.get("availability_cache", []):
                checkpoint._cache[_key_from_json(key)] = float(value)
            frontiers = data.get("tier_frontiers", {})
            if not isinstance(frontiers, dict):
                raise TypeError("tier_frontiers must be an object")
            checkpoint._frontiers = frontiers
        except (TypeError, ValueError) as exc:
            raise CheckpointError("checkpoint %r is malformed: %s"
                                  % (path, exc)) from exc
        checkpoint.resumed = True
        checkpoint.resumed_evaluations = len(checkpoint._cache)
        return checkpoint
