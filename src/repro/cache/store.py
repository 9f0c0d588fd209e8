"""The persistent, content-addressed tier-evaluation store.

A :class:`TierEvaluationStore` maps ``(engine id, canonical model
key)`` to a serialized :class:`~repro.availability.TierResult`.  Keys
come from :mod:`repro.lint.canonical` (byte-stable across processes
and ``PYTHONHASHSEED``), so any process that generates the same
availability model -- a later CLI run, a ``repro serve`` worker, a
parallel search worker -- addresses the same entry.

Layout (under ``root``)::

    meta.json                   store format + canonical version
    objects/<kk>/<key>.json     one entry per solve (kk = key[:2])
    quarantine/<key>.json       entries that failed validation
    QUARANTINED                 store-level marker (verify mismatch)

Durability and integrity discipline:

* every entry is written via temp file + fsync + ``os.replace`` under
  a pid-stamped sidecar lock (:mod:`repro.fsio`), so concurrent
  writers never interleave and a ``kill -9`` at any instant leaves
  either no entry or a complete one;
* reads are lock-free and **zero-trust**: an entry is a SHA-256 digest
  header line over the raw body bytes that follow it, and every read
  re-derives the digest before believing a single field -- torn,
  truncated, bit-flipped, or stale-version entries are detected, moved
  to ``quarantine/``, and reported as a miss (``AVD601`` / ``AVD605``),
  never served;
* writes are best effort: ``ENOSPC``/``EACCES``/contention degrade the
  store (``AVD602``; after ``fail_limit`` storage faults the store
  turns itself off with ``AVD603``) instead of failing the search;
* the store is bounded: beyond ``max_entries`` on disk the oldest
  entries are evicted, and the startup scrub removes crash residue
  (orphaned temp files, stale locks).

An in-memory LRU tier fronts the disk.  Cache hits rebuild a *fresh*
:class:`~repro.availability.TierResult` per call (never aliasing a
previously returned object), so downstream mutation of a returned
result cannot retroactively poison cached state.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import random
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..availability import (ModeResult, TierAvailabilityModel, TierResult)
from ..errors import CacheError
from ..fsio import (LockContention, acquire_lock, atomic_write_bytes,
                    release_lock)
from ..lint.canonical import CANONICAL_VERSION, canonical_json, canonical_key
from ..resilience.events import (CACHE_CORRUPT, CACHE_DISABLED, CACHE_STALE,
                                 CACHE_VERIFY_MISMATCH, CACHE_WRITE_FAILED,
                                 DegradationLog)

#: On-disk entry format; bump on any layout change so old stores can
#: never alias new readers.
STORE_FORMAT = 1

#: Storage faults (failed writes/evictions) after which the store
#: turns itself off for the rest of the process (AVD603).
DEFAULT_FAIL_LIMIT = 5

#: Corrupt-entry detections after which the store turns itself off --
#: a corruption *storm* means the medium cannot be trusted at all.
DEFAULT_CORRUPT_LIMIT = 16

_QUARANTINE_MARKER = "QUARANTINED"
_COUNTER_NAMES = ("hits", "misses", "writes", "write_failures", "corrupt",
                  "stale", "evicted", "verify_checked", "verify_mismatch")


# ----------------------------------------------------------------------
# TierResult <-> plain-data payload (exact float round-trip: json floats
# serialize via repr, the shortest round-tripping decimal form)
# ----------------------------------------------------------------------

def tier_result_to_payload(result: TierResult) -> Dict[str, Any]:
    """Serialize a tier result to the store's payload form.

    Provenance the engine attached -- e.g. the Markov solver noting a
    dense solve that degraded to least squares, a function of the
    model alone -- is persisted, so a warm hit reproduces the cold
    result exactly, degradation notes included.
    """
    payload = {
        "name": result.name,
        "unavailability": result.unavailability,
        "modes": [
            {"mode": mode.mode,
             "unavailability": mode.unavailability,
             "failures_per_year": mode.failures_per_year,
             "used_failover": mode.used_failover}
            for mode in result.mode_results],
    }
    if result.provenance is not None:
        payload["provenance"] = {
            "engine": result.provenance.engine,
            "attempts": result.provenance.attempts,
            "fallback_from": list(result.provenance.fallback_from),
            "cause": result.provenance.cause,
        }
    return payload


def tier_result_from_payload(payload: Dict[str, Any]) -> TierResult:
    """Rebuild a tier result; raises on any shape/value problem."""
    modes = tuple(
        ModeResult(mode=str(entry["mode"]),
                   unavailability=float(entry["unavailability"]),
                   failures_per_year=float(entry["failures_per_year"]),
                   used_failover=bool(entry["used_failover"]))
        for entry in payload["modes"])
    provenance = None
    stored = payload.get("provenance")
    if stored is not None:
        from ..availability.model import EngineProvenance
        provenance = EngineProvenance(
            engine=str(stored["engine"]),
            attempts=int(stored["attempts"]),
            fallback_from=tuple(str(name)
                                for name in stored["fallback_from"]),
            cause=str(stored["cause"]))
    return TierResult(name=str(payload["name"]),
                      unavailability=float(payload["unavailability"]),
                      mode_results=modes, provenance=provenance)


def entry_key(engine_id: str, model_key: str) -> str:
    """Content address of one (engine, model) evaluation."""
    text = canonical_json({"v": CANONICAL_VERSION, "engine": engine_id,
                           "model": model_key})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _encode_entry(engine_id: str, model_key: str,
                  payload: Dict[str, Any],
                  version: int = CANONICAL_VERSION) -> bytes:
    body = {"format": STORE_FORMAT, "v": version, "engine": engine_id,
            "model": model_key, "payload": payload}
    body_bytes = canonical_json(body).encode("utf-8")
    digest = hashlib.sha256(body_bytes).hexdigest()
    return digest.encode("ascii") + b"\n" + body_bytes


def _decode_entry(data: bytes, engine_id: str,
                  model_key: str) -> Tuple[Optional[Dict[str, Any]], str]:
    """Validate entry bytes; returns ``(payload, reason)``.

    ``payload`` is None when the entry must not be trusted; ``reason``
    is ``""`` (valid), ``"stale"`` (old canonical version, checksum
    fine), or a corruption description.  Validation order matters: the
    checksum covers the *raw stored body bytes* and is checked before
    any field is believed -- so every single-byte change to the file is
    detected (a checksum over a parse/re-serialize round trip would let
    semantically-neutral flips, e.g. in a float's last repr digit, slip
    through), and a flipped byte can never re-route an entry to a
    different key or version.
    """
    header, sep, body_bytes = data.partition(b"\n")
    if not sep or len(header) != 64:
        return None, "missing or malformed digest header"
    expected = hashlib.sha256(body_bytes).hexdigest().encode("ascii")
    if header != expected:
        return None, "checksum mismatch (payload corrupted)"
    try:
        body = json.loads(body_bytes.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        return None, "undecodable entry: %s" % exc
    if not isinstance(body, dict):
        return None, "entry body is not an object"
    if body.get("format") != STORE_FORMAT:
        return None, "unsupported entry format %r" % body.get("format")
    if body.get("v") != CANONICAL_VERSION:
        return None, "stale"
    if body.get("engine") != engine_id or body.get("model") != model_key:
        return None, "entry keyed for a different evaluation"
    payload = body.get("payload")
    if not isinstance(payload, dict):
        return None, "entry payload is not an object"
    return payload, ""


class TierEvaluationStore:
    """Crash-safe shared cache of tier availability solves.

    Thread-safe (the serving daemon shares one store across worker
    threads) and multi-process-safe (parallel search workers and
    repeated CLI runs share the directory).  Picklable: a copy sent to
    a pool worker reopens the same directory with fresh in-memory
    state and no startup scrub.
    """

    def __init__(self, root: str,
                 max_entries: int = 100_000,
                 memory_entries: int = 4096,
                 fail_limit: int = DEFAULT_FAIL_LIMIT,
                 corrupt_limit: int = DEFAULT_CORRUPT_LIMIT,
                 durable: bool = True,
                 scrub: bool = True,
                 verify_sample: int = 0,
                 verify_seed: int = 1,
                 fault_plan=None):
        if max_entries < 1:
            raise CacheError("max_entries must be >= 1")
        if memory_entries < 0:
            raise CacheError("memory_entries cannot be negative")
        if fail_limit < 1 or corrupt_limit < 1:
            raise CacheError("fault limits must be >= 1")
        self.root = root
        self.max_entries = max_entries
        self.memory_entries = memory_entries
        self.fail_limit = fail_limit
        self.corrupt_limit = corrupt_limit
        self.durable = durable
        self.verify_sample = verify_sample
        self.verify_seed = verify_seed
        self.fault_plan = fault_plan
        self.enabled = True
        self.log = DegradationLog()
        self.counters: Dict[str, int] = {name: 0
                                         for name in _COUNTER_NAMES}
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._storage_faults = 0
        self._write_ops = 0
        self._entry_count = 0
        self._samples: List[Tuple[str, TierAvailabilityModel,
                                  Dict[str, Any]]] = []
        self._sample_seen = 0
        self._sample_rng = random.Random(verify_seed)
        self._open(scrub=scrub)

    # -- filesystem layout ---------------------------------------------

    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    @property
    def meta_path(self) -> str:
        return os.path.join(self.root, "meta.json")

    @property
    def marker_path(self) -> str:
        return os.path.join(self.root, _QUARANTINE_MARKER)

    def entry_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], "%s.json" % key)

    # -- open / scrub ---------------------------------------------------

    def _open(self, scrub: bool) -> None:
        try:
            os.makedirs(self.objects_dir, exist_ok=True)
            os.makedirs(self.quarantine_dir, exist_ok=True)
        except OSError as exc:
            raise CacheError("cannot open cache at %r: %s"
                             % (self.root, exc)) from exc
        if os.path.exists(self.marker_path):
            self.enabled = False
            self.log.add(CACHE_VERIFY_MISMATCH,
                         detail="store %r is quarantined by an earlier "
                                "verification mismatch; caching is off "
                                "(purge to reuse the directory)"
                         % self.root)
            return
        meta = self._read_meta()
        if meta is None:
            self._write_meta()
        elif (meta.get("format") != STORE_FORMAT
              or meta.get("canonical_version") != CANONICAL_VERSION):
            # A store written by an incompatible version: never trust
            # or touch its entries, just run cache-off.
            self.enabled = False
            self.log.add(CACHE_STALE,
                         detail="store %r has format %r / canonical "
                                "version %r (need %d/%d); caching is off"
                         % (self.root, meta.get("format"),
                            meta.get("canonical_version"), STORE_FORMAT,
                            CANONICAL_VERSION))
            return
        if scrub:
            self.scrub()
        else:
            self._entry_count = self._count_entries()

    def _read_meta(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.meta_path) as handle:
                meta = json.load(handle)
        except OSError:
            return None
        except ValueError:
            return {}
        return meta if isinstance(meta, dict) else {}

    def _write_meta(self) -> None:
        data = canonical_json({"format": STORE_FORMAT,
                               "canonical_version": CANONICAL_VERSION
                               }).encode("utf-8")
        try:
            atomic_write_bytes(self.meta_path, data, durable=self.durable)
        except OSError as exc:
            self._storage_fault("cannot write store metadata: %s" % exc)

    def _count_entries(self) -> int:
        count = 0
        for _, _, names in os.walk(self.objects_dir):
            count += sum(1 for name in names if name.endswith(".json"))
        return count

    def scrub(self) -> Dict[str, int]:
        """Startup compaction: drop crash residue, enforce the bound.

        Removes orphaned temp files and stale sidecar locks left by
        killed writers, deletes entries that are not even JSON-shaped
        names, and evicts the oldest entries beyond ``max_entries``.
        Full checksum validation is deliberately *not* done here (it
        is O(store) -- that is :meth:`verify_all`); a bad entry left
        behind is still caught by the zero-trust read path.
        """
        removed_tmp = 0
        removed_locks = 0
        entries: List[Tuple[float, str]] = []
        for directory, _, names in os.walk(self.objects_dir):
            for name in names:
                path = os.path.join(directory, name)
                if name.endswith(".tmp"):
                    removed_tmp += self._unlink(path)
                elif name.endswith(".lock"):
                    # A *live* writer's lock must survive the scrub.
                    from ..fsio import lock_holder, pid_alive
                    holder = lock_holder(path)
                    if holder is None or not pid_alive(holder):
                        removed_locks += self._unlink(path)
                elif name.endswith(".json"):
                    try:
                        entries.append((os.path.getmtime(path), path))
                    except OSError:
                        pass
        evicted = 0
        if len(entries) > self.max_entries:
            entries.sort()
            for _, path in entries[:len(entries) - self.max_entries]:
                evicted += self._unlink(path)
        with self._lock:
            self._entry_count = len(entries) - evicted
            self.counters["evicted"] += evicted
        return {"removed_tmp": removed_tmp,
                "removed_locks": removed_locks, "evicted": evicted,
                "entries": self._entry_count}

    @staticmethod
    def _unlink(path: str) -> int:
        try:
            os.unlink(path)
        except OSError:
            return 0
        return 1

    # -- lookups --------------------------------------------------------

    def get(self, engine_id: str,
            model: TierAvailabilityModel) -> Optional[TierResult]:
        """The cached result for ``model`` under ``engine_id``, or None.

        Counts a hit or a miss; every disk hit is checksum-verified
        and a failed verification quarantines the entry and reports a
        miss.
        """
        if not self.enabled:
            return None
        model_key = canonical_key(model)
        key = entry_key(engine_id, model_key)
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                self.counters["hits"] += 1
        if payload is not None:
            self._record_sample(engine_id, model, payload)
            self._obs_inc("cache.hits")
            return tier_result_from_payload(payload)
        payload = self._disk_get(key, engine_id, model_key)
        if payload is None:
            with self._lock:
                self.counters["misses"] += 1
            self._obs_inc("cache.misses")
            return None
        with self._lock:
            self.counters["hits"] += 1
            self._memory_put(key, payload)
        self._record_sample(engine_id, model, payload)
        self._obs_inc("cache.hits")
        return tier_result_from_payload(payload)

    def _disk_get(self, key: str, engine_id: str,
                  model_key: str) -> Optional[Dict[str, Any]]:
        path = self.entry_path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        payload, reason = _decode_entry(data, engine_id, model_key)
        if payload is not None:
            try:
                tier_result_from_payload(payload)
            except Exception as exc:
                payload, reason = None, "invalid payload: %s" % exc
        if payload is not None:
            return payload
        if reason == "stale":
            with self._lock:
                self.counters["stale"] += 1
            self.log.add(CACHE_STALE,
                         detail="ignored stale-version entry %s"
                         % key[:12])
            self._obs_inc("cache.stale")
            self._quarantine_entry(path, key)
            return None
        with self._lock:
            self.counters["corrupt"] += 1
            corrupt = self.counters["corrupt"]
        self.log.add(CACHE_CORRUPT,
                     detail="quarantined entry %s: %s" % (key[:12], reason))
        self._obs_inc("cache.corrupt")
        self._quarantine_entry(path, key)
        if corrupt >= self.corrupt_limit and self.enabled:
            self._disable("corruption storm: %d corrupt entries detected"
                          % corrupt)
        return None

    def _quarantine_entry(self, path: str, key: str) -> None:
        destination = os.path.join(self.quarantine_dir, "%s.json" % key)
        try:
            os.replace(path, destination)
        except OSError:
            self._unlink(path)
        with self._lock:
            self._entry_count = max(0, self._entry_count - 1)

    # -- writes ---------------------------------------------------------

    def put(self, engine_id: str, model: TierAvailabilityModel,
            result: TierResult) -> bool:
        """Persist one solve; returns True when the entry hit the disk.

        Best effort by contract: storage faults degrade (``AVD602``,
        eventually ``AVD603``) and live-writer contention on the same
        entry is silently skipped -- the store is content-addressed,
        so the competing writer is persisting identical bytes.
        """
        if not self.enabled:
            return False
        model_key = canonical_key(model)
        key = entry_key(engine_id, model_key)
        payload = tier_result_to_payload(result)
        with self._lock:
            self._memory_put(key, payload)
            self._write_ops += 1
            op = self._write_ops
        data = _encode_entry(engine_id, model_key, payload)
        action = (self.fault_plan.decide(op)
                  if self.fault_plan is not None else None)
        if action is not None:
            data = self._apply_fault(action, op, engine_id, model_key,
                                     payload, data)
            if data is None:
                return False
        path = self.entry_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            lock = acquire_lock(path)
        except LockContention:
            return False          # a live peer is writing the same bytes
        except OSError as exc:
            self._storage_fault("cannot write entry %s: %s"
                                % (key[:12], exc))
            return False
        try:
            atomic_write_bytes(path, data, durable=self.durable,
                               prefix=".cache-")
        except OSError as exc:
            self._storage_fault("cannot write entry %s: %s"
                                % (key[:12], exc))
            return False
        finally:
            release_lock(lock)
        with self._lock:
            self.counters["writes"] += 1
            self._entry_count += 1
            over = self._entry_count - self.max_entries
        self._obs_inc("cache.writes")
        if over > 0:
            self._evict(over)
        return True

    def _apply_fault(self, action: str, op: int, engine_id: str,
                     model_key: str, payload: Dict[str, Any],
                     data: bytes) -> Optional[bytes]:
        """Mutate (or abort) one write per the injected fault."""
        from .faults import CacheKilled
        if action == "enospc":
            self._storage_fault("cannot write entry: [Errno %d] injected "
                                "ENOSPC" % errno.ENOSPC)
            return None
        if action == "torn":
            return data[:max(1, len(data) // 2)]
        if action == "flip":
            position = random.Random(hash((op, "flip"))).randrange(
                len(data))
            return data[:position] + bytes([data[position] ^ 0x20]) \
                + data[position + 1:]
        if action == "stale":
            return _encode_entry(engine_id, model_key, payload,
                                 version=CANONICAL_VERSION - 1)
        if action == "kill":
            # Simulate a writer killed between temp-write and rename:
            # leak a temp file, never touch the entry, die.
            tmp = os.path.join(self.objects_dir,
                               ".cache-killed-%d.tmp" % op)
            try:
                with open(tmp, "wb") as handle:
                    handle.write(data[:max(1, len(data) // 3)])
            except OSError:
                pass
            raise CacheKilled("injected mid-write kill (op %d)" % op)
        return data

    def _evict(self, over: int) -> None:
        """Remove the ``over`` oldest entries (best effort)."""
        entries: List[Tuple[float, str]] = []
        for directory, _, names in os.walk(self.objects_dir):
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                try:
                    entries.append((os.path.getmtime(path), path))
                except OSError:
                    pass
        entries.sort()
        evicted = 0
        for _, path in entries[:over]:
            evicted += self._unlink(path)
        with self._lock:
            self.counters["evicted"] += evicted
            self._entry_count = len(entries) - evicted
        if evicted:
            self._obs_inc("cache.evicted", evicted)

    def _memory_put(self, key: str, payload: Dict[str, Any]) -> None:
        """LRU insert; caller holds the lock."""
        if self.memory_entries <= 0:
            return
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # -- degradation ladder ---------------------------------------------

    def _storage_fault(self, detail: str) -> None:
        with self._lock:
            self.counters["write_failures"] += 1
            self._storage_faults += 1
            faults = self._storage_faults
        self.log.add(CACHE_WRITE_FAILED, detail=detail)
        self._obs_inc("cache.write_failures")
        if faults >= self.fail_limit and self.enabled:
            self._disable("%d storage faults (limit %d); last: %s"
                          % (faults, self.fail_limit, detail))

    def _disable(self, reason: str) -> None:
        self.enabled = False
        self.log.add(CACHE_DISABLED,
                     detail="cache degraded to off: %s" % reason)
        self._obs_inc("cache.disabled")

    def quarantine_store(self, reason: str) -> None:
        """Marker-quarantine the whole store (verification mismatch).

        The store stops serving immediately and every later open of
        the directory refuses to serve until :meth:`purge` wipes it.
        """
        self.enabled = False
        with self._lock:
            self.counters["verify_mismatch"] += 1
        self.log.add(CACHE_VERIFY_MISMATCH,
                     detail="store quarantined: %s" % reason)
        self._obs_inc("cache.verify_mismatch")
        try:
            atomic_write_bytes(self.marker_path,
                               (reason + "\n").encode("utf-8"),
                               durable=self.durable)
        except OSError:
            pass                  # marker is advisory; enabled=False holds

    # -- verification sampling ------------------------------------------

    def _record_sample(self, engine_id: str,
                       model: TierAvailabilityModel,
                       payload: Dict[str, Any]) -> None:
        """Seeded reservoir sample of hits for ``--cache-verify``."""
        if self.verify_sample <= 0:
            return
        with self._lock:
            self._sample_seen += 1
            if len(self._samples) < self.verify_sample:
                self._samples.append((engine_id, model, payload))
                return
            slot = self._sample_rng.randrange(self._sample_seen)
            if slot < self.verify_sample:
                self._samples[slot] = (engine_id, model, payload)

    def verify_samples(self) -> List[Tuple[str, TierAvailabilityModel,
                                           Dict[str, Any]]]:
        """Drain the sampled hits collected for paranoid verification."""
        with self._lock:
            samples, self._samples = self._samples, []
            self._sample_seen = 0
        return samples

    # -- maintenance / reporting -----------------------------------------

    def verify_all(self) -> Dict[str, int]:
        """Full integrity scan: validate every entry's checksum.

        Corrupt and stale entries are quarantined exactly as the read
        path would.  The entry's own recorded engine/model identity is
        used as the expectation, so this checks *integrity* (bytes
        match the checksum, versions current), not *correctness*
        against a live engine -- that is ``--cache-verify``.
        """
        checked = ok = corrupt = stale = 0
        for directory, _, names in os.walk(self.objects_dir):
            for name in sorted(names):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                key = name[:-len(".json")]
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                except OSError:
                    continue
                checked += 1
                claimed = self._claimed_identity(data)
                payload, reason = _decode_entry(data, claimed[0],
                                                claimed[1])
                if payload is not None:
                    try:
                        tier_result_from_payload(payload)
                        ok += 1
                        continue
                    except Exception as exc:
                        reason = "invalid payload: %s" % exc
                if reason == "stale":
                    stale += 1
                    with self._lock:
                        self.counters["stale"] += 1
                    self.log.add(CACHE_STALE,
                                 detail="ignored stale-version entry %s"
                                 % key[:12])
                else:
                    corrupt += 1
                    with self._lock:
                        self.counters["corrupt"] += 1
                    self.log.add(CACHE_CORRUPT,
                                 detail="quarantined entry %s: %s"
                                 % (key[:12], reason))
                self._quarantine_entry(path, key)
        with self._lock:
            self.counters["verify_checked"] += checked
        return {"checked": checked, "ok": ok, "corrupt": corrupt,
                "stale": stale}

    @staticmethod
    def _claimed_identity(data: bytes) -> Tuple[str, str]:
        """The engine/model identity an entry claims for itself."""
        try:
            _, _, body_bytes = data.partition(b"\n")
            body = json.loads(body_bytes.decode("utf-8"))
            return (str(body.get("engine")), str(body.get("model")))
        except Exception:
            return ("", "")

    def purge(self) -> int:
        """Delete every entry, quarantined entry, and the marker.

        Returns how many entry files were removed.  The purged store
        is re-enabled (a quarantine marker does not survive a purge --
        purging is the documented way to reuse the directory).
        """
        removed = 0
        for base in (self.objects_dir, self.quarantine_dir):
            for directory, _, names in os.walk(base):
                for name in names:
                    removed += self._unlink(os.path.join(directory, name))
        self._unlink(self.marker_path)
        with self._lock:
            self._memory.clear()
            self._entry_count = 0
            self._storage_faults = 0
            for name in _COUNTER_NAMES:
                self.counters[name] = 0
        self.enabled = True
        self._write_meta()
        return removed

    def stats(self) -> Dict[str, Any]:
        """A plain-dict snapshot (the ``repro cache stats`` payload)."""
        size_bytes = 0
        entries = 0
        for directory, _, names in os.walk(self.objects_dir):
            for name in names:
                if not name.endswith(".json"):
                    continue
                entries += 1
                try:
                    size_bytes += os.path.getsize(
                        os.path.join(directory, name))
                except OSError:
                    pass
        quarantined = 0
        for _, _, names in os.walk(self.quarantine_dir):
            quarantined += sum(1 for name in names
                               if name.endswith(".json"))
        with self._lock:
            counters = dict(self.counters)
        return {
            "root": self.root,
            "format": STORE_FORMAT,
            "canonical_version": CANONICAL_VERSION,
            "enabled": self.enabled,
            "store_quarantined": os.path.exists(self.marker_path),
            "entries": entries,
            "size_bytes": size_bytes,
            "quarantined_entries": quarantined,
            "memory_entries": len(self._memory),
            "counters": counters,
        }

    def snapshot(self) -> Dict[str, Any]:
        """The lightweight per-run counters (``DesignOutcome.cache``)."""
        with self._lock:
            counters = dict(self.counters)
        counters["enabled"] = self.enabled
        return counters

    def bump(self, name: str, amount: int = 1) -> None:
        """Thread-safe counter increment (used by the verify pass)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def drain_log(self) -> DegradationLog:
        """Hand over (and reset) the accumulated AVD6xx events."""
        drained = self.log
        self.log = DegradationLog()
        return drained

    # -- pickling (worker pools serialize the wrapped engine) -----------

    def __getstate__(self) -> Dict[str, Any]:
        return {"root": self.root, "max_entries": self.max_entries,
                "memory_entries": self.memory_entries,
                "fail_limit": self.fail_limit,
                "corrupt_limit": self.corrupt_limit,
                "durable": self.durable,
                "verify_seed": self.verify_seed,
                "fault_plan": self.fault_plan}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["root"],
                      max_entries=state["max_entries"],
                      memory_entries=state["memory_entries"],
                      fail_limit=state["fail_limit"],
                      corrupt_limit=state["corrupt_limit"],
                      durable=state["durable"],
                      scrub=False,
                      verify_sample=0,
                      verify_seed=state["verify_seed"],
                      fault_plan=state["fault_plan"])

    def _obs_inc(self, name: str, amount: int = 1) -> None:
        from ..obs import current as _obs_current
        obs = _obs_current()
        if obs.enabled:
            obs.inc(name, amount)
