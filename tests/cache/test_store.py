"""Unit tests for the persistent tier-evaluation store.

The contracts under test, in order: exact round-trips, zero-trust
reads (corruption/staleness is detected and quarantined, never
served), the graceful-degradation ladder (AVD602 -> AVD603), bounded
size with eviction, crash-residue scrubbing, whole-store quarantine,
purge, and pickling into worker pools.
"""

import json
import os
import pickle

import pytest

from repro.availability import (FailureModeEntry, MarkovEngine,
                                TierAvailabilityModel)
from repro.cache import TierEvaluationStore, entry_key
from repro.cache.store import (_encode_entry, tier_result_from_payload,
                               tier_result_to_payload)
from repro.errors import CacheError
from repro.lint.canonical import CANONICAL_VERSION, canonical_json
from repro.lint.canonical import canonical_key
from repro.resilience.events import (CACHE_CORRUPT, CACHE_DISABLED,
                                     CACHE_STALE, CACHE_VERIFY_MISMATCH,
                                     CACHE_WRITE_FAILED)
from repro.units import Duration

ENGINE_ID = "markov@1"


def tier_model(name="web", n=3, m=2, s=1):
    return TierAvailabilityModel(name, n=n, m=m, s=s, modes=(
        FailureModeEntry("hard", Duration.days(300), Duration.hours(10),
                         Duration.minutes(5)),
        FailureModeEntry("soft", Duration.days(20), Duration.minutes(3),
                         Duration.minutes(5), spare_susceptible=True),
    ))


def solve(model):
    return MarkovEngine().evaluate_tier(model)


def entry_file(store, model, engine_id=ENGINE_ID):
    return store.entry_path(entry_key(engine_id, canonical_key(model)))


class TestRoundTrip:
    def test_get_miss_then_put_then_hit(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"))
        model = tier_model()
        assert store.get(ENGINE_ID, model) is None
        result = solve(model)
        assert store.put(ENGINE_ID, model, result)
        cached = store.get(ENGINE_ID, model)
        assert canonical_json(tier_result_to_payload(cached)) \
            == canonical_json(tier_result_to_payload(result))
        assert store.counters["misses"] == 1
        assert store.counters["hits"] == 1
        assert store.counters["writes"] == 1

    def test_hit_survives_process_restart(self, tmp_path):
        root = str(tmp_path / "c")
        model = tier_model()
        result = solve(model)
        TierEvaluationStore(root).put(ENGINE_ID, model, result)
        fresh = TierEvaluationStore(root)       # a "new process"
        cached = fresh.get(ENGINE_ID, model)
        assert cached is not None
        assert cached.unavailability == result.unavailability

    def test_hits_return_fresh_objects_never_aliases(self, tmp_path):
        # A shared cached object would let one caller's in-place
        # annotation leak into every later hit.
        store = TierEvaluationStore(str(tmp_path / "c"))
        model = tier_model()
        store.put(ENGINE_ID, model, solve(model))
        first = store.get(ENGINE_ID, model)
        second = store.get(ENGINE_ID, model)
        assert first is not second
        assert first.mode_results is not second.mode_results

    def test_engine_provenance_round_trips(self, tmp_path):
        """Provenance the engine itself attached (e.g. the Markov
        solver noting a least-squares degradation) is persisted, so a
        warm hit reproduces the cold result exactly."""
        from repro.availability.model import EngineProvenance
        store = TierEvaluationStore(str(tmp_path / "c"))
        model = tier_model()
        result = solve(model)
        object.__setattr__(
            result, "provenance",
            EngineProvenance(engine="markov",
                             cause="dense solve degraded to least "
                                   "squares (Singular matrix)"))
        store.put(ENGINE_ID, model, result)
        cached = store.get(ENGINE_ID, model)
        assert cached.provenance is not None
        assert cached.provenance.engine == "markov"
        assert "least squares" in cached.provenance.cause

    def test_absent_provenance_stays_absent(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"))
        model = tier_model()
        result = solve(model)
        assert result.provenance is None
        store.put(ENGINE_ID, model, result)
        assert store.get(ENGINE_ID, model).provenance is None

    def test_payload_round_trip_is_canonically_exact(self):
        payload = tier_result_to_payload(solve(tier_model()))
        rebuilt = tier_result_from_payload(
            json.loads(canonical_json(payload)))
        assert canonical_json(tier_result_to_payload(rebuilt)) \
            == canonical_json(payload)

    def test_engine_id_partitions_the_keyspace(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"))
        model = tier_model()
        store.put(ENGINE_ID, model, solve(model))
        assert store.get("analytic@1", model) is None

    def test_memory_lru_is_bounded(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"),
                                    memory_entries=2)
        for index in range(4):
            model = tier_model(name="t%d" % index)
            store.put(ENGINE_ID, model, solve(model))
        assert len(store._memory) == 2


class TestZeroTrustReads:
    def test_truncated_entry_is_quarantined_not_served(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"))
        model = tier_model()
        store.put(ENGINE_ID, model, solve(model))
        path = entry_file(store, model)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:len(data) // 2])
        fresh = TierEvaluationStore(store.root)
        assert fresh.get(ENGINE_ID, model) is None
        assert fresh.counters["corrupt"] == 1
        assert not os.path.exists(path)
        assert fresh.stats()["quarantined_entries"] == 1
        assert [e.kind for e in fresh.drain_log()] == [CACHE_CORRUPT]

    def test_every_single_byte_flip_is_detected(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"))
        model = tier_model()
        store.put(ENGINE_ID, model, solve(model))
        path = entry_file(store, model)
        data = open(path, "rb").read()
        for position in range(len(data)):
            for bit in (0x01, 0x80):
                open(path, "wb").write(
                    data[:position]
                    + bytes([data[position] ^ bit])
                    + data[position + 1:])
                fresh = TierEvaluationStore(store.root, scrub=False)
                assert fresh.get(ENGINE_ID, model) is None, \
                    "flip at byte %d (bit %#x) was served" \
                    % (position, bit)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                open(path, "wb").write(data)

    def test_stale_version_entry_is_ignored_with_avd605(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"))
        model = tier_model()
        result = solve(model)
        store.put(ENGINE_ID, model, result)
        path = entry_file(store, model)
        # Re-encode the same payload under an older canonical version
        # with a *valid* checksum: only the version gate can catch it.
        stale = _encode_entry(ENGINE_ID, canonical_key(model),
                              tier_result_to_payload(result),
                              version=CANONICAL_VERSION - 1)
        open(path, "wb").write(stale)
        fresh = TierEvaluationStore(store.root)
        assert fresh.get(ENGINE_ID, model) is None
        assert fresh.counters["stale"] == 1
        assert fresh.counters["corrupt"] == 0
        assert [e.kind for e in fresh.drain_log()] == [CACHE_STALE]

    def test_swapped_entries_are_rejected(self, tmp_path):
        # Valid checksum, wrong address: entry A's bytes copied over
        # entry B must not be served as B.
        store = TierEvaluationStore(str(tmp_path / "c"))
        model_a, model_b = tier_model("a"), tier_model("b", n=4, m=3)
        store.put(ENGINE_ID, model_a, solve(model_a))
        store.put(ENGINE_ID, model_b, solve(model_b))
        data_a = open(entry_file(store, model_a), "rb").read()
        open(entry_file(store, model_b), "wb").write(data_a)
        fresh = TierEvaluationStore(store.root)
        assert fresh.get(ENGINE_ID, model_b) is None
        assert fresh.counters["corrupt"] == 1

    def test_corruption_storm_disables_the_store(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"))
        models = [tier_model("t%d" % index) for index in range(4)]
        for model in models:
            store.put(ENGINE_ID, model, solve(model))
        for model in models:
            path = entry_file(store, model)
            open(path, "wb").write(b"not json at all")
        fresh = TierEvaluationStore(store.root, corrupt_limit=3,
                                    scrub=False)
        for model in models:
            fresh.get(ENGINE_ID, model)
        assert not fresh.enabled
        kinds = [event.kind for event in fresh.drain_log()]
        assert CACHE_DISABLED in kinds


class TestDegradationLadder:
    def test_unwritable_objects_dir_degrades_not_raises(self, tmp_path,
                                                        monkeypatch):
        store = TierEvaluationStore(str(tmp_path / "c"), fail_limit=2)

        def enospc(*args, **kwargs):
            raise OSError(28, "No space left on device")

        from repro.cache import store as store_module
        monkeypatch.setattr(store_module, "atomic_write_bytes", enospc)
        model_a, model_b = tier_model("a"), tier_model("b")
        assert store.put(ENGINE_ID, model_a, solve(model_a)) is False
        assert store.enabled          # one fault: degraded, still on
        assert store.put(ENGINE_ID, model_b, solve(model_b)) is False
        assert not store.enabled      # fail_limit reached: off
        kinds = [event.kind for event in store.drain_log()]
        assert kinds.count(CACHE_WRITE_FAILED) == 2
        assert kinds.count(CACHE_DISABLED) == 1
        # Off means off: no further reads or writes.
        assert store.get(ENGINE_ID, model_a) is None

    def test_open_failure_raises_cache_error(self, tmp_path):
        blocker = tmp_path / "flat"
        blocker.write_text("a file, not a directory")
        with pytest.raises(CacheError):
            TierEvaluationStore(str(blocker / "c"))

    def test_bad_limits_raise_cache_error(self, tmp_path):
        with pytest.raises(CacheError):
            TierEvaluationStore(str(tmp_path / "c"), max_entries=0)
        with pytest.raises(CacheError):
            TierEvaluationStore(str(tmp_path / "c"), fail_limit=0)


class TestBoundsAndScrub:
    def test_eviction_keeps_store_bounded(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"), max_entries=3)
        for index in range(6):
            model = tier_model("t%d" % index)
            store.put(ENGINE_ID, model, solve(model))
            entry = entry_file(store, model)
            os.utime(entry, (index, index))   # deterministic age order
        assert store.stats()["entries"] <= 3
        assert store.counters["evicted"] >= 3

    def test_scrub_removes_crash_residue(self, tmp_path):
        root = str(tmp_path / "c")
        store = TierEvaluationStore(root)
        model = tier_model()
        store.put(ENGINE_ID, model, solve(model))
        # A killed writer leaves a temp file and a dead-pid lock.
        orphan = os.path.join(store.objects_dir, ".cache-dead.tmp")
        open(orphan, "wb").write(b"half an entry")
        dead_lock = entry_file(store, model) + ".lock"
        open(dead_lock, "w").write("999999999\n")
        report = TierEvaluationStore(root).scrub()
        assert not os.path.exists(orphan)
        assert not os.path.exists(dead_lock)
        assert report["entries"] == 1

    def test_startup_scrub_enforces_max_entries(self, tmp_path):
        root = str(tmp_path / "c")
        store = TierEvaluationStore(root)
        for index in range(5):
            model = tier_model("t%d" % index)
            store.put(ENGINE_ID, model, solve(model))
            os.utime(entry_file(store, model), (index, index))
        shrunk = TierEvaluationStore(root, max_entries=2)
        assert shrunk.stats()["entries"] == 2


class TestQuarantineAndPurge:
    def test_store_quarantine_blocks_future_opens(self, tmp_path):
        root = str(tmp_path / "c")
        store = TierEvaluationStore(root)
        model = tier_model()
        store.put(ENGINE_ID, model, solve(model))
        store.quarantine_store("test says so")
        assert not store.enabled
        assert os.path.exists(store.marker_path)
        reopened = TierEvaluationStore(root)
        assert not reopened.enabled
        assert reopened.get(ENGINE_ID, model) is None
        assert [e.kind for e in reopened.drain_log()] \
            == [CACHE_VERIFY_MISMATCH]

    def test_purge_wipes_and_reenables(self, tmp_path):
        root = str(tmp_path / "c")
        store = TierEvaluationStore(root)
        model = tier_model()
        store.put(ENGINE_ID, model, solve(model))
        store.quarantine_store("tainted")
        removed = store.purge()
        assert removed >= 1
        assert store.enabled
        assert not os.path.exists(store.marker_path)
        assert store.stats()["entries"] == 0
        reopened = TierEvaluationStore(root)
        assert reopened.enabled

    def test_verify_all_quarantines_and_tallies(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"))
        good, bad = tier_model("good"), tier_model("bad", n=4, m=2)
        store.put(ENGINE_ID, good, solve(good))
        store.put(ENGINE_ID, bad, solve(bad))
        open(entry_file(store, bad), "wb").write(b"garbage")
        tally = store.verify_all()
        assert tally == {"checked": 2, "ok": 1, "corrupt": 1, "stale": 0}
        assert store.stats()["quarantined_entries"] == 1
        # The good entry is untouched and still serves.
        assert store.get(ENGINE_ID, good) is not None


class TestConcurrencyAndPickling:
    def test_pickled_store_reopens_same_directory(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"),
                                    max_entries=123, durable=False)
        model = tier_model()
        store.put(ENGINE_ID, model, solve(model))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.max_entries == 123
        assert clone.durable is False
        assert clone.get(ENGINE_ID, model) is not None

    def test_live_contention_on_one_entry_skips_silently(self, tmp_path):
        store = TierEvaluationStore(str(tmp_path / "c"))
        model = tier_model()
        path = entry_file(store, model)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path + ".lock", "w").write("%d\n" % os.getpid())
        try:
            # Own pid counts as stale (a previous run of *this*
            # process), so use a live foreign pid: pid 1 is always up.
            open(path + ".lock", "w").write("1\n")
            assert store.put(ENGINE_ID, model, solve(model)) is False
            assert store.counters["write_failures"] == 0
            assert store.enabled
        finally:
            os.unlink(path + ".lock")

    def test_concurrent_writers_from_threads(self, tmp_path):
        import threading
        store = TierEvaluationStore(str(tmp_path / "c"))
        models = [tier_model("t%d" % index) for index in range(8)]
        results = {model.name: solve(model) for model in models}
        errors = []

        def hammer():
            try:
                for model in models:
                    store.put(ENGINE_ID, model, results[model.name])
                    assert store.get(ENGINE_ID, model) is not None
            except Exception as exc:   # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats()["entries"] == len(models)
