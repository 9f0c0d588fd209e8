"""Tests for the cache<->engine wiring layer.

Covers the soundness rules of :func:`engine_cache_id` (exact-type
identity, seeded-only simulation), idempotent re-attachment, paranoid
hit verification, and that hits equal fresh solves exactly.
"""

import pytest

from repro.availability import (AnalyticEngine, AvailabilityEngine,
                                FailureModeEntry, MarkovEngine,
                                SimulationEngine, TierAvailabilityModel)
from repro.cache import (CachedEngine, TierEvaluationStore, attach_cache,
                         engine_cache_id, verify_sampled_hits)
from repro.cache.store import tier_result_to_payload
from repro.lint.canonical import canonical_json
from repro.units import Duration


def tier_model(name="web"):
    return TierAvailabilityModel(name, n=2, m=2, s=0, modes=(
        FailureModeEntry("hard", Duration.days(50), Duration.hours(12),
                         Duration.minutes(5)),
    ))


@pytest.fixture
def store(tmp_path):
    return TierEvaluationStore(str(tmp_path / "cache"))


class TestEngineCacheId:
    def test_markov_and_analytic_are_cacheable(self):
        assert engine_cache_id(MarkovEngine()) == "markov@1"
        assert engine_cache_id(AnalyticEngine()) == "analytic@1"

    def test_seeded_simulation_identity_names_parameters(self):
        engine = SimulationEngine(years=50, seed=7)
        cache_id = engine_cache_id(engine)
        assert cache_id is not None
        assert "seed=7" in cache_id
        other = engine_cache_id(SimulationEngine(years=50, seed=8))
        assert other != cache_id

    def test_unseeded_simulation_is_never_cacheable(self):
        assert engine_cache_id(SimulationEngine(years=10)) is None

    def test_identity_is_by_exact_type_not_name(self):
        # An engine that borrows Markov's name but computes something
        # else would poison the store if identity went by name.
        class Impostor(AvailabilityEngine):
            name = MarkovEngine.name

        class TweakedMarkov(MarkovEngine):
            pass

        assert engine_cache_id(Impostor()) is None
        assert engine_cache_id(TweakedMarkov()) is None

    def test_wrapped_engine_is_not_rewrapped(self, store):
        wrapped = CachedEngine(MarkovEngine(), store, "markov@1")
        assert engine_cache_id(wrapped) is None


class TestAttachCache:
    def test_plain_engine_gets_wrapped(self, store):
        engine = attach_cache(MarkovEngine(), store)
        assert isinstance(engine, CachedEngine)
        assert engine.name == MarkovEngine().name

    def test_uncacheable_engine_passes_through(self, store):
        engine = SimulationEngine(years=10)
        assert attach_cache(engine, store) is engine

    def test_attach_is_idempotent(self, store):
        once = attach_cache(MarkovEngine(), store)
        assert attach_cache(once, store) is once    # no double wrapping


class TestCachedEngineBehavior:
    def test_miss_solves_and_populates(self, store):
        engine = attach_cache(MarkovEngine(), store)
        model = tier_model()
        result = engine.evaluate_tier(model)
        assert store.counters["misses"] == 1
        assert store.counters["writes"] == 1
        again = engine.evaluate_tier(model)
        assert store.counters["hits"] == 1
        assert again is not result
        assert canonical_json(tier_result_to_payload(again)) \
            == canonical_json(tier_result_to_payload(result))

    def test_hit_equals_fresh_solve_exactly(self, store):
        model = tier_model()
        fresh = MarkovEngine().evaluate_tier(model)
        engine = attach_cache(MarkovEngine(), store)
        engine.evaluate_tier(model)               # populate
        warm = engine.evaluate_tier(model)        # serve from store
        assert canonical_json(tier_result_to_payload(warm)) \
            == canonical_json(tier_result_to_payload(fresh))

    def test_cache_probe_never_solves_or_writes(self, store):
        engine = attach_cache(MarkovEngine(), store)
        model = tier_model()
        assert engine.cache_probe(model) is None
        assert store.counters["writes"] == 0
        engine.evaluate_tier(model)
        assert engine.cache_probe(model) is not None


class TestVerifySampledHits:
    def _warm_store(self, store, model):
        store.verify_sample = 4
        engine = attach_cache(MarkovEngine(), store)
        engine.evaluate_tier(model)    # miss + write
        engine.evaluate_tier(model)    # sampled hit
        return engine

    def test_clean_store_verifies_true(self, store):
        model = tier_model()
        engine = self._warm_store(store, model)
        assert verify_sampled_hits(store, engine) is True
        assert store.counters["verify_checked"] >= 1
        assert store.enabled

    def test_forged_entry_quarantines_whole_store(self, store, tmp_path):
        # A wrong payload *re-checksummed* passes every read-time
        # integrity check; only re-solving can catch it.
        model, decoy = tier_model("web"), tier_model("decoy")
        engine = self._warm_store(store, model)
        from repro.cache.store import _encode_entry, entry_key
        from repro.lint.canonical import canonical_key
        forged = tier_result_to_payload(
            MarkovEngine().evaluate_tier(decoy))
        forged["unavailability"] = 0.25
        path = store.entry_path(entry_key("markov@1",
                                          canonical_key(model)))
        with open(path, "wb") as handle:
            handle.write(_encode_entry("markov@1", canonical_key(model),
                                       forged))
        # Re-read so the sampled payload is the forged one.
        fresh_store = TierEvaluationStore(store.root, verify_sample=4)
        fresh_engine = attach_cache(MarkovEngine(), fresh_store)
        assert fresh_engine.evaluate_tier(model).unavailability == 0.25
        assert verify_sampled_hits(fresh_store, fresh_engine) is False
        assert not fresh_store.enabled
        import os
        assert os.path.exists(fresh_store.marker_path)
        # ... and the quarantine sticks across reopens.
        assert not TierEvaluationStore(store.root).enabled

    def test_verify_with_no_samples_is_trivially_true(self, store):
        engine = attach_cache(MarkovEngine(), store)
        assert verify_sampled_hits(store, engine) is True
