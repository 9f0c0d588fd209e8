"""Engine wrapper that serves tier solves from the persistent store.

:func:`attach_cache` is the single wiring point: given the engine the
design runtime is using, it wraps it in a :class:`CachedEngine`
exactly when caching is *sound* and leaves it untouched otherwise.

Soundness rules (who gets a cache identity):

* :class:`~repro.availability.MarkovEngine` and
  :class:`~repro.availability.AnalyticEngine` are deterministic pure
  functions of the canonical model -- always cacheable;
* :class:`~repro.availability.SimulationEngine` is cacheable only when
  *seeded* (``simulate_tier`` builds a fresh seeded simulator per
  call, so a seeded engine is a deterministic function too); an
  unseeded simulation is a fresh random draw each call and must never
  be cached;
* everything else (an already wrapped engine, a subclass or any other
  engine) is passed through -- identity is established by **exact
  type**, never ``engine.name``, because a subclass may keep its
  parent's name while changing what it computes.
"""

from __future__ import annotations

from typing import Optional

from ..availability import (AnalyticEngine, AvailabilityEngine,
                            MarkovEngine, SimulationEngine,
                            TierAvailabilityModel, TierResult)
from .store import TierEvaluationStore


def engine_cache_id(engine: AvailabilityEngine) -> Optional[str]:
    """The stable cache identity of ``engine``, or None if uncacheable.

    The identity names the *algorithm and its determinism-relevant
    parameters*, versioned so result-changing engine fixes can bust
    the cache by bumping the suffix.
    """
    if type(engine) is MarkovEngine:
        return "markov@1"
    if type(engine) is AnalyticEngine:
        return "analytic@1"
    if type(engine) is SimulationEngine:
        if engine.seed is None:
            return None           # fresh random draw per call
        return "simulation@1;years=%r;seed=%d;det_repairs=%d" % (
            engine.years, engine.seed, int(engine.deterministic_repairs))
    return None


class CachedEngine(AvailabilityEngine):
    """A cacheable engine fronted by a :class:`TierEvaluationStore`.

    Adopts the inner engine's ``name`` so name-keyed machinery
    (provenance bookkeeping, engine spans) is oblivious to the
    wrapper.  Every hit returns a *fresh*
    :class:`~repro.availability.TierResult` (rebuilt from the stored
    payload), so callers that annotate results in place cannot
    contaminate the store.
    """

    def __init__(self, inner: AvailabilityEngine,
                 store: TierEvaluationStore, cache_id: str):
        self.inner = inner
        self.store = store
        self.cache_id = cache_id
        self.name = inner.name

    def evaluate_tier(self, model: TierAvailabilityModel) -> TierResult:
        cached = self.store.get(self.cache_id, model)
        if cached is not None:
            return cached
        result = self.inner.evaluate_tier(model)
        self.store.put(self.cache_id, model, result)
        return result

    def cache_probe(self, model: TierAvailabilityModel) \
            -> Optional[TierResult]:
        """A store-only lookup (no solve, no write) for prefetchers."""
        return self.store.get(self.cache_id, model)


def attach_cache(engine: AvailabilityEngine,
                 store: TierEvaluationStore) -> AvailabilityEngine:
    """Wire ``store`` into ``engine`` when caching is sound.

    Returns the engine to use: a wrapper, or the unmodified engine
    when it is not cacheable (including one that is already wrapped).
    """
    cache_id = engine_cache_id(engine)
    if cache_id is None:
        return engine
    return CachedEngine(engine, store, cache_id)


def verify_sampled_hits(store: TierEvaluationStore,
                        engine: AvailabilityEngine) -> bool:
    """Paranoid verification: re-solve the store's sampled hits.

    Each hit the store sampled (seeded reservoir, enabled by setting
    ``verify_sample``) is recomputed on the matching *uncached* engine
    and compared byte-for-byte in canonical form.  A divergence means
    the store served a wrong-but-well-checksummed answer -- a key
    collision, an engine-identity bug, tampered entries rewritten with
    fresh checksums -- so the *whole store* is quarantined (``AVD604``
    plus an on-disk marker that blocks future opens), not just the
    entry.  Returns True when every sample matched.
    """
    from ..lint.canonical import canonical_json
    from .store import tier_result_to_payload
    if not isinstance(engine, CachedEngine):
        return True
    checked = 0
    for cache_id, model, payload in store.verify_samples():
        if cache_id != engine.cache_id:
            continue
        fresh = engine.inner.evaluate_tier(model)
        checked += 1
        if canonical_json(tier_result_to_payload(fresh)) \
                != canonical_json(payload):
            store.bump("verify_checked", checked)
            store.quarantine_store(
                "re-solve of a sampled hit for tier %r diverged from "
                "the stored entry under engine %r"
                % (model.name, cache_id))
            return False
    if checked:
        store.bump("verify_checked", checked)
    return True


__all__ = ["CachedEngine", "attach_cache", "engine_cache_id",
           "verify_sampled_hits"]
