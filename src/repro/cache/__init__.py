"""Crash-safe persistent cache of tier availability solves.

Tier evaluation dominates design-search cost (one Markov/simulation
solve per candidate structure), and the solves are pure functions of
the canonical tier model -- so they are safe to reuse across runs,
processes, and the serving daemon.  This package persists them:

* :class:`TierEvaluationStore` -- the content-addressed on-disk store
  (atomic writes, per-entry SHA-256 integrity, quarantine of anything
  unverifiable, bounded size, graceful degradation to cache-off);
* :class:`CachedEngine` / :func:`attach_cache` -- the engine wrapper
  and its soundness-aware wiring;
* :class:`CacheFaultPlan` -- seeded storage-fault injection for the
  durability chaos suite.

Enabled with ``--cache DIR`` (or ``REPRO_CACHE=DIR``) on the search
CLI commands and ``repro serve``; managed with ``repro cache
stats|verify|purge``.  ``docs/CACHING.md`` documents the design.
"""

from .engine import (CachedEngine, attach_cache, engine_cache_id,
                     verify_sampled_hits)
from .faults import CacheFaultPlan, CacheKilled
from .store import (STORE_FORMAT, TierEvaluationStore, entry_key,
                    tier_result_from_payload, tier_result_to_payload)

__all__ = [
    "TierEvaluationStore", "STORE_FORMAT", "entry_key",
    "tier_result_to_payload", "tier_result_from_payload",
    "CachedEngine", "attach_cache", "engine_cache_id",
    "verify_sampled_hits",
    "CacheFaultPlan", "CacheKilled",
]
