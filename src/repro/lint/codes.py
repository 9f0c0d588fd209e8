"""The diagnostic-code catalog for :mod:`repro.lint`.

Codes are stable identifiers CI can gate on: ``AVD0xx`` are general
loader failures, ``AVD1xx`` come from the expression static analyzer,
``AVD2xx`` from the model analyzer, ``AVD3xx`` from checkpointed
search (:mod:`repro.resilience` degradation reporting), and
``AVD4xx`` from the supervised parallel runtime
(:mod:`repro.parallel`) -- the 3xx/4xx families are emitted at
*evaluation* time, not by the static pass.  Each code has a default
severity; individual diagnostics may tighten it (e.g. an overhead
expression that is *always* below 1.0 upgrades AVD111 to an error).

``docs/LINTING.md`` documents every code with examples; the registry
here is the single source of truth for code -> (severity, title).
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from .diagnostics import Severity


class CodeInfo(NamedTuple):
    """Registry entry for one diagnostic code."""

    severity: Severity
    title: str


#: All known diagnostic codes with their default severity and title.
CODES: Dict[str, CodeInfo] = {
    # -- general / loader ------------------------------------------------
    "AVD001": CodeInfo(Severity.ERROR, "specification parse error"),
    "AVD002": CodeInfo(Severity.ERROR, "model construction error"),
    # -- expression analyzer ---------------------------------------------
    "AVD100": CodeInfo(Severity.ERROR, "expression syntax error"),
    "AVD101": CodeInfo(Severity.ERROR, "unbound variable"),
    "AVD102": CodeInfo(Severity.WARNING, "declared variable unused"),
    "AVD103": CodeInfo(Severity.ERROR, "unknown function or bad arity"),
    "AVD104": CodeInfo(Severity.ERROR, "division by zero"),
    "AVD105": CodeInfo(Severity.WARNING, "possible division by zero"),
    "AVD106": CodeInfo(Severity.ERROR, "function domain error"),
    "AVD107": CodeInfo(Severity.WARNING, "possible function domain error"),
    "AVD108": CodeInfo(Severity.WARNING, "unreachable conditional branch"),
    "AVD109": CodeInfo(Severity.WARNING,
                       "performance not monotone in resource count"),
    "AVD110": CodeInfo(Severity.WARNING,
                       "performance non-positive on declared domain"),
    "AVD111": CodeInfo(Severity.WARNING,
                       "overhead factor below 1.0 (slowdown < 100%)"),
    # -- model analyzer --------------------------------------------------
    "AVD201": CodeInfo(Severity.ERROR, "unknown resource type"),
    "AVD202": CodeInfo(Severity.ERROR, "unknown mechanism"),
    "AVD203": CodeInfo(Severity.ERROR,
                       "component defers to unknown mechanism"),
    "AVD204": CodeInfo(Severity.ERROR,
                       "mechanism does not provide deferred attribute"),
    "AVD205": CodeInfo(Severity.ERROR,
                       "component instance cap below tier minimum"),
    "AVD206": CodeInfo(Severity.WARNING, "MTTR not below MTBF"),
    "AVD207": CodeInfo(Severity.ERROR, "tier has no feasible option"),
    "AVD208": CodeInfo(Severity.WARNING,
                       "name shared across model namespaces"),
    "AVD209": CodeInfo(Severity.WARNING,
                       "mechanism range inconsistent with failure model"),
    "AVD210": CodeInfo(Severity.INFO, "infrastructure element unused"),
    "AVD211": CodeInfo(Severity.ERROR,
                       "overhead missing expression for allowed category"),
    "AVD212": CodeInfo(Severity.INFO,
                       "overhead expression for undeclared category"),
    "AVD213": CodeInfo(Severity.WARNING,
                       "nActive exceeds tabulated sample range"),
    # -- checkpointed search (degradation reporting) ---------------------
    # Codes 301-307 (engine fallback, circuit breakers, retries,
    # timeouts, garbage results, deadline budgets) are retired with the
    # fallback engine; their numbers are not reused.
    "AVD308": CodeInfo(Severity.INFO,
                       "search resumed from checkpoint"),
    "AVD309": CodeInfo(Severity.WARNING,
                       "checkpoint save failed; search continuing "
                       "without persistence"),
    # -- parallel runtime (supervised multi-process evaluation) ----------
    "AVD401": CodeInfo(Severity.WARNING,
                       "worker pool unavailable; degraded to serial "
                       "evaluation"),
    "AVD402": CodeInfo(Severity.WARNING,
                       "poison candidate quarantined after repeated "
                       "worker failures"),
    "AVD403": CodeInfo(Severity.WARNING,
                       "worker process crashed during candidate "
                       "evaluation"),
    "AVD404": CodeInfo(Severity.WARNING,
                       "candidate evaluation exceeded its wall-clock "
                       "timeout"),
    "AVD405": CodeInfo(Severity.INFO,
                       "worker pool restarted"),
    # -- candidate-space analyzer (repro.lint.space) ----------------------
    "AVD500": CodeInfo(Severity.INFO,
                       "candidate space cardinality"),
    "AVD501": CodeInfo(Severity.ERROR,
                       "candidate space is empty"),
    "AVD502": CodeInfo(Severity.WARNING,
                       "region provably infeasible for the requirement"),
    "AVD503": CodeInfo(Severity.WARNING,
                       "redundant search dimension"),
    "AVD504": CodeInfo(Severity.INFO,
                       "canonical equivalence classes"),
    "AVD505": CodeInfo(Severity.INFO,
                       "dominance certificate coverage"),
    "AVD506": CodeInfo(Severity.INFO,
                       "candidates pruned by dominance certificate"),
    "AVD507": CodeInfo(Severity.ERROR,
                       "contradictory search-space constraints"),
    # -- tier-evaluation store (repro.cache) ------------------------------
    "AVD601": CodeInfo(Severity.WARNING,
                       "corrupt cache entry detected and quarantined"),
    "AVD602": CodeInfo(Severity.WARNING,
                       "cache write failed; entry not persisted"),
    "AVD603": CodeInfo(Severity.WARNING,
                       "cache degraded to off after repeated storage "
                       "faults"),
    "AVD604": CodeInfo(Severity.ERROR,
                       "cache verification mismatch; store quarantined"),
    "AVD605": CodeInfo(Severity.INFO,
                       "stale-version cache entry ignored"),
    # -- continuous redesign watcher (repro.watch) ------------------------
    "AVD701": CodeInfo(Severity.WARNING,
                       "malformed telemetry record quarantined"),
    "AVD702": CodeInfo(Severity.WARNING,
                       "conflicting duplicate telemetry record "
                       "quarantined"),
    "AVD703": CodeInfo(Severity.INFO,
                       "telemetry sequence gap detected"),
    "AVD704": CodeInfo(Severity.INFO,
                       "telemetry clock skew tolerated"),
    "AVD705": CodeInfo(Severity.INFO,
                       "observed parameters contradict the design spec; "
                       "redesign triggered"),
    "AVD706": CodeInfo(Severity.INFO,
                       "incremental re-search warm-started from "
                       "checkpoint"),
    "AVD707": CodeInfo(Severity.WARNING,
                       "drifted spec invalidated the checkpoint; cold "
                       "re-search"),
    "AVD708": CodeInfo(Severity.INFO,
                       "watch journal replayed; interrupted redesign "
                       "resumed"),
    "AVD709": CodeInfo(Severity.WARNING,
                       "watch journal append failed; watcher continuing "
                       "without durability"),
    # -- vectorized batch solves (repro.batch) ----------------------------
    "AVD801": CodeInfo(Severity.INFO,
                       "engine does not support vectorized batch "
                       "solves; searching on the scalar path"),
    "AVD802": CodeInfo(Severity.WARNING,
                       "stacked solve hit a singular system; group "
                       "members re-solved on the scalar path"),
    "AVD803": CodeInfo(Severity.INFO,
                       "chain not representable by a batched template; "
                       "re-solved on the scalar path"),
    # -- sharded requirement-space map builder (repro.grid) ---------------
    "AVD901": CodeInfo(Severity.WARNING,
                       "grid shard attempt failed; lease reassigned "
                       "with backoff"),
    "AVD902": CodeInfo(Severity.WARNING,
                       "grid shard isolated; cells re-run "
                       "individually to attribute the fault"),
    "AVD903": CodeInfo(Severity.WARNING,
                       "poison grid cell convicted and excluded from "
                       "the map"),
    "AVD904": CodeInfo(Severity.INFO,
                       "grid build resumed from journal; finished "
                       "shards reused"),
    "AVD905": CodeInfo(Severity.WARNING,
                       "grid journal append failed; build continuing "
                       "without durability"),
    "AVD906": CodeInfo(Severity.WARNING,
                       "abandoned grid shard lease reclaimed"),
    "AVD907": CodeInfo(Severity.INFO,
                       "requirement-space map served with partial "
                       "coverage"),
}

#: Codes whose presence means the expression *may* raise at evaluation
#: time.  An expression analysis with none of these proves the absence
#: of runtime errors on the declared domain (the soundness contract the
#: property tests in ``tests/properties/test_lint_props.py`` check).
RUNTIME_ERROR_CODES = frozenset({
    "AVD100", "AVD101", "AVD103", "AVD104", "AVD105", "AVD106", "AVD107",
})


def default_severity(code: str) -> Severity:
    """Default severity for ``code`` (ERROR for unknown codes)."""
    info = CODES.get(code)
    return info.severity if info is not None else Severity.ERROR


def title(code: str) -> str:
    """Human-readable title for ``code``."""
    info = CODES.get(code)
    return info.title if info is not None else "unknown diagnostic"
