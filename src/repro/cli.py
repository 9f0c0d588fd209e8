"""Command-line interface for the Aved design engine.

Subcommands::

    python -m repro design    --load 1000 --downtime 100m [model options]
    python -m repro design    --job-time 20h [model options]
    python -m repro design    ... --trace out.json --metrics-out m.json
    python -m repro frontier  --tier application --load 1000 [...]
    python -m repro validate  [model options]
    python -m repro lint      [--format json] [--strict] [--space] [...]
    python -m repro profile   --load 1000 --downtime 100m [model options]
    python -m repro cache     stats|verify|purge [DIR]
    python -m repro serve     --data-dir state/ [--port 8080] [--map M]
    python -m repro watch     --tier T --load X --downtime 100m \
                              --telemetry stream.jsonl [model options]
    python -m repro map       build|serve|status [options]

Model options: ``--infrastructure FILE`` and ``--service FILE`` load
spec documents (``--perf-dir DIR`` resolves their ``.dat`` references);
``--paper-ecommerce`` / ``--paper-scientific`` use the paper's embedded
models instead.  ``--app-tier-only`` slices the e-commerce model down
to its application tier, matching the paper's first example.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import threading
from typing import Optional

from .availability import ENGINE_NAMES, build_engine
from .core import (Aved, DesignEvaluator, SearchLimits, TierSearch)
from .core.report import evaluation_summary, frontier_table
from .errors import AvedError, InfeasibleError
from .model import (InfrastructureModel, JobRequirements, ServiceModel,
                    ServiceRequirements, collect_problems)
from .spec import FileResolver, parse_infrastructure, parse_service
from .units import Duration


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Aved: automated system design for availability "
                    "(DSN 2004 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    design = subparsers.add_parser(
        "design", help="find the minimum-cost design for a requirement")
    _add_model_options(design)
    design.add_argument("--load", type=float,
                        help="throughput requirement (work units/hour)")
    design.add_argument("--downtime",
                        help="max annual downtime, e.g. 100m, 2h")
    design.add_argument("--job-time",
                        help="max expected job execution time, e.g. 20h")
    design.add_argument("--json", action="store_true",
                        help="emit the design and evaluation as JSON")
    design.add_argument("--checkpoint", metavar="PATH",
                        help="snapshot search progress to PATH so an "
                             "interrupted run can resume")
    design.add_argument("--resume", action="store_true",
                        help="resume from an existing --checkpoint file "
                             "instead of restarting the search")
    design.add_argument("--trace", metavar="PATH",
                        help="record the run's hierarchical trace "
                             "(search -> evaluation -> engine spans) "
                             "and write it to PATH as JSON")
    design.add_argument("--metrics-out", metavar="PATH",
                        help="write the run's metrics snapshot "
                             "(counters/gauges/histograms) to PATH as "
                             "JSON")
    _add_search_options(design)

    profile = subparsers.add_parser(
        "profile", help="profile a design run: per-phase self/cumulative "
                        "time table from the trace, plus engine counters")
    _add_model_options(profile)
    profile.add_argument("--load", type=float,
                         help="throughput requirement (work units/hour)")
    profile.add_argument("--downtime",
                         help="max annual downtime, e.g. 100m, 2h")
    profile.add_argument("--job-time",
                         help="max expected job execution time, e.g. 20h")
    profile.add_argument("--top", type=int, default=None, metavar="N",
                         help="show only the N hottest phases")
    profile.add_argument("--trace", metavar="PATH",
                         help="also write the raw trace JSON to PATH")
    profile.add_argument("--bench-out", metavar="PATH",
                         help="write a BENCH-format profiling record "
                              "(phases + counters) to PATH")
    _add_search_options(profile)

    frontier = subparsers.add_parser(
        "frontier", help="print a tier's cost/downtime Pareto frontier")
    _add_model_options(frontier)
    frontier.add_argument("--tier", required=True)
    frontier.add_argument("--load", type=float, required=True)
    _add_search_options(frontier)

    validate = subparsers.add_parser(
        "validate", help="check an infrastructure/service model pair")
    _add_model_options(validate)

    lint = subparsers.add_parser(
        "lint", help="static analysis of a model pair: dangling "
                     "references, expression domain errors (division by "
                     "zero, log/sqrt), plausibility warnings")
    _add_model_options(lint)
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="output rendering (default: text)")
    lint.add_argument("--strict", action="store_true",
                      help="exit nonzero on warnings, not just errors")
    lint.add_argument("--space", action="store_true",
                      help="also statically analyze the candidate space: "
                           "cardinality, canonical equivalence classes, "
                           "dominance coverage, provably infeasible "
                           "regions (AVD500-series; see "
                           "docs/STATIC_ANALYSIS.md)")
    lint.add_argument("--load", type=float, default=None,
                      help="throughput requirement conditioning the "
                           "--space analysis (work units/hour)")
    lint.add_argument("--downtime", default=None,
                      help="max annual downtime conditioning the --space "
                           "reachability checks, e.g. 100m")
    lint.add_argument("--max-redundancy", type=int, default=8,
                      help="resources beyond the minimum the --space "
                           "analysis enumerates (match the search's)")
    lint.add_argument("--spare-policy",
                      choices=["cold", "hot", "all"], default="cold")
    lint.add_argument("--fix", action="append", default=[],
                      metavar="MECH.PARAM=VALUE",
                      help="pin a mechanism parameter for the --space "
                           "analysis (repeatable)")

    describe = subparsers.add_parser(
        "describe", help="summarize an infrastructure/service model pair")
    _add_model_options(describe)

    analyze = subparsers.add_parser(
        "analyze", help="downtime budget and sensitivity of the optimal "
                        "design at a requirement point")
    _add_model_options(analyze)
    analyze.add_argument("--load", type=float, required=True)
    analyze.add_argument("--downtime", required=True,
                         help="max annual downtime, e.g. 100m")
    _add_search_options(analyze)

    cache = subparsers.add_parser(
        "cache", help="inspect or maintain a persistent tier-evaluation "
                      "store (see docs/CACHING.md)")
    cache.add_argument("action", choices=["stats", "verify", "purge"],
                       help="stats: counters and size as JSON; verify: "
                            "full integrity scan (quarantines bad "
                            "entries, exits 1 when any were found or "
                            "the store is quarantined); purge: delete "
                            "every entry and lift a quarantine marker")
    cache.add_argument("dir", nargs="?", default=None, metavar="DIR",
                       help="store directory (default: the REPRO_CACHE "
                            "environment variable)")

    serve = subparsers.add_parser(
        "serve", help="run the design service daemon: accept design "
                      "jobs over a JSON HTTP API with admission "
                      "control, per-request deadlines, crash-safe "
                      "persistence, and graceful drain on "
                      "SIGTERM/SIGINT (see docs/SERVING.md)")
    serve.add_argument("--data-dir", required=True, metavar="DIR",
                       help="journal, checkpoints, and endpoint file "
                            "live here; an existing journal is "
                            "replayed and interrupted jobs re-queued")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks an ephemeral port, advertised in "
                            "<data-dir>/endpoint.json (default: 0)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent design jobs (default: 2)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="queued jobs beyond which requests are "
                            "shed with 429 (default: 16)")
    serve.add_argument("--wait-budget", type=float, default=30.0,
                       metavar="SECONDS",
                       help="estimated queueing delay beyond which "
                            "requests are shed (default: 30)")
    serve.add_argument("--default-deadline", type=float, default=120.0,
                       metavar="SECONDS")
    serve.add_argument("--max-deadline", type=float, default=600.0,
                       metavar="SECONDS")
    serve.add_argument("--engine", choices=ENGINE_NAMES,
                       default="markov",
                       help="per-job availability engine (default: "
                            "markov)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="supervised evaluation fan-out per design "
                            "job (default: 1, in-process supervision)")
    serve.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-candidate wall-clock budget")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       metavar="SECONDS",
                       help="how long a drain waits for running jobs "
                            "to checkpoint before giving up")
    serve.add_argument("--io-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="per-socket timeout (slow-client defense)")
    serve.add_argument("--checkpoint-interval", type=int, default=10,
                       metavar="N",
                       help="autosave each job's search checkpoint "
                            "every N evaluations (default: 10)")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip fsync on journal appends (faster, "
                            "loses the crash-safety guarantee)")
    serve.add_argument("--allow-test-faults", action="store_true",
                       help="honor test_fault payload fields "
                            "(loadgen chaos); never use in production")
    serve.add_argument("--cache", metavar="DIR", default=None,
                       help="share a persistent tier-evaluation store "
                            "across all design jobs (default: the "
                            "REPRO_CACHE environment variable, else "
                            "off)")
    serve.add_argument("--cache-verify", action="store_true",
                       help="re-solve a seeded sample of cache hits "
                            "after each job; any divergence "
                            "quarantines the store (AVD604)")
    serve.add_argument("--seed", type=int, default=1, metavar="N")
    serve.add_argument("--watch-telemetry", action="append", default=[],
                       metavar="FILE",
                       help="also run the background drift reconciler "
                            "over this JSONL telemetry stream "
                            "(repeatable; see docs/REDESIGN.md)")
    serve.add_argument("--watch-tier", metavar="TIER",
                       help="tier the reconciler watches")
    serve.add_argument("--watch-load", type=float, metavar="X",
                       help="design-spec load of the watched tier")
    serve.add_argument("--watch-downtime", metavar="DURATION",
                       help="max annual downtime of the watched tier, "
                            "e.g. 100m")
    serve.add_argument("--watch-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="seconds between reconciler polls "
                            "(default: 5)")
    serve.add_argument("--watch-infrastructure", metavar="FILE",
                       help="infrastructure spec the reconciler "
                            "designs against")
    serve.add_argument("--watch-service", metavar="FILE",
                       help="service spec the reconciler designs "
                            "against")
    serve.add_argument("--watch-paper", action="store_true",
                       help="watch the paper's e-commerce model "
                            "instead of spec files")
    serve.add_argument("--map", metavar="FILE", default=None,
                       help="also serve a precomputed requirement-"
                            "space map (repro map build) at "
                            "GET /v1/map; reloaded when the file "
                            "changes (see docs/GRID.md)")

    watch = subparsers.add_parser(
        "watch", help="run the drift-aware continuous redesign loop: "
                      "tail telemetry streams, estimate MTTF/MTTR/load "
                      "online, and re-search the design when the "
                      "observations statistically contradict its spec "
                      "(see docs/REDESIGN.md)")
    _add_model_options(watch)
    watch.add_argument("--tier", required=True,
                       help="tier to watch and redesign")
    watch.add_argument("--load", type=float, required=True,
                       help="design-spec load the incumbent is solved "
                            "for (work units/hour)")
    watch.add_argument("--downtime", required=True,
                       help="max annual downtime, e.g. 100m, 2h")
    watch.add_argument("--telemetry", action="append", default=[],
                       metavar="FILE",
                       help="JSONL telemetry stream to tail "
                            "(repeatable); malformed records are "
                            "quarantined (AVD701), never fatal")
    watch.add_argument("--journal", metavar="PATH",
                       help="crash journal: a killed watcher resumes "
                            "an interrupted redesign exactly once")
    watch.add_argument("--checkpoint", metavar="PATH",
                       help="search checkpoint reused across load-only "
                            "drift (warm re-search)")
    watch.add_argument("--cache", metavar="DIR", default=None,
                       help="shared tier-evaluation store (default: "
                            "the REPRO_CACHE environment variable, "
                            "else off)")
    watch.add_argument("--max-polls", type=int, default=None,
                       metavar="N",
                       help="stop after N polls (default: run until "
                            "SIGINT/SIGTERM)")
    watch.add_argument("--poll-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="seconds between telemetry polls "
                            "(default: 5)")
    watch.add_argument("--json", action="store_true",
                       help="emit the final watch status as JSON "
                            "(the WATCH_STATUS_SCHEMA contract)")
    watch.add_argument("--hysteresis", type=float, default=0.05,
                       help="fractional cost improvement required to "
                            "abandon a still-feasible incumbent "
                            "(default: 0.05)")
    watch.add_argument("--confidence", type=float, default=0.99,
                       help="confidence level a contradiction must "
                            "reach before drift fires (default: 0.99)")
    watch.add_argument("--debounce", type=int, default=3, metavar="N",
                       help="consecutive contradicting polls before a "
                            "redesign (default: 3)")
    watch.add_argument("--cooldown", type=int, default=5, metavar="N",
                       help="quiet polls after each redesign "
                            "(default: 5)")
    watch.add_argument("--min-failures", type=int, default=30,
                       metavar="N")
    watch.add_argument("--min-repairs", type=int, default=20,
                       metavar="N")
    watch.add_argument("--min-load-samples", type=int, default=30,
                       metavar="N")
    watch.add_argument("--load-window", type=int, default=None,
                       metavar="N",
                       help="trailing load samples the estimate uses "
                            "(default: all)")
    watch.add_argument("--max-redundancy", type=int, default=8)
    watch.add_argument("--spare-policy",
                       choices=["cold", "hot", "all"], default="cold")
    watch.add_argument("--fix", action="append", default=[],
                       metavar="MECH.PARAM=VALUE")
    watch.add_argument("--engine", choices=ENGINE_NAMES,
                       default="markov")
    watch.add_argument("--seed", type=int, default=1, metavar="N")
    watch.add_argument("--repair-crew", type=int, default=None,
                       metavar="N")
    # Test hook for the kill -9 soak: widens the window between the
    # journaled redesign-start and redesign-done.
    watch.add_argument("--test-redesign-delay", type=float,
                       default=None, help=argparse.SUPPRESS)

    map_parser = subparsers.add_parser(
        "map", help="build, inspect, or serve a sharded fault-tolerant "
                    "requirement-space map: one Pareto frontier per "
                    "grid load, journaled so kill -9 resumes, served "
                    "without search (see docs/GRID.md)")
    map_actions = map_parser.add_subparsers(dest="action", required=True)

    map_build = map_actions.add_parser(
        "build", help="compute the map shard by shard under per-shard "
                      "leases; finished shards are journaled and a "
                      "restarted build reuses them exactly once")
    _add_model_options(map_build)
    map_build.add_argument("--tier", required=True,
                           help="tier the map covers")
    map_build.add_argument("--loads", required=True,
                           metavar="L1,L2,... | START:STOP:STEP",
                           help="the load grid: comma-separated "
                                "values, or an inclusive range like "
                                "500:3000:500")
    map_build.add_argument("--out", required=True, metavar="PATH",
                           help="write the canonical map JSON here")
    map_build.add_argument("--shard-size", type=int, default=4,
                           metavar="N",
                           help="grid loads per shard (default: 4); "
                                "any partition builds the "
                                "byte-identical map")
    map_build.add_argument("--journal", metavar="PATH",
                           help="crash journal: a killed build "
                                "resumes with every finished shard "
                                "reused exactly once")
    map_build.add_argument("--lease-seconds", type=float, default=300.0,
                           metavar="SECONDS",
                           help="wall-clock budget of one shard "
                                "attempt (cooperative; default: 300)")
    map_build.add_argument("--shard-retries", type=int, default=2,
                           metavar="N",
                           help="whole-shard faults tolerated before "
                                "the shard is isolated cell by cell "
                                "(default: 2)")
    map_build.add_argument("--cell-retries", type=int, default=2,
                           metavar="N",
                           help="isolated-cell faults tolerated "
                                "before the cell is convicted as "
                                "poison and excluded (default: 2)")
    map_build.add_argument("--max-redundancy", type=int, default=8)
    map_build.add_argument("--spare-policy",
                           choices=["cold", "hot", "all"],
                           default="cold")
    map_build.add_argument("--fix", action="append", default=[],
                           metavar="MECH.PARAM=VALUE")
    map_build.add_argument("--engine", choices=ENGINE_NAMES,
                           default="markov")
    map_build.add_argument("--seed", type=int, default=1, metavar="N")
    map_build.add_argument("--repair-crew", type=int, default=None,
                           metavar="N")
    map_build.add_argument("--cache", metavar="DIR", default=None,
                           help="shared tier-evaluation store: warm "
                                "grid points reuse neighboring solves "
                                "across shards, restarts, and builds "
                                "(default: REPRO_CACHE, else off)")
    map_build.add_argument("--cache-verify", action="store_true")
    map_build.add_argument("--json", action="store_true",
                           help="emit the final MAP_STATUS_SCHEMA "
                                "document instead of a summary line")
    # Chaos-harness hooks for the grid soak tests: seeded shard fault
    # storms, poison cells, and a mid-build kill.
    map_build.add_argument("--test-fault-rate", type=float,
                           default=None, help=argparse.SUPPRESS)
    map_build.add_argument("--test-fault-seed", type=int, default=0,
                           help=argparse.SUPPRESS)
    map_build.add_argument("--test-kill-after-shards", type=int,
                           default=None, help=argparse.SUPPRESS)
    map_build.add_argument("--test-poison-load", type=float,
                           action="append", default=[],
                           help=argparse.SUPPRESS)

    map_status = map_actions.add_parser(
        "status", help="report a map's coverage and its journal's "
                       "build state as JSON (MAP_STATUS_SCHEMA); "
                       "exits 0 only when the map is complete")
    map_status.add_argument("--map", required=True, metavar="FILE",
                            help="the map JSON a build wrote")
    map_status.add_argument("--journal", metavar="PATH", default=None,
                            help="also replay the build journal "
                                 "(requires --tier and --loads to "
                                 "identify the grid)")
    map_status.add_argument("--tier", default=None)
    map_status.add_argument("--loads", default=None,
                            metavar="L1,L2,... | START:STOP:STEP")

    map_serve = map_actions.add_parser(
        "serve", help="serve a map over HTTP: GET /v1/map answers "
                      "(load, downtime) lookups from the file without "
                      "search, 503 when the region is unbuilt")
    map_serve.add_argument("--map", required=True, metavar="FILE")
    map_serve.add_argument("--data-dir", required=True, metavar="DIR")
    map_serve.add_argument("--host", default="127.0.0.1")
    map_serve.add_argument("--port", type=int, default=0,
                           help="0 picks an ephemeral port, advertised "
                                "in <data-dir>/endpoint.json")
    map_serve.add_argument("--workers", type=int, default=2)
    map_serve.add_argument("--io-timeout", type=float, default=10.0,
                           metavar="SECONDS")

    return parser


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--infrastructure", metavar="FILE",
                        help="infrastructure spec (Fig. 3 format)")
    parser.add_argument("--service", metavar="FILE",
                        help="service spec (Fig. 4/5 format)")
    parser.add_argument("--perf-dir", metavar="DIR", default=".",
                        help="directory for .dat performance references")
    parser.add_argument("--paper-ecommerce", action="store_true",
                        help="use the paper's e-commerce example models")
    parser.add_argument("--paper-scientific", action="store_true",
                        help="use the paper's scientific example models")
    parser.add_argument("--app-tier-only", action="store_true",
                        help="restrict the e-commerce model to its "
                             "application tier (paper's Fig. 6 setup)")


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-redundancy", type=int, default=8,
                        help="resources beyond the minimum to explore")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="evaluate candidates under the supervised "
                             "runtime: N>1 fans out across N worker "
                             "processes (same design as a serial run, "
                             "guaranteed), N=1 supervises in-process; "
                             "default: the REPRO_JOBS environment "
                             "variable, else the legacy serial path")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-candidate wall-clock budget; a "
                             "candidate that keeps exceeding it is "
                             "quarantined, not fatal (requires --jobs)")
    parser.add_argument("--spare-policy",
                        choices=["cold", "hot", "all"], default="cold")
    parser.add_argument("--fix", action="append", default=[],
                        metavar="MECH.PARAM=VALUE",
                        help="pin a mechanism parameter, e.g. "
                             "maintenanceA.level=bronze (repeatable)")
    parser.add_argument("--engine", choices=ENGINE_NAMES,
                        default="markov",
                        help="availability engine (default: markov)")
    parser.add_argument("--seed", type=int, default=1, metavar="N",
                        help="random seed for the simulation engine "
                             "(default: 1, so runs are reproducible by "
                             "default)")
    parser.add_argument("--repair-crew", type=int, default=None,
                        metavar="N",
                        help="bound concurrent repairs per tier "
                             "(default: unlimited)")
    parser.add_argument("--prune-dominated", dest="prune",
                        action="store_const", const="auto", default="auto",
                        help="skip candidates a static dominance "
                             "certificate proves infeasible (default: on "
                             "for the deterministic markov/analytic "
                             "engines, off otherwise; the designed "
                             "outcome is identical either way)")
    parser.add_argument("--no-prune", dest="prune",
                        action="store_const", const=False,
                        help="disable dominance pruning and evaluate "
                             "every candidate")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="persist tier availability solves in DIR "
                             "and serve repeats from it; safe to share "
                             "across concurrent runs, and the designed "
                             "system is identical with the cache off, "
                             "cold, or warm (default: the REPRO_CACHE "
                             "environment variable, else off)")
    parser.add_argument("--cache-verify", action="store_true",
                        help="paranoid mode: re-solve a seeded sample "
                             "of cache hits after the search and "
                             "quarantine the whole store on any "
                             "divergence (AVD604)")
    parser.add_argument("--batch", dest="batch", action="store_const",
                        const=True, default=None,
                        help="solve each search wavefront as stacked "
                             "linear systems in one vectorized pass "
                             "instead of one candidate at a time; the "
                             "designed system is bit-identical either "
                             "way (default: the REPRO_BATCH "
                             "environment variable, else off)")
    parser.add_argument("--no-batch", dest="batch", action="store_const",
                        const=False,
                        help="force the scalar per-candidate solve "
                             "path even when REPRO_BATCH is set")


def load_models(args, validate: bool = True) -> tuple:
    """Resolve (infrastructure, service) from the CLI options.

    ``validate=False`` defers infrastructure cross-reference checking
    (used by ``repro lint``, which reports dangling references itself
    with source spans).
    """
    if args.paper_ecommerce or args.paper_scientific:
        from .spec.paper import (ecommerce_service, paper_infrastructure,
                                 scientific_service)
        infrastructure = paper_infrastructure()
        if args.paper_scientific:
            service = scientific_service()
        else:
            service = ecommerce_service()
            if args.app_tier_only:
                service = ServiceModel(
                    "app-tier", [service.tier("application")])
        return infrastructure, service
    if not args.infrastructure or not args.service:
        raise AvedError(
            "provide --infrastructure and --service files, or one of "
            "--paper-ecommerce / --paper-scientific")
    with open(args.infrastructure) as handle:
        infrastructure = parse_infrastructure(handle.read(),
                                              validate=validate)
    with open(args.service) as handle:
        service = parse_service(handle.read(),
                                FileResolver(args.perf_dir))
    return infrastructure, service


def parse_fixed_settings(pairs) -> dict:
    """Parse ``--fix mech.param=value`` options into SearchLimits form."""
    fixed: dict = {}
    for pair in pairs:
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise AvedError(
                "--fix expects MECHANISM.PARAM=VALUE, got %r" % pair)
        key, value = pair.split("=", 1)
        mechanism, parameter = key.split(".", 1)
        fixed.setdefault(mechanism, {})[parameter] = _coerce(value)
    return fixed


def _coerce(value: str):
    try:
        number = float(value)
    except ValueError:
        return value
    return int(number) if number.is_integer() else number


def make_limits(args) -> SearchLimits:
    return SearchLimits(max_redundancy=args.max_redundancy,
                        spare_policy=args.spare_policy,
                        fixed_settings=parse_fixed_settings(args.fix))


def make_engine(args):
    return build_engine(args.engine, getattr(args, "seed", 1))


def resolve_jobs(args) -> Optional[int]:
    """``--jobs``, falling back to the ``REPRO_JOBS`` env variable.

    The env fallback is what lets a CI leg (or a user shell) push an
    entire existing CLI workflow through the parallel runtime without
    editing any invocation -- safe because ``--jobs N`` is
    design-identical to serial.
    """
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise AvedError("REPRO_JOBS must be an integer, got %r"
                                % env)
    if jobs is not None and jobs < 1:
        raise AvedError("--jobs must be >= 1, got %d" % jobs)
    timeout = getattr(args, "task_timeout", None)
    if timeout is not None and timeout <= 0:
        raise AvedError("--task-timeout must be positive")
    if timeout is not None and jobs is None:
        raise AvedError("--task-timeout requires --jobs")
    return jobs


def resolve_cache(args) -> tuple:
    """``(--cache, --cache-verify)``, with the ``REPRO_CACHE`` fallback.

    Like ``REPRO_JOBS``, the env fallback lets a CI leg (or a user
    shell) put a shared tier-evaluation store under an entire existing
    CLI workflow without editing any invocation -- safe because a
    cached run designs the identical system.
    """
    cache = getattr(args, "cache", None)
    if cache is None:
        env = os.environ.get("REPRO_CACHE", "").strip()
        if env:
            cache = env
    verify = bool(getattr(args, "cache_verify", False))
    if verify and cache is None:
        raise AvedError("--cache-verify requires --cache (or REPRO_CACHE)")
    return cache, verify


def resolve_batch(args) -> bool:
    """``--batch``, falling back to the ``REPRO_BATCH`` env variable.

    Like ``REPRO_JOBS`` / ``REPRO_CACHE``, the env fallback lets a CI
    leg (or a user shell) push an entire existing CLI workflow through
    the vectorized batch core without editing any invocation -- safe
    because a batched search designs the bit-identical system.
    Accepted truthy values: ``1``, ``true``, ``yes``, ``on`` (and
    their falsy complements); ``--no-batch`` always wins.
    """
    batch = getattr(args, "batch", None)
    if batch is not None:
        return bool(batch)
    env = os.environ.get("REPRO_BATCH", "").strip().lower()
    if not env:
        return False
    if env in ("1", "true", "yes", "on"):
        return True
    if env in ("0", "false", "no", "off"):
        return False
    raise AvedError("REPRO_BATCH must be a boolean (1/0/true/false), "
                    "got %r" % env)


def make_checkpoint(args):
    """Build (or resume) the search checkpoint requested by the CLI."""
    path = getattr(args, "checkpoint", None)
    if not path:
        if getattr(args, "resume", False):
            raise AvedError("--resume requires --checkpoint PATH")
        return None
    from .resilience import SearchCheckpoint
    if getattr(args, "resume", False):
        if os.path.exists(path):
            return SearchCheckpoint.load(path)
    return SearchCheckpoint(path)


def make_requirements(args):
    """Resolve the requirement object from --load/--downtime/--job-time."""
    if args.job_time:
        return JobRequirements(Duration.parse(args.job_time))
    if args.load is not None and args.downtime:
        return ServiceRequirements(args.load,
                                   Duration.parse(args.downtime))
    raise AvedError("provide --load with --downtime, or --job-time")


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


@contextlib.contextmanager
def _interruptible(enabled: bool):
    """Convert SIGTERM into KeyboardInterrupt around a search.

    Enabled on the durable/parallel paths (``--checkpoint``,
    ``--jobs``): a service manager's SIGTERM then unwinds through
    :meth:`Aved._design`'s finally block -- checkpoint flushed, worker
    pool shut down cleanly -- and the process exits 130 like a Ctrl-C
    would.  SIGINT already raises KeyboardInterrupt natively; outside
    the main thread (or when disabled) this is a no-op, since signal
    handlers can only be installed from the main thread.
    """
    if not enabled \
            or threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _write_json(path: str, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")


def _write_observability(args, observer) -> None:
    """Write --trace / --metrics-out files from a finished observer.

    Called on the failure paths too: an infeasible search still
    produced a trace and metrics, and those are exactly the runs worth
    inspecting.
    """
    import json
    if getattr(args, "trace", None):
        _write_json(args.trace, observer.tracer.to_json())
    if getattr(args, "metrics_out", None):
        _write_json(args.metrics_out,
                    json.dumps(observer.metrics.snapshot(),
                               indent=2, sort_keys=True))


def cmd_design(args, out) -> int:
    from .obs import Observer, observing
    infrastructure, service = load_models(args)
    requirements = make_requirements(args)
    jobs = resolve_jobs(args)
    cache, cache_verify = resolve_cache(args)
    engine = Aved(infrastructure, service,
                  availability_engine=make_engine(args),
                  limits=make_limits(args),
                  repair_crew=args.repair_crew,
                  checkpoint=make_checkpoint(args),
                  jobs=jobs,
                  task_timeout=args.task_timeout,
                  prune=args.prune,
                  cache=cache,
                  cache_verify=cache_verify,
                  batch=resolve_batch(args))
    observe = bool(args.trace or args.metrics_out)
    observer = Observer() if observe else None
    try:
        with _interruptible(bool(args.checkpoint or jobs)):
            if observer is not None:
                with observing(observer):
                    outcome = engine.design(requirements)
            else:
                outcome = engine.design(requirements)
    except InfeasibleError as exc:
        if observer is not None:
            _write_observability(args, observer)
        print("infeasible: %s" % exc, file=out)
        return 2
    if observer is not None:
        _write_observability(args, observer)
    if args.json:
        import json
        from .core.serialize import evaluation_to_dict
        print(json.dumps(evaluation_to_dict(outcome.evaluation),
                         indent=2, sort_keys=True), file=out)
    else:
        print(outcome.summary(), file=out)
    return 0


def cmd_profile(args, out) -> int:
    """Run one design under the observer and print where time went."""
    from .obs import (Observer, observing, profile_bench_record,
                      profile_table, write_bench_record)
    infrastructure, service = load_models(args)
    requirements = make_requirements(args)
    jobs = resolve_jobs(args)
    cache, cache_verify = resolve_cache(args)
    engine = Aved(infrastructure, service,
                  availability_engine=make_engine(args),
                  limits=make_limits(args),
                  repair_crew=args.repair_crew,
                  jobs=jobs,
                  task_timeout=args.task_timeout,
                  prune=args.prune,
                  cache=cache,
                  cache_verify=cache_verify,
                  batch=resolve_batch(args))
    observer = Observer()
    outcome = None
    infeasible = None
    with observing(observer), _interruptible(bool(jobs)):
        try:
            outcome = engine.design(requirements)
        except InfeasibleError as exc:
            infeasible = exc
    roots = observer.tracer.to_dicts()
    if getattr(args, "trace", None):
        _write_json(args.trace, observer.tracer.to_json())
    print(profile_table(roots, top=args.top), file=out)
    summary = observer.metrics.summary_lines()
    if summary:
        print("", file=out)
        print("counters:", file=out)
        for line in summary:
            print("  %s" % line, file=out)
    if args.bench_out:
        record = profile_bench_record(
            roots, observer.metrics.snapshot(),
            meta={"service": service.name,
                  "requirements": requirements.describe(),
                  "engine": args.engine})
        write_bench_record(args.bench_out, record)
    if infeasible is not None:
        print("", file=out)
        print("infeasible: %s" % infeasible, file=out)
        return 2
    print("", file=out)
    print("designed %s for %s: annual cost $%s, downtime %.1f min/yr"
          % (service.name, requirements.describe(),
             format(round(outcome.annual_cost), ","),
             outcome.downtime_minutes), file=out)
    return 0


def cmd_frontier(args, out) -> int:
    infrastructure, service = load_models(args)
    evaluator = DesignEvaluator(infrastructure, service,
                                engine=make_engine(args),
                                repair_crew=args.repair_crew)
    jobs = resolve_jobs(args)
    cache, cache_verify = resolve_cache(args)
    store = None
    if cache is not None:
        from .cache import TierEvaluationStore, attach_cache
        store = (cache if isinstance(cache, TierEvaluationStore)
                 else TierEvaluationStore(str(cache)))
        if cache_verify and store.verify_sample <= 0:
            store.verify_sample = 8
        evaluator.engine = attach_cache(evaluator.engine, store)
    runtime = None
    if jobs is not None:
        from .parallel import make_runtime
        runtime = make_runtime(evaluator.engine, jobs,
                               task_timeout=args.task_timeout,
                               seed=getattr(args, "seed", 1))
    batcher = None
    if resolve_batch(args):
        from .batch import TierBatcher, batch_target
        target = batch_target(evaluator.engine)
        if target is not None:
            batcher = TierBatcher(target)
    search = TierSearch(evaluator, make_limits(args), runtime=runtime,
                        batcher=batcher)
    try:
        with _interruptible(runtime is not None):
            frontier = search.tier_frontier(args.tier, args.load)
    finally:
        if runtime is not None:
            runtime.close()
    if store is not None and cache_verify:
        from .cache import verify_sampled_hits
        if not verify_sampled_hits(store, evaluator.engine):
            raise AvedError(
                "cache verification mismatch: a sampled hit diverged "
                "from a fresh solve; store %r quarantined" % store.root)
    if not frontier:
        print("no designs can carry load %g on tier %r"
              % (args.load, args.tier), file=out)
        return 2
    print(frontier_table(
        frontier, title="tier %r at load %g" % (args.tier, args.load)),
        file=out)
    return 0


def cmd_validate(args, out) -> int:
    infrastructure, service = load_models(args)
    problems = collect_problems(infrastructure, service)
    if problems:
        print("model pair has %d problem(s):" % len(problems), file=out)
        for problem in problems:
            print("  - %s" % problem, file=out)
        return 2
    print("ok: service %r fits the infrastructure model (%d components, "
          "%d mechanisms, %d resources)"
          % (service.name, len(infrastructure.components),
             len(infrastructure.mechanisms),
             len(infrastructure.resources)), file=out)
    return 0


def cmd_lint(args, out) -> int:
    from .errors import ExpressionError, ModelError, SpecError, UnitError
    from .lint import Diagnostic, LintReport, Span, lint_pair
    try:
        infrastructure, service = load_models(args, validate=False)
    except SpecError as exc:
        # The document never became a model; the parse error is the
        # (single, spanned) finding.
        report = LintReport([Diagnostic.new(
            "AVD001", str(exc),
            span=Span(line=exc.line) if exc.line >= 0 else None)])
    except (ModelError, ExpressionError, UnitError) as exc:
        report = LintReport([Diagnostic.new("AVD002", str(exc))])
    else:
        report = lint_pair(infrastructure, service)
        if args.space and not report.has_errors:
            space = _lint_space(args, infrastructure, service)
            report.extend(space.report)
            if args.format == "json":
                import json
                payload = json.loads(report.to_json())
                payload["space"] = space.to_dict()
                print(json.dumps(payload, indent=2, sort_keys=True),
                      file=out)
            else:
                print(report.to_text(), file=out)
                print("", file=out)
                print(space.to_text(), file=out)
            return report.exit_code(strict=args.strict)
    if args.format == "json":
        print(report.to_json(), file=out)
    else:
        print(report.to_text(), file=out)
    return report.exit_code(strict=args.strict)


def _lint_space(args, infrastructure, service):
    """Run the candidate-space analyzer behind ``repro lint --space``."""
    from .lint import analyze_space
    limits = SearchLimits(max_redundancy=args.max_redundancy,
                          spare_policy=args.spare_policy,
                          fixed_settings=parse_fixed_settings(args.fix))
    downtime = Duration.parse(args.downtime) if args.downtime else None
    return analyze_space(infrastructure, service, limits=limits,
                         load=args.load, max_downtime=downtime)


def cmd_analyze(args, out) -> int:
    from .analysis import downtime_budget_table, tornado_table
    infrastructure, service = load_models(args)
    jobs = resolve_jobs(args)
    cache, cache_verify = resolve_cache(args)
    engine = Aved(infrastructure, service,
                  availability_engine=make_engine(args),
                  limits=make_limits(args),
                  repair_crew=args.repair_crew,
                  jobs=jobs,
                  task_timeout=args.task_timeout,
                  prune=args.prune,
                  cache=cache,
                  cache_verify=cache_verify,
                  batch=resolve_batch(args))
    requirements = ServiceRequirements(args.load,
                                       Duration.parse(args.downtime))
    try:
        with _interruptible(bool(jobs)):
            outcome = engine.design(requirements)
    except InfeasibleError as exc:
        print("infeasible: %s" % exc, file=out)
        return 2
    print(evaluation_summary(outcome.evaluation), file=out)
    evaluator = engine.evaluator
    for tier_design in outcome.design.tiers:
        print("", file=out)
        print(downtime_budget_table(evaluator, tier_design, args.load),
              file=out)
        print("", file=out)
        print(tornado_table(evaluator, tier_design,
                            required_throughput=args.load), file=out)
    if len(outcome.design.tiers) == 1:
        from .core import explain_tier_choice
        explanation = explain_tier_choice(
            evaluator, outcome.design.tiers[0].tier, args.load,
            requirements.max_annual_downtime, make_limits(args))
        print("", file=out)
        print("decision neighborhood:", file=out)
        print(explanation.render(), file=out)
    return 0


def cmd_cache(args, out) -> int:
    """Inspect or maintain a persistent tier-evaluation store.

    Always emits JSON (the ``CACHE_STATUS_SCHEMA`` contract in
    :mod:`repro.contracts`), so scripts and CI legs can gate on it.
    """
    import json
    from .cache import TierEvaluationStore
    root = args.dir or os.environ.get("REPRO_CACHE", "").strip()
    if not root:
        raise AvedError("provide a store directory (or set REPRO_CACHE)")
    if not os.path.isdir(root):
        raise AvedError("no tier-evaluation store at %r" % root)
    store = TierEvaluationStore(root, scrub=False)
    payload = {"action": args.action}
    code = 0
    if args.action == "verify":
        result = store.verify_all()
        payload["verify"] = result
        if result["corrupt"] or os.path.exists(store.marker_path):
            code = 1
    elif args.action == "purge":
        payload["removed"] = store.purge()
    payload["store"] = store.stats()
    print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    return code


def cmd_serve(args, out) -> int:
    """Boot the design service daemon and block until drained."""
    from .serve import DesignDaemon, ServeConfig
    config = ServeConfig(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        wait_budget=args.wait_budget,
        default_deadline=args.default_deadline,
        max_deadline=args.max_deadline,
        engine=args.engine,
        jobs=args.jobs,
        task_timeout=args.task_timeout,
        drain_grace=args.drain_grace,
        io_timeout=args.io_timeout,
        checkpoint_interval=args.checkpoint_interval,
        fsync=not args.no_fsync,
        allow_test_faults=args.allow_test_faults,
        cache_dir=resolve_cache(args)[0],
        cache_verify=args.cache_verify,
        seed=args.seed,
        watch_telemetry=tuple(args.watch_telemetry),
        watch_tier=args.watch_tier,
        watch_load=args.watch_load,
        watch_downtime_minutes=(
            Duration.parse(args.watch_downtime).as_minutes
            if args.watch_downtime else None),
        watch_interval=args.watch_interval,
        watch_infrastructure=args.watch_infrastructure,
        watch_service=args.watch_service,
        watch_paper=args.watch_paper,
        map_path=args.map)
    daemon = DesignDaemon(config)
    print("serving on %s (data dir %s)" % (daemon.url, args.data_dir),
          file=out)
    out.flush()
    code = daemon.run(install_signals=True)
    print("drained; exiting %d" % code, file=out)
    return code


def cmd_watch(args, out) -> int:
    """Run the drift-aware continuous redesign loop.

    Tails the given telemetry streams, re-estimates MTTF/MTTR/load
    online, and re-searches the tier design whenever the observations
    statistically contradict the spec the incumbent was solved for.
    With ``--json`` the final status document follows the
    ``WATCH_STATUS_SCHEMA`` contract in :mod:`repro.contracts`.

    Exit codes: 0 = watching ended with a feasible incumbent,
    2 = no feasible incumbent, 130 = interrupted (SIGINT/SIGTERM),
    1 = model or option errors.
    """
    import json
    import time
    from .core import DesignEvaluator
    from .watch import DriftPolicy, JsonlTailReader, Watcher, WatchSpec
    if not args.telemetry:
        raise AvedError("provide at least one --telemetry FILE")
    infrastructure, service = load_models(args)
    evaluator = DesignEvaluator(infrastructure, service,
                                make_engine(args),
                                args.repair_crew)
    policy = DriftPolicy(confidence=args.confidence,
                         min_failures=args.min_failures,
                         min_repairs=args.min_repairs,
                         min_load_samples=args.min_load_samples,
                         debounce=args.debounce,
                         cooldown=args.cooldown)
    spec = WatchSpec(args.tier, args.load,
                     Duration.parse(args.downtime))
    watcher = Watcher(
        evaluator, spec,
        readers=[JsonlTailReader(path) for path in args.telemetry],
        policy=policy,
        limits=make_limits(args),
        journal_path=args.journal,
        checkpoint_path=args.checkpoint,
        cache_dir=resolve_cache(args)[0],
        hysteresis=args.hysteresis,
        load_window=args.load_window)
    if args.test_redesign_delay:
        inner = watcher._search

        def slow_search(spec):
            if watcher.epoch:  # boot stays fast; redesigns dawdle
                time.sleep(args.test_redesign_delay)
            return inner(spec)

        watcher._search = slow_search  # type: ignore[method-assign]
    status = None
    with _interruptible(True):
        watcher.start()
        polls = 0
        while args.max_polls is None or polls < args.max_polls:
            status = watcher.poll()
            polls += 1
            if args.max_polls is not None and polls >= args.max_polls:
                break
            time.sleep(args.poll_interval)
    if status is None:
        status = watcher.status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True), file=out)
    else:
        incumbent = status["incumbent"]
        if incumbent is None:
            print("tier %r: no feasible incumbent" % args.tier, file=out)
        else:
            print("tier %r: %s n=%d s=%d  $%s/yr  epoch %d  "
                  "polls %d  reconfigurations %d"
                  % (args.tier, incumbent["resource"],
                     incumbent["n_active"], incumbent["n_spare"],
                     format(incumbent["annual_cost"], ",.0f"),
                     status["epoch"], status["polls"],
                     status["reconfigurations"]), file=out)
        if status["quarantined"]:
            print("quarantined records: %d" % status["quarantined"],
                  file=out)
    return 0 if status["incumbent"] is not None else 2


def _parse_loads(text: str) -> tuple:
    """``--loads``: comma-separated values or START:STOP:STEP."""
    text = (text or "").strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise AvedError("--loads range must be START:STOP:STEP, "
                            "got %r" % text)
        try:
            start, stop, step = (float(part) for part in parts)
        except ValueError:
            raise AvedError("--loads range values must be numbers, "
                            "got %r" % text)
        if step <= 0:
            raise AvedError("--loads range STEP must be positive")
        if stop < start:
            raise AvedError("--loads range STOP must be >= START")
        loads = []
        value = start
        while value <= stop * (1 + 1e-12) + 1e-12:
            loads.append(value)
            value = start + step * len(loads)
        return tuple(loads)
    try:
        loads = tuple(float(part) for part in text.split(",")
                      if part.strip())
    except ValueError:
        raise AvedError("--loads must be comma-separated numbers or a "
                        "START:STOP:STEP range, got %r" % text)
    if not loads:
        raise AvedError("--loads is empty")
    return loads


def cmd_map(args, out) -> int:
    if args.action == "build":
        return _cmd_map_build(args, out)
    if args.action == "status":
        return _cmd_map_status(args, out)
    return _cmd_map_serve(args, out)


def _cmd_map_build(args, out) -> int:
    """Build (or resume) a sharded requirement-space map.

    Exit codes: 0 = complete map written, 2 = partial map written
    (convicted cells excluded), 130 = interrupted (the journal makes
    re-running the same command resume, reusing finished shards).
    """
    import json
    from .core.serialize import requirement_map_to_json
    from .grid import (GridBuildInterrupted, GridBuilder, GridFaultPlan,
                       GridPolicy, GridSpec)
    infrastructure, service = load_models(args)
    evaluator = DesignEvaluator(infrastructure, service,
                                engine=make_engine(args),
                                repair_crew=args.repair_crew)
    cache, cache_verify = resolve_cache(args)
    if cache is not None:
        from .cache import TierEvaluationStore, attach_cache
        store = TierEvaluationStore(str(cache))
        if cache_verify and store.verify_sample <= 0:
            store.verify_sample = 8
        evaluator.engine = attach_cache(evaluator.engine, store)
    spec = GridSpec(args.tier, _parse_loads(args.loads),
                    shard_size=args.shard_size)
    policy = GridPolicy(lease_seconds=args.lease_seconds,
                        shard_retries=args.shard_retries,
                        cell_retries=args.cell_retries,
                        seed=args.seed)
    fault_plan = None
    if (args.test_fault_rate is not None
            or args.test_kill_after_shards is not None
            or args.test_poison_load):
        fault_plan = GridFaultPlan(
            seed=args.test_fault_seed,
            fault_rate=(args.test_fault_rate
                        if args.test_fault_rate is not None else 0.0),
            poison_loads=frozenset(args.test_poison_load),
            kill_after_shards=args.test_kill_after_shards)
    builder = GridBuilder(evaluator, spec, limits=make_limits(args),
                          journal_path=args.journal, policy=policy,
                          fault_plan=fault_plan)
    try:
        with _interruptible(True):
            space_map = builder.build()
    except GridBuildInterrupted as exc:
        print("build interrupted: %s" % exc, file=out)
        if args.journal:
            print("finished shards are journaled; re-run the same "
                  "command to resume", file=out)
        return 130
    _write_json(args.out, requirement_map_to_json(space_map))
    status = builder.status()
    status["map_path"] = args.out
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True), file=out)
    else:
        shards = status["shards"]
        print("map %s: tier %r, %d/%d loads built (%d shard(s), "
              "%d reused, %d fault(s), %d convicted cell(s)) -> %s"
              % (status["state"], spec.tier, status["loads_built"],
                 status["loads_total"], shards["total"],
                 shards["reused"], shards["faults"],
                 len(status["convicted_cells"]), args.out), file=out)
        for cell in status["convicted_cells"]:
            print("  convicted: load %g (%s)"
                  % (cell["load"], cell["reason"]), file=out)
    return 0 if status["state"] == "complete" else 2


def _cmd_map_status(args, out) -> int:
    import json
    from .grid import GridSpec, served_status
    grid_key = None
    if args.journal:
        if not (args.tier and args.loads):
            raise AvedError("--journal requires --tier and --loads to "
                            "identify the grid")
        grid_key = GridSpec(args.tier, _parse_loads(args.loads)).key()
    status, code = served_status(args.map, args.journal, grid_key)
    print(json.dumps(status, indent=2, sort_keys=True), file=out)
    return code


def _cmd_map_serve(args, out) -> int:
    """A map-serving daemon: the full service with a map mounted."""
    from .serve import DesignDaemon, ServeConfig
    config = ServeConfig(data_dir=args.data_dir, host=args.host,
                         port=args.port, workers=args.workers,
                         io_timeout=args.io_timeout,
                         map_path=args.map)
    daemon = DesignDaemon(config)
    print("serving map %s on %s (data dir %s)"
          % (args.map, daemon.url, args.data_dir), file=out)
    out.flush()
    code = daemon.run(install_signals=True)
    print("drained; exiting %d" % code, file=out)
    return code


def cmd_describe(args, out) -> int:
    from .core.report import describe_infrastructure, describe_service
    infrastructure, service = load_models(args)
    print(describe_infrastructure(infrastructure), file=out)
    print("", file=out)
    print(describe_service(service), file=out)
    return 0


_COMMANDS = {
    "design": cmd_design,
    "frontier": cmd_frontier,
    "validate": cmd_validate,
    "lint": cmd_lint,
    "analyze": cmd_analyze,
    "describe": cmd_describe,
    "profile": cmd_profile,
    "cache": cmd_cache,
    "serve": cmd_serve,
    "watch": cmd_watch,
    "map": cmd_map,
}


def main(argv: Optional[list] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except BrokenPipeError:
        return 0  # e.g. output piped into `head`
    except KeyboardInterrupt:
        # SIGINT, or SIGTERM via _interruptible: durable state (the
        # checkpoint, the worker pool) was already flushed/closed on
        # the way out by Aved's finally block.
        print("interrupted; search state checkpointed where enabled",
              file=out)
        return 130
    except AvedError as exc:
        print("error: %s" % exc, file=out)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
