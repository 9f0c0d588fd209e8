"""Shared fixtures and report output for the benchmark harness.

Each ``bench_*`` file regenerates one of the paper's tables/figures.
Numeric series are printed and also written to ``benchmarks/out/`` so
the reproduction can be diffed against the paper's reported shapes
without re-running.

``pytest benchmarks --smoke`` runs every benchmark with shrunken
budgets (short simulations, few loads, low redundancy) -- minutes
become seconds, so CI can exercise the full harness on every push.
Smoke numbers are NOT comparable to full-run numbers; artifacts
written during a smoke run carry ``"smoke": true`` in their meta.

Machine-readable results go to ``benchmarks/out/BENCH_<name>.json``
via :func:`write_bench_json`, using the shared
:func:`repro.obs.bench_record` envelope.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

import pytest

from repro.availability import FailureModeEntry, TierAvailabilityModel
from repro.model import ServiceModel
from repro.obs import bench_record, write_bench_record
from repro.spec.paper import (ecommerce_service, paper_infrastructure,
                              scientific_service)
from repro.units import Duration

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def pytest_addoption(parser):
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="run benchmarks with tiny budgets (CI smoke mode); "
             "results are indicative only")


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    return request.config.getoption("--smoke")


@pytest.fixture
def full_sweep(smoke):
    """Skip assertions that only hold for the full (non-smoke) sweep."""
    if smoke:
        pytest.skip("needs the full sweep; not run under --smoke")


def write_report(name: str, text: str) -> str:
    """Write a figure/table report under benchmarks/out/ and echo it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
    print()
    print("--- %s ---" % name)
    print(text)
    return path


def benchmark_models():
    """Tier structures spanning the paper's search space shapes (the
    per-solve overhead benchmarks time engines over these)."""
    def modes(mtbf_days, mttr_hours, failover_minutes):
        return (FailureModeEntry("hard", Duration.days(mtbf_days),
                                 Duration.hours(mttr_hours),
                                 Duration.minutes(failover_minutes)),
                FailureModeEntry("soft", Duration.days(mtbf_days / 10),
                                 Duration.ZERO,
                                 Duration.minutes(failover_minutes),
                                 spare_susceptible=False))
    return [
        TierAvailabilityModel("small", n=2, m=2, s=0,
                              modes=modes(200, 24, 5)),
        TierAvailabilityModel("mid", n=6, m=4, s=2,
                              modes=modes(100, 12, 8)),
        TierAvailabilityModel("large", n=12, m=10, s=3,
                              modes=modes(400, 48, 10)),
    ]


def write_bench_json(name: str, results: Dict[str, Any],
                     meta: Optional[Dict[str, Any]] = None,
                     smoke: bool = False) -> str:
    """Write ``benchmarks/out/BENCH_<name>.json`` (shared envelope)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    merged = dict(meta or {})
    merged["smoke"] = smoke
    record = bench_record(name, results, meta=merged)
    return write_bench_record(
        os.path.join(OUT_DIR, "BENCH_%s.json" % name), record)


@pytest.fixture(scope="session")
def paper_infra():
    return paper_infrastructure()


@pytest.fixture(scope="session")
def app_tier_service():
    return ServiceModel("app-tier",
                        [ecommerce_service().tier("application")])


@pytest.fixture(scope="session")
def scientific():
    return scientific_service()
