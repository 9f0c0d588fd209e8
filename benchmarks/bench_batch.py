"""The stacked wavefront solver on the paper's e-commerce design.

Every search solves its candidates in stacked wavefronts (see
``docs/BATCHING.md``).  This bench records what a cold design costs
and what the solver did: wavefronts, their members and the stacked
LAPACK calls.  Those counters are deterministic, so a regression
shows up in them exactly, where wall time only varies.  It also checks the outcome is identical
JSON to a per-candidate run on the DFS chain builder, across serial,
supervised (``jobs``) and cached runs.
"""

import json
import statistics
import time

import pytest

from repro.availability import AvailabilityEngine, markov
from repro.core import Aved
from repro.core.serialize import evaluation_to_dict
from repro.model import ServiceRequirements
from repro.obs import observing
from repro.spec.paper import ecommerce_service
from repro.units import Duration

from .conftest import write_bench_json, write_report

REQUIREMENTS = ServiceRequirements(1000.0, Duration.minutes(100))


class DfsReference(AvailabilityEngine):
    """The DFS chain builder, one candidate per call."""

    name = "markov"

    def evaluate_tier(self, model):
        return markov.evaluate_tier(model)


def canonical(outcome):
    return json.dumps(evaluation_to_dict(outcome.evaluation),
                      sort_keys=True)


def time_design(infrastructure, service, **kwargs):
    started = time.perf_counter()
    outcome = Aved(infrastructure, service,
                   **kwargs).design(REQUIREMENTS)
    return time.perf_counter() - started, outcome


def solver_counters(infrastructure, service):
    """The wavefront counters of one observed design run."""
    with observing() as obs:
        outcome = Aved(infrastructure, service).design(REQUIREMENTS)
    counters = obs.metrics.snapshot()["counters"]
    return {"wavefronts": outcome.stats.batched_wavefronts,
            "members": counters.get("batch.members", 0),
            "lapack_calls": counters.get("batch.lapack_calls", 0),
            "solves": outcome.stats.availability_evaluations}


@pytest.fixture(scope="module")
def batch_report(smoke, paper_infra):
    ecommerce = ecommerce_service()
    reps = 3 if smoke else 10
    time_design(paper_infra, ecommerce)   # warm the code
    seconds = sorted(time_design(paper_infra, ecommerce)[0]
                     for _ in range(reps))
    counters = [solver_counters(paper_infra, ecommerce)
                for _ in range(2)]
    p50 = statistics.median(seconds)
    lines = [
        "stacked wavefront solves: cold designs "
        "(e-commerce, 1000 users, 100 min)",
        "",
        "design:       p50 %7.1f ms, min %7.1f ms, max %7.1f ms over %d"
        % (p50 * 1e3, seconds[0] * 1e3, seconds[-1] * 1e3, reps),
        "wavefronts:   %d (%d members, %d stacked LAPACK calls, "
        "%d solves)"
        % (counters[0]["wavefronts"], counters[0]["members"],
           counters[0]["lapack_calls"], counters[0]["solves"]),
    ]
    write_bench_json("batch",
                     {"design_seconds": seconds, "p50_seconds": p50,
                      "counters": counters[0]},
                     meta={"reps": reps}, smoke=smoke)
    write_report("batch.txt", "\n".join(lines))
    return counters


def test_wavefront_counters_are_deterministic(batch_report):
    first, second = batch_report
    assert first == second
    assert first["wavefronts"] > 0
    assert first["lapack_calls"] > 0
    # The solver sees every wavefront member, plus the three tiers of
    # the chosen design when it is verified.
    assert first["members"] == first["solves"] + 3


def test_batched_outcomes_identical_across_modes(tmp_path, paper_infra):
    """Wavefront == DFS-reference JSON across jobs 1/2 and cache
    off/cold/warm."""
    ecommerce = ecommerce_service()
    _, baseline = time_design(paper_infra, ecommerce,
                              availability_engine=DfsReference())
    expected = canonical(baseline)
    root = str(tmp_path / "store")
    variants = [
        dict(),
        dict(jobs=1),
        dict(jobs=2),
        dict(cache=root),   # cold store
        dict(cache=root),   # warm store
    ]
    for kwargs in variants:
        _, outcome = time_design(paper_infra, ecommerce, **kwargs)
        assert canonical(outcome) == expected, (
            "wavefront outcome drifted from the DFS reference under %r"
            % (kwargs,))
