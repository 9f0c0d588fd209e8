"""Search counters say what the search did, whatever served the solves.

``cache_hits`` counts reads of a value the search already had: solved
by an earlier wavefront, read before, or carried over from a
checkpoint.  The first read of a value the current wavefront solved is
the solve itself, not a hit, so the counts equal those of a search
that solved each candidate when it first needed it.  The wavefront
counters count members however they were served, so a warm persistent
cache leaves every statistic unchanged.
"""

import dataclasses

import pytest

from repro.core import Aved, SearchLimits, SearchStats
from repro.model import JobRequirements, ServiceRequirements
from repro.units import Duration

SERVICE_REQ = ServiceRequirements(1000, Duration.minutes(100))
#: The Fig. 7 sweep's flags at a 20h job time.
JOB_LIMITS = SearchLimits(
    max_redundancy=12,
    fixed_settings={"maintenanceA": {"level": "bronze"},
                    "maintenanceB": {"level": "bronze"}})
JOB_REQ = JobRequirements(Duration.hours(20))


@pytest.mark.parametrize("jobs", [None, 2])
def test_ecommerce_design_reads_no_hits(paper_infra, ecommerce, jobs):
    stats = Aved(paper_infra, ecommerce, jobs=jobs) \
        .design(SERVICE_REQ).stats
    assert stats.cache_hits == 0
    assert stats.availability_evaluations == 1116
    assert stats.batched_solves == 1116


@pytest.mark.parametrize("jobs", [None, 2])
def test_job_sweep_hits_are_rereads(paper_infra, scientific, jobs):
    stats = Aved(paper_infra, scientific, limits=JOB_LIMITS, jobs=jobs) \
        .design(JOB_REQ).stats
    assert stats.cache_hits == 3913


#: The Fig. 7 sweep's work at four job-time deadlines (hours), as
#: (structures, solves, cache hits, job-time evaluations, cost-pruned
#: settings, wavefronts).  Every solve is a wavefront member; with a
#: worker pool, every wavefront is also a pool batch.
JOB_SWEEP_WORK = {
    2: (6, 6, 1505, 1510, 302, 3),
    10: (92, 92, 27692, 27784, 0, 14),
    20: (15, 15, 3913, 3926, 604, 5),
    1000: (1, 1, 301, 302, 0, 1),
}


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("hours", sorted(JOB_SWEEP_WORK))
def test_job_sweep_counters_are_pinned(paper_infra, scientific, hours,
                                       jobs):
    structures, solves, hits, job_evals, pruned, wavefronts = \
        JOB_SWEEP_WORK[hours]
    expected = SearchStats(
        structures_enumerated=structures,
        availability_evaluations=solves, cost_pruned=pruned,
        cache_hits=hits, job_time_evaluations=job_evals,
        parallel_batches=wavefronts if jobs else 0,
        batched_wavefronts=wavefronts, batched_solves=solves)
    stats = Aved(paper_infra, scientific, limits=JOB_LIMITS, jobs=jobs) \
        .design(JobRequirements(Duration.hours(hours))).stats
    assert dataclasses.asdict(stats) == dataclasses.asdict(expected)


def test_resumed_values_read_as_hits(paper_infra, app_tier_service,
                                     tmp_path):
    from repro.resilience import SearchCheckpoint
    path = str(tmp_path / "search.json")
    first = Aved(paper_infra, app_tier_service,
                 checkpoint=SearchCheckpoint(path)).design(SERVICE_REQ)
    resumed = Aved(paper_infra, app_tier_service,
                   checkpoint=SearchCheckpoint.load(path)) \
        .design(SERVICE_REQ)
    assert first.stats.cache_hits == 0
    assert resumed.stats.availability_evaluations == 0
    # Every candidate the decision loop reads is a carried-over value.
    reads = (resumed.stats.structures_enumerated
             - resumed.stats.cost_pruned)
    assert reads > 0
    assert resumed.stats.cache_hits == reads


def test_pooled_stats_do_not_depend_on_cache_state(paper_infra,
                                                   app_tier_service,
                                                   tmp_path):
    root = str(tmp_path / "store")
    runs = [Aved(paper_infra, app_tier_service, jobs=2, cache=cache)
            .design(SERVICE_REQ).stats
            for cache in (None, root, root)]     # off, cold, warm
    off, cold, warm = (dataclasses.asdict(stats) for stats in runs)
    assert off["batched_solves"] > 0
    assert cold == off
    assert warm == off
