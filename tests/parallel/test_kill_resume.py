"""Crash-safe checkpointing under the parallel runtime.

A search records every merged wavefront; at ``interval=1`` it also
saves after each one.  These tests kill a ``jobs=2`` search mid-batch
(the autosave itself raises, as a hard kill between write and return
would), verify the on-disk checkpoint is still a torn-free valid
snapshot, and resume it under a *different* ``--jobs`` value to the
same minimum-cost design.
"""

import json

import pytest

from repro.core import Aved
from repro.model import ServiceRequirements
from repro.resilience import SearchCheckpoint
from repro.units import Duration

REQUIREMENTS = ServiceRequirements(1000, Duration.minutes(100))


class _KillingCheckpoint(SearchCheckpoint):
    """Raises (simulating a hard kill) on the Nth prefetch batch.

    The kill fires *before* the batch is recorded, so the batch in
    flight is lost -- exactly what a SIGKILL between merge and
    autosave would leave behind.
    """

    def __init__(self, path, kill_on_batch):
        super().__init__(path, interval=1)
        self.kill_on_batch = kill_on_batch
        self.batches = 0

    def record_batch(self, pairs):
        self.batches += 1
        if self.batches == self.kill_on_batch:
            raise KeyboardInterrupt("simulated kill mid-batch")
        super().record_batch(pairs)


class TestKillAndResume:
    @pytest.fixture(scope="class")
    def clean_outcome(self, paper_infra, app_tier_service):
        return Aved(paper_infra, app_tier_service).design(REQUIREMENTS)

    def test_killed_parallel_search_resumes_under_other_jobs(
            self, paper_infra, app_tier_service, clean_outcome,
            tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ck") / "parallel.json")
        checkpoint = _KillingCheckpoint(path, kill_on_batch=3)
        engine = Aved(paper_infra, app_tier_service,
                      checkpoint=checkpoint, jobs=2)
        with pytest.raises(KeyboardInterrupt):
            engine.design(REQUIREMENTS)
        assert checkpoint.batches == 3

        # Atomic replace: whatever the kill interrupted, the file on
        # disk is a complete, valid snapshot of the prior batches.
        with open(path) as handle:
            snapshot = json.load(handle)
        assert snapshot["availability_cache"]

        # Resume under a different worker count (and again serially).
        for jobs in (4, None):
            resumed = SearchCheckpoint.load(path)
            outcome = Aved(paper_infra, app_tier_service,
                           checkpoint=resumed, jobs=jobs) \
                .design(REQUIREMENTS)
            assert outcome.annual_cost == clean_outcome.annual_cost
            assert outcome.design.describe() == \
                clean_outcome.design.describe()
            assert outcome.stats.resumed_evaluations > 0

    def test_resumed_run_notes_avd308(self, paper_infra,
                                      app_tier_service, tmp_path):
        path = str(tmp_path / "ck.json")
        engine = Aved(paper_infra, app_tier_service,
                      checkpoint=SearchCheckpoint(path), jobs=2)
        engine.design(REQUIREMENTS)
        outcome = Aved(paper_infra, app_tier_service,
                       checkpoint=SearchCheckpoint.load(path),
                       jobs=2).design(REQUIREMENTS)
        codes = [diag.code for diag in (outcome.degradation or [])]
        assert "AVD308" in codes
