"""Unit tests for search checkpointing (save, load, resume)."""

import json
import os

import pytest

from repro.core import DesignEvaluator, TierSearch
from repro.errors import CheckpointError
from repro.resilience import SearchCheckpoint


class TestRecording:
    def test_round_trip_preserves_tuple_keys(self, tmp_path):
        path = str(tmp_path / "ck.json")
        checkpoint = SearchCheckpoint(path)
        key = ("app", "rC", 6, 0, (), (("maintenanceA",
                                        (("level", "gold"),)),), 1000.0)
        checkpoint.record_evaluation(key, 1.25e-4)
        checkpoint.save()
        loaded = SearchCheckpoint.load(path)
        assert loaded.resumed
        assert loaded.resumed_evaluations == 1
        cache = {}
        assert loaded.seed_cache(cache) == 1
        assert cache[key] == 1.25e-4

    def test_duplicate_keys_recorded_once(self):
        checkpoint = SearchCheckpoint()
        checkpoint.record_evaluation(("a",), 0.5)
        checkpoint.record_evaluation(("a",), 0.5)
        assert checkpoint.evaluations == 1

    def test_autosave_every_interval(self, tmp_path):
        path = str(tmp_path / "ck.json")
        checkpoint = SearchCheckpoint(path, interval=2)
        checkpoint.record_evaluation(("a",), 0.1)
        assert not os.path.exists(path)
        checkpoint.record_evaluation(("b",), 0.2)
        assert os.path.exists(path)

    def test_flush_writes_pending(self, tmp_path):
        path = str(tmp_path / "ck.json")
        checkpoint = SearchCheckpoint(path, interval=100)
        checkpoint.record_evaluation(("a",), 0.1)
        assert not os.path.exists(path)
        checkpoint.flush()
        assert SearchCheckpoint.load(path).evaluations == 1

    def test_pathless_checkpoint_is_in_memory(self):
        checkpoint = SearchCheckpoint()
        checkpoint.record_evaluation(("a",), 0.1)
        checkpoint.flush()  # no-op, must not raise
        with pytest.raises(CheckpointError):
            checkpoint.save()

    def test_interval_must_be_positive(self):
        with pytest.raises(CheckpointError):
            SearchCheckpoint(interval=0)

    def test_record_batch_saves_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.json")
        checkpoint = SearchCheckpoint(path, interval=1)
        saves = []
        original = SearchCheckpoint.save

        def counting_save(self, target=None):
            saves.append(1)
            return original(self, target)

        monkeypatch.setattr(SearchCheckpoint, "save", counting_save)
        checkpoint.record_batch([(("a",), 0.1), (("b",), 0.2),
                                 (("c",), 0.3)])
        assert len(saves) == 1  # one batch, one write
        assert SearchCheckpoint.load(path).evaluations == 3

    def test_record_batch_skips_known_keys(self, tmp_path):
        path = str(tmp_path / "ck.json")
        checkpoint = SearchCheckpoint(path)
        checkpoint.record_batch([(("a",), 0.1)])
        checkpoint.record_batch([(("a",), 0.1)])  # no-op: no new keys
        assert checkpoint.evaluations == 1

    def test_empty_batch_does_not_save(self, tmp_path):
        path = str(tmp_path / "ck.json")
        SearchCheckpoint(path).record_batch([])
        assert not os.path.exists(path)


class TestAtomicReplace:
    def test_failed_write_leaves_previous_snapshot_intact(
            self, tmp_path, monkeypatch):
        """A crash mid-write (simulated: json.dump raises) must leave
        the last complete snapshot on disk, loadable, with no temp
        litter -- the property the kill-and-resume workflow rests on."""
        path = str(tmp_path / "ck.json")
        checkpoint = SearchCheckpoint(path)
        checkpoint.record_batch([(("a",), 0.1)])
        checkpoint.flush()

        def exploding_dump(*args, **kwargs):
            raise KeyboardInterrupt("killed mid-write")

        monkeypatch.setattr(json, "dump", exploding_dump)
        checkpoint.record_evaluation(("b",), 0.2)
        with pytest.raises(KeyboardInterrupt):
            checkpoint.save()
        monkeypatch.undo()

        loaded = SearchCheckpoint.load(path)
        assert loaded.evaluations == 1  # the pre-kill snapshot
        cache = {}
        loaded.seed_cache(cache)
        assert cache == {("a",): 0.1}
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if name.startswith(".checkpoint-")]
        assert leftovers == []


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            SearchCheckpoint.load(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            SearchCheckpoint.load(str(path))

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointError, match="version"):
            SearchCheckpoint.load(str(path))

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError):
            SearchCheckpoint.load(str(path))

    def test_malformed_cache_entry(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "version": 1,
            "availability_cache": [[["k"], "not-a-number"]],
            "tier_frontiers": {}}))
        with pytest.raises(CheckpointError, match="malformed"):
            SearchCheckpoint.load(str(path))

    def test_malformed_frontiers(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "version": 1, "availability_cache": [],
            "tier_frontiers": [1]}))
        with pytest.raises(CheckpointError, match="malformed"):
            SearchCheckpoint.load(str(path))

    def test_save_failure_raises(self, tmp_path):
        target = tmp_path / "dir-not-file"
        target.mkdir()
        checkpoint = SearchCheckpoint(str(target))
        checkpoint.record_evaluation(("a",), 0.1)
        with pytest.raises(CheckpointError, match="cannot save"):
            checkpoint.save()


class TestSearchIntegration:
    def test_resumed_search_replays_solves(self, tmp_path, paper_infra,
                                           app_tier_service):
        path = str(tmp_path / "ck.json")
        evaluator = DesignEvaluator(paper_infra, app_tier_service)
        first = TierSearch(evaluator,
                           checkpoint=SearchCheckpoint(path, interval=5))
        frontier = first.tier_frontier("application", 1000.0)
        assert first.stats.availability_evaluations > 0
        assert first.stats.resumed_frontiers == 0

        loaded = SearchCheckpoint.load(path)
        assert loaded.completed_tiers == ("application",)
        second = TierSearch(DesignEvaluator(paper_infra,
                                            app_tier_service),
                            checkpoint=loaded)
        resumed = second.tier_frontier("application", 1000.0)
        assert second.stats.availability_evaluations == 0
        assert second.stats.resumed_frontiers == 1
        assert second.stats.resumed_evaluations == \
            first.stats.availability_evaluations
        assert [(c.annual_cost, c.unavailability) for c in resumed] == \
            [(c.annual_cost, c.unavailability) for c in frontier]

    def test_stale_load_frontier_ignored(self, tmp_path, paper_infra,
                                         app_tier_service):
        path = str(tmp_path / "ck.json")
        evaluator = DesignEvaluator(paper_infra, app_tier_service)
        search = TierSearch(evaluator,
                            checkpoint=SearchCheckpoint(path))
        search.tier_frontier("application", 1000.0)
        loaded = SearchCheckpoint.load(path)
        assert loaded.frontier_for("application", 400.0,
                                   paper_infra) is None
        assert loaded.frontier_for("web", 1000.0, paper_infra) is None

    def test_frontier_against_wrong_infrastructure(
            self, tmp_path, paper_infra, app_tier_service, tiny_infra):
        path = str(tmp_path / "ck.json")
        evaluator = DesignEvaluator(paper_infra, app_tier_service)
        search = TierSearch(evaluator,
                            checkpoint=SearchCheckpoint(path))
        search.tier_frontier("application", 1000.0)
        loaded = SearchCheckpoint.load(path)
        with pytest.raises(CheckpointError, match="does not fit"):
            loaded.frontier_for("application", 1000.0, tiny_infra)
