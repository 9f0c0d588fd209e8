"""Wavefront search == per-candidate DFS reference, end to end.

Every search solves its candidates in stacked wavefronts.  The
reference here is an engine without a wavefront method of its own: it
solves each candidate through the DFS chain builder of
:mod:`repro.availability.markov`, one at a time, via the base class's
``evaluate_tiers`` loop.  The serialized outcome must be *identical
JSON* across serial, supervised (``jobs``) and cached runs.
"""

import json

import pytest

from repro.availability import AvailabilityEngine, MarkovEngine, markov
from repro.cache import CachedEngine, TierEvaluationStore
from repro.core import Aved
from repro.core.serialize import evaluation_to_dict
from repro.model import ServiceRequirements
from repro.units import Duration

REQUIREMENTS = ServiceRequirements(1000, Duration.minutes(100))


class DfsReference(AvailabilityEngine):
    """The DFS chain builder, one candidate per call."""

    name = "markov"

    def evaluate_tier(self, model):
        return markov.evaluate_tier(model)


class PerModelCached(CachedEngine):
    """A cached engine that looks up and solves one model per call."""

    evaluate_tiers = AvailabilityEngine.evaluate_tiers


def per_model_cached(store):
    return PerModelCached(DfsReference(), store, "markov@1")


def canonical(outcome):
    return json.dumps(evaluation_to_dict(outcome.evaluation),
                      sort_keys=True)


@pytest.fixture(scope="module")
def scalar_outcome(paper_infra, ecommerce):
    return Aved(paper_infra, ecommerce,
                availability_engine=DfsReference()).design(REQUIREMENTS)


class TestSerialBatchIdentity:
    def test_design_json_identical(self, paper_infra, ecommerce,
                                   scalar_outcome):
        batched = Aved(paper_infra, ecommerce).design(REQUIREMENTS)
        assert canonical(batched) == canonical(scalar_outcome)

    def test_batched_stats_are_populated(self, paper_infra, ecommerce):
        batched = Aved(paper_infra, ecommerce).design(REQUIREMENTS)
        assert batched.stats.batched_wavefronts > 0
        assert batched.stats.batched_solves > 0
        assert batched.stats.batched_solves <= \
            batched.stats.availability_evaluations

    def test_no_degradation_on_the_happy_path(self, paper_infra,
                                              ecommerce):
        batched = Aved(paper_infra, ecommerce).design(REQUIREMENTS)
        assert not batched.degraded


class TestSupervisedBatchIdentity:
    def test_jobs_1_batched_identical(self, paper_infra, ecommerce,
                                      scalar_outcome):
        batched = Aved(paper_infra, ecommerce,
                       jobs=1).design(REQUIREMENTS)
        assert canonical(batched) == canonical(scalar_outcome)

    def test_jobs_2_batched_identical(self, paper_infra, ecommerce,
                                      scalar_outcome):
        batched = Aved(paper_infra, ecommerce,
                       jobs=2).design(REQUIREMENTS)
        assert canonical(batched) == canonical(scalar_outcome)
        assert batched.stats.parallel_batches > 0


class TestCachedBatchIdentity:
    def test_cold_and_warm_identical(self, tmp_path, paper_infra,
                                     ecommerce, scalar_outcome):
        root = str(tmp_path / "store")
        cold = Aved(paper_infra, ecommerce,
                    cache=root).design(REQUIREMENTS)
        warm = Aved(paper_infra, ecommerce,
                    cache=root).design(REQUIREMENTS)
        assert canonical(cold) == canonical(scalar_outcome)
        assert canonical(warm) == canonical(scalar_outcome)

    def test_batched_store_serves_scalar_runs(self, tmp_path,
                                              paper_infra, ecommerce,
                                              scalar_outcome):
        """A store filled by wavefronts must warm a run that looks up
        one model at a time: entries are per-model, not per-path."""
        root = str(tmp_path / "store")
        Aved(paper_infra, ecommerce, cache=root).design(REQUIREMENTS)
        store = TierEvaluationStore(root)
        scalar_warm = Aved(paper_infra, ecommerce,
                           availability_engine=per_model_cached(store)) \
            .design(REQUIREMENTS)
        assert canonical(scalar_warm) == canonical(scalar_outcome)
        assert store.counters["misses"] == 0

    def test_warm_hit_counts_match_scalar(self, tmp_path, paper_infra,
                                          ecommerce):
        """The wavefront warm path performs one store lookup per model,
        exactly like a per-model warm path."""
        root = str(tmp_path / "store")
        Aved(paper_infra, ecommerce, cache=root).design(REQUIREMENTS)

        def warm_hits(engine_for):
            store = TierEvaluationStore(root)
            Aved(paper_infra, ecommerce,
                 availability_engine=engine_for(store)) \
                .design(REQUIREMENTS)
            return store.counters["hits"]

        wavefront = warm_hits(
            lambda store: CachedEngine(MarkovEngine(), store, "markov@1"))
        assert wavefront > 0
        assert wavefront == warm_hits(per_model_cached)


class TestTable1Regression:
    """Pin the paper's headline numbers on the wavefront path.

    JSON identity against the reference run already implies these, but
    a direct pin fails with a number (not a wall of diff) if the
    stacked solver ever drifts."""

    def test_app_tier_cost_and_downtime(self, paper_infra,
                                        app_tier_service):
        outcome = Aved(paper_infra, app_tier_service).design(REQUIREMENTS)
        assert outcome.annual_cost == pytest.approx(28320.0)
        assert outcome.downtime_minutes == pytest.approx(46.5, abs=0.5)

    def test_ecommerce_availabilities_pin_scalar_values(
            self, paper_infra, ecommerce, scalar_outcome):
        batched = Aved(paper_infra, ecommerce).design(REQUIREMENTS)
        scalar_tiers = {r.name: r.unavailability for r in
                        scalar_outcome.evaluation.availability.tiers}
        for result in batched.evaluation.availability.tiers:
            assert repr(result.unavailability) == \
                repr(scalar_tiers[result.name])


class TestFrontierBatchIdentity:
    def test_tier_frontier_identical(self, paper_infra,
                                     app_tier_service):
        from repro.core import DesignEvaluator, SearchLimits, TierSearch
        from repro.core.serialize import evaluated_tier_design_to_dict

        def frontier(engine):
            evaluator = DesignEvaluator(paper_infra, app_tier_service,
                                        engine=engine)
            search = TierSearch(evaluator,
                                SearchLimits(max_redundancy=4))
            return [evaluated_tier_design_to_dict(entry)
                    for entry in search.tier_frontier("application",
                                                      1000)]

        scalar = frontier(DfsReference())
        batched = frontier(None)
        assert json.dumps(batched, sort_keys=True) == \
            json.dumps(scalar, sort_keys=True)


class TestDfsResolves:
    def test_member_resolves_reach_the_outcome(self, monkeypatch,
                                               paper_infra,
                                               app_tier_service):
        """A member the stacked solver cannot take is re-solved on the
        DFS builder: same design, with AVD803 on the record."""
        from repro.batch import evaluator
        clean = Aved(paper_infra, app_tier_service).design(REQUIREMENTS)
        real_plan = evaluator._mode_plan

        def no_template_for_six(model, mode):
            return None if model.n == 6 else real_plan(model, mode)

        monkeypatch.setattr(evaluator, "_mode_plan", no_template_for_six)
        outcome = Aved(paper_infra, app_tier_service).design(REQUIREMENTS)
        assert canonical(outcome) == canonical(clean)
        assert outcome.degraded
        assert {d.code for d in outcome.degradation} == {"AVD803"}
