"""Batched search == scalar search, end to end through Aved.

The acceptance contract for ``repro.batch``: the serialized
DesignOutcome is *identical JSON* with batching on or off, across
serial, supervised (``jobs``), and cached runs; unsupported engines
degrade to the scalar path with an AVD801 on the record, never an
error.
"""

import json

import pytest

from repro.core import Aved
from repro.core.serialize import evaluation_to_dict
from repro.model import ServiceRequirements
from repro.units import Duration

REQUIREMENTS = ServiceRequirements(1000, Duration.minutes(100))


def canonical(outcome):
    return json.dumps(evaluation_to_dict(outcome.evaluation),
                      sort_keys=True)


@pytest.fixture(scope="module")
def scalar_outcome(paper_infra, ecommerce):
    return Aved(paper_infra, ecommerce).design(REQUIREMENTS)


class TestSerialBatchIdentity:
    def test_design_json_identical(self, paper_infra, ecommerce,
                                   scalar_outcome):
        batched = Aved(paper_infra, ecommerce,
                       batch=True).design(REQUIREMENTS)
        assert canonical(batched) == canonical(scalar_outcome)

    def test_batched_stats_are_populated(self, paper_infra, ecommerce):
        batched = Aved(paper_infra, ecommerce,
                       batch=True).design(REQUIREMENTS)
        assert batched.stats.batched_wavefronts > 0
        assert batched.stats.batched_solves > 0
        assert batched.stats.batched_solves <= \
            batched.stats.availability_evaluations

    def test_scalar_stats_stay_zero(self, scalar_outcome):
        assert scalar_outcome.stats.batched_wavefronts == 0
        assert scalar_outcome.stats.batched_solves == 0

    def test_no_degradation_on_the_happy_path(self, paper_infra,
                                              ecommerce):
        batched = Aved(paper_infra, ecommerce,
                       batch=True).design(REQUIREMENTS)
        assert not batched.degraded


class TestSupervisedBatchIdentity:
    def test_jobs_1_batched_identical(self, paper_infra, ecommerce,
                                      scalar_outcome):
        batched = Aved(paper_infra, ecommerce, jobs=1,
                       batch=True).design(REQUIREMENTS)
        assert canonical(batched) == canonical(scalar_outcome)

    def test_jobs_2_batched_identical(self, paper_infra, ecommerce,
                                      scalar_outcome):
        batched = Aved(paper_infra, ecommerce, jobs=2,
                       batch=True).design(REQUIREMENTS)
        assert canonical(batched) == canonical(scalar_outcome)
        assert batched.stats.parallel_batches > 0


class TestCachedBatchIdentity:
    def test_cold_and_warm_identical(self, tmp_path, paper_infra,
                                     ecommerce, scalar_outcome):
        root = str(tmp_path / "store")
        cold = Aved(paper_infra, ecommerce, cache=root,
                    batch=True).design(REQUIREMENTS)
        warm = Aved(paper_infra, ecommerce, cache=root,
                    batch=True).design(REQUIREMENTS)
        assert canonical(cold) == canonical(scalar_outcome)
        assert canonical(warm) == canonical(scalar_outcome)

    def test_batched_store_serves_scalar_runs(self, tmp_path,
                                              paper_infra, ecommerce,
                                              scalar_outcome):
        """A store filled by a batched run must warm a scalar run (and
        vice versa): entries are per-model, not per-path."""
        root = str(tmp_path / "store")
        Aved(paper_infra, ecommerce, cache=root,
             batch=True).design(REQUIREMENTS)
        scalar_warm = Aved(paper_infra, ecommerce,
                           cache=root).design(REQUIREMENTS)
        assert canonical(scalar_warm) == canonical(scalar_outcome)

    def test_warm_hit_counts_match_scalar(self, tmp_path, paper_infra,
                                          ecommerce):
        """The batched warm path performs one store lookup per model,
        exactly like the scalar warm path."""
        from repro.cache import TierEvaluationStore

        def warm_hits(batch):
            root = str(tmp_path / ("store-batch-%s" % batch))
            Aved(paper_infra, ecommerce, cache=root,
                 batch=batch).design(REQUIREMENTS)
            store = TierEvaluationStore(root)
            engine = Aved(paper_infra, ecommerce, cache=store,
                          batch=batch)
            engine.design(REQUIREMENTS)
            return store.counters["hits"]

        assert warm_hits(True) == warm_hits(False)


class TestUnsupportedEngines:
    def test_analytic_engine_degrades_with_avd801(self, paper_infra,
                                                  ecommerce):
        from repro.availability import AnalyticEngine
        scalar = Aved(paper_infra, ecommerce,
                      availability_engine=AnalyticEngine()) \
            .design(REQUIREMENTS)
        batched = Aved(paper_infra, ecommerce,
                       availability_engine=AnalyticEngine(),
                       batch=True).design(REQUIREMENTS)
        assert canonical(batched) == canonical(scalar)
        assert batched.stats.batched_wavefronts == 0
        assert batched.degraded
        assert any(d.code == "AVD801" for d in batched.degradation)

    def test_avd801_reported_once_not_per_design(self, paper_infra,
                                                 app_tier_service):
        """The log drains into the first outcome's report; a second
        design on the same engine must not re-report it."""
        from repro.availability import AnalyticEngine
        engine = Aved(paper_infra, app_tier_service,
                      availability_engine=AnalyticEngine(), batch=True)
        first = engine.design(REQUIREMENTS)
        second = engine.design(REQUIREMENTS)
        assert any(d.code == "AVD801" for d in first.degradation)
        assert not second.degraded


class TestTable1Regression:
    """Pin the paper's headline numbers on the batched path.

    JSON identity against the scalar run already implies these, but a
    direct pin fails with a number (not a wall of diff) if the batched
    solver ever drifts."""

    def test_app_tier_cost_and_downtime(self, paper_infra,
                                        app_tier_service):
        outcome = Aved(paper_infra, app_tier_service,
                       batch=True).design(REQUIREMENTS)
        assert outcome.annual_cost == pytest.approx(28320.0)
        assert outcome.downtime_minutes == pytest.approx(46.5, abs=0.5)

    def test_ecommerce_availabilities_pin_scalar_values(
            self, paper_infra, ecommerce, scalar_outcome):
        batched = Aved(paper_infra, ecommerce,
                       batch=True).design(REQUIREMENTS)
        scalar_tiers = {r.name: r.unavailability for r in
                        scalar_outcome.evaluation.availability.tiers}
        for result in batched.evaluation.availability.tiers:
            assert repr(result.unavailability) == \
                repr(scalar_tiers[result.name])


class TestFrontierBatchIdentity:
    def test_tier_frontier_identical(self, paper_infra,
                                     app_tier_service):
        from repro.batch import TierBatcher, batch_target
        from repro.core import DesignEvaluator, SearchLimits, TierSearch
        from repro.core.serialize import evaluated_tier_design_to_dict

        def frontier(batcher):
            evaluator = DesignEvaluator(paper_infra, app_tier_service)
            search = TierSearch(evaluator,
                                SearchLimits(max_redundancy=4),
                                batcher=batcher)
            return [evaluated_tier_design_to_dict(entry)
                    for entry in search.tier_frontier("application",
                                                      1000)]

        scalar = frontier(None)
        evaluator = DesignEvaluator(paper_infra, app_tier_service)
        batcher = TierBatcher(batch_target(evaluator.engine))
        batched = frontier(batcher)
        assert json.dumps(batched, sort_keys=True) == \
            json.dumps(scalar, sort_keys=True)
