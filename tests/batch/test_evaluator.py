"""Batch planning, grouping, fallbacks and the engines' many-model
method."""

import math

import numpy as np
import pytest

from repro.availability import (AnalyticEngine, FailureModeEntry,
                                MarkovEngine, TierAvailabilityModel,
                                TierResult)
from repro.availability.markov import evaluate_tier
from repro.batch import solve_models, transport_shape_key
from repro.batch import evaluator as evaluator_module
from repro.errors import EvaluationError
from repro.resilience.events import DegradationLog
from repro.units import Duration


def model(name="t", n=3, m=2, s=0, mtbf_days=60.0, mttr_hours=8.0,
          failover_minutes=4.0, susceptible=False, crew=None):
    return TierAvailabilityModel(
        name, n=n, m=m, s=s,
        modes=(FailureModeEntry("hard", Duration.days(mtbf_days),
                                Duration.hours(mttr_hours),
                                Duration.minutes(failover_minutes),
                                spare_susceptible=susceptible),),
        repair_crew=crew)


def canonical(result):
    """Bit-faithful rendering of a TierResult for equality checks."""
    return (result.name, repr(result.unavailability),
            tuple((m.mode, repr(m.unavailability),
                   repr(m.failures_per_year), m.used_failover)
                  for m in result.mode_results))


class TestSolveModels:
    def test_mixed_shapes_match_scalar_bitwise(self):
        models = [
            model("a", n=2, m=1),
            model("b", n=5, m=3, mttr_hours=2.0),
            model("c", n=3, m=2, s=1),
            model("d", n=3, m=2, s=2, susceptible=True),
            model("e", n=2, m=1),        # same shape as "a", new rates
            model("a2", n=2, m=1),       # identical chain to "a"
        ]
        models[4] = model("e", n=2, m=1, mtbf_days=90.0)
        outcomes = solve_models(models)
        for tier_model, outcome in zip(models, outcomes):
            assert isinstance(outcome, TierResult)
            assert canonical(outcome) == \
                canonical(evaluate_tier(tier_model))

    def test_closed_form_members(self):
        """Instant repair without failover takes the closed form, same
        as the scalar path."""
        instant = TierAvailabilityModel(
            "i", n=4, m=2, s=0,
            modes=(FailureModeEntry("glitch", Duration.days(30),
                                    Duration.ZERO, Duration.ZERO),))
        outcome, = solve_models([instant])
        assert canonical(outcome) == canonical(evaluate_tier(instant))
        assert outcome.unavailability == 0.0

    def test_multi_mode_models(self):
        multi = TierAvailabilityModel(
            "mm", n=3, m=2, s=1,
            modes=(FailureModeEntry("hard", Duration.days(60),
                                    Duration.hours(8),
                                    Duration.minutes(4)),
                   FailureModeEntry("glitch", Duration.days(30),
                                    Duration.ZERO, Duration.ZERO),
                   FailureModeEntry("soft", Duration.days(10),
                                    Duration.minutes(20),
                                    Duration.minutes(1)),))
        outcome, = solve_models([multi])
        assert canonical(outcome) == canonical(evaluate_tier(multi))

    def test_anomalous_rates_degrade_to_scalar(self):
        """An infinite MTBF yields a zero failure rate the templates
        cannot represent; the member re-solves scalar, logged AVD803."""
        odd = TierAvailabilityModel(
            "odd", n=3, m=2, s=0,
            modes=(FailureModeEntry("never", Duration(math.inf),
                                    Duration.hours(8),
                                    Duration.minutes(4)),))
        sane = model("sane")
        log = DegradationLog()
        outcomes = solve_models([odd, sane], log=log)
        assert canonical(outcomes[0]) == canonical(evaluate_tier(odd))
        assert canonical(outcomes[1]) == canonical(evaluate_tier(sane))
        events = list(log)
        assert len(events) == 1
        assert events[0].kind == "batch-member-degraded"
        assert events[0].tier == "odd"

    def test_planning_exception_degrades_only_that_member(self,
                                                          monkeypatch):
        """Rate planning blowing up for one member must degrade that
        member to the scalar path, not abort the whole batch."""
        real_plan = evaluator_module._mode_plan

        def fragile_plan(tier_model, mode):
            if tier_model.name == "weird":
                raise ZeroDivisionError("float division by zero")
            return real_plan(tier_model, mode)

        monkeypatch.setattr(evaluator_module, "_mode_plan",
                            fragile_plan)
        weird, sane = model("weird"), model("sane", n=4, m=2)
        outcomes = solve_models([weird, sane])
        assert canonical(outcomes[0]) == canonical(evaluate_tier(weird))
        assert canonical(outcomes[1]) == canonical(evaluate_tier(sane))

    def test_group_fallback_on_singular_stack(self, monkeypatch):
        """When the stacked ladder exhausts (merged and per-group
        solves both singular), members re-solve scalar with AVD802."""
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")
        monkeypatch.setattr(evaluator_module, "solve_size_class",
                            singular)
        monkeypatch.setattr(evaluator_module, "solve_stacked", singular)
        models = [model("a"), model("b", n=4, m=2)]
        log = DegradationLog()
        outcomes = solve_models(models, log=log)
        for tier_model, outcome in zip(models, outcomes):
            assert canonical(outcome) == \
                canonical(evaluate_tier(tier_model))
        kinds = {event.kind for event in log}
        assert kinds == {"batch-group-fallback"}

    def test_group_retry_isolates_the_singular_group(self, monkeypatch):
        """The merged size-class solve failing must not degrade groups
        that solve cleanly on the per-group retry."""
        from repro.batch.stacked import solve_size_class as real_solve

        calls = {"n": 0}

        def first_call_fails(groups):
            calls["n"] += 1
            if calls["n"] == 1:
                raise np.linalg.LinAlgError("injected merged failure")
            return real_solve(groups)

        monkeypatch.setattr(evaluator_module, "solve_size_class",
                            first_call_fails)
        models = [model("a"), model("b", n=4, m=2)]
        log = DegradationLog()
        outcomes = solve_models(models, log=log)
        for tier_model, outcome in zip(models, outcomes):
            assert canonical(outcome) == \
                canonical(evaluate_tier(tier_model))
        assert not len(log)          # per-group retry succeeded

    def test_oversized_chain_defers_to_scalar(self):
        """Beyond the dense limit the scalar path switches to the
        sparse solver; the batch must defer rather than diverge."""
        big = model("big", n=2000, m=1500, mttr_hours=1.0)
        log = DegradationLog()
        outcome, = solve_models([big], log=log)
        assert canonical(outcome) == canonical(evaluate_tier(big))
        assert [event.kind for event in log] == ["batch-member-degraded"]

    def test_chain_cache_reuses_solved_chains(self, monkeypatch):
        shared = model("x", n=3, m=2)
        cache: dict = {}
        first = solve_models([shared], chain_cache=cache)
        assert cache                  # the solve populated the memo

        def must_not_solve(*args, **kwargs):   # pragma: no cover
            raise AssertionError("chain memo should have been used")
        monkeypatch.setattr(evaluator_module, "solve_size_class",
                            must_not_solve)
        second = solve_models([model("y", n=3, m=2)],
                              chain_cache=cache)
        # Different tier name, identical chain: identical bits.
        assert repr(first[0].unavailability) == \
            repr(second[0].unavailability)

    def test_duplicate_chains_solved_once_within_a_batch(self):
        models = [model("a"), model("b"), model("c")]
        outcomes = solve_models(models)
        values = {repr(outcome.unavailability) for outcome in outcomes}
        assert len(values) == 1
        assert canonical(outcomes[0])[1:] == canonical(outcomes[1])[1:]


class TestSolveOutcomes:
    """The cached engine's many-model method: one get per model, one
    wavefront for the misses, one put per fresh result."""

    def test_cached_engine_misses_then_hits(self, tmp_path):
        from repro.cache import TierEvaluationStore, attach_cache
        store = TierEvaluationStore(str(tmp_path / "cache"))
        cached = attach_cache(MarkovEngine(), store)
        models = [model("a"), model("b", n=4, m=2)]
        cold = cached.evaluate_tiers(models)
        assert store.counters["misses"] == 2
        assert store.counters["hits"] == 0
        warm = cached.evaluate_tiers(models)
        assert store.counters["hits"] == 2
        for one, two in zip(cold, warm):
            assert canonical(one) == canonical(two)

    def test_bare_engine_skips_the_store(self):
        outcomes = MarkovEngine().evaluate_tiers([model("a")])
        assert isinstance(outcomes[0], TierResult)


class TestEvaluateTiers:
    def test_markov_engine_returns_errors_in_their_slots(self,
                                                         monkeypatch):
        real_plan = evaluator_module._mode_plan
        real_evaluate = evaluator_module.evaluate_tier

        def fragile_plan(tier_model, mode):
            if tier_model.name == "broken":
                raise ValueError("unplannable")
            return real_plan(tier_model, mode)

        def fragile_evaluate(tier_model):
            if tier_model.name == "broken":
                raise EvaluationError("the DFS builder rejects it too")
            return real_evaluate(tier_model)

        monkeypatch.setattr(evaluator_module, "_mode_plan",
                            fragile_plan)
        monkeypatch.setattr(evaluator_module, "evaluate_tier",
                            fragile_evaluate)
        outcomes = MarkovEngine().evaluate_tiers(
            [model("a"), model("broken"), model("b", n=4, m=2)])
        assert isinstance(outcomes[1], EvaluationError)
        assert canonical(outcomes[0]) == \
            canonical(evaluate_tier(model("a")))
        with pytest.raises(EvaluationError):
            MarkovEngine().evaluate_tier(model("broken"))

    def test_chain_memo_persists_across_wavefronts(self):
        memo: dict = {}
        engine = MarkovEngine()
        engine.evaluate_tiers([model("a")], chain_cache=memo)
        assert memo
        memo_size = len(memo)
        outcome, = engine.evaluate_tiers([model("b")], chain_cache=memo)
        # Identical chain: served from the memo, nothing new stored.
        assert len(memo) == memo_size
        assert repr(outcome.unavailability) == \
            repr(evaluate_tier(model("b")).unavailability)

    def test_single_solve_is_a_wavefront_of_one(self):
        for tier_model in (model("a"), model("c", n=3, m=2, s=1)):
            assert canonical(MarkovEngine().evaluate_tier(tier_model)) \
                == canonical(evaluate_tier(tier_model))

    def test_default_method_loops_over_evaluate_tier(self):
        class Picky(AnalyticEngine):
            def evaluate_tier(self, tier_model):
                if tier_model.name == "broken":
                    raise EvaluationError("picky")
                return super().evaluate_tier(tier_model)

        good, failed = Picky().evaluate_tiers(
            [model("a"), model("broken")], log=DegradationLog())
        assert canonical(good) == \
            canonical(AnalyticEngine().evaluate_tier(model("a")))
        assert isinstance(failed, EvaluationError)


class TestTransportShapeKey:
    def test_groups_by_structure(self):
        assert transport_shape_key(model("a")) == \
            transport_shape_key(model("b"))
        assert transport_shape_key(model("a")) != \
            transport_shape_key(model("a", n=4))
        assert transport_shape_key(model("a")) != \
            transport_shape_key(model("a", crew=1))
