"""Tests for the engine facade, registry and series composition."""

import pytest

from repro.availability import (ENGINE_NAMES, AnalyticEngine,
                                AvailabilityEngine, FailureModeEntry,
                                MarkovEngine, SimulationEngine,
                                TierAvailabilityModel, build_engine,
                                get_engine)
from repro.errors import EvaluationError, ModelError
from repro.units import Duration


def simple_tier(name="t", n=2, m=2, s=0, mtbf_days=50, mttr_hours=12):
    return TierAvailabilityModel(
        name, n=n, m=m, s=s,
        modes=(FailureModeEntry("hard", Duration.days(mtbf_days),
                                Duration.hours(mttr_hours),
                                Duration.minutes(5)),))


class TestRegistry:
    def test_get_markov(self):
        assert isinstance(get_engine("markov"), MarkovEngine)

    def test_get_analytic(self):
        assert isinstance(get_engine("analytic"), AnalyticEngine)

    def test_get_simulation_with_kwargs(self):
        engine = get_engine("simulation", years=10, seed=1)
        assert isinstance(engine, SimulationEngine)
        assert engine.years == 10

    def test_unknown_engine(self):
        with pytest.raises(EvaluationError):
            get_engine("quantum")

    def test_engine_names_are_the_three_engines(self):
        assert ENGINE_NAMES == ("markov", "analytic", "simulation")

    def test_build_engine_seeds_a_bounded_simulation(self):
        engine = build_engine("simulation", seed=42)
        assert isinstance(engine, SimulationEngine)
        assert (engine.years, engine.seed) == (500, 42)
        assert isinstance(build_engine("markov"), MarkovEngine)
        assert isinstance(build_engine("analytic"), AnalyticEngine)

    def test_build_engine_rejects_unknown_names(self):
        with pytest.raises(EvaluationError):
            build_engine("fallback")


class TestSeriesComposition:
    def test_two_tiers_compose(self):
        engine = MarkovEngine()
        a, b = simple_tier("a"), simple_tier("b", mtbf_days=25)
        result = engine.evaluate([a, b])
        ua = engine.evaluate_tier(a).unavailability
        ub = engine.evaluate_tier(b).unavailability
        assert result.unavailability == pytest.approx(
            1 - (1 - ua) * (1 - ub))
        assert result.tier("a").unavailability == pytest.approx(ua)

    def test_empty_design_rejected(self):
        with pytest.raises(EvaluationError):
            MarkovEngine().evaluate([])

    def test_missing_tier_lookup(self):
        result = MarkovEngine().evaluate([simple_tier("a")])
        with pytest.raises(ModelError):
            result.tier("zzz")

    def test_result_durations(self):
        result = MarkovEngine().evaluate([simple_tier()])
        year_minutes = 365 * 24 * 60
        assert (result.annual_downtime.as_minutes
                + result.annual_uptime.as_minutes) == pytest.approx(
            year_minutes)


class TestEngineAgreement:
    def test_analytic_exact_for_inplace(self):
        """In-place chains are n independent on/off processes; the
        analytic binomial form must match Markov exactly."""
        for n, m in ((1, 1), (3, 2), (5, 5), (6, 3)):
            model = simple_tier(n=n, m=m, s=0)
            markov = MarkovEngine().evaluate_tier(model)
            analytic = AnalyticEngine().evaluate_tier(model)
            assert analytic.unavailability == pytest.approx(
                markov.unavailability, rel=1e-9), (n, m)

    def test_analytic_close_when_spares_ample(self):
        """With ample spares, spare exhaustion is negligible and the
        first-order failover form tracks the Markov answer."""
        model = simple_tier(n=4, m=4, s=3, mtbf_days=100, mttr_hours=12)
        markov = MarkovEngine().evaluate_tier(model)
        analytic = AnalyticEngine().evaluate_tier(model)
        assert analytic.unavailability == pytest.approx(
            markov.unavailability, rel=0.1)

    def test_analytic_underestimates_when_spares_scarce(self):
        """Spare exhaustion, which the closed form ignores, dominates in
        this regime: the analytic engine must land far below Markov.
        (This is exactly the gap the engine-ablation benchmark shows.)"""
        model = simple_tier(n=6, m=6, s=1, mtbf_days=20, mttr_hours=48)
        markov = MarkovEngine().evaluate_tier(model)
        analytic = AnalyticEngine().evaluate_tier(model)
        assert analytic.unavailability < markov.unavailability / 10

    def test_simulation_engine_evaluate_tier(self):
        engine = SimulationEngine(years=200, seed=17)
        result = engine.evaluate_tier(simple_tier())
        assert 0 < result.unavailability < 1


class StubEngine(AvailabilityEngine):
    """Returns a fixed unavailability per tier name (edge-case probe)."""

    name = "stub-values"

    def __init__(self, values):
        self.values = values

    def evaluate_tier(self, model):
        from repro.availability import TierResult
        return TierResult(model.name, self.values[model.name])


class TestEvaluateEdgeCases:
    def test_empty_model_sequence_rejected(self):
        engine = StubEngine({})
        with pytest.raises(EvaluationError, match="no tier models"):
            engine.evaluate([])

    def test_unavailability_exactly_zero(self):
        engine = StubEngine({"a": 0.0, "b": 0.0})
        result = engine.evaluate([simple_tier("a"), simple_tier("b")])
        assert result.unavailability == 0.0
        assert result.availability == 1.0
        assert result.annual_downtime.as_minutes == 0.0

    def test_unavailability_exactly_one(self):
        engine = StubEngine({"a": 1.0, "b": 1e-5})
        result = engine.evaluate([simple_tier("a"), simple_tier("b")])
        assert result.unavailability == 1.0
        assert result.availability == 0.0

    def test_series_composition_is_order_invariant(self):
        values = {"a": 3e-4, "b": 7e-5, "c": 1.2e-3}
        engine = StubEngine(values)
        models = [simple_tier(name) for name in values]
        forward = engine.evaluate(models)
        backward = engine.evaluate(list(reversed(models)))
        assert forward.unavailability == pytest.approx(
            backward.unavailability, rel=1e-12)

    def test_single_tier_series_is_identity(self):
        engine = StubEngine({"a": 2.5e-4})
        result = engine.evaluate([simple_tier("a")])
        assert result.unavailability == pytest.approx(2.5e-4)


class TestModelValidation:
    def test_rejects_bad_m(self):
        with pytest.raises(ModelError):
            simple_tier(n=2, m=3)

    def test_rejects_no_modes(self):
        with pytest.raises(ModelError):
            TierAvailabilityModel("t", n=1, m=1, s=0, modes=())

    def test_rejects_duplicate_modes(self):
        mode = FailureModeEntry("x", Duration.days(1), Duration.ZERO,
                                Duration.ZERO)
        with pytest.raises(ModelError):
            TierAvailabilityModel("t", n=1, m=1, s=0, modes=(mode, mode))

    def test_tier_mtbf(self):
        model = simple_tier(n=4, mtbf_days=100)
        assert model.tier_mtbf().as_days == pytest.approx(25.0)

    def test_slack(self):
        assert simple_tier(n=5, m=3).slack == 2
