"""Availability evaluation engines and the series composition of tiers.

The paper's architecture (Fig. 1) feeds generated availability models
to an external "Availability Evaluation Engine".  This module defines
that interface and three interchangeable implementations:

* :class:`MarkovEngine` -- per-mode CTMCs (the default; the paper's
  "our own simplified Markov Model");
* :class:`AnalyticEngine` -- closed forms, fastest, first-order for
  failover modes;
* :class:`SimulationEngine` -- discrete-event Monte Carlo, slowest,
  fewest assumptions (used for validation).

``get_engine("markov" | "analytic" | "simulation")`` selects one by
name, which the benchmarks use for engine-ablation runs;
:func:`build_engine` is the one constructor every CLI command and
``repro serve`` use for their ``--engine`` option.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Type

from ..errors import EvaluationError
from ..obs import current as _obs_current
from . import analytic, markov
from .model import AvailabilityResult, TierAvailabilityModel, TierResult
from .rbd import series_unavailability
from .simulation import simulate_tier


class AvailabilityEngine:
    """Evaluates tier availability models (paper Fig. 1, right side)."""

    #: Registry name; subclasses set it.
    name = "abstract"

    def evaluate_tier(self, model: TierAvailabilityModel) -> TierResult:
        raise NotImplementedError

    def evaluate(self, models: Sequence[TierAvailabilityModel]) \
            -> AvailabilityResult:
        """Evaluate a whole design: tiers composed in series."""
        if not models:
            raise EvaluationError("design has no tier models")
        tier_results = tuple(self.evaluate_tier(model) for model in models)
        unavailability = series_unavailability(
            result.unavailability for result in tier_results)
        return AvailabilityResult(tier_results, unavailability)


class MarkovEngine(AvailabilityEngine):
    """Exact per-mode CTMC solution with failure-mode decomposition."""

    name = "markov"

    def evaluate_tier(self, model: TierAvailabilityModel) -> TierResult:
        obs = _obs_current()
        if obs.enabled:
            with obs.engine_span(self.name, model):
                return markov.evaluate_tier(model)
        return markov.evaluate_tier(model)


class AnalyticEngine(AvailabilityEngine):
    """Closed-form approximation (exact for in-place repair modes)."""

    name = "analytic"

    def evaluate_tier(self, model: TierAvailabilityModel) -> TierResult:
        obs = _obs_current()
        if obs.enabled:
            with obs.engine_span(self.name, model):
                return analytic.evaluate_tier(model)
        return analytic.evaluate_tier(model)


class SimulationEngine(AvailabilityEngine):
    """Discrete-event Monte Carlo (no decomposition assumption).

    ``years`` controls the horizon per tier; pair it with the rarity of
    the events of interest (2,000 simulated years resolves downtime of
    roughly a minute per year to ~10%).
    """

    name = "simulation"

    def __init__(self, years: float = 2000.0, seed: Optional[int] = None,
                 deterministic_repairs: bool = False):
        self.years = years
        self.seed = seed
        self.deterministic_repairs = deterministic_repairs

    def evaluate_tier(self, model: TierAvailabilityModel) -> TierResult:
        obs = _obs_current()
        if obs.enabled:
            with obs.engine_span(self.name, model):
                result = simulate_tier(
                    model, years=self.years, seed=self.seed,
                    deterministic_repairs=self.deterministic_repairs)
                return result.tier
        result = simulate_tier(model, years=self.years, seed=self.seed,
                               deterministic_repairs=self
                               .deterministic_repairs)
        return result.tier


_ENGINES: Dict[str, Type[AvailabilityEngine]] = {
    MarkovEngine.name: MarkovEngine,
    AnalyticEngine.name: AnalyticEngine,
    SimulationEngine.name: SimulationEngine,
}


def get_engine(name: str, **kwargs) -> AvailabilityEngine:
    """Instantiate an engine by registry name."""
    try:
        engine_cls = _ENGINES[name]
    except KeyError:
        raise EvaluationError("unknown availability engine %r (have: %s)"
                              % (name, sorted(_ENGINES)))
    return engine_cls(**kwargs)


#: The engine names every ``--engine`` option accepts (``markov`` is
#: the default everywhere).
ENGINE_NAMES: Tuple[str, ...] = tuple(_ENGINES)


def build_engine(name: str, seed: int = 1) -> AvailabilityEngine:
    """The engine the CLI and ``repro serve`` run for ``name``.

    The simulation engine gets a seeded 500-year horizon, so its runs
    are reproducible (and cacheable) and stay bounded in time.
    """
    if name == SimulationEngine.name:
        return SimulationEngine(years=500, seed=seed)
    return get_engine(name)
