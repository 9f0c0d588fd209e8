"""Differential soundness of canonical keys.

**Key soundness** (:mod:`repro.lint`) -- equal canonical keys imply
serialized-identical :class:`TierResult` under every engine (Markov,
analytic, and the seeded simulation).  The generator builds model
pairs that differ only in attributes the canonical form provably drops
(failover decoration of spare-less tiers), the exact collapse the key
relies on.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability import (AnalyticEngine, FailureModeEntry,
                                MarkovEngine, SimulationEngine,
                                TierAvailabilityModel)
from repro.lint import canonical_key
from repro.units import Duration

ENGINES = (MarkovEngine(), AnalyticEngine(),
           SimulationEngine(years=5.0, seed=7))


def result_json(result):
    """Bit-faithful serialization of a TierResult (floats as hex)."""
    return json.dumps({
        "name": result.name,
        "unavailability": result.unavailability.hex(),
        "modes": [[mode.mode, mode.unavailability.hex(),
                   mode.failures_per_year.hex(), mode.used_failover]
                  for mode in result.mode_results],
    }, sort_keys=True)


@st.composite
def spareless_model_pairs(draw):
    """Two models equal in every engine-visible way, decorated apart.

    With ``s == 0`` the failover time and spare susceptibility never
    reach any engine, so the pair must share a canonical key -- and,
    per the soundness contract, every result.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=n))
    mode_count = draw(st.integers(min_value=1, max_value=3))
    entries = []
    decorated = []
    for index in range(mode_count):
        mtbf = draw(st.floats(min_value=100.0, max_value=20000.0,
                              allow_nan=False))
        mttr = draw(st.floats(min_value=0.1, max_value=100.0,
                              allow_nan=False))
        failover_a = draw(st.floats(min_value=0.0, max_value=10.0,
                                    allow_nan=False))
        failover_b = draw(st.floats(min_value=0.0, max_value=10.0,
                                    allow_nan=False))
        name = "mode%d" % index
        entries.append(FailureModeEntry(
            name=name, mtbf=Duration.hours(mtbf),
            mttr=Duration.hours(mttr),
            failover_time=Duration.hours(failover_a),
            spare_susceptible=draw(st.booleans())))
        decorated.append(FailureModeEntry(
            name=name, mtbf=Duration.hours(mtbf),
            mttr=Duration.hours(mttr),
            failover_time=Duration.hours(failover_b),
            spare_susceptible=draw(st.booleans())))
    crew = draw(st.sampled_from([None, 1, 2]))
    return (TierAvailabilityModel(name="tier", n=n, m=m, s=0,
                                  modes=tuple(entries),
                                  repair_crew=crew),
            TierAvailabilityModel(name="tier", n=n, m=m, s=0,
                                  modes=tuple(decorated),
                                  repair_crew=crew))


class TestKeySoundness:
    @given(spareless_model_pairs())
    @settings(max_examples=30, deadline=None)
    def test_equal_key_implies_equal_results(self, pair):
        first, second = pair
        assert canonical_key(first) == canonical_key(second)
        for engine in ENGINES:
            assert result_json(engine.evaluate_tier(first)) == \
                result_json(engine.evaluate_tier(second))

    @given(spareless_model_pairs())
    @settings(max_examples=30, deadline=None)
    def test_key_is_deterministic(self, pair):
        first, _ = pair
        copy = TierAvailabilityModel(
            name=first.name, n=first.n, m=first.m, s=first.s,
            modes=tuple(first.modes), repair_crew=first.repair_crew)
        assert canonical_key(first) == canonical_key(copy)
