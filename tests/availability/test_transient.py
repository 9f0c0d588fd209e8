"""Tests for transient analysis (uniformization)."""

import math

import pytest

from repro.availability import (ContinuousTimeMarkovChain,
                                availability_curve, interval_availability,
                                point_availability, time_to_steady_state,
                                transient_distribution,
                                transient_distributions)
from repro.errors import EvaluationError


def two_state(lam=0.02, mu=1.5):
    return ContinuousTimeMarkovChain(
        "up", lambda s: [("down", lam)] if s == "up" else [("up", mu)])


def closed_form(lam, mu, t):
    steady = mu / (lam + mu)
    return steady + (lam / (lam + mu)) * math.exp(-(lam + mu) * t)


class TestTransientDistribution:
    def test_time_zero_is_initial(self):
        distribution = transient_distribution(two_state(), "up", 0.0)
        assert distribution["up"] == 1.0
        assert distribution["down"] == 0.0

    def test_matches_closed_form(self):
        lam, mu = 0.02, 1.5
        chain = two_state(lam, mu)
        for t in (0.01, 0.5, 2.0, 20.0, 200.0):
            distribution = transient_distribution(chain, "up", t)
            assert distribution["up"] == pytest.approx(
                closed_form(lam, mu, t), abs=1e-9)

    def test_distribution_sums_to_one(self):
        distribution = transient_distribution(two_state(), "up", 3.7)
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_converges_to_steady_state(self):
        lam, mu = 0.1, 1.0
        chain = two_state(lam, mu)
        late = transient_distribution(chain, "up", 1000.0)
        steady = chain.steady_state()
        for state in ("up", "down"):
            assert late[state] == pytest.approx(steady[state], abs=1e-9)

    def test_large_qt_stable(self):
        """qt ~ 5e4: Poisson weights must not underflow to garbage."""
        chain = two_state(1.0, 50.0)
        distribution = transient_distribution(chain, "up", 1000.0)
        assert distribution["up"] == pytest.approx(50.0 / 51.0, rel=1e-6)

    def test_unknown_initial_state(self):
        with pytest.raises(EvaluationError):
            transient_distribution(two_state(), "ghost", 1.0)

    def test_negative_time(self):
        with pytest.raises(EvaluationError):
            transient_distribution(two_state(), "up", -1.0)

    def test_birth_death_transient(self):
        """3 independent machines: P(all up at t) = (p_up(t))^3."""
        lam, mu = 0.05, 2.0

        def transitions(k):
            out = []
            if k < 3:
                out.append((k + 1, (3 - k) * lam))
            if k > 0:
                out.append((k - 1, k * mu))
            return out

        chain = ContinuousTimeMarkovChain(0, transitions)
        for t in (0.1, 1.0, 10.0):
            distribution = transient_distribution(chain, 0, t)
            single = closed_form(lam, mu, t)
            assert distribution[0] == pytest.approx(single ** 3,
                                                    abs=1e-9)

    def test_large_birth_death_uses_sparse_matrix(self):
        """700 independent machines, all up at t=0: the chain is over
        the dense limit, and the number down at t is Binomial(n, q(t))
        with q(t) the single-machine P(down at t)."""
        from repro.availability.transient import _DENSE_TRANSIENT_LIMIT
        n, lam, mu = 700, 0.01, 0.5

        def transitions(k):
            out = []
            if k < n:
                out.append((k + 1, (n - k) * lam))
            if k > 0:
                out.append((k - 1, k * mu))
            return out

        chain = ContinuousTimeMarkovChain(0, transitions)
        assert chain.size > _DENSE_TRANSIENT_LIMIT
        times = (0.5, 2.0, 10.0)
        for t, distribution in zip(
                times, transient_distributions(chain, 0, times)):
            down = 1.0 - closed_form(lam, mu, t)
            expected_down = sum(k * p for k, p in distribution.items())
            assert expected_down == pytest.approx(n * down, rel=1e-9)
            assert sum(distribution.values()) == pytest.approx(1.0)


class TestAvailabilityFunctions:
    def test_point_availability_monotone_from_fresh(self):
        chain = two_state()
        values = availability_curve(chain, "up", lambda s: s == "up",
                                    [0.0, 0.5, 1.0, 5.0, 50.0])
        assert values[0] == 1.0
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_interval_availability_between_point_and_one(self):
        lam, mu = 0.02, 1.5
        chain = two_state(lam, mu)
        interval = interval_availability(chain, "up",
                                         lambda s: s == "up", 10.0)
        point = point_availability(chain, "up", lambda s: s == "up",
                                   10.0)
        assert point <= interval <= 1.0

    def test_interval_availability_converges_to_steady(self):
        lam, mu = 0.2, 2.0
        chain = two_state(lam, mu)
        long_run = interval_availability(chain, "up",
                                         lambda s: s == "up", 500.0,
                                         samples=64)
        assert long_run == pytest.approx(mu / (lam + mu), rel=1e-2)

    def test_interval_validation(self):
        chain = two_state()
        with pytest.raises(EvaluationError):
            interval_availability(chain, "up", lambda s: True, 0.0)
        with pytest.raises(EvaluationError):
            interval_availability(chain, "up", lambda s: True, 1.0,
                                  samples=1)

    def test_time_to_steady_state(self):
        lam, mu = 0.02, 1.5
        chain = two_state(lam, mu)
        t = time_to_steady_state(chain, "up", lambda s: s == "up",
                                 tolerance=0.001)
        # Relaxation rate lam+mu ~ 1.52/h: converges within a few hours.
        assert t <= 16.0
        value = point_availability(chain, "up", lambda s: s == "up", t)
        steady = mu / (lam + mu)
        assert value == pytest.approx(steady, rel=0.001)

    def test_time_to_steady_state_never_up_rejected(self):
        chain = ContinuousTimeMarkovChain("down", lambda s: [])
        with pytest.raises(EvaluationError):
            time_to_steady_state(chain, "down", lambda s: s == "up")


class TestOnPaperTierModel:
    def test_fresh_deployment_beats_steady_state(self, paper_infra):
        """A freshly deployed family-6 tier starts fully up; its point
        availability decays toward (and stays above) steady state."""
        from repro.availability import (FailureModeEntry,
                                        TierAvailabilityModel)
        from repro.availability.markov import evaluate_tier
        from repro.units import Duration

        mode = FailureModeEntry("hard", Duration.days(130),
                                Duration.hours(38),
                                Duration.minutes(6.5))
        model = TierAvailabilityModel("app", n=5, m=5, s=1, modes=(mode,))
        steady = 1.0 - evaluate_tier(model).unavailability

        # Rebuild the same chain the Markov engine uses, transiently.
        lam = 1.0 / mode.mtbf.as_hours
        mu = 1.0 / mode.mttr.as_hours
        phi = 1.0 / mode.failover_time.as_hours

        def transitions(state):
            r, w = state
            idle = 1 - r + w
            out = []
            if 5 - w > 0:
                out.append(((r + 1, w + 1), (5 - w) * lam))
            if min(w, idle) > 0:
                out.append(((r, w - 1), min(w, idle) * phi))
            if r > 0:
                out.append(((r - 1, w), r * mu))
            return out

        chain = ContinuousTimeMarkovChain((0, 0), transitions)
        early = point_availability(chain, (0, 0),
                                   lambda s: 5 - s[1] >= 5, 1.0)
        late = point_availability(chain, (0, 0),
                                  lambda s: 5 - s[1] >= 5, 5000.0)
        assert early > late
        assert late == pytest.approx(steady, rel=1e-3)
