"""The tier availability model: the paper's section 4.2 parameter set.

For each tier, the generated availability model consists of

1. ``n``      -- number of active resources,
2. ``m``      -- minimum active resources for the tier to be up,
3. ``s``      -- number of spare resources,
4. ``MTBF_i`` -- per failure mode, from the design space model,
5. ``MTTR_i`` -- detection time + component repair time + startup times
   of the components affected by the failure,
6. ``FailoverTime_i`` -- detection time + reconfiguration time + startup
   latencies of components inactive in the spare.

Failover is considered only for modes whose MTTR exceeds their failover
time (the paper's rule); other modes repair in place.  The model is a
pure numeric object: no references back to infrastructure or service
models, so any evaluation engine (Markov, simulation, closed form) can
consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ModelError
from ..units import Duration


@dataclass(frozen=True)
class FailureModeEntry:
    """One failure mode of the tier's resource type, fully resolved.

    ``spare_susceptible`` is True when the failing component is kept
    active in spare resources (hot spares age; cold spares do not).
    """

    name: str                    # e.g. "machineA.hard"
    mtbf: Duration
    mttr: Duration               # detection + repair + dependent restarts
    failover_time: Duration      # detection + reconfig + spare activation
    spare_susceptible: bool = False

    def __post_init__(self):
        if self.mtbf.as_seconds <= 0:
            raise ModelError("mode %r: MTBF must be positive" % self.name)
        if self.mttr.as_seconds < 0:
            raise ModelError("mode %r: MTTR cannot be negative" % self.name)
        if self.failover_time.as_seconds < 0:
            raise ModelError("mode %r: failover time cannot be negative"
                             % self.name)

    @property
    def uses_failover(self) -> bool:
        """The paper's rule: fail over only when repair is slower."""
        return self.mttr > self.failover_time

    @property
    def failure_rate_per_hour(self) -> float:
        return 1.0 / self.mtbf.as_hours

    def canonical_fragment(self, spares: bool) -> dict:
        """Normalized, JSON-stable description of this mode.

        ``spares`` says whether the owning tier has ``s > 0``.  Without
        spares no engine ever consults ``failover_time`` or
        ``spare_susceptible`` (the failover rule is gated on ``s > 0``
        in every engine, and a spare pool of size zero cannot age), so
        both fields are dropped from the canonical form -- designs that
        differ only in the activation prefix of spares they do not have
        collapse to the same key.
        """
        from ..units import canonical_scalar
        fragment = {
            "name": self.name,
            "mtbf": canonical_scalar(self.mtbf),
            "mttr": canonical_scalar(self.mttr),
        }
        if spares:
            fragment["failover"] = canonical_scalar(self.failover_time)
            fragment["spare_susceptible"] = self.spare_susceptible
        return fragment


@dataclass(frozen=True)
class TierAvailabilityModel:
    """Numeric availability model of one tier (paper section 4.2).

    ``repair_crew`` bounds how many resources can be under repair
    concurrently (None = unlimited staff, the paper's implicit
    assumption); with ``repair_crew=k``, at most ``k`` repairs progress
    and the rest queue.
    """

    name: str
    n: int                                   # active resources
    m: int                                   # minimum active to be "up"
    s: int                                   # spare resources
    modes: Tuple[FailureModeEntry, ...]
    repair_crew: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("tier %r: n must be >= 1" % self.name)
        if not 1 <= self.m <= self.n:
            raise ModelError("tier %r: m must satisfy 1 <= m <= n (m=%d, "
                             "n=%d)" % (self.name, self.m, self.n))
        if self.s < 0:
            raise ModelError("tier %r: s cannot be negative" % self.name)
        if self.repair_crew is not None and self.repair_crew < 1:
            raise ModelError("tier %r: repair crew must be >= 1"
                             % self.name)
        if not self.modes:
            raise ModelError("tier %r: needs at least one failure mode"
                             % self.name)
        seen = set()
        for mode in self.modes:
            if mode.name in seen:
                raise ModelError("tier %r: duplicate mode %r"
                                 % (self.name, mode.name))
            seen.add(mode.name)

    @property
    def total_resources(self) -> int:
        return self.n + self.s

    @property
    def slack(self) -> int:
        """Active resources beyond the minimum (the paper's n_extra)."""
        return self.n - self.m

    def active_failure_rate_per_hour(self) -> float:
        """Combined failure rate of one active resource, per hour."""
        return sum(mode.failure_rate_per_hour for mode in self.modes)

    def tier_event_rate_per_hour(self) -> float:
        """Rate of *any* active-resource failure in the tier.

        For failure-scope=tier applications this is the rate of
        work-loss events (used by the job completion model).
        """
        return self.n * self.active_failure_rate_per_hour()

    def tier_mtbf(self) -> Duration:
        """Mean time between work-loss events across the whole tier."""
        rate = self.tier_event_rate_per_hour()
        if rate <= 0:
            raise ModelError("tier %r has zero failure rate" % self.name)
        return Duration.hours(1.0 / rate)

    def canonical_form(self) -> dict:
        """Normalized plain-data form of this model.

        Two models with equal canonical forms produce bit-identical
        :class:`TierResult` objects under every engine (the soundness
        property :mod:`repro.lint.canonical` hashes and the
        differential suite in ``tests/properties`` verifies).  Mode
        order is preserved -- engines report ``mode_results`` in model
        order, so reordering is *not* availability-neutral -- but
        failover attributes of spare-less tiers are dropped (see
        :meth:`FailureModeEntry.canonical_fragment`).
        """
        spares = self.s > 0
        return {
            "kind": "tier-availability-model",
            "tier": self.name,
            "n": self.n,
            "m": self.m,
            "s": self.s,
            "repair_crew": self.repair_crew,
            "modes": [mode.canonical_fragment(spares)
                      for mode in self.modes],
        }


@dataclass(frozen=True)
class ModeResult:
    """Evaluation outcome for one failure mode of one tier."""

    mode: str
    unavailability: float            # steady-state probability tier is down
    failures_per_year: float         # expected failure events per year
    used_failover: bool

    @property
    def downtime_minutes(self) -> float:
        from ..units import MINUTES_PER_YEAR
        return self.unavailability * MINUTES_PER_YEAR


@dataclass(frozen=True)
class EngineProvenance:
    """Which engine produced a result, and how it got there.

    The Markov engine attaches one when a dense solve degraded to
    least squares (``cause`` carries the solver's notes); otherwise
    results leave it None.  ``fallback_from`` lists engines tried
    before ``engine`` answered, in order (empty for every built-in
    engine).
    """

    engine: str
    attempts: int = 1
    fallback_from: Tuple[str, ...] = ()
    cause: str = ""

    @property
    def degraded(self) -> bool:
        """True when the result did not come from the primary engine."""
        return bool(self.fallback_from)

    def describe(self) -> str:
        text = self.engine
        if self.attempts > 1:
            text += " (attempt %d)" % self.attempts
        if self.fallback_from:
            text += " after %s" % " -> ".join(self.fallback_from)
            if self.cause:
                text += ": %s" % self.cause
        return text


@dataclass(frozen=True)
class TierResult:
    """Evaluation outcome for one tier."""

    name: str
    unavailability: float
    mode_results: Tuple[ModeResult, ...] = ()
    #: Filled in by the resilience runtime; None from bare engines.
    provenance: Optional[EngineProvenance] = None

    def __post_init__(self):
        if not -1e-12 <= self.unavailability <= 1.0 + 1e-12:
            raise ModelError("tier %r: unavailability %g out of [0,1]"
                             % (self.name, self.unavailability))

    @property
    def availability(self) -> float:
        return 1.0 - self.unavailability

    @property
    def downtime_minutes(self) -> float:
        from ..units import MINUTES_PER_YEAR
        return self.unavailability * MINUTES_PER_YEAR

    @property
    def annual_downtime(self) -> Duration:
        return Duration.minutes(self.downtime_minutes)


@dataclass(frozen=True)
class AvailabilityResult:
    """Evaluation outcome for a whole design (tiers in series)."""

    tiers: Tuple[TierResult, ...]
    unavailability: float

    @property
    def availability(self) -> float:
        return 1.0 - self.unavailability

    @property
    def downtime_minutes(self) -> float:
        from ..units import MINUTES_PER_YEAR
        return self.unavailability * MINUTES_PER_YEAR

    @property
    def annual_downtime(self) -> Duration:
        return Duration.minutes(self.downtime_minutes)

    @property
    def annual_uptime(self) -> Duration:
        from ..units import MINUTES_PER_YEAR
        return Duration.minutes((1.0 - self.unavailability)
                                * MINUTES_PER_YEAR)

    def tier(self, name: str) -> TierResult:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise ModelError("no tier result named %r" % name)
