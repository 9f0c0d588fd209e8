"""Markov evaluation of tier availability models.

Each failure mode is evaluated on its own continuous-time Markov chain
(failure-mode decomposition): the chain for mode *i* assumes the other
modes are quiescent, and per-mode unavailabilities are composed as if
independent.  This mirrors the structure of classical availability
tools in the rare-failure regime the paper operates in; the
discrete-event simulator (:mod:`repro.availability.simulation`)
quantifies the decomposition error in the test suite.

Two chain shapes are used, following the paper's failover rule:

* **Failover chain** (``MTTR_i > FailoverTime_i`` and spares exist):
  state ``(r, w)`` where ``r`` resources are in repair and ``w`` active
  slots are unmanned.  Unmanned slots grab idle spares at rate
  ``min(w, idle)/FailoverTime``; repaired resources rejoin as spares.
  The tier is down while ``n - w < m``.
* **In-place repair chain** (otherwise): state ``r`` = failed active
  resources; each repairs at ``1/MTTR`` and resumes its slot.  The tier
  is down while ``n - r < m``.

This module builds each chain by depth-first exploration and solves it
alone.  Searches and :class:`~repro.availability.MarkovEngine` solve
through the stacked wavefront solver (:mod:`repro.batch`) instead,
which reproduces these results bit for bit; the DFS builder remains
its reference in the tests and re-solves the members the stacked
solver cannot take (``AVD802``/``AVD803``).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

import numpy as np

from ..errors import NumericalError
from ..units import HOURS_PER_YEAR
from .ctmc import ContinuousTimeMarkovChain
from .model import (EngineProvenance, FailureModeEntry, ModeResult,
                    TierAvailabilityModel, TierResult)

#: Durations below this (in hours) are treated as instantaneous
#: transitions to keep rates finite (3.6 ms).
_MIN_HOURS = 1e-6


def evaluate_tier(model: TierAvailabilityModel) -> TierResult:
    """Evaluate one tier by failure-mode decomposition.

    Raises :class:`~repro.errors.NumericalError` -- carrying the tier
    name and its ``(n, m, s)`` structure -- when a mode's chain solve
    hits a singular generator matrix or yields non-finite/out-of-range
    probabilities, so callers can attribute the failure (and the
    resilience runtime can classify it as transient) without digging
    through a linear-algebra traceback.
    """
    notes: List[str] = []
    return compose_tier_result(
        model, lambda mode: evaluate_mode(model, mode, notes), notes)


def compose_tier_result(model: TierAvailabilityModel, solve_mode,
                        notes: List[str] = None) -> TierResult:
    """Validate and compose per-mode results into a :class:`TierResult`.

    ``solve_mode`` maps a :class:`FailureModeEntry` to its
    :class:`ModeResult` (or raises).  Factored out of
    :func:`evaluate_tier` so the stacked wavefront solver
    (:mod:`repro.batch`) runs the *same* validation and series
    composition, float op for float op -- part of its bit-identity
    contract with this DFS chain builder.

    ``notes`` are degraded-solve annotations (least-squares fallbacks)
    collected while solving; when present they are attached as a
    non-degraded :class:`EngineProvenance` so the fallback is
    attributable in the outcome.
    """
    mode_results: List[ModeResult] = []
    up_product = 1.0
    structure = (model.n, model.m, model.s)
    for mode in model.modes:
        try:
            result = solve_mode(mode)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "mode %r: linear solve failed (%s)" % (mode.name, exc),
                tier=model.name, structure=structure) from exc
        except FloatingPointError as exc:
            raise NumericalError(
                "mode %r: floating-point fault (%s)" % (mode.name, exc),
                tier=model.name, structure=structure) from exc
        if not math.isfinite(result.unavailability) \
                or not 0.0 <= result.unavailability <= 1.0:
            raise NumericalError(
                "mode %r: solve produced unavailability %r outside [0, 1]"
                % (mode.name, result.unavailability),
                tier=model.name, structure=structure)
        if not math.isfinite(result.failures_per_year):
            raise NumericalError(
                "mode %r: solve produced non-finite failure rate %r"
                % (mode.name, result.failures_per_year),
                tier=model.name, structure=structure)
        mode_results.append(result)
        up_product *= 1.0 - result.unavailability
    provenance = None
    if notes:
        provenance = EngineProvenance(engine="markov",
                                      cause="; ".join(notes))
    return TierResult(model.name, 1.0 - up_product, tuple(mode_results),
                      provenance)


def evaluate_mode(model: TierAvailabilityModel, mode: FailureModeEntry,
                  notes: List[str] = None) -> ModeResult:
    """Evaluate a single failure mode's chain for a tier.

    ``notes`` (optional) collects degraded-solve annotations from the
    chain solver, e.g. a dense solve that fell back to least squares.
    """
    uses_failover = mode.uses_failover and model.s > 0
    if mode.mttr.as_seconds == 0 and not uses_failover:
        # Instant repair: no downtime, but failures still occur.
        failures = model.n / mode.mtbf.as_hours * HOURS_PER_YEAR
        return ModeResult(mode.name, 0.0, failures, False)
    if uses_failover:
        unavailability, failures = _solve_failover_chain(model, mode,
                                                         notes)
    else:
        unavailability, failures = _solve_inplace_chain(model, mode,
                                                        notes)
    return ModeResult(mode.name, unavailability, failures, uses_failover)


def _note_degraded_solves(chain: ContinuousTimeMarkovChain,
                          mode: FailureModeEntry,
                          notes: List[str]) -> None:
    if notes is not None:
        for note in chain.solve_notes:
            notes.append("mode %r: %s" % (mode.name, note))


# ----------------------------------------------------------------------
# Failover chain: state (r, w)
# ----------------------------------------------------------------------


#: Extra unmanned-slot states kept beyond the first down state.  The
#: chain is truncated at ``w <= (n - m + 1) + _TRUNCATION_MARGIN``:
#: states deeper than that refine *how far down* the tier is, not
#: whether it is down, and carry negligible probability in any regime
#: where the design is worth considering.  The simulation engine (no
#: truncation) bounds the error in the test suite.
_TRUNCATION_MARGIN = 12


def _solve_failover_chain(model: TierAvailabilityModel,
                          mode: FailureModeEntry,
                          notes: List[str] = None) -> Tuple[float, float]:
    n, s = model.n, model.s
    total = n + s
    failure_rate = 1.0 / mode.mtbf.as_hours
    repair_rate = 1.0 / max(mode.mttr.as_hours, _MIN_HOURS)
    failover_rate = 1.0 / max(mode.failover_time.as_hours, _MIN_HOURS)
    spare_rate = failure_rate if mode.spare_susceptible else 0.0
    w_cap = min(n, (n - model.m + 1) + s + _TRUNCATION_MARGIN)
    crew = model.repair_crew if model.repair_crew is not None else total

    def transitions(state) -> Iterable[Tuple[Tuple[int, int], float]]:
        r, w = state
        idle = s - r + w
        out = []
        manned = n - w
        if manned > 0 and r < total and w < w_cap:
            out.append(((r + 1, w + 1), manned * failure_rate))
        if spare_rate > 0.0 and idle > 0:
            out.append(((r + 1, w), idle * spare_rate))
        in_failover = min(w, idle)
        if in_failover > 0:
            out.append(((r, w - 1), in_failover * failover_rate))
        if r > 0:
            out.append(((r - 1, w), min(r, crew) * repair_rate))
        return out

    chain = ContinuousTimeMarkovChain((0, 0), transitions)
    probabilities = chain.steady_state()
    _note_degraded_solves(chain, mode, notes)
    unavailability = 0.0
    failure_flux = 0.0
    for (r, w), probability in probabilities.items():
        if n - w < model.m:
            unavailability += probability
        idle = s - r + w
        failure_flux += probability * ((n - w) * failure_rate
                                       + idle * spare_rate)
    return unavailability, failure_flux * HOURS_PER_YEAR


# ----------------------------------------------------------------------
# In-place repair chain: state r
# ----------------------------------------------------------------------


def _solve_inplace_chain(model: TierAvailabilityModel,
                         mode: FailureModeEntry,
                         notes: List[str] = None) -> Tuple[float, float]:
    n = model.n
    failure_rate = 1.0 / mode.mtbf.as_hours
    repair_rate = 1.0 / max(mode.mttr.as_hours, _MIN_HOURS)
    crew = model.repair_crew if model.repair_crew is not None else n

    def transitions(r) -> Iterable[Tuple[int, float]]:
        out = []
        if r < n:
            out.append((r + 1, (n - r) * failure_rate))
        if r > 0:
            out.append((r - 1, min(r, crew) * repair_rate))
        return out

    chain = ContinuousTimeMarkovChain(0, transitions)
    probabilities = chain.steady_state()
    _note_degraded_solves(chain, mode, notes)
    unavailability = 0.0
    failure_flux = 0.0
    for r, probability in probabilities.items():
        if n - r < model.m:
            unavailability += probability
        failure_flux += probability * (n - r) * failure_rate
    return unavailability, failure_flux * HOURS_PER_YEAR
