"""Batched tier evaluation: grouping, fallbacks and shape chunking.

The core entry point is :func:`solve_models`, which
:meth:`repro.availability.MarkovEngine.evaluate_tiers` calls for every
wavefront: given a list of
:class:`~repro.availability.TierAvailabilityModel`, it plans every
(model, mode) chain, groups same-shape chains across the whole batch,
solves each group in stacked numpy passes, and composes per-model
:class:`~repro.availability.TierResult` objects through the DFS
solver's own validation loop
(:func:`repro.availability.markov.compose_tier_result`).

Graceful degradation is per member, never per batch:

* a model whose rates are non-finite/zero where the shape expects a
  positive rate, or whose chain exceeds the dense-solve limit, is
  re-solved through the DFS chain builder of
  :mod:`repro.availability.markov` (``BATCH_MEMBER_DEGRADED`` /
  AVD803);
* a stacked group whose LU factorization fails (any singular member)
  falls back to DFS solves for every model touching that group
  (``BATCH_GROUP_FALLBACK`` / AVD802) -- the DFS path reproduces the
  least-squares corner-case handling exactly;
* the DFS re-solve reproduces its *exceptions* as well as its values,
  so error behavior is identical whichever path ran.

Per-model failures are returned as exception objects rather than
raised: the search decides lazily whether an erroring candidate is
ever actually reached (a cost-pruned candidate must not abort the
wavefront).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..availability.markov import (_MIN_HOURS, compose_tier_result,
                                   evaluate_tier)
from ..availability.model import (FailureModeEntry, ModeResult,
                                  TierAvailabilityModel, TierOutcome)
from ..obs import current as _obs_current
from ..units import HOURS_PER_YEAR
from .chains import DENSE_LIMIT, ShapeKey, TemplateCache
from .stacked import reduce_group, solve_size_class, solve_stacked

#: Shared per-process template cache (templates are immutable).
_TEMPLATES = TemplateCache()

_CLOSED = "closed"
_CHAIN = "chain"


def _mode_plan(model: TierAvailabilityModel, mode: FailureModeEntry):
    """Plan one (model, mode) solve.

    Returns ``(_CLOSED, failures_per_year)`` for the instant-repair
    closed form, ``(_CHAIN, shape_key, rates, uses_failover)`` for a
    batchable chain, or ``None`` when the member must take the scalar
    path (rate anomalies the template edge set cannot represent).
    """
    uses_failover = mode.uses_failover and model.s > 0
    if mode.mttr.as_seconds == 0 and not uses_failover:
        failures = model.n / mode.mtbf.as_hours * HOURS_PER_YEAR
        return (_CLOSED, failures)
    failure_rate = 1.0 / mode.mtbf.as_hours
    repair_rate = 1.0 / max(mode.mttr.as_hours, _MIN_HOURS)
    if uses_failover:
        crew = (model.repair_crew if model.repair_crew is not None
                else model.n + model.s)
        failover_rate = 1.0 / max(mode.failover_time.as_hours, _MIN_HOURS)
        spare_rate = failure_rate if mode.spare_susceptible else 0.0
        required = (failure_rate, repair_rate, failover_rate)
        key: ShapeKey = ("failover", model.n, model.m, model.s, crew,
                         spare_rate > 0.0)
        rates = (failure_rate, spare_rate, failover_rate, repair_rate)
    else:
        crew = model.repair_crew if model.repair_crew is not None \
            else model.n
        required = (failure_rate, repair_rate)
        key = ("inplace", model.n, model.m, crew)
        rates = (failure_rate, 0.0, 0.0, repair_rate)
    # The template bakes in "every edge has a positive rate"; a zero or
    # non-finite rate changes the scalar chain's reachable state set,
    # so such members take the scalar path instead.
    for rate in required:
        if not (math.isfinite(rate) and rate > 0.0):
            return None
    return (_CHAIN, key, rates, uses_failover)


def _scalar_outcome(model: TierAvailabilityModel) -> TierOutcome:
    """Solve one model through the DFS chain builder, capturing its
    error."""
    try:
        return evaluate_tier(model)
    except Exception as exc:
        return exc


def solve_models(models: Sequence[TierAvailabilityModel],
                 templates: Optional[TemplateCache] = None,
                 log=None,
                 chain_cache: Optional[dict] = None) -> List[TierOutcome]:
    """Solve a batch of tier models, grouped by chain shape.

    Returns one :class:`TierResult` *or* exception per model, in input
    order.  ``log`` is an optional
    :class:`~repro.resilience.events.DegradationLog` receiving AVD802/
    AVD803 events for members that degraded to the scalar path.

    Identical ``(shape, rates)`` chains are solved once and fanned out:
    neighboring candidates overwhelmingly share per-mode chains (only
    the varied mechanism's chain differs), and the solve is
    deterministic, so reuse returns bit-identical floats.
    ``chain_cache`` (optional dict) persists that memo across calls --
    each search passes one, so later wavefronts skip chains any
    earlier wavefront solved.

    With an observer installed, ``batch.members`` counts the models
    (and :func:`~repro.batch.stacked.solve_size_class` counts
    ``batch.lapack_calls``).
    """
    templates = templates if templates is not None else _TEMPLATES
    outcomes: List[Optional[TierOutcome]] = [None] * len(models)
    plans: Dict[int, list] = {}
    degraded_members: List[int] = []
    for index, model in enumerate(models):
        model_plans = []
        for mode in model.modes:
            try:
                plan = _mode_plan(model, mode)
            except Exception:
                # Planning itself blew up (e.g. a zero MTBF dividing by
                # zero): the scalar re-solve reproduces the exact
                # scalar exception as this member's outcome.
                plan = None
            if plan is None:
                degraded_members.append(index)
                break
            if plan[0] == _CHAIN:
                template = templates.get(plan[1])
                if not 2 <= template.size <= DENSE_LIMIT:
                    # Outside the dense-solve regime the scalar path
                    # switches solver (sparse LU); defer to it.
                    degraded_members.append(index)
                    break
            model_plans.append(plan)
        else:
            plans[index] = model_plans

    # -- dedupe chains, group the remainder by shape -------------------
    # chain key -> every (model index, mode index) that needs it.
    chain_refs: Dict[Tuple[ShapeKey, tuple], List[Tuple[int, int]]] = {}
    solved_chains: Dict[Tuple[ShapeKey, tuple], Tuple[float, float]] = {}
    groups: Dict[ShapeKey, List[tuple]] = {}
    for index, model_plans in plans.items():
        for mode_index, plan in enumerate(model_plans):
            if plan[0] != _CHAIN:
                continue
            chain_key = (plan[1], plan[2])
            refs = chain_refs.get(chain_key)
            if refs is None:
                refs = chain_refs[chain_key] = []
                if chain_cache is not None and chain_key in chain_cache:
                    solved_chains[chain_key] = chain_cache[chain_key]
                else:
                    groups.setdefault(plan[1], []).append(plan[2])
            refs.append((index, mode_index))

    group_fallback: Dict[int, ShapeKey] = {}
    # Merge same-size groups into one stacked LAPACK call each: the
    # gufunc factorizes every slice independently, so concatenation is
    # free of cross-member effects while amortizing dispatch overhead.
    size_classes: Dict[int, list] = {}
    for key, member_rates in groups.items():
        template = templates.get(key)
        rates = np.array(member_rates, dtype=np.float64).T
        size_classes.setdefault(template.size, []).append(
            (key, template, rates, member_rates))

    def _reduce(key, template, rates, probabilities,
                member_rates) -> None:
        unavailability, failures = reduce_group(template, rates,
                                                probabilities)
        for position, chain_rates in enumerate(member_rates):
            value = (float(unavailability[position]),
                     float(failures[position]))
            solved_chains[(key, chain_rates)] = value
            if chain_cache is not None:
                chain_cache[(key, chain_rates)] = value

    for size_groups in size_classes.values():
        try:
            solutions = solve_size_class(
                [(template, rates) for _, template, rates, _
                 in size_groups])
        except np.linalg.LinAlgError:
            # A singular member poisons the merged solve; retry per
            # group to isolate it, then degrade only that group's
            # members to DFS re-solves -- exact values, exact
            # exceptions, just slower.
            for key, template, rates, member_rates in size_groups:
                try:
                    probabilities = solve_stacked(template, rates)
                except np.linalg.LinAlgError:
                    for chain_rates in member_rates:
                        for index, _ in chain_refs[(key, chain_rates)]:
                            group_fallback.setdefault(index, key)
                    continue
                _reduce(key, template, rates, probabilities,
                        member_rates)
            continue
        for (key, template, rates, member_rates), probabilities \
                in zip(size_groups, solutions):
            _reduce(key, template, rates, probabilities, member_rates)

    solved: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for chain_key, value in solved_chains.items():
        for ref in chain_refs[chain_key]:
            solved[ref] = value

    # -- compose per model through the scalar validation loop ----------
    for index, model_plans in plans.items():
        if index in group_fallback:
            continue
        model = models[index]
        results = iter([
            _mode_result(model.modes[mode_index], plan,
                         solved.get((index, mode_index)))
            for mode_index, plan in enumerate(model_plans)])
        try:
            outcomes[index] = compose_tier_result(
                model, lambda mode: next(results))
        except Exception as exc:
            outcomes[index] = exc

    for index in degraded_members:
        outcomes[index] = _scalar_outcome(models[index])
    for index, key in group_fallback.items():
        outcomes[index] = _scalar_outcome(models[index])

    if log is not None:
        _log_degradations(log, models, degraded_members, group_fallback)
    obs = _obs_current()
    if obs.enabled:
        obs.inc("batch.members", len(models))
    return [outcome for outcome in outcomes]  # type: ignore[misc]


def _mode_result(mode: FailureModeEntry, plan,
                 values: Optional[Tuple[float, float]]) -> ModeResult:
    if plan[0] == _CLOSED:
        return ModeResult(mode.name, 0.0, plan[1], False)
    unavailability, failures = values
    return ModeResult(mode.name, unavailability, failures, plan[3])


def _log_degradations(log, models, degraded_members,
                      group_fallback) -> None:
    from ..resilience.events import (BATCH_GROUP_FALLBACK,
                                     BATCH_MEMBER_DEGRADED)
    for index in degraded_members:
        model = models[index]
        log.add(BATCH_MEMBER_DEGRADED, engine="markov", tier=model.name,
                detail="chain (n=%d m=%d s=%d) not representable by a "
                       "batched template; re-solved on the scalar path"
                       % (model.n, model.m, model.s))
    for index, key in group_fallback.items():
        log.add(BATCH_GROUP_FALLBACK, engine="markov",
                tier=models[index].name,
                detail="stacked solve for shape %r hit a singular "
                       "system; group members re-solved on the scalar "
                       "path" % (key,))


def transport_shape_key(model: TierAvailabilityModel) -> tuple:
    """A cheap structural key for chunking tasks across pool workers.

    Groups models that *tend* to share solve shape -- the worker-side
    batch core regroups exactly, so this only needs to be a good
    partition, not a perfect one.
    """
    return (model.n, model.m, model.s, model.repair_crew)
