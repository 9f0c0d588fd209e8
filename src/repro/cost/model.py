"""Design cost evaluation (paper section 4.2).

"The cost of a design is simply calculated as the sum of the cost of
all components at their selected operational mode (active or inactive)
and the cost of the availability mechanisms for the selected values of
their parameters."

Mechanism cost accounting follows the paper's discussion of maintenance
contracts ("the cost of a maintenance contract is proportional to the
number of machines it covers", section 5.1): a mechanism configuration
is charged once per component instance that defers an attribute to it
-- active and spare instances alike, since spares need coverage to be
repairable after they take over.  Mechanisms nobody defers to but which
are listed in the tier's service model (e.g. checkpointing that only
affects loss windows already counted via a component) are charged once
per tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

from ..errors import EvaluationError
from ..model import (InfrastructureModel, MechanismConfig, OperationalMode,
                     ResourceType)


@dataclass(frozen=True)
class CostBreakdown:
    """Annual cost of one tier design, itemized."""

    active_components: float
    spare_components: float
    mechanisms: float

    @property
    def total(self) -> float:
        return (self.active_components + self.spare_components
                + self.mechanisms)

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            self.active_components + other.active_components,
            self.spare_components + other.spare_components,
            self.mechanisms + other.mechanisms)


ZERO_COST = CostBreakdown(0.0, 0.0, 0.0)


def tier_cost(infrastructure: InfrastructureModel,
              resource: ResourceType,
              n_active: int,
              n_spare: int,
              spare_modes: Mapping[str, OperationalMode],
              mechanism_configs: Tuple[MechanismConfig, ...]) \
        -> CostBreakdown:
    """Annual cost of a tier design.

    ``spare_modes`` maps each component of the resource to its
    operational mode in spare instances.
    """
    if n_active < 1:
        raise EvaluationError("tier needs at least one active resource")
    if n_spare < 0:
        raise EvaluationError("spare count cannot be negative")

    active_unit = 0.0
    spare_unit = 0.0
    for slot in resource.slots:
        component = infrastructure.component(slot.component)
        active_unit += component.cost.for_mode(OperationalMode.ACTIVE)
        mode = spare_modes.get(slot.component, OperationalMode.INACTIVE)
        spare_unit += component.cost.for_mode(mode)

    mechanisms = _mechanism_cost(infrastructure, resource,
                                 n_active + n_spare, mechanism_configs)
    return CostBreakdown(active_components=n_active * active_unit,
                         spare_components=n_spare * spare_unit,
                         mechanisms=mechanisms)


def _mechanism_cost(infrastructure: InfrastructureModel,
                    resource: ResourceType,
                    total_resources: int,
                    configs: Tuple[MechanismConfig, ...]) -> float:
    """Charge each configured mechanism per deferring component instance.

    Each resource instance contains one instance of each component; the
    number of component instances deferring to mechanism M is therefore
    ``total_resources`` times the number of the resource's components
    that reference M.
    """
    counts = mechanism_reference_counts(infrastructure, resource)
    return fold_charges(
        mechanism_multiplier(counts, config.name, total_resources)
        * config.cost()
        for config in configs)


def mechanism_reference_counts(infrastructure: InfrastructureModel,
                               resource: ResourceType) -> Dict[str, int]:
    """How many of the resource's components defer to each mechanism."""
    counts: Dict[str, int] = {}
    for slot in resource.slots:
        component = infrastructure.component(slot.component)
        for name in component.mechanism_references():
            counts[name] = counts.get(name, 0) + 1
    return counts


def mechanism_multiplier(reference_counts: Mapping[str, int], name: str,
                         total_resources: int) -> int:
    """Instances a configuration of mechanism ``name`` is charged for.

    One per deferring component instance; a mechanism no component
    defers to (e.g. checkpointing listed only in the service model) is
    charged once per tier.
    """
    multiplier = reference_counts.get(name, 0) * total_resources
    return multiplier if multiplier != 0 else 1


def fold_charges(charges: Iterable[float]) -> float:
    """Sum per-mechanism charges as the cost model does: a left fold
    from 0.0 in the order given, which for a design is its mechanisms
    sorted by name (:class:`~repro.core.TierDesign` order).

    Float addition is not associative, so every caller that must agree
    with :func:`tier_cost` to the bit (the job search's per-setting
    cost tables) folds through here.
    """
    total = 0.0
    for charge in charges:
        total += charge
    return total
