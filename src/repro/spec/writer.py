"""Serialize model objects back to the specification DSL.

``parse(write(model))`` round-trips: the writer emits exactly the
subset of the language the parser understands, which the test suite
exercises as a property (write -> parse -> write is a fixed point).

Performance models serialize as ``expr:`` inline forms where possible.
Tabulated performance and mechanism overhead models (which came from
``.dat`` files) cannot be inlined: writing one raises
:class:`~repro.errors.ModelError` rather than emit a document that
parses to a different model.
"""

from __future__ import annotations

from typing import List

from ..errors import ModelError
from ..model import (AvailabilityMechanism, ComponentType, ConstantEffect,
                     ConstantPerformance, CostSchedule, ExpressionPerformance,
                     InfrastructureModel, MechanismRef, MechanismUse,
                     ParameterEffect, ResourceType, ServiceModel,
                     TableEffect, UnityOverhead)
from ..units import (ArithmeticRange, Duration, EnumeratedRange,
                     GeometricRange, ValueRange, WorkAmount)


def write_infrastructure(model: InfrastructureModel) -> str:
    """Render an infrastructure model as a Fig. 3 style document."""
    lines: List[str] = []
    for component in model.components:
        lines.extend(_component_lines(component))
    for mechanism in model.mechanisms:
        lines.extend(_mechanism_lines(mechanism))
    for resource in model.resources:
        lines.extend(_resource_lines(resource))
    return "\n".join(lines) + "\n"


def _component_lines(component: ComponentType) -> List[str]:
    head = "component=%s %s" % (component.name, _cost_text(component.cost))
    if component.loss_window is not None:
        head += " loss_window=%s" % _duration_or_ref(component.loss_window)
    if component.max_instances is not None:
        head += " max_instances=%d" % component.max_instances
    lines = [head]
    for mode in component.failure_modes:
        lines.append(
            " failure=%s mtbf=%s mttr=%s detect_time=%s"
            % (mode.name, mode.mtbf.format(), _duration_or_ref(mode.mttr),
               mode.detect_time.format()))
    return lines


def _cost_text(cost: CostSchedule) -> str:
    if cost.inactive == cost.active:
        return "cost=%g" % cost.active
    return "cost([inactive,active])=[%g %g]" % (cost.inactive, cost.active)


def _duration_or_ref(value) -> str:
    if isinstance(value, MechanismRef):
        return str(value)
    return value.format()  # Duration and WorkAmount both format()


def _mechanism_lines(mechanism: AvailabilityMechanism) -> List[str]:
    lines = ["mechanism=%s" % mechanism.name]
    for parameter in mechanism.parameters:
        lines.append(" param=%s range=%s"
                     % (parameter.name, _range_text(parameter.values)))
    for attribute in sorted(mechanism.effects):
        effect = mechanism.effects[attribute]
        lines.append(" " + _effect_text(attribute, effect))
    return lines


def _effect_text(attribute: str, effect) -> str:
    if isinstance(effect, ConstantEffect):
        return "%s=%s" % (attribute, _value_text(effect.value))
    if isinstance(effect, ParameterEffect):
        return "%s=%s" % (attribute, effect.parameter)
    if isinstance(effect, TableEffect):
        values = " ".join(_value_text(value) for _, value in effect.table)
        return "%s(%s)=[%s]" % (attribute, effect.parameter, values)
    raise ModelError("cannot serialize effect type %r"
                     % type(effect).__name__)


def _value_text(value) -> str:
    if isinstance(value, (Duration, WorkAmount)):
        return value.format()
    if isinstance(value, float) and value.is_integer():
        return "%d" % int(value)
    return str(value)


def _range_text(values: ValueRange) -> str:
    if isinstance(values, GeometricRange):
        return "[%s-%s;*%g]" % (values.start.format(), values.stop.format(),
                                values.factor)
    if isinstance(values, ArithmeticRange):
        return "[%g-%g,+%g]" % (values.start, values.stop, values.step)
    if isinstance(values, EnumeratedRange):
        return "[%s]" % ",".join(_value_text(v) for v in values.values())
    raise ModelError("cannot serialize range type %r"
                     % type(values).__name__)


def _resource_lines(resource: ResourceType) -> List[str]:
    lines = ["resource=%s reconfig_time=%s"
             % (resource.name, resource.reconfig_time.format())]
    for slot in resource.slots:
        lines.append(" component=%s depend=%s startup=%s"
                     % (slot.component, slot.depends_on or "null",
                        slot.startup.format()))
    return lines


def write_service(service: ServiceModel) -> str:
    """Render a service model as a Fig. 4/5 style document."""
    head = "application=%s" % service.name
    if service.job_size is not None:
        head += " jobsize=%g" % service.job_size
    lines = [head]
    for tier in service.tiers:
        lines.append("tier=%s" % tier.name)
        for option in tier.options:
            lines.append(" resource=%s sizing=%s failurescope=%s"
                         % (option.resource, option.sizing,
                            option.failure_scope))
            lines.append("  nActive=%s performance=%s"
                         % (_range_text(option.n_active),
                            _performance_text(option.performance)))
            for use in option.mechanisms:
                lines.append(_mechanism_use_text(use))
    return "\n".join(lines) + "\n"


def _mechanism_use_text(use: MechanismUse) -> str:
    if not isinstance(use.overhead, UnityOverhead):
        raise ModelError(
            "cannot inline the %r overhead model of mechanism %r; keep "
            "its mperformance .dat reference"
            % (type(use.overhead).__name__, use.mechanism))
    return "  mechanism=%s" % use.mechanism


def _performance_text(model) -> str:
    if isinstance(model, ConstantPerformance):
        return "%g" % model.capacity
    if isinstance(model, ExpressionPerformance):
        return "expr:%s" % model.expression.source.replace(" ", "")
    raise ModelError(
        "cannot inline performance model %r; keep its .dat reference"
        % type(model).__name__)
