"""Availability mechanisms (paper section 3.1.2).

A mechanism is a *configurable operator* over other attributes of the
design: selecting a maintenance contract level sets component MTTRs;
selecting a checkpoint interval sets the application's loss window.
Each mechanism declares

* named parameters, each with a :class:`~repro.units.ValueRange` of
  allowed settings,
* *effects*: attribute values (``mttr``, ``loss_window``, ``cost``)
  expressed as functions of the parameter settings.

A :class:`MechanismConfig` pairs a mechanism with concrete parameter
values and can resolve any effect to a concrete value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from ..errors import ModelError
from ..units import Duration, ValueRange, canonical_scalar


@dataclass(frozen=True)
class MechanismParameter:
    """One configuration knob of a mechanism (e.g. ``level``)."""

    name: str
    values: ValueRange

    def __post_init__(self):
        if len(self.values) == 0:
            raise ModelError(
                "mechanism parameter %r has an empty range" % self.name)


class Effect:
    """How a mechanism determines one attribute's value.

    Subclasses resolve against a mapping of parameter name -> setting.
    """

    def resolve(self, settings: Mapping[str, object]):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantEffect(Effect):
    """Attribute takes a fixed value regardless of parameters."""

    value: object

    def resolve(self, settings: Mapping[str, object]):
        return self.value


@dataclass(frozen=True)
class ParameterEffect(Effect):
    """Attribute equals a parameter's value directly.

    The checkpoint mechanism's ``loss_window=checkpoint_interval`` is
    this: the loss window *is* the selected interval.
    """

    parameter: str

    def resolve(self, settings: Mapping[str, object]):
        try:
            return settings[self.parameter]
        except KeyError:
            raise ModelError("effect references unset parameter %r"
                             % self.parameter)


@dataclass(frozen=True)
class TableEffect(Effect):
    """Attribute looked up from a table keyed by one parameter.

    ``mttr(level)=[38h 15h 8h 6h]`` maps each value of ``level`` (in
    range order) to a duration.
    """

    parameter: str
    table: Tuple[Tuple[object, object], ...]  # ((setting, value), ...)

    def resolve(self, settings: Mapping[str, object]):
        try:
            key = settings[self.parameter]
        except KeyError:
            raise ModelError("effect references unset parameter %r"
                             % self.parameter)
        for setting, value in self.table:
            if setting == key:
                return value
        raise ModelError("no table entry for %s=%r" % (self.parameter, key))

    @classmethod
    def from_values(cls, parameter: MechanismParameter,
                    values: List[object]) -> "TableEffect":
        settings = parameter.values.values()
        if len(settings) != len(values):
            raise ModelError(
                "table for parameter %r has %d entries but the parameter "
                "has %d settings" % (parameter.name, len(values),
                                     len(settings)))
        return cls(parameter.name, tuple(zip(settings, values)))


@dataclass(frozen=True)
class AvailabilityMechanism:
    """A named, configurable availability mechanism."""

    name: str
    parameters: Tuple[MechanismParameter, ...] = ()
    #: attribute name -> Effect.  Recognized attributes: ``cost``
    #: (annual dollars), ``mttr`` (Duration), ``loss_window`` (Duration).
    effects: Mapping[str, Effect] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for parameter in self.parameters:
            if parameter.name in seen:
                raise ModelError("mechanism %r: duplicate parameter %r"
                                 % (self.name, parameter.name))
            seen.add(parameter.name)
        for attribute, effect in self.effects.items():
            for ref in _effect_parameter_refs(effect):
                if ref not in seen:
                    raise ModelError(
                        "mechanism %r: effect on %r references unknown "
                        "parameter %r" % (self.name, attribute, ref))

    def parameter(self, name: str) -> MechanismParameter:
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        raise ModelError("mechanism %r has no parameter %r"
                         % (self.name, name))

    def provides(self, attribute: str) -> bool:
        return attribute in self.effects

    def configurations(self) -> Iterator["MechanismConfig"]:
        """Yield every combination of parameter settings (design search)."""
        if not self.parameters:
            yield MechanismConfig(self, {})
            return
        names = [parameter.name for parameter in self.parameters]
        pools = [parameter.values.values() for parameter in self.parameters]
        for combo in itertools.product(*pools):
            yield MechanismConfig(self, dict(zip(names, combo)))

    def configuration_count(self) -> int:
        count = 1
        for parameter in self.parameters:
            count *= len(parameter.values)
        return count


def _effect_parameter_refs(effect: Effect) -> List[str]:
    if isinstance(effect, ParameterEffect):
        return [effect.parameter]
    if isinstance(effect, TableEffect):
        return [effect.parameter]
    return []


class MechanismConfig:
    """A mechanism with all parameters bound to concrete settings.

    :attr:`key` is the configuration's exact, hashable identity:
    the mechanism name and its settings in sorted order, each value
    as :func:`_setting_key` spells it.  Searches key solved structures
    and memoized failure modes on it, so it must never equate two
    different settings.
    """

    __slots__ = ("mechanism", "settings", "key")

    def __init__(self, mechanism: AvailabilityMechanism,
                 settings: Dict[str, object]):
        for parameter in mechanism.parameters:
            if parameter.name not in settings:
                raise ModelError(
                    "mechanism %r: parameter %r not set"
                    % (mechanism.name, parameter.name))
            if settings[parameter.name] not in parameter.values:
                raise ModelError(
                    "mechanism %r: %r is not an allowed value of %r"
                    % (mechanism.name, settings[parameter.name],
                       parameter.name))
        unknown = set(settings) - {p.name for p in mechanism.parameters}
        if unknown:
            raise ModelError("mechanism %r: unknown parameters %s"
                             % (mechanism.name, sorted(unknown)))
        self.mechanism = mechanism
        self.settings = dict(settings)
        self.key = (mechanism.name,
                    tuple((name, _setting_key(value))
                          for name, value in sorted(self.settings.items())))

    @property
    def name(self) -> str:
        return self.mechanism.name

    def attribute(self, name: str):
        """Resolve an effect attribute (``mttr``, ``loss_window``...)."""
        if name not in self.mechanism.effects:
            raise ModelError("mechanism %r does not affect %r"
                             % (self.mechanism.name, name))
        return self.mechanism.effects[name].resolve(self.settings)

    def cost(self) -> float:
        """Annual cost of this mechanism configuration (0 if no effect)."""
        if not self.mechanism.provides("cost"):
            return 0.0
        return float(self.attribute("cost"))

    def duration_attribute(self, name: str) -> Duration:
        value = self.attribute(name)
        if isinstance(value, Duration):
            return value
        return Duration.parse(value)

    def canonical_fragment(self) -> dict:
        """Normalized, JSON-stable description of this configuration.

        Parameters are listed in sorted name order with unit-canonical
        values (:func:`repro.units.canonical_scalar`), so two configs
        that spell the same settings differently (``90s`` vs ``1.5m``,
        any dict insertion order) produce identical fragments.  This is
        the content the space analyzer's combo keys hash.
        """
        return {"mechanism": self.mechanism.name,
                "settings": [[key, canonical_scalar(value)]
                             for key, value
                             in sorted(self.settings.items())]}

    def __eq__(self, other) -> bool:
        return (isinstance(other, MechanismConfig)
                and self.mechanism.name == other.mechanism.name
                and self.settings == other.settings)

    def __hash__(self) -> int:
        return hash(self.key)

    def describe(self) -> str:
        if not self.settings:
            return self.mechanism.name
        inner = ", ".join("%s=%s" % (key, _format_setting(value))
                          for key, value in sorted(self.settings.items()))
        return "%s(%s)" % (self.mechanism.name, inner)

    def __repr__(self) -> str:
        return "MechanismConfig(%s)" % self.describe()


def _setting_key(value) -> object:
    """Exact, hashable spelling of one mechanism setting.

    :func:`repro.units.canonical_scalar` with its lists held as
    tuples: a Duration keys on its exact seconds (``float.hex``), not
    on the 4-significant-digit :meth:`Duration.format`, so two unequal
    settings never share a key.  Tuples serialize to JSON lists and
    back (``SearchCheckpoint``), so keys built from it round-trip.
    """
    value = canonical_scalar(value)
    return tuple(value) if isinstance(value, list) else value


def _format_setting(value) -> str:
    if isinstance(value, Duration):
        return value.format()
    return str(value)
