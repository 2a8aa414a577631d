"""Semantic digital twin: object affordances and interaction rules.

The twin is the single source of truth for both prompting and simulation: a
rule is one trigger/preconditions/effects record that ``world.step`` runs and
the prompt line renders. Loading validates the closed affordance and action
vocabularies and the coupling between a type's rules and its affordance tags.
``ACTION_AFFORDANCES`` is the one table of the affordance each object action
needs; the simulator's gate table (``world.ACTION_GATES``, which the action
filter reads too) and rule validation both read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .errors import ValidationError


class ActionName(str, Enum):
    GOTO = "GotoObject"
    PICKUP = "PickupObject"
    PUT = "PutObject"
    OPEN = "OpenObject"
    CLOSE = "CloseObject"
    TOGGLE_ON = "ToggleOnObject"
    TOGGLE_OFF = "ToggleOffObject"
    SLICE = "SliceObject"
    CROUCH = "Crouch"
    STAND = "Stand"

    def __str__(self) -> str:  # renders as the wire name in traces/prompts
        return self.value


class AffordanceTag(str, Enum):
    PICKUPABLE = "Pickupable"
    RECEPTACLE = "Receptacle"
    OPENABLE = "Openable"
    TOGGLEABLE = "Toggleable"
    SLICEABLE = "Sliceable"
    FILLABLE = "Fillable"
    DIRTYABLE = "Dirtyable"
    COOKABLE = "Cookable"
    COOLABLE = "Coolable"
    HEATABLE = "Heatable"
    SLICING_TOOL = "SlicingTool"

    def __str__(self) -> str:
        return self.value


#: Agent-pose actions: they target no object and never pass the action filter.
POSE_ACTIONS = frozenset({ActionName.CROUCH, ActionName.STAND})

#: Actions that set one boolean flag on their target: the affordance the
#: target's type needs, the flag, and the value the action sets. The action
#: filter, the simulator and the postcondition check all read this one table;
#: an action is afforded only while the flag does not hold the value yet.
FLAG_ACTIONS: dict[ActionName, tuple[AffordanceTag, str, bool]] = {
    ActionName.OPEN: (AffordanceTag.OPENABLE, "isOpen", True),
    ActionName.CLOSE: (AffordanceTag.OPENABLE, "isOpen", False),
    ActionName.TOGGLE_ON: (AffordanceTag.TOGGLEABLE, "isToggled", True),
    ActionName.TOGGLE_OFF: (AffordanceTag.TOGGLEABLE, "isToggled", False),
    ActionName.SLICE: (AffordanceTag.SLICEABLE, "isSliced", True),
}

#: Boolean state flags every scene object carries.
FLAG_NAMES = (
    "isOpen",
    "isDirty",
    "isCooked",
    "isSliced",
    "isToggled",
    "isFilled",
)

TEMPERATURES = ("Hot", "Cold", "RoomTemp")

#: The affordance an object action needs on its target's type. The flag
#: actions take theirs from ``FLAG_ACTIONS``.
ACTION_AFFORDANCES: dict[ActionName, AffordanceTag] = {
    ActionName.PICKUP: AffordanceTag.PICKUPABLE,
    ActionName.PUT: AffordanceTag.RECEPTACLE,
    **{action: tag for action, (tag, _, _) in FLAG_ACTIONS.items()},
}

#: Affordance a target's type needs before a rule effect applies to it, by
#: the flag the effect sets or, for a temperature effect, the temperature.
_EFFECT_AFFORDANCES: dict[str, AffordanceTag] = {
    **{flag: tag for tag, flag, _ in FLAG_ACTIONS.values()},
    "isFilled": AffordanceTag.FILLABLE,
    "isDirty": AffordanceTag.DIRTYABLE,
    "isCooked": AffordanceTag.COOKABLE,
    "Hot": AffordanceTag.HEATABLE,
    "Cold": AffordanceTag.COOLABLE,
}

_ENTRY_FIELDS = frozenset({"type", "affordances", "description", "rules"})
_RULE_FIELDS = frozenset({"action", "pre", "effect"})
_PREDICATE_FIELDS = frozenset({"flag", "is"})
_EFFECT_FIELDS = frozenset({"scope", "set", "to"})
_EFFECT_SCOPES = ("contents", "nearby")


@dataclass(frozen=True)
class StatePredicate:
    """A flag value on the rule owner."""

    flag: str
    value: bool


@dataclass(frozen=True)
class StateEffect:
    """State mutation applied when a rule fires.

    ``scope`` picks the targets relative to the rule owner, never the owner
    itself: its direct contents, or objects nearby. ``field_name`` is a flag,
    set to a boolean, or ``temperature``, set to Hot or Cold. An effect only
    touches instances whose type carries its ``gate``.
    """

    field_name: str
    to: object
    scope: str

    @property
    def gate(self) -> AffordanceTag:
        return _EFFECT_AFFORDANCES[self.to if self.field_name == "temperature" else self.field_name]


@dataclass(frozen=True)
class InteractionRule:
    trigger_action: ActionName
    preconditions: tuple[StatePredicate, ...]
    effects: tuple[StateEffect, ...]


@dataclass(frozen=True)
class ObjectTypeEntry:
    type_name: str
    affordances: frozenset[AffordanceTag]
    description: str
    rules: tuple[InteractionRule, ...]

    def has(self, tag: AffordanceTag) -> bool:
        return tag in self.affordances

    @property
    def is_slicing_tool(self) -> bool:
        return self.has(AffordanceTag.SLICING_TOOL)


class SDT:
    """Immutable, queryable collection of object type entries."""

    def __init__(self, entries: Iterable[ObjectTypeEntry]):
        self._entries: dict[str, ObjectTypeEntry] = {}
        for entry in entries:
            if entry.type_name in self._entries:
                raise ValidationError(f"duplicate type entry: {entry.type_name}")
            self._entries[entry.type_name] = entry
        #: the types a ``PutObject`` can target; every prompt lists their instances
        self.receptacle_types = frozenset(
            t for t, e in self._entries.items() if e.has(AffordanceTag.RECEPTACLE)
        )

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, type_name: str) -> ObjectTypeEntry:
        """The entry of ``type_name``; a type the knowledge base lacks gets an
        entry with no affordances and no rules, so it affords nothing."""
        entry = self._entries.get(type_name)
        if entry is None:
            return ObjectTypeEntry(type_name, frozenset(), "", ())
        return entry

    def type_names(self) -> list[str]:
        return sorted(self._entries)

    def slicing_tool_types(self) -> list[str]:
        return sorted(t for t, e in self._entries.items() if e.is_slicing_tool)


def _parse_predicate(raw: dict, where: str) -> StatePredicate:
    if "scope" in raw:
        raise ValidationError(f"{where}: unknown predicate scope {raw['scope']!r}")
    flag = raw.get("flag")
    if flag not in FLAG_NAMES or not raw.keys() <= _PREDICATE_FIELDS:
        raise ValidationError(f"{where}: a predicate tests one known flag: {raw!r}")
    value = raw.get("is", True)
    if not isinstance(value, bool):
        raise ValidationError(f"{where}: predicate 'is' must be a boolean")
    return StatePredicate(flag=flag, value=value)


def _parse_effect(raw: dict, where: str) -> StateEffect:
    if extra := sorted(raw.keys() - _EFFECT_FIELDS):
        raise ValidationError(f"{where}: unknown effect fields {extra}")
    if raw.keys() != _EFFECT_FIELDS:
        raise ValidationError(f"{where}: effect needs 'scope', 'set' and 'to' fields")
    field_name, to, scope = raw["set"], raw["to"], raw["scope"]
    if scope not in _EFFECT_SCOPES:
        raise ValidationError(f"{where}: unknown effect scope {scope!r}")
    if field_name in FLAG_NAMES:
        if not isinstance(to, bool):
            raise ValidationError(f"{where}: flag effect {field_name} needs a boolean")
    elif field_name == "temperature":
        if to not in ("Hot", "Cold"):
            raise ValidationError(f"{where}: bad temperature value {to!r}")
    else:
        raise ValidationError(f"{where}: effect field {field_name!r} does not exist on instances")
    return StateEffect(field_name=field_name, to=to, scope=scope)


def _objects(raw: dict, key: str, where: str) -> list[dict]:
    """``raw[key]`` (absent: empty), which must be a list of JSON objects."""
    value = raw.get(key, [])
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise ValidationError(f"{where}: '{key}' must be a list of objects")
    return value


def parse_sdt_data(data: object) -> SDT:
    """Build a validated SDT from already-decoded JSON data."""
    if not isinstance(data, list):
        raise ValidationError("knowledge base file must be a top-level array of entries")
    entries = []
    for i, raw in enumerate(data):
        where = f"entry {i}"
        if not isinstance(raw, dict) or "type" not in raw:
            raise ValidationError(f"{where}: each entry needs a 'type' field")
        type_name = raw["type"]
        if not isinstance(type_name, str):
            raise ValidationError(f"{where}: 'type' must be a string")
        where = type_name
        if extra := sorted(raw.keys() - _ENTRY_FIELDS):
            raise ValidationError(f"{where}: unknown entry fields {extra}")
        description = raw.get("description", "")
        if not isinstance(description, str):
            raise ValidationError(f"{where}: 'description' must be a string")
        affordances = raw.get("affordances", [])
        if not isinstance(affordances, list):
            raise ValidationError(f"{where}: 'affordances' must be a list of tags")
        tags = set()
        for tag in affordances:
            try:
                tags.add(AffordanceTag(tag))
            except ValueError:
                raise ValidationError(f"{where}: unknown affordance tag {tag!r}") from None
        if {AffordanceTag.SLICEABLE, AffordanceTag.RECEPTACLE} <= tags:
            # slicing deletes the object, which would leave its contents without a container
            raise ValidationError(f"{where}: a Sliceable type cannot be a Receptacle")
        if AffordanceTag.SLICING_TOOL in tags and (
            AffordanceTag.SLICEABLE in tags or AffordanceTag.PICKUPABLE not in tags
        ):
            raise ValidationError(f"{where}: a SlicingTool type must be Pickupable and not Sliceable")
        rules = []
        for j, raw_rule in enumerate(_objects(raw, "rules", where)):
            rwhere = f"{where}/rule {j}"
            if extra := sorted(raw_rule.keys() - _RULE_FIELDS):
                raise ValidationError(f"{rwhere}: unknown rule fields {extra}")
            try:
                action = ActionName(raw_rule.get("action"))
            except ValueError:
                raise ValidationError(
                    f"{rwhere}: unknown trigger action {raw_rule.get('action')!r}"
                ) from None
            needed = ACTION_AFFORDANCES.get(action)
            if needed is None:  # ``step`` fires no rules on a goto or a pose action
                raise ValidationError(f"{where}/{action}: {action} fires no rules")
            if needed not in tags:
                raise ValidationError(f"{where}/{action}: trigger requires affordance {needed}")
            rules.append(
                InteractionRule(
                    trigger_action=action,
                    preconditions=tuple(
                        _parse_predicate(p, rwhere) for p in _objects(raw_rule, "pre", rwhere)
                    ),
                    effects=tuple(
                        _parse_effect(e, rwhere) for e in _objects(raw_rule, "effect", rwhere)
                    ),
                )
            )
        entries.append(ObjectTypeEntry(
            type_name=type_name,
            affordances=frozenset(tags),
            description=description,
            rules=tuple(rules),
        ))
    return SDT(entries)


def load_sdt(path: str | Path) -> SDT:
    """Load and validate a knowledge base file (UTF-8 JSON array of entries)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read knowledge base file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed knowledge base file: {exc}") from exc
    return parse_sdt_data(data)


def _field_text(field_name: str, value: object) -> str:
    if field_name == "temperature":
        return f"temp={value}"
    return field_name if value else f"!{field_name}"


def _render_rule(rule: InteractionRule) -> str:
    """``<Action>[ if <pre>, ...] -> <scope> <effect>, ...[; <scope> ...].`` in the
    goal line's notation: ``isX``, ``!isX`` or ``temp=<T>``; no effect reads ``-``."""
    head = str(rule.trigger_action)
    if rule.preconditions:
        head += " if " + ", ".join(_field_text(p.flag, p.value) for p in rule.preconditions)
    by_scope: dict[str, list[str]] = {}
    for e in rule.effects:
        by_scope.setdefault(e.scope, []).append(_field_text(e.field_name, e.to))
    effects = "; ".join(f"{scope} {', '.join(parts)}" for scope, parts in by_scope.items())
    return f"{head} -> {effects or '-'}."


def render_type_text(entry: ObjectTypeEntry) -> str:
    """One prompt line for a type: ``- <Type> [<affordances, sorted>] <description>
    Rules: <rules>``, the rule part left out when the type has none."""
    rules = " ".join(_render_rule(rule) for rule in entry.rules)
    affordances = ", ".join(sorted(str(a) for a in entry.affordances))
    return " ".join(filter(None, (
        f"- {entry.type_name} [{affordances}]", entry.description, rules and f"Rules: {rules}"
    )))
