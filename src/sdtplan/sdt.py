"""Semantic digital twin: object affordances and interaction rules.

The twin is the single source of truth for both prompting (rendered rule
sentences) and simulation (machine-readable preconditions/effects). Loading
validates the closed affordance and action vocabularies and the coupling
between a type's rules and its affordance tags. ``ACTION_AFFORDANCES`` is the
one table of the affordance each object action needs; the simulator's gate
table (``world.ACTION_GATES``, which the action filter reads too) and rule
validation both read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

from .errors import ParseError, ValidationError


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
    BREAKABLE = "Breakable"
    DIRTYABLE = "Dirtyable"
    COOKABLE = "Cookable"
    COOLABLE = "Coolable"
    HEATABLE = "Heatable"
    MOVEABLE = "Moveable"

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
    "isBroken",
)

TEMPERATURES = ("Hot", "Cold", "RoomTemp")

#: The affordance an object action needs on its target's type. The flag
#: actions take theirs from ``FLAG_ACTIONS``.
ACTION_AFFORDANCES: dict[ActionName, AffordanceTag] = {
    ActionName.PICKUP: AffordanceTag.PICKUPABLE,
    ActionName.PUT: AffordanceTag.RECEPTACLE,
    **{action: tag for action, (tag, _, _) in FLAG_ACTIONS.items()},
}

#: Affordances that permit a type to own a rule triggered by an action on
#: itself: the action's own gate, and for a cut also Pickupable, the held
#: instrument's.
_TRIGGER_AFFORDANCES: dict[ActionName, frozenset[AffordanceTag]] = {
    action: frozenset({tag}) for action, tag in ACTION_AFFORDANCES.items()
}
_TRIGGER_AFFORDANCES[ActionName.SLICE] |= {AffordanceTag.PICKUPABLE}

#: Affordance a target's type needs before a rule effect applies to it, by
#: the flag the effect sets or, for a temperature effect, the temperature.
_EFFECT_AFFORDANCES: dict[str, AffordanceTag] = {
    **{flag: tag for tag, flag, _ in FLAG_ACTIONS.values()},
    "isFilled": AffordanceTag.FILLABLE,
    "isDirty": AffordanceTag.DIRTYABLE,
    "isCooked": AffordanceTag.COOKABLE,
    "isBroken": AffordanceTag.BREAKABLE,
    "Hot": AffordanceTag.HEATABLE,
    "Cold": AffordanceTag.COOLABLE,
}

_PREDICATE_SCOPES = ("self", "colocated")
_PREDICATE_FIELDS = frozenset({"scope", "flag", "is", "type"})
_EFFECT_SCOPES = ("self", "contents", "nearby")


@dataclass(frozen=True)
class StatePredicate:
    """A flag value on the rule owner (``self``) or on some co-located object
    (``colocated``), optionally of the type ``type_name``."""

    scope: str
    flag: str
    value: bool
    type_name: Optional[str] = None


@dataclass(frozen=True)
class StateEffect:
    """State mutation applied when a rule fires.

    ``scope`` picks the targets relative to the rule owner: itself, its
    direct contents, or objects nearby. ``field_name`` is a flag, set to a
    boolean, or ``temperature``, set to Hot or Cold. An effect only touches
    instances whose type carries its ``gate``.
    """

    field_name: str
    to: object
    scope: str = "self"

    @property
    def gate(self) -> AffordanceTag:
        return _EFFECT_AFFORDANCES[self.to if self.field_name == "temperature" else self.field_name]


@dataclass(frozen=True)
class InteractionRule:
    trigger_action: ActionName
    preconditions: tuple[StatePredicate, ...]
    effects: tuple[StateEffect, ...]
    text: str

    @property
    def reactive(self) -> bool:
        """True when the rule reacts to an action performed on another object."""
        return any(p.scope == "colocated" for p in self.preconditions)


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
        """Held instrument convention: Pickupable, not itself Sliceable, carries a cut rule."""
        return (
            self.has(AffordanceTag.PICKUPABLE)
            and not self.has(AffordanceTag.SLICEABLE)
            and any(r.trigger_action is ActionName.SLICE for r in self.rules)
        )


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
    scope = raw.get("scope", "self")
    if scope not in _PREDICATE_SCOPES:
        raise ValidationError(f"{where}: unknown predicate scope {scope!r}")
    flag = raw.get("flag")
    if flag not in FLAG_NAMES or not raw.keys() <= _PREDICATE_FIELDS:
        raise ValidationError(f"{where}: a predicate tests one known flag: {raw!r}")
    value = raw.get("is", True)
    if not isinstance(value, bool):
        raise ValidationError(f"{where}: predicate 'is' must be a boolean")
    type_name = raw.get("type")
    if type_name is not None and not isinstance(type_name, str):
        raise ParseError(f"{where}: predicate 'type' must be a string")
    return StatePredicate(scope=scope, flag=flag, value=value, type_name=type_name)


def _parse_effect(raw: dict, where: str) -> StateEffect:
    if "set" not in raw or "to" not in raw:
        raise ValidationError(f"{where}: effect needs 'set' and 'to' fields")
    field_name = raw["set"]
    to = raw["to"]
    scope = raw.get("scope", "self")
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


def _validate_rule(entry_name: str, affordances: frozenset[AffordanceTag], rule: InteractionRule) -> None:
    where = f"{entry_name}/{rule.trigger_action}"
    if not rule.text.strip():
        raise ValidationError(f"{where}: rule text must be non-empty")
    # Self-triggered rules answer to the trigger action's affordance;
    # reactive rules (conditioned on colocated state) do not,
    # their legitimacy comes from the effect gates below.
    if not rule.reactive:
        needed = _TRIGGER_AFFORDANCES.get(rule.trigger_action, frozenset())
        if needed and not (affordances & needed):
            raise ValidationError(
                f"{where}: trigger requires one of {sorted(str(a) for a in needed)}"
            )
    for eff in rule.effects:
        if eff.scope == "self" and eff.gate not in affordances:
            raise ValidationError(
                f"{where}: effect on {eff.field_name} requires affordance {eff.gate}"
            )


def _objects(raw: dict, key: str, where: str) -> list[dict]:
    """``raw[key]`` (absent: empty), which must be a list of JSON objects."""
    value = raw.get(key, [])
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise ParseError(f"{where}: '{key}' must be a list of objects")
    return value


def parse_sdt_data(data: object) -> SDT:
    """Build a validated SDT from already-decoded JSON data."""
    if not isinstance(data, list):
        raise ParseError("knowledge base file must be a top-level array of entries")
    entries = []
    for i, raw in enumerate(data):
        where = f"entry {i}"
        if not isinstance(raw, dict) or "type" not in raw:
            raise ParseError(f"{where}: each entry needs a 'type' field")
        type_name = raw["type"]
        if not isinstance(type_name, str):
            raise ParseError(f"{where}: 'type' must be a string")
        where = type_name
        tags = set()
        for tag in raw.get("affordances", []):
            try:
                tags.add(AffordanceTag(tag))
            except ValueError:
                raise ValidationError(f"{where}: unknown affordance tag {tag!r}") from None
        rules = []
        for j, raw_rule in enumerate(_objects(raw, "rules", where)):
            rwhere = f"{where}/rule {j}"
            text = raw_rule.get("text", "")
            if not isinstance(text, str):
                raise ParseError(f"{rwhere}: rule text must be a string")
            try:
                action = ActionName(raw_rule.get("action"))
            except ValueError:
                raise ValidationError(
                    f"{rwhere}: unknown trigger action {raw_rule.get('action')!r}"
                ) from None
            rules.append(
                InteractionRule(
                    trigger_action=action,
                    preconditions=tuple(
                        _parse_predicate(p, rwhere) for p in _objects(raw_rule, "pre", rwhere)
                    ),
                    effects=tuple(
                        _parse_effect(e, rwhere) for e in _objects(raw_rule, "effect", rwhere)
                    ),
                    text=text,
                )
            )
        entry = ObjectTypeEntry(
            type_name=type_name,
            affordances=frozenset(tags),
            description=raw.get("description", ""),
            rules=tuple(rules),
        )
        for rule in entry.rules:
            _validate_rule(type_name, entry.affordances, rule)
        entries.append(entry)
    return SDT(entries)


def load_sdt(path: str | Path) -> SDT:
    """Load and validate a knowledge base file (UTF-8 JSON array of entries)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read knowledge base file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed knowledge base file: {exc}") from exc
    return parse_sdt_data(data)


def render_type_text(entry: ObjectTypeEntry) -> str:
    """One prompt line for a type: ``- <Type> [<affordances, sorted>] <description>
    Rules: <rule texts>``, the rule part left out when the type has none."""
    rules = " ".join(rule.text for rule in entry.rules)
    affordances = ", ".join(sorted(str(a) for a in entry.affordances))
    return " ".join(filter(None, (
        f"- {entry.type_name} [{affordances}]", entry.description, rules and f"Rules: {rules}"
    )))
