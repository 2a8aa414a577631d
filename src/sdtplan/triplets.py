"""Grammar layer: action triplets, recovery pairs, goal conditions.

Parsers are total over arbitrary text: they either return a value or raise
one of the typed grammar errors, never anything else. Extraction is
tolerant of surrounding prose (live model output is chatty) and pulls the
first well-formed structure out of the reply.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Optional

from .errors import BadAction, GoalParseError, MalformedEntry, NoTripletsFound
from .sdt import ActionName, FLAG_NAMES, TEMPERATURES
from .world import ConcreteAction, WorldState, is_valid_object_id

_ACTION_NAMES = {a.value for a in ActionName}


@dataclass(frozen=True)
class ActionTriplet:
    """Abstract plan step: action, primary ref, optional secondary ref.

    Refs are type names or full instance ids; arg2 is None exactly when
    the source text's third slot was 0.
    """

    action: ActionName
    arg1: str
    arg2: Optional[str] = None

    @property
    def target_ref(self) -> Optional[str]:
        """The reference naming the concrete target: a two-reference put's
        receptacle, none for a pose, else the first reference."""
        if self.action in (ActionName.CROUCH, ActionName.STAND):
            return None
        if self.action is ActionName.PUT and self.arg2 is not None:
            return self.arg2
        return self.arg1

    def render(self) -> str:
        third = "0" if self.arg2 is None else f"'{self.arg2}'"
        return f"['{self.action}', '{self.arg1}', {third}]"


# ---------------------------------------------------------------------------
# Triplet parsing


#: A plan nests 2 deep, and a 3rd level lets ``_to_triplet`` name a list in a
#: triplet. A deeper ``[`` breaks the scan, which then restarts at the next
#: ``[``; so no reply costs more recursion or rescanning than that.
_MAX_LIST_DEPTH = 3


def _scan_nested_list(text: str, start: int, depth: int = 1) -> Optional[tuple[list, int]]:
    """Parse a bracketed list of strings/lists starting at ``start``; None if broken or too deep."""
    assert text[start] == "["
    items: list = []
    buf: list[str] = []
    has_token = False
    i = start + 1
    n = len(text)

    def flush() -> None:
        nonlocal has_token
        token = "".join(buf).strip()
        buf.clear()
        if token:
            items.append(token)
            has_token = False
        elif has_token:
            items.append("")
            has_token = False

    while i < n:
        ch = text[i]
        if ch == "[":
            if depth == _MAX_LIST_DEPTH:
                return None
            inner = _scan_nested_list(text, i, depth + 1)
            if inner is None:
                return None
            items.append(inner[0])
            i = inner[1]
            continue
        if ch == "]":
            flush()
            return items, i + 1
        if ch == ",":
            flush()
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                buf.append(text[j])
                j += 1
            if j >= n:
                return None
            has_token = True
            i = j + 1
            continue
        if ch == "(" or ch == ")":
            return None
        buf.append(ch)
        i += 1
    return None


def _first_list_of_lists(text: str) -> Optional[list]:
    empty_seen: Optional[list] = None
    pos = 0
    while True:
        pos = text.find("[", pos)
        if pos < 0:
            return empty_seen
        parsed = _scan_nested_list(text, pos)
        if parsed is not None:
            value = parsed[0]
            if value and all(isinstance(item, list) for item in value):
                return value
            if not value and empty_seen is None:
                empty_seen = value  # keep scanning: a real plan may follow
        pos += 1


def _to_triplet(item: list, position: int) -> ActionTriplet:
    if not (2 <= len(item) <= 3):
        raise MalformedEntry(f"triplet needs 2-3 slots, got {len(item)}", position)
    if any(isinstance(slot, list) for slot in item):
        raise MalformedEntry("nested list inside triplet", position)
    name = str(item[0]).strip()
    if name not in _ACTION_NAMES:
        raise BadAction(name)
    arg1 = str(item[1]).strip()
    if not arg1:
        raise MalformedEntry("empty first argument", position)
    arg2: Optional[str] = None
    if len(item) == 3:
        third = str(item[2]).strip()
        if third not in ("0", "", "None"):
            arg2 = third
    return ActionTriplet(action=ActionName(name), arg1=arg1, arg2=arg2)


def parse_triplets(text: str) -> list[ActionTriplet]:
    """Extract the first well-formed list-of-lists as a triplet plan."""
    value = _first_list_of_lists(text)
    if value is None:
        raise NoTripletsFound("no triplet list found in text")
    return [_to_triplet(item, i) for i, item in enumerate(value)]


def format_triplets(plan: list[ActionTriplet]) -> str:
    """Canonical single-line rendering; parse_triplets inverts it exactly."""
    return "[" + ", ".join(t.render() for t in plan) + "]"


# ---------------------------------------------------------------------------
# Recovery pair parsing

_PAIR_RE = re.compile(r"\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*,\s*([^(),]+?)\s*\)")


def parse_recovery(text: str) -> list[ConcreteAction]:
    """Extract ``(Action,Type|x|y|z)`` pairs from free text."""
    pairs = []
    for i, m in enumerate(_PAIR_RE.finditer(text)):
        name, target = m.group(1), m.group(2).strip().strip("'\"")
        if name not in _ACTION_NAMES:
            raise BadAction(name)
        if not is_valid_object_id(target):
            raise MalformedEntry(f"malformed target id {target!r}", i)
        pairs.append(ConcreteAction(ActionName(name), target))
    if pairs:
        return pairs
    if re.search(r"\[\s*\]", text):
        return []
    raise NoTripletsFound("no recovery pairs found in text")


def format_recovery(pairs: Iterable[ConcreteAction]) -> str:
    return "[" + ",".join(p.render() for p in pairs) + "]"


# ---------------------------------------------------------------------------
# Goal conditions


@dataclass(frozen=True)
class GoalClause:
    """Existential conjunct: some object of the type, witnessing no other
    clause, satisfies all parts.

    Flags may be prefixed with ``!`` to require False (e.g. a clean knife
    needs ``!isDirty``).
    """

    object_type: str
    required_flags: tuple[str, ...] = ()
    required_temperature: Optional[str] = None
    receptacle_type: Optional[str] = None

    def render(self) -> str:
        flags = ",".join(self.required_flags) if self.required_flags else "-"
        temp = self.required_temperature or "-"
        recept = self.receptacle_type or "-"
        return f"GOAL:{{type={self.object_type}; flags={flags}; temp={temp}; in={recept}}}"


@dataclass(frozen=True)
class GoalCondition:
    clauses: tuple[GoalClause, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise GoalParseError("goal needs at least one clause")
        for clause in self.clauses:
            if not clause.object_type:
                raise GoalParseError("goal clause needs an object type")
            for flag in clause.required_flags:
                if flag.lstrip("!") not in FLAG_NAMES:
                    raise GoalParseError(f"unknown goal flag {flag!r}")
            if (
                clause.required_temperature is not None
                and clause.required_temperature not in TEMPERATURES
            ):
                raise GoalParseError(
                    f"unknown goal temperature {clause.required_temperature!r}"
                )

    def render(self) -> str:
        return "\n".join(c.render() for c in self.clauses)


_GOAL_RE = re.compile(r"GOAL:\{([^{}]*)\}")


def parse_goal(text: str) -> GoalCondition:
    """Parse all GOAL:{type=..; flags=..; temp=..; in=..} lines in the text."""
    clauses = []
    for m in _GOAL_RE.finditer(text):
        fields: dict[str, str] = {}
        for part in m.group(1).split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise GoalParseError(f"bad goal field {part!r}")
            key, value = part.split("=", 1)
            fields[key.strip()] = value.strip()
        if "type" not in fields:
            raise GoalParseError("goal clause missing type field")
        flags_field = fields.get("flags", "-")
        flags = tuple(
            f.strip() for f in flags_field.split(",") if f.strip() and f.strip() != "-"
        )
        temp = fields.get("temp", "-")
        recept = fields.get("in", "-")
        clauses.append(
            GoalClause(
                object_type=fields["type"],
                required_flags=flags,
                required_temperature=None if temp in ("-", "") else temp,
                receptacle_type=None if recept in ("-", "") else recept,
            )
        )
    if not clauses:
        raise GoalParseError("no GOAL lines found in text")
    return GoalCondition(clauses=tuple(clauses))


# ---------------------------------------------------------------------------
# Goal checking


def _flag_satisfied(flags: dict[str, bool], token: str) -> bool:
    if token.startswith("!"):
        return not flags.get(token[1:], False)
    return flags.get(token, False)


def clause_conjuncts(state: WorldState, clause: GoalClause, obj) -> list[tuple[str, bool]]:
    """(need-token, satisfied) per conjunct, in canonical report order."""
    out = []
    for token in clause.required_flags:
        out.append((f"flag:{token}", _flag_satisfied(obj.flags, token)))
    if clause.required_temperature is not None:
        out.append(
            (f"temp:{clause.required_temperature}", obj.temperature == clause.required_temperature)
        )
    if clause.receptacle_type is not None:
        parent = state.objects.get(obj.parent_receptacle or "")
        out.append(
            (f"in:{clause.receptacle_type}", parent is not None and parent.type_name == clause.receptacle_type)
        )
    return out


def clause_witnesses(state: WorldState, clause: GoalClause) -> list[str]:
    """Ids of all objects satisfying the clause."""
    return sorted(
        obj.object_id
        for obj in state.of_types({clause.object_type})
        if all(ok for _, ok in clause_conjuncts(state, clause, obj))
    )


def _closest_miss(state: WorldState, clause: GoalClause, taken: AbstractSet[str]) -> str:
    """Unmet description naming the first failing conjunct of the best
    candidate that is not in ``taken`` (other clauses' witnesses)."""
    candidates = sorted(
        (o for o in state.of_types({clause.object_type}) if o.object_id not in taken),
        key=lambda o: o.object_id,
    )
    if not candidates:
        return f"UNMET type={clause.object_type} need=exists"
    best = max(
        candidates,
        key=lambda o: sum(ok for _, ok in clause_conjuncts(state, clause, o)),
    )
    for need, ok in clause_conjuncts(state, clause, best):
        if not ok:
            return f"UNMET type={clause.object_type} need={need} near={best.object_id}"
    return f"UNMET type={clause.object_type} need=exists"


def _witness_owners(options: list[list[str]]) -> dict[str, int]:
    """Witness id -> clause index of a maximum matching of clauses to distinct
    witnesses, ``options[k]`` being clause k's (augmenting paths, clause order)."""
    owner: dict[str, int] = {}

    def place(k: int, seen: set[str]) -> bool:
        for object_id in options[k]:
            if object_id not in seen:
                seen.add(object_id)
                if object_id not in owner or place(owner[object_id], seen):
                    owner[object_id] = k
                    return True
        return False

    for k in range(len(options)):
        place(k, set())
    return owner


def goal_satisfied(state: WorldState, goal: GoalCondition) -> tuple[bool, list[str]]:
    """Check every clause has a witness of its own; list closest-miss lines for the rest.

    No object witnesses two clauses, so two clauses asking for an apple in
    the fridge need two apples there. A clause left without a witness gets
    its line from the objects no other clause took.
    """
    owner = _witness_owners([clause_witnesses(state, clause) for clause in goal.clauses])
    matched = set(owner.values())
    unmet = [
        _closest_miss(state, clause, owner.keys())
        for k, clause in enumerate(goal.clauses) if k not in matched
    ]
    return (not unmet, unmet)
