"""Deterministic symbolic household simulator.

Scene objects carry structured ids (``Type|±XX.XX|±YY.YY|±ZZ.ZZ``) that
embed the spawn type and position, boolean state flags and containment
links. Transitions are pure: ``step`` returns a fresh state on success and
the untouched input state on error. Interaction rules from the knowledge
base fire after each successful transition (instant consequences, no
timed processes). Slicing consumes the object: its slices replace it, a net
gain of one record. A type the knowledge base lacks affords nothing:
``SDT.get`` gives it an empty entry and ``condition_fn`` admits no action on it.

How the agent perceives is the simulator's, not the scene's, as AI2-THOR's
controller fixes the visibility distance for every scene: an object is
visible within ``VISIBILITY_RADIUS`` of the agent, at a height inside the
current pose's view band (``VIEW_BAND_STANDING`` or ``VIEW_BAND_CROUCHED``),
with every container around it open. A scene's agent block holds only the
agent's position, pose and held object.

Transitions are copy-on-write. ``WorldState.clone`` copies the id-to-record
map and shares the ``ObjectInstance`` records with its source; a transition
takes a private copy of a record through ``WorldState.own`` before writing
it, so one action costs what it touches, not the size of the scene. This
rests on one rule: once a state has been copied, nothing writes to it or to
its records. ``step`` and ``inject_failure`` results obey it; code that
edits a cloned state's records must write through ``own``.

A loaded state is itself copy-on-write over its ``Scene``: the records
parsed from the file, kept with the sha256 of the file's bytes and shared by
every state that descends from the load. ``state_hash`` is relative to that
scene: it covers the records that differ from the scene's, found by identity
first, so hashing a state costs what the run changed.

Reads are indexed the same way. A ``Scene`` indexes its records' ids by
type and by parent receptacle. A state's ``objects`` is an ``ObjectMap``,
which remembers every id assigned or deleted through it: ``own``, slicing,
``fill``, or a direct assignment or ``del``. Every other id still holds the
scene's record, which the index describes. ``WorldState.of_types`` and
``contents_of`` share one scan: the index's unwritten ids, then the written
ids, each record tested on its current fields, so a query costs what the
task touches, not the size of the scene. ``near`` reads every record: only a
``nearby`` rule effect calls it, twice per faucet toggle, which is 2 calls
per cleaning task of the table-1 suite (0.71 per task over its 14 rows). A
state built in code has no scene and every id written. The index rests on one
rule: records are written only through ``own`` or by assigning into
``state.objects``. Editing a shared record's type, position or parent in
place is outside the contract, as it is for copy-on-write. A state's scene
is fixed when the state is made. ``validate_state`` still reads every
record, because it is the check.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Iterable, NamedTuple, Optional

from .errors import ValidationError
from .sdt import (
    ACTION_AFFORDANCES,
    SDT,
    ActionName,
    AffordanceTag,
    FLAG_ACTIONS,
    FLAG_NAMES,
    StateEffect,
    TEMPERATURES,
)

# Verbatim simulator error strings; recovery prompts must carry these bit-exact.
MSG_NOT_VISIBLE = "Target object not found within the specified visibility..."
MSG_NO_VALID_POSITION = "No valid positions to place object found."
MSG_HAND_OCCUPIED = "Agent is already holding an object."
MSG_HAND_EMPTY = "Agent is not holding any object."
MSG_NOT_AFFORDED = "Action is not applicable to the target object in its current state."
MSG_CLOSED_RECEPTACLE = "Target receptacle is closed."
MSG_UNKNOWN_OBJECT = "Referenced object does not exist in the scene."

#: Radius within which a rule's ``nearby`` effects reach.
NEARBY_RADIUS = 1.0

#: How far the agent sees, and the heights it sees standing and crouched.
VISIBILITY_RADIUS = 25.0
VIEW_BAND_STANDING = (0.80, 2.20)
VIEW_BAND_CROUCHED = (0.00, 1.50)

#: Standoff the agent keeps from a navigation target.
GOTO_STANDOFF = 0.5

#: Pieces produced by one slice action.
SLICE_CHILD_COUNT = 2

#: Temperature of an object whose scene entry gives none.
ROOM_TEMP = "RoomTemp"

_ID_RE = re.compile(
    r"^(?P<type>[A-Za-z][A-Za-z0-9_]*)"
    r"\|(?P<x>[+-]\d{2}\.\d{2})\|(?P<y>[+-]\d{2}\.\d{2})\|(?P<z>[+-]\d{2}\.\d{2})"
    r"(?P<suffix>\|[A-Za-z][A-Za-z0-9_]*Sliced-\d+)?$"
)
_ID_FORMAT = "%s|%+06.2f|%+06.2f|%+06.2f"


def format_object_id(type_name: str, position: tuple[float, float, float]) -> str:
    """The id of a ``type_name`` object at ``position``; a coordinate that does not
    round to within ±99.99 (NaN and ±inf among them) is refused."""
    for c in position:
        if not abs(round(c, 2)) <= 99.99:
            raise ValidationError(f"coordinate out of id range: {c}")
    return _ID_FORMAT % (type_name, *position)


def is_valid_object_id(object_id: str) -> bool:
    return _ID_RE.match(object_id) is not None


def type_of_id(object_id: str) -> str:
    """Type encoded in an id; slice-child suffixes carry the derived type."""
    m = _ID_RE.match(object_id)
    if m is None:
        return object_id
    suffix = m.group("suffix")
    if suffix:
        return suffix[1:].rsplit("-", 1)[0]
    return m.group("type")


@dataclass(frozen=True)
class ConcreteAction:
    """Fully grounded action: name plus the instance id it operates on.

    PutObject targets the receptacle (the placed object is whatever the
    agent holds); pose actions carry no target. Recovery pairs parse to
    this type too; a proposed pose pair names the receptacle it was offered
    against, which the resolver drops before the step.
    """

    name: ActionName
    target: Optional[str] = None

    def render(self) -> str:
        if self.target is None:
            return f"({self.name},)"
        return f"({self.name},{self.target})"


@dataclass
class ActionOutcome:
    status: str  # "Success" | "Error"
    error_code: Optional[str] = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "Success"

    @staticmethod
    def success(message: str = "") -> "ActionOutcome":
        return ActionOutcome(status="Success", message=message)

    @staticmethod
    def error(code: str, message: str) -> "ActionOutcome":
        return ActionOutcome(status="Error", error_code=code, message=message)


@dataclass
class ObjectInstance:
    object_id: str
    type_name: str
    position: tuple[float, float, float]
    flags: dict[str, bool]
    temperature: str = ROOM_TEMP
    parent_receptacle: Optional[str] = None
    capacity: int = 0

    def clone(self) -> "ObjectInstance":
        return ObjectInstance(
            self.object_id, self.type_name, self.position, dict(self.flags), self.temperature,
            self.parent_receptacle, self.capacity,
        )

    def flag(self, name: str) -> bool:
        return self.flags.get(name, False)


@dataclass(frozen=True, eq=False)
class Scene:
    """A loaded scene file: the sha256 of its bytes, the records parsed from
    them, and their ids by type and by parent receptacle.
    Nothing writes to these records; states own copies."""

    sha256: str
    objects: dict[str, ObjectInstance]
    by_type: dict[str, list[str]] = field(init=False, repr=False)
    by_parent: dict[str, list[str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        by_type, by_parent = defaultdict(list), defaultdict(list)
        for object_id, obj in self.objects.items():
            by_type[obj.type_name].append(object_id)
            if obj.parent_receptacle is not None:
                by_parent[obj.parent_receptacle].append(object_id)
        object.__setattr__(self, "by_type", dict(by_type))
        object.__setattr__(self, "by_parent", dict(by_parent))


class ObjectMap(dict):
    """Id-to-record map that remembers every id assigned (``m[i] = r``) or
    deleted (``del m[i]``) through it; states write their maps no other way.

    ``written`` holds those ids in first-write order. The scene index does
    not describe them, so the state queries read their records instead.
    """

    __slots__ = ("written",)

    @staticmethod
    def over(records: dict[str, ObjectInstance], written: Iterable[str]) -> "ObjectMap":
        """A map of ``records`` that counts the ``written`` ids as written."""
        new = ObjectMap(records)  # dict's own constructor: every step clones a map
        new.written = dict.fromkeys(written)
        return new

    def __setitem__(self, object_id, record) -> None:
        self.written[object_id] = None
        super().__setitem__(object_id, record)

    def __delitem__(self, object_id) -> None:
        super().__delitem__(object_id)
        self.written[object_id] = None


@dataclass
class WorldState:
    objects: dict[str, ObjectInstance]
    agent_position: tuple[float, float, float]
    agent_crouched: bool = False
    held_object: Optional[str] = None
    #: the scene file this state descends from; None for a state built in code
    scene: Optional[Scene] = field(default=None, repr=False, compare=False)
    # records of the map this state was cloned from are shared, not owned
    _source: Optional[dict[str, ObjectInstance]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # a plain map is written wherever its record is not the scene's:
        # everywhere when there is no scene
        objects = self.objects
        if not isinstance(objects, ObjectMap):
            base = self.scene.objects if self.scene is not None else {}
            written = [i for i, o in objects.items() if base.get(i) is not o]
            written += [i for i in base if i not in objects]
            self.objects = ObjectMap.over(objects, written)

    @property
    def view_band(self) -> tuple[float, float]:
        return VIEW_BAND_CROUCHED if self.agent_crouched else VIEW_BAND_STANDING

    def clone(self) -> "WorldState":
        """Copy-on-write copy: a new id-to-record map over shared records."""
        new = WorldState(
            objects=ObjectMap.over(self.objects, self.objects.written),
            agent_position=self.agent_position,
            agent_crouched=self.agent_crouched,
            held_object=self.held_object,
            scene=self.scene,
        )
        new._source = self.objects
        return new

    def own(self, object_id: str) -> ObjectInstance:
        """The record of ``object_id``, cloned into this state on first write."""
        obj = self.objects[object_id]
        if self._source is not None and self._source.get(object_id) is obj:
            obj = self.objects[object_id] = obj.clone()
        return obj

    def distance_to(self, obj: ObjectInstance) -> float:
        return math.dist(self.agent_position, obj.position)

    def _scan(
        self, index: str, keys: Iterable, test: Callable[[ObjectInstance], bool]
    ) -> list[ObjectInstance]:
        """Records that pass ``test``: first those of the unwritten ids that the
        scene's ``index`` (``by_type`` or ``by_parent``) lists
        under ``keys``, then those of the written ids."""
        objects = self.objects
        written = objects.written
        found = []
        if self.scene is not None:
            ids = getattr(self.scene, index)
            for key in keys:
                for i in ids.get(key, ()):
                    if i not in written and test(obj := objects[i]):
                        found.append(obj)
        for i in written:
            obj = objects.get(i)
            if obj is not None and test(obj):
                found.append(obj)
        return found

    def of_types(self, types: Collection[str]) -> list[ObjectInstance]:
        """Records whose type is in ``types``, in no particular order."""
        return self._scan("by_type", types, lambda o: o.type_name in types)

    def contents_of(self, receptacle_id: str) -> list[ObjectInstance]:
        """Records directly inside ``receptacle_id``, id-sorted."""
        found = self._scan(
            "by_parent", (receptacle_id,), lambda o: o.parent_receptacle == receptacle_id
        )
        found.sort(key=lambda o: o.object_id)
        return found

    def near(self, obj: ObjectInstance) -> list[ObjectInstance]:
        """Other records within NEARBY_RADIUS of ``obj``, in no particular order (reads all)."""
        object_id, position = obj.object_id, obj.position
        return [
            o for o in self.objects.values()
            if o.object_id != object_id and math.dist(o.position, position) <= NEARBY_RADIUS
        ]


def _record_json(o: ObjectInstance) -> dict:
    return {
        "id": o.object_id,
        "type": o.type_name,
        "position": list(o.position),
        "flags": {k: o.flags.get(k, False) for k in FLAG_NAMES},
        "temperature": o.temperature,
        "parent_receptacle": o.parent_receptacle,
        "capacity": o.capacity,
    }


def state_to_json(state: WorldState) -> dict:
    """The state relative to the scene it was loaded from, as ``state_hash`` hashes it.

    The document holds the scene file's sha256, the agent block, every record
    whose content differs from the scene's record (id-sorted) and the scene
    ids the state no longer has. A record that is the scene's own is skipped
    by identity. A state built without a scene file has a null scene and all
    its records count as changed.
    """
    scene = state.scene
    base = scene.objects if scene is not None else {}
    objects = state.objects
    changed = []
    for object_id in objects.written:  # every other id still holds the scene's record
        obj = objects.get(object_id)
        original = base.get(object_id)
        if obj is None or original is obj:
            continue
        record = _record_json(obj)
        if original is None or record != _record_json(original):
            changed.append(record)
    changed.sort(key=lambda r: r["id"])
    return {
        "scene": scene.sha256 if scene is not None else None,
        "agent": {
            "position": list(state.agent_position),
            "crouched": state.agent_crouched,
            "held_object": state.held_object,
        },
        "objects": changed,
        "removed": sorted(i for i in objects.written if i in base and i not in objects),
    }


def state_json_hash(data: dict) -> str:
    """sha256 of the canonical JSON (sorted keys, compact) of a ``state_to_json`` dict."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def state_hash(state: WorldState) -> str:
    """Content hash of the state relative to its scene (see ``state_to_json``)."""
    return state_json_hash(state_to_json(state))


# ---------------------------------------------------------------------------
# Scene loading


#: Python types of a JSON number; a bool is not one.
_NUMBER_TYPES = frozenset({int, float})
_OBJECT_FIELDS = frozenset({
    "type", "position", "flags", "temperature", "parent_receptacle", "capacity",
})
_AGENT_FIELDS = frozenset({"position", "crouched", "held_object"})


def _position(value: object, where: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where} must be a list of 3 numbers")
    if len(value) != 3:
        raise ValidationError(f"{where} must have 3 components")
    if not _NUMBER_TYPES.issuperset(map(type, value)):
        raise ValidationError(f"{where} must be a list of 3 numbers")
    if not all(map(math.isfinite, value)):
        raise ValidationError(f"{where} must be a list of 3 finite numbers")
    return tuple(map(float, value))


_NO_FLAGS = dict.fromkeys(FLAG_NAMES, False)


def _parse_instance(raw: dict, index: int, id_types: Collection[str]) -> ObjectInstance:
    """Scene record ``index``; its id is formatted from its type and position. A type
    in ``id_types`` has formed a valid id, so with every coordinate within ±99.99
    this record's id is valid too: no regex."""
    if not isinstance(raw, dict) or "type" not in raw or "position" not in raw:
        raise ValidationError(f"object {index}: needs 'type' and 'position'")
    if not _OBJECT_FIELDS.issuperset(raw):
        raise ValidationError(f"object {index}: unknown fields {sorted(raw.keys() - _OBJECT_FIELDS)}")
    p = raw["position"]
    if (type(p) is list and len(p) == 3 and type(p[0]) in _NUMBER_TYPES
            and type(p[1]) in _NUMBER_TYPES and type(p[2]) in _NUMBER_TYPES):
        position = (float(p[0]), float(p[1]), float(p[2]))
    else:  # not a list of 3 numbers: _position names the fault
        position = _position(p, f"object {index}: position")
    type_name = raw["type"]
    if type(type_name) is not str:
        raise ValidationError(f"object {index}: type must be a string")
    if (type_name in id_types and -99.99 <= position[0] <= 99.99
            and -99.99 <= position[1] <= 99.99 and -99.99 <= position[2] <= 99.99):
        object_id = _ID_FORMAT % (type_name, *position)
    else:  # a new type or an edge coordinate; the fast path let NaN and inf through
        _position(position, f"object {index}: position")
        try:
            object_id = format_object_id(type_name, position)
        except ValidationError as exc:
            raise ValidationError(f"object {index}: {exc}") from None
        if _ID_RE.match(object_id) is None:
            raise ValidationError(f"object {index}: malformed id {object_id!r}")
    flags = _NO_FLAGS.copy()
    if "flags" in raw:
        given_flags = raw["flags"]
        if not isinstance(given_flags, dict):
            raise ValidationError(f"object {index}: flags must be an object")
        for k, v in given_flags.items():
            if k not in FLAG_NAMES:
                raise ValidationError(f"object {index}: unknown flag {k!r}")
            if not isinstance(v, bool):
                raise ValidationError(f"object {index}: flag {k} must be a boolean")
            flags[k] = v
    temperature = raw.get("temperature", ROOM_TEMP)
    if temperature not in TEMPERATURES:
        raise ValidationError(f"object {index}: unknown temperature {temperature!r}")
    parent = raw.get("parent_receptacle")
    if parent is not None and not isinstance(parent, str):
        raise ValidationError(f"object {index}: parent_receptacle must be an object id")
    capacity = raw.get("capacity", 0)
    if type(capacity) is not int:
        raise ValidationError(f"object {index}: capacity must be an integer")
    return ObjectInstance(object_id, type_name, position, flags, temperature, parent, capacity)


def validate_state(state: WorldState, sdt: SDT) -> None:
    """Containment, capacity and id invariants; raises ValidationError."""
    objects = state.objects
    counts: dict[str, int] = {}  # receptacle id -> objects it holds
    for obj in objects.values():
        if obj.capacity < 0:
            raise ValidationError(f"{obj.object_id}: negative capacity")
        parent_id = obj.parent_receptacle
        if parent_id is None:
            continue
        parent = objects.get(parent_id)
        if parent is None:
            raise ValidationError(f"{obj.object_id}: dangling container {parent_id!r}")
        if not _afforded(sdt, parent, AffordanceTag.RECEPTACLE):
            raise ValidationError(
                f"{obj.object_id}: container {parent_id!r} is not a receptacle type"
            )
        counts[parent_id] = counts.get(parent_id, 0) + 1
    for obj in objects.values():  # in map order, so the first overfull receptacle is named
        count = counts.get(obj.object_id, 0)
        if count > obj.capacity:
            raise ValidationError(
                f"{obj.object_id}: holds {count} objects, capacity {obj.capacity}"
            )
    # containment must be acyclic
    for obj in objects.values():
        seen = set()
        cur: Optional[str] = obj.parent_receptacle
        while cur is not None:
            if cur in seen or cur == obj.object_id:
                raise ValidationError(f"{obj.object_id}: containment cycle via {cur!r}")
            seen.add(cur)
            cur = objects[cur].parent_receptacle
    if state.held_object is not None:
        held = objects.get(state.held_object)
        if held is None:
            raise ValidationError(f"held object {state.held_object!r} does not exist")
        if held.parent_receptacle is not None:
            raise ValidationError("held object cannot sit inside a receptacle")


def _parse_agent(agent: object) -> dict:
    """WorldState keyword arguments from a scene's agent block."""
    if not isinstance(agent, dict):
        raise ValidationError("scene file's 'agent' must be an object")
    if extra := sorted(agent.keys() - _AGENT_FIELDS):
        raise ValidationError(f"agent: unknown fields {extra}")
    held = agent.get("held_object")
    if held is not None and not isinstance(held, str):
        raise ValidationError("agent: held_object must be an object id")
    crouched = agent.get("crouched", False)
    if not isinstance(crouched, bool):
        raise ValidationError("agent: crouched must be a boolean")
    return {
        "agent_position": _position(agent.get("position", (0.0, 0.9, 0.0)), "agent: position"),
        "agent_crouched": crouched,
        "held_object": held,
    }


def load_scene(path: str | Path, sdt: SDT) -> WorldState:
    """Load a scene file and normalize/validate it against the knowledge base.

    The file is read once; its sha256 and the parsed records become the
    returned state's ``scene``, which the state is copy-on-write over.
    One pass reads each record: its keys, shape and JSON types, flags,
    temperature and id, then duplicate ids. Receptacles with no door get isOpen=True, so
    visibility and the action filter can read openness off the instance flag
    alone; that is decided once per type, in a memo that lives for this call
    only. The agent's position must be finite. ``validate_state`` then
    checks containment, capacity and the held object.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read scene file: {exc}") from exc
    try:
        data = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed scene file: {exc}") from exc
    if not isinstance(data, dict) or "agent" not in data or "objects" not in data:
        raise ValidationError("scene file must be an object with 'agent' and 'objects'")
    if extra := sorted(data.keys() - {"agent", "objects"}):
        raise ValidationError(f"scene file: unknown fields {extra}")
    if not isinstance(data["objects"], list):
        raise ValidationError("scene file's 'objects' must be a list")
    objects: dict[str, ObjectInstance] = {}
    opens: dict[str, bool] = {}  # type -> a receptacle with no door; each key has formed a valid id
    for i, raw in enumerate(data["objects"]):
        inst = _parse_instance(raw, i, opens)
        if inst.object_id in objects:
            raise ValidationError(f"duplicate object id {inst.object_id!r}")
        objects[inst.object_id] = inst
        if inst.type_name not in opens:
            tags = sdt.get(inst.type_name).affordances
            opens[inst.type_name] = AffordanceTag.RECEPTACLE in tags and AffordanceTag.OPENABLE not in tags
        if opens[inst.type_name]:
            inst.flags["isOpen"] = True
    scene = Scene(hashlib.sha256(blob).hexdigest(), objects)
    state = WorldState(objects=ObjectMap.over(objects, ()), **_parse_agent(data["agent"]), scene=scene)
    state._source = objects
    validate_state(state, sdt)
    return state


# ---------------------------------------------------------------------------
# Visibility


def is_closed_openable(sdt: SDT, obj: ObjectInstance) -> bool:
    return _afforded(sdt, obj, AffordanceTag.OPENABLE) and not obj.flag("isOpen")


def is_visible(state: WorldState, obj: ObjectInstance) -> bool:
    """Within the visibility radius and the current pose's view band, and
    every container around ``obj`` is open."""
    if state.distance_to(obj) > VISIBILITY_RADIUS:
        return False
    lo, hi = state.view_band
    if not lo <= obj.position[1] <= hi:
        return False
    cur = obj.parent_receptacle
    while cur is not None:
        parent = state.objects.get(cur)
        if parent is None or not parent.flag("isOpen"):
            return False
        cur = parent.parent_receptacle
    return True


def object_descriptions(state: WorldState) -> list[ObjectInstance]:
    """Scene objects the agent can currently perceive, sorted by id."""
    return sorted(
        (o for o in state.objects.values() if is_visible(state, o)),
        key=lambda o: o.object_id,
    )


# ---------------------------------------------------------------------------
# Rule engine


def _apply_effect(state: WorldState, sdt: SDT, owner: ObjectInstance, effect: StateEffect) -> None:
    gate = effect.gate
    if effect.scope == "contents":
        targets = state.contents_of(owner.object_id)
    else:
        targets = sorted(state.near(owner), key=lambda o: o.object_id)
    for target in targets:
        if not _afforded(sdt, target, gate):
            continue
        target = state.own(target.object_id)
        if effect.field_name == "temperature":
            target.temperature = effect.to
        else:
            target.flags[effect.field_name] = effect.to


def _fire_rules(state: WorldState, sdt: SDT, action: ActionName, target: ObjectInstance) -> None:
    """Fire the action target's rules for ``action``, in their order.

    Preconditions test the target's flags in the already-updated state
    (consequences are instant). No effect writes the target itself, so one
    read of it serves every rule.
    """
    for rule in sdt.get(target.type_name).rules:
        if rule.trigger_action is action and all(
            target.flag(p.flag) == p.value for p in rule.preconditions
        ):
            for effect in rule.effects:
                _apply_effect(state, sdt, target, effect)


# ---------------------------------------------------------------------------
# Transitions


def _afforded(sdt: SDT, obj: ObjectInstance, tag: AffordanceTag) -> bool:
    return sdt.get(obj.type_name).has(tag)


class Gate(NamedTuple):
    """One precondition of an action on its target: the error code ``step``
    refuses with, whether the test reads the target alone (the action filter
    checks exactly those), and the test. An object-local test gets no state."""

    code: str
    local: bool
    test: Callable[[Optional[WorldState], SDT, ObjectInstance], bool]


def _slicing_tool_held(state: WorldState, sdt: SDT, obj: ObjectInstance) -> bool:
    return sdt.get(state.objects[state.held_object].type_name).is_slicing_tool


def _afforded_gate(action: ActionName) -> Gate:
    tag = ACTION_AFFORDANCES[action]
    return Gate("NotAfforded", True, lambda state, sdt, obj: _afforded(sdt, obj, tag))


_VISIBLE = Gate("NotVisible", False, lambda state, sdt, obj: is_visible(state, obj))
_HOLDING = Gate("HandEmpty", False, lambda state, sdt, obj: state.held_object is not None)
_HAND_FREE = Gate("HandOccupied", False, lambda state, sdt, obj: state.held_object is None)
_NOT_HELD = Gate("NotAfforded", False, lambda state, sdt, obj: obj.object_id != state.held_object)
# a receptacle with no door has isOpen=True from the loader
_DOOR_OPEN = Gate("ClosedReceptacle", True, lambda state, sdt, obj: obj.flag("isOpen"))
_ROOM = Gate(
    "NoValidPosition", False,
    lambda state, sdt, obj: len(state.contents_of(obj.object_id)) < obj.capacity,
)
_TOOL_HELD = Gate("NotAfforded", False, _slicing_tool_held)


def _flag_gates(action: ActionName) -> tuple[Gate, ...]:
    _, flag, value = FLAG_ACTIONS[action]
    unset = Gate("NotAfforded", True, lambda state, sdt, obj: obj.flag(flag) != value)
    return (_VISIBLE, _afforded_gate(action), unset)


#: The gates ``step`` tries, in order, before an object action's effect; the
#: first that fails names the refusal. Pose actions have none.
ACTION_GATES: dict[ActionName, tuple[Gate, ...]] = {
    ActionName.GOTO: (),
    ActionName.PICKUP: (_VISIBLE, _afforded_gate(ActionName.PICKUP), _HAND_FREE),
    ActionName.PUT: (_HOLDING, _VISIBLE, _afforded_gate(ActionName.PUT), _NOT_HELD, _DOOR_OPEN, _ROOM),
    **{action: _flag_gates(action) for action in FLAG_ACTIONS},
}
ACTION_GATES[ActionName.SLICE] += (_HOLDING, _TOOL_HELD)

#: The message each refusal carries.
_MESSAGES = {
    "NotVisible": MSG_NOT_VISIBLE,
    "NoValidPosition": MSG_NO_VALID_POSITION,
    "HandOccupied": MSG_HAND_OCCUPIED,
    "HandEmpty": MSG_HAND_EMPTY,
    "NotAfforded": MSG_NOT_AFFORDED,
    "ClosedReceptacle": MSG_CLOSED_RECEPTACLE,
}


def condition_fn(sdt: SDT, obj: ObjectInstance, action: ActionName) -> bool:
    """Boolean action-validity condition over one scene object.

    True iff the knowledge base knows the object's type and every
    object-local gate of the action passes: the type's affordance and the
    object's own state. The other gates (visibility, the hand, room) are the
    simulator's concern. A type the knowledge base lacks admits nothing, not
    even ``GotoObject``, whose gate list is empty; a pose action is never
    admitted. It builds the resolver's pair map (``filter_actions``) and
    narrows grounding's candidates (``interpreter.resolve``).
    """
    gates = ACTION_GATES.get(action)
    if gates is None or obj.type_name not in sdt:
        return False
    return all(g.test(None, sdt, obj) for g in gates if g.local)


def filter_actions(
    sdt: SDT,
    objects: Iterable[ObjectInstance],
    actions: Iterable[ActionName],
) -> set[tuple[ActionName, str]]:
    """All (action, object id) pairs the condition function admits; an object
    of a type the knowledge base lacks contributes none."""
    action_list = list(actions)
    pairs: set[tuple[ActionName, str]] = set()
    for obj in objects:
        for action in action_list:
            if condition_fn(sdt, obj, action):
                pairs.add((action, obj.object_id))
    return pairs


def step(state: WorldState, action: ConcreteAction, sdt: SDT) -> tuple[WorldState, ActionOutcome]:
    """Execute one grounded action. Errors leave the input state untouched.

    A pose action only sets the pose. An object action's target must exist;
    then the action's ``ACTION_GATES`` are tried in order, the first failing
    gate's code is the refusal, and the effect runs only when all pass. A
    slice fires its rules, then replaces the object with its slices (net +1
    record; see ``_spawn_slices``).
    """
    name = action.name

    if name is ActionName.CROUCH or name is ActionName.STAND:
        want = name is ActionName.CROUCH
        if state.agent_crouched == want:
            return state, ActionOutcome.success("pose unchanged")
        new = state.clone()
        new.agent_crouched = want
        return new, ActionOutcome.success()

    if action.target is None or action.target not in state.objects:
        return state, ActionOutcome.error("UnknownObject", MSG_UNKNOWN_OBJECT)
    obj = state.objects[action.target]
    for code, _, test in ACTION_GATES[name]:
        if not test(state, sdt, obj):
            return state, ActionOutcome.error(code, _MESSAGES[code])

    new = state.clone()
    if name is ActionName.GOTO:
        new.agent_position = (
            obj.position[0] + GOTO_STANDOFF,
            state.agent_position[1],
            obj.position[2],
        )
        if new.held_object is not None:
            new.own(new.held_object).position = new.agent_position
        return new, ActionOutcome.success()
    if name is ActionName.PICKUP:
        target = new.own(obj.object_id)
        target.parent_receptacle = None
        target.position = new.agent_position
        new.held_object = target.object_id
    elif name is ActionName.PUT:
        held = new.own(new.held_object)
        held.parent_receptacle = obj.object_id
        held.position = obj.position
        new.held_object = None
        target = new.objects[obj.object_id]
    else:
        _, flag, value = FLAG_ACTIONS[name]
        target = new.own(obj.object_id)
        target.flags[flag] = value
    _fire_rules(new, sdt, name, target)
    if name is ActionName.SLICE:
        _spawn_slices(new, obj.object_id)
    return new, ActionOutcome.success()


def _spawn_slices(state: WorldState, object_id: str) -> None:
    """Replace the sliced object with SLICE_CHILD_COUNT slices, as AI2-THOR
    does (conservation: net +1 record).

    The slices inherit its flags and temperature as its rules left them. They
    take its receptacle slot and stay in that receptacle while capacity
    allows, else they spill out beside it.
    """
    parent = state.objects[object_id]
    del state.objects[object_id]
    sliced_type = f"{parent.type_name}Sliced"
    parent_recept = parent.parent_receptacle
    for k in range(SLICE_CHILD_COUNT):
        child_id = f"{parent.object_id}|{sliced_type}-{k}"
        container: Optional[str] = None
        if parent_recept is not None:
            recept = state.objects[parent_recept]
            if len(state.contents_of(parent_recept)) < recept.capacity:
                container = parent_recept
        state.objects[child_id] = ObjectInstance(
            child_id, sliced_type, parent.position, dict(parent.flags), parent.temperature, container
        )


# ---------------------------------------------------------------------------
# Failure injection


@dataclass(frozen=True)
class Perturbation:
    """Ground-truth alteration: kind in {dirty, hide, fill, lower}."""

    kind: str
    target: str
    receptacle: Optional[str] = None

    @staticmethod
    def parse(spec: str) -> "Perturbation":
        parts = spec.split(":")
        kind = parts[0]
        if kind == "hide":
            if len(parts) != 3:
                raise ValidationError(f"hide needs target and receptacle: {spec!r}")
            return Perturbation(kind="hide", target=parts[1], receptacle=parts[2])
        if kind in ("dirty", "fill", "lower"):
            if len(parts) != 2:
                raise ValidationError(f"{kind} needs exactly one target: {spec!r}")
            return Perturbation(kind=kind, target=parts[1])
        raise ValidationError(f"unknown perturbation kind: {spec!r}")


def _resolve_target(state: WorldState, ref: str) -> ObjectInstance:
    if ref in state.objects:
        return state.objects[ref]
    matches = state.of_types({ref})
    if not matches:
        raise ValidationError(f"perturbation target not in scene: {ref!r}")
    return min(matches, key=lambda o: o.object_id)


def inject_failure(state: WorldState, perturbation: Perturbation, sdt: SDT) -> WorldState:
    """Apply one scene perturbation, returning a new state.

    Raises ValidationError when the result would break a state invariant.
    """
    new = state.clone()
    target = _resolve_target(new, perturbation.target)

    if perturbation.kind == "dirty":
        new.own(target.object_id).flags["isDirty"] = True
    elif perturbation.kind == "hide":
        recept = _resolve_target(new, perturbation.receptacle)
        if not _afforded(sdt, recept, AffordanceTag.RECEPTACLE):
            raise ValidationError(f"{recept.object_id} is not a receptacle")
        if new.held_object == target.object_id:
            new.held_object = None
        target = new.own(target.object_id)
        # the object keeps its own height; only x/z follow the receptacle
        target.position = (recept.position[0], target.position[1], recept.position[2])
        target.parent_receptacle = recept.object_id
        if _afforded(sdt, recept, AffordanceTag.OPENABLE):
            new.own(recept.object_id).flags["isOpen"] = False
    elif perturbation.kind == "fill":
        if not _afforded(sdt, target, AffordanceTag.RECEPTACLE):
            raise ValidationError(f"{target.object_id} is not a receptacle")
        occupied = len(new.contents_of(target.object_id))
        for k in range(target.capacity - occupied):
            pos = (
                round(target.position[0] + 0.01 * (k + 1), 2),
                target.position[1],
                target.position[2],
            )
            filler = ObjectInstance(
                object_id=format_object_id("Statue", pos),
                type_name="Statue",
                position=pos,
                flags={name: False for name in FLAG_NAMES},
                parent_receptacle=target.object_id,
            )
            if filler.object_id in new.objects:
                raise ValidationError(f"fill would overwrite {filler.object_id!r}")
            new.objects[filler.object_id] = filler
    elif perturbation.kind == "lower":
        # below the standing band, inside the crouched one
        y = max(VIEW_BAND_STANDING[0] - 0.30, VIEW_BAND_CROUCHED[0] + 0.01)
        target = new.own(target.object_id)
        target.position = (target.position[0], y, target.position[2])
    else:
        raise ValidationError(f"unknown perturbation kind: {perturbation.kind!r}")
    validate_state(new, sdt)
    return new


def apply_perturbations(
    state: WorldState, specs: Iterable[str], sdt: SDT
) -> WorldState:
    for spec in specs:
        state = inject_failure(state, Perturbation.parse(spec), sdt)
    return state
