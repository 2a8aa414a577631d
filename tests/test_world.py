"""Simulator: ids, loading, visibility, transitions, injection, invariants."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import add_statues, random_state, scene_for_row, suite_row

from sdtplan.cli import _resolve_scene, default_suite_path
from sdtplan.errors import ParseError, ValidationError
from sdtplan import interpreter, planner, resolver
from sdtplan.interpreter import _matches_ref, candidate_instances, postcondition_satisfied
from sdtplan.planner import filter_relevant_objects
from sdtplan.resolver import build_action_pairs
from sdtplan.sdt import (
    FLAG_ACTIONS, FLAG_NAMES, POSE_ACTIONS, ActionName, AffordanceTag, parse_sdt_data,
)
from sdtplan.triplets import ActionTriplet, GoalClause, clause_witnesses
from sdtplan.world import (
    ACTION_GATES,
    NEARBY_RADIUS,
    ConcreteAction,
    MSG_NO_VALID_POSITION,
    MSG_NOT_VISIBLE,
    ObjectInstance,
    Perturbation,
    Scene,
    WorldState,
    _nearby,
    _record_json,
    condition_fn,
    format_object_id,
    inject_failure,
    is_valid_object_id,
    load_scene,
    object_descriptions,
    state_hash,
    state_to_json,
    step,
    type_of_id,
    validate_state,
)


def act(name, target=None):
    return ConcreteAction(name=name, target=target)


def by_type(state, type_name):
    matches = [o for o in state.objects.values() if o.type_name == type_name]
    assert matches, f"no {type_name} in scene"
    return matches[0]


# ---------------------------------------------------------------------------
# Ids


def test_id_format_round_trip():
    object_id = format_object_id("WineBottle", (-1.38, 0.76, 2.2))
    assert object_id == "WineBottle|-01.38|+00.76|+02.20"
    assert is_valid_object_id(object_id)
    assert type_of_id(object_id) == "WineBottle"


def test_slice_child_id_grammar():
    child = "Apple|+01.38|+01.04|+03.33|AppleSliced-0"
    assert is_valid_object_id(child)
    assert type_of_id(child) == "AppleSliced"


def test_id_rejects_unpadded():
    assert not is_valid_object_id("Fridge|-1.3|+0.01|+0.99")


# ---------------------------------------------------------------------------
# Scene loading


def test_load_wine_scene(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    types = {o.type_name for o in state.objects.values()}
    assert {"Fridge", "WineBottle", "DiningTable"} <= types


def test_load_empty_scene(tmp_path, sdt):
    path = tmp_path / "empty.json"
    path.write_text('{"agent": {"position": [0, 0.9, 0]}, "objects": []}')
    state = load_scene(path, sdt)
    assert state.objects == {}
    assert object_descriptions(state) == []


def test_load_rejects_dangling_container(tmp_path, sdt):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"agent": {}, "objects": [{"type": "Apple", "position": [0, 0.9, 0],'
        ' "parent_receptacle": "Fridge|+00.00|+00.90|+00.00"}]}'
    )
    with pytest.raises(ValidationError):
        load_scene(path, sdt)


def test_load_rejects_malformed_json(tmp_path, sdt):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        load_scene(path, sdt)


def test_load_rejects_mismatched_id(tmp_path, sdt):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"agent": {}, "objects": [{"id": "Apple|+09.99|+00.90|+00.00",'
        ' "type": "Apple", "position": [0, 0.9, 0]}]}'
    )
    with pytest.raises(ValidationError):
        load_scene(path, sdt)


def test_nonopenable_receptacles_load_open(sdt, suite):
    state = scene_for_row(suite_row(suite, 10), sdt, injected=False)
    assert by_type(state, "Sink").flag("isOpen")
    assert by_type(state, "CounterTop").flag("isOpen")


_APPLE = {"type": "Apple", "position": [0, 0.9, 0]}
_TABLE = {"type": "CounterTop", "position": [1, 0.95, 0], "capacity": 1}
_TABLE_ID = "CounterTop|+01.00|+00.95|+00.00"


def _apple_at(x, **extra):
    return {"type": "Apple", "position": [x, 0.9, 0], **extra}


@pytest.mark.parametrize(
    "objects, error, message",
    [
        ([_TABLE, {"position": [0, 0.9, 0]}], ParseError, "object 1: needs 'type' and 'position'"),
        ([{"type": "Apple", "position": [0, 0.9]}], ParseError,
         "object 0: position must have 3 components"),
        ([_TABLE, dict(_APPLE, flags={"isOpen": True, "isShiny": True})], ValidationError,
         "object 1: unknown flag 'isShiny'"),
        ([dict(_APPLE, temperature="Warm")], ValidationError, "object 0: unknown temperature 'Warm'"),
        ([_apple_at(100.0)], ValidationError, "coordinate out of id range: 100.0"),
        ([_TABLE, _apple_at(99.996)], ValidationError,
         "object 1: malformed id 'Apple|+100.00|+00.90|+00.00'"),
        ([dict(_APPLE, id="Apple|+09.99|+00.90|+00.00")], ValidationError,
         "object 0: id 'Apple|+09.99|+00.90|+00.00' does not embed its type/position"
         " ('Apple|+00.00|+00.90|+00.00')"),
        ([_APPLE, _TABLE, _APPLE], ValidationError, "duplicate object id 'Apple|+00.00|+00.90|+00.00'"),
        ([dict(_APPLE, parent_receptacle="Fridge|+00.00|+00.90|+00.00")], ValidationError,
         "Apple|+00.00|+00.90|+00.00: dangling container 'Fridge|+00.00|+00.90|+00.00'"),
        (
            # two overfull receptacles: the first in file order is named
            [
                {"type": "CounterTop", "position": [2, 0.95, 0], "capacity": 1},
                _TABLE,
                _apple_at(0.1, parent_receptacle=_TABLE_ID),
                _apple_at(0.2, parent_receptacle=_TABLE_ID),
                _apple_at(0.3, parent_receptacle="CounterTop|+02.00|+00.95|+00.00"),
                _apple_at(0.4, parent_receptacle="CounterTop|+02.00|+00.95|+00.00"),
            ],
            ValidationError,
            "CounterTop|+02.00|+00.95|+00.00: holds 2 objects, capacity 1",
        ),
        ([_TABLE, "Apple"], ParseError, "object 1: needs 'type' and 'position'"),
        ([dict(_APPLE, position="0, 0.9, 0")], ParseError,
         "object 0: position must be a list of 3 numbers"),
        ([dict(_APPLE, position=[0, True, 0])], ParseError,
         "object 0: position must be a list of 3 numbers"),
        ([dict(_APPLE, id="Apple|0|0.9|0")], ValidationError, "object 0: malformed id 'Apple|0|0.9|0'"),
        ([dict(_APPLE, flags=["isDirty"])], ParseError, "object 0: flags must be an object"),
        ([dict(_APPLE, flags={"isDirty": 1})], ParseError, "object 0: flag isDirty must be a boolean"),
        ([dict(_APPLE, parent_receptacle=5)], ParseError,
         "object 0: parent_receptacle must be an object id"),
        ([dict(_TABLE, capacity=1.0)], ParseError, "object 0: capacity must be an integer"),
        ([dict(_TABLE, capacity=True)], ParseError, "object 0: capacity must be an integer"),
        # a dict is the whole scene file: faults in the agent block
        ({"agent": [0, 0.9, 0], "objects": []}, ParseError, "scene file's 'agent' must be an object"),
        ({"agent": {"held_object": 3}, "objects": []}, ParseError,
         "agent: held_object must be an object id"),
        ({"agent": {"visibility_radius": "far"}, "objects": []}, ParseError,
         "agent: visibility_radius must be a number"),
        ({"agent": {"crouched": 1}, "objects": []}, ParseError, "agent: crouched must be a boolean"),
        # two faults in one record: the first check in the record's order names it
        ([_apple_at(100.0, id="Apple|x")], ValidationError, "object 0: malformed id 'Apple|x'"),
        ([dict(_APPLE, temperature="Warm", capacity="2")], ValidationError,
         "object 0: unknown temperature 'Warm'"),
        # the type has already formed a valid id
        ([_APPLE, _apple_at(-99.996)], ValidationError,
         "object 1: malformed id 'Apple|-100.00|+00.90|+00.00'"),
        # a type that is not a string forms no id
        ([dict(_APPLE, type=True)], ParseError, "object 0: type must be a string"),
        ([_TABLE, dict(_APPLE, type=None, id="x")], ParseError, "object 1: type must be a string"),
        # only an absent or null id is derived; any other given id is checked
        ([dict(_APPLE, id=0)], ValidationError, "object 0: malformed id 0"),
        ([dict(_APPLE, id="")], ValidationError, "object 0: malformed id ''"),
        ([dict(_APPLE, id=False)], ValidationError, "object 0: malformed id False"),
        ([dict(_APPLE, id=[])], ValidationError, "object 0: malformed id []"),
    ],
)
def test_load_error_messages(tmp_path, sdt, objects, error, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(objects if isinstance(objects, dict) else {"agent": {}, "objects": objects}))
    with pytest.raises(error) as info:
        load_scene(path, sdt)
    assert str(info.value) == message


def test_null_id_is_derived(tmp_path, sdt):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"agent": {}, "objects": [dict(_APPLE, id=None)]}))
    assert list(load_scene(path, sdt).objects) == ["Apple|+00.00|+00.90|+00.00"]


def test_load_path_ids_match_format_object_id(tmp_path, sdt):
    rng = random.Random(5)
    positions = [(-0.0, 0.0, -0.0), (99.99, -99.99, 0.005), (-99.99, 99.99, -0.004)]
    positions += [tuple(rng.uniform(-99.99, 99.99) for _ in range(3)) for _ in range(500)]
    path = tmp_path / "statues.json"
    path.write_text(json.dumps({
        "agent": {}, "objects": [{"type": "Statue", "position": list(p)} for p in positions],
    }))
    ids = list(load_scene(path, sdt).objects)
    assert ids == [format_object_id("Statue", p) for p in positions]
    assert ids == ["Statue|" + "|".join(f"{c:+06.2f}" for c in p) for p in positions]
    assert ids[:3] == [
        "Statue|-00.00|+00.00|-00.00",
        "Statue|+99.99|-99.99|+00.01",
        "Statue|-99.99|+99.99|-00.00",
    ]


_SHIPPED_SCENES = sorted((default_suite_path().parent.parent / "scenes").glob("*.json"))

#: One value of each JSON type, swapped in for a value of another type.
_JSON_VALUES = (None, True, 0, 1.5, "Mug", [0, 0.9, 0], {"isOpen": True})


def _mutate_scene(rng, data):
    """Drop a key, swap a value's JSON type, push a coordinate past ±99.995 or
    duplicate a record, one to three times; half the time every id is derived."""
    objects = data["objects"]
    if rng.random() < 0.5:
        for record in objects:
            record.pop("id", None)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("drop", "retype", "edge", "duplicate"))
        record = rng.choice(objects)
        if kind == "duplicate":
            objects.insert(rng.randrange(len(objects) + 1), copy.deepcopy(record))
        elif not isinstance(record, dict) or not record:
            continue
        elif kind == "drop":
            del record[rng.choice(sorted(record))]
        elif kind == "retype":
            owner = data["agent"] if rng.random() < 0.2 and data["agent"] else record
            key = rng.choice(sorted(owner))
            owner[key] = rng.choice([v for v in _JSON_VALUES if type(v) is not type(owner[key])])
        elif isinstance(record.get("position"), list) and record["position"]:
            edge = rng.choice((99.99, 99.994, 99.995, 99.996, 100.0, rng.uniform(99.98, 100.01)))
            record["position"][rng.randrange(len(record["position"]))] = rng.choice((1, -1)) * edge


@pytest.fixture(scope="module")
def mutated_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "scene.json"


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(_SHIPPED_SCENES))
def test_loader_loads_a_valid_state_or_raises_a_load_error(mutated_path, sdt, rng, scene):
    """A mutated shipped scene loads to a state whose ids are formatted from its
    records, or fails with ParseError or ValidationError; nothing else escapes."""
    data = json.loads(scene.read_text(encoding="utf-8"))
    _mutate_scene(rng, data)
    mutated_path.write_text(json.dumps(data), encoding="utf-8")
    try:
        state = load_scene(mutated_path, sdt)
    except (ParseError, ValidationError):
        return
    validate_state(state, sdt)
    for object_id, obj in state.objects.items():
        assert object_id == obj.object_id == format_object_id(obj.type_name, obj.position)
        assert is_valid_object_id(object_id)


# ---------------------------------------------------------------------------
# Visibility


def test_object_in_closed_fridge_invisible(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)  # bottle hidden in fridge
    visible = {o.type_name for o in object_descriptions(state)}
    assert "WineBottle" not in visible


def test_low_object_needs_crouch(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)
    fridge = by_type(state, "Fridge")
    state, outcome = step(state, act(ActionName.OPEN, fridge.object_id), sdt)
    assert outcome.ok
    assert "WineBottle" not in {o.type_name for o in object_descriptions(state)}
    state, outcome = step(state, act(ActionName.CROUCH), sdt)
    assert outcome.ok
    assert "WineBottle" in {o.type_name for o in object_descriptions(state)}


def test_object_at_agent_position_visible(sdt, suite):
    state = scene_for_row(suite_row(suite, 10), sdt, injected=False)
    mug = by_type(state, "Mug")
    mug.position = state.agent_position
    assert mug.object_id in {o.object_id for o in object_descriptions(state)}


def test_opening_never_shrinks_visibility(sdt, suite):
    for task_id in (8, 9, 14):
        state = scene_for_row(suite_row(suite, task_id), sdt)
        before = {o.object_id for o in object_descriptions(state)}
        for obj in list(state.objects.values()):
            if obj.type_name in ("Fridge", "Drawer", "Cabinet", "Microwave") and not obj.flag("isOpen"):
                state, outcome = step(state, act(ActionName.OPEN, obj.object_id), sdt)
                assert outcome.ok
                after = {o.object_id for o in object_descriptions(state)}
                assert before <= after
                before = after


# ---------------------------------------------------------------------------
# Transitions


def test_pickup_hidden_bottle_verbatim_error(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)
    bottle = by_type(state, "WineBottle")
    state2, outcome = step(state, act(ActionName.PICKUP, bottle.object_id), sdt)
    assert outcome.error_code == "NotVisible"
    assert outcome.message == "Target object not found within the specified visibility..."
    assert outcome.message == MSG_NOT_VISIBLE
    assert state2 is state


def test_put_into_full_drawer_verbatim_error(sdt, suite):
    state = scene_for_row(suite_row(suite, 3), sdt)  # small drawer filled
    knife = by_type(state, "Knife")
    drawer = min(
        (o for o in state.objects.values() if o.type_name == "Drawer"),
        key=lambda o: o.capacity,
    )
    state, outcome = step(state, act(ActionName.PICKUP, knife.object_id), sdt)
    assert outcome.ok
    state, outcome = step(state, act(ActionName.OPEN, drawer.object_id), sdt)
    assert outcome.ok
    state, outcome = step(state, act(ActionName.PUT, drawer.object_id), sdt)
    assert outcome.error_code == "NoValidPosition"
    assert outcome.message == "No valid positions to place object found."
    assert outcome.message == MSG_NO_VALID_POSITION


def test_closing_fridge_chills_contents(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)
    fridge = by_type(state, "Fridge")
    bottle = by_type(state, "WineBottle")
    assert bottle.temperature == "RoomTemp"
    state, _ = step(state, act(ActionName.OPEN, fridge.object_id), sdt)
    state, outcome = step(state, act(ActionName.CLOSE, fridge.object_id), sdt)
    assert outcome.ok
    assert state.objects[bottle.object_id].temperature == "Cold"


def test_microwave_cooks_contents_only_when_closed(sdt, suite):
    state = scene_for_row(suite_row(suite, 1), sdt, injected=False)
    micro = by_type(state, "Microwave")
    potato = by_type(state, "Potato")
    state, _ = step(state, act(ActionName.PICKUP, potato.object_id), sdt)
    state, _ = step(state, act(ActionName.OPEN, micro.object_id), sdt)
    state, _ = step(state, act(ActionName.PUT, micro.object_id), sdt)
    # door open: toggling must not cook
    state, outcome = step(state, act(ActionName.TOGGLE_ON, micro.object_id), sdt)
    assert outcome.ok
    assert not state.objects[potato.object_id].flag("isCooked")
    state, _ = step(state, act(ActionName.TOGGLE_OFF, micro.object_id), sdt)
    state, _ = step(state, act(ActionName.CLOSE, micro.object_id), sdt)
    state, _ = step(state, act(ActionName.TOGGLE_ON, micro.object_id), sdt)
    cooked = state.objects[potato.object_id]
    assert cooked.flag("isCooked") and cooked.temperature == "Hot"


def test_faucet_washes_and_fills_sink_contents(sdt, suite):
    state = scene_for_row(suite_row(suite, 12), sdt, injected=False)
    sponge = by_type(state, "Sponge")
    sink = by_type(state, "Sink")
    faucet = by_type(state, "Faucet")
    sponge.flags["isDirty"] = True
    state, _ = step(state, act(ActionName.PICKUP, sponge.object_id), sdt)
    state, _ = step(state, act(ActionName.PUT, sink.object_id), sdt)
    state, outcome = step(state, act(ActionName.TOGGLE_ON, faucet.object_id), sdt)
    assert outcome.ok
    washed = state.objects[sponge.object_id]
    assert washed.flag("isFilled") and not washed.flag("isDirty")


def test_slice_requires_held_tool(sdt, suite):
    state = scene_for_row(suite_row(suite, 1), sdt, injected=False)
    potato = by_type(state, "Potato")
    state2, outcome = step(state, act(ActionName.SLICE, potato.object_id), sdt)
    assert outcome.error_code == "HandEmpty"
    knife = by_type(state, "ButterKnife")
    state, _ = step(state, act(ActionName.PICKUP, knife.object_id), sdt)
    state, outcome = step(state, act(ActionName.SLICE, potato.object_id), sdt)
    assert outcome.ok
    children = [o for o in state.objects.values() if o.type_name == "PotatoSliced"]
    assert len(children) == 2
    assert state.objects[potato.object_id].slice_children == [c.object_id for c in children]


def test_slice_children_inherit_cooked_state(sdt, suite):
    state = scene_for_row(suite_row(suite, 1), sdt, injected=False)
    potato = by_type(state, "Potato")
    potato.flags["isCooked"] = True
    potato.temperature = "Hot"
    knife = by_type(state, "ButterKnife")
    state, _ = step(state, act(ActionName.PICKUP, knife.object_id), sdt)
    state, _ = step(state, act(ActionName.SLICE, potato.object_id), sdt)
    for child in (o for o in state.objects.values() if o.type_name == "PotatoSliced"):
        assert child.flag("isCooked") and child.temperature == "Hot"


def test_sliced_object_is_inert(sdt, suite):
    state = scene_for_row(suite_row(suite, 1), sdt, injected=False)
    potato = by_type(state, "Potato")
    knife = by_type(state, "ButterKnife")
    state, _ = step(state, act(ActionName.PICKUP, knife.object_id), sdt)
    state, _ = step(state, act(ActionName.SLICE, potato.object_id), sdt)
    state, outcome = step(state, act(ActionName.SLICE, potato.object_id), sdt)
    assert outcome.error_code == "NotAfforded"


def test_goto_moves_agent_with_standoff(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    table = by_type(state, "DiningTable")
    state, outcome = step(state, act(ActionName.GOTO, table.object_id), sdt)
    assert outcome.ok
    assert state.agent_position[0] == pytest.approx(table.position[0] + 0.5)
    assert state.agent_position[2] == pytest.approx(table.position[2])


def test_pose_actions_idempotent(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    state, outcome = step(state, act(ActionName.STAND), sdt)
    assert outcome.ok and not state.agent_crouched
    state, outcome = step(state, act(ActionName.CROUCH), sdt)
    assert outcome.ok and state.agent_crouched


def test_unknown_object_error(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    _, outcome = step(state, act(ActionName.PICKUP, "Ghost|+00.00|+00.90|+00.00"), sdt)
    assert outcome.error_code == "UnknownObject"


# ---------------------------------------------------------------------------
# Failure injection


def test_inject_dirty(sdt, suite):
    state = scene_for_row(suite_row(suite, 3), sdt, injected=False)
    state = inject_failure(state, Perturbation.parse("dirty:Lettuce"), sdt)
    assert by_type(state, "Lettuce").flag("isDirty")


def test_inject_hide_closes_container(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    state = inject_failure(state, Perturbation.parse("hide:WineBottle:Fridge"), sdt)
    bottle = by_type(state, "WineBottle")
    fridge = by_type(state, "Fridge")
    assert bottle.parent_receptacle == fridge.object_id
    assert not fridge.flag("isOpen")
    assert bottle.position[1] == pytest.approx(0.76)  # keeps its own height


def test_inject_fill_causes_no_valid_position(sdt, suite):
    row = suite_row(suite, 3)
    state = scene_for_row(row, sdt, injected=False)
    drawer_id = row["inject"][0].split(":", 1)[1]
    state = inject_failure(state, Perturbation.parse(row["inject"][0]), sdt)
    knife = by_type(state, "Knife")
    state, _ = step(state, act(ActionName.PICKUP, knife.object_id), sdt)
    state, _ = step(state, act(ActionName.OPEN, drawer_id), sdt)
    _, outcome = step(state, act(ActionName.PUT, drawer_id), sdt)
    assert outcome.error_code == "NoValidPosition"


def test_inject_lower_hides_until_crouch(sdt, suite):
    state = scene_for_row(suite_row(suite, 12), sdt, injected=False)
    state = inject_failure(state, Perturbation.parse("lower:Sponge"), sdt)
    assert "Sponge" not in {o.type_name for o in object_descriptions(state)}
    state.agent_crouched = True
    assert "Sponge" in {o.type_name for o in object_descriptions(state)}


def test_inject_hide_into_full_receptacle_is_rejected(sdt, suite):
    state = scene_for_row(suite_row(suite, 14), sdt, injected=False)
    state = inject_failure(state, Perturbation.parse("fill:Drawer"), sdt)
    with pytest.raises(ValidationError):
        inject_failure(state, Perturbation.parse("hide:Apple:Drawer"), sdt)


def test_inject_fill_refuses_to_overwrite_an_existing_id(sdt, suite):
    state = scene_for_row(suite_row(suite, 14), sdt, injected=False)
    drawer = by_type(state, "Drawer")
    pos = (round(drawer.position[0] + 0.01, 2), drawer.position[1], drawer.position[2])
    statue_id = format_object_id("Statue", pos)
    state.objects[statue_id] = ObjectInstance(statue_id, "Statue", pos, {})
    with pytest.raises(ValidationError):
        inject_failure(state, Perturbation.parse("fill:Drawer"), sdt)


def test_inject_unknown_target(sdt, suite):
    state = scene_for_row(suite_row(suite, 12), sdt, injected=False)
    with pytest.raises(ValidationError):
        inject_failure(state, Perturbation.parse("dirty:Ghost"), sdt)


# ---------------------------------------------------------------------------
# Descriptions


def test_descriptions_empty_scene(tmp_path, sdt):
    path = tmp_path / "empty.json"
    path.write_text('{"agent": {"position": [0, 0.9, 0]}, "objects": []}')
    assert object_descriptions(load_scene(path, sdt)) == []


def test_descriptions_include_bottle_after_open_and_crouch(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)
    fridge = by_type(state, "Fridge")
    state, _ = step(state, act(ActionName.OPEN, fridge.object_id), sdt)
    state, _ = step(state, act(ActionName.CROUCH), sdt)
    assert any(d.type_name == "WineBottle" for d in object_descriptions(state))


def test_descriptions_pure(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)
    first = object_descriptions(state)
    second = object_descriptions(state)
    assert first == second


# ---------------------------------------------------------------------------
# Randomized invariants


def _random_action(rng, state):
    name = rng.choice(list(ActionName))
    ids = sorted(state.objects)
    target = rng.choice(ids + ["Ghost|+00.00|+00.90|+00.00"]) if ids else None
    if name in (ActionName.CROUCH, ActionName.STAND):
        target = None
    return ConcreteAction(name=name, target=target)


def _random_perturbation(rng, state):
    ids = sorted(state.objects)
    kind = rng.choice(("dirty", "hide", "fill", "lower"))
    return Perturbation(kind, rng.choice(ids), rng.choice(ids) if kind == "hide" else None)


def test_random_scripts_keep_invariants(sdt):
    """No step or injection writes its input; every result passes validate_state.

    A successful step adds objects only by slicing, two pieces per cut.
    """
    rng = random.Random(23)
    successes = injected = 0
    for _ in range(3000):
        state = random_state(rng, sdt)
        for _ in range(rng.randint(3, 15)):
            before = state_hash(state)
            if rng.random() < 0.1:
                try:
                    new_state = inject_failure(state, _random_perturbation(rng, state), sdt)
                except ValidationError:
                    new_state = state
                else:
                    validate_state(new_state, sdt)
                    injected += 1
            else:
                action = _random_action(rng, state)
                new_state, outcome = step(state, action, sdt)
                if outcome.ok:
                    validate_state(new_state, sdt)
                    spawned = 2 if action.name is ActionName.SLICE else 0
                    assert len(new_state.objects) == len(state.objects) + spawned
                    successes += 1
                else:
                    assert state_hash(new_state) == before  # pure failure
            assert state_hash(state) == before
            state = new_state
    assert successes > 5000 and injected > 100


# ---------------------------------------------------------------------------
# Copy-on-write transitions


def _assert_shares_unwritten(old, new, written):
    """``new`` holds the input's very records except for the ``written`` ids."""
    for object_id, record in old.objects.items():
        if object_id in written:
            assert new.objects[object_id] is not record, object_id
        else:
            assert new.objects[object_id] is record, object_id


def test_steps_share_every_record_they_do_not_write(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    add_statues(state, 1000, seed=11)
    fridge = by_type(state, "Fridge").object_id
    bottle = by_type(state, "WineBottle").object_id

    opened, outcome = step(state, act(ActionName.OPEN, fridge), sdt)
    assert outcome.ok
    _assert_shares_unwritten(state, opened, {fridge})
    assert not state.objects[fridge].flag("isOpen")

    went, outcome = step(opened, act(ActionName.GOTO, fridge), sdt)
    assert outcome.ok
    _assert_shares_unwritten(opened, went, set())

    crouched, _ = step(went, act(ActionName.CROUCH), sdt)
    held, outcome = step(crouched, act(ActionName.PICKUP, bottle), sdt)
    assert outcome.ok
    _assert_shares_unwritten(crouched, held, {bottle})

    drawer = by_type(state, "Drawer").object_id
    carried, outcome = step(held, act(ActionName.GOTO, drawer), sdt)
    assert outcome.ok
    _assert_shares_unwritten(held, carried, {bottle})
    assert carried.objects[bottle].position == carried.agent_position
    assert held.objects[bottle].position == held.agent_position != carried.agent_position


def test_rule_effects_write_the_new_state_only(sdt, suite):
    """The fridge chills its contents on close; the state before the close stays warm."""
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    add_statues(state, 1000, seed=12)
    fridge = by_type(state, "Fridge").object_id
    bottle = by_type(state, "WineBottle").object_id
    for action in (
        act(ActionName.OPEN, fridge), act(ActionName.CROUCH), act(ActionName.PICKUP, bottle)
    ):
        state, outcome = step(state, action, sdt)
        assert outcome.ok
    stored, outcome = step(state, act(ActionName.PUT, fridge), sdt)
    assert outcome.ok
    assert stored.objects[bottle].parent_receptacle == fridge
    closed, outcome = step(stored, act(ActionName.CLOSE, fridge), sdt)
    assert outcome.ok
    assert closed.objects[bottle].temperature == "Cold"
    assert stored.objects[bottle].temperature == "RoomTemp"
    assert state.objects[bottle].parent_receptacle is None
    _assert_shares_unwritten(stored, closed, {fridge, bottle})


def test_later_rules_read_the_owner_earlier_effects_wrote(sdt):
    """A neighbour's second rule sees the flag its first rule set in the same step."""
    machine_on = {"scope": "colocated", "type": "CoffeeMachine", "flag": "isToggled", "is": True}
    gadget = {
        "type": "Gadget",
        "affordances": ["Dirtyable", "Fillable"],
        "rules": [
            {
                "action": "ToggleOnObject",
                "pre": [machine_on],
                "effect": [{"set": "isDirty", "to": True}],
                "text": "Gets dirty while the machine runs.",
            },
            {
                "action": "ToggleOnObject",
                "pre": [machine_on, {"flag": "isDirty", "is": True}],
                "effect": [{"set": "isFilled", "to": True}],
                "text": "Once dirty, it fills up.",
            },
        ],
    }
    kb = parse_sdt_data([{"type": "CoffeeMachine", "affordances": ["Toggleable"]}, gadget])
    machine_pos, gadget_pos = (1.0, 1.0, 0.0), (1.5, 1.0, 0.0)
    machine_id = format_object_id("CoffeeMachine", machine_pos)
    gadget_id = format_object_id("Gadget", gadget_pos)
    state = WorldState(
        {
            machine_id: ObjectInstance(machine_id, "CoffeeMachine", machine_pos, {}),
            gadget_id: ObjectInstance(gadget_id, "Gadget", gadget_pos, {}),
        },
        agent_position=(0.0, 0.9, 0.0),
    )
    new, outcome = step(state, act(ActionName.TOGGLE_ON, machine_id), kb)
    assert outcome.ok
    assert new.objects[gadget_id].flag("isDirty") and new.objects[gadget_id].flag("isFilled")
    assert not state.objects[gadget_id].flag("isDirty")


# ---------------------------------------------------------------------------
# Copy-on-write over the loaded scene; the scene-relative state hash


def _statue_scene(tmp_path, sdt, suite, seed):
    """Row 9's scene file with 1000 statues from ``add_statues`` written into it, loaded."""
    path = _resolve_scene(suite_row(suite, 9)["scene"], default_suite_path().parent)
    data = json.loads(path.read_text(encoding="utf-8"))
    state = load_scene(path, sdt)
    data["objects"] += [
        {"type": "Statue", "position": list(state.objects[i].position)}
        for i in add_statues(state, 1000, seed)
    ]
    padded = tmp_path / "statues.json"
    padded.write_text(json.dumps(data), encoding="utf-8")
    return load_scene(padded, sdt)


def test_loaded_state_is_copy_on_write_over_its_scene(tmp_path, sdt, suite):
    state = _statue_scene(tmp_path, sdt, suite, seed=13)
    assert len(state.objects) >= 1000
    assert all(state.scene.objects[i] is record for i, record in state.objects.items())
    fridge = by_type(state, "Fridge").object_id
    before = copy.deepcopy(state.objects)

    opened, outcome = step(state, act(ActionName.OPEN, fridge), sdt)
    assert outcome.ok
    _assert_shares_unwritten(state, opened, {fridge})
    assert opened.scene is state.scene
    # by value: an in-place write to a shared record would not move the hash
    assert state.objects == before

    statue = by_type(state, "Statue").object_id
    state.own(statue).flags["isBroken"] = True
    assert not state.scene.objects[statue].flag("isBroken")
    assert state.objects[statue] is state.own(statue) is not state.scene.objects[statue]


def test_state_hash_is_relative_to_the_scene(tmp_path, sdt, suite):
    state = _statue_scene(tmp_path, sdt, suite, seed=14)
    loaded = state_hash(state)
    fridge = by_type(state, "Fridge").object_id

    opened, _ = step(state, act(ActionName.OPEN, fridge), sdt)
    closed, outcome = step(opened, act(ActionName.CLOSE, fridge), sdt)
    assert outcome.ok
    assert closed.objects[fridge] is not state.objects[fridge]  # an owned, equal copy
    assert state_hash(opened) != loaded
    assert state_hash(closed) == loaded

    edited = state.clone()
    statue = by_type(edited, "Statue").object_id
    edited.own(statue).flags["isBroken"] = True
    assert state_hash(edited) != loaded
    assert state_hash(state) == loaded

    removed = state.clone()
    del removed.objects[statue]
    assert state_hash(removed) != loaded

    elsewhere = dataclasses.replace(
        state, objects=dict(state.objects), scene=Scene("0" * 64, state.scene.objects)
    )
    assert state_hash(elsewhere) != loaded
    unloaded = dataclasses.replace(state, objects=dict(state.objects), scene=None)
    # no scene: every record counts as changed
    assert len(state_to_json(unloaded)["objects"]) == len(state.objects)
    assert state_hash(unloaded) not in (loaded, state_hash(removed))


# ---------------------------------------------------------------------------
# Flag-action table: filter, simulator and postcondition agree


def _with_slicing_tool_in_hand(state, sdt):
    """Copy of ``state`` whose agent holds a slicing tool (any previous load is set down)."""
    held = state.objects.get(state.held_object or "")
    if held is not None and sdt.get(held.type_name).is_slicing_tool:
        return state
    new = state.clone()
    tool_type = sdt.slicing_tool_types()[0]
    tool_id = format_object_id(tool_type, new.agent_position)
    assert tool_id not in new.objects
    new.objects[tool_id] = ObjectInstance(
        object_id=tool_id, type_name=tool_type, position=new.agent_position, flags={}
    )
    new.held_object = tool_id
    return new


def _flag_actions_agree(state, sdt, obj, actions=ACTION_GATES) -> dict:
    """Run each of ``actions`` on ``obj``; return the successful successor states by action.

    The action filter must admit exactly the actions ``step`` refuses for no
    object-local reason: with neither NotAfforded nor ClosedReceptacle. That
    holds wherever no gate that reads more than ``obj`` refuses ahead of an
    object-local one, as when ``obj`` is visible and a slicing tool is in
    hand (Pickup checks the hand last).
    """
    successors = {}
    for action in actions:
        admitted = condition_fn(sdt, obj, action)
        new, outcome = step(state, act(action, obj.object_id), sdt)
        where = f"{action} on {obj.object_id} with {obj.flags}"
        assert admitted == (outcome.error_code not in ("NotAfforded", "ClosedReceptacle")), where
        if outcome.ok:
            if action is ActionName.PUT:
                triplet = ActionTriplet(action, state.held_object, obj.object_id)
            else:
                triplet = ActionTriplet(action, obj.object_id)
            if action is not ActionName.GOTO:  # navigation has no postcondition
                assert postcondition_satisfied(new, triplet), where
            successors[action] = new
    return successors


def _every_type_and_flag_assignment(sdt):
    """(target, state with the hand empty, state holding a slicing tool) for
    every known type and every assignment of the boolean flags. The target is
    visible, not held and has room for one object."""
    agent, at = (0.0, 0.9, 0.0), (1.0, 1.0, 0.0)
    tool_type = sdt.slicing_tool_types()[0]
    tool = ObjectInstance(format_object_id(tool_type, agent), tool_type, agent, {})
    for type_name in sdt.type_names():
        for values in itertools.product((False, True), repeat=len(FLAG_NAMES)):
            target = ObjectInstance(
                format_object_id(type_name, at), type_name, at,
                dict(zip(FLAG_NAMES, values)), capacity=1,
            )
            objects = {target.object_id: target}
            empty = WorldState(objects=dict(objects), agent_position=agent)
            objects[tool.object_id] = tool
            holding = WorldState(objects=objects, agent_position=agent, held_object=tool.object_id)
            yield target, empty, holding


def test_flag_actions_filter_simulator_and_postcondition_agree(sdt, suite):
    assert set(ActionName) == {*POSE_ACTIONS, *ACTION_GATES}
    assert not POSE_ACTIONS & ACTION_GATES.keys()
    others = [a for a in ACTION_GATES if a is not ActionName.PICKUP]
    swept = 0
    for target, empty, holding in _every_type_and_flag_assignment(sdt):
        swept += len(_flag_actions_agree(empty, sdt, target, [ActionName.PICKUP]))
        swept += len(_flag_actions_agree(holding, sdt, target, others))
    assert 0 < swept < len(sdt) * 2 ** len(FLAG_NAMES) * len(ACTION_GATES)

    rng = random.Random(31)
    scenes = [random_state(rng, sdt) for _ in range(300)]
    scenes += [scene_for_row(row, sdt) for row in suite["tasks"]]
    objects = successes = 0
    for scene in scenes:
        state = _with_slicing_tool_in_hand(scene, sdt)
        for obj in object_descriptions(state):
            if obj.type_name not in sdt:
                continue
            successors = _flag_actions_agree(state, sdt, obj)
            objects += 1
            successes += len(successors)
            if ActionName.SLICE in successors:  # the sliced husk must refuse a second cut
                sliced = successors[ActionName.SLICE]
                _flag_actions_agree(sliced, sdt, sliced.objects[obj.object_id])
    assert objects * len(FLAG_ACTIONS) > 3000 and 0 < successes < objects * len(ACTION_GATES)


# ---------------------------------------------------------------------------
# The scene index answers every query as a scan of all records would


def _scan_of_types(state, types):
    return [o for o in state.objects.values() if o.type_name in types]


def _scan_contents_of(state, receptacle_id):
    return sorted(
        (o for o in state.objects.values() if o.parent_receptacle == receptacle_id),
        key=lambda o: o.object_id,
    )


def _scan_near(state, obj):
    return [
        o for o in state.objects.values()
        if o.object_id != obj.object_id and math.dist(o.position, obj.position) <= NEARBY_RADIUS
    ]


def _scan_ref_instances(state, ref, include_sliced):
    return [o for o in state.objects.values() if _matches_ref(o, ref, include_sliced)]


def _scan_shown_objects(state, sdt, relevant, extras=frozenset()):
    """Every extra id, and every known object of a relevant or receptacle type."""
    return [
        o for o in state.objects.values()
        if o.object_id in extras
        or (o.type_name in sdt
            and (o.type_name in relevant or sdt.get(o.type_name).has(AffordanceTag.RECEPTACLE)))
    ]


def _scan_state_json(state):
    """``state_to_json`` as a scan: every record compared with the scene's by content."""
    base = state.scene.objects if state.scene is not None else {}
    changed = [
        _record_json(o) for i, o in sorted(state.objects.items())
        if i not in base or _record_json(o) != _record_json(base[i])
    ]
    removed = sorted(i for i in base if i not in state.objects)
    return changed, removed


#: Relevant-type sets for the prompt listings and the pair map; the
#: receptacle types always join in.
_INDEX_RELEVANT = (
    frozenset({"Apple", "AppleSliced", "Knife", "Fridge"}),
    frozenset({"Tomato", "TomatoSliced", "Bread", "Faucet", "Unicorn"}),
)


def _index_queries(state, sdt, rng_seed):
    """Every query that reads the scene index, on a few seeded arguments."""
    rng = random.Random(rng_seed)
    ids = sorted(state.objects)
    some = rng.sample(ids, 8)
    refs = ["Apple", "AppleSliced", "Tomato", "Knife", "Fridge", "CounterTop", "Statue",
            rng.choice(ids), "Ghost|+00.00|+00.90|+00.00"]
    clauses = [
        GoalClause("AppleSliced"), GoalClause("Statue", receptacle_type="Fridge"),
        GoalClause("Tomato", ("isDirty",), None, "CounterTop"), GoalClause("Bread", ("isSliced",)),
    ]
    out = {
        "candidates": [
            candidate_instances(state, ref, action)
            for ref in refs for action in (None, ActionName.SLICE)
        ],
        "contents": [
            state.contents_of(i) for i in ids + ["Ghost|+00.00|+00.90|+00.00"]
            if i not in state.objects or state.objects[i].type_name in sdt.receptacle_types
        ],
        "nearby": [
            _nearby(state, state.objects[i])
            for i in some + [i for i in ids if not i.startswith("Statue|")]
        ],
        "witnesses": [clause_witnesses(state, c) for c in clauses],
        "postconditions": [
            postcondition_satisfied(state, ActionTriplet(action, ref, arg2))
            for ref in refs
            for action, arg2 in ((ActionName.PUT, "Fridge"), (ActionName.SLICE, None))
        ],
    }
    for relevant in _INDEX_RELEVANT:
        out[f"shown {sorted(relevant)}"] = [
            filter_relevant_objects(state, sdt, relevant),
            sorted(planner.shown_objects(state, sdt, relevant, {some[0]}), key=lambda o: o.object_id),
            build_action_pairs(state, sdt, relevant),
            build_action_pairs(state, sdt, relevant, focus=some[1]),
        ]
    return out


def _assert_index_matches_scan(state, sdt, seed):
    indexed = _index_queries(state, sdt, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WorldState, "of_types", _scan_of_types)
        mp.setattr(WorldState, "contents_of", _scan_contents_of)
        mp.setattr(WorldState, "near", _scan_near)
        for module in (interpreter, resolver):
            mp.setattr(module, "ref_instances", _scan_ref_instances)
        for module in (planner, resolver):
            mp.setattr(module, "shown_objects", _scan_shown_objects)
        scanned = _index_queries(state, sdt, seed)
    assert indexed == scanned
    data = state_to_json(state)
    assert (data["objects"], data["removed"]) == _scan_state_json(state)


@pytest.fixture(scope="module")
def indexed_scene(tmp_path_factory, sdt):
    """kitchen_fruit.json padded with 300 statues: most spread over the house,
    40 within 2 m of its objects and one inside a counter top."""
    path = _resolve_scene("scenes/kitchen_fruit.json", default_suite_path().parent)
    data = json.loads(path.read_text(encoding="utf-8"))
    authored = [o["position"] for o in data["objects"]]
    counter = next(o for o in data["objects"] if o["type"] == "CounterTop")
    rng = random.Random(17)
    taken = set()
    while len(taken) < 300:
        if len(taken) < 40:
            x, y, z = rng.choice(authored)
            pos = (round(x + rng.uniform(-2, 2), 2), y, round(z + rng.uniform(-2, 2), 2))
        else:
            pos = (round(rng.uniform(-12, 12), 2), round(rng.uniform(0.85, 1.45), 2),
                   round(rng.uniform(-12, 12), 2))
        taken.add(pos)
    statues = [{"type": "Statue", "position": list(p)} for p in sorted(taken)]
    statues.append({"type": "Statue", "position": counter["position"],
                    "parent_receptacle": format_object_id("CounterTop", counter["position"])})
    data["objects"] += statues
    padded = tmp_path_factory.mktemp("indexed") / "fruit.json"
    padded.write_text(json.dumps(data), encoding="utf-8")
    return load_scene(padded, sdt)


_INDEX_OPS = ("goto", "pickup", "put", "slice", "open", "close", "pose",
              "hide", "fill", "lower", "dirty", "assign", "delete")


def _index_op(rng, state, sdt, kind):
    """One random operation of ``kind``: a step, a perturbation or a direct map write."""
    objects = state.objects
    ids = sorted(objects)
    authored = [i for i in ids if not i.startswith("Statue|")]
    pick = lambda pool: rng.choice(pool if pool and rng.random() < 0.9 else ids)  # noqa: E731
    typed = lambda tag: [i for i in authored if sdt.get(objects[i].type_name).has(tag)]  # noqa: E731
    if kind in ("goto", "pickup", "put", "open", "close", "slice", "pose"):
        if kind == "pose":
            action = act(rng.choice((ActionName.CROUCH, ActionName.STAND)))
        elif kind == "goto":
            action = act(ActionName.GOTO, pick(ids))
        elif kind == "slice":
            knives = [i for i in authored if objects[i].type_name == "Knife"]
            if state.held_object is None and knives:  # take up the knife first
                state, _ = step(state, act(ActionName.PICKUP, knives[0]), sdt)
            action = act(ActionName.SLICE, pick(typed(AffordanceTag.SLICEABLE)))
        else:
            name, tag = {
                "pickup": (ActionName.PICKUP, AffordanceTag.PICKUPABLE),
                "put": (ActionName.PUT, AffordanceTag.RECEPTACLE),
                "open": (ActionName.OPEN, AffordanceTag.OPENABLE),
                "close": (ActionName.CLOSE, AffordanceTag.OPENABLE),
            }[kind]
            action = act(name, pick(typed(tag)))
        return step(state, action, sdt)[0]
    if kind in ("hide", "fill", "lower", "dirty"):
        receptacle = pick(typed(AffordanceTag.RECEPTACLE))
        target = receptacle if kind == "fill" else pick(typed(AffordanceTag.PICKUPABLE))
        perturbation = Perturbation(kind, target, receptacle if kind == "hide" else None)
        try:
            return inject_failure(state, perturbation, sdt)
        except ValidationError:
            return state
    new = state.clone()
    if kind == "assign":  # move a record, or add a statue beside one
        old = objects[pick(authored)]
        pos = (round(old.position[0] + rng.uniform(-1.5, 1.5), 2), old.position[1],
               round(old.position[2] + rng.uniform(-1.5, 1.5), 2))
        if rng.random() < 0.5:
            new.objects[old.object_id] = dataclasses.replace(old, position=pos)
        else:
            statue = ObjectInstance(format_object_id("Statue", pos), "Statue", pos, {})
            new.objects[statue.object_id] = statue
    else:  # delete a record nothing holds or contains
        parents = {o.parent_receptacle for o in objects.values()}
        free = [i for i in ids if i != state.held_object and i not in parents]
        del new.objects[pick([i for i in free if i in authored] or free)]
    return new


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_scene_index_matches_a_scan_of_every_record(indexed_scene, sdt, rng):
    """After every step, perturbation and direct write, each indexed query
    answers what a scan over every record answers."""
    state = indexed_scene
    _assert_index_matches_scan(state, sdt, 0)
    for k, kind in enumerate(rng.sample(_INDEX_OPS, len(_INDEX_OPS)) * 2):
        state = _index_op(rng, state, sdt, kind)
        _assert_index_matches_scan(state, sdt, k)
