"""Knowledge base: loading, validation, the condition function, rendering."""

from __future__ import annotations

import json
import random
import re

import pytest

from sdtplan.errors import ValidationError
from sdtplan.sdt import (
    FLAG_ACTIONS,
    FLAG_NAMES,
    ActionName,
    AffordanceTag,
    StateEffect,
    parse_sdt_data,
    render_type_text,
)
from sdtplan.world import (
    ConcreteAction,
    ObjectInstance,
    WorldState,
    condition_fn,
    filter_actions,
    format_object_id,
    step,
    validate_state,
)

ALL_ACTIONS = list(ActionName)


def desc(type_name, flags=None, **kw):
    merged = dict.fromkeys(FLAG_NAMES, False)
    merged.update(flags or {})
    return ObjectInstance(
        object_id=kw.pop("object_id", f"{type_name}|+00.50|+00.90|+00.50"),
        type_name=type_name,
        position=(0.5, 0.9, 0.5),
        flags=merged,
        **kw,
    )


def test_load_bottle_entry_affordances(sdt):
    assert sdt.get("Bottle").affordances == frozenset(
        {AffordanceTag.PICKUPABLE, AffordanceTag.FILLABLE}
    )


_RULE = {"action": "PickupObject", "pre": [], "effect": []}


def test_load_missing_or_malformed_file(tmp_path, capsys):
    from sdtplan.cli import main
    from sdtplan.sdt import load_sdt

    with pytest.raises(ValidationError):
        load_sdt(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_sdt(bad)
    not_array = tmp_path / "obj.json"
    not_array.write_text('{"type": "X"}')
    with pytest.raises(ValidationError):
        load_sdt(not_array)
    # entries of the wrong JSON shape are config errors, not loader crashes
    for entry, message in [
        ({"type": 5}, "entry 0: 'type' must be a string"),
        ({}, "entry 0: each entry needs a 'type' field"),
        ({"type": "X", "rules": "none"}, "X: 'rules' must be a list of objects"),
        ({"type": "X", "rules": ["none"]}, "X: 'rules' must be a list of objects"),
        ({"type": "X", "rules": [dict(_RULE, pre=["isOpen"])]},
         "X/rule 0: 'pre' must be a list of objects"),
        ({"type": "X", "rules": [dict(_RULE, effect="isOpen")]},
         "X/rule 0: 'effect' must be a list of objects"),
        ({"type": "X", "rules": [dict(_RULE, text="t")]}, "X/rule 0: unknown rule fields ['text']"),
        # a rule tests only its owner's flags, so a predicate names no scope
        ({"type": "X", "rules": [dict(_RULE, pre=[{"scope": "colocated", "flag": "isOpen",
                                                   "is": True}])]},
         "X/rule 0: unknown predicate scope 'colocated'"),
        # entries and effects refuse the fields their kind lacks
        ({"type": "X", "rule": []}, "X: unknown entry fields ['rule']"),
        ({"type": "X", "description": 5}, "X: 'description' must be a string"),
        ({"type": "X", "rules": [dict(_RULE, effect=[{"scope": "nearby", "set": "isDirty", "to": False,
                                                      "note": "rinses"}])]},
         "X/rule 0: unknown effect fields ['note']"),
        # a slicing tool is a held instrument: it is picked up and is not cut itself
        ({"type": "X", "affordances": ["Pickupable", "Sliceable", "SlicingTool"]},
         "X: a SlicingTool type must be Pickupable and not Sliceable"),
        ({"type": "X", "affordances": ["SlicingTool"]},
         "X: a SlicingTool type must be Pickupable and not Sliceable"),
        # a string is not read letter by letter as tags
        ({"type": "Fridge", "affordances": "Receptacle"}, "Fridge: 'affordances' must be a list of tags"),
        # step fires no rules after a goto or a pose action
        ({"type": "X", "rules": [dict(_RULE, action="GotoObject")]}, "X/GotoObject: GotoObject fires no rules"),
        ({"type": "X", "rules": [dict(_RULE, action="Crouch")]}, "X/Crouch: Crouch fires no rules"),
        # a cut fires the cut object's rules, so a knife's slice rule could never fire
        ({"type": "X", "affordances": ["Pickupable", "SlicingTool"],
          "rules": [dict(_RULE, action="SliceObject")]},
         "X/SliceObject: trigger requires affordance Sliceable"),
    ]:
        shaped = tmp_path / "shaped.json"
        shaped.write_text(json.dumps([{"affordances": ["Pickupable"], **entry}]))
        with pytest.raises(ValidationError) as info:
            load_sdt(shaped)
        assert str(info.value) == message
        out = str(tmp_path / "out")
        assert main(["run", "--task", "1", "--sdt", str(shaped), "--out", out]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_empty_knowledge_base():
    empty = parse_sdt_data([])
    assert len(empty) == 0
    assert empty.type_names() == []
    assert filter_actions(empty, [], ALL_ACTIONS) == set()


def test_unknown_affordance_tag_rejected():
    with pytest.raises(ValidationError):
        parse_sdt_data([{"type": "X", "affordances": ["Explodable"], "rules": []}])


def test_duplicate_type_rejected():
    entry = {"type": "X", "affordances": ["Pickupable"], "rules": []}
    with pytest.raises(ValidationError):
        parse_sdt_data([entry, dict(entry)])


def test_unknown_trigger_action_rejected():
    data = [{"type": "X", "affordances": ["Pickupable"],
             "rules": [{"action": "FlyObject", "pre": [], "effect": []}]}]
    with pytest.raises(ValidationError):
        parse_sdt_data(data)


def test_a_sliceable_type_cannot_be_a_receptacle():
    # slicing deletes the object, so a sliced receptacle would strand what it holds
    data = [{"type": "Pie", "affordances": ["Sliceable", "Receptacle"], "rules": []}]
    with pytest.raises(ValidationError, match="^Pie: a Sliceable type cannot be a Receptacle$"):
        parse_sdt_data(data)


def test_self_trigger_needs_matching_affordance():
    # an OpenObject rule on a type that is not Openable
    data = [{"type": "X", "affordances": ["Pickupable"],
             "rules": [{"action": "OpenObject", "pre": [], "effect": []}]}]
    with pytest.raises(ValidationError):
        parse_sdt_data(data)


@pytest.mark.parametrize(
    "rule, message",
    [
        ({"pre": [{"scope": "container", "flag": "isOpen"}]}, "unknown predicate scope 'container'"),
        ({"pre": [{"temperature": "Hot"}]}, "a predicate tests one known flag"),
        ({"pre": [{"flag": "isDirty", "temperature": "Hot"}]}, "a predicate tests one known flag"),
        ({"pre": [{"scope": "colocated", "type": "Faucet"}]}, "unknown predicate scope 'colocated'"),
        ({"pre": [{"flag": "isDirty", "is": "false"}]}, "predicate 'is' must be a boolean"),
        ({"effect": [{"scope": "contents", "set": "parent_receptacle", "to": None}]},
         "effect field 'parent_receptacle' does not exist on instances"),
        ({"effect": [{"scope": "nearby", "set": "temperature", "to": "RoomTemp"}]},
         "bad temperature value 'RoomTemp'"),
        ({"effect": [{"scope": "nearby", "set": "isDirty"}]}, "effect needs 'scope', 'set' and 'to' fields"),
        ({"effect": [{"scope": "room", "set": "isDirty", "to": True}]}, "unknown effect scope 'room'"),
        ({"effect": [{"scope": "nearby", "set": "isDirty", "to": "yes"}]}, "flag effect isDirty needs a boolean"),
        # well formed, but a rule tests only its owner's flags
        ({"pre": [{"scope": "colocated", "flag": "isToggled", "is": True}]},
         "unknown predicate scope 'colocated'"),
        # a predicate names no scope, not even its owner
        ({"pre": [{"scope": "self", "flag": "isOpen"}]}, "unknown predicate scope 'self'"),
        # every effect names its scope, and a rule never writes its owner
        ({"effect": [{"set": "isDirty", "to": True}]}, "effect needs 'scope', 'set' and 'to' fields"),
        ({"effect": [{"scope": "self", "set": "isDirty", "to": True}]}, "unknown effect scope 'self'"),
    ],
)
def test_rule_forms_outside_the_language_rejected(rule, message):
    """A rule tests flags on its owner and sets flags or Hot/Cold on other objects."""
    fine = {"action": "PickupObject", "pre": [], "effect": []}
    data = [{"type": "X", "affordances": ["Pickupable"], "rules": [fine, dict(fine, **rule)]}]
    with pytest.raises(ValidationError) as info:
        parse_sdt_data(data)
    assert str(info.value).startswith(f"X/rule 1: {message}")


#: action -> (affordance its target's type needs, flag it reads, flag value
#: under which it is afforded); Goto is always afforded, pose actions never.
_CONDITION_REFERENCE = {
    ActionName.PICKUP: (AffordanceTag.PICKUPABLE, None, None),
    ActionName.PUT: (AffordanceTag.RECEPTACLE, "isOpen", True),
    ActionName.OPEN: (AffordanceTag.OPENABLE, "isOpen", False),
    ActionName.CLOSE: (AffordanceTag.OPENABLE, "isOpen", True),
    ActionName.TOGGLE_ON: (AffordanceTag.TOGGLEABLE, "isToggled", False),
    ActionName.TOGGLE_OFF: (AffordanceTag.TOGGLEABLE, "isToggled", True),
    ActionName.SLICE: (AffordanceTag.SLICEABLE, "isSliced", False),
}


def test_condition_matches_reference_for_every_type_action_and_flag_value(sdt):
    for type_name in sdt.type_names():
        for action in ActionName:
            tag, flag, afforded_at = _CONDITION_REFERENCE.get(action, (None, None, None))
            for value in (False, True):
                flags = {flag: value} if flag else dict.fromkeys(FLAG_NAMES, value)
                if action is ActionName.GOTO:
                    expected = True
                elif tag is None:
                    expected = False
                else:
                    expected = tag in sdt.get(type_name).affordances and (
                        flag is None or value == afforded_at
                    )
                got = condition_fn(sdt, desc(type_name, flags), action)
                assert got is expected, (type_name, str(action), value)


def test_condition_bottle_pickup(sdt):
    assert condition_fn(sdt, desc("Bottle"), ActionName.PICKUP) is True


def test_condition_closed_fridge_close_is_false(sdt):
    assert condition_fn(sdt, desc("Fridge", {"isOpen": False}), ActionName.CLOSE) is False


def test_condition_knife_toggle_is_false(sdt):
    # brute confirmation: no toggle-permitting affordance on the type
    assert AffordanceTag.TOGGLEABLE not in sdt.get("Knife").affordances
    assert condition_fn(sdt, desc("Knife"), ActionName.TOGGLE_ON) is False


def test_unknown_type_affords_nothing(sdt):
    # a type the knowledge base lacks gets an empty entry: no action is
    # admitted on it, the simulator refuses it as not afforded, and it holds
    # nothing
    assert "Unicorn" not in sdt
    unicorn = desc("Unicorn", capacity=1)
    assert not any(condition_fn(sdt, unicorn, action) for action in ActionName)
    entry = sdt.get("Unicorn")
    assert entry.affordances == frozenset() and entry.rules == ()
    state = WorldState(objects={unicorn.object_id: unicorn}, agent_position=(0.5, 0.9, 0.0))
    after, outcome = step(state, ConcreteAction(ActionName.PICKUP, unicorn.object_id), sdt)
    assert after is state and outcome.error_code == "NotAfforded"
    apple = desc("Apple", parent_receptacle=unicorn.object_id)
    state.objects[apple.object_id] = apple
    with pytest.raises(ValidationError, match="container 'Unicorn.*' is not a receptacle type"):
        validate_state(state, sdt)


def test_filter_empty_domain(sdt):
    assert filter_actions(sdt, [], ALL_ACTIONS) == set()


def test_filter_closed_fridge_full_action_set(sdt):
    fridge = desc("Fridge", {"isOpen": False}, object_id="Fridge|-01.30|+00.90|+00.99")
    pairs = filter_actions(sdt, [fridge], ALL_ACTIONS)
    assert pairs == {
        (ActionName.GOTO, fridge.object_id),
        (ActionName.OPEN, fridge.object_id),
    }


def test_filter_unknown_type_yields_no_pairs(sdt):
    pairs = filter_actions(sdt, [desc("Bottle"), desc("Unicorn")], [ActionName.PICKUP])
    assert pairs == {(ActionName.PICKUP, desc("Bottle").object_id)}


def _random_descriptions(rng, sdt, n):
    out = []
    for i in range(n):
        type_name = rng.choice(sdt.type_names())
        flags = {k: rng.random() < 0.4 for k in FLAG_NAMES}
        out.append(desc(type_name, flags, object_id=f"{type_name}|+0{i}.00|+00.90|+00.00"))
    return out


def test_filter_matches_condition_cross_product(sdt):
    rng = random.Random(7)
    for _ in range(50):
        objects = _random_descriptions(rng, sdt, rng.randint(0, 10))
        actions = rng.sample(ALL_ACTIONS, rng.randint(1, len(ALL_ACTIONS)))
        expected = {
            (a, o.object_id)
            for o in objects
            for a in actions
            if condition_fn(sdt, o, a)
        }
        assert filter_actions(sdt, objects, actions) == expected


def test_filter_union_monotonicity(sdt):
    rng = random.Random(11)
    for _ in range(25):
        objects = _random_descriptions(rng, sdt, 6)
        k = rng.randint(1, len(ALL_ACTIONS) - 1)
        a1, a2 = ALL_ACTIONS[:k], ALL_ACTIONS[k:]
        assert filter_actions(sdt, objects, a1) | filter_actions(sdt, objects, a2) == filter_actions(
            sdt, objects, ALL_ACTIONS
        )


def test_condition_never_true_without_affordance(sdt):
    rng = random.Random(13)
    required = {
        ActionName.PICKUP: AffordanceTag.PICKUPABLE,
        ActionName.PUT: AffordanceTag.RECEPTACLE,
        ActionName.OPEN: AffordanceTag.OPENABLE,
        ActionName.CLOSE: AffordanceTag.OPENABLE,
        ActionName.TOGGLE_ON: AffordanceTag.TOGGLEABLE,
        ActionName.TOGGLE_OFF: AffordanceTag.TOGGLEABLE,
        ActionName.SLICE: AffordanceTag.SLICEABLE,
    }
    for obj in _random_descriptions(rng, sdt, 60):
        for action, tag in required.items():
            if condition_fn(sdt, obj, action):
                assert tag in sdt.get(obj.type_name).affordances


def test_render_bottle_text(sdt):
    # no "Rules:": the Faucet's rule fills a bottle, the bottle has none; and no
    # line claims a breakage, which the simulator does not model
    assert [render_type_text(sdt.get(t)) for t in ("Bottle", "Mug", "Plate", "WineBottle")] == [
        "- Bottle [Fillable, Pickupable] A glass bottle.",
        "- Mug [Coolable, Dirtyable, Fillable, Pickupable] A ceramic mug.",
        "- Plate [Coolable, Dirtyable, Pickupable] A dinner plate.",
        "- WineBottle [Coolable, Fillable, Pickupable] A bottle of wine.",
    ]


def test_render_no_rules_section_when_ruleless(sdt):
    text = render_type_text(sdt.get("Sink"))
    assert "Rules:" not in text
    assert text.startswith("- Sink [Receptacle] ")


def test_render_is_one_line_per_type(sdt):
    assert [render_type_text(sdt.get(t)) for t in ("Fridge", "Microwave", "Faucet", "Knife")] == [
        "- Fridge [Openable, Receptacle] A refrigerator with a single door compartment. "
        "Rules: CloseObject -> contents temp=Cold.",
        "- Microwave [Openable, Receptacle, Toggleable] A countertop microwave oven. "
        "Rules: ToggleOnObject if !isOpen -> contents temp=Hot, isCooked.",
        "- Faucet [Toggleable] A water tap mounted over the sink. "
        "Rules: ToggleOnObject -> nearby !isDirty, isFilled.",
        "- Knife [Dirtyable, Pickupable, SlicingTool] A sharp kitchen knife.",
    ]


def test_render_rules_in_the_goal_notation():
    """Preconditions after ``if``, effects grouped by scope, ``-`` for no effect."""
    kb = parse_sdt_data([{"type": "X", "affordances": ["Pickupable"], "rules": [
        {"action": "PickupObject", "pre": [{"flag": "isDirty"}, {"flag": "isOpen", "is": False}],
         "effect": []},
        {"action": "PickupObject", "effect": [{"set": "isCooked", "to": True, "scope": "nearby"},
                                              {"set": "temperature", "to": "Cold", "scope": "contents"},
                                              {"set": "isFilled", "to": False, "scope": "nearby"}]},
    ]}])
    assert render_type_text(kb.get("X")) == (
        "- X [Pickupable] Rules: PickupObject if isDirty, !isOpen -> -. "
        "PickupObject -> nearby isCooked, !isFilled; contents temp=Cold."
    )


def test_render_deterministic(sdt):
    entry = sdt.get("Microwave")
    assert render_type_text(entry) == render_type_text(entry)


def test_slicing_tools_carry_the_tag(sdt):
    assert sdt.slicing_tool_types() == ["ButterKnife", "Knife"]


#: One rule of a knowledge line: trigger, preconditions, effects.
_CLAIM_RE = re.compile(r"(\w+)(?: if (.+?))? -> (.+?)\.(?= |$)")


def _field(token):
    """A claimed field and value: ``temp=<T>``, ``isX`` or ``!isX``."""
    if token.startswith("temp="):
        return "temperature", token.removeprefix("temp=")
    return token.lstrip("!"), not token.startswith("!")


def _claims(line):
    """(action, {flag: value}, [(scope, field, value)]) per rule the line states."""
    claims = []
    for action, pre, effects in _CLAIM_RE.findall(line.partition(" Rules: ")[2]):
        named = [] if effects == "-" else [
            (scope, *_field(token))
            for group in effects.split("; ")
            for scope, _, tokens in [group.partition(" ")]
            for token in tokens.split(", ")
        ]
        flags = dict(_field(token) for token in pre.split(", ")) if pre else {}
        claims.append((ActionName(action), flags, named))
    return claims


def _rule_scene(sdt, owner_type, action, pre, effects):
    """The owner, flagged to allow ``action`` and meet ``pre``, and per effect one
    object of a type carrying its gate, in its scope (inside the owner for
    ``contents``, 0.5 m away for ``nearby``) and not yet in the claimed state."""
    _, trigger_flag, trigger_value = FLAG_ACTIONS[action]
    owner_pos = (1.0, 0.9, 0.0)
    owner_id = format_object_id(owner_type, owner_pos)
    owner = ObjectInstance(owner_id, owner_type, owner_pos, {trigger_flag: not trigger_value, **pre},
                           capacity=len(effects))
    objects, placed = {owner_id: owner}, []
    for k, (scope, field, value) in enumerate(effects):
        type_name = next(t for t in sdt.type_names()
                         if sdt.get(t).has(StateEffect(field, value, scope).gate))
        pos = (1.0 + 0.01 * k, 0.9, 0.0) if scope == "contents" else (1.5, 0.9, 0.01 * k)
        obj = ObjectInstance(format_object_id(type_name, pos), type_name, pos,
                             {} if field == "temperature" else {field: not value},
                             parent_receptacle=owner_id if scope == "contents" else None)
        objects[obj.object_id] = obj
        placed.append((obj.object_id, field, value))
    return WorldState(objects, agent_position=(0.0, 0.9, 0.0)), owner_id, placed


def _value(obj, field):
    return obj.temperature if field == "temperature" else obj.flag(field)


def test_each_rule_line_says_what_step_does(sdt):
    """Each knowledge line's rules, read back from the line, are what ``step``
    does: the trigger sets every named effect on the objects in its scope, and
    with a precondition flipped it leaves them as they were."""
    checked = 0
    for type_name in sdt.type_names():
        line = render_type_text(sdt.get(type_name))
        claims = _claims(line)
        assert len(claims) == len(sdt.get(type_name).rules), line
        for action, pre, effects in claims:
            assert action in FLAG_ACTIONS, f"no one-step scene for a {action} rule: {line}"
            state, owner_id, placed = _rule_scene(sdt, type_name, action, pre, effects)
            after, outcome = step(state, ConcreteAction(action, owner_id), sdt)
            assert outcome.ok, line
            for object_id, field, value in placed:
                assert _value(state.objects[object_id], field) != value, line
                assert _value(after.objects[object_id], field) == value, (line, object_id, field)
            for flag in pre:
                flipped = dict(pre, **{flag: not pre[flag]})
                state, owner_id, placed = _rule_scene(sdt, type_name, action, flipped, effects)
                after, outcome = step(state, ConcreteAction(action, owner_id), sdt)
                assert outcome.ok, line
                for object_id, _, _ in placed:
                    assert after.objects[object_id] == state.objects[object_id], (line, flag)
            checked += 1
    assert checked
