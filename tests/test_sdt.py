"""Knowledge base: loading, validation, the condition function, rendering."""

from __future__ import annotations

import json
import random

import pytest

from sdtplan.errors import ValidationError
from sdtplan.sdt import (
    FLAG_NAMES,
    ActionName,
    AffordanceTag,
    parse_sdt_data,
    render_type_text,
)
from sdtplan.world import (
    ConcreteAction,
    ObjectInstance,
    WorldState,
    condition_fn,
    filter_actions,
    step,
    validate_state,
)

ALL_ACTIONS = list(ActionName)


def desc(type_name, flags=None, **kw):
    merged = {"isOpen": False, "isDirty": False, "isCooked": False, "isSliced": False,
              "isToggled": False, "isFilled": False, "isBroken": False}
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
        {AffordanceTag.PICKUPABLE, AffordanceTag.FILLABLE, AffordanceTag.BREAKABLE}
    )


_RULE = {"action": "PickupObject", "pre": [], "effect": [], "text": "t"}


def test_load_missing_or_malformed_file(tmp_path, capsys):
    from sdtplan.cli import main
    from sdtplan.errors import ParseError
    from sdtplan.sdt import load_sdt

    with pytest.raises(ParseError):
        load_sdt(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_sdt(bad)
    not_array = tmp_path / "obj.json"
    not_array.write_text('{"type": "X"}')
    with pytest.raises(ParseError):
        load_sdt(not_array)
    # entries of the wrong JSON shape are config errors, not loader crashes
    for entry, message in [
        ({"type": 5}, "entry 0: 'type' must be a string"),
        ({"type": "X", "rules": "none"}, "X: 'rules' must be a list of objects"),
        ({"type": "X", "rules": ["none"]}, "X: 'rules' must be a list of objects"),
        ({"type": "X", "rules": [dict(_RULE, pre=["isOpen"])]},
         "X/rule 0: 'pre' must be a list of objects"),
        ({"type": "X", "rules": [dict(_RULE, effect="isOpen")]},
         "X/rule 0: 'effect' must be a list of objects"),
        ({"type": "X", "rules": [dict(_RULE, text=["t"])]}, "X/rule 0: rule text must be a string"),
        ({"type": "X", "rules": [dict(_RULE, pre=[{"scope": "colocated", "flag": "isOpen",
                                                   "type": 1}])]},
         "X/rule 0: predicate 'type' must be a string"),
    ]:
        shaped = tmp_path / "shaped.json"
        shaped.write_text(json.dumps([{"affordances": ["Pickupable"], **entry}]))
        with pytest.raises(ParseError) as info:
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


def test_fill_rule_without_fillable_tag_rejected():
    data = [
        {
            "type": "Cup",
            "affordances": ["Pickupable"],
            "description": "a cup",
            "rules": [
                {
                    "action": "ToggleOnObject",
                    "pre": [{"scope": "colocated", "type": "Faucet", "flag": "isToggled", "is": True}],
                    "effect": [{"set": "isFilled", "to": True}],
                    "text": "fills up",
                }
            ],
        }
    ]
    with pytest.raises(ValidationError):
        parse_sdt_data(data)


def test_unknown_affordance_tag_rejected():
    with pytest.raises(ValidationError):
        parse_sdt_data([{"type": "X", "affordances": ["Explodable"], "rules": []}])


def test_duplicate_type_rejected():
    entry = {"type": "X", "affordances": ["Pickupable"], "rules": []}
    with pytest.raises(ValidationError):
        parse_sdt_data([entry, dict(entry)])


def test_unknown_trigger_action_rejected():
    data = [{"type": "X", "affordances": ["Pickupable"],
             "rules": [{"action": "FlyObject", "pre": [], "effect": [], "text": "t"}]}]
    with pytest.raises(ValidationError):
        parse_sdt_data(data)


def test_empty_rule_text_rejected():
    data = [{"type": "X", "affordances": ["Pickupable"],
             "rules": [{"action": "PickupObject", "pre": [], "effect": [], "text": " "}]}]
    with pytest.raises(ValidationError):
        parse_sdt_data(data)


def test_self_trigger_needs_matching_affordance():
    # an OpenObject rule on a type that is not Openable
    data = [{"type": "X", "affordances": ["Pickupable"],
             "rules": [{"action": "OpenObject", "pre": [], "effect": [], "text": "t"}]}]
    with pytest.raises(ValidationError):
        parse_sdt_data(data)


@pytest.mark.parametrize(
    "rule, message",
    [
        ({"pre": [{"scope": "container", "flag": "isOpen"}]}, "unknown predicate scope 'container'"),
        ({"pre": [{"temperature": "Hot"}]}, "a predicate tests one known flag"),
        ({"pre": [{"flag": "isDirty", "temperature": "Hot"}]}, "a predicate tests one known flag"),
        ({"pre": [{"scope": "colocated", "type": "Faucet"}]}, "a predicate tests one known flag"),
        ({"pre": [{"flag": "isDirty", "is": "false"}]}, "predicate 'is' must be a boolean"),
        ({"effect": [{"set": "parent_receptacle", "to": None}]},
         "effect field 'parent_receptacle' does not exist on instances"),
        ({"effect": [{"scope": "nearby", "set": "temperature", "to": "RoomTemp"}]},
         "bad temperature value 'RoomTemp'"),
    ],
)
def test_rule_forms_outside_the_language_rejected(rule, message):
    """A rule tests flags on its owner or on co-located objects and sets flags or Hot/Cold."""
    fine = {"action": "PickupObject", "pre": [], "effect": [], "text": "t"}
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
        flags = {k: rng.random() < 0.4 for k in
                 ("isOpen", "isDirty", "isCooked", "isSliced", "isToggled", "isFilled", "isBroken")}
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
    text = render_type_text(sdt.get("Bottle"))
    for word in ("Pickupable", "Fillable", "Breakable"):
        assert word in text
    assert "Will fill up with water if placed under a running water source." in text


def test_render_no_rules_section_when_ruleless(sdt):
    text = render_type_text(sdt.get("Sink"))
    assert "Rules:" not in text
    assert text.startswith("- Sink [Receptacle] ")


def test_render_is_one_line_per_type(sdt):
    assert render_type_text(sdt.get("Fridge")) == (
        "- Fridge [Openable, Receptacle] A refrigerator with a single door compartment. "
        "Rules: Chills its contents: anything inside becomes cold once the door closes."
    )


def test_render_deterministic(sdt):
    entry = sdt.get("Microwave")
    assert render_type_text(entry) == render_type_text(entry)
