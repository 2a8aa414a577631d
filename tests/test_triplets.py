"""Grammar layer: parsing, formatting, round-trips, goal checking."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import scene_for_row, suite_row

from sdtplan.errors import GrammarError, SdtPlanError
from sdtplan.sdt import FLAG_NAMES, ActionName
from sdtplan.triplets import (
    ActionTriplet,
    GoalClause,
    GoalCondition,
    clause_witnesses,
    format_recovery,
    format_triplets,
    goal_satisfied,
    parse_goal,
    parse_recovery,
    parse_triplets,
)
from sdtplan.world import ObjectInstance, WorldState, format_object_id

WINE_PLAN_TEXT = (
    "Action-Triplets:[['PickupObject', 'WineBottle', 0], ['OpenObject', 'Fridge', 0], "
    "['PutObject', 'WineBottle', 'Fridge'], ['CloseObject', 'Fridge', 0], "
    "['OpenObject', 'Fridge', 0], ['PickupObject', 'WineBottle', 0], "
    "['CloseObject', 'Fridge', 0], ['PutObject', 'WineBottle', 'DiningTable']]"
)


# ---------------------------------------------------------------------------
# Triplet parsing


def test_parse_wine_trace_line():
    triplets = parse_triplets(
        "Action-Triplets:[['PickupObject','WineBottle',0],['OpenObject','Fridge',0]]"
    )
    assert triplets == [
        ActionTriplet(ActionName.PICKUP, "WineBottle", None),
        ActionTriplet(ActionName.OPEN, "Fridge", None),
    ]


def test_parse_with_second_object():
    (triplet,) = parse_triplets("[['PutObject','WineBottle','DiningTable']]")
    assert triplet.arg2 == "DiningTable"


def test_parse_no_plan():
    with pytest.raises(GrammarError):
        parse_triplets("no plan here")


def test_parse_rejects_deep_brackets_without_recursing():
    # the scan from each '[' gives up past 3 levels: no RecursionError, and
    # no rescan that grows with the nesting
    with pytest.raises(GrammarError):
        parse_triplets("[" * 100_000)


def test_parse_bad_action():
    with pytest.raises(GrammarError) as exc:
        parse_triplets("[['FlyObject','Broom',0]]")
    assert str(exc.value) == "unknown action name: 'FlyObject'"


def test_parse_malformed_entry_position():
    with pytest.raises(GrammarError) as exc:
        parse_triplets("[['PickupObject','Mug',0],['PickupObject']]")
    assert str(exc.value) == "triplet needs 2-3 slots, got 1 (entry 1)"


@pytest.mark.parametrize(
    "parser, text, message",
    [
        (parse_triplets, "[['PickupObject', ['Mug'], 0]]", "nested list inside triplet (entry 0)"),
        (parse_triplets, "[['PickupObject','Mug',0],['PickupObject', ' ', 0]]",
         "empty first argument (entry 1)"),
        (parse_goal, "GOAL:{type=; flags=-; temp=-; in=-}", "goal clause needs an object type"),
        (parse_goal, "GOAL:{flags=isCooked; temp=-; in=Sink}", "goal clause missing type field"),
    ],
)
def test_malformed_reply_messages(parser, text, message):
    with pytest.raises(GrammarError) as info:
        parser(text)
    assert str(info.value) == message


def test_parse_skips_prose_and_quote_styles():
    text = 'Sure! Here is the plan:\n[["PickupObject", "Mug", 0]]\nGood luck.'
    assert parse_triplets(text) == [ActionTriplet(ActionName.PICKUP, "Mug", None)]


def test_parse_eight_step_plan_round_trip():
    plan = parse_triplets(WINE_PLAN_TEXT)
    assert len(plan) == 8
    assert parse_triplets(format_triplets(plan)) == plan


def test_format_empty():
    assert format_triplets([]) == "[]"


def test_format_renders_missing_arg2_as_zero():
    text = format_triplets([ActionTriplet(ActionName.CROUCH, "Fridge", None)])
    assert text.endswith(", 0]]") or text.endswith(", 0]]")
    assert "', 0]" in text


_REF = st.one_of(
    st.sampled_from(["WineBottle", "Fridge", "PotatoSliced", "CounterTop", "Mug"]),
    # a live model may name an object in its own words, quote marks included
    st.sampled_from(["Bob's mug", "the 'good' knife", 'the "big" pan', "a [chilled], (red) apple"]),
    st.builds(
        lambda t, x, y, z: format_object_id(t, (x, y, z)),
        st.sampled_from(["Apple", "Drawer", "Sink"]),
        st.floats(min_value=-9, max_value=9).map(lambda v: round(v, 2)),
        st.floats(min_value=0, max_value=3).map(lambda v: round(v, 2)),
        st.floats(min_value=-9, max_value=9).map(lambda v: round(v, 2)),
    ),
)
_TRIPLET = st.builds(
    ActionTriplet,
    st.sampled_from(list(ActionName)),
    _REF,
    st.one_of(st.none(), _REF),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_TRIPLET, max_size=12))
def test_round_trip_random_plans(plan):
    assert parse_triplets(format_triplets(plan)) == plan


def test_reference_with_both_quote_characters_rejected():
    # no quoting renders it, so no plan can hold it
    with pytest.raises(GrammarError, match=r"^reference holds both quote characters \(entry 1\)$"):
        parse_triplets("""[['Stand', 'x', 0], ['PickupObject', "Bob's" '"mug"', 0]]""")


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=400))
def test_parser_total_on_text(text):
    try:
        parse_triplets(text)
    except SdtPlanError:
        pass


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=400))
def test_parser_total_on_bytes(blob):
    text = blob.decode("utf-8", errors="replace")
    for parser in (parse_triplets, parse_recovery, parse_goal):
        try:
            parser(text)
        except SdtPlanError:
            pass


# ---------------------------------------------------------------------------
# Recovery pairs


def test_parse_recovery_pairs():
    pairs = parse_recovery(
        "[(OpenObject,Drawer|-00.86|+00.58|+01.43),(PutObject,Drawer|-00.86|+00.58|+01.43)]"
    )
    assert [p.name for p in pairs] == [ActionName.OPEN, ActionName.PUT]
    assert pairs[0].target == "Drawer|-00.86|+00.58|+01.43"


def test_parse_recovery_empty():
    assert parse_recovery("[]") == []


def test_parse_recovery_bad_action():
    with pytest.raises(GrammarError) as exc:
        parse_recovery("(Fly,Drawer|-00.86|+00.58|+01.43)")
    assert str(exc.value) == "unknown action name: 'Fly'"


def test_parse_recovery_bad_id():
    with pytest.raises(GrammarError):
        parse_recovery("(OpenObject,not-an-id)")


def test_recovery_round_trip():
    pairs = parse_recovery("[(Crouch,Fridge|-01.30|+00.01|+00.99)]")
    assert parse_recovery(format_recovery(pairs)) == pairs


# ---------------------------------------------------------------------------
# Goal grammar


def test_parse_goal_line():
    goal = parse_goal("GOAL:{type=PotatoSliced; flags=isCooked; temp=-; in=Sink}")
    (clause,) = goal.clauses
    assert clause.object_type == "PotatoSliced"
    assert clause.required_flags == ("isCooked",)
    assert clause.required_temperature is None
    assert clause.receptacle_type == "Sink"


def test_parse_goal_negated_flag_and_multiple_clauses():
    goal = parse_goal(
        "GOAL:{type=Knife; flags=!isDirty; temp=-; in=Drawer}\n"
        "GOAL:{type=WineBottle; flags=-; temp=Cold; in=-}"
    )
    assert len(goal.clauses) == 2
    assert goal.clauses[0].required_flags == ("!isDirty",)
    assert goal.clauses[1].required_temperature == "Cold"


def test_goal_render_round_trip():
    goal = GoalCondition(
        clauses=(
            GoalClause("Mug", ("!isDirty",), None, "CoffeeMachine"),
            GoalClause("AppleSliced", (), "Cold", "DiningTable"),
        )
    )
    assert parse_goal(goal.render()) == goal


def test_goal_requires_clauses():
    with pytest.raises(GrammarError):
        GoalCondition(clauses=())


def test_goal_rejects_unknown_flag():
    with pytest.raises(GrammarError):
        GoalCondition(clauses=(GoalClause("Mug", ("isShiny",), None, None),))


# ---------------------------------------------------------------------------
# Goal checking


def _mini_state(objects):
    return WorldState(objects={o.object_id: o for o in objects}, agent_position=(0, 0.9, 0))


def _obj(type_name, x, flags=None, temp="RoomTemp", parent=None, capacity=0):
    pos = (x, 0.9, 0.0)
    base = dict.fromkeys(FLAG_NAMES, False)
    base.update(flags or {})
    return ObjectInstance(
        object_id=format_object_id(type_name, pos),
        type_name=type_name,
        position=pos,
        flags=base,
        temperature=temp,
        parent_receptacle=parent,
        capacity=capacity,
    )


def test_goal_cooked_slice_in_sink_satisfied():
    sink = _obj("Sink", 1.0, {"isOpen": True}, capacity=4)
    piece = _obj("PotatoSliced", 1.0, {"isCooked": True, "isSliced": True},
                 temp="Hot", parent=sink.object_id)
    state = _mini_state([sink, piece])
    goal = parse_goal("GOAL:{type=PotatoSliced; flags=isCooked; temp=-; in=Sink}")
    assert goal_satisfied(state, goal) == (True, [])


def test_goal_unsliced_potato_misses_witness():
    sink = _obj("Sink", 1.0, {"isOpen": True}, capacity=4)
    potato = _obj("Potato", 1.0, {"isCooked": True}, temp="Hot", parent=sink.object_id)
    state = _mini_state([sink, potato])
    goal = parse_goal("GOAL:{type=PotatoSliced; flags=isCooked; temp=-; in=Sink}")
    ok, unmet = goal_satisfied(state, goal)
    assert not ok
    assert unmet == ["UNMET type=PotatoSliced need=exists"]


def test_goal_closest_miss_names_failing_conjunct():
    table = _obj("DiningTable", 1.0, {"isOpen": True}, capacity=4)
    slice_ = _obj("AppleSliced", 0.5, {}, temp="RoomTemp", parent=table.object_id)
    state = _mini_state([table, slice_])
    goal = parse_goal("GOAL:{type=AppleSliced; flags=-; temp=Cold; in=DiningTable}")
    ok, unmet = goal_satisfied(state, goal)
    assert not ok
    assert unmet == [f"UNMET type=AppleSliced need=temp:Cold near={slice_.object_id}"]


_TWO_APPLES_IN_FRIDGE = "GOAL:{type=Apple; flags=-; temp=-; in=Fridge}\n" * 2


def test_goal_one_object_witnesses_one_clause():
    fridge = _obj("Fridge", 1.0, capacity=4)
    apple = _obj("Apple", 0.5, parent=fridge.object_id)
    goal = parse_goal(_TWO_APPLES_IN_FRIDGE)
    assert goal_satisfied(_mini_state([fridge, apple]), goal) == (
        False, ["UNMET type=Apple need=exists"]
    )
    second = _obj("Apple", 0.6, parent=fridge.object_id)
    assert goal_satisfied(_mini_state([fridge, apple, second]), goal) == (True, [])


def test_goal_unmet_line_names_the_clause_left_without_a_witness():
    # one cold apple in the fridge meets both clauses; the counter apple meets neither
    fridge = _obj("Fridge", 1.0, capacity=4)
    counter = _obj("CounterTop", 2.0, capacity=4)
    chilled = _obj("Apple", 0.5, temp="Cold", parent=fridge.object_id)
    warm = _obj("Apple", 0.6, parent=counter.object_id)
    goal = parse_goal(
        "GOAL:{type=Apple; flags=-; temp=-; in=Fridge}\n"
        "GOAL:{type=Apple; flags=-; temp=Cold; in=-}"
    )
    assert goal_satisfied(_mini_state([fridge, counter, chilled, warm]), goal) == (
        False, [f"UNMET type=Apple need=temp:Cold near={warm.object_id}"]
    )


def test_goal_witnesses_are_matched_not_taken_greedily():
    # the first clause's first witness is the second clause's only one
    fridge = _obj("Fridge", 1.0, capacity=4)
    inside = _obj("Apple", 0.5, parent=fridge.object_id)
    outside = _obj("Apple", 0.6)
    assert inside.object_id < outside.object_id
    goal = parse_goal(
        "GOAL:{type=Apple; flags=-; temp=-; in=-}\nGOAL:{type=Apple; flags=-; temp=-; in=Fridge}"
    )
    assert goal_satisfied(_mini_state([fridge, inside, outside]), goal) == (True, [])


def _brute_force_goal(state, goal):
    """Independent witness check: direct conjunct evaluation per clause, then
    every way of giving each clause a distinct witness."""

    def matches(obj, clause):
        if obj.type_name != clause.object_type:
            return False
        for token in clause.required_flags:
            want = not token.startswith("!")
            name = token.lstrip("!")
            if bool(obj.flags.get(name, False)) is not want:
                return False
        if clause.required_temperature is not None:
            if obj.temperature != clause.required_temperature:
                return False
        if clause.receptacle_type is not None:
            parent = state.objects.get(obj.parent_receptacle or "")
            if parent is None or parent.type_name != clause.receptacle_type:
                return False
        return True

    fits = [[o.object_id for o in state.objects.values() if matches(o, c)] for c in goal.clauses]
    return any(len(set(pick)) == len(pick) for pick in itertools.product(*fits))


def test_goal_checker_matches_brute_force_on_random_pairs():
    rng = random.Random(31)
    types = ["Potato", "PotatoSliced", "Sink", "Knife", "Drawer", "Mug", "Fridge"]
    flags = ["isCooked", "!isDirty", "isFilled", "isSliced"]
    for _ in range(200):
        objs = []
        for i in range(rng.randint(1, 8)):
            parent = None
            if objs and rng.random() < 0.4:
                parent = rng.choice(objs).object_id
            objs.append(
                _obj(
                    rng.choice(types),
                    round(rng.uniform(-3, 3), 2),
                    {f: rng.random() < 0.5 for f in ("isCooked", "isDirty", "isFilled", "isSliced")},
                    temp=rng.choice(("Hot", "Cold", "RoomTemp")),
                    parent=parent,
                    capacity=4,
                )
            )
        seen = {}
        for o in objs:
            seen[o.object_id] = o
        state = WorldState(objects=seen, agent_position=(0, 0.9, 0))
        clauses = tuple(
            GoalClause(
                rng.choice(types),
                tuple(rng.sample(flags, rng.randint(0, 2))),
                rng.choice((None, "Hot", "Cold")),
                rng.choice((None, "Sink", "Drawer")),
            )
            for _ in range(rng.randint(1, 3))
        )
        goal = GoalCondition(clauses=clauses)
        assert goal_satisfied(state, goal)[0] == _brute_force_goal(state, goal)


def test_goal_checker_matches_brute_force_when_clauses_compete():
    # few types and loose clauses, so clauses often share candidate witnesses
    rng = random.Random(37)
    contested = 0
    for _ in range(300):
        sink = _obj("Sink", 3.0, capacity=4)
        objs = [sink] + [
            _obj(
                rng.choice(("Apple", "Mug")), round(rng.uniform(-2, 2), 2),
                {"isDirty": rng.random() < 0.5}, temp=rng.choice(("Cold", "RoomTemp")),
                parent=rng.choice((None, sink.object_id)),
            )
            for _ in range(rng.randint(1, 4))
        ]
        state = _mini_state(objs)
        goal = GoalCondition(clauses=tuple(
            GoalClause(
                rng.choice(("Apple", "Mug")), rng.choice(((), ("!isDirty",))),
                rng.choice((None, "Cold")), rng.choice((None, "Sink")),
            )
            for _ in range(rng.randint(2, 3))
        ))
        ok, unmet = goal_satisfied(state, goal)
        assert ok == _brute_force_goal(state, goal) == (not unmet)
        contested += not ok and all(clause_witnesses(state, c) for c in goal.clauses)
    assert contested >= 10  # goals that shared witnesses would have met


def test_goal_checker_on_suite_scenes(sdt, suite):
    for row in suite["tasks"]:
        state = scene_for_row(row, sdt)
        goal = GoalCondition(
            clauses=(GoalClause("Fridge", (), None, None),)
            if any(o.type_name == "Fridge" for o in state.objects.values())
            else (GoalClause("Sink", (), None, None),)
        )
        assert goal_satisfied(state, goal)[0] == _brute_force_goal(state, goal)
