"""Relevance filter, plan prompt assembly, plan queries."""

from __future__ import annotations

import json
import re

import pytest

from conftest import ScriptedBackend, scene_for_row, suite_row

from sdtplan import lexicon, prompts
from sdtplan.backends import ScriptedOracle
from sdtplan.cli import default_sdt_path
from sdtplan.errors import PlanParseError
from sdtplan.planner import (
    EXAMPLES_SHOWN,
    build_plan_prompt,
    filter_relevant_objects,
    goal_types,
    load_examples,
    nearest_examples,
    plan,
    relevant_types,
)
from sdtplan.sdt import FLAG_NAMES, ActionName, parse_sdt_data, render_type_text
from sdtplan.triplets import GoalClause, GoalCondition


def test_filter_knife_task_keeps_washing_chain(sdt, suite):
    state = scene_for_row(suite_row(suite, 5), sdt, injected=False)
    task = "Place a clean knife in the drawer"
    kept = {d.type_name for d in filter_relevant_objects(state, sdt, relevant_types(task, sdt))}
    assert {"Knife", "Drawer", "Sink", "Faucet"} <= kept
    assert "Lettuce" not in kept


def test_filter_empty_scene(tmp_path, sdt):
    from sdtplan.world import load_scene

    path = tmp_path / "empty.json"
    path.write_text('{"agent": {"position": [0, 0.9, 0]}, "objects": []}')
    state = load_scene(path, sdt)
    relevant = relevant_types("Place a clean knife in the drawer", sdt)
    assert filter_relevant_objects(state, sdt, relevant) == []


def test_filter_unmentioned_scene_keeps_receptacles_only(sdt, suite):
    state = scene_for_row(suite_row(suite, 10), sdt, injected=False)
    kept = filter_relevant_objects(state, sdt, relevant_types("Water the plants outside", sdt))
    from sdtplan.sdt import AffordanceTag

    assert kept
    assert all(sdt.get(d.type_name).has(AffordanceTag.RECEPTACLE) for d in kept)


def test_relevant_types_add_the_helpers_of_the_treatments_asked_for(sdt):
    kept = relevant_types("Place a cooked potato slice in the sink", sdt)
    assert {"Potato", "PotatoSliced", "Sink"} <= kept
    # a slice asks for the knives, a cooked potato for the microwave
    assert {"Knife", "ButterKnife", "Microwave"} <= kept
    again = relevant_types("Place a cooked potato slice in the sink", sdt)
    assert kept == again


def test_an_untreated_task_implies_no_helper_type(sdt):
    # an apple could be sliced, heated, chilled or rinsed, but this task asks for none of it
    assert relevant_types("Put the apple on the table.", sdt) == {"Apple", "AppleSliced", "DiningTable"}


def test_each_treatment_word_implies_its_own_helpers(sdt):
    task = "Put a cooked, chilled potato in the sink."
    assert lexicon.category(task) == "heat"  # the one category a task gets names only the first
    assert relevant_types(task, sdt) == {"Potato", "PotatoSliced", "Sink", "Microwave", "Fridge"}


#: The helper types the shipped twin gives each clause form, beyond the types it names.
_CLAUSE_HELPERS = {
    **{(flag,): set() for flag in FLAG_NAMES},
    **{("!" + flag,): set() for flag in FLAG_NAMES},
    ("isCooked",): {"Microwave"},
    ("!isDirty",): {"Faucet"},
    ("isFilled",): {"Faucet"},
}


@pytest.mark.parametrize("clause, helpers", [
    *(pytest.param(GoalClause("Apple", flags), helpers, id=flags[0])
      for flags, helpers in _CLAUSE_HELPERS.items()),
    pytest.param(GoalClause("Apple", required_temperature="Hot"), {"Microwave"}, id="temp=Hot"),
    pytest.param(GoalClause("Apple", required_temperature="Cold"), {"Fridge"}, id="temp=Cold"),
    pytest.param(GoalClause("Apple", required_temperature="RoomTemp"), set(), id="temp=RoomTemp"),
    pytest.param(GoalClause("AppleSliced"), {"Knife", "ButterKnife"}, id="AppleSliced"),
])
def test_goal_types_add_the_types_whose_rules_set_what_a_clause_asks_for(sdt, clause, helpers):
    assert goal_types(GoalCondition((clause,)), sdt) == {clause.object_type} | helpers


def test_goal_types_read_the_rule_effects_not_a_treatment_name():
    """A toaster cooks without heating, and a water cooler fills without cleaning."""
    data = json.loads(default_sdt_path().read_text(encoding="utf-8"))
    data += [
        {"type": "Toaster", "affordances": ["Receptacle", "Toggleable"], "rules": [
            {"action": "ToggleOnObject", "effect": [{"scope": "contents", "set": "isCooked", "to": True}]},
        ]},
        {"type": "WaterCooler", "affordances": ["Toggleable"], "rules": [
            {"action": "ToggleOnObject", "effect": [{"scope": "nearby", "set": "isFilled", "to": True}]},
        ]},
    ]
    twin = parse_sdt_data(data)
    cooked = GoalCondition((GoalClause("Bread", ("isCooked",)),))
    assert goal_types(cooked, twin) == {"Bread", "Microwave", "Toaster"}
    clean = GoalCondition((GoalClause("Mug", ("!isDirty",)),))
    assert goal_types(clean, twin) == {"Mug", "Faucet"}


def _knowledge_types(prompt: str) -> set[str]:
    return {
        line.removeprefix("- ").split(" [")[0]
        for line in prompts.sections(prompt)[prompts.SEC_KNOWLEDGE].splitlines()
    }


def _row_plan_prompt(sdt, suite, task_id, task=None):
    """Row ``task_id``'s plan prompt, with no worked examples, for its own task or ``task``."""
    row = suite_row(suite, task_id)
    task = task or row["task"]
    return build_plan_prompt(task, scene_for_row(row, sdt), sdt, relevant_types(task, sdt), [])


def _listed_types(prompt: str) -> set[str]:
    return prompts.listed_types(prompts.sections(prompt)[prompts.SEC_OBJECTS])


def _object_lines(prompt: str) -> list[str]:
    """The ``## Objects In View`` lines after the legend."""
    legend, *lines = prompts.sections(prompt)[prompts.SEC_OBJECTS].splitlines()
    assert legend == prompts.STATE_LEGEND
    return lines


@pytest.mark.parametrize("task_id, knowledge", [
    # the butter knife hidden in the microwave and the slices the potato cuts into keep their
    # lines; the Knife a slice asks for has none, as the scene holds no Knife, and the counter
    # tops and the fridge in view have none, as the task needs neither
    (1, {"ButterKnife", "Microwave", "Potato", "PotatoSliced", "Sink"}),
    # the task names the sink, but the scene holds none
    (8, {"CounterTop", "Fridge", "Plate"}),
    # the wine bottle hidden in the fridge keeps its line
    (9, {"DiningTable", "Fridge", "WineBottle"}),
])
def test_knowledge_lines_cover_the_relevant_types_the_state_holds(sdt, suite, task_id, knowledge):
    assert _knowledge_types(_row_plan_prompt(sdt, suite, task_id)) == knowledge


def test_knowledge_types_are_the_relevant_types_the_state_holds_on_every_row(sdt, suite):
    for row in suite["tasks"]:
        state = scene_for_row(row, sdt)
        held = {obj.type_name for obj in state.objects.values()}
        expected = {
            t for t in relevant_types(row["task"], sdt)
            if t in held or t.removesuffix("Sliced") in held
        }
        assert _knowledge_types(_row_plan_prompt(sdt, suite, row["id"])) == expected, row["id"]


@pytest.mark.parametrize("task_id, container", [(8, "Cabinet"), (14, "Drawer")])
def test_a_hiding_container_keeps_its_object_line_and_loses_its_knowledge_line(
    sdt, suite, task_id, container
):
    """The container the task does not name is still listed, on one count
    line, and not described."""
    prompt = _row_plan_prompt(sdt, suite, task_id)
    assert container in _listed_types(prompt)
    assert f"- {container} x1" in _object_lines(prompt)
    assert container not in _knowledge_types(prompt)


def test_a_task_naming_no_known_type_gets_no_knowledge_section(sdt, suite):
    prompt = _row_plan_prompt(sdt, suite, 1, task="Do a little dance")
    assert prompts.SEC_KNOWLEDGE not in prompt
    assert {"CounterTop", "Fridge", "Microwave", "Sink"} <= _listed_types(prompt)
    # no type is relevant, so each receptacle type in view is counted, not itemised
    assert _object_lines(prompt) == [
        "- CounterTop x1 (flags=isOpen)", "- Fridge x1", "- Microwave x1", "- Sink x1 (flags=isOpen)",
    ]


def test_prompt_deterministic(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)
    task = suite_row(suite, 9)["task"]
    relevant, examples = relevant_types(task, sdt), load_examples()
    assert build_plan_prompt(task, state, sdt, relevant, examples) == build_plan_prompt(
        task, state, sdt, relevant, examples
    )


def test_prompt_contains_each_rule_sentence_once(sdt, suite):
    """A type with rules that the prompt needs has its rendered line, rules
    included, exactly once; a listed type the prompt does not need has none."""
    for task_id in (1, 9, 13):
        row = suite_row(suite, task_id)
        state = scene_for_row(row, sdt)
        relevant = relevant_types(row["task"], sdt)
        objects = filter_relevant_objects(state, sdt, relevant)
        prompt = build_plan_prompt(row["task"], state, sdt, relevant, load_examples())
        present = {t for t in relevant if state.of_types({t, t.removesuffix("Sliced")})}
        for type_name in present | {o.type_name for o in objects}:
            line = render_type_text(sdt.get(type_name))
            if "Rules:" in line:
                assert prompt.count(line) == int(type_name in present), line


def test_prompt_bottle_rules_present(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)
    task = "Set a chilled bottle of wine on the table."
    prompt = build_plan_prompt(task, state, sdt, relevant_types(task, sdt), [])
    line = render_type_text(sdt.get("WineBottle"))
    assert line in prompt.splitlines()
    assert "Pickupable" in line and "Rules:" not in line


def test_prompt_omits_examples_section_when_empty(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)
    task = suite_row(suite, 9)["task"]
    relevant = relevant_types(task, sdt)
    prompt = build_plan_prompt(task, state, sdt, relevant, [])
    assert "## Worked Examples" not in prompt
    with_examples = build_plan_prompt(task, state, sdt, relevant, load_examples())
    assert "## Worked Examples" in with_examples


def test_every_table1_task_gets_examples_of_its_own_category(suite):
    for row in suite["tasks"]:
        chosen = nearest_examples(row["task"])
        assert len(chosen) == EXAMPLES_SHOWN, row["id"]
        category = lexicon.category(row["task"])
        assert category is not None, row["id"]
        assert [lexicon.category(ex["task"]) for ex in chosen] == [category] * EXAMPLES_SHOWN


def test_wine_task_gets_the_cooling_examples_not_the_table_ones(suite):
    task = suite_row(suite, 9)["task"]
    assert task == "Set a chilled bottle of wine on the table."
    assert [ex["task"] for ex in nearest_examples(task)] == [
        "Chill a tomato and put it in the sink.",
        "Put a cold slice of lettuce in the garbage can.",
    ]
    # type overlap alone would pick the two examples that name the table
    by_overlap = sorted(
        load_examples(),
        key=lambda ex: -len(set(lexicon.type_mentions(ex["task"])) & set(lexicon.type_mentions(task))),
    )
    assert [lexicon.category(ex["task"]) for ex in by_overlap[:2]] == ["clean", "heat"]


def test_untreated_task_still_gets_examples():
    task = "Put the apple in the fridge."
    assert lexicon.category(task) is None
    chosen = nearest_examples(task)
    assert len(chosen) == EXAMPLES_SHOWN
    assert all(ex in load_examples() for ex in chosen)


def test_nearest_examples_is_deterministic(suite):
    for row in suite["tasks"]:
        assert nearest_examples(row["task"]) == nearest_examples(row["task"])


def test_plan_prompt_shows_the_nearest_examples_only(sdt, suite):
    row = suite_row(suite, 9)
    backend = ScriptedBackend([
        "Action-Triplets:[['PickupObject', 'WineBottle', 0]]\n"
        "GOAL:{type=WineBottle; flags=-; temp=Cold; in=-}"
    ])
    plan(row["task"], scene_for_row(row, sdt), sdt, relevant_types(row["task"], sdt), backend)
    (prompt,) = backend.prompts
    for ex in load_examples():
        assert (f"Task: {ex['task']}" in prompt) == (ex in nearest_examples(row["task"]))


def _phrase_positions_reference(task):
    """``lexicon._phrase_positions`` without its substring pre-check: every
    synonym's pattern runs on every text."""
    text = task.lower()
    hits, claimed = [], []
    for phrase, type_name in lexicon.SYNONYMS:
        for m in re.finditer(rf"\b{re.escape(phrase)}\b", text):
            if any(m.start() < end and start < m.end() for start, end in claimed):
                continue
            claimed.append((m.start(), m.end()))
            hits.append((m.start(), type_name))
    return sorted(hits)


def test_phrase_positions_match_the_plain_reference(suite):
    texts = [row["task"] for row in suite["tasks"]] + [ex["task"] for ex in load_examples()]
    texts += [
        "Put the bottle of wine bottle by the winebottle.",
        "Trash can trash, garbage can garbage; TABLE dining table.",
        "cupboard cups cup, mugs mug",
        "",
    ]
    for text in texts:
        assert lexicon._phrase_positions(text) == _phrase_positions_reference(text), text


def test_plan_reproduces_eight_step_wine_plan(sdt, suite):
    row = suite_row(suite, 9)
    state = scene_for_row(row, sdt)
    relevant = relevant_types(row["task"], sdt)
    triplets, goal = plan(row["task"], state, sdt, relevant, ScriptedOracle())
    rendered = [[t.action.value, t.arg1, t.arg2 or 0] for t in triplets]
    assert rendered == [
        ["PickupObject", "WineBottle", 0],
        ["OpenObject", "Fridge", 0],
        ["PutObject", "WineBottle", "Fridge"],
        ["CloseObject", "Fridge", 0],
        ["OpenObject", "Fridge", 0],
        ["PickupObject", "WineBottle", 0],
        ["CloseObject", "Fridge", 0],
        ["PutObject", "WineBottle", "DiningTable"],
    ]
    (clause,) = goal.clauses
    assert clause.object_type == "WineBottle"
    assert clause.required_temperature == "Cold"
    assert clause.receptacle_type == "DiningTable"


def test_plan_parses_prose_wrapped_reply(sdt, suite):
    row = suite_row(suite, 10)
    state = scene_for_row(row, sdt)
    backend = ScriptedBackend(
        [
            "Certainly! The robot should do this:\n"
            "Action-Triplets:[['PickupObject', 'Mug', 0], ['PutObject', 'Mug', 'CoffeeMachine']]\n"
            "GOAL:{type=Mug; flags=!isDirty; temp=-; in=CoffeeMachine}\nDone!"
        ]
    )
    triplets, goal = plan(row["task"], state, sdt, relevant_types(row["task"], sdt), backend)
    assert [t.action for t in triplets] == [ActionName.PICKUP, ActionName.PUT]
    assert backend.calls == 1


def test_plan_retries_then_fails_on_garbage(sdt, suite):
    row = suite_row(suite, 10)
    state = scene_for_row(row, sdt)
    backend = ScriptedBackend(["gibberish", "more gibberish"])
    with pytest.raises(PlanParseError):
        plan(row["task"], state, sdt, relevant_types(row["task"], sdt), backend)
    assert backend.calls == 2


def test_plan_retry_recovers_on_second_reply(sdt, suite):
    row = suite_row(suite, 10)
    state = scene_for_row(row, sdt)
    backend = ScriptedBackend(
        [
            "gibberish",
            "Action-Triplets:[['PickupObject', 'Mug', 0]]\n"
            "GOAL:{type=Mug; flags=-; temp=-; in=-}",
        ]
    )
    triplets, _ = plan(row["task"], state, sdt, relevant_types(row["task"], sdt), backend)
    assert len(triplets) == 1
    assert backend.calls == 2
