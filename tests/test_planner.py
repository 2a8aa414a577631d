"""Relevance filter, plan prompt assembly, plan queries."""

from __future__ import annotations

import re

import pytest

from conftest import ScriptedBackend, scene_for_row, suite_row

from sdtplan import lexicon
from sdtplan.backends import ScriptedOracle
from sdtplan.errors import PlanParseError
from sdtplan.planner import (
    EXAMPLES_SHOWN,
    build_plan_prompt,
    filter_relevant_objects,
    load_examples,
    nearest_examples,
    plan,
    relevant_types,
)
from sdtplan.sdt import ActionName


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


def test_relevant_types_closed_under_implication(sdt):
    kept = relevant_types("Place a cooked potato slice in the sink", sdt)
    assert {"Potato", "PotatoSliced", "Sink"} <= kept
    # sliceable food implies knives, heatable food implies the microwave
    assert {"Knife", "ButterKnife", "Microwave"} <= kept
    again = relevant_types("Place a cooked potato slice in the sink", sdt)
    assert kept == again


def test_prompt_deterministic(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)
    task = suite_row(suite, 9)["task"]
    relevant, examples = relevant_types(task, sdt), load_examples()
    assert build_plan_prompt(task, state, sdt, relevant, examples) == build_plan_prompt(
        task, state, sdt, relevant, examples
    )


def test_prompt_contains_each_rule_sentence_once(sdt, suite):
    for task_id in (1, 9, 13):
        row = suite_row(suite, task_id)
        state = scene_for_row(row, sdt)
        relevant = relevant_types(row["task"], sdt)
        objects = filter_relevant_objects(state, sdt, relevant)
        prompt = build_plan_prompt(row["task"], state, sdt, relevant, load_examples())
        block_types = relevant | {o.type_name for o in objects}
        for type_name in block_types:
            for rule in sdt.get(type_name).rules:
                assert prompt.count(rule.text) == 1, (type_name, rule.text)


def test_prompt_bottle_rules_present(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)
    task = "Set a chilled bottle of wine on the table."
    prompt = build_plan_prompt(task, state, sdt, relevant_types(task, sdt), [])
    assert "Pickupable" in prompt
    assert "Will fill up with water when placed under a running faucet." in prompt


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
