"""Prompt layout: rendering and splitting, what each prompt shows, and clutter
that moves no prompt or reply.

The table-1 traffic itself, every prompt's sha256 and every reply in each
ablation, is pinned by the golden-trace corpus that tests/test_golden.py checks
through the CLI; the pinned-traffic tests here hold ``run_task`` to the same
corpus one row, or one ablation's choice prompts, at a time.
"""

from __future__ import annotations

import itertools
import operator
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ABLATIONS, add_statues, golden_exchanges, pair_section_lines, record_choice_queries, run_row,
    scene_for_row, suite_row,
)

from sdtplan import planner, prompts, resolver
from sdtplan.backends import OracleConfig, Recorder, ScriptedOracle
from sdtplan.interpreter import HISTORY_TAIL, candidate_instances, resolve
from sdtplan.replanner import RunConfig, run_task
from sdtplan.sdt import FLAG_NAMES, TEMPERATURES, ActionName, AffordanceTag
from sdtplan.triplets import ActionTriplet
from sdtplan.world import ObjectInstance, WorldState, apply_perturbations, format_object_id, type_of_id


def test_sections_inverts_render():
    secs = [
        ("## One", ["  first line", "", "second line  "]),
        ("## Empty", []),
        ("## Last", ["- x", "- y"]),
    ]
    prompt = prompts.render("# HEADER", secs)
    assert prompt.startswith("# HEADER\n\n## One\n")
    assert prompts.sections(prompt) == {
        title: "\n".join(body).strip() for title, body in secs
    }


def test_render_leaves_out_none_bodies_and_first_title_wins():
    prompt = prompts.render("# H", [("## A", ["a"]), ("## B", None), ("## A", ["again"])])
    assert "## B" not in prompt
    assert prompts.sections(prompt) == {"## A": "a"}


# ---------------------------------------------------------------------------
# Relevance-bounded prompts


class PromptLog(ScriptedOracle):
    """The oracle, keeping every prompt it answers and, in ``replies``, its reply."""

    def __init__(self, config=None):
        super().__init__(config)
        self.prompts = []
        self.replies = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        self.replies.append(super().complete(prompt))
        return self.replies[-1]


def _recorded_run(sdt, suite, task_id, ablation="replan") -> tuple[PromptLog, Recorder]:
    """A table-1 row's run under ``ablation``: its prompts and replies, and its exchanges
    as a trace records them."""
    row = suite_row(suite, task_id)
    oracle = PromptLog(OracleConfig(**row.get("oracle_faults", {})))
    recorder = Recorder(oracle)
    run_task(row["task"], scene_for_row(row, sdt), sdt, recorder, ABLATIONS[ablation])
    return oracle, recorder


@pytest.mark.parametrize("task_id", range(1, 15))  # the table-1 rows
def test_oracle_traffic_is_pinned(sdt, suite, task_id):
    """A row's prompts and replies under the default settings, in order, are its committed trace's."""
    _, recorder = _recorded_run(sdt, suite, task_id)
    assert recorder.exchanges == golden_exchanges("replan", task_id)


@pytest.mark.parametrize("task_id", range(1, 15))
def test_oracle_replies_are_pinned(sdt, suite, task_id):
    """A row's replies under the default settings, in order, are its committed
    trace's; prompt wording may change without moving them."""
    oracle, _ = _recorded_run(sdt, suite, task_id)
    assert oracle.replies == [exchange["reply"] for exchange in golden_exchanges("replan", task_id)]


@pytest.mark.parametrize("task_id", range(1, 15))
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_clutter_never_moves_backend_traffic(sdt, suite, ablation, task_id):
    """1000 free-standing statues in a row's scene leave every prompt, reply and
    the report row as they are without them."""
    row = suite_row(suite, task_id)
    runs = []
    for statues in (0, 1000):
        state = scene_for_row(row, sdt)
        add_statues(state, statues, seed=task_id)
        oracle = PromptLog(OracleConfig(**row.get("oracle_faults", {})))
        report = run_task(row["task"], state, sdt, oracle, ABLATIONS[ablation])
        runs.append((oracle.prompts, oracle.replies, report.to_row()))
    assert runs[1] == runs[0]


def _prompts_among_statues(sdt, suite, task_id, injected=True):
    """The prompts a row's run sends with 300 free-standing statues added to its
    scene, after checking that they leave the row as it was."""
    row = suite_row(suite, task_id)
    faults = OracleConfig(**row.get("oracle_faults", {}))
    plain = run_task(
        row["task"], scene_for_row(row, sdt, injected), sdt, ScriptedOracle(faults), RunConfig()
    )
    state = scene_for_row(row, sdt, injected)
    add_statues(state, 300, seed=5)
    oracle = PromptLog(faults)
    report = run_task(row["task"], state, sdt, oracle, RunConfig())
    assert report.to_row() == plain.to_row()
    for prompt in oracle.prompts:
        if not prompt.startswith(prompts.PLAN_HEADER):
            assert "Statue" not in prompt, prompt.split("\n", 1)[0]
    return {p.split("\n", 1)[0] for p in oracle.prompts}


def test_statues_stay_out_of_prompts_of_a_task_that_does_not_name_them(sdt, suite):
    headers = _prompts_among_statues(sdt, suite, 14)
    assert {prompts.RECOVERY_HEADER, prompts.REPLAN_HEADER} <= headers


def test_statues_stay_out_of_choice_prompts_of_a_task_that_does_not_name_them(sdt, suite):
    # Row 3 without its perturbation: the fill puts statues in a drawer, where a
    # choice prompt lists them on purpose, as what the drawer holds.
    headers = _prompts_among_statues(sdt, suite, 3, injected=False)
    assert prompts.CHOICE_HEADER in headers


def test_choice_prompt_lists_each_candidate_receptacles_contents(sdt, suite):
    row = suite_row(suite, 3)
    state = scene_for_row(row, sdt, injected=False)
    drawers = candidate_instances(state, "Drawer")
    assert len(drawers) > 1
    stored = []
    for drawer_id in drawers:
        state.objects[drawer_id].flags["isOpen"] = True
        x, y, z = state.objects[drawer_id].position
        statue = ObjectInstance(
            format_object_id("Statue", (x, y, z + 0.01)), "Statue", (x, y, z + 0.01),
            {k: False for k in FLAG_NAMES}, parent_receptacle=drawer_id,
        )
        state.objects[statue.object_id] = statue
        stored.append(statue)
    free = add_statues(state, 50, seed=6)
    oracle = PromptLog()
    resolve(
        ActionTriplet(ActionName.PUT, "Knife", "Drawer"), state, row["task"], [], sdt, oracle,
    )
    (choice,) = oracle.prompts
    secs = prompts.sections(choice)
    listed = prompts.parse_state_lines(
        secs[prompts.SEC_CANDIDATES] + "\n" + secs[prompts.SEC_STATE]
    )
    for statue in stored:
        assert (statue.object_id, "Statue", statue.parent_receptacle) in listed
    assert not set(free) & {object_id for object_id, _, _ in listed}
    weighed = set(drawers) | {s.object_id for s in stored} | {
        state.objects[d].parent_receptacle for d in drawers
    }
    assert {object_id for object_id, _, _ in listed} == weighed - {None}


def _choice_queries(sdt, suite, monkeypatch, task_id):
    """(prompt, the history's last ``HISTORY_TAIL`` entries) of every choice
    query row ``task_id`` builds under the resolve ablation."""
    queries = record_choice_queries(monkeypatch)
    run_row(suite_row(suite, task_id), sdt, "resolve")
    return list(queries.items())


def test_a_choice_prompt_recalls_only_the_steps_on_the_objects_it_shows(sdt, suite, monkeypatch):
    _, (prompt, tail) = _choice_queries(sdt, suite, monkeypatch, 3)
    secs = prompts.sections(prompt)
    assert secs[prompts.SEC_STEP].startswith("Grounding: ['CloseObject', 'Drawer', 0]")
    # the knife now lies in the second drawer, and the put failed on the first
    assert secs[prompts.SEC_HISTORY].splitlines() == [
        "- (PickupObject,Knife|+00.95|+00.97|+00.35) -> Success",
        "- (OpenObject,Drawer|+00.40|+00.82|-00.50) -> Success",
        '- (PutObject,Drawer|+00.40|+00.82|-00.50) -> Error: "No valid positions to place '
        'object found."',
    ]
    toggles = [e for e in tail if e.triplet.action in (ActionName.TOGGLE_ON, ActionName.TOGGLE_OFF)]
    assert toggles and all(e.triplet.arg1 == "Faucet" for e in toggles)
    assert "Faucet" not in prompt


@pytest.mark.parametrize("task_id, step", [
    (3, "Grounding: ['OpenObject', 'Drawer', 0]"),
    (4, "Grounding: ['PutObject', 'AppleSliced', 'CounterTop']"),
])
def test_a_choice_prompt_with_no_recent_step_on_its_objects_has_no_history_section(
    sdt, suite, monkeypatch, task_id, step
):
    (prompt, tail), *_ = _choice_queries(sdt, suite, monkeypatch, task_id)
    assert prompts.sections(prompt)[prompts.SEC_STEP].startswith(step)
    assert len(tail) == HISTORY_TAIL
    assert prompts.SEC_HISTORY not in prompt


# ---------------------------------------------------------------------------
# Recovery prompts


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_choice_prompts_are_pinned(sdt, suite, ablation):
    """Every choice exchange the table-1 rows send under ``ablation`` is the committed
    trace's exchange at the same place."""
    sent, stored = {}, {}
    for row in suite["tasks"]:
        oracle, recorder = _recorded_run(sdt, suite, row["id"], ablation)
        golden = golden_exchanges(ablation, row["id"])
        for index, prompt in enumerate(oracle.prompts):
            if prompt.startswith(prompts.CHOICE_HEADER):
                sent[row["id"], index] = recorder.exchanges[index]
                stored[row["id"], index] = golden[index] if index < len(golden) else None
    assert sent
    assert sent == stored


def _recovery_queries(sdt, suite, monkeypatch, case):
    """(pair map, prompt, history so far) of every recovery prompt the
    table-1 rows send: under the ``case`` ablation, or among 300 statues
    under the default settings when ``case`` is "padded"."""
    queries = []
    build = resolver.build_failure_query

    def recording_build(task, history, pairs):
        prompt = build(task, history, pairs)
        queries.append((pairs, prompt, list(history)))
        return prompt

    monkeypatch.setattr(resolver, "build_failure_query", recording_build)
    for row in suite["tasks"]:
        state = scene_for_row(row, sdt)
        if case == "padded":
            add_statues(state, 300, seed=5)
        oracle = ScriptedOracle(OracleConfig(**row.get("oracle_faults", {})))
        run_task(row["task"], state, sdt, oracle, ABLATIONS["replan" if case == "padded" else case])
    assert len(queries) >= 14  # the 12 failures of table 1 take 14 iterations
    return queries


@pytest.mark.parametrize("case", ["resolve", "replan", "padded"])
def test_recovery_prompts_name_each_target_once_per_run_of_its_pairs(sdt, suite, monkeypatch, case):
    for pairs, prompt, _ in _recovery_queries(sdt, suite, monkeypatch, case):
        lines = pair_section_lines(prompts.sections(prompt)[prompts.SEC_PAIRS], pairs)
        assert len(lines) == len(list(itertools.groupby(t for _, t in pairs)))


@pytest.mark.parametrize("case", ["resolve", "replan", "padded"])
def test_recovery_prompts_state_the_failed_step_once(sdt, suite, monkeypatch, case):
    for _, prompt, history in _recovery_queries(sdt, suite, monkeypatch, case):
        failed = history[-1]
        earlier = prompts.render_history_lines(history[:-1][-HISTORY_TAIL:])
        shown = prompts.sections(prompt).get(prompts.SEC_HISTORY)
        assert shown == ("\n".join(earlier) if earlier else None)
        assert prompts.render_history_lines([failed])[0] not in (shown or "")


@pytest.mark.parametrize(
    "task_id, moved",
    [
        pytest.param(1, ["hide:ButterKnife:Fridge", "hide:Potato:Microwave"], id="knife-and-potato"),
        pytest.param(7, ["hide:Tomato:Microwave"], id="tomato"),
        pytest.param(9, ["hide:WineBottle:Drawer"], id="wine-bottle"),
    ],
)
def test_a_hidden_object_never_reaches_a_recovery_prompt(sdt, suite, task_id, moved):
    """A row's hidden objects moved into other closed containers of its scene
    leave the first recovery prompt byte for byte: the pair map and its pose
    anchor read what the agent sees, not where the objects are."""
    row = suite_row(suite, task_id)

    def first_recovery_prompt(inject):
        state = apply_perturbations(scene_for_row(row, sdt, injected=False), inject, sdt)
        oracle = PromptLog()
        run_task(row["task"], state, sdt, oracle, RunConfig())
        return next(p for p in oracle.prompts if p.startswith(prompts.RECOVERY_HEADER))

    assert first_recovery_prompt(moved) == first_recovery_prompt(row["inject"])


# ---------------------------------------------------------------------------
# Knowledge and state lines


class ShownLog(ScriptedOracle):
    """The oracle, keeping each prompt with the knowledge types and the state
    records rendered while it was built."""

    def __init__(self, config=None):
        super().__init__(config)
        self.sent, self.types, self.records = [], [], []

    def complete(self, prompt):
        self.sent.append((prompt, self.types, self.records))
        self.types, self.records = [], []
        return super().complete(prompt)


def _shown_per_prompt(sdt, suite, monkeypatch, case):
    """(prompt, knowledge types, state records) of every prompt the 14 table-1
    rows send under the ``case`` ablation, or among 300 statues under the
    default settings when ``case`` is "padded"."""
    oracle = ShownLog()
    render_type, render_line = planner.render_type_text, prompts.render_state_line

    def recording_type(entry):
        oracle.types.append(entry.type_name)
        return render_type(entry)

    def recording_line(state, obj, *bullet):
        oracle.records.append((obj.object_id, obj.type_name, obj.parent_receptacle))
        return render_line(state, obj, *bullet)

    monkeypatch.setattr(planner, "render_type_text", recording_type)
    monkeypatch.setattr(prompts, "render_state_line", recording_line)
    for row in suite["tasks"]:
        state = scene_for_row(row, sdt)
        if case == "padded":
            add_statues(state, 300, seed=5)
        oracle.config = OracleConfig(**row.get("oracle_faults", {}))
        run_task(row["task"], state, sdt, oracle, ABLATIONS["replan" if case == "padded" else case])
    return oracle.sent


#: Prompt header -> the sections that carry its state lines, in prompt order.
_STATE_SECTIONS = {
    prompts.PLAN_HEADER: (prompts.SEC_OBJECTS,),
    prompts.CHOICE_HEADER: (prompts.SEC_CANDIDATES, prompts.SEC_STATE),
    prompts.REPLAN_HEADER: (prompts.SEC_STATE,),
}


@pytest.mark.parametrize("case", ["plan", "resolve", "replan", "padded"])
def test_knowledge_section_gives_each_type_one_line(sdt, suite, monkeypatch, case):
    plans = [
        (prompt, types) for prompt, types, _ in _shown_per_prompt(sdt, suite, monkeypatch, case)
        if prompt.startswith(prompts.PLAN_HEADER)
    ]
    assert len(plans) >= 14
    for prompt, types in plans:
        knowledge = prompts.sections(prompt)[prompts.SEC_KNOWLEDGE]
        lines = knowledge.splitlines()
        assert all(re.match(r"^- \S+ \[[A-Za-z, ]*\]", line) for line in lines), lines
        assert [line.split()[1] for line in lines] == types
        assert ScriptedOracle._openable_types(knowledge) == {
            t for t in types if sdt.get(t).has(AffordanceTag.OPENABLE)
        }


@pytest.mark.parametrize("case", ["plan", "resolve", "replan", "padded"])
def test_state_lines_parse_back_and_leave_out_the_type_their_id_names(
    sdt, suite, monkeypatch, case
):
    checked = set()
    for prompt, _, records in _shown_per_prompt(sdt, suite, monkeypatch, case):
        header = prompt.split("\n", 1)[0]
        if header not in _STATE_SECTIONS:
            continue
        secs = prompts.sections(prompt)
        body = "\n".join(secs.get(title, "") for title in _STATE_SECTIONS[header])
        assert prompts.parse_state_lines(body) == records
        assert all(type_of_id(object_id) == type_name for object_id, type_name, _ in records)
        assert "type=" not in body
        checked.add(header)
    replans = case in ("replan", "padded")
    assert checked == set(_STATE_SECTIONS) - (set() if replans else {prompts.REPLAN_HEADER})


def _words(first: str, rest: str):
    return st.builds(operator.add, st.sampled_from(first), st.text(rest, max_size=8))


_TYPE_NAMES = _words(string.ascii_uppercase, string.ascii_letters + string.digits + "_")
_FREE_IDS = _words(string.ascii_lowercase, string.ascii_lowercase + string.digits + "-_.")
_POSITIONS = st.tuples(*[st.floats(-50, 50, allow_nan=False)] * 3)


@given(
    kind=st.sampled_from(["loader", "slice", "free", "other type"]),
    type_name=_TYPE_NAMES,
    position=_POSITIONS,
    agent=_POSITIONS,
    flags=st.dictionaries(st.sampled_from(FLAG_NAMES), st.booleans()),
    temperature=st.sampled_from(TEMPERATURES),
    parent=st.none() | _FREE_IDS | st.builds(format_object_id, _TYPE_NAMES, _POSITIONS),
    free_id=_FREE_IDS,
)
@settings(max_examples=200, deadline=None)
def test_state_line_round_trips_and_carries_only_fields_off_their_default(
    kind, type_name, position, agent, flags, temperature, parent, free_id
):
    # ids that name their type, as loading and slicing form them, and ids that do not
    object_id = {
        "loader": format_object_id(type_name, position),
        "slice": format_object_id(type_name, position) + f"|{type_name}Sliced-3",
        "free": free_id,
        "other type": format_object_id(type_name + "X", position),
    }[kind]
    if kind == "slice":
        type_name += "Sliced"
    obj = ObjectInstance(object_id, type_name, position, flags, temperature, parent)
    state = WorldState(objects={object_id: obj}, agent_position=agent)
    for bullet in ("-", "  3."):
        line = prompts.render_state_line(state, obj, bullet)
        assert prompts.parse_state_lines(line) == [(object_id, type_name, parent)]
        fields = line[line.index(" (") + 2:-1].split("; ")
        assert [field.split("=", 1)[0] for field in fields] == [
            name for name, off_default in (
                ("type", kind in ("free", "other type")),
                ("flags", any(flags.values())),
                ("temp", temperature != "RoomTemp"),
                ("in", parent is not None),
                ("dist", True),
            ) if off_default
        ]


@pytest.mark.parametrize("case", ["resolve", "replan", "padded"])
def test_recovery_output_format_names_no_object(sdt, suite, monkeypatch, case):
    for _, prompt, _ in _recovery_queries(sdt, suite, monkeypatch, case):
        assert "|" not in prompts.sections(prompt)[prompts.SEC_OUTPUT]
