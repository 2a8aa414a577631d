"""Prompt layout: rendering and splitting, and the pinned oracle traffic."""

from __future__ import annotations

import hashlib
import itertools
import operator
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from conftest import add_statues, pair_section_lines, scene_for_row, suite_row

from sdtplan import planner, prompts, replanner, resolver
from sdtplan.backends import OracleConfig, ScriptedOracle
from sdtplan.interpreter import HISTORY_TAIL, candidate_instances, resolve
from sdtplan.replanner import RunConfig, run_task
from sdtplan.sdt import FLAG_NAMES, TEMPERATURES, ActionName, AffordanceTag
from sdtplan.triplets import ActionTriplet
from sdtplan.world import ObjectInstance, WorldState, format_object_id, type_of_id


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


class RecordingOracle(ScriptedOracle):
    """The oracle, counting its calls and hashing, in order, every (prompt, reply)
    pair into ``digest`` and every reply alone into ``reply_digest``."""

    def __init__(self, config: OracleConfig):
        super().__init__(config)
        self.calls = 0
        self.digest = hashlib.sha256()
        self.reply_digest = hashlib.sha256()

    def complete(self, prompt: str) -> str:
        reply = super().complete(prompt)
        self.calls += 1
        for text in (prompt, reply):
            self.digest.update(text.encode("utf-8") + b"\0")
        self.reply_digest.update(reply.encode("utf-8") + b"\0")
        return reply


#: Table-1 row id -> (oracle calls, sha256 over its prompts and replies), replan mode.
TRAFFIC = {
    1: (3, "cc2dec85617db6a4b1e6305a2ab07fc1aa2b66f71ba1ad770da7d47bf2e81d46"),
    2: (3, "4a25e8c5a9abf8e1b5e88fa52143ebf9c1a3a38cd413f526964f3b1ce3329073"),
    3: (4, "5c4c5647c84fc1530555acbb5d9caa2b75e0e04541dff35a300d72b6ef7e043c"),
    4: (3, "5372c8817dd747df066e32fb1795124b3f2f377f71e28ac5adcaefb4ddf85b27"),
    5: (2, "3b47b2ed208df551ff2fb2a47972dc9ed343b92fc5627335b9cbff8ae93f7917"),
    6: (4, "0a0c89fc4faaba03bd765fd30973710c0c1a1a4ff6426c4dab53570efe248db2"),
    7: (2, "b13a7f85eb36b4fa37f0c60f6bc76882781ddff95f2d8737d3a2d7fd12b03751"),
    8: (4, "75f653df4e5f7edf0b2e727afb95f25f695bf1945569d5b811e3d4438d802742"),
    9: (5, "f064a95ae333e77398cdd25b17a48daed2d72b8fe49e2ff238845a409aa35ee6"),
    10: (1, "9619b015b5bd07dad160c908f90b594165f45dd6b78fe9826a3b74587876e703"),
    11: (1, "de43afe4e9c4e270383f35a146602eb8490fe1a0efba8bb365361929e0af2ff2"),
    12: (3, "5882a267e78395dcf4b34af493b8bedad655d466064a9153d7661c950f733e80"),
    13: (1, "5e0bf75d32da0cb20a0deff412e826233fc0bc6bf67aec5f0f9c9aacef17c282"),
    14: (4, "6768243e92421f32f5ddf0b1ac40da93287041cba458ecfb64fe652849fcaf3f"),
}


#: Table-1 row id -> (oracle calls, sha256 over its replies alone), replan mode.
#: Prompt wording may change without moving these; a moved reply moves them.
REPLIES = {
    1: (3, "469e78a3ab140c0b78a6737901172d698c31894b8b43ad9fec275c9fcdfd39fd"),
    2: (3, "a81478df27275b9d8164c98413f166011fb71921cac909ecf842050c93e85154"),
    3: (4, "aa86ef66cb4901d39dd20e34128366bab04062574fca9ade1849c762bfd1d163"),
    4: (3, "d3ea173cd5d5170da94a37d83db9b74c8566c8aed4327a8f91ce323da3557af2"),
    5: (2, "e57cededf5e9a7438a55e026f5e82c22fd52904552c88d0dc911dcfd24f3e1db"),
    6: (4, "8d211c7ea0c96e18440ed8d06777558cad28325cc5b809f8fafcefecb319acca"),
    7: (2, "adb9c9017d4e3e78186cee80dab8386b3dd96aa794a1e5f34925be5d65f897a1"),
    8: (4, "6105d22b711484a7fcfc14b6adb5bf7358547686056b765963a34ee6ac5f79b2"),
    9: (5, "d6ce753c893b1a075927c6cc4e437d7d810fae6210484be5996641b610e85c3e"),
    10: (1, "4a6a21145d8ff826644a2afaf5665f62aae44d5e2f68170cd674032e6fce4e29"),
    11: (1, "e0d16625e96ca31479e45f831d71852fd92d9725365cc47b07d66e6af4e1c919"),
    12: (3, "e88001057407cd71000ae5711a00d1c5cf0897ea7a6f1e9904890d7b88bdd925"),
    13: (1, "89f1837f89181da4b3c294e22114fc1f852541b196693c1e81fdb924d40df5f9"),
    14: (4, "61ce5cb5924d543466533237e4ecbce10b15356b0eaee8126e5018b95c2d9404"),
}


def _recorded_run(sdt, suite, task_id) -> RecordingOracle:
    row = suite_row(suite, task_id)
    oracle = RecordingOracle(OracleConfig(**row.get("oracle_faults", {})))
    run_task(row["task"], scene_for_row(row, sdt), sdt, oracle, RunConfig("replan"))
    return oracle


@pytest.mark.parametrize("task_id", sorted(TRAFFIC))
def test_oracle_traffic_is_pinned(sdt, suite, task_id):
    oracle = _recorded_run(sdt, suite, task_id)
    assert (oracle.calls, oracle.digest.hexdigest()) == TRAFFIC[task_id]


@pytest.mark.parametrize("task_id", sorted(TRAFFIC))
def test_oracle_replies_are_pinned(sdt, suite, task_id):
    oracle = _recorded_run(sdt, suite, task_id)
    assert (oracle.calls, oracle.reply_digest.hexdigest()) == REPLIES[task_id]


# ---------------------------------------------------------------------------
# Relevance-bounded prompts


class PromptLog(ScriptedOracle):
    """The oracle, keeping every prompt it answers."""

    def __init__(self, config=None):
        super().__init__(config)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return super().complete(prompt)


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


# ---------------------------------------------------------------------------
# Recovery prompts


#: Mode -> (choice prompts, sha256 over them in order) across the 14 table-1 rows.
CHOICE_PROMPTS = {
    "plan": (3, "4570b2096d37651fe4a0b63a2771bab992e638947ced39d40f87c6eb207f7eca"),
    "resolve": (6, "0db813da50ef6661259ce4e9c944d5558b0a0f4ad271ef0951fd5244e07d12e1"),
    "replan": (6, "0db813da50ef6661259ce4e9c944d5558b0a0f4ad271ef0951fd5244e07d12e1"),
}


@pytest.mark.parametrize("mode", sorted(CHOICE_PROMPTS))
def test_choice_prompts_are_pinned(sdt, suite, mode):
    oracle = PromptLog()
    for row in suite["tasks"]:
        oracle.config = OracleConfig(**row.get("oracle_faults", {}))
        run_task(row["task"], scene_for_row(row, sdt), sdt, oracle, RunConfig(mode))
    digest = hashlib.sha256()
    choices = [p for p in oracle.prompts if p.startswith(prompts.CHOICE_HEADER)]
    for prompt in choices:
        digest.update(prompt.encode("utf-8") + b"\0")
    assert (len(choices), digest.hexdigest()) == CHOICE_PROMPTS[mode]


def _recovery_queries(sdt, suite, monkeypatch, case):
    """(failure context, pair map, prompt, history so far) of every recovery
    prompt the table-1 rows send: in ``case`` mode, or among 300 statues in
    replan mode when ``case`` is "padded"."""
    queries, histories = [], []
    execute, build = replanner.execute_plan, resolver.build_failure_query

    def recording_execute(*args, **kwargs):
        histories.append(kwargs["history"])
        return execute(*args, **kwargs)

    def recording_build(ctx, pairs, tried):
        prompt = build(ctx, pairs, tried)
        queries.append((ctx, pairs, prompt, list(histories[-1])))
        return prompt

    monkeypatch.setattr(replanner, "execute_plan", recording_execute)
    monkeypatch.setattr(resolver, "build_failure_query", recording_build)
    for row in suite["tasks"]:
        state = scene_for_row(row, sdt)
        if case == "padded":
            add_statues(state, 300, seed=5)
        oracle = ScriptedOracle(OracleConfig(**row.get("oracle_faults", {})))
        run_task(row["task"], state, sdt, oracle, RunConfig("replan" if case == "padded" else case))
    assert len(queries) >= 16
    return queries


@pytest.mark.parametrize("case", ["resolve", "replan", "padded"])
def test_recovery_prompts_name_each_target_once_per_run_of_its_pairs(sdt, suite, monkeypatch, case):
    for _, pairs, prompt, _ in _recovery_queries(sdt, suite, monkeypatch, case):
        lines = pair_section_lines(prompts.sections(prompt)[prompts.SEC_PAIRS], pairs)
        assert len(lines) == len(list(itertools.groupby(t for _, t in pairs)))


@pytest.mark.parametrize("case", ["resolve", "replan", "padded"])
def test_recovery_prompts_state_the_failed_step_once(sdt, suite, monkeypatch, case):
    for ctx, _, prompt, history in _recovery_queries(sdt, suite, monkeypatch, case):
        failed = history[-1]
        assert (failed.triplet, failed.outcome) == (ctx.failed_triplet, ctx.outcome)
        earlier = prompts.render_history_lines(history[:-1][-HISTORY_TAIL:])
        shown = prompts.sections(prompt).get(prompts.SEC_HISTORY)
        assert shown == ("\n".join(earlier) if earlier else None)
        assert prompts.render_history_lines([failed])[0] not in (shown or "")


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
    rows send in ``case`` mode, or among 300 statues in replan mode when
    ``case`` is "padded"."""
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
        run_task(row["task"], state, sdt, oracle, RunConfig("replan" if case == "padded" else case))
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
    for _, _, prompt, _ in _recovery_queries(sdt, suite, monkeypatch, case):
        assert "|" not in prompts.sections(prompt)[prompts.SEC_OUTPUT]
