"""Prompt layout: rendering and splitting, and the pinned oracle traffic."""

from __future__ import annotations

import hashlib

import pytest

from conftest import add_statues, scene_for_row, suite_row

from sdtplan import prompts
from sdtplan.backends import OracleConfig, ScriptedOracle
from sdtplan.interpreter import candidate_instances, resolve
from sdtplan.planner import relevant_types
from sdtplan.replanner import RunConfig, run_task
from sdtplan.sdt import FLAG_NAMES, ActionName
from sdtplan.triplets import ActionTriplet
from sdtplan.world import ObjectInstance, format_object_id


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
    """The oracle, counting its calls and hashing every (prompt, reply) pair in order."""

    def __init__(self, config: OracleConfig):
        super().__init__(config)
        self.calls = 0
        self.digest = hashlib.sha256()

    def complete(self, prompt: str) -> str:
        reply = super().complete(prompt)
        self.calls += 1
        for text in (prompt, reply):
            self.digest.update(text.encode("utf-8") + b"\0")
        return reply


#: Table-1 row id -> (oracle calls, sha256 over its prompts and replies), replan mode.
TRAFFIC = {
    1: (5, "c49ee0135b505a0351695044671d40764e9356807cfad37377aa4166ccba852d"),
    2: (3, "1e59a4f794f1ebe312431b92613a38bb63902be81576516f3fafb914cad1d649"),
    3: (5, "c9884477b28f8dc5d21d03dd84435370f35eabcf6400a46f739a06fdfd44e603"),
    4: (5, "e337ebb0f5d6ee99b91922865029442d143092e8481bc1c585e75651134ce81e"),
    5: (3, "d2662d2ecdeda6a964e328ee6866997f567c462ac9cf62589ec09b8cd94f5291"),
    6: (6, "4db0336cc8af691367e4db4eb4748f0d0ea9bb1a6257a5b1955adbbbe2cf8e72"),
    7: (4, "692d26ef4997ebe03839affaa7b2e18fc41ce378c9d8fea371b715bdbec828d9"),
    8: (4, "f9a3ccfde78d437567935d005ea0abb9ac54f373cc29d12e2f4cd946e32e9f7f"),
    9: (5, "f9a129f121c757c309e19a35b774784b055408ddc27ea9f1b24394cff6bc9748"),
    10: (1, "96a651c7142d8dad4e4a3d4af3deaf8f1a1714996a9b1e4756cd2f415414c8f0"),
    11: (1, "1a9a256e8b04ee639e0fe9d9855e5fda4de0056ac4338fe2fc9804f9472328a5"),
    12: (3, "6be2a5d0b14b1692f96d076132eae66d38f0d3b9be41e9497c210e32f927c973"),
    13: (3, "b2ef01f4b8a3079da145882dd61a31a41f578e4f4fe3470b82a76b7a20f42f4e"),
    14: (5, "3773914e698e7aafe352223ec5885a32c98abcb20887c285602e2bc4199c4a86"),
}


@pytest.mark.parametrize("task_id", sorted(TRAFFIC))
def test_oracle_traffic_is_pinned(sdt, suite, task_id):
    row = suite_row(suite, task_id)
    oracle = RecordingOracle(OracleConfig(**row.get("oracle_faults", {})))
    run_task(row["task"], scene_for_row(row, sdt), sdt, oracle, RunConfig("replan"))
    assert (oracle.calls, oracle.digest.hexdigest()) == TRAFFIC[task_id]


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


def test_statues_stay_out_of_prompts_of_a_task_that_does_not_name_them(sdt, suite):
    row = suite_row(suite, 14)  # its run asks choice, recovery and replan queries
    faults = OracleConfig(**row.get("oracle_faults", {}))
    plain = run_task(row["task"], scene_for_row(row, sdt), sdt, ScriptedOracle(faults), RunConfig())
    state = scene_for_row(row, sdt)
    add_statues(state, 300, seed=5)
    oracle = PromptLog(faults)
    report = run_task(row["task"], state, sdt, oracle, RunConfig())
    assert report.to_row() == plain.to_row()
    headers = {p.split("\n", 1)[0] for p in oracle.prompts}
    assert {prompts.CHOICE_HEADER, prompts.RECOVERY_HEADER, prompts.REPLAN_HEADER} <= headers
    for prompt in oracle.prompts:
        if not prompt.startswith(prompts.PLAN_HEADER):
            assert "Statue" not in prompt, prompt.split("\n", 1)[0]


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
        ActionTriplet(ActionName.PUT, "Knife", "Drawer"), state, row["task"], sdt,
        relevant_types(row["task"], sdt), [], oracle,
    )
    (choice,) = oracle.prompts
    listed = prompts.parse_state_lines(prompts.sections(choice)[prompts.SEC_STATE])
    for statue in stored:
        assert (statue.object_id, "Statue", statue.parent_receptacle) in listed
    assert not set(free) & {object_id for object_id, _, _ in listed}
