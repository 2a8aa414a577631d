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
    1: (5, "e7a60c0e6ae06ab84755925ed6302bafaa981149fdbcfd745a389349034a2b45"),
    2: (3, "0fc5bbdea15e48bf2bfb8417cce22b5cf419d2f7e8b185e0781016088c7bf56b"),
    3: (5, "79d4f526bcd0c3143ec5d01bf498e4a820ac772864fe7678c4774038ee7db4f8"),
    4: (5, "19982bb1f17664e0e6780975e418f390462b1e397638cfdd9224c44f3b52ab89"),
    5: (3, "f5f54aa2dd9e1b451776f77aa6d8f673e9c05889ff0c36f1f05687dd549a3a95"),
    6: (6, "b635f8badc23a7ec8ecfe733f332d14c6c8b1bac26e92754ba19fd94e44cdef9"),
    7: (4, "425b696f65b354c37579718bc88478ef6840ea2f676d2476baf3d9860f37caf0"),
    8: (4, "a5ac1f3d25bc0e0e9b75cccd6ab59082052b573c41a311202fb8a8a7ccf87630"),
    9: (5, "4e09944b0840c5d2593efb38e46d3b2958960139ef6ca6818b625e410a2febcf"),
    10: (1, "af857c12ad4a96089c2a55bd7e318c44045c0d98df1ccec7ffcf17faa4d2f0cd"),
    11: (1, "6081d6665d8f07d9f050617c5a4fe6d05eadff5d21996da155762bf8fdd673fa"),
    12: (3, "7a93af7429bb68e754c4367003dbb5842c4a6da11e68cd32ea434f294782eed7"),
    13: (3, "4017aeaf6c1bd55ecab143a861d6906941b4761b34338fd1054e8e7bc13dcb50"),
    14: (5, "89f279b41250f21192b2916024b00ff445f378a9613dcd9c52898d5356fa8c79"),
}


#: Table-1 row id -> (oracle calls, sha256 over its replies alone), replan mode.
#: Prompt wording may change without moving these; a moved reply moves them.
REPLIES = {
    1: (5, "9f1b35d8520b6b0a3c0668adddd6ca79549241cf790d43bf0ef128517967a384"),
    2: (3, "a81478df27275b9d8164c98413f166011fb71921cac909ecf842050c93e85154"),
    3: (5, "e5cc16abbcf936d4f61447206136b00c9bfef16cdd90c30562cd4a45ad75c4d6"),
    4: (5, "49096558481807229c1053c3c1ee9197565aa646898913c6846f8fd28d581e66"),
    5: (3, "b35c412643a253606c5d1bcfa020fbe70b61cb790a627e0c1f839d4ba1143932"),
    6: (6, "91dbd9cf7d44ca435d1a7c11a6a01479af526002a85da6725624af70b26cb73e"),
    7: (4, "163d03065327ede820ab5dc9c18b202e767997d279510ebcdec497bc58c1439d"),
    8: (4, "6105d22b711484a7fcfc14b6adb5bf7358547686056b765963a34ee6ac5f79b2"),
    9: (5, "d6ce753c893b1a075927c6cc4e437d7d810fae6210484be5996641b610e85c3e"),
    10: (1, "4a6a21145d8ff826644a2afaf5665f62aae44d5e2f68170cd674032e6fce4e29"),
    11: (1, "e0d16625e96ca31479e45f831d71852fd92d9725365cc47b07d66e6af4e1c919"),
    12: (3, "e88001057407cd71000ae5711a00d1c5cf0897ea7a6f1e9904890d7b88bdd925"),
    13: (3, "c496d9594af3c681f089787e91ec9e520277120e9e923626e4fa3533f4c9be92"),
    14: (5, "32b06a1366f9360c592845ff0784bab956c1b4bda35183320c8805b9daa8d747"),
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
