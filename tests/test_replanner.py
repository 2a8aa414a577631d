"""Replan prompt, corrective triplets, and the whole-task loop."""

from __future__ import annotations

import argparse

import pytest

from conftest import ScriptedBackend, run_row, scene_for_row, suite_row

from sdtplan import cli, prompts
from sdtplan.cli import default_suite_path
from sdtplan.backends import OracleConfig, ScriptedOracle
from sdtplan.errors import BackendError, PlanParseError
from sdtplan.interpreter import HISTORY_TAIL, HistoryEntry, execute_plan
from sdtplan.planner import relevant_types
from sdtplan.replanner import RunConfig, build_replan_prompt, replan, run_task
from sdtplan.sdt import ActionName
from sdtplan.triplets import ActionTriplet, goal_satisfied, parse_goal
from sdtplan.world import ActionOutcome, ConcreteAction, ObjectInstance, WorldState


def test_replan_prompt_names_unmet_clause_and_is_deterministic(sdt, suite, all_types):
    state = scene_for_row(suite_row(suite, 2), sdt)
    unmet = ["UNMET type=PotatoSliced need=exists"]
    prompt = build_replan_prompt("task text", [], state, sdt, all_types, unmet)
    assert "UNMET type=PotatoSliced need=exists" in prompt
    assert prompt == build_replan_prompt(
        "task text", [], state, sdt, all_types, unmet
    )


def test_state_line_format_is_pinned(sdt, all_types):
    fridge_id = "Fridge|-01.00|+00.90|+00.00"
    apple_id = "Apple|+00.13|+00.90|+00.00"
    state = WorldState(
        objects={
            fridge_id: ObjectInstance(
                fridge_id, "Fridge", (-1.0, 0.9, 0.0), {"isOpen": True}, capacity=6
            ),
            apple_id: ObjectInstance(
                apple_id,
                "Apple",
                (0.125049, 0.9, 0.0),  # dist 0.125049: 0.12 after rounding to 4 places
                {"isCooked": True, "isDirty": False, "isSliced": True},
                temperature="Hot",
                parent_receptacle=fridge_id,
            ),
            # built in code with a free-form id, which names no type
            "my-mug": ObjectInstance("my-mug", "Mug", (0.5, 0.9, 0.0), {}),
        },
        agent_position=(0.0, 0.9, 0.0),
    )
    prompt = build_replan_prompt("task", [], state, sdt, all_types, [])
    body = prompts.sections(prompt)[prompts.SEC_STATE]
    assert body.splitlines() == [
        "Fields left out: flags=-; temp=RoomTemp; in=-",
        "- Apple|+00.13|+00.90|+00.00 (flags=isCooked,isSliced; "
        "temp=Hot; in=Fridge|-01.00|+00.90|+00.00; dist=0.12)",
        "- Fridge|-01.00|+00.90|+00.00 (flags=isOpen; dist=1.00)",
        "- my-mug (type=Mug; dist=0.50)",
    ]
    assert prompts.parse_state_lines(body) == [
        (apple_id, "Apple", fridge_id), (fridge_id, "Fridge", None), ("my-mug", "Mug", None),
    ]


def test_replan_prompt_lists_actions_newest_last(sdt, suite, all_types):
    state = scene_for_row(suite_row(suite, 2), sdt)
    history = []
    fridge_id = next(o for o in state.objects.values() if o.type_name == "Fridge").object_id
    for i, action in enumerate((ActionName.OPEN, ActionName.CLOSE)):
        history.append(
            HistoryEntry(
                triplet=ActionTriplet(action, "Fridge"),
                concrete=ConcreteAction(action, fridge_id),
                outcome=ActionOutcome.success(),
            )
        )
    prompt = build_replan_prompt(
        "task", history, state, sdt, all_types, ["UNMET type=Mug need=exists"]
    )
    open_pos = prompt.find("(OpenObject,")
    close_pos = prompt.find("(CloseObject,")
    assert 0 < open_pos < close_pos


@pytest.mark.parametrize("length", [0, 3, HISTORY_TAIL, HISTORY_TAIL + 1, 3 * HISTORY_TAIL])
def test_replan_prompt_sends_the_last_history_tail_steps(sdt, suite, all_types, length):
    state = scene_for_row(suite_row(suite, 2), sdt)
    fridge_id = next(o for o in state.objects.values() if o.type_name == "Fridge").object_id
    failed = ActionOutcome.error("NotVisible", "gone")
    history = [
        HistoryEntry(
            triplet=ActionTriplet(action, "Fridge"),
            concrete=ConcreteAction(action, fridge_id),
            outcome=failed if k % 3 == 0 else ActionOutcome.success(),
        )
        for k in range(length)
        for action in [(ActionName.OPEN, ActionName.CLOSE)[k % 2]]
    ]
    unmet = ["UNMET type=Mug need=exists"]
    prompt = build_replan_prompt("task", history, state, sdt, all_types, unmet)
    shown = prompts.sections(prompt)[prompts.SEC_HISTORY]
    assert shown == "\n".join(prompts.render_history_lines(history[-HISTORY_TAIL:]))
    assert len(shown.splitlines()) == min(length, HISTORY_TAIL)


def test_replan_suggests_knife_and_slice_for_missing_sliced_witness(sdt, suite):
    row = suite_row(suite, 2)
    state = scene_for_row(row, sdt)
    backend = ScriptedOracle()
    goal = parse_goal("GOAL:{type=PotatoSliced; flags=isCooked; temp=-; in=Sink}")
    unmet = goal_satisfied(state, goal)[1]
    additions = replan(
        row["task"], [], state, unmet, sdt, relevant_types(row["task"], sdt), backend
    )
    actions = [t.action for t in additions[:2]]
    assert actions == [ActionName.PICKUP, ActionName.SLICE]
    assert "ButterKnife" in additions[0].arg1
    assert "Potato" in additions[1].arg1


def test_replan_moves_slice_to_goal_receptacle(sdt, suite):
    row = suite_row(suite, 14)
    state = scene_for_row(row, sdt, injected=False)
    backend = ScriptedOracle()
    relevant = relevant_types(row["task"], sdt)
    # slice the apple on the counter so the only unmet conjunct is placement
    plan_text = (
        "[['PickupObject', 'Knife', 0], ['SliceObject', 'Apple', 0], "
        "['PutObject', 'Knife', 'Sink']]"
    )
    from sdtplan.triplets import parse_triplets

    state, history, status = execute_plan(
        parse_triplets(plan_text), state, row["task"], sdt, backend, None
    )
    assert status == "Completed"
    for obj in state.objects.values():
        if obj.type_name == "AppleSliced":
            state.own(obj.object_id).temperature = "Cold"
    goal = parse_goal("GOAL:{type=AppleSliced; flags=-; temp=Cold; in=DiningTable}")
    unmet = goal_satisfied(state, goal)[1]
    additions = replan(row["task"], history, state, unmet, sdt, relevant, backend)
    assert [t.action for t in additions] == [ActionName.PICKUP, ActionName.PUT]
    assert "AppleSliced" in additions[0].arg1
    assert additions[1].arg2.startswith("DiningTable|")


def test_replan_rejects_satisfied_goal(sdt, suite, all_types):
    state = scene_for_row(suite_row(suite, 10), sdt)
    goal = parse_goal("GOAL:{type=Mug; flags=-; temp=-; in=CounterTop}")
    ok, unmet = goal_satisfied(state, goal)
    assert ok and unmet == []
    with pytest.raises(ValueError, match="no unmet goal clause"):
        replan("task", [], state, unmet, sdt, all_types, ScriptedOracle())


def _unmet_potato_goal(sdt, suite):
    """Row 2's start state and the clauses of a sliced-potato goal it leaves unmet."""
    state = scene_for_row(suite_row(suite, 2), sdt)
    goal = parse_goal("GOAL:{type=PotatoSliced; flags=isCooked; temp=-; in=Sink}")
    ok, unmet = goal_satisfied(state, goal)
    assert not ok
    return state, unmet


def test_replan_retry_recovers_on_second_reply(sdt, suite, all_types):
    state, unmet = _unmet_potato_goal(sdt, suite)
    backend = ScriptedBackend(["gibberish", "Action-Triplets:[['PickupObject', 'Potato', 0]]"])
    additions = replan("task", [], state, unmet, sdt, all_types, backend)
    assert additions == [ActionTriplet(ActionName.PICKUP, "Potato")]
    assert backend.calls == 2


def test_replan_retries_then_fails_on_garbage(sdt, suite, all_types):
    state, unmet = _unmet_potato_goal(sdt, suite)
    backend = ScriptedBackend(["gibberish", "more gibberish"])
    with pytest.raises(PlanParseError):
        replan("task", [], state, unmet, sdt, all_types, backend)
    assert backend.calls == 2


def test_run_task_row2_two_replans(sdt, suite):
    report = run_row(suite_row(suite, 2), sdt)
    assert report.success
    assert report.failures == 0
    assert report.resolver_iterations == 0
    assert report.replanner_invocations == 2
    # replanner work is re-verified against the goal oracle
    assert goal_satisfied(report.final_state, report.goal)[0]


class _GarbageReplans(ScriptedOracle):
    """The scripted oracle, except that every replan reply is garbage."""

    def __init__(self, config):
        super().__init__(config)
        self.replan_calls = 0

    def complete(self, prompt: str) -> str:
        if prompt.startswith(prompts.REPLAN_HEADER):
            self.replan_calls += 1
            return "gibberish"
        return super().complete(prompt)


def test_run_task_ends_replan_failed_when_both_replan_replies_are_garbage(sdt, suite):
    row = suite_row(suite, 2)  # its plan completes with the goal unmet, so it replans
    backend = _GarbageReplans(OracleConfig(**row["oracle_faults"]))
    report = run_task(row["task"], scene_for_row(row, sdt), sdt, backend, RunConfig(), task_id=2)
    assert report.status.startswith("ReplanFailed: unparseable reply after retry")
    assert not report.success and report.unmet_final
    assert report.replan_additions == []
    assert backend.replan_calls == 2  # the replan query and its one retry


def test_run_task_ends_planning_failed_on_deeply_nested_reply(sdt, suite):
    row = suite_row(suite, 10)
    backend = ScriptedBackend(["[" * 1500])  # deeper than Python's default recursion limit
    report = run_task(row["task"], scene_for_row(row, sdt), sdt, backend, RunConfig(), task_id=10)
    assert report.status.startswith("PlanningFailed: ")
    assert not report.success
    assert backend.calls == 2  # the plan query and its one retry


def test_run_task_row10_clean_run(sdt, suite):
    report = run_row(suite_row(suite, 10), sdt)
    assert (report.failures, report.resolver_iterations, report.replanner_invocations) == (0, 0, 0)
    assert report.success


def test_run_task_unreachable_goal_fails_after_cap(sdt, suite):
    row = dict(suite_row(suite, 10))
    row["task"] = "Put a clean plate on the counter."  # no plate in the mug scene
    report = run_row(row, sdt)
    assert not report.success
    assert report.status == "Aborted"


def test_run_task_respects_replan_cap(sdt, suite):
    row = suite_row(suite, 2)
    scene = scene_for_row(row, sdt)
    backend = ScriptedOracle(OracleConfig(omit_slice=True))
    config = RunConfig(replan_cap=1)
    report = run_task(row["task"], scene, sdt, backend, config, task_id=2)
    assert report.replanner_invocations == 1
    assert not report.success


@pytest.mark.parametrize("limit", ["budget", "replan_cap"])
def test_run_config_rejects_negative_limits(limit):
    with pytest.raises(ValueError, match=limit):
        RunConfig(**{limit: -1})
    assert getattr(RunConfig(**{limit: 0}), limit) == 0


def test_run_task_reports_unplannable_task_instead_of_raising(sdt, suite):
    scene = scene_for_row(suite_row(suite, 10), sdt)
    report = run_task("Do fourteen somersaults.", scene, sdt, ScriptedOracle(), task_id="x")
    assert not report.success
    assert report.status.startswith("PlanningFailed")


@pytest.mark.parametrize("reply", [None, 42])
def test_run_task_reports_a_non_string_reply_as_planning_failed(sdt, suite, reply):
    row = suite_row(suite, 1)
    backend = ScriptedBackend([reply])
    report = run_task(row["task"], scene_for_row(row, sdt), sdt, backend, task_id=1)
    assert report.status.startswith("PlanningFailed")
    assert backend.calls == 2  # the reply and the reformat retry


class _NonStringRecovery(ScriptedOracle):
    """The oracle, answering every failure-recovery prompt with ``reply``."""

    def __init__(self, reply):
        super().__init__()
        self.reply = reply

    def complete(self, prompt):
        if prompt.startswith(prompts.RECOVERY_HEADER):
            return self.reply
        return super().complete(prompt)


@pytest.mark.parametrize("reply", [None, 42])
def test_run_task_survives_a_non_string_recovery_reply(sdt, suite, reply):
    row = suite_row(suite, 9)  # its first plan fails a step, so the resolver asks for recovery
    report = run_task(row["task"], scene_for_row(row, sdt), sdt, _NonStringRecovery(reply), task_id=9)
    attempts = [a for entry in report.history for a in entry.attempts]
    assert attempts
    assert all(a.feedback.startswith("unparseable proposal") for a in attempts)


def test_run_task_survives_backend_crash_mid_execution(sdt, suite):
    row = suite_row(suite, 3)  # needs grounding queries (two drawers)
    scene = scene_for_row(row, sdt)

    class FlakyBackend:
        name = "flaky"
        deterministic = False

        def __init__(self):
            self.inner = ScriptedOracle()
            self.calls = 0

        def complete(self, prompt):
            self.calls += 1
            if self.calls > 1:
                from sdtplan.errors import BackendError

                raise BackendError("connection reset")
            return self.inner.complete(prompt)

    report = run_task(row["task"], scene, sdt, FlakyBackend(), RunConfig(), task_id=3)
    assert not report.success
    assert report.status.startswith("ExecutionFailed")
    assert report.history  # partial progress retained


def test_misorder_heat_fault_fixed_by_replanner(sdt, suite):
    row = suite_row(suite, 2)
    scene = scene_for_row(row, sdt)
    backend = ScriptedOracle(OracleConfig(misorder_heat=True))
    report = run_task(row["task"], scene, sdt, backend, RunConfig(), task_id=2)
    assert report.success
    assert report.failures == 0
    # toggling with the door open cooked nothing; the replanner reheats, then relocates
    assert report.replanner_invocations == 2
    heat_fix = report.replan_additions[0]
    assert ActionName.TOGGLE_ON in [t.action for t in heat_fix]


def test_wash_replan_template_cleans_dirty_goal_object(sdt, suite):
    # knife already parked in a drawer but still dirty: only the wash fix applies
    row = suite_row(suite, 3)
    state = scene_for_row(row, sdt, injected=False)
    backend = ScriptedOracle()
    knife = next(o for o in state.objects.values() if o.type_name == "Knife")
    goal = parse_goal("GOAL:{type=Knife; flags=!isDirty; temp=-; in=Drawer}")
    relevant = relevant_types(row["task"], sdt)
    unmet = goal_satisfied(state, goal)[1]
    additions = replan(row["task"], [], state, unmet, sdt, relevant, backend)
    actions = [t.action for t in additions]
    assert ActionName.TOGGLE_ON in actions and ActionName.TOGGLE_OFF in actions
    state, history, status = execute_plan(
        additions, state, row["task"], sdt, backend, None
    )
    assert status == "Completed"
    assert not state.objects[knife.object_id].flag("isDirty")


def test_all_tasks_succeed_without_perturbations(sdt, suite):
    for row in suite["tasks"]:
        clean_row = dict(row)
        clean_row["inject"] = []
        clean_row["oracle_faults"] = {}
        report = run_row(clean_row, sdt)
        assert report.success, (row["id"], report.status, report.unmet_final)


def test_success_implies_goal_satisfied(sdt, suite):
    for row in suite["tasks"]:
        report = run_row(row, sdt)
        assert report.success
        ok, _ = goal_satisfied(report.final_state, report.goal)
        assert ok


class _HeaderBackend:
    """Answers every prompt with the reply filed under its header line; a
    filed exception is raised instead. Keeps the headers it was asked."""

    def __init__(self, replies: dict[str, object]):
        self.replies = replies
        self.asked: list[str] = []

    def complete(self, prompt: str) -> str:
        header = prompt.partition("\n")[0]
        self.asked.append(header)
        reply = self.replies[header]
        if isinstance(reply, Exception):
            raise reply
        return reply


_APPLE_ON_TABLE_THEN_STATUE = (
    "Action-Triplets:[['PickupObject', 'Apple', 0], "
    "['PutObject', 'Apple', 'DiningTable'], ['PickupObject', 'Statue', 0]]"
)


def _run_and_trace(sdt, suite, backend, tmp_path):
    """Row 14's task on its scene without perturbations; returns the report
    and the trace file written for it."""
    row = suite_row(suite, 14)
    args = argparse.Namespace(mode="replan", sdt=None)
    header, scene = cli.trace_header(
        dict(row, inject=[]), args, default_suite_path().parent, [], sdt, cli._sdt_file(args)
    )
    report = run_task(row["task"], scene, sdt, backend, RunConfig(), task_id=row["id"])
    return report, cli._write_trace(report, header, tmp_path)


def test_goal_rechecked_after_aborted_replan_phase(sdt, suite, tmp_path):
    # The replan phase puts the apple on the table, then aborts on a statue
    # that is nowhere; the goal already holds, so the run succeeds.
    backend = _HeaderBackend({
        prompts.PLAN_HEADER: (
            "Action-Triplets:[['GotoObject', 'Apple', 0]]\n"
            "GOAL:{type=Apple; flags=-; temp=-; in=DiningTable}"
        ),
        prompts.REPLAN_HEADER: _APPLE_ON_TABLE_THEN_STATUE,
        prompts.RECOVERY_HEADER: "[]",
    })
    report, trace = _run_and_trace(sdt, suite, backend, tmp_path)
    assert report.status == "Aborted"
    assert report.history[-1].phase == "replan-1"
    assert report.success
    assert report.unmet_final == []
    assert cli.main(["verify", str(trace)]) == 0


def test_empty_recovery_proposal_ends_the_resolver(sdt, suite, tmp_path):
    backend = _HeaderBackend({
        prompts.PLAN_HEADER: (
            "Action-Triplets:[['PickupObject', 'Statue', 0]]\n"
            "GOAL:{type=Apple; flags=-; temp=-; in=DiningTable}"
        ),
        prompts.RECOVERY_HEADER: "[]",
    })
    report, _ = _run_and_trace(sdt, suite, backend, tmp_path)
    assert backend.asked.count(prompts.RECOVERY_HEADER) == 1
    assert [a.feedback for a in report.history[0].attempts] == ["empty proposal"]
    assert report.status == "Aborted"


def test_backend_error_keeps_the_state_the_phase_reached(sdt, suite, tmp_path):
    # The apple reaches the table before the recovery prompt for the statue fails.
    backend = _HeaderBackend({
        prompts.PLAN_HEADER: (
            _APPLE_ON_TABLE_THEN_STATUE + "\nGOAL:{type=Apple; flags=-; temp=-; in=DiningTable}"
        ),
        prompts.RECOVERY_HEADER: BackendError("connection reset"),
    })
    report, trace = _run_and_trace(sdt, suite, backend, tmp_path)
    assert report.status == "ExecutionFailed: connection reset"
    assert report.success
    assert cli.main(["verify", str(trace)]) == 0
