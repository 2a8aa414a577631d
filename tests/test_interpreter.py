"""Grounding engine: candidates, resolution, execution loop."""

from __future__ import annotations

import re
from functools import partial

import pytest

from conftest import (
    ABLATIONS, CountingBackend, ScriptedBackend, no_recovery, run_row, scene_for_row, suite_row,
)

import sdtplan.interpreter as interp_mod
import sdtplan.resolver as resolver_mod
from sdtplan import prompts
from sdtplan.backends import OracleConfig, ScriptedOracle
from sdtplan.interpreter import (
    candidate_instances,
    execute_plan,
    postcondition_satisfied,
    resolve,
)
from sdtplan.planner import relevant_types
from sdtplan.replanner import RunConfig, run_task
from sdtplan.resolver import resolve_failure
from sdtplan.sdt import ActionName
from sdtplan.triplets import ActionTriplet, parse_goal, parse_triplets
from sdtplan.world import (
    ActionOutcome,
    ConcreteAction,
    ObjectInstance,
    apply_perturbations,
    condition_fn,
    format_object_id,
    state_hash,
    step,
)


def trip(action, arg1, arg2=None):
    return ActionTriplet(action=action, arg1=arg1, arg2=arg2)


def by_type(state, type_name):
    return next(o for o in state.objects.values() if o.type_name == type_name)


# ---------------------------------------------------------------------------
# Candidates


def test_single_fridge_candidate(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    fridge = by_type(state, "Fridge")
    assert candidate_instances(state, "Fridge") == [fridge.object_id]


def test_instance_id_is_singleton(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    fridge = by_type(state, "Fridge")
    assert candidate_instances(state, fridge.object_id) == [fridge.object_id]
    assert candidate_instances(state, "Fridge|+09.99|+00.90|+00.00") == []


def test_base_ref_grounds_to_the_slices_that_replace_the_object(sdt, suite):
    state = scene_for_row(suite_row(suite, 1), sdt, injected=False)
    knife = by_type(state, "ButterKnife")
    potato = by_type(state, "Potato")
    state, _ = step(state, ConcreteAction(ActionName.PICKUP, knife.object_id), sdt)
    state, _ = step(state, ConcreteAction(ActionName.SLICE, potato.object_id), sdt)
    slices = [f"{potato.object_id}|PotatoSliced-{k}" for k in range(2)]
    assert sorted(candidate_instances(state, "Potato")) == slices
    # the cut consumed the potato: neither its id nor a slicing context finds it
    assert candidate_instances(state, potato.object_id) == []
    assert candidate_instances(state, "Potato", ActionName.SLICE) == []


def test_row_4_cut_consumes_the_apple(sdt, suite, monkeypatch):
    whole = "Apple|+01.60|+00.97|-00.30"
    named = re.compile(re.escape(whole) + r"(?!\|)")  # the whole apple, not a slice's id
    events = []  # ("step", action, outcome, state after) and ("prompt", text), in run order

    def recording_step(state, concrete, sdt):
        new, outcome = step(state, concrete, sdt)
        events.append(("step", concrete, outcome, new))
        return new, outcome

    class PromptLog(ScriptedOracle):
        def complete(self, prompt):
            events.append(("prompt", prompt))
            return super().complete(prompt)

    monkeypatch.setattr(interp_mod, "step", recording_step)
    monkeypatch.setattr(resolver_mod, "step", recording_step)
    row = suite_row(suite, 4)
    run_task(row["task"], scene_for_row(row, sdt), sdt, PromptLog(), RunConfig())
    cut = next(
        i for i, (kind, *rest) in enumerate(events)
        if kind == "step" and rest[0] == ConcreteAction(ActionName.SLICE, whole) and rest[1].ok
    )
    after = events[cut][3]
    _, outcome = step(after, ConcreteAction(ActionName.PICKUP, whole), sdt)
    assert outcome.error_code == "UnknownObject"
    later = [text for kind, text, *_ in events[cut:] if kind == "prompt"]
    assert later and not any(named.search(text) for text in later)


def test_a_slice_step_on_the_consumed_object_records_as_skipped(sdt, suite):
    row = suite_row(suite, 4)
    state = scene_for_row(row, sdt, injected=False)
    apple = by_type(state, "Apple").object_id
    state, _ = step(state, ConcreteAction(ActionName.PICKUP, by_type(state, "Knife").object_id), sdt)
    state, outcome = step(state, ConcreteAction(ActionName.SLICE, apple), sdt)
    assert outcome.ok and apple not in state.objects
    backend = CountingBackend(ScriptedOracle())
    history = []
    final, status = execute_plan(
        [trip(ActionName.SLICE, apple)], state, row["task"], sdt, backend, no_recovery(sdt, backend),
        history,
    )
    assert status == "Completed" and final is state and backend.calls == 0
    assert [(e.concrete, e.skipped, e.outcome) for e in history] == [
        (None, True, ActionOutcome.success("already satisfied")),
    ]


def test_unknown_ref_has_no_candidates(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    assert candidate_instances(state, "Unicorn") == []


def test_candidates_sorted_by_distance(sdt, suite):
    state = scene_for_row(suite_row(suite, 3), sdt, injected=False)
    drawers = candidate_instances(state, "Drawer")
    distances = [state.distance_to(state.objects[d]) for d in drawers]
    assert distances == sorted(distances)


# ---------------------------------------------------------------------------
# Resolution


def test_singleton_resolution_makes_no_backend_calls(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    backend = CountingBackend(ScriptedOracle())
    concrete = resolve(
        trip(ActionName.OPEN, "Fridge"), state, "open the fridge", [], sdt, backend,
    )
    assert concrete.target == by_type(state, "Fridge").object_id
    assert backend.calls == 0


def test_multi_candidate_resolution_queries_backend(sdt, suite):
    state = scene_for_row(suite_row(suite, 3), sdt, injected=False)
    backend = CountingBackend(ScriptedOracle())
    concrete = resolve(
        trip(ActionName.OPEN, "Drawer"), state, "open a drawer", [], sdt, backend,
    )
    assert backend.calls == 1
    assert concrete.target in candidate_instances(state, "Drawer")


def test_oracle_prefers_drawer_with_free_space(sdt, suite):
    # three drawers, the nearest two occupied: the default policy picks the empty one
    row = suite_row(suite, 3)
    state = scene_for_row(row, sdt, injected=False)
    import copy

    extra_pos = (2.2, 0.82, -0.9)
    extra = ObjectInstance(
        object_id=format_object_id("Drawer", extra_pos),
        type_name="Drawer",
        position=extra_pos,
        flags={"isOpen": True},
        capacity=3,
    )
    state.objects[extra.object_id] = extra
    near1, near2 = candidate_instances(state, "Drawer")[:2]
    for drawer_id in (near1, near2):
        state.objects[drawer_id].flags["isOpen"] = True
        filler_pos = (state.objects[drawer_id].position[0], 0.82,
                      state.objects[drawer_id].position[2] + 0.01)
        filler = ObjectInstance(
            object_id=format_object_id("Statue", filler_pos),
            type_name="Statue",
            position=filler_pos,
            flags={},
            parent_receptacle=drawer_id,
        )
        state.objects[filler.object_id] = filler
    backend = ScriptedOracle()
    concrete = resolve(
        trip(ActionName.PUT, "Knife", "Drawer"), state, row["task"], [], sdt, backend,
    )
    assert concrete.target == extra.object_id
    state.held_object = by_type(state, "Knife").object_id
    state.objects[state.held_object].parent_receptacle = None
    new_state, outcome = step(state, concrete, sdt)
    assert outcome.ok


def test_hidden_object_grounds_to_none(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt)  # bottle hidden
    assert resolve(
        trip(ActionName.PICKUP, "WineBottle"), state, "grab the bottle", [], sdt, ScriptedOracle()
    ) is None


def test_bad_choice_falls_back_to_nearest(sdt, suite):
    state = scene_for_row(suite_row(suite, 3), sdt, injected=False)
    backend = ScriptedBackend(["CHOICE:{Drawer->Drawer|+09.99|+00.82|+09.99}"])
    concrete = resolve(
        trip(ActionName.OPEN, "Drawer"), state, "open a drawer", [], sdt, backend,
    )
    assert backend.calls == 2  # one retry before the fallback
    assert concrete.target == candidate_instances(state, "Drawer")[0]


def test_one_admitted_candidate_grounds_without_asking(sdt, suite):
    # row 5's drawers, the farther one open: only it can take the knife
    state = scene_for_row(suite_row(suite, 5), sdt)
    near, far = candidate_instances(state, "Drawer")
    state.own(far).flags["isOpen"] = True
    backend = CountingBackend(ScriptedOracle())
    concrete = resolve(
        trip(ActionName.PUT, "Knife", "Drawer"), state, "put the knife away", [], sdt, backend,
    )
    assert backend.calls == 0
    assert concrete.target == far


def test_no_admitted_candidate_keeps_the_full_choice(sdt, suite):
    # both drawers already open: neither admits OpenObject, so the choice stays as it was
    state = scene_for_row(suite_row(suite, 5), sdt)
    drawers = candidate_instances(state, "Drawer")
    for drawer_id in drawers:
        state.own(drawer_id).flags["isOpen"] = True
    backend = ScriptedBackend([f"CHOICE:{{Drawer->{drawers[1]}}}"])
    concrete = resolve(trip(ActionName.OPEN, "Drawer"), state, "open a drawer", [], sdt, backend)
    assert backend.calls == 1
    assert concrete.target == drawers[1]
    (choice,) = backend.prompts
    listed = prompts.parse_state_lines(prompts.sections(choice)[prompts.SEC_CANDIDATES])
    assert [object_id for object_id, _, _ in listed] == drawers


def test_choice_prompt_lists_only_the_admitted_candidates(sdt, suite):
    state = scene_for_row(suite_row(suite, 5), sdt)
    extra_pos = (2.2, 0.82, -0.9)
    extra = ObjectInstance(
        format_object_id("Drawer", extra_pos), "Drawer", extra_pos, {"isOpen": False}, capacity=3,
    )
    state.objects[extra.object_id] = extra
    drawers = candidate_instances(state, "Drawer")
    assert len(drawers) == 3
    admitted = [drawers[0], drawers[2]]
    for drawer_id in admitted:
        state.own(drawer_id).flags["isOpen"] = True
    backend = ScriptedBackend([f"CHOICE:{{Drawer->{admitted[1]}}}"])
    concrete = resolve(
        trip(ActionName.PUT, "Knife", "Drawer"), state, "put the knife away", [], sdt, backend,
    )
    assert concrete.target == admitted[1]
    (choice,) = backend.prompts
    listed = prompts.parse_state_lines(prompts.sections(choice)[prompts.SEC_CANDIDATES])
    assert [object_id for object_id, _, _ in listed] == admitted


def test_candidates_of_an_unknown_type_are_a_choice_not_an_error(sdt, suite):
    # the condition function admits none of them, not even GotoObject, so none
    # is narrowed away: all stay candidates and the backend chooses, and the
    # run does not end in ExecutionFailed
    state = scene_for_row(suite_row(suite, 5), sdt)
    assert "Gizmo" not in sdt
    gizmos = []
    for pos in ((0.3, 0.95, 0.3), (0.6, 0.95, -0.3)):
        gizmo = ObjectInstance(format_object_id("Gizmo", pos), "Gizmo", pos, {})
        state.objects[gizmo.object_id] = gizmo
        gizmos.append(gizmo.object_id)
    backend = ScriptedBackend([
        "Action-Triplets:[['GotoObject', 'Gizmo', 0]]\nGOAL:{type=Gizmo; flags=-; temp=-; in=-}",
        f"CHOICE:{{Gizmo->{gizmos[1]}}}",
    ])
    report = run_task("go to the gizmo", state, sdt, backend, ABLATIONS["plan"])
    assert not report.status.startswith("ExecutionFailed"), report.status
    assert report.history[0].concrete == ConcreteAction(ActionName.GOTO, gizmos[1])
    listed = prompts.parse_state_lines(prompts.sections(backend.prompts[1])[prompts.SEC_CANDIDATES])
    assert sorted(object_id for object_id, _, _ in listed) == sorted(gizmos)


def _apple_slices(sdt, suite):
    """Row 4's kitchen with its apple cut: two fresh sibling slices on the counter."""
    state = scene_for_row(suite_row(suite, 4), sdt, injected=False)
    state, _ = step(state, ConcreteAction(ActionName.PICKUP, by_type(state, "Knife").object_id), sdt)
    state, _ = step(state, ConcreteAction(ActionName.SLICE, by_type(state, "Apple").object_id), sdt)
    slices = candidate_instances(state, "Apple")
    assert len(slices) == 2
    return state, slices


def test_fresh_sibling_slices_ground_locally(sdt, suite):
    state, slices = _apple_slices(sdt, suite)
    backend = CountingBackend(ScriptedOracle())
    concrete = resolve(trip(ActionName.PICKUP, "Apple"), state, "take a slice", [], sdt, backend)
    assert backend.calls == 0
    assert concrete.target == slices[0]


def _differ_in_flag(state, slices):
    state.own(slices[1]).flags["isCooked"] = True


def _differ_in_parent(state, slices):
    state.own(slices[1]).parent_receptacle = "CounterTop|+00.70|+00.95|+00.10"


def _holds_an_object(state, slices):
    state.own(by_type(state, "Bread").object_id).parent_receptacle = slices[1]


@pytest.mark.parametrize("differ", [_differ_in_flag, _differ_in_parent, _holds_an_object])
def test_slices_that_differ_are_still_a_choice(sdt, suite, differ):
    state, slices = _apple_slices(sdt, suite)
    differ(state, slices)
    backend = CountingBackend(ScriptedOracle())
    concrete = resolve(trip(ActionName.PICKUP, "Apple"), state, "take a slice", [], sdt, backend)
    assert backend.calls == 1
    assert concrete.target in slices


def test_choice_prompt_lists_what_the_choice_weighs_and_nothing_else(sdt, suite):
    """The candidates section gives every candidate's state, and the state
    section what each holds and the receptacle each sits in, where visible:
    here two slices, then their two counters."""
    state, slices = _apple_slices(sdt, suite)
    _differ_in_parent(state, slices)
    backend = ScriptedBackend([f"CHOICE:{{Apple->{slices[0]}}}"])
    resolve(trip(ActionName.PICKUP, "Apple"), state, "take a slice", [], sdt, backend)
    (choice,) = backend.prompts
    secs = prompts.sections(choice)
    candidates = prompts.parse_state_lines(secs[prompts.SEC_CANDIDATES])
    assert sorted(object_id for object_id, _, _ in candidates) == sorted(slices)
    around = prompts.parse_state_lines(secs[prompts.SEC_STATE])
    assert [object_id for object_id, _, _ in around] == [
        "CounterTop|+00.70|+00.95|+00.10", "CounterTop|+01.60|+00.95|-00.30"
    ]


class NoCalls:
    """A backend that fails the test on any call."""

    def complete(self, prompt):
        pytest.fail(f"unexpected backend call: {prompt.splitlines()[0]}")


def _cooked_and_raw_slices(sdt, suite):
    """Row 4's kitchen with its apple cut: one slice cooked in the open
    microwave, the other raw on the nearer counter."""
    state, slices = _apple_slices(sdt, suite)
    microwave = by_type(state, "Microwave")
    state.own(microwave.object_id).flags["isOpen"] = True
    cooked, raw = state.own(slices[0]), state.own(slices[1])
    cooked.flags["isCooked"] = True
    cooked.temperature = "Hot"
    cooked.parent_receptacle, cooked.position = microwave.object_id, microwave.position
    raw.parent_receptacle, raw.position = "CounterTop|+00.70|+00.95|+00.10", (0.7, 0.97, 0.1)
    return state, cooked.object_id, raw.object_id


@pytest.mark.parametrize("goal_text", [
    "GOAL:{type=AppleSliced; flags=isCooked; temp=-; in=-}",
    # one conjunct each, the cooked slice's flag and the raw slice's counter: the treatment wins
    "GOAL:{type=AppleSliced; flags=isCooked; temp=-; in=CounterTop}",
], ids=["treatment", "treatment-over-receptacle"])
def test_the_goal_grounds_to_the_slice_it_asks_for_with_no_call(sdt, suite, goal_text):
    state, cooked, raw = _cooked_and_raw_slices(sdt, suite)
    assert candidate_instances(state, "AppleSliced")[0] == raw  # the raw slice is nearer
    concrete = resolve(
        trip(ActionName.PICKUP, "AppleSliced"), state, "take a cooked slice", [], sdt, NoCalls(),
        parse_goal(goal_text),
    )
    assert concrete == ConcreteAction(ActionName.PICKUP, cooked)


def test_the_resolver_re_executes_the_failed_step_against_the_goal(sdt, suite):
    # the knife that cut the apple is still held, so the pickup of the cooked slice fails;
    # recovery puts the knife down and re-executes the pickup, which the goal settles
    state, cooked, _ = _cooked_and_raw_slices(sdt, suite)

    class Backend(NoCalls):
        def complete(self, prompt):
            if prompt.startswith(prompts.PLAN_HEADER):
                return (
                    "Action-Triplets:[['PickupObject', 'AppleSliced', 0]]\n"
                    "GOAL:{type=AppleSliced; flags=isCooked; temp=-; in=-}"
                )
            if prompt.startswith(prompts.RECOVERY_HEADER):
                return "[(PutObject,CounterTop|+00.70|+00.95|+00.10)]"
            return super().complete(prompt)

    report = run_task("Pick up a cooked apple slice.", state, sdt, Backend(), ABLATIONS["resolve"])
    (attempt,) = report.history[0].attempts
    assert attempt.executed[-1][0] == ConcreteAction(ActionName.PICKUP, cooked)
    assert attempt.resolved and report.success


def _two_whole_apples(state):
    for pos, counter in (((0.7, 0.97, 0.1), "CounterTop|+00.70|+00.95|+00.10"),
                         ((1.6, 0.97, 0.0), "CounterTop|+01.60|+00.95|-00.30")):
        apple = ObjectInstance(format_object_id("Apple", pos), "Apple", pos, {},
                               parent_receptacle=counter)
        state.objects[apple.object_id] = apple


@pytest.mark.parametrize("goal_text, triplet", [
    pytest.param(
        "GOAL:{type=AppleSliced; flags=isCooked; temp=-; in=-}\n"
        "GOAL:{type=AppleSliced; flags=-; temp=-; in=CounterTop}",
        trip(ActionName.PICKUP, "AppleSliced"), id="two-clauses-of-the-type",
    ),
    pytest.param(None, trip(ActionName.PICKUP, "AppleSliced"), id="no-goal"),
    pytest.param(
        "GOAL:{type=AppleSliced; flags=isSliced; temp=-; in=Fridge}",
        trip(ActionName.PICKUP, "AppleSliced"), id="tied",
    ),
    pytest.param(
        "GOAL:{type=AppleSliced; flags=isCooked; temp=-; in=-}",
        trip(ActionName.SLICE, "Apple"), id="slicing-the-unsliced-type",
    ),
])
def test_a_goal_that_does_not_settle_the_choice_leaves_it_to_the_backend(
    sdt, suite, goal_text, triplet
):
    state, _, _ = _cooked_and_raw_slices(sdt, suite)
    _two_whole_apples(state)
    admitted = [
        object_id for object_id in candidate_instances(state, triplet.arg1, triplet.action)
        if condition_fn(sdt, state.objects[object_id], triplet.action)
    ]
    assert len(admitted) == 2
    backend = ScriptedBackend([f"CHOICE:{{{triplet.arg1}->{admitted[1]}}}"])
    goal = parse_goal(goal_text) if goal_text else None
    concrete = resolve(triplet, state, "a task", [], sdt, backend, goal)
    assert backend.calls == 1
    assert concrete.target == admitted[1]


def test_a_receptacle_choice_is_left_to_the_backend(sdt, suite):
    # row 3's put into one of two open drawers: the goal names the knife, not the drawer
    row = suite_row(suite, 3)
    state = scene_for_row(row, sdt)
    drawers = candidate_instances(state, "Drawer")
    for drawer_id in drawers:
        state.own(drawer_id).flags["isOpen"] = True
    goal = parse_goal("GOAL:{type=Knife; flags=!isDirty; temp=-; in=Drawer}")
    backend = ScriptedBackend([f"CHOICE:{{Drawer->{drawers[1]}}}"])
    concrete = resolve(
        trip(ActionName.PUT, "Knife", "Drawer"), state, row["task"], [], sdt, backend, goal,
    )
    assert backend.calls == 1
    assert concrete.target == drawers[1]


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_skipped_choices_are_the_ones_the_oracle_answered_nearest(sdt, suite, ablation, monkeypatch):
    """Asking between interchangeable candidates anyway changes no run, and the
    oracle answers every such query with the nearest: each query the program
    skips is one whose reply it now makes itself."""
    skipped = {}
    for row in suite["tasks"]:
        report = run_row(row, sdt, ablation)
        skipped[row["id"]] = (report.to_json(), state_hash(report.final_state))

    interchangeable, complete = interp_mod._interchangeable, ScriptedOracle.complete
    pending: list[list[str]] = []
    forced = []

    def never(state, ids):
        pending[:] = [ids] if interchangeable(state, ids) else []
        return False

    def checked(self, prompt):
        reply = complete(self, prompt)
        if pending:
            (ids,) = pending
            pending.clear()
            assert prompt.startswith(prompts.CHOICE_HEADER)
            assert list(interp_mod._parse_choice(reply).values()) == [ids[0]]
            forced.append(ids)
        return reply

    monkeypatch.setattr(interp_mod, "_interchangeable", never)
    monkeypatch.setattr(ScriptedOracle, "complete", checked)
    for row in suite["tasks"]:
        report = run_row(row, sdt, ablation)
        report.wall_time_s = skipped[row["id"]][0]["wall_time_s"]
        assert (report.to_json(), state_hash(report.final_state)) == skipped[row["id"]], row["id"]
    assert forced  # sliced rows ask between sibling slices in every ablation


class ExchangeLog(ScriptedOracle):
    """The oracle, keeping every (prompt, reply) in order."""

    def __init__(self, config):
        super().__init__(config)
        self.exchanges = []

    def complete(self, prompt):
        reply = super().complete(prompt)
        self.exchanges.append((prompt, reply))
        return reply


def _runs_with_exchanges(sdt, suite, ablation):
    out = {}
    for row in suite["tasks"]:
        oracle = ExchangeLog(OracleConfig(**row.get("oracle_faults", {})))
        report = run_task(row["task"], scene_for_row(row, sdt), sdt, oracle, ABLATIONS[ablation])
        report.wall_time_s = 0.0
        out[row["id"]] = (report.to_json(), state_hash(report.final_state), oracle.exchanges)
    return out


def _dropped_exchanges(full, kept):
    """The exchanges of ``full``'s runs that ``kept``'s runs leave out, as
    (row id, prompt, reply), after checking that each row's report and final
    state are the same in both and its kept exchanges are ``full``'s in order."""
    dropped = []
    for task_id, (report, final_hash, exchanges) in full.items():
        assert (report, final_hash) == kept[task_id][:2], task_id
        remaining = iter(kept[task_id][2])
        pending = next(remaining, None)
        for exchange in exchanges:
            if exchange == pending:
                pending = next(remaining, None)
            else:
                dropped.append((task_id, *exchange))
        assert pending is None, task_id
    return dropped


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_affordance_narrowing_only_drops_choices_the_oracle_answered_alike(
    sdt, suite, ablation, monkeypatch
):
    """Listing every candidate anyway changes no run: with the gates admitting
    everything, the same reports come back, and the exchanges are the narrowed
    run's with choice queries added: row 3's and row 5's put into a drawer."""
    narrowed = _runs_with_exchanges(sdt, suite, ablation)
    monkeypatch.setattr(interp_mod, "condition_fn", lambda sdt, obj, action: True)
    dropped = _dropped_exchanges(_runs_with_exchanges(sdt, suite, ablation), narrowed)
    assert [task_id for task_id, _, _ in dropped] == [3, 5]
    for _, prompt, _ in dropped:
        step_lines = prompts.sections(prompt)[prompts.SEC_STEP].splitlines()
        assert prompt.startswith(prompts.CHOICE_HEADER)
        assert step_lines == ["Grounding: ['PutObject', 'Knife', 'Drawer']", "Resolve: Drawer"]


@pytest.mark.parametrize("ablation, settled_rows", [
    ("plan", [4, 13]), ("resolve", [1, 4, 6, 7, 13]), ("replan", [1, 4, 6, 7, 13]),
])
def test_goal_rank_only_drops_choices_the_oracle_answered_with_its_pick(
    sdt, suite, ablation, settled_rows, monkeypatch
):
    """Asking where the goal settles the choice changes no run: with the rank
    switched off, the same reports come back, and the exchanges are the ranked
    run's with choice queries added, each answered with the rank's pick."""
    ranked = _runs_with_exchanges(sdt, suite, ablation)
    goal_best, build_query = interp_mod._goal_best, interp_mod._build_choice_query
    pick = [None]
    settled = {}  # choice prompt -> the candidate the rank would have grounded to

    def unranked(state, goal, ids):
        pick[0] = goal_best(state, goal, ids)
        return None

    def recording_query(*args):
        query = build_query(*args)
        settled[query] = pick[0]
        return query

    monkeypatch.setattr(interp_mod, "_goal_best", unranked)
    monkeypatch.setattr(interp_mod, "_build_choice_query", recording_query)
    dropped = _dropped_exchanges(_runs_with_exchanges(sdt, suite, ablation), ranked)
    assert [task_id for task_id, _, _ in dropped] == settled_rows
    for _, prompt, reply in dropped:
        assert prompt.startswith(prompts.CHOICE_HEADER)
        assert list(interp_mod._parse_choice(reply).values()) == [settled[prompt]]
    assert sum(object_id is not None for object_id in settled.values()) == len(dropped)


# ---------------------------------------------------------------------------
# Postconditions


def test_postcondition_open_close(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    fridge = by_type(state, "Fridge")
    assert not postcondition_satisfied(state, trip(ActionName.OPEN, "Fridge"))
    assert postcondition_satisfied(state, trip(ActionName.CLOSE, "Fridge"))
    fridge.flags["isOpen"] = True
    assert postcondition_satisfied(state, trip(ActionName.OPEN, "Fridge"))


def test_postcondition_pickup_and_put(sdt, suite):
    state = scene_for_row(suite_row(suite, 10), sdt, injected=False)
    mug = by_type(state, "Mug")
    sink = by_type(state, "Sink")
    assert not postcondition_satisfied(state, trip(ActionName.PICKUP, "Mug"))
    state, _ = step(state, ConcreteAction(ActionName.PICKUP, mug.object_id), sdt)
    assert postcondition_satisfied(state, trip(ActionName.PICKUP, "Mug"))
    assert not postcondition_satisfied(state, trip(ActionName.PUT, "Mug", "Sink"))
    state, _ = step(state, ConcreteAction(ActionName.PUT, sink.object_id), sdt)
    assert postcondition_satisfied(state, trip(ActionName.PUT, "Mug", "Sink"))


# ---------------------------------------------------------------------------
# Execution loop


def test_execute_empty_plan(sdt, suite):
    state = scene_for_row(suite_row(suite, 9), sdt, injected=False)
    history = []
    backend = ScriptedOracle()
    final, status = execute_plan([], state, "idle", sdt, backend, no_recovery(sdt, backend), history)
    assert status == "Completed"
    assert history == []
    assert final is state


def test_pose_triplets_ground_with_no_target(sdt, suite):
    row = suite_row(suite, 9)
    reply = (
        "Action-Triplets:[['Crouch', 'Fridge', 0], ['Crouch', 'Fridge', 0], ['Stand', 'Fridge', 0]]\n"
        "GOAL:{type=Fridge; flags=-; temp=-; in=-}"
    )
    backend = ScriptedBackend([reply])
    state = scene_for_row(row, sdt, injected=False)
    report = run_task(row["task"], state, sdt, backend, ABLATIONS["plan"])
    assert report.status == "Completed" and report.success
    assert backend.calls == 1  # the plan; a pose grounds with no choice query
    assert [(e.concrete, e.skipped, e.outcome) for e in report.history] == [
        (ConcreteAction(ActionName.CROUCH, None), False, ActionOutcome.success()),
        (None, True, ActionOutcome.success("already satisfied")),  # already crouched
        (ConcreteAction(ActionName.STAND, None), False, ActionOutcome.success()),
    ]
    assert not report.final_state.agent_crouched


def test_execute_wine_plan_with_recovery(sdt, suite):
    row = suite_row(suite, 9)
    state = scene_for_row(row, sdt)
    backend = ScriptedOracle()
    plan = parse_triplets(
        "[['PickupObject', 'WineBottle', 0], ['OpenObject', 'Fridge', 0], "
        "['PutObject', 'WineBottle', 'Fridge'], ['CloseObject', 'Fridge', 0], "
        "['OpenObject', 'Fridge', 0], ['PickupObject', 'WineBottle', 0], "
        "['CloseObject', 'Fridge', 0], ['PutObject', 'WineBottle', 'DiningTable']]"
    )
    relevant = relevant_types(row["task"], sdt)
    recover = partial(resolve_failure, sdt=sdt, relevant=relevant, backend=backend)
    history = []
    final, status = execute_plan(plan, state, row["task"], sdt, backend, recover, history)
    assert status == "Completed"
    failed = [e for e in history if not e.outcome.ok and not e.skipped]
    assert len(failed) == 1
    resolving = failed[0].attempts[-1]
    assert resolving.resolved
    assert [p.name for p in resolving.proposed] == [ActionName.CROUCH]
    assert [c.name for c, _ in resolving.executed] == [ActionName.CROUCH, ActionName.PICKUP]
    bottle = by_type(final, "WineBottle")
    table = by_type(final, "DiningTable")
    assert bottle.parent_receptacle == table.object_id
    assert bottle.temperature == "Cold"


def test_execute_aborts_without_resolver(sdt, suite):
    row = suite_row(suite, 9)
    state = scene_for_row(row, sdt)
    plan = parse_triplets("[['PickupObject', 'WineBottle', 0]]")
    backend = CountingBackend(ScriptedOracle())
    history = []
    final, status = execute_plan(
        plan, state, row["task"], sdt, backend, no_recovery(sdt, backend), history
    )
    assert status == "Aborted" and backend.calls == 0
    assert history[-1].outcome.error_code == "NotVisible" and history[-1].attempts == []


def test_execute_aborts_when_budget_exhausted(sdt, suite):
    state = scene_for_row(suite_row(suite, 10), sdt, injected=False)
    backend = ScriptedOracle()
    plan = [trip(ActionName.PICKUP, "Plate")]  # no plate anywhere in this scene
    relevant = relevant_types("fetch the plate", sdt)
    recover = partial(resolve_failure, sdt=sdt, relevant=relevant, backend=backend, budget=3)
    history = []
    _, status = execute_plan(
        plan, state, "fetch the plate", sdt, backend, recover, history
    )
    assert status == "Aborted"
    assert sum(len(e.attempts) for e in history) == 3


def test_recovered_step_runs_once(sdt, suite):
    # Goto's postcondition never holds, so only the step count shows a re-run.
    state = scene_for_row(suite_row(suite, 14), sdt, injected=False)
    state = apply_perturbations(state, ["hide:Apple:Fridge"], sdt)
    backend = ScriptedOracle()
    plan = [trip(ActionName.GOTO, "Apple")]
    relevant = relevant_types("go to the apple", sdt)
    recover = partial(resolve_failure, sdt=sdt, relevant=relevant, backend=backend)
    history = []
    _, status = execute_plan(
        plan, state, "go to the apple", sdt, backend, recover, history
    )
    assert status == "Completed"
    gotos = [c for c, o in _executed(history) if c.name is ActionName.GOTO and o.ok]
    assert len(gotos) == 1
    assert len(history) == 1


@pytest.mark.parametrize("put", [("Drawer",), ("Apple", "Drawer")])
def test_closed_receptacle_recovered_by_opening_it(sdt, suite, put):
    state = scene_for_row(suite_row(suite, 14), sdt, injected=False)
    backend = ScriptedOracle()
    plan = [trip(ActionName.PICKUP, "Apple"), trip(ActionName.PUT, *put)]
    relevant = relevant_types("put the apple in the drawer", sdt)
    recover = partial(resolve_failure, sdt=sdt, relevant=relevant, backend=backend)
    history = []
    final, status = execute_plan(
        plan, state, "put the apple in the drawer", sdt, backend, recover, history
    )
    assert status == "Completed"
    assert sum(len(e.attempts) for e in history) == 1
    failed = history[1]
    assert failed.outcome.error_code == "ClosedReceptacle"
    drawer = by_type(final, "Drawer").object_id
    assert [(p.name, p.target) for p in failed.attempts[0].proposed] == [(ActionName.OPEN, drawer)]
    assert by_type(final, "Apple").parent_receptacle == drawer


def _executed(history):
    """Every (concrete, outcome) the run stepped, plan steps and recoveries alike."""
    out = []
    for entry in history:
        if entry.concrete is not None and not entry.skipped:
            out.append((entry.concrete, entry.outcome))
        for attempt in entry.attempts:
            out.extend(attempt.executed)
    return out


def test_history_counts_match_simulator_steps(sdt, suite, monkeypatch):
    import sdtplan.interpreter as interp_mod
    import sdtplan.resolver as resolver_mod

    calls = {"n": 0}
    real_step = step

    def counting_step(state, action, sdt_arg):
        calls["n"] += 1
        return real_step(state, action, sdt_arg)

    monkeypatch.setattr(interp_mod, "step", counting_step)
    monkeypatch.setattr(resolver_mod, "step", counting_step)

    row = suite_row(suite, 9)
    state = scene_for_row(row, sdt)
    backend = ScriptedOracle()
    plan = parse_triplets(
        "[['PickupObject', 'WineBottle', 0], ['OpenObject', 'Fridge', 0], "
        "['PutObject', 'WineBottle', 'Fridge'], ['CloseObject', 'Fridge', 0], "
        "['OpenObject', 'Fridge', 0], ['PickupObject', 'WineBottle', 0], "
        "['CloseObject', 'Fridge', 0], ['PutObject', 'WineBottle', 'DiningTable']]"
    )
    relevant = relevant_types(row["task"], sdt)
    recover = partial(resolve_failure, sdt=sdt, relevant=relevant, backend=backend)
    history = []
    _, status = execute_plan(plan, state, row["task"], sdt, backend, recover, history)
    assert status == "Completed"
    assert len(_executed(history)) == calls["n"]


def test_resolved_targets_always_candidates(sdt, suite):
    for task_id in (3, 5, 10):
        row = suite_row(suite, task_id)
        state = scene_for_row(row, sdt)
        backend = ScriptedOracle(OracleConfig(**row.get("oracle_faults", {})))
        from sdtplan.planner import plan as make_plan

        relevant = relevant_types(row["task"], sdt)
        triplets, _ = make_plan(row["task"], state, sdt, relevant, backend)
        history = []
        for triplet in triplets[:3]:
            if postcondition_satisfied(state, triplet):
                continue
            concrete = resolve(triplet, state, row["task"], history, sdt, backend)
            ref = triplet.arg2 if triplet.action is ActionName.PUT and triplet.arg2 else triplet.arg1
            assert concrete.target in candidate_instances(state, ref, triplet.action)
            state, outcome = step(state, concrete, sdt)
            assert outcome.ok or outcome.error_code
