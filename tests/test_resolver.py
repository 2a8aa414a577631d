"""Failure resolver: pair map, failure queries, recovery loop, attempt log."""

from __future__ import annotations

import random
from functools import partial

import pytest

from conftest import (
    ABLATIONS, ScriptedBackend, pair_section_lines, random_state, run_row, scene_for_row, suite_row,
)

from sdtplan.backends import ScriptedOracle
from sdtplan.errors import BackendError
from sdtplan.interpreter import HistoryEntry, RecoveryAttempt, execute_plan
from sdtplan.planner import relevant_types
from sdtplan.replanner import run_task
from sdtplan import prompts, resolver
from sdtplan.resolver import (
    _pose_anchor,
    build_action_pairs,
    build_failure_query,
    resolve_failure,
)
from sdtplan.sdt import FLAG_NAMES, ActionName, AffordanceTag, POSE_ACTIONS
from sdtplan.triplets import ActionTriplet
from sdtplan.world import (
    ActionOutcome,
    ConcreteAction,
    MSG_NOT_VISIBLE,
    MSG_NO_VALID_POSITION,
    ObjectInstance,
    WorldState,
    condition_fn,
    format_object_id,
    object_descriptions,
    step,
    type_of_id,
)


def by_type(state, type_name):
    return next(o for o in state.objects.values() if o.type_name == type_name)


def not_visible_history(triplet):
    """A one-entry history: ``triplet`` failed as not visible, ungrounded."""
    return [HistoryEntry(triplet, ActionOutcome.error("NotVisible", MSG_NOT_VISIBLE))]


# ---------------------------------------------------------------------------
# Action pair map


def test_pairs_hidden_bottle_scene(sdt, suite, all_types):
    state = scene_for_row(suite_row(suite, 9), sdt)
    fridge = by_type(state, "Fridge")
    bottle = by_type(state, "WineBottle").object_id
    pairs = build_action_pairs(state, sdt, all_types)
    assert (ActionName.OPEN, fridge.object_id) in pairs
    assert (ActionName.PUT, fridge.object_id) in pairs  # the door's opened form
    assert bottle not in {t for _, t in pairs}  # inside the closed fridge: unseen
    # opened, the fridge shows the bottle below the standing view band: still unseen
    state, _ = step(state, ConcreteAction(ActionName.OPEN, fridge.object_id), sdt)
    assert bottle not in {t for _, t in build_action_pairs(state, sdt, all_types)}
    # the crouch shows it, and the map offers the pickup
    state, _ = step(state, ConcreteAction(ActionName.CROUCH), sdt)
    assert (ActionName.PICKUP, bottle) in build_action_pairs(state, sdt, all_types)


def test_pairs_empty_scene_pose_only(tmp_path, sdt, all_types):
    from sdtplan.world import load_scene

    path = tmp_path / "empty.json"
    path.write_text('{"agent": {"position": [0, 0.9, 0]}, "objects": []}')
    pairs = build_action_pairs(load_scene(path, sdt), sdt, all_types)
    assert [p[0] for p in pairs] == [ActionName.CROUCH, ActionName.STAND]


def _observed_descriptions(state, sdt):
    """Reference: the objects in view now, then each visible closed door as
    a clone of the state with that door opened shows it (its contents left out)."""
    seen = object_descriptions(state)
    for obj in list(seen):
        if sdt.get(obj.type_name).has(AffordanceTag.OPENABLE) and not obj.flag("isOpen"):
            opened = state.clone()
            opened.own(obj.object_id).flags["isOpen"] = True
            seen.append(opened.objects[obj.object_id])
    return seen


def reference_pairs(state, sdt, relevant, focus=None):
    """The pair map by brute force over what the agent sees, in the map's order.

    It covers the objects of the relevant types, the receptacles and the
    focus, and leaves out closing a door that only its opened form shows open.
    """
    actions = [a for a in ActionName if a not in POSE_ACTIONS]
    expected = set()
    for desc in _observed_descriptions(state, sdt):
        if desc.type_name not in sdt:
            continue
        if not (
            desc.type_name in relevant
            or sdt.get(desc.type_name).has(AffordanceTag.RECEPTACLE)
            or desc.object_id == focus
        ):
            continue
        for action in actions:
            if condition_fn(sdt, desc, action):
                expected.add((action, desc.object_id))
    expected = {
        (a, t) for a, t in expected
        if not (a is ActionName.CLOSE and not state.objects[t].flag("isOpen"))
    }
    ordered = sorted(
        expected, key=lambda p: (round(state.distance_to(state.objects[p[1]]), 4), p[1], p[0].value)
    )
    anchor = _pose_anchor(state, sdt, focus)
    return ordered + [(ActionName.CROUCH, anchor), (ActionName.STAND, anchor)]


def nested_random_state(rng, sdt):
    """Random scene with receptacles nested in closed openables and an unknown type."""
    state = random_state(rng, sdt, max_objects=10)
    objects = list(state.objects.values())
    openables = [o for o in objects if sdt.get(o.type_name).has(AffordanceTag.OPENABLE)]
    # nest only into receptacles later in the list, so no containment cycle forms
    for i, obj in enumerate(objects):
        later = [o for o in openables if objects.index(o) > i]
        if later and rng.random() < 0.4:
            obj.parent_receptacle = rng.choice(later).object_id
    for obj in openables:
        obj.flags["isOpen"] = rng.random() < 0.3
    pos = (round(rng.uniform(-3, 3), 2), round(rng.uniform(0.0, 2.0), 2), 0.0)
    unicorn = ObjectInstance(
        object_id=format_object_id("Unicorn", pos),
        type_name="Unicorn",
        position=pos,
        flags={k: False for k in FLAG_NAMES},
        parent_receptacle=rng.choice([None] + [o.object_id for o in openables]),
    )
    state.objects[unicorn.object_id] = unicorn
    state.agent_crouched = rng.random() < 0.5
    return state


def pair_map_states(sdt, suite):
    rng = random.Random(41)
    for _ in range(150):
        yield random_state(rng, sdt, max_objects=8)
    for _ in range(150):
        yield nested_random_state(rng, sdt)
    for row in suite["tasks"]:
        for crouched in (False, True):
            state = scene_for_row(row, sdt).clone()
            state.agent_crouched = crouched
            yield state


def padded_state(sdt, suite, count=1000):
    state = scene_for_row(suite_row(suite, 9), sdt)
    rng = random.Random(7)
    while count:
        pos = tuple(round(rng.uniform(lo, hi), 2) for lo, hi in ((-9, 9), (0.0, 2.5), (-9, 9)))
        object_id = format_object_id("Statue", pos)
        if object_id in state.objects:
            continue
        state.objects[object_id] = ObjectInstance(
            object_id=object_id,
            type_name="Statue",
            position=pos,
            flags={k: False for k in FLAG_NAMES},
        )
        count -= 1
    return state


def test_pairs_match_brute_force_enumeration(sdt, suite, all_types):
    rng = random.Random(47)
    for state in pair_map_states(sdt, suite):
        assert build_action_pairs(state, sdt, all_types) == reference_pairs(state, sdt, all_types)
        relevant = set(rng.sample(sorted(all_types), 4))
        focus = rng.choice(list(state.objects) + [None])
        assert build_action_pairs(state, sdt, relevant, focus) == reference_pairs(
            state, sdt, relevant, focus
        )


def test_pairs_match_brute_force_in_padded_scene(sdt, suite, all_types):
    state = padded_state(sdt, suite)
    pairs = build_action_pairs(state, sdt, all_types)
    assert len(pairs) > 1000
    assert pairs == reference_pairs(state, sdt, all_types)
    relevant = relevant_types(suite_row(suite, 9)["task"], sdt)
    pairs = build_action_pairs(state, sdt, relevant)
    assert not any(type_of_id(t) == "Statue" for _, t in pairs)
    assert pairs == reference_pairs(state, sdt, relevant)


def test_closed_door_offers_no_close_pair(sdt, suite, all_types):
    state = scene_for_row(suite_row(suite, 14), sdt, injected=False)
    drawer = by_type(state, "Drawer").object_id
    assert not state.objects[drawer].flag("isOpen")
    pairs = build_action_pairs(state, sdt, all_types)
    assert (ActionName.OPEN, drawer) in pairs
    assert (ActionName.PUT, drawer) in pairs  # the opened view still offers what opening enables
    assert (ActionName.CLOSE, drawer) not in pairs
    state, _ = step(state, ConcreteAction(ActionName.OPEN, drawer), sdt)
    assert (ActionName.CLOSE, drawer) in build_action_pairs(state, sdt, all_types)


def test_pairs_deterministic_order(sdt, suite, all_types):
    state = scene_for_row(suite_row(suite, 9), sdt)
    assert build_action_pairs(state, sdt, all_types) == build_action_pairs(state, sdt, all_types)


# ---------------------------------------------------------------------------
# Failure query


def test_first_query_has_no_repeat_section(sdt, suite, all_types):
    state = scene_for_row(suite_row(suite, 9), sdt)
    history = not_visible_history(ActionTriplet(ActionName.PICKUP, "WineBottle"))
    query = build_failure_query("task", history, build_action_pairs(state, sdt, all_types))
    assert "## Do Not Repeat" not in query
    assert MSG_NOT_VISIBLE in query


def test_second_query_lists_prior_attempt_with_feedback(sdt, suite, all_types):
    state = scene_for_row(suite_row(suite, 9), sdt)
    history = not_visible_history(ActionTriplet(ActionName.PICKUP, "WineBottle"))
    fridge = by_type(state, "Fridge")
    history[-1].attempts.append(RecoveryAttempt(
        [ConcreteAction(ActionName.OPEN, fridge.object_id)], feedback="step still failing"
    ))
    query = build_failure_query("task", history, build_action_pairs(state, sdt, all_types))
    assert "## Do Not Repeat" in query
    assert f"(OpenObject,{fridge.object_id})" in query
    assert "step still failing" in query


def test_query_contains_verbatim_error_strings(sdt, suite, all_types):
    state = scene_for_row(suite_row(suite, 3), sdt)
    failed = HistoryEntry(
        ActionTriplet(ActionName.PUT, "Knife", "Drawer"),
        ActionOutcome.error("NoValidPosition", MSG_NO_VALID_POSITION),
        concrete=ConcreteAction(ActionName.PUT, by_type(state, "Drawer").object_id),
    )
    query = build_failure_query(
        "Place a rinsed knife inside a drawer.", [failed], build_action_pairs(state, sdt, all_types)
    )
    assert "No valid positions to place object found." in query


def pair_lines(history, pairs):
    body = prompts.sections(build_failure_query("task", history, pairs))[prompts.SEC_PAIRS]
    return pair_section_lines(body, pairs)


def _free(type_name, pos):
    return ObjectInstance(format_object_id(type_name, pos), type_name, pos,
                          {k: False for k in FLAG_NAMES})


def test_pose_pairs_join_the_line_of_an_anchor_listed_last(sdt, all_types):
    mug, counter = _free("Mug", (0.5, 0.9, 0.0)), _free("CounterTop", (3.0, 0.9, 0.0))
    state = WorldState({o.object_id: o for o in (mug, counter)}, (0.0, 0.9, 0.0))
    pairs = build_action_pairs(state, sdt, all_types, focus=mug.object_id)
    assert pairs[-1] == (ActionName.STAND, counter.object_id)
    first, last = pair_lines(not_visible_history(ActionTriplet(ActionName.PICKUP, "Mug")), pairs)
    assert first.startswith(f"- {mug.object_id}: GotoObject, ")
    assert last.startswith(f"- {counter.object_id}: GotoObject, ")
    assert last.endswith(", Crouch, Stand")


def test_pose_pairs_keep_their_own_line_when_the_anchor_is_listed_earlier(sdt, all_types):
    counter, mug = _free("CounterTop", (0.5, 0.9, 0.0)), _free("Mug", (3.0, 0.9, 0.0))
    state = WorldState({o.object_id: o for o in (mug, counter)}, (0.0, 0.9, 0.0))
    pairs = build_action_pairs(state, sdt, all_types, focus=mug.object_id)
    lines = pair_lines(not_visible_history(ActionTriplet(ActionName.PICKUP, "Mug")), pairs)
    assert [line.split(":")[0] for line in lines] == [
        f"- {counter.object_id}", f"- {mug.object_id}", f"- {counter.object_id}"
    ]
    assert lines[-1] == f"- {counter.object_id}: Crouch, Stand"


def test_pose_pairs_against_the_agent_when_no_receptacle_is_shown(sdt, all_types):
    mug = _free("Mug", (0.5, 0.9, 0.0))
    state = WorldState({mug.object_id: mug}, (0.0, 0.9, 0.0))
    pairs = build_action_pairs(state, sdt, all_types)
    lines = pair_lines(not_visible_history(ActionTriplet(ActionName.PICKUP, "Mug")), pairs)
    assert lines[-1] == "- Agent|+00.00|+00.90|+00.00: Crouch, Stand"
    assert len(lines) == 2


def test_a_single_pair_is_a_single_line():
    fridge = "Fridge|-01.30|+00.90|+00.99"
    history = not_visible_history(ActionTriplet(ActionName.PICKUP, "WineBottle"))
    assert pair_lines(history, [(ActionName.OPEN, fridge)]) == [f"- {fridge}: OpenObject"]


def _first_recovery_prompt(sdt, suite, before):
    """Row 9's scene: ``before`` steps run, then the hidden bottle's pickup fails;
    returns the first recovery prompt and the history."""
    state = scene_for_row(suite_row(suite, 9), sdt)
    plan = [ActionTriplet(a, ref) for a, ref in before]
    plan.append(ActionTriplet(ActionName.PICKUP, "WineBottle"))
    backend = ScriptedBackend(["[]"])
    recover = partial(
        resolve_failure, sdt=sdt, relevant=relevant_types("wine", sdt), backend=backend, budget=1
    )
    history = []
    execute_plan(plan, state, "task", sdt, backend, recover, history)
    assert history[len(before)].outcome.error_code == "NotVisible"
    (prompt,) = [p for p in backend.prompts if p.startswith(prompts.RECOVERY_HEADER)]
    return prompt, history


def test_recovery_prompt_without_earlier_steps_has_no_recent_actions(sdt, suite):
    prompt, _ = _first_recovery_prompt(sdt, suite, [])
    assert prompts.SEC_HISTORY not in prompt
    assert prompts.SEC_FAILED in prompt


def test_recovery_prompt_lists_the_five_steps_before_the_failure(sdt, suite):
    before = [(ActionName.GOTO, t) for t in ("Drawer", "Fridge", "DiningTable", "CounterTop")]
    before += [(ActionName.OPEN, "Drawer"), (ActionName.CLOSE, "Drawer")]
    prompt, history = _first_recovery_prompt(sdt, suite, before)
    shown = prompts.sections(prompt)[prompts.SEC_HISTORY].splitlines()
    assert shown == prompts.render_history_lines(history[1:6])
    assert prompts.render_history_lines(history[6:7])[0] not in shown


# ---------------------------------------------------------------------------
# Recovery loop


def _knife_in_full_drawer(sdt, suite):
    """Row 3's scene after the held knife's put into the full small drawer
    failed: the state, the failed step's entry and the knife."""
    state = scene_for_row(suite_row(suite, 3), sdt)
    knife = by_type(state, "Knife")
    small = min(
        (o for o in state.objects.values() if o.type_name == "Drawer"),
        key=lambda o: o.capacity,
    )
    state, _ = step(state, ConcreteAction(ActionName.PICKUP, knife.object_id), sdt)
    state, _ = step(state, ConcreteAction(ActionName.OPEN, small.object_id), sdt)
    put = ConcreteAction(ActionName.PUT, small.object_id)
    state, outcome = step(state, put, sdt)
    assert outcome.error_code == "NoValidPosition"
    failed = HistoryEntry(ActionTriplet(ActionName.PUT, "Knife", "Drawer"), outcome, concrete=put)
    return state, failed, knife


def test_knife_full_drawer_resolved_in_one_iteration(sdt, suite):
    row = suite_row(suite, 3)
    state, failed, knife = _knife_in_full_drawer(sdt, suite)
    state, status, iterations, attempts = resolve_failure(
        [failed], state, row["task"], sdt, relevant_types(row["task"], sdt), ScriptedOracle(),
        budget=5,
    )
    assert status == "Resolved"
    assert iterations == 1
    resolving = attempts[-1]
    assert [p.name for p in resolving.proposed] == [ActionName.OPEN, ActionName.PUT]
    alt = resolving.proposed[0].target
    assert type_of_id(alt) == "Drawer" and alt != failed.concrete.target
    assert state.objects[knife.object_id].parent_receptacle == alt


class ResetAt:
    """Passes each prompt to ``inner``, except the ``nth`` one whose layout
    header is ``header``: that one fails in transport."""

    def __init__(self, inner, header, nth):
        self.inner, self.header, self.left = inner, header, nth

    def complete(self, prompt):
        if prompt.startswith(self.header):
            self.left -= 1
            if self.left == 0:
                raise BackendError("connection reset")
        return self.inner.complete(prompt)


def test_a_backend_error_in_recovery_keeps_the_recovery_that_ran(sdt, suite):
    # Row 9's first attempt opens a drawer; the second recovery prompt fails.
    row = suite_row(suite, 9)
    backend = ResetAt(ScriptedOracle(), prompts.RECOVERY_HEADER, 2)
    report = run_task(row["task"], scene_for_row(row, sdt), sdt, backend, ABLATIONS["resolve"])
    assert report.status == "ExecutionFailed: connection reset"
    failed = report.history[-1]
    assert failed.outcome.error_code == "NotVisible"
    (attempt,) = failed.attempts
    assert [(c.render(), o.ok) for c, o in attempt.executed] == [
        ("(OpenObject,Drawer|+00.50|+00.82|+00.30)", True)
    ]
    assert report.final_state.objects["Drawer|+00.50|+00.82|+00.30"].flag("isOpen")


def test_an_attempt_cut_short_by_a_backend_error_keeps_its_executed_pairs(sdt, suite, all_types):
    # Opening the other drawer resolves nothing; re-grounding the put then asks
    # which drawer, and that prompt fails.
    state, failed, _ = _knife_in_full_drawer(sdt, suite)
    other = next(
        o.object_id for o in state.objects.values()
        if o.type_name == "Drawer" and o.object_id != failed.concrete.target
    )
    inner = ScriptedBackend([f"[(OpenObject,{other})]"])
    backend = ResetAt(inner, prompts.CHOICE_HEADER, 1)
    state, status, iterations, attempts = resolve_failure(
        [failed], state, "task", sdt, all_types, backend
    )
    assert (status, iterations) == ("ExecutionFailed: connection reset", 1)
    (attempt,) = attempts
    assert [(c, o.ok) for c, o in attempt.executed] == [
        (ConcreteAction(ActionName.OPEN, other), True)
    ]
    assert "connection reset" in attempt.feedback and not attempt.resolved
    assert state.objects[other].flag("isOpen")


def test_hidden_bottle_resolved_in_three_iterations(sdt, suite):
    """The drawer, the fridge, then the crouch: the nearer door first, since
    nothing in view says which one hides the bottle."""
    row = suite_row(suite, 9)
    state = scene_for_row(row, sdt)
    history = not_visible_history(ActionTriplet(ActionName.PICKUP, "WineBottle"))
    state, status, iterations, attempts = resolve_failure(
        history, state, row["task"], sdt, relevant_types(row["task"], sdt), ScriptedOracle(),
        budget=5,
    )
    assert status == "Resolved"
    assert iterations == 3
    assert [[(p.name, type_of_id(p.target)) for p in a.proposed] for a in attempts] == [
        [(ActionName.OPEN, "Drawer")], [(ActionName.OPEN, "Fridge")], [(ActionName.CROUCH, "Drawer")],
    ]
    # the failed pickup, re-executed after the crouch
    assert attempts[-1].executed[-1][0].name is ActionName.PICKUP
    assert state.held_object == by_type(state, "WineBottle").object_id


def test_memory_is_keyed_by_phase(sdt, suite):
    # One resolver serves the plan and a replan phase; both fail at index 0.
    row = suite_row(suite, 9)
    state = scene_for_row(row, sdt)
    relevant = relevant_types(row["task"], sdt)
    goto = next(
        (a, t) for a, t in build_action_pairs(state, sdt, relevant)
        if a is ActionName.GOTO and type_of_id(t) == "CounterTop"
    )
    backend = ScriptedBackend([f"[({goto[0].value},{goto[1]})]"])  # runs, resolves nothing
    recover = partial(resolve_failure, sdt=sdt, relevant=relevant, backend=backend, budget=1)
    plan = [ActionTriplet(ActionName.PICKUP, "WineBottle")]
    for phase in ("plan", "replan-1"):
        history = []
        _, status = execute_plan(
            plan, state, row["task"], sdt, backend, recover, history, phase=phase
        )
        assert status == "Aborted"
        attempt = history[-1].attempts[-1]
        assert attempt.executed, attempt.feedback
        assert "repeated sequence" not in attempt.feedback


@pytest.mark.parametrize("ablation", ["resolve", "replan"])
def test_no_failure_point_reaches_the_resolver_twice(sdt, suite, monkeypatch, ablation):
    # Each triplet of a phase's plan runs at most once, so one resolve_failure
    # call sees every attempt ever made at its failure point.
    seen = []

    real = resolver.resolve_failure

    def recording_resolve_failure(history, *args, **kwargs):
        seen.append((history[-1].phase, history[-1].triplet))
        return real(history, *args, **kwargs)

    monkeypatch.setattr(resolver, "resolve_failure", recording_resolve_failure)
    handled = 0
    for row in suite["tasks"]:
        seen.clear()
        report = run_row(row, sdt, ablation=ablation)
        plans = {"plan": report.plan}
        plans.update((f"replan-{k}", p) for k, p in enumerate(report.replan_additions, start=1))
        points = [
            (phase, next(i for i, t in enumerate(plans[phase]) if t is triplet))
            for phase, triplet in seen
        ]
        assert len(points) == len(set(points)), (row["id"], points)
        handled += len(points)
    assert handled >= len(suite["tasks"]) // 2


class RepeatingBackend:
    """Adversarial: proposes once, then repeats that proposal forever."""

    name = "adversarial"
    deterministic = True

    def __init__(self, rng, pair_pool):
        self.reply = None
        self.rng = rng
        self.pair_pool = pair_pool

    def complete(self, prompt: str) -> str:
        if self.reply is None:
            action, target = self.rng.choice(self.pair_pool)
            self.reply = f"[({action.value},{target})]"
        return self.reply


def test_adversarial_repeats_blocked_and_budget_respected(sdt, all_types):
    rng = random.Random(53)
    runs = 0
    while runs < 100:
        state = random_state(rng, sdt, max_objects=6)
        pairs = [p for p in build_action_pairs(state, sdt, all_types)]
        if not pairs:
            continue
        runs += 1
        backend = RepeatingBackend(rng, pairs)
        history = not_visible_history(ActionTriplet(ActionName.PICKUP, "Unicorn"))
        _, status, iterations, attempts = resolve_failure(
            history, state, "task", sdt, all_types, backend, budget=4
        )
        assert iterations <= 4
        executed = [tuple(a.proposed) for a in attempts if a.executed]
        assert len(executed) == len(set(executed))  # nothing ran twice
        assert status in ("Resolved", "Exhausted")


def test_repeated_sequence_rejected_and_listed_once(sdt, suite):
    # The goto runs and resolves nothing; a later proposal repeats it, right
    # after it or after a reply that proposes nothing parseable.
    row = suite_row(suite, 9)
    state = scene_for_row(row, sdt)
    relevant = relevant_types(row["task"], sdt)
    goto = next(
        (a, t) for a, t in build_action_pairs(state, sdt, relevant)
        if a is ActionName.GOTO and type_of_id(t) == "CounterTop"
    )
    sequence = f"[({goto[0].value},{goto[1]})]"
    for replies in ([sequence, sequence, "[]"], [sequence, "no pairs here", sequence, "[]"]):
        backend = ScriptedBackend(replies)
        history = not_visible_history(ActionTriplet(ActionName.PICKUP, "WineBottle"))
        _, status, iterations, attempts = resolve_failure(
            history, state, row["task"], sdt, relevant, backend, budget=len(replies)
        )
        assert (status, iterations) == ("Exhausted", len(replies))
        assert attempts is history[-1].attempts
        first, repeat = attempts[0], attempts[-2]
        assert first.executed and all(o.ok for _, o in first.executed)
        assert not first.resolved
        assert repeat.feedback == "repeated sequence; rejected"
        assert repeat.executed == []
        listed = prompts.sections(backend.prompts[-1])[prompts.SEC_NO_REPEAT].splitlines()
        assert listed == [f"- {sequence} => {first.feedback}"]


def test_invalid_pairs_rejected_without_execution(sdt, suite, all_types):
    state = scene_for_row(suite_row(suite, 9), sdt)

    class BogusBackend:
        name = "bogus"
        deterministic = True

        def complete(self, prompt):
            return "[(SliceObject,Fridge|-01.30|+00.90|+00.99)]"

    history = not_visible_history(ActionTriplet(ActionName.PICKUP, "WineBottle"))
    _, status, iterations, attempts = resolve_failure(
        history, state, "task", sdt, all_types, BogusBackend(), budget=2
    )
    assert status == "Exhausted"
    assert iterations == 2
    assert attempts[0].feedback.startswith("invalid pair")
    assert attempts[0].executed == []


@pytest.mark.parametrize("second, admitted", [(ActionName.CLOSE, True), (ActionName.OPEN, False)])
def test_later_pairs_admitted_against_the_state_they_run_in(sdt, suite, all_types, second, admitted):
    # Opening the closed fridge admits closing it and no longer admits opening it.
    state = scene_for_row(suite_row(suite, 9), sdt)
    fridge = by_type(state, "Fridge").object_id
    assert not state.objects[fridge].flag("isOpen")
    backend = ScriptedBackend([f"[(OpenObject,{fridge}),({second.value},{fridge})]"])
    history = not_visible_history(ActionTriplet(ActionName.PICKUP, "WineBottle"))
    _, _, _, attempts = resolve_failure(history, state, "task", sdt, all_types, backend, budget=1)
    on_fridge = [(c, o) for c, o in attempts[0].executed if c.target == fridge]
    expected = [ConcreteAction(ActionName.OPEN, fridge)] + admitted * [ConcreteAction(second, fridge)]
    assert [c for c, _ in on_fridge] == expected
    assert all(o.ok for _, o in on_fridge)
    assert attempts[0].feedback.startswith("executed" if admitted else "invalid pair")


def test_executed_recovery_actions_are_affordance_valid(sdt, suite):
    from sdtplan.sdt import AffordanceTag

    required = {
        ActionName.PICKUP: AffordanceTag.PICKUPABLE,
        ActionName.PUT: AffordanceTag.RECEPTACLE,
        ActionName.OPEN: AffordanceTag.OPENABLE,
        ActionName.CLOSE: AffordanceTag.OPENABLE,
        ActionName.TOGGLE_ON: AffordanceTag.TOGGLEABLE,
        ActionName.TOGGLE_OFF: AffordanceTag.TOGGLEABLE,
        ActionName.SLICE: AffordanceTag.SLICEABLE,
    }
    for task_id in (3, 9, 12):
        row = suite_row(suite, task_id)
        from conftest import run_row

        report = run_row(row, sdt)
        assert report.success
        for entry in report.history:
            for attempt in entry.attempts:
                for concrete, outcome in attempt.executed:
                    if concrete.name in POSE_ACTIONS or not outcome.ok:
                        continue
                    tag = required.get(concrete.name)
                    if tag is None or concrete.target is None:
                        continue
                    type_name = type_of_id(concrete.target)
                    assert tag in sdt.get(type_name).affordances, (concrete.render(), tag)
