"""Context-aware failure resolver: action pairs, failure queries, recovery loop.

On an execution error the resolver builds the action-pair map (the action
filter over the task-relevant objects in the current view, each visible
closed door also in its opened form so "open it, then put into it" is
expressible, then the pose pairs), queries the backend, validates and
executes the suggested pair sequence. The failed step's history entry is
the failure point's adaptive memory: each attempt is filed in its
``attempts``, every recovery query lists the sequences tried so far with
their feedback, and a sequence proposed again is rejected without running.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import AbstractSet, Optional

from . import prompts
from .backends import LLMBackend, complete_text
from .errors import GrammarError, SdtPlanError
from .interpreter import (
    HISTORY_TAIL,
    HistoryEntry,
    RecoveryAttempt,
    postcondition_satisfied,
    resolve,
)
from .planner import shown_objects
from .sdt import SDT, ActionName, POSE_ACTIONS
from .triplets import ActionTriplet, GoalCondition, format_recovery, parse_recovery
from .world import (
    ConcreteAction,
    ObjectInstance,
    WorldState,
    filter_actions,
    format_object_id,
    is_closed_openable,
    is_visible,
    object_descriptions,  # noqa: F401  (not called here; bench/tracer.py wraps this binding)
    step,
    type_of_id,
)

DEFAULT_BUDGET = 5


# ---------------------------------------------------------------------------
# Action pair map


#: Actions offered against scene objects; pose pairs are appended apart.
_OBJECT_ACTIONS = tuple(a for a in ActionName if a not in POSE_ACTIONS)


def _view_descriptions(
    state: WorldState, sdt: SDT, obj: ObjectInstance
) -> list[ObjectInstance]:
    """``obj`` as the agent sees it now: nothing when it is not visible, and a
    visible closed openable both as it is and opened (isOpen=True), so the
    pairs one opening enables are offered. The opened form shows the door
    alone, never what it hides.
    """
    if not is_visible(state, obj):
        return []
    if not is_closed_openable(sdt, obj):
        return [obj]
    return [obj, dataclasses.replace(obj, flags={**obj.flags, "isOpen": True})]


def _undoes_view(state: WorldState, action: ActionName, object_id: str) -> bool:
    """Closing a door that is open only in its opened form: the form offers
    the pair, but the state cannot run it."""
    return action is ActionName.CLOSE and not state.objects[object_id].flag("isOpen")


def _pose_anchor(state: WorldState, sdt: SDT, focus: Optional[str]) -> str:
    """Receptacle id the pose suggestions are presented against."""
    if focus is not None and focus in state.objects:
        origin = state.objects[focus].position
    else:
        origin = state.agent_position
    receptacles = state.of_types(sdt.receptacle_types)
    if not receptacles:
        return format_object_id("Agent", state.agent_position)
    best = min(receptacles, key=lambda o: (math.dist(origin, o.position), o.object_id))
    return best.object_id


def build_action_pairs(
    state: WorldState, sdt: SDT, relevant: AbstractSet[str], focus: Optional[str] = None
) -> list[tuple[ActionName, str]]:
    """Deterministically ordered action-pair map for recovery prompts.

    The map covers the visible objects of the ``relevant`` types, the
    receptacles and the focus object. Object pairs come from the action
    filter over what the agent sees now, each visible closed door also in
    its opened form (see ``_view_descriptions``), less the ``CloseObject``
    pairs that only that form admits; pose pairs are appended against the
    receptacle nearest the focus object, or the agent when there is none.
    """
    views = [
        v
        for obj in shown_objects(state, sdt, relevant, {focus})
        for v in _view_descriptions(state, sdt, obj)
    ]
    pairs = [
        p for p in filter_actions(sdt, views, _OBJECT_ACTIONS) if not _undoes_view(state, *p)
    ]
    ordered = sorted(
        pairs,
        key=lambda p: (
            round(state.distance_to(state.objects[p[1]]), 4),
            p[1],
            p[0].value,
        ),
    )
    anchor = _pose_anchor(state, sdt, focus)
    ordered.append((ActionName.CROUCH, anchor))
    ordered.append((ActionName.STAND, anchor))
    return ordered


# ---------------------------------------------------------------------------
# Failure query


def build_failure_query(
    task: str, history: list[HistoryEntry], pairs: list[tuple[ActionName, str]]
) -> str:
    """Recovery prompt for the failed step, ``history``'s last entry. Do Not
    Repeat lists each sequence its attempts proposed once, in proposal order,
    with the feedback of its first attempt. Each run of pairs with one target
    is one line, ``- <id>: <action>, ...``; Recent Actions lists up to
    ``HISTORY_TAIL`` steps before the failed one, and is left out when there
    are none.
    """
    failed = history[-1]
    grounded = failed.concrete.render() if failed.concrete is not None else "-"
    listed: dict[tuple[ConcreteAction, ...], str] = {}
    for attempt in failed.attempts:
        if attempt.proposed:
            listed.setdefault(tuple(attempt.proposed), attempt.feedback)
    attempted = [f"- {format_recovery(seq)} => {fb}" for seq, fb in listed.items()]
    return prompts.render(prompts.RECOVERY_HEADER, [
        (prompts.SEC_ERROR, [f'{failed.outcome.error_code}: "{failed.outcome.message}"']),
        (prompts.SEC_FAILED, [f"Triplet: {failed.triplet.render()}", f"Grounded: {grounded}"]),
        (prompts.SEC_TASK, [task]),
        (prompts.SEC_HISTORY, prompts.render_history_lines(history[-HISTORY_TAIL - 1:-1]) or None),
        (prompts.SEC_PAIRS, [
            f"- {object_id}: {', '.join(action.value for action, _ in run)}"
            for object_id, run in itertools.groupby(pairs, key=lambda pair: pair[1])
        ]),
        (prompts.SEC_NO_REPEAT, attempted or None),
        (prompts.SEC_OUTPUT, [
            "Reply with candidate pairs in order as [(Action,id),...], or [] if nothing applies."
        ]),
    ])


# ---------------------------------------------------------------------------
# Recovery loop


def _reexecute_failed(
    task: str,
    history: list[HistoryEntry],
    state: WorldState,
    sdt: SDT,
    backend: LLMBackend,
    attempt: RecoveryAttempt,
    goal: Optional[GoalCondition],
) -> tuple[WorldState, bool, str]:
    """Retry the failed triplet, ``history``'s last entry, against the
    recovered state, grounding it against the run's ``goal`` as
    ``execute_plan`` does."""
    concrete = resolve(history[-1].triplet, state, task, history, sdt, backend, goal)
    if concrete is None:
        return state, False, "target still has no candidate instance"
    new_state, outcome = step(state, concrete, sdt)
    attempt.executed.append((concrete, outcome))
    if outcome.ok:
        return new_state, True, "resolved by re-executing the failed step"
    return state, False, f"step still failing: {outcome.message}"


def resolve_failure(
    history: list[HistoryEntry],
    state: WorldState,
    task: str,
    sdt: SDT,
    relevant: AbstractSet[str],
    backend: LLMBackend,
    budget: int = DEFAULT_BUDGET,
    goal: Optional[GoalCondition] = None,
) -> tuple[WorldState, str, int, list[RecoveryAttempt]]:
    """Iterate query -> validate -> execute -> record until resolved or spent.

    The failed step is ``history``'s last entry, and each attempt is
    appended to its ``attempts``. The pair map covers what the agent sees
    of the ``relevant`` types, the types the failed triplet names and its
    grounded target, which also anchors the pose pairs. A
    pair runs only if it is in the pair map of the state it runs in: the
    first pair's is the map its prompt listed, and each later pair's is
    rebuilt after its predecessor, so enabling actions (open the alternate
    drawer, crouch) legitimize their successors. A sequence already tried for
    this failure is rejected unrun. A proposal that runs without resolving
    the failure re-executes the failed triplet, grounded against the run's
    ``goal``. A backend error ends the recovery with status
    "ExecutionFailed: ..." and the state the executed pairs reached; the
    attempt it cuts short keeps what ran. Returns the state, "Resolved",
    "Exhausted" or that status, the iterations run (one attempt each) and
    the attempts.
    """
    failed = history[-1]
    attempts = failed.attempts
    mapped = relevant | _reference_types(failed.triplet)
    focus = failed.concrete.target if failed.concrete is not None else None

    def pair_map(state: WorldState) -> list[tuple[ActionName, str]]:
        return build_action_pairs(state, sdt, mapped, focus=focus)

    try:
        for _ in range(budget):
            pairs = pair_map(state)
            query = build_failure_query(task, history, pairs)
            try:
                sequence = parse_recovery(complete_text(backend, query))
            except GrammarError as exc:
                attempts.append(RecoveryAttempt([], feedback=f"unparseable proposal: {exc}"))
                continue
            repeated = any(a.proposed == sequence for a in attempts)
            attempt = RecoveryAttempt(proposed=sequence)
            attempts.append(attempt)
            if not sequence:  # the backend says nothing applies; asking again would repeat it
                attempt.feedback = "empty proposal"
                break
            if repeated:
                attempt.feedback = "repeated sequence; rejected"
                continue
            feedback = "executed"
            for index, pair in enumerate(sequence):
                if index:
                    pairs = pair_map(state)
                if (pair.name, pair.target) not in pairs:
                    feedback = f"invalid pair {pair.render()}"
                    break
                # a pose pair names its anchor only for the prompt; the pose targets nothing
                concrete = ConcreteAction(pair.name) if pair.name in POSE_ACTIONS else pair
                state_after, outcome = step(state, concrete, sdt)
                attempt.executed.append((concrete, outcome))
                if not outcome.ok:
                    feedback = f"recovery action failed: {outcome.message}"
                    break
                state = state_after
            if postcondition_satisfied(state, failed.triplet):
                feedback += "; resolved"
                attempt.resolved = True
            elif attempt.executed and all(o.ok for _, o in attempt.executed):
                state, attempt.resolved, note = _reexecute_failed(
                    task, history, state, sdt, backend, attempt, goal
                )
                feedback = f"{feedback}; {note}"
            attempt.feedback = feedback
            if attempt.resolved:
                return state, "Resolved", len(attempts), attempts
    except SdtPlanError as exc:  # a backend failure ends the recovery; what ran so far stays
        if attempts and not attempts[-1].feedback:
            attempts[-1].feedback = f"cut short: {exc}"
        return state, f"ExecutionFailed: {exc}", len(attempts), attempts
    return state, "Exhausted", len(attempts), attempts


def _reference_types(triplet: ActionTriplet) -> set[str]:
    """Types the triplet's references name, with the sliced derivatives they also ground to."""
    out = set()
    for ref in (triplet.arg1, triplet.arg2):
        if ref is not None:
            type_name = type_of_id(ref)
            out |= {type_name, f"{type_name}Sliced"}
    return out
