"""Context-aware failure resolver: action pairs, failure queries, recovery loop.

On an execution error the resolver builds the action-pair map (the action
filter over the task-relevant objects in the current view, widened by pose
and door counterfactuals so suggestions like "crouch, then pick it up" are
expressible), queries the backend, validates and executes the suggested
pair sequence. The attempts of one call are the failure point's adaptive
memory: every recovery query lists the sequences tried so far with their
feedback, and a sequence proposed again is rejected without running.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import AbstractSet, Optional

from . import prompts
from .backends import LLMBackend, complete_text
from .errors import GrammarError, NoCandidate
from .interpreter import (
    FailureContext,
    RecoveryAttempt,
    postcondition_satisfied,
    ref_instances,
    resolve,
)
from .planner import shown_objects
from .sdt import SDT, ActionName, POSE_ACTIONS
from .triplets import ActionTriplet, format_recovery, parse_recovery
from .world import (
    ConcreteAction,
    ObjectInstance,
    WorldState,
    container_chain_open,
    filter_actions,
    format_object_id,
    in_sight,
    is_closed_openable,
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
    """``obj`` as it appears across the four counterfactual views.

    The views cross the current and the toggled pose with the doors as they
    are and every closed openable opened. A pose only selects a view band,
    so the union takes either band. Opening the doors shows what their
    containers hide and shows each closed openable with isOpen=True; a
    closed openable keeps its as-is form only while its own container chain
    is open as it is.
    """
    if not in_sight(state, obj, either_pose=True):
        return []
    as_is = container_chain_open(state, obj)
    # A chain that only opens with the doors opened holds a closed openable,
    # so the doors-opened views exist whenever this second walk matters.
    if not as_is and not container_chain_open(state, obj, sdt):
        return []
    if not is_closed_openable(sdt, obj):
        return [obj]
    opened = dataclasses.replace(obj, flags={**obj.flags, "isOpen": True})
    return [obj, opened] if as_is else [opened]


def _undoes_view(state: WorldState, action: ActionName, object_id: str) -> bool:
    """Closing a door that is open only in the doors-opened view: the view
    offers the pair, but no state it stands for can run it."""
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

    The map covers the objects of the ``relevant`` types, the receptacles
    and the focus object. Object pairs come from the action filter over the
    union of counterfactual views (pose toggled, closed doors opened) so one
    enabling action ahead is visible to the model, less the pairs that only
    undo a view's own change; pose pairs are appended against the focus
    object's nearest receptacle.
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
    ctx: FailureContext,
    pairs: list[tuple[ActionName, str]],
    tried: dict[tuple[ConcreteAction, ...], str],
) -> str:
    """Recovery prompt; ``tried`` maps each sequence proposed so far for this
    failure to its feedback, listed in proposal order. Each run of pairs with
    one target is one line, ``- <id>: <action>, ...``; Recent Actions lists
    only the steps before the failed one, and is left out when there are none.
    """
    grounded = ctx.failed_concrete.render() if ctx.failed_concrete is not None else "-"
    attempted = [f"- {format_recovery(seq)} => {fb}" for seq, fb in tried.items()]
    return prompts.render(prompts.RECOVERY_HEADER, [
        (prompts.SEC_ERROR, [f'{ctx.outcome.error_code}: "{ctx.outcome.message}"']),
        (prompts.SEC_FAILED, [f"Triplet: {ctx.failed_triplet.render()}", f"Grounded: {grounded}"]),
        (prompts.SEC_TASK, [ctx.task]),
        (prompts.SEC_HISTORY, prompts.render_history_lines(ctx.history_tail[:-1]) or None),
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
    ctx: FailureContext,
    state: WorldState,
    sdt: SDT,
    backend: LLMBackend,
    attempt: RecoveryAttempt,
) -> tuple[WorldState, bool, str]:
    """Retry the failed triplet against the recovered state."""
    try:
        concrete = resolve(ctx.failed_triplet, state, ctx.task, ctx.history_tail, sdt, backend)
    except NoCandidate:
        return state, False, "target still has no candidate instance"
    new_state, outcome = step(state, concrete, sdt)
    attempt.executed.append((concrete, outcome))
    if outcome.ok:
        return new_state, True, "resolved by re-executing the failed step"
    return state, False, f"step still failing: {outcome.message}"


def resolve_failure(
    ctx: FailureContext,
    state: WorldState,
    sdt: SDT,
    relevant: AbstractSet[str],
    backend: LLMBackend,
    budget: int = DEFAULT_BUDGET,
) -> tuple[WorldState, str, int, list[RecoveryAttempt]]:
    """Iterate query -> validate -> execute -> record until resolved or spent.

    The pair map covers the ``relevant`` types, the types the failed
    triplet names and its grounded target. A pair runs only if it is in the
    pair map of the state it runs in: the first pair's is the map its prompt
    listed, and each later pair's is rebuilt after its predecessor, so
    enabling actions (open the alternate drawer, crouch) legitimize their
    successors. A sequence already tried for this failure is rejected unrun.
    Returns the state, "Resolved" or "Exhausted", the iterations run (one
    attempt each) and the attempts.
    """
    attempts: list[RecoveryAttempt] = []
    tried: dict[tuple[ConcreteAction, ...], str] = {}
    mapped = relevant | _reference_types(ctx.failed_triplet)
    focus = None
    if ctx.failed_concrete is not None and ctx.failed_concrete.target is not None:
        focus = ctx.failed_concrete.target

    def pair_map(state: WorldState) -> list[tuple[ActionName, str]]:
        return build_action_pairs(state, sdt, mapped, focus=focus or _focus_from_ref(state, ctx))

    for _ in range(budget):
        pairs = pair_map(state)
        query = build_failure_query(ctx, pairs, tried)
        try:
            sequence = parse_recovery(complete_text(backend, query))
        except GrammarError as exc:
            attempts.append(RecoveryAttempt(proposed=[], feedback=f"unparseable proposal: {exc}"))
            continue
        attempt = RecoveryAttempt(proposed=sequence)
        attempts.append(attempt)
        if not sequence:  # the backend says nothing applies; asking again would repeat it
            attempt.feedback = "empty proposal"
            break
        if tuple(sequence) in tried:
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
        if postcondition_satisfied(state, ctx.failed_triplet):
            feedback += "; resolved"
            attempt.resolved = True
        elif attempt.executed and all(o.ok for _, o in attempt.executed):
            state, attempt.resolved, note = _reexecute_failed(ctx, state, sdt, backend, attempt)
            feedback = f"{feedback}; {note}"
        attempt.feedback = feedback
        tried[tuple(sequence)] = feedback
        if attempt.resolved:
            return state, "Resolved", len(attempts), attempts
    return state, "Exhausted", len(attempts), attempts


def _reference_types(triplet: ActionTriplet) -> set[str]:
    """Types the triplet's references name, with the sliced derivatives they also ground to."""
    out = set()
    for ref in (triplet.arg1, triplet.arg2):
        if ref is not None:
            type_name = type_of_id(ref)
            out |= {type_name, f"{type_name}Sliced"}
    return out


def _focus_from_ref(state: WorldState, ctx: FailureContext) -> Optional[str]:
    """Nearest instance matching the failed primary reference, visible or not."""
    ref = ctx.failed_triplet.arg1
    matches = ref_instances(state, ref, include_sliced=True)
    if not matches:
        return None
    return min(matches, key=lambda o: (state.distance_to(o), o.object_id)).object_id
