"""Action interpretation engine: grounds abstract triplets and executes them.

Grounding first keeps the candidates the SDT admits for the action: those
that pass every object-local gate of ``world.ACTION_GATES`` (the affordance
and the object's own flags). It is local (zero backend calls) in three
cases: that leaves one candidate; the candidates are interchangeable; or
the plan's goal settles the choice, one candidate meeting more of its goal
clause than any other. Otherwise it asks the backend with a context query
over the admitted candidates.
Every triplet's postcondition is checked before execution, so a step whose
outcome already holds (typically because a recovery sequence produced it)
is skipped rather than re-run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from . import prompts
from .backends import LLMBackend, ask
from .errors import GrammarError, PlanParseError, SdtPlanError
from .sdt import FLAG_ACTIONS, SDT, ActionName
from .triplets import ActionTriplet, GoalCondition, clause_conjuncts
from .world import (
    ActionOutcome,
    ConcreteAction,
    MSG_NOT_VISIBLE,
    ObjectInstance,
    WorldState,
    condition_fn,
    is_valid_object_id,
    is_visible,
    object_descriptions,  # noqa: F401  (not called here; bench/tracer.py wraps this binding)
    step,
    type_of_id,
)

HISTORY_TAIL = 5
_CHOICE_RE = re.compile(r"CHOICE:\{([^{}]*)\}")
_CHOICE_REMINDER = "\n\nFORMAT REMINDER: choose ids from the candidate lists only."


@dataclass
class RecoveryAttempt:
    """One resolver iteration: proposal, what actually ran, and its feedback."""

    proposed: list[ConcreteAction]
    executed: list[tuple[ConcreteAction, ActionOutcome]] = field(default_factory=list)
    feedback: str = ""
    resolved: bool = False

    def to_json(self) -> dict:
        return {
            "proposed": [p.render() for p in self.proposed],
            "executed": [
                {"action": c.render(), "status": o.status, "message": o.message}
                for c, o in self.executed
            ],
            "feedback": self.feedback,
            "resolved": self.resolved,
        }


@dataclass
class HistoryEntry:
    """One step of a run and its outcome; a skipped step's is a success, "already satisfied"."""

    triplet: ActionTriplet
    outcome: ActionOutcome
    phase: str = "plan"
    concrete: Optional[ConcreteAction] = None
    skipped: bool = False
    attempts: list[RecoveryAttempt] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "triplet": self.triplet.render(),
            "phase": self.phase,
            "concrete": self.concrete.render() if self.concrete else None,
            "outcome": {
                "status": self.outcome.status,
                "error_code": self.outcome.error_code,
                "message": self.outcome.message,
            },
            "skipped": self.skipped,
            "attempts": [a.to_json() for a in self.attempts],
        }


# ---------------------------------------------------------------------------
# Candidates and grounding


def _matches_ref(obj, ref: str, include_sliced: bool) -> bool:
    if obj.object_id == ref:
        return True
    if obj.type_name == ref:
        return True
    return include_sliced and obj.type_name == f"{ref}Sliced"


def ref_instances(state: WorldState, ref: str, include_sliced: bool) -> list[ObjectInstance]:
    """The records ``_matches_ref`` accepts, in no particular order."""
    types = {ref, f"{ref}Sliced"} if include_sliced else {ref}
    found = state.of_types(types)
    obj = state.objects.get(ref)
    if obj is not None and obj.type_name not in types:
        found.append(obj)
    return found


def candidate_instances(
    state: WorldState, ref: str, action: Optional[ActionName] = None
) -> list[str]:
    """Instance ids a reference may ground to, nearest first.

    A full id is a singleton (when present). A type name matches visible
    instances of the type; outside slicing contexts the sliced-derivative
    type joins in.
    """
    if is_valid_object_id(ref):
        return [ref] if ref in state.objects else []
    include_sliced = action is not ActionName.SLICE
    out = [o for o in ref_instances(state, ref, include_sliced) if is_visible(state, o)]
    out.sort(key=lambda o: (state.distance_to(o), o.object_id))
    return [o.object_id for o in out]


def _build_choice_query(
    triplet: ActionTriplet, task: str, state: WorldState, history: list[HistoryEntry],
    ref: str, ids: list[str],
) -> str:
    """The candidates carry their state; the state section adds what a choice
    also weighs, where visible: what each candidate holds and the receptacle
    each sits in. Of the last ``HISTORY_TAIL`` steps, the recent actions keep
    those whose target is a candidate or one of these. Each section is left
    out when it has nothing to show."""
    around = {state.objects[i].parent_receptacle for i in ids} | {
        o.object_id for i in ids for o in state.contents_of(i)
    }
    around -= {None, *ids}
    shown = around | set(ids)
    recent = [e for e in history[-HISTORY_TAIL:] if e.concrete and e.concrete.target in shown]
    return prompts.render(prompts.CHOICE_HEADER, [
        (prompts.SEC_TASK, [task]),
        (prompts.SEC_STEP, [f"Grounding: {triplet.render()}", f"Resolve: {ref}"]),
        (prompts.SEC_HISTORY, prompts.render_history_lines(recent) or None),
        (prompts.SEC_CANDIDATES, [prompts.STATE_LEGEND, f"{ref}:", *(
            prompts.render_state_line(state, state.objects[object_id], f"  {k}.")
            for k, object_id in enumerate(ids, start=1)
        )]),
        (prompts.SEC_STATE, [
            prompts.render_state_line(state, obj)
            for obj in (state.objects[i] for i in sorted(around)) if is_visible(state, obj)
        ] or None),
        (prompts.SEC_OUTPUT, ["Reply with one line: CHOICE:{" + ref + "-><id>}"]),
    ])


def _parse_choice(text: str) -> dict[str, str]:
    m = _CHOICE_RE.search(text)
    if m is None:
        return {}
    out = {}
    for part in m.group(1).split(","):
        if "->" not in part:
            continue
        ref, object_id = part.split("->", 1)
        out[ref.strip()] = object_id.strip()
    return out


def _interchangeable(state: WorldState, ids: list[str]) -> bool:
    """True when the candidates differ in their ids alone and hold nothing
    (in practice, fresh sibling slices), so every pick is the same pick."""
    first = state.objects[ids[0]]
    return all(
        replace(state.objects[i], object_id=first.object_id) == first and not state.contents_of(i)
        for i in ids
    )


def _goal_best(state: WorldState, goal: Optional[GoalCondition], ids: list[str]) -> Optional[str]:
    """The one candidate that meets the most of its goal clause's treatment
    conjuncts (flags and temperature), then the most conjuncts in all, the
    receptacle included; None when the goal does not single one out.

    Nothing is ranked when a candidate's type is not the type of exactly one
    goal clause: a type the goal does not name (a receptacle, the unsliced
    type a slicing step names) says nothing, and with two clauses of a type
    the step may serve either.
    """
    if goal is None:
        return None
    scores = []
    for object_id in ids:
        obj = state.objects[object_id]
        clauses = [c for c in goal.clauses if c.object_type == obj.type_name]
        if len(clauses) != 1:
            return None
        met = [need for need, ok in clause_conjuncts(state, clauses[0], obj) if ok]
        treated = sum(not need.startswith("in:") for need in met)
        scores.append(((treated, len(met)), object_id))
    scores.sort(reverse=True)
    (best, object_id), (runner_up, _) = scores[:2]
    return object_id if best > runner_up else None


def resolve(
    triplet: ActionTriplet,
    state: WorldState,
    task: str,
    history: list[HistoryEntry],
    sdt: SDT,
    backend: LLMBackend,
    goal: Optional[GoalCondition] = None,
) -> Optional[ConcreteAction]:
    """Ground one triplet to a concrete action.

    None when the reference has no instance; the caller surfaces that to
    the failure resolver as a visibility failure. The candidates
    narrow to those ``condition_fn`` admits, which is none of a type the
    knowledge base lacks; when it admits none they all stay, so the step fails
    with the simulator's refusal. The gates that read the state (visibility,
    the hand, room) are left to ``step``. Three cases ground with no backend
    call: one candidate, or interchangeable ones, ground to the nearest; and
    a candidate that meets more of the ``goal`` than every other (see
    ``_goal_best``) is taken. Otherwise the backend chooses; a choice
    outside the candidate list is retried once, then the nearest candidate
    is used.
    """
    ref = triplet.target_ref
    if ref is None:
        return ConcreteAction(name=triplet.action, target=None)
    ids = candidate_instances(state, ref, triplet.action)
    if not ids:
        return None
    ids = [i for i in ids if condition_fn(sdt, state.objects[i], triplet.action)] or ids
    if len(ids) == 1 or _interchangeable(state, ids):
        return ConcreteAction(name=triplet.action, target=ids[0])
    best = _goal_best(state, goal, ids)
    if best is not None:
        return ConcreteAction(name=triplet.action, target=best)

    def parse_pick(reply: str) -> str:
        pick = _parse_choice(reply).get(ref)
        if pick not in ids:
            raise GrammarError(f"choice outside the candidate list: {pick!r}")
        return pick

    query = _build_choice_query(triplet, task, state, history, ref, ids)
    try:
        target = ask(backend, query, parse_pick, _CHOICE_REMINDER)
    except PlanParseError:
        target = ids[0]  # nearest fallback
    return ConcreteAction(name=triplet.action, target=target)


# ---------------------------------------------------------------------------
# Postconditions


def _any_instance(state: WorldState, ref: str, include_sliced: bool, predicate) -> bool:
    return any(predicate(obj) for obj in ref_instances(state, ref, include_sliced))


def postcondition_satisfied(state: WorldState, triplet: ActionTriplet) -> bool:
    """True when the world already exhibits the triplet's intended outcome."""
    action = triplet.action
    if action is ActionName.CROUCH:
        return state.agent_crouched
    if action is ActionName.STAND:
        return not state.agent_crouched
    if action is ActionName.GOTO:
        return False  # navigation is always re-run
    ref = triplet.arg1
    if action is ActionName.PICKUP:
        if state.held_object is None:
            return False
        return _matches_ref(state.objects[state.held_object], ref, include_sliced=True)
    if action is ActionName.PUT:
        if triplet.arg2 is None:
            return False  # single-ref put: intent unknown, always execute
        if state.held_object is not None and _matches_ref(
            state.objects[state.held_object], ref, include_sliced=True
        ):
            return False  # the thing is still in hand

        def placed(obj) -> bool:
            parent = state.objects.get(obj.parent_receptacle or "")
            return parent is not None and _matches_ref(parent, triplet.arg2, include_sliced=False)

        return _any_instance(state, ref, True, placed)
    _, flag, value = FLAG_ACTIONS[action]
    if _any_instance(state, ref, False, lambda o: o.flag(flag) == value):
        return True
    # slicing consumes the object: slices of the type the reference names are what is left
    return action is ActionName.SLICE and bool(state.of_types({f"{type_of_id(ref)}Sliced"}))


# ---------------------------------------------------------------------------
# Execution loop


def execute_plan(
    plan: list[ActionTriplet],
    state: WorldState,
    task: str,
    sdt: SDT,
    backend: LLMBackend,
    recover: Callable[[list[HistoryEntry], WorldState, str], tuple],
    history: list[HistoryEntry],
    phase: str = "plan",
    goal: Optional[GoalCondition] = None,
) -> tuple[WorldState, str]:
    """Run triplets in order, appending each step to ``history`` and grounding
    it against the run's ``goal``; errors go to ``recover``.

    ``recover(history, state, task)`` is called with the failed step's entry
    last in ``history`` and returns what ``resolver.resolve_failure`` does:
    the state, "Resolved" or another status, the iterations and the attempts.
    Each triplet runs at most once. A step whose postcondition already holds
    records as skipped; so does a failed step once a successful resolution
    made the postcondition hold. A resolution that re-executed the step
    itself finishes the triplet. A backend error, in a step or in its
    recovery, ends the phase with status "ExecutionFailed: ..." and the state
    its executed steps reached.
    """
    try:
        for triplet in plan:
            if not postcondition_satisfied(state, triplet):
                concrete = resolve(triplet, state, task, history, sdt, backend, goal)
                if concrete is None:
                    outcome = ActionOutcome.error("NotVisible", MSG_NOT_VISIBLE)
                else:
                    state_after, outcome = step(state, concrete, sdt)
                    if outcome.ok:
                        state = state_after
                history.append(
                    HistoryEntry(triplet=triplet, phase=phase, concrete=concrete, outcome=outcome)
                )
                if outcome.ok:
                    continue
                state, status, _, _ = recover(history, state, task)
                if status != "Resolved":
                    return state, "Aborted" if status == "Exhausted" else status
                if not postcondition_satisfied(state, triplet):
                    continue
            history.append(
                HistoryEntry(triplet=triplet, phase=phase, skipped=True,
                             outcome=ActionOutcome.success("already satisfied"))
            )
    except SdtPlanError as exc:  # a backend failure ends the phase; what ran so far stays
        return state, f"ExecutionFailed: {exc}"
    return state, "Completed"
