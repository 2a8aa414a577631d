"""Adaptive planner: relevance filtering, plan prompt assembly, plan queries.

The relevance pass is lexical plus rule-implication (keeping a sliceable
food pulls in the knife types; anything coolable pulls in the appliance
whose rules chill contents). Over-inclusion is harmless, so every
receptacle in view rides along. A task's relevant types are computed once
and bound every prompt's object listing, not only the plan prompt's. A plan
prompt shows the ``EXAMPLES_SHOWN`` worked examples nearest its task.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
from typing import AbstractSet, Optional, Sequence

from . import lexicon, prompts
from .backends import LLMBackend, ask
from .sdt import SDT, ActionName, AffordanceTag, render_type_text
from .triplets import ActionTriplet, GoalCondition, parse_goal, parse_triplets
from .world import (
    ObjectInstance,
    WorldState,
    is_visible,
    object_descriptions,  # noqa: F401  (not called here; bench/tracer.py wraps this binding)
)

_RETRY_REMINDER = (
    "\n\nFORMAT REMINDER: reply with exactly one line starting with "
    "'Action-Triplets:' containing a list of [Action, Object1, Object2-or-0] "
    "lists, followed by one GOAL:{type=..; flags=..; temp=..; in=..} line per "
    "goal clause."
)


def _types_with_treatment_effect(sdt: SDT, field_name: str, to: object) -> set[str]:
    out = set()
    for type_name in sdt.type_names():
        for rule in sdt.get(type_name).rules:
            for eff in rule.effects:
                if eff.scope == "self":
                    continue
                if eff.field_name == field_name and eff.to == to:
                    out.add(type_name)
    return out


def relevant_types(task: str, sdt: SDT) -> set[str]:
    """Task-mentioned types plus their sliced derivatives and implied tools.

    Closed under the implication step: sliceable food implies the knife
    types, cookable/heatable implies the heating appliances, coolable the
    chilling ones, dirtyable/fillable the water source.
    """
    kept = {t for t in lexicon.type_mentions(task) if t in sdt}
    kept |= {f"{t}Sliced" for t in list(kept) if f"{t}Sliced" in sdt}
    heaters = _types_with_treatment_effect(sdt, "temperature", "Hot")
    coolers = _types_with_treatment_effect(sdt, "temperature", "Cold")
    washers = _types_with_treatment_effect(sdt, "isDirty", False) | _types_with_treatment_effect(
        sdt, "isFilled", True
    )
    tools = set(sdt.slicing_tool_types())
    while True:
        implied: set[str] = set()
        for type_name in kept:
            entry = sdt.get(type_name)
            if entry.has(AffordanceTag.SLICEABLE):
                implied |= tools
            if entry.has(AffordanceTag.COOKABLE) or entry.has(AffordanceTag.HEATABLE):
                implied |= heaters
            if entry.has(AffordanceTag.COOLABLE):
                implied |= coolers
            if entry.has(AffordanceTag.DIRTYABLE) or entry.has(AffordanceTag.FILLABLE):
                implied |= washers
        if implied <= kept:
            return kept
        kept |= implied


def shown_objects(
    state: WorldState,
    sdt: SDT,
    relevant: AbstractSet[str],
    extras: AbstractSet[str] = frozenset(),
) -> list[ObjectInstance]:
    """The objects a prompt shows, visible or not, in no particular order: the
    known objects of the ``relevant`` and receptacle types from the scene index
    (relevant types may lie outside the knowledge base), then the ``extras`` ids."""
    found = {
        obj.object_id: obj
        for obj in state.of_types(relevant | sdt.receptacle_types)
        if obj.type_name in sdt
    }
    for object_id in extras:
        obj = state.objects.get(object_id)
        if obj is not None:
            found[object_id] = obj
    return list(found.values())


def filter_relevant_objects(
    state: WorldState, sdt: SDT, relevant: AbstractSet[str]
) -> list[ObjectInstance]:
    """Visible objects a prompt shows (see ``shown_objects``), id-sorted."""
    return sorted(
        (obj for obj in shown_objects(state, sdt, relevant) if is_visible(state, obj)),
        key=lambda o: o.object_id,
    )


#: Worked examples a plan prompt shows, the nearest to its task first.
EXAMPLES_SHOWN = 2

_ExampleKey = tuple[Optional[str], bool, frozenset[str]]


@functools.cache
def load_examples() -> tuple[dict, ...]:
    """Worked task/plan examples shipped as package data, read once."""
    ref = importlib.resources.files("sdtplan.data").joinpath("examples.json")
    return tuple(json.loads(ref.read_text(encoding="utf-8")))


def _example_key(task: str) -> _ExampleKey:
    return lexicon.category(task), lexicon.wants_slice(task), frozenset(lexicon.type_mentions(task))


@functools.cache
def _example_keys() -> tuple[_ExampleKey, ...]:
    """Each worked example's retrieval key, in file order, computed once."""
    return tuple(_example_key(ex["task"]) for ex in load_examples())


def nearest_examples(task: str) -> list[dict]:
    """The ``EXAMPLES_SHOWN`` worked examples nearest ``task``, nearest first.

    Ranked by: the same treatment category, then the same wish for a slice,
    then more shared type mentions, then file order.
    """
    category, slicing, types = _example_key(task)
    keys = _example_keys()
    order = sorted(
        range(len(keys)),
        key=lambda i: (keys[i][0] != category, keys[i][1] != slicing, -len(keys[i][2] & types), i),
    )
    examples = load_examples()
    return [examples[i] for i in order[:EXAMPLES_SHOWN]]


def build_plan_prompt(
    task: str,
    state: WorldState,
    sdt: SDT,
    relevant: AbstractSet[str],
    examples: Sequence[dict],
) -> str:
    """Deterministic plan prompt with fixed section order.

    The objects in view are the ones of the ``relevant`` types plus the
    receptacles. Knowledge lines, one per type, cover the relevant types even
    when no instance is currently in view (a hidden knife is still
    plannable-for), plus the types of every listed object. Each rule
    sentence appears exactly once.
    """
    objects = filter_relevant_objects(state, sdt, relevant)
    block_types = sorted(relevant | {o.type_name for o in objects})
    worked = "\n\n".join(
        f"Task: {ex['task']}\nAction-Triplets:{ex['triplets']}\n{ex['goal']}" for ex in examples
    )
    return prompts.render(prompts.PLAN_HEADER, [
        (prompts.SEC_INSTRUCTIONS, [
            "You control a household robot. Decompose the task into action triplets "
            "[Action, Object1, Object2-or-0] executed in order.",
            "Allowed actions: " + ", ".join(a.value for a in ActionName) + ".",
        ]),
        (prompts.SEC_KNOWLEDGE, [render_type_text(sdt.get(t)) for t in block_types]),
        (prompts.SEC_OBJECTS, prompts.state_lines(state, objects)),
        (prompts.SEC_EXAMPLES, [worked] if examples else None),
        (prompts.SEC_TASK, [task]),
        (prompts.SEC_OUTPUT, [
            "One line 'Action-Triplets:[[...], ...]' (third slot 0 when there is no "
            "second object), then one GOAL:{type=<T>; flags=<f1,f2|->; temp=<Hot|Cold|->; "
            "in=<R|->} line per goal clause."
        ]),
    ])


def _parse_plan_reply(text: str) -> tuple[list[ActionTriplet], GoalCondition]:
    return parse_triplets(text), parse_goal(text)


def plan(
    task: str,
    state: WorldState,
    sdt: SDT,
    relevant: AbstractSet[str],
    backend: LLMBackend,
) -> tuple[list[ActionTriplet], GoalCondition]:
    """One backend call (plus one reformat retry) for triplets and goal."""
    prompt = build_plan_prompt(task, state, sdt, relevant, nearest_examples(task))
    return ask(backend, prompt, _parse_plan_reply, _RETRY_REMINDER)
