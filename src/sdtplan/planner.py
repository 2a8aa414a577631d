"""Adaptive planner: relevance filtering, plan prompt assembly, plan queries.

The relevance pass keeps the types the task names and their sliced
derivatives, then the types that perform each treatment the task asks for:
the slicing tools for a slice, the heaters for heat, the coolers for cool
and the water sources for clean. What an object could undergo pulls in
nothing, since every prompt line is context a model can be distracted by.
Every receptacle in view rides along, a place to put things: a plan
prompt gives each object of a relevant type its state line and each other
receptacle type one count line, so the prompt stays flat however many
cabinets a kitchen holds, and writes knowledge lines for the relevant types
alone. A task's relevant types are computed once and bound every prompt's
object listing, not only the plan prompt's. A plan prompt shows the
``EXAMPLES_SHOWN`` worked examples nearest its task.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
from typing import AbstractSet, Optional, Sequence

from . import lexicon, prompts
from .backends import LLMBackend, ask
from .sdt import SDT, ActionName, render_type_text
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


#: Treatment -> the (field, value) a rule sets on other objects to perform it.
_TREATMENT_EFFECTS = {
    "heat": {("temperature", "Hot")},
    "cool": {("temperature", "Cold")},
    "clean": {("isDirty", False), ("isFilled", True)},
}


def _performers(sdt: SDT, effects: AbstractSet[tuple[str, object]], slicing: bool) -> set[str]:
    """The types with a rule that sets one of the ``(field, value)`` ``effects``
    on other objects (heaters, coolers, water sources), plus the slicing tools
    when ``slicing``."""
    out = set(sdt.slicing_tool_types()) if slicing else set()
    for type_name in sdt.type_names():
        for rule in sdt.get(type_name).rules:
            if any((e.field_name, e.to) in effects for e in rule.effects):
                out.add(type_name)
    return out


def relevant_types(task: str, sdt: SDT) -> set[str]:
    """Task-mentioned types, their sliced derivatives, and the types that
    perform each treatment the task's words ask for.

    A type's affordances pull in nothing: an apple to put on the table needs
    no knife, fridge or faucet, though it could be sliced, chilled or rinsed.
    """
    kept = {t for t in lexicon.type_mentions(task) if t in sdt}
    kept |= {f"{t}Sliced" for t in list(kept) if f"{t}Sliced" in sdt}
    treatments = lexicon.treatments(task)
    effects = set().union(*(_TREATMENT_EFFECTS.get(t, ()) for t in treatments))
    return kept | _performers(sdt, effects, "slice" in treatments)


def goal_types(goal: GoalCondition, sdt: SDT) -> set[str]:
    """The object and receptacle types the goal names, the types whose rules
    set a flag or temperature one of its clauses asks for (``!isDirty`` is
    ``isDirty`` set False), and the slicing tools when it names a sliced type."""
    named = {t for c in goal.clauses for t in (c.object_type, c.receptacle_type) if t}
    effects = {(f.removeprefix("!"), not f.startswith("!")) for c in goal.clauses for f in c.required_flags}
    effects |= {("temperature", c.required_temperature) for c in goal.clauses if c.required_temperature}
    slicing = any(c.object_type.endswith("Sliced") for c in goal.clauses)
    return named | _performers(sdt, effects, slicing)


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

    The objects in view are the ones of the ``relevant`` types, one state
    line each, plus the receptacles: a receptacle type the task does not
    need gets one count line, ``- <Type> x<N>`` with the flags all its
    instances share, however many of it are in view. Knowledge lines, one
    per type, cover each relevant type that some object in the state is or
    slices into, in view or not: a hidden bottle is still plannable-for, a
    knife the scene lacks is not, and a receptacle the task does not need
    is counted but not described. The knowledge section is left out when no
    type qualifies. Each rule sentence appears exactly once.
    """
    shown: list[ObjectInstance] = []
    collapsed: dict[str, list[ObjectInstance]] = {}
    for obj in filter_relevant_objects(state, sdt, relevant):
        if obj.type_name in relevant:
            shown.append(obj)
        else:
            collapsed.setdefault(obj.type_name, []).append(obj)
    counts = [prompts.render_count_line(t, collapsed[t]) for t in sorted(collapsed)]
    known = sorted(t for t in relevant if state.of_types({t, t.removesuffix("Sliced")}))
    worked = "\n\n".join(
        f"Task: {ex['task']}\nAction-Triplets:{ex['triplets']}\n{ex['goal']}" for ex in examples
    )
    return prompts.render(prompts.PLAN_HEADER, [
        (prompts.SEC_INSTRUCTIONS, [
            "You control a household robot. Decompose the task into action triplets "
            "[Action, Object1, Object2-or-0] executed in order.",
            "Allowed actions: " + ", ".join(a.value for a in ActionName) + ".",
        ]),
        (prompts.SEC_KNOWLEDGE, [render_type_text(sdt.get(t)) for t in known] or None),
        (prompts.SEC_OBJECTS, prompts.state_lines(state, shown, counts)),
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
