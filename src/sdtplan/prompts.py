"""The prompt layout: headers, section titles, rendering and splitting, state and count lines.

Every query type carries a fixed header token so a text-to-text backend can
recognize the layout without a side channel. The scripted oracle parses
these exact formats back out of the prompt.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence

from .world import ROOM_TEMP, ObjectInstance, WorldState, type_of_id

PLAN_HEADER = "# PLAN REQUEST"
CHOICE_HEADER = "# OBJECT CHOICE REQUEST"
RECOVERY_HEADER = "# FAILURE RECOVERY REQUEST"
REPLAN_HEADER = "# REPLAN REQUEST"

SEC_INSTRUCTIONS = "## Instructions"
SEC_KNOWLEDGE = "## Object Knowledge"
SEC_OBJECTS = "## Objects In View"
SEC_EXAMPLES = "## Worked Examples"
SEC_TASK = "## Task"
SEC_OUTPUT = "## Output Format"
SEC_STEP = "## Step"
SEC_HISTORY = "## Recent Actions"
SEC_STATE = "## Current State"
SEC_CANDIDATES = "## Candidates"
SEC_ERROR = "## Error"
SEC_FAILED = "## Failed Step"
SEC_PAIRS = "## Candidate Action Pairs"
SEC_NO_REPEAT = "## Do Not Repeat"
SEC_UNMET = "## Unmet Goal Conditions"

#: A state line leaves out a field at its default; each prompt with state lines says so once.
STATE_LEGEND = f"Fields left out: flags=-; temp={ROOM_TEMP}; in=-"

_STATE_LINE_RE = re.compile(
    r"^(?:-|\d+\.) (?P<id>\S+) \((?:type=(?P<type>[^;]+); )?(?:flags=(?P<flags>[^;]*); )?"
    r"(?:temp=(?P<temp>[^;]+); )?(?:in=(?P<parent>[^;]+); )?dist=(?P<dist>[^)]+)\)$"
)

_COUNT_LINE_RE = re.compile(r"^- (\S+) x\d+(?: \(flags=[^)]*\))?$", re.MULTILINE)


def render_state_line(state: WorldState, obj: ObjectInstance, bullet: str = "-") -> str:
    """``<bullet> <id> (type=<T>; flags=<f,..>; temp=<T>; in=<id>; dist=<d>)``.

    ``type=`` is left out when the id names the type (``world.type_of_id``);
    ``flags=``, ``temp=`` and ``in=`` when at their default (``STATE_LEGEND``).
    """
    fields = [] if type_of_id(obj.object_id) == obj.type_name else [f"type={obj.type_name}"]
    true_flags = sorted(k for k, v in obj.flags.items() if v)
    if true_flags:
        fields.append("flags=" + ",".join(true_flags))
    if obj.temperature != ROOM_TEMP:
        fields.append(f"temp={obj.temperature}")
    if obj.parent_receptacle:
        fields.append(f"in={obj.parent_receptacle}")
    # Rounded to 4 places before formatting: 0.125049 shows as 0.12, not 0.13.
    fields.append(f"dist={round(state.distance_to(obj), 4):.2f}")
    return f"{bullet} {obj.object_id} ({'; '.join(fields)})"


def render_count_line(type_name: str, objects: Sequence[ObjectInstance]) -> str:
    """``- <Type> x<N>``, then ``(flags=<f,..>)`` with the flags every one of the
    ``objects`` has set, left out when they share none; ``objects`` is not empty."""
    shared = set.intersection(*({k for k, v in obj.flags.items() if v} for obj in objects))
    line = f"- {type_name} x{len(objects)}"
    return f"{line} (flags={','.join(sorted(shared))})" if shared else line


def state_lines(
    state: WorldState, objects: Iterable[ObjectInstance], counts: Iterable[str] = ()
) -> list[str]:
    """``STATE_LEGEND``, then one state line per object, then the ``counts``
    lines (``render_count_line``); empty when there is no line."""
    lines = [render_state_line(state, obj) for obj in objects] + list(counts)
    return [STATE_LEGEND, *lines] if lines else []


def parse_state_lines(text: str) -> list[tuple[str, str, Optional[str]]]:
    """``(object_id, type_name, parent_receptacle)`` of every state line in
    ``text``, ``-`` or numbered."""
    out = []
    for line in text.splitlines():
        m = _STATE_LINE_RE.match(line.strip())
        if m is None:
            continue
        object_id = m.group("id")
        out.append((object_id, m.group("type") or type_of_id(object_id), m.group("parent")))
    return out


def listed_types(text: str) -> set[str]:
    """The types ``text`` lists, on state lines and count lines alike."""
    types = {type_name for _, type_name, _ in parse_state_lines(text)}
    return types | {m.group(1) for m in _COUNT_LINE_RE.finditer(text)}


def render(header: str, sections: Iterable[tuple[str, Optional[Iterable[str]]]]) -> str:
    """The one prompt layout: ``header``, then per section a blank line, its title, its lines.

    A section whose body is None is left out; an empty body still shows its title.
    """
    lines = [header]
    for title, body in sections:
        if body is not None:
            lines += ("", title, *body)
    return "\n".join(lines)


def sections(prompt: str) -> dict[str, str]:
    """Title -> stripped body of every '## ...' section; the first of a repeated title wins."""
    bodies: dict[str, list[str]] = {}
    body: Optional[list[str]] = None  # lines above the first title belong to no section
    for line in prompt.splitlines():
        if line.startswith("## "):
            title = line.strip()
            body = [] if title in bodies else bodies.setdefault(title, [])
        elif body is not None:
            body.append(line)
    return {title: "\n".join(lines).strip() for title, lines in bodies.items()}


def render_history_lines(entries) -> list[str]:
    """One line per executed step, oldest first (callers pass the tail)."""
    out = []
    for entry in entries:
        if entry.skipped:
            out.append(f"- {entry.triplet.render()} -> Skipped (already satisfied)")
            continue
        shown = entry.concrete.render() if entry.concrete is not None else entry.triplet.render()
        if entry.outcome.ok:
            out.append(f"- {shown} -> Success")
        else:
            out.append(f'- {shown} -> Error: "{entry.outcome.message}"')
    return out
