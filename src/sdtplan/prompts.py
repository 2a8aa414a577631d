"""The prompt layout: headers, section titles, rendering and splitting, state lines.

Every query type carries a fixed header token so a text-to-text backend can
recognize the layout without a side channel. The scripted oracle parses
these exact formats back out of the prompt.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .world import ObjectInstance, WorldState, type_of_id

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

_STATE_LINE_RE = re.compile(
    r"^- (?P<id>\S+) \((?:type=(?P<type>[^;]+); )?flags=(?P<flags>[^;]*); "
    r"temp=(?P<temp>[^;]+); in=(?P<parent>[^;]*); dist=(?P<dist>[^)]+)\)$"
)


def render_state_line(state: WorldState, obj: ObjectInstance) -> str:
    """``- <id> (type=<T>; flags=..; temp=..; in=..; dist=..)``, where ``type=<T>; ``
    is left out when the id names the type (``world.type_of_id``)."""
    true_flags = sorted(k for k, v in obj.flags.items() if v)
    flags = ",".join(true_flags) if true_flags else "-"
    parent = obj.parent_receptacle or "-"
    # Rounded to 4 places before formatting: 0.125049 shows as 0.12, not 0.13.
    distance = round(state.distance_to(obj), 4)
    type_field = "" if type_of_id(obj.object_id) == obj.type_name else f"type={obj.type_name}; "
    return (
        f"- {obj.object_id} ({type_field}flags={flags}; "
        f"temp={obj.temperature}; in={parent}; dist={distance:.2f})"
    )


def parse_state_lines(text: str) -> list[tuple[str, str, Optional[str]]]:
    """``(object_id, type_name, parent_receptacle)`` of every state line in ``text``."""
    out = []
    for line in text.splitlines():
        m = _STATE_LINE_RE.match(line.strip())
        if m is None:
            continue
        object_id, parent = m.group("id"), m.group("parent").strip()
        type_name = m.group("type") or type_of_id(object_id)
        out.append((object_id, type_name, None if parent in ("-", "") else parent))
    return out


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
        if entry.outcome is None:
            out.append(f"- {shown} -> (not executed)")
        elif entry.outcome.ok:
            out.append(f"- {shown} -> Success")
        else:
            out.append(f'- {shown} -> Error: "{entry.outcome.message}"')
    return out
