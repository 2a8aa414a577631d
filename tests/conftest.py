"""Shared fixtures: knowledge base, suite rows, scene loading, random scenes."""

from __future__ import annotations

import json
import math
import random
import re
from functools import partial
from pathlib import Path

import pytest

from sdtplan import interpreter
from sdtplan.backends import OracleConfig, ScriptedOracle
from sdtplan.cli import default_sdt_path, default_suite_path, _resolve_scene
from sdtplan.replanner import RunConfig, run_task
from sdtplan.resolver import resolve_failure
from sdtplan.sdt import SDT, AffordanceTag, FLAG_NAMES, TEMPERATURES, load_sdt
from sdtplan.world import (
    ObjectInstance,
    WorldState,
    apply_perturbations,
    format_object_id,
    load_scene,
)


#: The ablation settings the tests and the golden corpus name: the plan alone, the
#: plan with the failure resolver, and the whole loop with the replanner as well.
ABLATIONS = {"plan": RunConfig(0, 0), "resolve": RunConfig(replan_cap=0), "replan": RunConfig()}
#: The ``sdtplan run`` flags that select each of ``ABLATIONS``.
ABLATION_FLAGS = {"plan": "--budget 0 --replan-cap 0", "resolve": "--replan-cap 0", "replan": ""}

#: The committed golden-trace corpus: ``<ablation>/trace_task<N>.json`` and
#: ``<ablation>/report.md``, one directory per ``ABLATIONS`` key.
GOLDEN = Path(__file__).parent / "golden"


def golden_exchanges(ablation: str, task_id: int) -> list[dict]:
    """The ``exchanges`` of the committed trace of table-1 row ``task_id`` under ``ablation``."""
    path = GOLDEN / ablation / f"trace_task{task_id}.json"
    return json.loads(path.read_text(encoding="utf-8"))["exchanges"]


@pytest.fixture(scope="session")
def sdt() -> SDT:
    return load_sdt(default_sdt_path())


@pytest.fixture(scope="session")
def all_types(sdt: SDT) -> frozenset[str]:
    """Every SDT type: the relevant set under which prompts and the pair map show everything."""
    return frozenset(sdt.type_names())


@pytest.fixture(scope="session")
def suite() -> dict:
    return json.loads(Path(default_suite_path()).read_text(encoding="utf-8"))


def suite_row(suite: dict, task_id: int) -> dict:
    for row in suite["tasks"]:
        if row["id"] == task_id:
            return row
    raise KeyError(task_id)


def scene_for_row(row: dict, sdt: SDT, injected: bool = True) -> WorldState:
    path = _resolve_scene(row["scene"], default_suite_path().parent)
    scene = load_scene(path, sdt)
    if injected:
        scene = apply_perturbations(scene, row.get("inject", []), sdt)
    return scene


def run_row(row: dict, sdt: SDT, ablation: str = "replan", injected: bool = True):
    scene = scene_for_row(row, sdt, injected=injected)
    backend = ScriptedOracle(OracleConfig(**row.get("oracle_faults", {})))
    return run_task(row["task"], scene, sdt, backend, ABLATIONS[ablation], task_id=row["id"])


def no_recovery(sdt: SDT, backend):
    """The ``recover`` a budget-0 run hands ``execute_plan``: it asks nothing and gives up."""
    return partial(resolve_failure, sdt=sdt, relevant=frozenset(), backend=backend, budget=0)


def record_choice_queries(monkeypatch) -> dict:
    """Patch ``interpreter._build_choice_query`` so that the returned dict maps
    each choice prompt it builds, in order, to the history's last
    ``HISTORY_TAIL`` entries at that point."""
    queries = {}
    build = interpreter._build_choice_query

    def recording_build(triplet, task, state, history, ref, ids):
        prompt = build(triplet, task, state, history, ref, ids)
        queries[prompt] = history[-interpreter.HISTORY_TAIL:]
        return prompt

    monkeypatch.setattr(interpreter, "_build_choice_query", recording_build)
    return queries


#: A recovery prompt's pair line: one target, then the actions offered on it.
PAIR_LINE = re.compile(r"^- \S+: \w+(, \w+)*$")


def pair_section_lines(body: str, pairs) -> list[str]:
    """The lines of the pair section ``body``, after checking that each has the
    pair-line form and that the oracle reads back exactly ``pairs``, in order."""
    assert ScriptedOracle._parse_pairs(body) == [(a.value, t) for a, t in pairs]
    lines = body.splitlines()
    assert all(PAIR_LINE.match(line) for line in lines), lines
    return lines


class CountingBackend:
    """Wraps a backend and counts complete() calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        return self.inner.complete(prompt)


class ScriptedBackend:
    """Replays canned replies (last one repeats) and keeps the prompts it was sent;
    for parser/loop edge cases."""

    name = "scripted"
    deterministic = True

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        reply = self.replies[min(self.calls, len(self.replies) - 1)]
        self.calls += 1
        return reply


def random_state(rng: random.Random, sdt: SDT, max_objects: int = 10) -> WorldState:
    """Random but invariant-respecting scene for property tests. Half of them
    spread their objects over ±40 m, so that some lie beyond ``VISIBILITY_RADIUS``."""
    reach = rng.choice([3.0, 40.0])
    type_names = [t for t in sdt.type_names() if not t.endswith("Sliced")]
    objects: dict[str, ObjectInstance] = {}
    for _ in range(rng.randint(1, max_objects)):
        type_name = rng.choice(type_names)
        pos = (
            round(rng.uniform(-reach, reach), 2),
            round(rng.uniform(0.0, 2.0), 2),
            round(rng.uniform(-reach, reach), 2),
        )
        object_id = format_object_id(type_name, pos)
        if object_id in objects:
            continue
        entry = sdt.get(type_name)
        flags = {k: False for k in FLAG_NAMES}
        for k in FLAG_NAMES:
            if rng.random() < 0.2:
                flags[k] = True
        flags["isSliced"] = False  # slicing state only arises through the simulator
        if entry.has(AffordanceTag.RECEPTACLE) and not entry.has(AffordanceTag.OPENABLE):
            flags["isOpen"] = True
        capacity = rng.randint(1, 4) if entry.has(AffordanceTag.RECEPTACLE) else 0
        objects[object_id] = ObjectInstance(
            object_id=object_id,
            type_name=type_name,
            position=pos,
            flags=flags,
            temperature=rng.choice(TEMPERATURES),
            capacity=capacity,
        )
    instances = list(objects.values())
    receptacles = [
        o for o in instances if sdt.get(o.type_name).has(AffordanceTag.RECEPTACLE)
    ]
    for obj in instances:
        if receptacles and obj not in receptacles and rng.random() < 0.3:
            recept = rng.choice(receptacles)
            occupied = sum(1 for o in instances if o.parent_receptacle == recept.object_id)
            if occupied < recept.capacity:
                obj.parent_receptacle = recept.object_id
                obj.position = recept.position
    return WorldState(objects=objects, agent_position=(0.0, 0.9, 0.0))


def add_statues(state, count, seed):
    """``count`` free-standing statues in both view bands, 2 m clear of every scene object."""
    rng = random.Random(seed)
    authored = [(o.position[0], o.position[2]) for o in state.objects.values()]
    added = []
    while len(added) < count:
        x, z = round(rng.uniform(-12, 12), 2), round(rng.uniform(-12, 12), 2)
        if any(math.hypot(x - ax, z - az) <= 2.0 for ax, az in authored):
            continue
        pos = (x, round(rng.uniform(0.85, 1.45), 2), z)
        object_id = format_object_id("Statue", pos)
        if object_id in state.objects:
            continue
        state.objects[object_id] = ObjectInstance(
            object_id, "Statue", pos, {k: False for k in FLAG_NAMES}
        )
        added.append(object_id)
    return added
