"""Benchmark workloads: the shipped table-1 suite and two cluttered derivatives.

Every workload is a subset of ``src/sdtplan/data/suites/table1.json`` whose rows
keep their ``inject``, ``oracle_faults`` and ``expected`` pins. The clutter
workloads pad each scene with seeded ``Statue`` objects and write the padded
scenes plus a derived suite file into a work directory, so the program under
test only ever sees ordinary scene and suite files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: Shipped suite, relative to the checkout root.
TABLE1_SUITE = Path("src/sdtplan/data/suites/table1.json")

#: Statues added to every scene of a clutter workload.
CLUTTER_OBJECTS = 1000

#: Horizontal clearance between a statue and every authored object. The agent
#: stands GOTO_STANDOFF (0.5 m) from what it visits and carries the held object
#: there, so 2.0 m keeps every statue beyond NEARBY_RADIUS (1.0 m) of anything a
#: rule or a colocated predicate can look at.
CLEARANCE_M = 2.0

#: Statues lie within this horizontal radius of the origin. Authored objects sit
#: within 2 m of it, so every statue stays inside the 25 m visibility radius
#: wherever the agent walks.
SPREAD_RADIUS_M = 12.0

#: Heights inside both the standing (0.80-2.20) and crouched (0.00-1.50) view
#: bands, so statues enter prompts and pair maps in either pose.
Y_RANGE = (0.85, 1.45)


@dataclass(frozen=True)
class Workload:
    name: str
    task_ids: tuple[int, ...]
    clutter: int


# Why each workload exists is recorded in BENCHMARK.json. table1 is the fixed
# per-task overhead; clutter-recover holds the rows pinned to fail (resolver,
# pair map, read-heavy world queries); clutter-direct holds the rows pinned not
# to fail (world.step clones and scene loading, the resolver never runs).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1", tuple(range(1, 15)), 0),
        Workload("clutter-recover", (1, 3, 4, 6, 7, 8, 9, 12, 14), CLUTTER_OBJECTS),
        Workload("clutter-direct", (2, 5, 10, 11, 13), CLUTTER_OBJECTS),
    )
}


def pad_scene(scene: dict, count: int, rng: random.Random) -> dict:
    """Copy of ``scene`` with ``count`` statues at distinct seeded positions.

    Statues carry no id: the scene loader derives it from type and position,
    so distinct positions give distinct ids.
    """
    authored = [(o["position"][0], o["position"][2]) for o in scene["objects"]]
    taken: set[tuple[float, float, float]] = set()
    statues = []
    while len(statues) < count:
        x = round(rng.uniform(-SPREAD_RADIUS_M, SPREAD_RADIUS_M), 2)
        z = round(rng.uniform(-SPREAD_RADIUS_M, SPREAD_RADIUS_M), 2)
        if math.hypot(x, z) > SPREAD_RADIUS_M:
            continue
        if any(math.hypot(x - ax, z - az) <= CLEARANCE_M for ax, az in authored):
            continue
        pos = (x, round(rng.uniform(*Y_RANGE), 2), z)
        if pos in taken:
            continue
        taken.add(pos)
        statues.append({"type": "Statue", "position": list(pos), "capacity": 0})
    return {**scene, "objects": list(scene["objects"]) + statues}


def build_suite(workload: Workload, seed: int, root: Path, work_dir: Path) -> Path:
    """Suite file for ``workload``; padded scenes are written beside it.

    ``table1`` runs the shipped suite unchanged. The clutter workloads write
    ``work_dir/suite.json`` and ``work_dir/scenes/*.json``, where the CLI's
    scene lookup (relative to the suite's directory) finds them.
    """
    shipped = root / TABLE1_SUITE
    if workload.clutter == 0:
        return shipped
    suite = json.loads(shipped.read_text(encoding="utf-8"))
    rows = [r for r in suite["tasks"] if r["id"] in workload.task_ids]
    (work_dir / "scenes").mkdir(parents=True, exist_ok=True)
    for scene_name in sorted({r["scene"] for r in rows}):
        scene = json.loads((shipped.parent.parent / scene_name).read_text(encoding="utf-8"))
        rng = random.Random(f"{seed}:{scene_name}")
        padded = pad_scene(scene, workload.clutter, rng)
        (work_dir / scene_name).write_text(json.dumps(padded), encoding="utf-8")
    path = work_dir / "suite.json"
    path.write_text(
        json.dumps({"name": f"{suite['name']}-{workload.name}", "tasks": rows}, indent=1),
        encoding="utf-8",
    )
    return path
