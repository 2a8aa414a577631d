"""Write the cabinet suite: the table-1 rows on scenes padded with closed, empty cabinets.

    python scripts/cabinet_suite.py N OUT_DIR

Every table-1 scene gets ``N`` records at ``bench/workloads.pad_scene``'s seeded
positions (seed ``1:<scene>``), each retyped as a closed, empty ``Cabinet`` of
capacity 3. The padded scenes go under ``OUT_DIR/scenes/`` and the suite to
``OUT_DIR/suite.json``, where ``sdtplan run --suite OUT_DIR/suite.json`` finds
them. Rows keep their task, scene, ``inject`` and ``oracle_faults``; their
``expected`` pins describe the unpadded scenes and are left out.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import TABLE1_SUITE, pad_scene  # noqa: E402

SEED = 1
#: What each padded record becomes: no flags, so the loader leaves its door closed.
CABINET = {"type": "Cabinet", "capacity": 3}


def cabinet_scene(scene: dict, count: int, rng: random.Random) -> dict:
    """Copy of ``scene`` with ``count`` cabinets where ``pad_scene`` puts its statues."""
    authored = len(scene["objects"])
    padded = pad_scene(scene, count, rng)["objects"]
    return {**scene, "objects": padded[:authored] + [dict(r, **CABINET) for r in padded[authored:]]}


def write_suite(count: int, out_dir: Path) -> Path:
    """Write the padded scenes and the suite file under ``out_dir``; return the suite's path."""
    shipped = ROOT / TABLE1_SUITE
    suite = json.loads(shipped.read_text(encoding="utf-8"))
    for scene_name in sorted({row["scene"] for row in suite["tasks"]}):
        scene = json.loads((shipped.parent.parent / scene_name).read_text(encoding="utf-8"))
        padded = cabinet_scene(scene, count, random.Random(f"{SEED}:{scene_name}"))
        path = out_dir / scene_name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(padded), encoding="utf-8")
    rows = [{k: v for k, v in row.items() if k != "expected"} for row in suite["tasks"]]
    path = out_dir / "suite.json"
    path.write_text(
        json.dumps({"name": f"{suite['name']}-cabinets{count}", "tasks": rows}, indent=1),
        encoding="utf-8",
    )
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int, help="cabinets added to every scene")
    parser.add_argument("out_dir", type=Path, help="directory for suite.json and scenes/")
    args = parser.parse_args(argv)
    if args.count < 0:
        parser.error(f"count must be at least 0, got {args.count}")
    print(write_suite(args.count, args.out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
