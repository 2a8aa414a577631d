"""Self-checks of the benchmark's workloads and tracer.

Run from the root of a checkout:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    CLEARANCE_M,
    CLUTTER_OBJECTS,
    SPREAD_RADIUS_M,
    TABLE1_SUITE,
    WORKLOADS,
    Y_RANGE,
    build_suite,
    pad_scene,
)


@pytest.fixture(scope="module")
def cli():
    return run.import_cli(ROOT)


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*.json"))}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    workload = WORKLOADS["clutter-recover"]
    build_suite(workload, 3, ROOT, tmp_path / "a")
    build_suite(workload, 3, ROOT, tmp_path / "b")
    build_suite(workload, 4, ROOT, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_statues_are_visible_unique_and_clear_of_authored_objects():
    scenes = sorted((ROOT / TABLE1_SUITE).parent.parent.glob("scenes/*.json"))
    for path in scenes:
        scene = json.loads(path.read_text(encoding="utf-8"))
        padded = pad_scene(scene, CLUTTER_OBJECTS, random.Random(f"9:{path.name}"))
        statues = padded["objects"][len(scene["objects"]):]
        assert len(statues) == CLUTTER_OBJECTS
        assert len({tuple(o["position"]) for o in statues}) == len(statues)
        for statue in statues:
            x, y, z = statue["position"]
            assert Y_RANGE[0] <= y <= Y_RANGE[1]
            assert math.hypot(x, z) <= SPREAD_RADIUS_M
            for other in scene["objects"]:
                ox, _, oz = other["position"]
                assert math.hypot(x - ox, z - oz) > CLEARANCE_M


def _traced_counts(cli, name: str, tmp_path: Path) -> tuple[run.Bench, dict, dict]:
    workload = WORKLOADS[name]
    suite = build_suite(workload, 1, ROOT, tmp_path / "work")
    bench = run.Bench(cli, workload, suite, tmp_path / "out")
    bench.run_round()
    _, trace = run.traced_round(bench)
    counts = run.check_counts(bench, [trace])
    assert bench.failed == 0 and not bench.errors, bench.errors
    assert bench.attempted == 2 * len(workload.task_ids)
    return bench, counts, tracer.layer_metrics(trace.spans, len(workload.task_ids))


def test_clutter_direct_never_reaches_the_resolver(cli, tmp_path):
    _, counts, layers = _traced_counts(cli, "clutter-direct", tmp_path)
    assert all(c["resolver"] == 0 and c["recovery"] == 0 for c in counts.values())
    assert layers["resolver.build_action_pairs.calls"][0] == 0
    assert layers["backends.calls.recovery"][0] == 0
    assert all(c["objects"] > CLUTTER_OBJECTS for c in counts.values())


def test_clutter_recover_builds_the_pair_map_for_every_task(cli, tmp_path):
    _, counts, layers = _traced_counts(cli, "clutter-recover", tmp_path)
    assert sorted(counts) == sorted(WORKLOADS["clutter-recover"].task_ids)
    assert all(c["pair_maps"] >= 1 and c["recovery"] >= 1 for c in counts.values())
    assert layers["resolver.build_action_pairs.calls"][0] >= 1
    assert layers["resolver.resolve_failure.calls"][0] >= 1


def test_table1_scenes_hold_at_most_11_objects(cli, tmp_path):
    _, counts, _ = _traced_counts(cli, "table1", tmp_path)
    assert len(counts) == 14
    assert all(0 < c["objects"] <= 11 for c in counts.values())


def test_tracer_leaves_results_and_bindings_unchanged(cli, tmp_path):
    bindings = [(tracer._resolve_owner(p), a) for p, a, _ in tracer.BINDINGS]
    before = [vars(owner)[attr] for owner, attr in bindings]
    bench, _, _ = _traced_counts(cli, "table1", tmp_path)  # traced rows must equal untraced
    assert [vars(owner)[attr] for owner, attr in bindings] == before
    assert len(bench.expected) == 14


def test_self_time_excludes_children():
    spans = [
        ["a", 0.0, 10.0, -1, 1, None],
        ["b", 1.0, 4.0, 0, 1, None],
        ["c", 2.0, 3.0, 1, 1, None],
    ]
    s = tracer.summarize(spans)
    assert s["a"]["self_s"] == pytest.approx(7.0)
    assert s["b"]["self_s"] == pytest.approx(2.0)
    assert s["c"]["self_s"] == pytest.approx(1.0)


def test_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
