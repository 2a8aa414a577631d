"""Check one ``bench/run.py`` run against its workload's traffic ceiling.

Usage: python3 scripts/check_traffic.py WORKLOAD < bench-output

Reads the last line of the bench's output, its JSON summary. Exits 1 when
the run failed the benchmark's gate (``correct`` is false), or when
``backend_calls_per_task`` or ``prompt_chars_per_task`` is above the value
the change in ``BENCH_slice_consumes.json`` recorded for WORKLOAD.
Both are counts that repeat exactly on every seed, so a ceiling at the
recorded value fails any change that sends more calls or prompt chars.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RECORD = Path(__file__).resolve().parents[1] / "BENCH_slice_consumes.json"
TRAFFIC = ("backend_calls_per_task", "prompt_chars_per_task")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    workload = argv[0]
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))["pairs"]["workloads"][workload]
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        print("no bench output on stdin", file=sys.stderr)
        return 1
    run = json.loads(lines[-1])
    if not run["correct"]:
        print(f"{workload}: the run failed the benchmark's gate", file=sys.stderr)
        return 1
    over = {}
    for name in TRAFFIC:
        value = run["metrics"][name]["value"]
        ceiling = recorded["metrics"][name]["change"]["median"]
        if value > ceiling:
            over[name] = f"{value} > {ceiling}"
    if over:
        print(f"{workload}: backend traffic above its ceiling: {over}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
