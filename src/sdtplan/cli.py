"""Command-line runner: task suites, failure injection, reports, traces.

Exit codes: 0 all tasks succeeded, 1 some task failed (or verification
mismatch), 2 configuration error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import importlib.resources
import json
import re
import sys
from pathlib import Path
from typing import Optional

from .backends import HttpBackend, HttpConfig, OracleConfig, ScriptedOracle
from .errors import SdtPlanError
from .replanner import MODES, RunConfig, TaskReport, run_task
from .sdt import load_sdt
from .triplets import goal_satisfied, parse_goal
from .world import (
    ConcreteAction, WorldState, apply_perturbations, load_scene, state_json_hash, state_to_json, step,
)

#: Version of the trace layout that ``_write_trace`` writes and ``replay`` reads.
TRACE_SCHEMA = 3

REPORT_COLUMNS = (
    "Task ID",
    "Task Description",
    "No. Failure",
    "Iteration Per Failure",
    "Replanner Iteration",
    "Success",
)


def _data_path(relative: str) -> Path:
    return Path(str(importlib.resources.files("sdtplan.data").joinpath(relative)))


def default_suite_path() -> Path:
    return _data_path("suites/table1.json")


def default_sdt_path() -> Path:
    return _data_path("sdt.json")


def _resolve_scene(scene: str, suite_dir: Path) -> Path:
    candidate = suite_dir / scene
    if candidate.exists():
        return candidate
    packaged = _data_path(scene)
    if packaged.exists():
        return packaged
    raise FileNotFoundError(f"scene file not found: {scene}")


_FAULT_NAMES = frozenset(f.name for f in dataclasses.fields(OracleConfig))
_COUNTS = ("failures", "iterations", "replans")  # a row's "expected" pins these and "success"


def _is_strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _check_row(row: object, where: str) -> None:
    """Raise ValueError unless ``row`` has the shape a suite row needs."""
    if not isinstance(row, dict):
        raise ValueError(f"{where}: must be an object")
    row_id = row.get("id")  # names the trace file; --task matches it as text
    if isinstance(row_id, bool) or not isinstance(row_id, (int, str)) or (
        isinstance(row_id, str) and not re.fullmatch(r"[\w-]+", row_id, re.ASCII)
    ):
        raise ValueError(f"{where}: 'id' must be an integer or a string of letters, digits, - and _")
    for key in ("task", "scene"):
        if not isinstance(row.get(key), str):
            raise ValueError(f"{where}: '{key}' must be a string")
    if not _is_strings(row.get("inject", [])):
        raise ValueError(f"{where}: 'inject' must be a list of strings")
    faults = row.get("oracle_faults", {})
    if not isinstance(faults, dict) or not all(
        name in _FAULT_NAMES and isinstance(on, bool) for name, on in faults.items()
    ):
        raise ValueError(
            f"{where}: 'oracle_faults' must map fault names {sorted(_FAULT_NAMES)} to booleans"
        )
    expected = row.get("expected", {})
    if not isinstance(expected, dict) or not all(
        isinstance(v, bool) if k == "success" else k in _COUNTS and type(v) is int and v >= 0
        for k, v in expected.items()
    ):
        raise ValueError(
            f"{where}: 'expected' must be an object mapping {', '.join(_COUNTS)} "
            "to counts of 0 or more and success to a boolean"
        )


def load_suite(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        suite = json.load(fh)
    if not isinstance(suite, dict) or not isinstance(suite.get("tasks"), list):
        raise ValueError("suite file needs a 'tasks' array")
    first_of: dict[str, int] = {}
    for index, row in enumerate(suite["tasks"]):
        _check_row(row, f"suite row {index}")
        first = first_of.setdefault(str(row["id"]), index)
        if first != index:
            raise ValueError(f"suite row {index}: 'id' {row['id']!r} repeats suite row {first}")
    return suite


def _http_config(args) -> Optional[HttpConfig]:
    """The checked settings of ``--backend http``, or None for the oracle."""
    if args.backend == "oracle":
        return None
    if not args.endpoint:
        raise ValueError("--backend http requires --endpoint")
    return HttpConfig(
        endpoint=args.endpoint,
        model=args.model,
        timeout=args.timeout,
        max_retries=args.max_retries,
    )


def _backend_for(http: Optional[HttpConfig], faults: dict):
    """One task's backend: ``HttpBackend`` over ``http``, or the oracle with ``faults``."""
    if http is None:
        return ScriptedOracle(OracleConfig(**faults))
    return HttpBackend(http)


def _sdt_file(args) -> str:
    """The knowledge base file ``args`` names, as an absolute path."""
    return str(Path(args.sdt or default_sdt_path()).resolve())


def trace_header(
    row: dict, args, suite_dir: Path, extra_injections: list[str], sdt, sdt_file: str
) -> tuple[dict, WorldState]:
    """A run's input as its trace records it, and the start state it builds.

    The input is enough to rebuild the start state; ``scene_sha256`` and
    ``start_state_hash`` pin the scene file and the state built from it.
    ``sdt_file`` is ``_sdt_file(args)``, resolved once per run.
    """
    header = {
        "schema": TRACE_SCHEMA,
        "scene": str(_resolve_scene(row["scene"], suite_dir).resolve()),
        "sdt": sdt_file,
        "inject": list(row.get("inject", [])) + extra_injections,
        "oracle_faults": row.get("oracle_faults", {}),
        "mode": args.mode,
    }
    state = initial_state(header, sdt)
    header["scene_sha256"] = state.scene.sha256
    header["start_state_hash"] = state_json_hash(state_to_json(state))
    return header, state


def initial_state(header: dict, sdt) -> WorldState:
    """The state a run starts in: the header's scene with its perturbations applied."""
    return apply_perturbations(load_scene(header["scene"], sdt), header["inject"], sdt)


def _write_trace(report: TaskReport, header: dict, out_dir: Path) -> Path:
    payload = {
        **header,
        "task_id": report.task_id,
        "task": report.description,
        **report.to_json(),
        "final_state_hash": state_json_hash(state_to_json(report.final_state)),
    }
    path = out_dir / f"trace_task{report.task_id}.json"
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def render_report(reports: list[TaskReport], fmt: str) -> str:
    rows = [r.to_row() for r in reports]
    if fmt == "json":
        return json.dumps(rows, indent=2)
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        for row in rows:
            lines.append(
                ",".join('"' + str(row[c]).replace('"', '""') + '"' for c in REPORT_COLUMNS)
            )
        return "\n".join(lines)
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c) for c in REPORT_COLUMNS}
    header = "| " + " | ".join(c.ljust(widths[c]) for c in REPORT_COLUMNS) + " |"
    sep = "|" + "|".join("-" * (widths[c] + 2) for c in REPORT_COLUMNS) + "|"
    lines = [header, sep]
    for row in rows:
        lines.append("| " + " | ".join(str(row[c]).ljust(widths[c]) for c in REPORT_COLUMNS) + " |")
    return "\n".join(lines)


def check_expected(report: TaskReport, expected: dict) -> list[str]:
    """Regression comparison against a suite row's recorded expectations."""
    got = {
        "failures": report.failures,
        "iterations": report.resolver_iterations,
        "replans": report.replanner_invocations,
        "success": report.success,
    }
    return [f"{k}: expected {v}, got {got[k]}" for k, v in expected.items() if got[k] != v]


def cli_run(args) -> int:
    try:
        if args.inject and args.task is None:
            raise ValueError("--inject requires --task")
        sdt = load_sdt(args.sdt or default_sdt_path())
        suite_path = Path(args.suite) if args.suite else default_suite_path()
        suite = load_suite(suite_path)
        config = RunConfig(args.mode, args.budget, args.replan_cap)
        http = _http_config(args)
        if args.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {args.jobs}")
        rows = suite["tasks"]
        if args.task is not None:
            rows = [r for r in rows if str(r["id"]) == str(args.task)]
            if not rows:
                raise ValueError(f"no task with id {args.task}")
        # every row's start state, before any task runs and pays for backend calls
        sdt_file = _sdt_file(args)
        starts = [
            (row, *trace_header(row, args, suite_path.parent, list(args.inject or []), sdt, sdt_file))
            for row in rows
        ]
    except (OSError, ValueError, SdtPlanError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def worker(start: tuple[dict, dict, WorldState]) -> tuple[dict, dict, TaskReport]:
        row, header, scene = start
        backend = _backend_for(http, header["oracle_faults"])
        return row, header, run_task(row["task"], scene, sdt, backend, config, task_id=row["id"])

    if args.jobs > 1 and len(rows) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(worker, starts))
    else:
        results = [worker(start) for start in starts]

    def row_key(result):
        row_id = result[0]["id"]
        return (0, int(row_id)) if str(row_id).isdigit() else (1, str(row_id))

    results.sort(key=row_key)
    reports = []
    regression_notes = []
    for row, header, report in results:
        reports.append(report)
        _write_trace(report, header, out_dir)
        if row.get("expected") and not args.no_regression_check:
            for note in check_expected(report, row["expected"]):
                regression_notes.append(f"task {row['id']}: {note}")

    text = render_report(reports, args.report)
    print(text)
    report_path = out_dir / f"report.{args.report}"
    report_path.write_text(text + "\n", encoding="utf-8")
    for note in regression_notes:
        print(f"regression: {note}", file=sys.stderr)

    failed = [r for r in reports if not r.success]
    if args.lenient:
        return 0
    if failed or regression_notes:
        return 1
    return 0


# ---------------------------------------------------------------------------
# Trace rendering and verification


def _require(ok: bool, field: str, shape: str) -> None:
    if not ok:
        raise ValueError(f"{field} must be {shape}")


def _is_record(value: object, keys: set[str]) -> bool:
    return isinstance(value, dict) and keys <= value.keys()


def _check_trace(trace: object) -> None:
    """Raise ValueError unless ``trace`` has the shape that every reader of a
    trace reads, naming the first field that is wrong; each reader runs it first."""
    _require(isinstance(trace, dict), "a trace file", "a JSON object")
    schema = trace.get("schema")
    if schema == 2:
        raise ValueError(
            "unsupported trace schema 2: its final_state_hash covers the whole scene; "
            "re-record the trace with `sdtplan run`"
        )
    if schema != TRACE_SCHEMA:
        raise ValueError(f"unsupported trace schema {schema!r}")
    for key in ("task", "plan", "scene", "sdt", "scene_sha256", "start_state_hash", "final_state_hash"):
        _require(isinstance(trace.get(key), str), f"'{key}'", "a string")
    null_or_string = (str, type(None))  # .get(key, 0) reads a missing key as 0: neither
    _require(isinstance(trace.get("goal", 0), null_or_string), "'goal'", "a string or null")
    for key in ("inject", "replan_additions"):
        _require(_is_strings(trace.get(key)), f"'{key}'", "a list of strings")
    columns = set(REPORT_COLUMNS[2:])  # the counted columns, which verify re-derives
    _require(_is_record(trace.get("report"), columns), "'report'", f"an object with {sorted(columns)}")
    _require(isinstance(trace.get("history"), list), "'history'", "a list")
    for number, entry in enumerate(trace["history"]):
        where = f"history[{number}]"
        _require(isinstance(entry, dict), where, "an object")
        for key in ("triplet", "phase"):
            _require(isinstance(entry.get(key), str), f"{where}.{key}", "a string")
        concrete = entry.get("concrete", 0)
        _require(isinstance(concrete, null_or_string), f"{where}.concrete", "a string or null")
        _require(isinstance(entry.get("skipped"), bool), f"{where}.skipped", "a boolean")
        _require(
            _is_record(entry.get("outcome"), {"status", "message"}),
            f"{where}.outcome", "an object with status and message",
        )
        _require(isinstance(entry.get("attempts"), list), f"{where}.attempts", "a list")
        for index, attempt in enumerate(entry["attempts"]):
            at = f"{where}.attempts[{index}]"
            _require(_is_record(attempt, {"feedback"}), at, "an object with feedback")
            _require(_is_strings(attempt.get("proposed")), f"{at}.proposed", "a list of strings")
            executed = attempt.get("executed")
            _require(
                isinstance(executed, list) and all(
                    _is_record(e, {"status", "message"}) and isinstance(e.get("action"), str)
                    for e in executed
                ),
                f"{at}.executed", "a list of objects with action, status and message",
            )


def _load_trace(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    _check_trace(data)
    return data


def render_trace(trace: dict) -> str:
    lines = [f"Task: {trace['task']}"]
    lines.append(f"Action-Triplets:{trace['plan']}")
    if trace["goal"]:
        lines.append(trace["goal"])
    if trace["inject"]:
        lines.append("Injected: " + ", ".join(trace["inject"]))
    lines.append("")
    for step_no, entry in enumerate(trace["history"], start=1):
        phase = f" ({entry['phase']})" if entry["phase"] != "plan" else ""
        outcome = entry["outcome"]
        if entry["skipped"]:
            lines.append(f"Step {step_no}{phase}: {entry['triplet']} -> skipped (already satisfied)")
            continue
        shown = entry["concrete"] or entry["triplet"]
        if outcome["status"] == "Success":
            lines.append(f"Step {step_no}{phase}: {entry['triplet']} -> Success {shown}")
        else:
            lines.append(
                f"Step {step_no}{phase}: {entry['triplet']} -> Error: \"{outcome['message']}\""
            )
        for attempt in entry["attempts"]:
            rendered = "[" + ",".join(attempt["proposed"]) + "]"
            lines.append(f"  Failure Resolver suggested solution actions are: {rendered}")
            lines.append(f"    => {attempt['feedback']}")
    for i, additions in enumerate(trace["replan_additions"], start=1):
        lines.append(f"Replanner iteration {i} added: {additions}")
    row = trace["report"]
    lines += ["", (
        f"Result: Success={row['Success']} No.Failure={row['No. Failure']} "
        f"IterationPerFailure={row['Iteration Per Failure']} "
        f"ReplannerIteration={row['Replanner Iteration']}"
    )]
    return "\n".join(lines)


def cli_trace(args) -> int:
    try:
        trace = _load_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    print(render_trace(trace))
    return 0


def _recorded_steps(trace: dict):
    """Every action the run executed, with its recorded outcome, in run order."""
    for entry in trace["history"]:
        if entry["concrete"] and not entry["skipped"]:
            yield entry["concrete"], entry["outcome"]
        for attempt in entry["attempts"]:
            for executed in attempt["executed"]:
                yield executed["action"], executed


def replay(trace: dict) -> tuple[WorldState, Optional[str]]:
    """Re-execute a trace's recorded actions from its header's start state.

    Returns the state reached and the first divergence, where the replay
    stops, or None. It checks, in order: the scene file's sha256, the start
    state's hash, then each step's outcome (status and message).
    """
    sdt = load_sdt(trace["sdt"])
    state = load_scene(trace["scene"], sdt)
    if state.scene.sha256 != trace["scene_sha256"]:
        return state, f"scene_sha256: stored {trace['scene_sha256']!r}, file {state.scene.sha256!r}"
    state = apply_perturbations(state, trace["inject"], sdt)
    start_hash = state_json_hash(state_to_json(state))
    if start_hash != trace["start_state_hash"]:
        return state, f"start_state_hash: stored {trace['start_state_hash']!r}, replayed {start_hash!r}"
    for number, (action, recorded) in enumerate(_recorded_steps(trace), start=1):
        state_after, outcome = step(state, ConcreteAction.parse(action), sdt)
        want = (recorded["status"], recorded["message"])
        got = (outcome.status, outcome.message)
        if got != want:
            return state, f"step {number} {action}: recorded {want!r}, replayed {got!r}"
        if outcome.ok:
            state = state_after
    return state, None


def _row_from(trace: dict, state: WorldState) -> dict:
    """Report row from the trace's history and the goal check on ``state``."""
    history = trace["history"]
    failures = sum(1 for e in history if e["outcome"]["status"] == "Error" and not e["skipped"])
    success = bool(trace["goal"]) and goal_satisfied(state, parse_goal(trace["goal"]))[0]
    return {
        "No. Failure": failures,
        "Iteration Per Failure": sum(len(e["attempts"]) for e in history),
        "Replanner Iteration": len(trace["replan_additions"]),
        "Success": "Yes" if success else "No",
    }


def recompute_row(trace: dict) -> dict:
    """Report row re-derived by replaying the trace (see ``replay``), once it passes ``_check_trace``."""
    _check_trace(trace)
    return _row_from(trace, replay(trace)[0])


def cli_verify(args) -> int:
    try:
        trace = _load_trace(args.trace_file)
        state, divergence = replay(trace)
        recomputed = _row_from(trace, state)
    except (OSError, KeyError, ValueError, SdtPlanError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    stored, stored_hash = trace["report"], trace["final_state_hash"]
    replayed_hash = state_json_hash(state_to_json(state))
    mismatches = [divergence] if divergence else []
    mismatches += [
        f"{key}: stored {stored[key]!r}, recomputed {value!r}"
        for key, value in recomputed.items() if stored[key] != value
    ]
    if stored_hash != replayed_hash:
        mismatches.append(f"final_state_hash: stored {stored_hash!r}, replayed {replayed_hash!r}")
    for m in mismatches:
        print(f"mismatch: {m}")
    if mismatches:
        return 1
    print(
        "trace verified: the scene file, the start state, every recorded step, "
        "the report row and the final state hash match the replay"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdtplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a task suite and emit the report")
    run.add_argument("--suite", help="suite file (default: packaged 14-task suite)")
    run.add_argument("--task", help="run a single task id from the suite")
    run.add_argument("--sdt", help="knowledge base file (default: packaged)")
    run.add_argument("--backend", choices=("oracle", "http"), default="oracle")
    run.add_argument("--endpoint", help="chat-completion URL for --backend http")
    run.add_argument("--model", default="", help="model name for --backend http")
    run.add_argument("--timeout", type=float, default=HttpConfig.timeout)
    run.add_argument("--max-retries", type=int, default=HttpConfig.max_retries)
    run.add_argument(
        "--inject",
        action="append",
        metavar="KIND:ARGS",
        help="extra perturbation (dirty:X, hide:X:R, fill:R, lower:X); requires --task",
    )
    run.add_argument("--mode", choices=MODES, default=RunConfig.mode)
    run.add_argument(
        "--budget", type=int, default=RunConfig.budget, help="resolver iterations per failure"
    )
    run.add_argument("--replan-cap", type=int, default=RunConfig.replan_cap)
    run.add_argument("--report", choices=("md", "csv", "json"), default="md")
    run.add_argument("--jobs", type=int, default=1, help="tasks at once; helps --backend http")
    run.add_argument("--out", default="runs", help="directory for report and trace files")
    run.add_argument("--lenient", action="store_true", help="exit 0 even when tasks fail")
    run.add_argument("--no-regression-check", action="store_true")
    run.set_defaults(func=cli_run)

    trace = sub.add_parser("trace", help="pretty-print a recorded trace file")
    trace.add_argument("trace_file")
    trace.set_defaults(func=cli_trace)

    verify = sub.add_parser("verify", help="replay a trace's actions and compare")
    verify.add_argument("trace_file")
    verify.set_defaults(func=cli_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
