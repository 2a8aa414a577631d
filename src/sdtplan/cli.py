"""Command-line runner: task suites, failure injection, reports, traces.

Exit codes: 0 all tasks succeeded, 1 some task failed (or verification
mismatch), 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path
from typing import Iterator, Optional

from .backends import HttpBackend, HttpConfig, OracleConfig, Recorder, ReplayBackend, ScriptedOracle
from .errors import SdtPlanError
from .replanner import RunConfig, TaskReport, run_task
from .sdt import load_sdt
from .world import WorldState, apply_perturbations, load_scene, state_json_hash, state_to_json

#: Version of the trace layout that ``_write_trace`` writes and ``rerun`` reads.
TRACE_SCHEMA = 7

REPORT_COLUMNS = (
    "Task ID",
    "Task Description",
    "No. Failure",
    "Iteration Per Failure",
    "Replanner Iteration",
    "Success",
)


#: The package data directory, which a trace names its packaged files relative to.
_DATA_DIR = Path(__file__).resolve().parent / "data"


def _data_path(name: str) -> Path:
    """The file ``name`` names: under the package data when it is relative,
    itself when it is absolute. This also reads a trace's ``scene`` and ``sdt``."""
    return _DATA_DIR / name


def default_suite_path() -> Path:
    return _data_path("suites/table1.json")


def default_sdt_path() -> Path:
    return _data_path("sdt.json")


def _trace_name(path: Path) -> str:
    """How a trace names ``path``: relative to the package data when it lies
    there, so that a committed trace names the same file in any checkout or
    install, and absolute otherwise."""
    path = path.resolve()
    return path.relative_to(_DATA_DIR).as_posix() if path.is_relative_to(_DATA_DIR) else str(path)


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
_ROW_FIELDS = frozenset({"id", "task", "scene", "inject", "oracle_faults", "expected"})


def _is_strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _encodes(text: str) -> bool:
    """Whether UTF-8 can encode ``text``, so that it prints: it holds no surrogate."""
    return re.search("[\ud800-\udfff]", text) is None


def _require(ok: bool, field: str, shape: str) -> None:
    if not ok:
        raise ValueError(f"{field} must be {shape}")


def _check_row(row: object, where: str) -> None:
    """Raise ValueError unless ``row`` has the shape a suite row needs."""
    _require(isinstance(row, dict), f"{where}:", "an object")
    if extra := sorted(row.keys() - _ROW_FIELDS):
        raise ValueError(f"{where}: unknown fields {extra}")
    row_id = row.get("id")  # names the trace file; --task matches it as text
    _require(
        type(row_id) is int or isinstance(row_id, str) and re.fullmatch(r"[\w-]+", row_id, re.ASCII),
        f"{where}: 'id'", "an integer or a string of letters, digits, - and _",
    )
    for key in ("task", "scene"):
        _require(isinstance(row.get(key), str), f"{where}: '{key}'", "a string")
    _require(_encodes(row["task"]), f"{where}: 'task'", "text that UTF-8 can encode")
    _require(len(row["task"].splitlines()) <= 1, f"{where}: 'task'", "one line")
    _require(_is_strings(row.get("inject", [])), f"{where}: 'inject'", "a list of strings")
    faults = row.get("oracle_faults", {})
    if not isinstance(faults, dict) or not all(
        name in _FAULT_NAMES and isinstance(on, bool) for name, on in faults.items()
    ):
        raise ValueError(
            f"{where}: 'oracle_faults' must map fault names {sorted(_FAULT_NAMES)} to booleans"
        )
    expected = row.get("expected", {})
    _require(
        isinstance(expected, dict) and all(
            isinstance(v, bool) if k == "success" else k in _COUNTS and type(v) is int and v >= 0
            for k, v in expected.items()
        ),
        f"{where}: 'expected'",
        f"an object mapping {', '.join(_COUNTS)} to counts of 0 or more and success to a boolean",
    )


def load_suite(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        suite = json.load(fh)
    if not isinstance(suite, dict) or not isinstance(suite.get("tasks"), list):
        raise ValueError("suite file needs a 'tasks' array")
    if extra := sorted(suite.keys() - {"name", "tasks"}):
        raise ValueError(f"suite file: unknown fields {extra}")
    first_of: dict[str, int] = {}
    for index, row in enumerate(suite["tasks"]):
        _check_row(row, f"suite row {index}")
        first = first_of.setdefault(str(row["id"]), index)
        if first != index:
            raise ValueError(f"suite row {index}: 'id' {row['id']!r} repeats suite row {first}")
    return suite


def _http_config(args) -> Optional[HttpConfig]:
    """The checked settings of the HTTP backend that ``--endpoint`` selects, or
    None for the oracle."""
    if args.endpoint is None:
        return None
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


def trace_header(
    row: dict, config: RunConfig, suite_dir: Path, extra_injections: list[str], sdt, sdt_file: str
) -> tuple[dict, WorldState]:
    """A run's input as its trace records it, and the start state it builds.

    The input is enough to rebuild the start state; ``scene_sha256`` and
    ``start_state_hash`` pin the scene file and the state built from it.
    ``sdt_file`` names the file ``sdt`` was loaded from, as ``_trace_name`` does.
    """
    scene = _resolve_scene(row["scene"], suite_dir)
    header = {
        "schema": TRACE_SCHEMA,
        "scene": _trace_name(scene),
        "sdt": sdt_file,
        "inject": list(row.get("inject", [])) + extra_injections,
        "oracle_faults": row.get("oracle_faults", {}),
        **dataclasses.asdict(config),
    }
    state = apply_perturbations(load_scene(scene, sdt), header["inject"], sdt)
    header["scene_sha256"] = state.scene.sha256
    header["start_state_hash"] = state_json_hash(state_to_json(state))
    return header, state


def _run_record(report: TaskReport, exchanges: list[dict]) -> dict:
    """What a trace holds after its header: the run's report, final state hash and exchanges."""
    return {
        "task_id": report.task_id,
        "task": report.description,
        **report.to_json(),
        "final_state_hash": state_json_hash(state_to_json(report.final_state)),
        "exchanges": exchanges,
    }


def _write_trace(report: TaskReport, header: dict, exchanges: list[dict], out_dir: Path) -> Path:
    path = out_dir / f"trace_task{report.task_id}.json"
    path.write_text(json.dumps({**header, **_run_record(report, exchanges)}, indent=2), encoding="utf-8")
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
    # a | in a cell would open a column of its own
    rows = [{c: str(row[c]).replace("|", "\\|") for c in REPORT_COLUMNS} for row in rows]
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) if rows else len(c) for c in REPORT_COLUMNS}
    header = "| " + " | ".join(c.ljust(widths[c]) for c in REPORT_COLUMNS) + " |"
    sep = "|" + "|".join("-" * (widths[c] + 2) for c in REPORT_COLUMNS) + "|"
    lines = [header, sep]
    for row in rows:
        lines.append("| " + " | ".join(row[c].ljust(widths[c]) for c in REPORT_COLUMNS) + " |")
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
        sdt_file = _trace_name(Path(args.sdt or default_sdt_path()))
        sdt = load_sdt(_data_path(sdt_file))
        suite_path = Path(args.suite) if args.suite else default_suite_path()
        suite = load_suite(suite_path)
        config = RunConfig(args.budget, args.replan_cap)
        http = _http_config(args)
        if args.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {args.jobs}")
        rows = suite["tasks"]
        if args.task is not None:
            rows = [r for r in rows if str(r["id"]) == str(args.task)]
            if not rows:
                raise ValueError(f"no task with id {args.task}")
        # every row's start state, before any task runs and pays for backend calls
        starts = [
            (row, *trace_header(row, config, suite_path.parent, list(args.inject or []), sdt, sdt_file))
            for row in rows
        ]
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError, SdtPlanError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    def worker(start: tuple[dict, dict, WorldState]) -> tuple[dict, TaskReport]:
        row, header, scene = start
        recorder = Recorder(_backend_for(http, header["oracle_faults"]))
        report = run_task(row["task"], scene, sdt, recorder, config, task_id=row["id"])
        _write_trace(report, header, recorder.exchanges, out_dir)
        return row, report

    if args.jobs > 1 and len(rows) > 1:
        import concurrent.futures  # only here, so a serial run does not pay for the import

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
    # a row's pins describe its run on the oracle with the default settings and no --inject
    pinned = config == RunConfig() and http is None and not args.inject
    for row, report in results:
        reports.append(report)
        if pinned and row.get("expected"):
            for note in check_expected(report, row["expected"]):
                regression_notes.append(f"task {row['id']}: {note}")

    text = render_report(reports, args.report)
    print(text)
    (out_dir / f"report.{args.report}").write_text(text + "\n", encoding="utf-8")
    for note in regression_notes:
        print(f"regression: {note}", file=sys.stderr)

    failed = any(not r.success for r in reports) or regression_notes
    return 1 if failed and not args.lenient else 0


# ---------------------------------------------------------------------------
# Trace rendering and verification


def _is_record(value: object, keys: set[str]) -> bool:
    return isinstance(value, dict) and keys <= value.keys()


def _check_trace(trace: object) -> None:
    """Raise ValueError unless ``trace`` has the shape that every reader of a
    trace reads, naming the first field that is wrong; each reader runs it first."""
    _require(isinstance(trace, dict), "a trace file", "a JSON object")
    schema = trace.get("schema")
    if type(schema) is int and 0 < schema < TRACE_SCHEMA:
        raise ValueError(
            f"unsupported trace schema {schema}, an older layout: re-record the trace with `sdtplan run`"
        )
    if schema != TRACE_SCHEMA:
        raise ValueError(f"unsupported trace schema {schema!r}")
    for key in ("task", "plan", "scene", "sdt", "scene_sha256", "start_state_hash", "final_state_hash"):
        _require(isinstance(trace.get(key), str), f"'{key}'", "a string")
    for key, value in trace.items():  # whatever `sdtplan trace` prints must encode
        _require(_encodes(json.dumps(value, ensure_ascii=False)), f"'{key}'", "text that UTF-8 can encode")
    null_or_string = (str, type(None))  # .get(key, 0) reads a missing key as 0: neither
    _require(isinstance(trace.get("goal", 0), null_or_string), "'goal'", "a string or null")
    _require(type(trace.get("task_id")) in (int, str), "'task_id'", "an integer or a string")
    for key in ("budget", "replan_cap"):
        _require(type(trace.get(key)) is int and trace[key] >= 0, f"'{key}'", "an integer of 0 or more")
    _require(isinstance(trace.get("exchanges"), list), "'exchanges'", "a list")
    for index, exchange in enumerate(trace["exchanges"]):
        _require(_is_record(exchange, {"reply"}), f"exchanges[{index}]", "an object with a reply")
        _require(  # as Recorder writes it
            isinstance(exchange["reply"], str)
            or exchange["reply"] is None and isinstance(exchange.get("error"), str),
            f"exchanges[{index}]", "a string reply, or a null reply beside a string error",
        )
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


def rerun(trace: dict) -> dict:
    """Re-run a checked trace's task from its header, answering each prompt
    with the next recorded reply, and return its ``_run_record``. When the
    scene file's sha256, then the start state's hash, differs from the
    header's, the task does not run and that digest alone is returned."""
    sdt = load_sdt(_data_path(trace["sdt"]))
    state = load_scene(_data_path(trace["scene"]), sdt)
    if state.scene.sha256 != trace["scene_sha256"]:
        return {"scene_sha256": state.scene.sha256}
    state = apply_perturbations(state, trace["inject"], sdt)
    if (start_hash := state_json_hash(state_to_json(state))) != trace["start_state_hash"]:
        return {"start_state_hash": start_hash}
    recorder = Recorder(ReplayBackend(trace["exchanges"]))
    config = RunConfig(trace["budget"], trace["replan_cap"])
    report = run_task(trace["task"], state, sdt, recorder, config, task_id=trace["task_id"])
    return _run_record(report, recorder.exchanges)


def _divergences(trace: dict, record: dict) -> Iterator[str]:
    """Each key of a re-run's ``record`` whose value differs from the trace's,
    ``wall_time_s`` aside; a list names its first differing entry."""
    for key, value in record.items():
        stored = trace.get(key)
        if key != "wall_time_s" and stored != value:
            if isinstance(stored, list) and isinstance(value, list):
                pairs = enumerate(zip(stored, value))
                n = next((i for i, (a, b) in pairs if a != b), min(len(stored), len(value)))
                key, stored, value = f"{key}[{n}]", stored[n:n + 1], value[n:n + 1]
            yield f"{key}: stored {stored!r}, re-run {value!r}"


def recompute_row(trace: dict) -> dict:
    """The counted report columns of a re-run of the trace (see ``rerun``), once it
    passes ``_check_trace``; NaN, which equals no stored value, when it did not run."""
    _check_trace(trace)
    report = rerun(trace).get("report")
    return {column: report[column] if report else math.nan for column in REPORT_COLUMNS[2:]}


def cli_verify(args) -> int:
    try:
        trace = _load_trace(args.trace_file)
        mismatches = list(_divergences(trace, rerun(trace)))
    except (OSError, KeyError, ValueError, SdtPlanError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(f"mismatch: {m}" for m in mismatches) or (
        "trace verified: a re-run of the task from its recorded replies writes every recorded field"
    ))
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdtplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a task suite and emit the report")
    run.add_argument("--suite", help="suite file (default: packaged 14-task suite)")
    run.add_argument("--task", help="run a single task id from the suite")
    run.add_argument("--sdt", help="knowledge base file (default: packaged)")
    run.add_argument("--endpoint", help="chat-completion URL of a model to ask (default: the offline oracle)")
    run.add_argument("--model", default="", help="model name sent to --endpoint")
    run.add_argument("--timeout", type=float, default=HttpConfig.timeout)
    run.add_argument("--max-retries", type=int, default=HttpConfig.max_retries)
    run.add_argument(
        "--inject",
        action="append",
        metavar="KIND:ARGS",
        help="extra perturbation (dirty:X, hide:X:R, fill:R, lower:X); requires --task",
    )
    run.add_argument(
        "--budget", type=int, default=RunConfig.budget, help="resolver iterations per failure"
    )
    run.add_argument("--replan-cap", type=int, default=RunConfig.replan_cap)
    run.add_argument("--report", choices=("md", "csv", "json"), default="md")
    run.add_argument("--jobs", type=int, default=1, help="tasks at once; helps with --endpoint")
    run.add_argument("--out", default="runs", help="directory for report and trace files")
    run.add_argument("--lenient", action="store_true", help="exit 0 even when tasks fail")
    run.set_defaults(func=cli_run)

    trace = sub.add_parser("trace", help="pretty-print a recorded trace file")
    trace.add_argument("trace_file")
    trace.set_defaults(func=cli_trace)

    verify = sub.add_parser("verify", help="re-run a trace's task from its recorded replies and compare")
    verify.add_argument("trace_file")
    verify.set_defaults(func=cli_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
