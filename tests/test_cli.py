"""Command-line runner: suites, reports, traces, verification, modes."""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from sdtplan import cli
from sdtplan.cli import default_suite_path, main
from sdtplan.errors import ParseError
from sdtplan.world import load_scene


def run_cli(*argv):
    return main(list(argv))


def test_run_default_suite_all_green(tmp_path, capsys):
    code = run_cli("run", "--backend", "oracle", "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("| Yes") == 14
    assert (tmp_path / "report.md").exists()
    assert len(list(tmp_path.glob("trace_task*.json"))) == 14


def test_run_single_task_with_inject(tmp_path, capsys):
    code = run_cli(
        "run", "--task", "9", "--inject", "hide:WineBottle:Fridge",
        "--backend", "oracle", "--report", "json", "--out", str(tmp_path),
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["No. Failure"] == 1
    assert rows[0]["Iteration Per Failure"] == 4
    assert rows[0]["Success"] == "Yes"


def test_run_empty_suite_exits_zero(tmp_path, capsys):
    suite = tmp_path / "empty.json"
    suite.write_text('{"name": "empty", "tasks": []}')
    code = run_cli("run", "--suite", str(suite), "--out", str(tmp_path / "out"))
    assert code == 0


def test_run_missing_suite_is_config_error(tmp_path):
    assert run_cli("run", "--suite", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == 2


def test_run_unknown_task_id_is_config_error(tmp_path):
    assert run_cli("run", "--task", "99", "--out", str(tmp_path)) == 2


def test_inject_without_task_is_config_error(tmp_path, capsys):
    assert run_cli("run", "--inject", "dirty:Mug", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "config error: --inject requires --task\n"


@pytest.mark.parametrize(
    "spec, message",
    [("dirty", "dirty needs exactly one target"), ("melt:Mug", "unknown perturbation kind")],
)
def test_malformed_inject_spec_is_config_error(tmp_path, capsys, spec, message):
    assert run_cli("run", "--task", "10", "--inject", spec, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


_GOOD_AGENT = {"position": [0, 0.9, 0]}
_MUG = {"type": "Mug", "position": [0.5, 0.94, 0.2]}


@pytest.mark.parametrize(
    "scene, message",
    [
        ({"agent": [], "objects": [_MUG]}, "scene file's 'agent' must be an object"),
        ({"agent": _GOOD_AGENT, "objects": [_MUG, dict(_MUG, position=[1, 0.94, 0], flags=["isDirty"])]},
         "object 1: flags must be an object"),
        ({"agent": _GOOD_AGENT, "objects": [dict(_MUG, position=5)]},
         "object 0: position must be a list of 3 numbers"),
        ({"agent": _GOOD_AGENT, "objects": [dict(_MUG, position=["a", 1, 2])]},
         "object 0: position must be a list of 3 numbers"),
        ({"agent": _GOOD_AGENT, "objects": [dict(_MUG, capacity="x")]},
         "object 0: capacity must be an integer"),
        ({"agent": {"position": [1, 2]}, "objects": [_MUG]}, "agent: position must have 3 components"),
        ({"agent": dict(_GOOD_AGENT, crouched="no"), "objects": [_MUG]},
         "agent: crouched must be a boolean"),
        ({"agent": dict(_GOOD_AGENT, visibility_radius="25"), "objects": [_MUG]},
         "agent: visibility_radius must be a number"),
        ({"agent": dict(_GOOD_AGENT, visibility_radius=True), "objects": [_MUG]},
         "agent: visibility_radius must be a number"),
        ({"agent": dict(_GOOD_AGENT, view_band_standing=[0.8, "2.2"]), "objects": [_MUG]},
         "agent: view_band_standing must be a list of 2 numbers"),
        ({"agent": {"position": [0, 0.9, False]}, "objects": [_MUG]},
         "agent: position must be a list of 3 numbers"),
        ({"agent": _GOOD_AGENT, "objects": [dict(_MUG, position=["0.5", 0.94, 0.2])]},
         "object 0: position must be a list of 3 numbers"),
        ({"agent": _GOOD_AGENT, "objects": [dict(_MUG, position=[0.5, 0.94, True])]},
         "object 0: position must be a list of 3 numbers"),
        ({"agent": _GOOD_AGENT, "objects": [dict(_MUG, flags={"isDirty": "false"})]},
         "object 0: flag isDirty must be a boolean"),
        ({"agent": _GOOD_AGENT, "objects": [dict(_MUG, capacity="2")]},
         "object 0: capacity must be an integer"),
        ({"agent": _GOOD_AGENT, "objects": [dict(_MUG, capacity=2.0)]},
         "object 0: capacity must be an integer"),
        ({"agent": _GOOD_AGENT, "objects": [dict(_MUG, capacity=True)]},
         "object 0: capacity must be an integer"),
        # json.loads reads NaN and Infinity; with either, every distance test passes
        ({"agent": dict(_GOOD_AGENT, visibility_radius=math.nan), "objects": [_MUG]},
         "agent: visibility_radius must be a finite number"),
        ({"agent": dict(_GOOD_AGENT, visibility_radius=math.inf), "objects": [_MUG]},
         "agent: visibility_radius must be a finite number"),
        ({"agent": {"position": [math.nan, 0.9, 0]}, "objects": [_MUG]},
         "agent: position must be a list of 3 finite numbers"),
        ({"agent": dict(_GOOD_AGENT, view_band_standing=[0.8, math.inf]), "objects": [_MUG]},
         "agent: view_band_standing must be a list of 2 finite numbers"),
        ({"agent": dict(_GOOD_AGENT, view_band_crouched=[-math.inf, 1.5]), "objects": [_MUG]},
         "agent: view_band_crouched must be a list of 2 finite numbers"),
        ({"agent": _GOOD_AGENT, "objects": [_MUG, dict(_MUG, type=None)]},
         "object 1: type must be a string"),
    ],
)
def test_malformed_scene_is_config_error(tmp_path, capsys, sdt, scene, message):
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    row = {"id": 1, "task": "Pick up the mug", "scene": "scene.json", "inject": []}
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "bad", "tasks": [row]}))
    with pytest.raises(ParseError) as info:
        load_scene(tmp_path / "scene.json", sdt)
    assert str(info.value) == message
    assert run_cli("run", "--suite", str(suite), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


_ROW = {"id": 1, "task": "Pick up the mug", "scene": "scenes/kitchen_mug.json"}


@pytest.mark.parametrize(
    "row, message",
    [
        ("dirty:Mug", "must be an object"),
        ({"id": 2, "scene": _ROW["scene"]}, "'task' must be a string"),
        ({"id": 2, "task": _ROW["task"]}, "'scene' must be a string"),
        (dict(_ROW, id=2, inject="dirty:Mug"), "'inject' must be a list of strings"),
        (dict(_ROW, id=2, oracle_faults={"bogus": True}), "'oracle_faults' must map fault names"),
        (dict(_ROW, id=2, oracle_faults=["omit_slice"]), "'oracle_faults' must map fault names"),
        (dict(_ROW, id=2, oracle_faults={"omit_slice": "no"}), "'oracle_faults' must map fault names"),
        (dict(_ROW, id=2, expected=[1]), "'expected' must be an object"),
        # the id names the row's trace file and is what --task matches as text
        ({"task": _ROW["task"], "scene": _ROW["scene"]}, "'id' must be an integer or a string"),
        (dict(_ROW, id=True), "'id' must be an integer or a string"),
        (dict(_ROW, id=2.0), "'id' must be an integer or a string"),
        (dict(_ROW, id=[2]), "'id' must be an integer or a string"),
        (dict(_ROW, id="a/b"), "'id' must be an integer or a string"),
        (dict(_ROW, id=""), "'id' must be an integer or a string"),
        (dict(_ROW, id="2 "), "'id' must be an integer or a string"),
        (dict(_ROW), "'id' 1 repeats suite row 0"),
        (dict(_ROW, id="1"), "'id' '1' repeats suite row 0"),
        # a misspelled key used to run and then fail the row, and False == 0, 1 == True matched
        (dict(_ROW, id=2, expected={"failure": 0}), "'expected' must be an object mapping"),
        (dict(_ROW, id=2, expected={"replans": False}), "'expected' must be an object mapping"),
        (dict(_ROW, id=2, expected={"success": 1}), "'expected' must be an object mapping"),
        (dict(_ROW, id=2, expected={"success": "yes"}), "'expected' must be an object mapping"),
        (dict(_ROW, id=2, expected={"failures": -1}), "'expected' must be an object mapping"),
        (dict(_ROW, id=2, expected={"iterations": 1.0}), "'expected' must be an object mapping"),
        (dict(_ROW, id=2, expected={"failures": "0"}), "'expected' must be an object mapping"),
    ],
)
def test_malformed_suite_row_is_config_error(tmp_path, capsys, row, message):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "bad", "tasks": [_ROW, row]}))
    assert run_cli("run", "--suite", str(suite), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(f"config error: suite row 1: {message}")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "edit, message",
    [
        ({"inject": ["hide:Apple"]}, "hide needs target and receptacle"),
        ({"scene": "scenes/no_such_scene.json"}, "scene file not found"),
        ({"inject": ["dirty:Unicorn"]}, "perturbation target not in scene"),
    ],
)
def test_bad_start_state_in_a_later_row_runs_no_task(tmp_path, capsys, monkeypatch, jobs, edit, message):
    # every row's start state is built before any task runs, so a bad row 2 is refused
    # before row 1 makes a backend call, which --backend http pays for
    calls = []
    monkeypatch.setattr(cli, "run_task", lambda *args, **kwargs: calls.append(args))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "bad", "tasks": [_ROW, dict(_ROW, id=2, **edit)]}))
    code = run_cli("run", "--suite", str(suite), "--jobs", jobs, "--out", str(tmp_path / "out"))
    assert (code, calls) == (2, [])
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not (tmp_path / "out").exists()


def test_wrong_expected_pin_is_a_regression(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    row = dict(_ROW, expected={"failures": 3, "success": True})
    suite.write_text(json.dumps({"name": "wrong pin", "tasks": [row]}))
    assert run_cli("run", "--suite", str(suite), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err == "regression: task 1: failures: expected 3, got 0\n"


def test_empty_task_fails_planning_and_writes_its_trace(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "empty task", "tasks": [dict(_ROW, task="")]}))
    assert run_cli("run", "--suite", str(suite), "--out", str(tmp_path / "out")) == 1
    data = json.loads((tmp_path / "out" / "trace_task1.json").read_text())
    assert data["status"].startswith("PlanningFailed")
    assert data["report"]["Success"] == "No"


def test_inject_breaking_an_invariant_is_config_error(tmp_path):
    code = run_cli(
        "run", "--task", "14", "--inject", "fill:Drawer", "--inject", "hide:Apple:Drawer",
        "--out", str(tmp_path),
    )
    assert code == 2


def test_failing_mode_returns_one_and_lenient_zero(tmp_path):
    code = run_cli("run", "--mode", "plan", "--no-regression-check", "--out", str(tmp_path / "a"))
    assert code == 1
    code = run_cli(
        "run", "--mode", "plan", "--no-regression-check", "--lenient", "--out", str(tmp_path / "b")
    )
    assert code == 0


def test_csv_report_shape(tmp_path, capsys):
    code = run_cli("run", "--task", "10", "--report", "csv", "--out", str(tmp_path))
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("Task ID,Task Description,No. Failure")
    assert len(lines) == 2


@pytest.mark.parametrize(
    "options, name",
    [
        # inf used to raise OverflowError from the first request; NaN and 0 reached requests
        (["--timeout", "inf"], "timeout"),
        (["--timeout", "nan"], "timeout"),
        (["--timeout", "0"], "timeout"),
        (["--timeout=-1"], "timeout"),
        # -1 used to send no request and fail every task
        (["--max-retries=-1"], "max_retries"),
    ],
)
def test_http_option_out_of_range_is_config_error(tmp_path, capsys, options, name):
    # nothing listens on the endpoint: the check must come before any task runs
    code = run_cli(
        "run", "--backend", "http", "--endpoint", "http://127.0.0.1:9/v1/chat/completions",
        *options, "--out", str(tmp_path / "out"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_config_error(tmp_path, capsys, jobs):
    # used to run serially without a word
    assert run_cli("run", f"--jobs={jobs}", "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "jobs" in err, err
    assert not (tmp_path / "out").exists()


def test_jobs_parallel_matches_serial(tmp_path, capsys):
    assert run_cli("run", "--out", str(tmp_path / "serial")) == 0
    serial = capsys.readouterr().out
    assert run_cli("run", "--jobs", "4", "--out", str(tmp_path / "parallel")) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


class _SlowStub(BaseHTTPRequestHandler):
    """Answers every completion after 0.1 s and tracks the requests in flight."""

    lock = threading.Lock()
    in_flight = 0
    max_in_flight = 0

    def do_POST(self):
        cls = type(self)
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with cls.lock:
            cls.in_flight += 1
            cls.max_in_flight = max(cls.max_in_flight, cls.in_flight)
        time.sleep(0.1)
        with cls.lock:
            cls.in_flight -= 1
        data = json.dumps({"choices": [{"message": {"content": "no plan"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("jobs, overlaps", [(4, True), (1, False)])
def test_jobs_overlap_http_waits(tmp_path, capsys, jobs, overlaps):
    rows = json.loads(default_suite_path().read_text(encoding="utf-8"))["tasks"][:4]
    suite = tmp_path / "four.json"
    suite.write_text(json.dumps({"name": "four", "tasks": rows}))
    _SlowStub.in_flight = _SlowStub.max_in_flight = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowStub)
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    try:
        code = run_cli(
            "run", "--suite", str(suite), "--backend", "http", "--jobs", str(jobs),
            "--endpoint", f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions",
            "--lenient", "--no-regression-check", "--out", str(tmp_path / "out"),
        )
    finally:
        server.shutdown()
        server.server_close()
    assert code == 0
    assert len(list((tmp_path / "out").glob("trace_task*.json"))) == 4
    if overlaps:
        assert _SlowStub.max_in_flight >= 2
    else:
        assert _SlowStub.max_in_flight == 1


def test_trace_renders_wine_story(tmp_path, capsys):
    run_cli("run", "--task", "9", "--out", str(tmp_path))
    capsys.readouterr()
    trace_file = tmp_path / "trace_task9.json"
    assert run_cli("trace", str(trace_file)) == 0
    out = capsys.readouterr().out
    assert "Target object not found within the specified visibility..." in out
    assert "Failure Resolver suggested solution actions are:" in out
    assert "(Crouch,Fridge" in out and "(PickupObject,WineBottle" in out


def test_trace_shows_each_replanner_iteration(tmp_path, capsys):
    run_cli("run", "--task", "2", "--out", str(tmp_path))  # row 2 replans twice
    capsys.readouterr()
    assert run_cli("trace", str(tmp_path / "trace_task2.json")) == 0
    out = capsys.readouterr().out
    assert "Replanner iteration 1 added: [" in out
    assert "Replanner iteration 2 added: [" in out
    assert "Replanner iteration 3" not in out


def test_trace_of_clean_task_has_no_recovery_sections(tmp_path, capsys):
    run_cli("run", "--task", "10", "--out", str(tmp_path))
    capsys.readouterr()
    assert run_cli("trace", str(tmp_path / "trace_task10.json")) == 0
    out = capsys.readouterr().out
    assert "Failure Resolver" not in out


def test_trace_corrupted_file_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("trace", str(bad)) == 2
    bad.write_text('{"some": "json"}')
    assert run_cli("trace", str(bad)) == 2


def test_verify_accepts_fresh_traces(tmp_path, capsys):
    run_cli("run", "--out", str(tmp_path))
    capsys.readouterr()
    for trace_file in sorted(tmp_path.glob("trace_task*.json")):
        assert run_cli("verify", str(trace_file)) == 0, trace_file


def test_verify_detects_tampered_report(tmp_path, capsys):
    run_cli("run", "--task", "9", "--out", str(tmp_path))
    capsys.readouterr()
    trace_file = tmp_path / "trace_task9.json"
    data = json.loads(trace_file.read_text())
    data["report"]["No. Failure"] = 0
    trace_file.write_text(json.dumps(data))
    assert run_cli("verify", str(trace_file)) == 1


def _task9_trace(tmp_path, capsys):
    run_cli("run", "--task", "9", "--out", str(tmp_path))
    capsys.readouterr()
    trace_file = tmp_path / "trace_task9.json"
    return trace_file, json.loads(trace_file.read_text())


def _executed(data, entry, attempt):
    return data["history"][entry]["attempts"][attempt]["executed"][0]


def _edit_outcome_message(data):
    data["history"][3]["outcome"]["message"] = "edited"  # the (PutObject,Fridge|...) step


def _edit_executed_action(data):
    # The second recovery opens the fridge; the edit re-opens the already open drawer.
    _executed(data, 0, 1)["action"] = _executed(data, 0, 0)["action"]


def _edit_injection(data):
    data["inject"] = ["dirty:WineBottle"]  # every step replays alike; the bottle ends dirty


def _drop_injection(data):
    data["inject"] = []  # the row's failure comes from the scene, so every step replays alike


def _edit_scene_sha256(data):
    data["scene_sha256"] = "0" * 64


def _edit_scene_sha256_and_injection(data):
    _edit_scene_sha256(data)
    _drop_injection(data)


@pytest.mark.parametrize(
    "edit, named",
    [
        (_edit_outcome_message, "mismatch: step 6 (PutObject,Fridge"),
        (_edit_executed_action, "mismatch: step 2 (OpenObject,Drawer"),
        (_edit_injection, "mismatch: start_state_hash"),
        (_drop_injection, "mismatch: start_state_hash"),
        (_edit_scene_sha256, "mismatch: scene_sha256"),
        (_edit_scene_sha256_and_injection, "mismatch: scene_sha256"),
    ],
)
def test_verify_names_first_divergence(tmp_path, capsys, edit, named):
    trace_file, data = _task9_trace(tmp_path, capsys)
    edit(data)
    trace_file.write_text(json.dumps(data))
    assert run_cli("verify", str(trace_file)) == 1
    assert capsys.readouterr().out.startswith(named)


def test_verify_detects_edited_final_state_hash(tmp_path, capsys):
    trace_file, data = _task9_trace(tmp_path, capsys)
    data["final_state_hash"] = "0" * 64
    trace_file.write_text(json.dumps(data))
    assert run_cli("verify", str(trace_file)) == 1
    assert capsys.readouterr().out.startswith("mismatch: final_state_hash")


def test_trace_replaces_final_state_with_the_run_input(tmp_path, capsys):
    _, data = _task9_trace(tmp_path, capsys)
    assert "final_state" not in data
    assert data["schema"] == 3
    assert data["scene"].endswith("kitchen_wine.json") and data["sdt"].endswith("sdt.json")
    scene_bytes = Path(data["scene"]).read_bytes()
    assert data["scene_sha256"] == hashlib.sha256(scene_bytes).hexdigest()
    assert len(data["start_state_hash"]) == len(data["final_state_hash"]) == 64


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("verify", lambda d: d.update(history=5), "'history' must be a list"),
        ("verify", lambda d: d.update(report=[]), "'report' must be an object"),
        ("verify", lambda d: d.update(scene=5), "'scene' must be a string"),
        ("verify", lambda d: d.update(history=["x"]), "history[0] must be an object"),
        ("trace", lambda d: d.pop("task"), "'task' must be a string"),
        ("verify", lambda d: d.update(inject="dirty:Mug"), "'inject' must be a list of strings"),
        # history[1] is a skipped step: every entry records its outcome, a skipped one too
        ("verify", lambda d: d["history"][1].update(outcome=None),
         "history[1].outcome must be an object with status and message"),
        ("verify", lambda d: d.pop("final_state_hash"), "'final_state_hash' must be a string"),
        ("verify", lambda d: d.pop("goal"), "'goal' must be a string or null"),
        ("trace", lambda d: d["history"][0].pop("concrete"),
         "history[0].concrete must be a string or null"),
    ],
    ids=["history-int", "report-list", "scene-int", "history-entry-string", "no-task",
         "inject-string", "skipped-outcome-null", "no-final-state-hash", "no-goal", "no-concrete"],
)
def test_malformed_trace_is_trace_error(tmp_path, capsys, command, edit, message):
    trace_file, data = _task9_trace(tmp_path, capsys)
    edit(data)
    trace_file.write_text(json.dumps(data))
    assert run_cli(command, str(trace_file)) == 2
    assert capsys.readouterr().err.startswith(f"trace error: {message}")


def test_recompute_row_checks_the_trace_first(tmp_path, capsys):
    _, data = _task9_trace(tmp_path, capsys)
    data["history"] = 5
    with pytest.raises(ValueError, match="^'history' must be a list$"):
        cli.recompute_row(data)


def test_verify_rejects_schema_1_trace(tmp_path, capsys):
    trace_file, data = _task9_trace(tmp_path, capsys)
    data["schema"] = 1
    trace_file.write_text(json.dumps(data))
    assert run_cli("verify", str(trace_file)) == 2
    assert "unsupported trace schema" in capsys.readouterr().err


def test_verify_rejects_schema_2_trace(tmp_path, capsys):
    trace_file, data = _task9_trace(tmp_path, capsys)
    data["schema"] = 2
    for key in ("scene_sha256", "start_state_hash"):
        del data[key]
    trace_file.write_text(json.dumps(data))
    assert run_cli("verify", str(trace_file)) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error: unsupported trace schema 2") and "re-record" in err


def test_trace_records_cli_injections(tmp_path, capsys):
    code = run_cli(
        "run", "--task", "10", "--inject", "lower:Mug", "--no-regression-check", "--out", str(tmp_path)
    )
    assert code == 0
    trace_file = tmp_path / "trace_task10.json"
    assert json.loads(trace_file.read_text())["inject"] == ["lower:Mug"]
    capsys.readouterr()
    assert run_cli("trace", str(trace_file)) == 0
    assert "Injected: lower:Mug" in capsys.readouterr().out
    assert run_cli("verify", str(trace_file)) == 0


def test_negative_replan_cap_is_config_error(tmp_path):
    assert run_cli("run", "--task", "1", "--replan-cap", "-1", "--out", str(tmp_path)) == 2


def test_three_modes_are_independently_invocable(tmp_path):
    results = {}
    for mode in ("plan", "resolve", "replan"):
        out = tmp_path / mode
        run_cli("run", "--mode", mode, "--no-regression-check", "--lenient", "--out", str(out))
        rows = [
            json.loads(p.read_text())["report"]["Success"]
            for p in out.glob("trace_task*.json")
        ]
        results[mode] = sum(1 for s in rows if s == "Yes")
    assert results["plan"] < results["resolve"] <= results["replan"]
