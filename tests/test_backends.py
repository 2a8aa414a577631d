"""Backends: scripted oracle behavior and the HTTP chat-completion client."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from conftest import scene_for_row, suite_row

import sdtplan
from sdtplan.backends import HttpBackend, HttpConfig, OracleConfig, ScriptedOracle, ask
from sdtplan.errors import BackendError, GrammarError, OracleError, PlanParseError
from sdtplan.planner import build_plan_prompt, load_examples, nearest_examples, relevant_types
from sdtplan.resolver import FailureContext, build_action_pairs, build_failure_query
from sdtplan.sdt import ActionName
from sdtplan.triplets import ActionTriplet, parse_goal, parse_recovery, parse_triplets
from sdtplan.world import (
    ActionOutcome,
    ConcreteAction,
    MSG_CLOSED_RECEPTACLE,
    MSG_HAND_OCCUPIED,
    MSG_NO_VALID_POSITION,
    MSG_NOT_AFFORDED,
    MSG_NOT_VISIBLE,
)


# ---------------------------------------------------------------------------
# Scripted oracle


def _plan_prompt(sdt, suite, task_id):
    row = suite_row(suite, task_id)
    state = scene_for_row(row, sdt)
    return build_plan_prompt(
        row["task"], state, sdt, relevant_types(row["task"], sdt), load_examples()
    )


def _failure_query(sdt, suite, task_id, triplet, tried=None):
    row = suite_row(suite, task_id)
    state = scene_for_row(row, sdt)
    ctx = FailureContext(
        failed_triplet=triplet,
        failed_concrete=None,
        outcome=ActionOutcome.error("NotVisible", MSG_NOT_VISIBLE),
        task=row["task"],
        history_tail=[],
    )
    pairs = build_action_pairs(state, sdt, frozenset(sdt.type_names()))
    return build_failure_query(ctx, pairs, tried or {}), pairs


def test_oracle_is_deterministic(sdt, suite):
    prompt = _plan_prompt(sdt, suite, 9)
    oracle = ScriptedOracle()
    assert oracle.complete(prompt) == oracle.complete(prompt)


def test_oracle_outputs_parse_for_all_suite_plans(sdt, suite):
    for row in suite["tasks"]:
        oracle = ScriptedOracle(OracleConfig(**row.get("oracle_faults", {})))
        prompt = _plan_prompt(sdt, suite, row["id"])
        reply = oracle.complete(prompt)
        triplets = parse_triplets(reply)
        assert triplets, row["id"]
        goal = parse_goal(reply)
        assert goal.clauses


def test_oracle_plan_reply_ignores_the_worked_examples(sdt, suite):
    """The oracle's plan reply does not read ``## Worked Examples``, so which
    examples a prompt shows leaves every reply, row and final state as is."""
    for row in suite["tasks"]:
        state = scene_for_row(row, sdt)
        relevant = relevant_types(row["task"], sdt)
        oracle = ScriptedOracle(OracleConfig(**row.get("oracle_faults", {})))
        replies = {
            oracle.complete(build_plan_prompt(row["task"], state, sdt, relevant, examples))
            for examples in (load_examples(), nearest_examples(row["task"]), [])
        }
        assert len(replies) == 1, row["id"]


def test_oracle_recovery_replies_parse_and_avoid_candidates_outside_prompt(sdt, suite):
    query, pairs = _failure_query(
        sdt, suite, 9, ActionTriplet(ActionName.PICKUP, "WineBottle")
    )
    reply = ScriptedOracle().complete(query)
    sequence = parse_recovery(reply)
    assert sequence
    pair_set = {(p[0], p[1]) for p in pairs}
    for pair in sequence:
        assert (pair.name, pair.target) in pair_set


def test_oracle_never_repeats_blocked_sequence(sdt, suite):
    triplet = ActionTriplet(ActionName.PICKUP, "WineBottle")
    query, _ = _failure_query(sdt, suite, 9, triplet)
    first = parse_recovery(ScriptedOracle().complete(query))
    query2, _ = _failure_query(sdt, suite, 9, triplet, {tuple(first): "failed"})
    second = parse_recovery(ScriptedOracle().complete(query2))
    assert second != first


def test_oracle_recovery_replies_parse_for_every_suite_scene(sdt, suite, all_types):
    for row in suite["tasks"]:
        state = scene_for_row(row, sdt)
        first_type = sorted({o.type_name for o in state.objects.values()})[0]
        ctx = FailureContext(
            failed_triplet=ActionTriplet(ActionName.PICKUP, first_type),
            failed_concrete=None,
            outcome=ActionOutcome.error("NotVisible", MSG_NOT_VISIBLE),
            task=row["task"],
            history_tail=[],
        )
        pairs = build_action_pairs(state, sdt, all_types)
        query = build_failure_query(ctx, pairs, {})
        reply = ScriptedOracle().complete(query)
        parse_recovery(reply)  # grammar-valid or the parser raises


_MESSAGES = {
    "NoValidPosition": MSG_NO_VALID_POSITION,
    "NotVisible": MSG_NOT_VISIBLE,
    "ClosedReceptacle": MSG_CLOSED_RECEPTACLE,
    "HandOccupied": MSG_HAND_OCCUPIED,
    "NotAfforded": MSG_NOT_AFFORDED,
}
_DRAWER_FULL = "Drawer|+00.40|+00.82|-00.50"
_DRAWER_SPARE = "Drawer|+01.60|+00.82|-00.80"
_SPONGE = "Sponge|+00.70|+00.96|+00.25"
_SPONGE_COUNTER = "CounterTop|+00.70|+00.95|+00.10"
_FRIDGE = "Fridge|-01.30|+00.90|+00.99"
_DRAWER_WINE = "Drawer|+00.50|+00.82|+00.30"


# The exact oracle reply for each recovery strategy, for the fallback taken by
# a code without one, and for a do-not-repeat section that blocks a first choice.
@pytest.mark.parametrize(
    "task_id, code, triplet, grounded, blocked, expected",
    [
        pytest.param(
            3, "NoValidPosition", ActionTriplet(ActionName.PUT, "Knife", "Drawer"), _DRAWER_FULL, (),
            f"[(OpenObject,{_DRAWER_SPARE}),(PutObject,{_DRAWER_SPARE})]",
            id="placement-opens-alternate-first",
        ),
        pytest.param(
            8, "NoValidPosition", ActionTriplet(ActionName.PUT, "Plate", "CounterTop"),
            "CounterTop|+00.80|+00.95|-00.30", (),
            "[(PutObject,CounterTop|+01.70|+00.95|+00.60)]",
            id="placement-same-type",
        ),
        pytest.param(
            9, "NotVisible", ActionTriplet(ActionName.PICKUP, "WineBottle"), None, (),
            "[(OpenObject,Drawer|+00.50|+00.82|+00.30)]",
            id="visibility-open",
        ),
        pytest.param(
            12, "NotVisible", ActionTriplet(ActionName.PICKUP, "Sponge"), None, (),
            f"[(PickupObject,{_SPONGE})]",
            id="visibility-direct",
        ),
        pytest.param(
            12, "NotVisible", ActionTriplet(ActionName.PICKUP, "Sponge"), None,
            (f"[(PickupObject,{_SPONGE})]",),
            f"[(Crouch,{_SPONGE_COUNTER}),(PickupObject,{_SPONGE})]",
            id="visibility-crouch-direct",
        ),
        pytest.param(
            12, "NotVisible", ActionTriplet(ActionName.PICKUP, "Sponge"), None,
            (f"[(PickupObject,{_SPONGE})]", f"[(Crouch,{_SPONGE_COUNTER}),(PickupObject,{_SPONGE})]"),
            f"[(Stand,{_SPONGE_COUNTER}),(PickupObject,{_SPONGE})]",
            id="visibility-stand-direct",
        ),
        pytest.param(
            14, "ClosedReceptacle", ActionTriplet(ActionName.PUT, "Apple", "Drawer"),
            "Drawer|+00.45|+00.82|+00.35", (),
            "[(OpenObject,Drawer|+00.45|+00.82|+00.35)]",
            id="closed-receptacle",
        ),
        pytest.param(
            14, "HandOccupied", ActionTriplet(ActionName.PICKUP, "Knife"), "Knife|+00.95|+00.97|+00.35", (),
            "[(PutObject,Drawer|+00.45|+00.82|+00.35)]",
            id="hand-occupied",
        ),
        pytest.param(
            14, "NotAfforded", ActionTriplet(ActionName.SLICE, "Apple"), "Apple|+00.95|+00.97|+00.05", (),
            "[(GotoObject,Knife|+00.95|+00.97|+00.35)]",
            id="fallback-no-strategy",
        ),
        pytest.param(
            9, "NotVisible", ActionTriplet(ActionName.PICKUP, "WineBottle"), None,
            ("[(OpenObject,Drawer|+00.50|+00.82|+00.30)]",),
            "[(OpenObject,Fridge|-01.30|+00.90|+00.99)]",
            id="blocked-first-choice",
        ),
        pytest.param(
            3, "NoValidPosition", ActionTriplet(ActionName.PUT, "Knife", "Drawer"), _DRAWER_FULL,
            (f"[(OpenObject,{_DRAWER_SPARE}),(PutObject,{_DRAWER_SPARE})]",),
            "[(PutObject,CounterTop|+00.95|+00.95|+00.20)]",
            id="blocked-placement",
        ),
        pytest.param(
            9, "NotVisible", ActionTriplet(ActionName.PUT, "WineBottle", "Fridge"), _FRIDGE,
            (f"[(OpenObject,{_DRAWER_WINE})]", f"[(OpenObject,{_FRIDGE})]"),
            f"[(PutObject,{_FRIDGE})]",
            id="visibility-direct-put-retries-receptacle",
        ),
    ],
)
def test_oracle_recovery_reply_per_strategy(
    sdt, suite, all_types, task_id, code, triplet, grounded, blocked, expected
):
    row = suite_row(suite, task_id)
    state = scene_for_row(row, sdt)
    ctx = FailureContext(
        failed_triplet=triplet,
        failed_concrete=None if grounded is None else ConcreteAction(name=triplet.action, target=grounded),
        outcome=ActionOutcome.error(code, _MESSAGES[code]),
        task=row["task"],
        history_tail=[],
    )
    tried = {tuple(parse_recovery(sequence)): "failed" for sequence in blocked}
    query = build_failure_query(ctx, build_action_pairs(state, sdt, all_types, grounded), tried)
    assert ScriptedOracle().complete(query) == expected


def test_oracle_rejects_unknown_prompt_layout():
    with pytest.raises(OracleError):
        ScriptedOracle().complete("tell me a joke")


def test_oracle_fault_switch_omit_slice_changes_plan_not_goal(sdt, suite):
    prompt = _plan_prompt(sdt, suite, 2)
    honest = ScriptedOracle().complete(prompt)
    faulty = ScriptedOracle(OracleConfig(omit_slice=True)).complete(prompt)
    assert "SliceObject" in honest and "SliceObject" not in faulty
    assert parse_goal(honest) == parse_goal(faulty)


def test_oracle_misorder_heat_toggles_with_door_open(sdt, suite):
    prompt = _plan_prompt(sdt, suite, 2)
    reply = ScriptedOracle(OracleConfig(misorder_heat=True)).complete(prompt)
    plan = parse_triplets(reply)
    actions = [t.action for t in plan]
    toggle_on = actions.index(ActionName.TOGGLE_ON)
    close = actions.index(ActionName.CLOSE)
    assert toggle_on < close


# ---------------------------------------------------------------------------
# HTTP client


#: ``echo`` False sends ``content`` as the completion's content verbatim.
_STUB_DEFAULTS = {
    "failures_left": 0, "delay": 0.0, "requests": 0, "status": 500, "retry_after": None,
    "echo": True, "content": None,
}


class _StubHandler(BaseHTTPRequestHandler):
    behavior = dict(_STUB_DEFAULTS)

    def do_POST(self):
        cls = type(self)
        cls.behavior["requests"] += 1
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        if cls.behavior["delay"] and self.server.stopping.wait(cls.behavior["delay"]):
            return  # the fixture is shutting down: end the delay early, with no reply
        if cls.behavior["failures_left"] > 0:
            cls.behavior["failures_left"] -= 1
            self.send_response(cls.behavior["status"])
            if cls.behavior["retry_after"] is not None:
                self.send_header("Retry-After", cls.behavior["retry_after"])
            self.end_headers()
            return
        prompt = body["messages"][0]["content"]
        content = f"echo:{prompt}" if cls.behavior["echo"] else cls.behavior["content"]
        payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _StubServer(ThreadingHTTPServer):
    # server_close() joins the handler threads, so a handler still writing to a
    # client that timed out reports its broken pipe before the test ends, not
    # into a later test's captured stderr
    daemon_threads = False

    def __init__(self, *args):
        super().__init__(*args)
        #: set by the fixture before shutdown(), so server_close() does not wait out a delay
        self.stopping = threading.Event()


@pytest.fixture()
def stub_server():
    _StubHandler.behavior = dict(_STUB_DEFAULTS)
    server = _StubServer(("127.0.0.1", 0), _StubHandler)
    # a short poll, so shutdown() returns within 10 ms rather than the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", _StubHandler.behavior
    server.stopping.set()
    server.shutdown()
    server.server_close()


def test_cli_import_does_not_load_requests():
    src = str(Path(sdtplan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, sdtplan.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_http_echo(stub_server):
    url, _ = stub_server
    backend = HttpBackend(HttpConfig(endpoint=url, model="test-model", timeout=5))
    assert backend.complete("canned plan") == "echo:canned plan"


def test_http_sends_env_token(stub_server, monkeypatch):
    url, _ = stub_server
    monkeypatch.setenv("SDT_AGENT_API_KEY", "sekrit")
    backend = HttpBackend(HttpConfig(endpoint=url, model="m", timeout=5))
    assert backend.complete("x") == "echo:x"


def test_http_retries_then_fails_on_500s(stub_server):
    url, behavior = stub_server
    behavior["failures_left"] = 3
    backend = HttpBackend(HttpConfig(endpoint=url, model="m", timeout=5, max_retries=2))
    with pytest.raises(BackendError):
        backend.complete("x")
    assert behavior["requests"] == 3  # initial try plus two retries


def test_http_recovers_within_retry_budget(stub_server):
    url, behavior = stub_server
    behavior["failures_left"] = 2
    backend = HttpBackend(HttpConfig(endpoint=url, model="m", timeout=5, max_retries=2))
    assert backend.complete("x") == "echo:x"


def test_http_retries_429_within_budget(stub_server):
    url, behavior = stub_server
    behavior.update(failures_left=1, status=429)
    backend = HttpBackend(HttpConfig(endpoint=url, model="m", timeout=5, max_retries=2))
    assert backend.complete("x") == "echo:x"
    assert behavior["requests"] == 2


def test_http_persistent_429_fails_after_budget(stub_server):
    url, behavior = stub_server
    behavior.update(failures_left=10, status=429)
    backend = HttpBackend(HttpConfig(endpoint=url, model="m", timeout=5, max_retries=2))
    with pytest.raises(BackendError):
        backend.complete("x")
    assert behavior["requests"] == 3


@pytest.mark.parametrize(
    "retry_after, expected_sleep",
    [("3", 3.0), ("120", 5.0), ("0", 0.25), ("soon", 0.25), ("-4", 0.25)],
)
def test_http_429_sleeps_for_capped_retry_after(stub_server, monkeypatch, retry_after, expected_sleep):
    url, behavior = stub_server
    behavior.update(failures_left=1, status=429, retry_after=retry_after)
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    backend = HttpBackend(HttpConfig(endpoint=url, model="m", timeout=5, max_retries=2))
    assert backend.complete("x") == "echo:x"
    assert sleeps == [expected_sleep]  # larger of backoff and Retry-After, capped at timeout


@pytest.mark.parametrize("content", [None, 42, ["text"]])
def test_http_non_string_content_is_backend_error(stub_server, content):
    # OpenAI-compatible servers send "content": null on refusals and tool calls
    url, behavior = stub_server
    behavior.update(echo=False, content=content)
    backend = HttpBackend(HttpConfig(endpoint=url, model="m", timeout=5, max_retries=2))
    with pytest.raises(BackendError, match="content"):
        backend.complete("x")
    assert behavior["requests"] == 1


def test_http_timeout_raises_backend_error(stub_server):
    url, behavior = stub_server
    behavior["delay"] = 1.0
    backend = HttpBackend(HttpConfig(endpoint=url, model="m", timeout=0.2, max_retries=1))
    started = time.monotonic()
    with pytest.raises(BackendError):
        backend.complete("x")
    elapsed = time.monotonic() - started
    # never blocks longer than timeout*(retries+1) plus the backoff schedule
    assert elapsed < 0.2 * 2 + 0.25 + 1.0


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"timeout": math.inf}, "timeout"),
        ({"timeout": math.nan}, "timeout"),
        ({"timeout": 0.0}, "timeout"),
        ({"timeout": -5.0}, "timeout"),
        ({"max_retries": -1}, "max_retries"),
    ],
)
def test_http_config_out_of_range_raises(fields, name):
    with pytest.raises(ValueError, match=name):
        HttpConfig(endpoint="http://127.0.0.1:9/", model="m", **fields)


# ---------------------------------------------------------------------------
# ask: one reformat retry on a grammar error


class _RecordingBackend:
    """Answers every prompt with one reply (or raises one error) and records the prompts."""

    name, deterministic = "recording", True

    def __init__(self, reply="", error=None):
        self.reply, self.error, self.prompts = reply, error, []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if self.error is not None:
            raise self.error
        return self.reply


def test_ask_resends_with_reminder_then_chains_the_grammar_error():
    backend = _RecordingBackend(reply="gibberish")
    with pytest.raises(PlanParseError) as exc:
        ask(backend, "prompt", parse_triplets, " REMINDER")
    assert backend.prompts == ["prompt", "prompt REMINDER"]
    assert isinstance(exc.value.__cause__, GrammarError)


@pytest.mark.parametrize("reply", [None, 42, b"Action-Triplets:[]"])
def test_ask_treats_a_non_string_reply_as_a_grammar_error(reply):
    backend = _RecordingBackend(reply=reply)
    with pytest.raises(PlanParseError) as exc:
        ask(backend, "prompt", parse_triplets, " REMINDER")
    assert backend.prompts == ["prompt", "prompt REMINDER"]
    assert isinstance(exc.value.__cause__, GrammarError)


def test_ask_does_not_retry_backend_errors():
    backend = _RecordingBackend(error=BackendError("HTTP 400"))
    with pytest.raises(BackendError):
        ask(backend, "prompt", parse_triplets, " REMINDER")
    assert backend.prompts == ["prompt"]
