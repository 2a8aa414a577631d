"""Outside-in tracer: spans around the calls into each sdtplan layer.

The package binds most layer functions by name in the calling module
(``from .world import step`` inside ``interpreter`` and ``resolver``), so a
wrapper is installed on every binding a caller looks the function up through,
not on the defining module alone. Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable

#: Prompt header line -> prompt kind (the prompt layouts' fixed first lines).
PROMPT_KINDS = {
    "# PLAN REQUEST": "plan",
    "# OBJECT CHOICE REQUEST": "choice",
    "# FAILURE RECOVERY REQUEST": "recovery",
    "# REPLAN REQUEST": "replan",
}

#: (module or class path, attribute, span name). The span name is
#: ``<defining module>.<function>``, whichever binding the call went through.
BINDINGS = (
    ("sdtplan.cli", "run_task", "replanner.run_task"),
    ("sdtplan.cli", "load_scene", "world.load_scene"),
    ("sdtplan.cli", "apply_perturbations", "world.apply_perturbations"),
    ("sdtplan.cli", "load_sdt", "sdt.load_sdt"),
    ("sdtplan.cli", "state_to_json", "world.state_to_json"),
    ("sdtplan.replanner", "make_plan", "planner.plan"),
    ("sdtplan.replanner", "execute_plan", "interpreter.execute_plan"),
    ("sdtplan.replanner", "replan", "replanner.replan"),
    ("sdtplan.replanner", "goal_satisfied", "triplets.goal_satisfied"),
    ("sdtplan.replanner", "object_descriptions", "world.object_descriptions"),
    ("sdtplan.interpreter", "resolve", "interpreter.resolve"),
    ("sdtplan.interpreter", "step", "world.step"),
    ("sdtplan.interpreter", "postcondition_satisfied", "interpreter.postcondition_satisfied"),
    ("sdtplan.interpreter", "object_descriptions", "world.object_descriptions"),
    ("sdtplan.resolver", "resolve", "interpreter.resolve"),
    ("sdtplan.resolver", "step", "world.step"),
    ("sdtplan.resolver", "postcondition_satisfied", "interpreter.postcondition_satisfied"),
    ("sdtplan.resolver", "resolve_failure", "resolver.resolve_failure"),
    ("sdtplan.resolver", "build_action_pairs", "resolver.build_action_pairs"),
    ("sdtplan.resolver", "filter_actions", "sdt.filter_actions"),
    ("sdtplan.resolver", "object_descriptions", "world.object_descriptions"),
    ("sdtplan.planner", "build_plan_prompt", "planner.build_plan_prompt"),
    ("sdtplan.planner", "filter_relevant_objects", "planner.filter_relevant_objects"),
    ("sdtplan.planner", "object_descriptions", "world.object_descriptions"),
    ("sdtplan.backends:ScriptedOracle", "complete", "backends.complete"),
    ("sdtplan.replanner:TaskReport", "to_json", "replanner.TaskReport.to_json"),
)

#: Bindings without which the end-to-end counters cannot be taken.
REQUIRED = {"backends.complete"}


def _note_complete(args, result) -> tuple:
    prompt = args[1]
    end = prompt.find("\n")
    kind = PROMPT_KINDS.get(prompt[:end] if end >= 0 else prompt, "other")
    return (kind, len(prompt), len(result))


def _note_step(args, result) -> bool:
    return not result[1].ok


def _note_resolve_failure(args, result) -> tuple:
    return (result[1], result[2])  # (status, iterations)


def _note_load_scene(args, result) -> int:
    return len(result.objects)


#: Span name -> function of (args, result) whose value is kept on the span.
NOTES: dict[str, Callable] = {
    "backends.complete": _note_complete,
    "world.step": _note_step,
    "resolver.build_action_pairs": lambda args, result: len(result),
    "resolver.resolve_failure": _note_resolve_failure,
    "world.load_scene": _note_load_scene,
    "interpreter.postcondition_satisfied": lambda args, result: bool(result),
}


def _resolve_owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans ``[name, start, end, parent, task, note]`` in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.task: object = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        for path, attr, name in BINDINGS:
            owner = _resolve_owner(path)
            if not hasattr(owner, attr):
                if name in REQUIRED:
                    self.uninstall()
                    raise RuntimeError(f"cannot trace {name}: {path}.{attr} is gone")
                self.missing.append(f"{path}.{attr}")
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and notes."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "notes": []})
    for i, span in enumerate(spans):
        entry = out[span[0]]
        entry["calls"] += 1
        entry["incl_s"] += span[2] - span[1]
        entry["self_s"] += span[2] - span[1] - child_time[i]
        if span[5] is not None:
            entry["notes"].append(span[5])
    return out


def layer_metrics(spans: list[list], tasks: int) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) of one pass over ``tasks`` tasks, per task."""
    s = summarize(spans)
    m: dict[str, tuple[float, str]] = {}
    for name in (
        "resolver.build_action_pairs", "resolver.resolve_failure", "sdt.filter_actions",
        "world.step", "world.object_descriptions", "interpreter.resolve",
        "interpreter.postcondition_satisfied", "backends.complete", "planner.plan",
        "replanner.replan", "triplets.goal_satisfied",
    ):
        m[f"{name}.calls"] = (s[name]["calls"] / tasks, "calls/task")
        m[f"{name}.self_ms"] = (s[name]["self_s"] * 1000 / tasks, "ms/task")
    for name in (
        "interpreter.execute_plan", "planner.build_plan_prompt",
        "planner.filter_relevant_objects", "replanner.run_task", "cli.main",
    ):
        m[f"{name}.self_ms"] = (s[name]["self_s"] * 1000 / tasks, "ms/task")
    for name in (
        "sdt.load_sdt", "world.load_scene", "world.apply_perturbations",
        "world.state_to_json", "replanner.TaskReport.to_json",
    ):
        m[f"{name}.ms"] = (s[name]["incl_s"] * 1000 / tasks, "ms/task")

    m["resolver.pairs_emitted"] = (sum(s["resolver.build_action_pairs"]["notes"]) / tasks, "pairs/task")
    failures = s["resolver.resolve_failure"]["notes"]
    iterations = sum(n[1] for n in failures)
    resolved = sum(1 for n in failures if n[0] == "Resolved")
    m["resolver.iterations"] = (iterations / tasks, "iterations/task")
    m["resolver.resolved_ratio"] = (resolved / iterations if iterations else 0.0, "ratio")
    m["world.step.errors"] = (sum(s["world.step"]["notes"]) / tasks, "errors/task")
    # A postcondition that already holds when the execution loop checks it
    # becomes a skipped history entry.
    skipped = sum(
        1 for span in spans
        if span[0] == "interpreter.postcondition_satisfied" and span[5]
        and span[3] >= 0 and spans[span[3]][0] == "interpreter.execute_plan"
    )
    m["interpreter.skipped_steps"] = (skipped / tasks, "steps/task")

    prompts = s["backends.complete"]["notes"]
    m["backends.prompt_chars"] = (sum(n[1] for n in prompts) / tasks, "chars/task")
    m["backends.reply_chars"] = (sum(n[2] for n in prompts) / tasks, "chars/task")
    for kind in PROMPT_KINDS.values():
        m[f"backends.calls.{kind}"] = (sum(1 for n in prompts if n[0] == kind) / tasks, "calls/task")
        m[f"backends.prompt_chars.{kind}"] = (
            sum(n[1] for n in prompts if n[0] == kind) / tasks, "chars/task"
        )
    return m


def task_counts(spans: list[list]) -> dict[object, dict[str, int]]:
    """Per task: backend calls and prompt characters, recovery prompts,
    resolver spans, pair-map builds and the largest scene loaded."""
    out: dict[object, dict[str, int]] = defaultdict(
        lambda: dict.fromkeys(("calls", "prompt_chars", "recovery", "resolver", "pair_maps", "objects"), 0)
    )
    for name, _start, _end, _parent, task, note in spans:
        row = out[task]
        if name == "backends.complete":
            row["calls"] += 1
            row["prompt_chars"] += note[1]
            row["recovery"] += note[0] == "recovery"
        elif name == "world.load_scene":
            row["objects"] = max(row["objects"], note)
        if name.startswith("resolver."):
            row["resolver"] += 1
        if name == "resolver.build_action_pairs":
            row["pair_maps"] += 1
    return dict(out)
