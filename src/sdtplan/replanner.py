"""Post-execution goal check, corrective replanning, and the task loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import AbstractSet, Optional

from . import prompts, resolver
from .backends import LLMBackend, ask
from .errors import SdtPlanError
from .interpreter import HISTORY_TAIL, HistoryEntry, execute_plan
from .planner import filter_relevant_objects, relevant_types
from .planner import plan as make_plan
from .sdt import SDT
from .triplets import ActionTriplet, GoalCondition, format_triplets, goal_satisfied, parse_triplets
from .world import (
    WorldState,
    object_descriptions,  # noqa: F401  (not called here; bench/tracer.py wraps this binding)
)

_RETRY_REMINDER = (
    "\n\nFORMAT REMINDER: reply with one line 'Action-Triplets:[[...], ...]' "
    "containing only the additional steps."
)


def build_replan_prompt(
    task: str,
    history: list[HistoryEntry],
    state: WorldState,
    sdt: SDT,
    relevant: AbstractSet[str],
    unmet: list[str],
) -> str:
    """Prompt carrying exactly: the last ``HISTORY_TAIL`` actions, the relevant
    objects' state, task, unmet clauses."""
    return prompts.render(prompts.REPLAN_HEADER, [
        (prompts.SEC_HISTORY, prompts.render_history_lines(history[-HISTORY_TAIL:])),
        (prompts.SEC_STATE, prompts.state_lines(
            state, filter_relevant_objects(state, sdt, relevant)
        )),
        (prompts.SEC_TASK, [task]),
        (prompts.SEC_UNMET, [f"- {clause}" for clause in unmet]),
        (prompts.SEC_OUTPUT, [
            "Reply with one line 'Action-Triplets:[[Action, Object1, Object2-or-0], ...]' "
            "listing only the additional steps needed to finish the task. "
            "Objects may be full instance ids."
        ]),
    ])


def replan(
    task: str,
    history: list[HistoryEntry],
    state: WorldState,
    unmet: list[str],
    sdt: SDT,
    relevant: AbstractSet[str],
    backend: LLMBackend,
) -> list[ActionTriplet]:
    """Ask the backend for corrective triplets for the ``unmet`` goal clauses,
    as ``goal_satisfied`` renders them for ``state``."""
    if not unmet:
        raise ValueError("replan called with no unmet goal clause")
    prompt = build_replan_prompt(task, history, state, sdt, relevant, unmet)
    return ask(backend, prompt, parse_triplets, _RETRY_REMINDER)


#: "plan" executes the plan alone, "resolve" adds the failure resolver,
#: "replan" adds the replanner as well.
MODES = ("plan", "resolve", "replan")


@dataclass
class RunConfig:
    mode: str = "replan"
    budget: int = resolver.DEFAULT_BUDGET
    replan_cap: int = 3

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("budget", "replan_cap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")


@dataclass
class TaskReport:
    """One task's run; the Table 1 counts are read off its history."""

    task_id: object
    description: str
    success: bool = False
    status: str = "Completed"
    wall_time_s: float = 0.0
    plan: list[ActionTriplet] = field(default_factory=list)
    replan_additions: list[list[ActionTriplet]] = field(default_factory=list)
    goal: Optional[GoalCondition] = None
    unmet_final: list[str] = field(default_factory=list)
    history: list[HistoryEntry] = field(default_factory=list)
    final_state: Optional[WorldState] = None

    @property
    def failures(self) -> int:
        return sum(1 for e in self.history if not e.outcome.ok and not e.skipped)

    @property
    def resolver_iterations(self) -> int:
        return sum(len(e.attempts) for e in self.history)

    @property
    def replanner_invocations(self) -> int:
        return len(self.replan_additions)

    def to_row(self) -> dict:
        return {
            "Task ID": self.task_id,
            "Task Description": self.description,
            "No. Failure": self.failures,
            "Iteration Per Failure": self.resolver_iterations,
            "Replanner Iteration": self.replanner_invocations,
            "Success": "Yes" if self.success else "No",
        }

    def to_json(self) -> dict:
        return {
            "report": self.to_row(),
            "status": self.status,
            "wall_time_s": round(self.wall_time_s, 4),
            "plan": format_triplets(self.plan),
            "replan_additions": [format_triplets(p) for p in self.replan_additions],
            "goal": self.goal.render() if self.goal else None,
            "unmet_final": self.unmet_final,
            "history": [e.to_json() for e in self.history],
        }


def run_task(
    task: str,
    scene: WorldState,
    sdt: SDT,
    backend: LLMBackend,
    config: Optional[RunConfig] = None,
    task_id: object = None,
) -> TaskReport:
    """Plan, then run phases: execute (with recovery), check the goal, replan.

    Phases are ``plan`` then ``replan-1`` ... ``replan-k``. The goal is checked
    after every phase, aborted or not. Replanning follows only in replan mode,
    after a phase that completed with the goal unmet, while fewer than
    ``replan_cap`` replans ran. Failures never raise: anything that prevents
    completion lands in the report's status.

    Every prompt shows the task's relevant objects only: the types
    ``relevant_types`` finds in the task and, once planned, the types the
    goal names.
    """
    config = config or RunConfig()
    report = TaskReport(task_id=task_id, description=task)
    started = time.perf_counter()
    state = scene
    relevant = relevant_types(task, sdt)
    try:
        report.plan, report.goal = make_plan(task, state, sdt, relevant, backend)
    except SdtPlanError as exc:
        report.status = f"PlanningFailed: {exc}"
    else:
        relevant |= {
            t for c in report.goal.clauses for t in (c.object_type, c.receptacle_type) if t
        }
        # read through the module now, so a wrapper installed on it sees every call
        recover = None if config.mode == "plan" else partial(
            resolver.resolve_failure, sdt=sdt, relevant=relevant, backend=backend,
            budget=config.budget,
        )
        phase, triplets = "plan", report.plan
        while True:
            state, _, report.status = execute_plan(
                triplets, state, task, sdt, backend, recover,
                history=report.history, phase=phase, goal=report.goal,
            )
            report.success, report.unmet_final = goal_satisfied(state, report.goal)
            if (
                report.success
                or config.mode != "replan"
                or report.status != "Completed"
                or len(report.replan_additions) >= config.replan_cap
            ):
                break
            try:
                triplets = replan(
                    task, report.history, state, report.unmet_final, sdt, relevant, backend
                )
            except SdtPlanError as exc:
                report.status = f"ReplanFailed: {exc}"
                break
            report.replan_additions.append(triplets)
            phase = f"replan-{len(report.replan_additions)}"
    report.final_state = state
    report.wall_time_s = time.perf_counter() - started
    return report
