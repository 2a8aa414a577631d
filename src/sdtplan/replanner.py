"""Post-execution goal check, corrective replanning, and the task loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from . import prompts
from .backends import LLMBackend, ask
from .errors import SdtPlanError
from .interpreter import ExecutionHistory, execute_plan
from .planner import plan as make_plan
from .resolver import DEFAULT_BUDGET, FailureResolver
from .sdt import SDT
from .triplets import ActionTriplet, GoalCondition, format_triplets, goal_satisfied, parse_triplets
from .world import WorldState, object_descriptions, state_hash

_RETRY_REMINDER = (
    "\n\nFORMAT REMINDER: reply with one line 'Action-Triplets:[[...], ...]' "
    "containing only the additional steps."
)


def build_replan_prompt(
    task: str,
    history: ExecutionHistory,
    state: WorldState,
    unmet: list[str],
) -> str:
    """Prompt carrying exactly: actions so far, object state, task, unmet clauses."""
    return prompts.render(prompts.REPLAN_HEADER, [
        (prompts.SEC_HISTORY, prompts.render_history_lines(history.entries)),
        (prompts.SEC_STATE, [
            prompts.render_state_line(state, obj) for obj in object_descriptions(state)
        ]),
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
    history: ExecutionHistory,
    state: WorldState,
    goal: GoalCondition,
    sdt: SDT,
    backend: LLMBackend,
) -> list[ActionTriplet]:
    """Ask the backend for corrective triplets for the remaining goal clauses."""
    ok, unmet = goal_satisfied(state, goal)
    if ok:
        raise ValueError("replan called although the goal is already satisfied")
    prompt = build_replan_prompt(task, history, state, unmet)
    return ask(backend, prompt, parse_triplets, _RETRY_REMINDER)


#: "plan" executes the plan alone, "resolve" adds the failure resolver,
#: "replan" adds the replanner as well.
MODES = ("plan", "resolve", "replan")


@dataclass
class RunConfig:
    mode: str = "replan"
    budget: int = DEFAULT_BUDGET
    replan_cap: int = 3

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class TaskReport:
    task_id: object
    description: str
    failures: int = 0
    resolver_iterations: int = 0
    replanner_invocations: int = 0
    success: bool = False
    status: str = "Completed"
    wall_time_s: float = 0.0
    plan: list[ActionTriplet] = field(default_factory=list)
    replan_additions: list[list[ActionTriplet]] = field(default_factory=list)
    goal: Optional[GoalCondition] = None
    unmet_final: list[str] = field(default_factory=list)
    history: ExecutionHistory = field(default_factory=ExecutionHistory)
    final_state: Optional[WorldState] = None
    memory_dump: dict = field(default_factory=dict)

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
            "history": self.history.to_json(),
            "memory": self.memory_dump,
            "final_state_hash": state_hash(self.final_state) if self.final_state else None,
        }


def run_task(
    task: str,
    scene: WorldState,
    sdt: SDT,
    backend: LLMBackend,
    config: Optional[RunConfig] = None,
    task_id: object = None,
) -> TaskReport:
    """Plan, execute (with recovery), check the goal, replan while unmet.

    Failures never raise: anything that prevents completion lands in the
    report with success=False.
    """
    config = config or RunConfig()
    report = TaskReport(task_id=task_id, description=task)
    started = time.perf_counter()
    state = scene
    try:
        triplets, goal = make_plan(task, state, sdt, backend)
    except SdtPlanError as exc:
        report.status = f"PlanningFailed: {exc}"
        report.wall_time_s = time.perf_counter() - started
        report.final_state = state
        return report
    report.plan = triplets
    report.goal = goal

    resolver = FailureResolver(sdt, backend, budget=config.budget) if config.mode != "plan" else None
    history = ExecutionHistory()  # pre-created so partial progress survives a backend crash
    try:
        state, history, status = execute_plan(
            triplets, state, task, sdt, backend, resolver, history=history
        )
    except SdtPlanError as exc:
        status = f"ExecutionFailed: {exc}"
    report.history = history
    report.status = status

    ok, unmet = goal_satisfied(state, goal)
    if config.mode == "replan" and status == "Completed":
        while not ok and report.replanner_invocations < config.replan_cap:
            try:
                additions = replan(task, history, state, goal, sdt, backend)
            except SdtPlanError as exc:
                report.status = f"ReplanFailed: {exc}"
                break
            report.replanner_invocations += 1
            report.replan_additions.append(additions)
            try:
                state, history, status = execute_plan(
                    additions, state, task, sdt, backend, resolver,
                    history=history, phase=f"replan-{report.replanner_invocations}",
                )
            except SdtPlanError as exc:
                status = f"ExecutionFailed: {exc}"
            report.status = status
            if status != "Completed":
                break
            ok, unmet = goal_satisfied(state, goal)

    report.success = ok
    report.unmet_final = unmet
    report.failures = history.error_count()
    report.resolver_iterations = resolver.total_iterations if resolver else 0
    report.memory_dump = resolver.memory.dump() if resolver else {}
    report.final_state = state
    report.wall_time_s = time.perf_counter() - started
    return report
