"""Semantic-digital-twin grounded task planning, recovery and replanning."""

from .backends import HttpBackend, HttpConfig, LLMBackend, OracleConfig, ScriptedOracle
from .interpreter import (
    FailureContext,
    candidate_instances,
    execute_plan,
    postcondition_satisfied,
    resolve,
)
from .planner import build_plan_prompt, filter_relevant_objects, plan
from .replanner import RunConfig, TaskReport, build_replan_prompt, replan, run_task
from .resolver import build_action_pairs, build_failure_query, resolve_failure
from .sdt import (
    SDT,
    ActionName,
    AffordanceTag,
    ObjectTypeEntry,
    load_sdt,
    render_type_text,
)
from .triplets import (
    ActionTriplet,
    GoalClause,
    GoalCondition,
    format_recovery,
    format_triplets,
    goal_satisfied,
    parse_goal,
    parse_recovery,
    parse_triplets,
)
from .world import (
    ActionOutcome,
    ConcreteAction,
    ObjectInstance,
    Perturbation,
    WorldState,
    apply_perturbations,
    condition_fn,
    filter_actions,
    inject_failure,
    load_scene,
    object_descriptions,
    state_hash,
    step,
)

__version__ = "0.1.0"
