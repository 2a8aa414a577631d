"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

from __future__ import annotations

import itertools
import random
import time

from conftest import random_state, run_row, scene_for_row, suite_row

from sdtplan.errors import SdtPlanError
from sdtplan.resolver import FailureContext, build_action_pairs, resolve_failure
from sdtplan.sdt import ActionName, POSE_ACTIONS
from sdtplan.triplets import (
    ActionTriplet,
    GoalClause,
    GoalCondition,
    format_triplets,
    goal_satisfied,
    parse_goal,
    parse_recovery,
    parse_triplets,
)
from sdtplan.world import (
    ActionOutcome,
    ConcreteAction,
    MSG_NOT_VISIBLE,
    condition_fn,
    filter_actions,
    format_object_id,
    object_descriptions,
    state_hash,
    step,
    type_of_id,
)

REFERENCE_ROWS = {
    1: (2, 2, 0), 2: (0, 0, 2), 3: (1, 1, 0), 4: (1, 1, 0), 5: (0, 0, 0),
    6: (2, 2, 0), 7: (1, 1, 0), 8: (2, 2, 0), 9: (1, 4, 0), 10: (0, 0, 0),
    11: (0, 0, 0), 12: (1, 2, 0), 13: (0, 0, 0), 14: (1, 1, 2),
}

EXACT_ROWS = (2, 3, 5, 10, 11, 13)


def _verdict(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_table1_regression(sdt, suite):
    started = time.perf_counter()
    reports = {row["id"]: run_row(row, sdt) for row in suite["tasks"]}
    elapsed = time.perf_counter() - started
    ok = True
    for row in suite["tasks"]:
        task_id, report = row["id"], reports[row["id"]]
        expected = REFERENCE_ROWS[task_id]
        got = (report.failures, report.resolver_iterations, report.replanner_invocations)
        if not report.success or got != expected:
            ok = False
            print(f"  row {task_id}: expected {expected}+success, got {got} success={report.success}")
        if report.failures != len(row.get("inject", [])):
            ok = False
            print(f"  row {task_id}: {report.failures} failures vs {len(row['inject'])} injections")
    for task_id in EXACT_ROWS:
        assert (
            reports[task_id].failures,
            reports[task_id].resolver_iterations,
            reports[task_id].replanner_invocations,
        ) == REFERENCE_ROWS[task_id]
    ok = ok and elapsed < 10.0
    print(f"  suite wall time: {elapsed:.2f}s (budget 10s)")
    _verdict("criterion 1: 14-task table regression", ok)


def test_criterion_2a_wine_bottle_golden_trace(sdt, suite):
    report = run_row(suite_row(suite, 9), sdt)
    plan = [[t.action.value, t.arg1, t.arg2 or 0] for t in report.plan]
    ok = plan == [
        ["PickupObject", "WineBottle", 0],
        ["OpenObject", "Fridge", 0],
        ["PutObject", "WineBottle", "Fridge"],
        ["CloseObject", "Fridge", 0],
        ["OpenObject", "Fridge", 0],
        ["PickupObject", "WineBottle", 0],
        ["CloseObject", "Fridge", 0],
        ["PutObject", "WineBottle", "DiningTable"],
    ]
    failed = [e for e in report.history if not e.outcome.ok and not e.skipped]
    ok = ok and len(failed) == 1
    # byte-exact error string
    ok = ok and failed[0].outcome.message == "Target object not found within the specified visibility..."
    resolving = failed[0].attempts[-1]
    ok = ok and resolving.resolved
    ok = ok and [p.name for p in resolving.proposed] == [ActionName.CROUCH, ActionName.PICKUP]
    ok = ok and type_of_id(resolving.proposed[0].target) == "Fridge"
    ok = ok and type_of_id(resolving.proposed[1].target) == "WineBottle"
    ok = ok and report.success
    _verdict("criterion 2a: wine-bottle trace (8 triplets, verbatim error, crouch+pickup)", ok)


def test_criterion_2b_knife_drawer_golden_trace(sdt, suite):
    report = run_row(suite_row(suite, 3), sdt)
    failed = [e for e in report.history if not e.outcome.ok and not e.skipped]
    ok = len(failed) == 1
    ok = ok and failed[0].outcome.message == "No valid positions to place object found."
    failed_target = failed[0].concrete.target
    resolving = failed[0].attempts[-1]
    ok = ok and resolving.resolved
    ok = ok and [p.name for p in resolving.proposed] == [ActionName.OPEN, ActionName.PUT]
    alt = resolving.proposed[1].target
    ok = ok and type_of_id(alt) == "Drawer" and alt != failed_target
    ok = ok and report.success
    _verdict("criterion 2b: knife/full-drawer trace (verbatim error, open+put alternate)", ok)


def test_criterion_2c_potato_replan_golden_trace(sdt, suite):
    report = run_row(suite_row(suite, 2), sdt)
    ok = report.success and report.replanner_invocations == 2 and report.failures == 0
    first = report.replan_additions[0]
    ok = ok and [t.action for t in first[:2]] == [ActionName.PICKUP, ActionName.SLICE]
    ok = ok and type_of_id(first[0].arg1) == "ButterKnife"
    ok = ok and type_of_id(first[1].arg1) == "Potato"
    _verdict("criterion 2c: omitted slice triggers pickup-knife + slice replan", ok)


def test_criterion_3_action_filter_oracle_equivalence(sdt):
    rng = random.Random(101)
    all_actions = list(ActionName)
    checked = 0
    ok = True
    while checked < 120:
        state = random_state(rng, sdt, max_objects=10)
        descs = object_descriptions(state)
        actions = rng.sample(all_actions, rng.randint(1, len(all_actions)))
        expected = set()
        for desc in descs:
            for action in actions:
                if condition_fn(sdt, desc, action):
                    expected.add((action, desc.object_id))
        if filter_actions(sdt, descs, actions) != expected:
            ok = False
            break
        checked += 1
    print(f"  scenes checked: {checked}")
    _verdict("criterion 3: action filter equals brute-force enumeration (zero tolerance)", ok)


class _RepeatingBackend:
    name = "adversarial"
    deterministic = True

    def __init__(self, rng, pool):
        self.rng = rng
        self.pool = pool
        self.reply = None

    def complete(self, prompt: str) -> str:
        if self.reply is None:
            action, target = self.rng.choice(self.pool)
            self.reply = f"[({action.value},{target})]"
        return self.reply


def test_criterion_4_memory_non_repetition(sdt, all_types):
    rng = random.Random(103)
    runs = 0
    ok = True
    while runs < 1000:
        state = random_state(rng, sdt, max_objects=5)
        pool = build_action_pairs(state, sdt, all_types)
        if not pool:
            continue
        runs += 1
        rng.randint(0, 5)  # keeps the seeded stream that draws the states below
        ctx = FailureContext(
            failed_triplet=ActionTriplet(ActionName.PICKUP, "Unicorn"),
            failed_concrete=None,
            outcome=ActionOutcome.error("NotVisible", MSG_NOT_VISIBLE),
            task="adversarial run",
            history_tail=[],
        )
        budget = rng.randint(1, 5)
        _, status, iterations, attempts = resolve_failure(
            ctx, state, sdt, all_types, _RepeatingBackend(rng, pool),
            budget=budget,
        )
        if iterations > budget or status not in ("Resolved", "Exhausted"):
            ok = False
            break
        executed = [tuple((p.name, p.target) for p in a.proposed) for a in attempts if a.executed]
        if len(executed) != len(set(executed)):
            ok = False
            break
    print(f"  adversarial runs: {runs}")
    _verdict("criterion 4: no recovery sequence executes twice; runs end within budget", ok)


def _random_script(rng, state, length):
    ids = sorted(state.objects)
    script = []
    for _ in range(length):
        name = rng.choice(list(ActionName))
        target = None
        if name not in POSE_ACTIONS and ids:
            target = rng.choice(ids + ["Ghost|+00.00|+00.90|+00.00"])
        script.append(ConcreteAction(name=name, target=target))
    return script


def test_criterion_5_determinism_and_purity(sdt):
    rng = random.Random(107)
    ok = True
    for _ in range(1000):
        seed_state = random_state(rng, sdt, max_objects=8)
        script = _random_script(rng, seed_state, rng.randint(3, 15))
        hashes = []
        for _replay in range(2):
            state = seed_state.clone()
            for action in script:
                before = state_hash(state)
                new_state, outcome = step(state, action, sdt)
                if outcome.ok:
                    state = new_state
                elif state_hash(new_state) != before:
                    ok = False
            hashes.append(state_hash(state))
        if hashes[0] != hashes[1]:
            ok = False
        if not ok:
            break
    _verdict("criterion 5: 1000 scripts replay identically; errors leave state unchanged", ok)


def _brute_goal(state, goal):
    def matches(obj, clause):
        if obj.type_name != clause.object_type:
            return False
        for token in clause.required_flags:
            want = not token.startswith("!")
            if bool(obj.flags.get(token.lstrip("!"), False)) is not want:
                return False
        if clause.required_temperature is not None and obj.temperature != clause.required_temperature:
            return False
        if clause.receptacle_type is not None:
            parent = state.objects.get(obj.parent_receptacle or "")
            if parent is None or parent.type_name != clause.receptacle_type:
                return False
        return True

    # each clause needs a witness of its own
    fits = [[o.object_id for o in state.objects.values() if matches(o, c)] for c in goal.clauses]
    return any(len(set(pick)) == len(pick) for pick in itertools.product(*fits))


def test_criterion_6_goal_checker_equivalence(sdt, suite):
    rng = random.Random(109)
    ok = True
    flags_pool = ["isCooked", "!isDirty", "isFilled", "!isFilled"]
    types_pool = ["Potato", "PotatoSliced", "Knife", "Mug", "Sink", "Drawer", "Fridge", "WineBottle"]

    def random_goal():
        clauses = tuple(
            GoalClause(
                rng.choice(types_pool),
                tuple(rng.sample(flags_pool, rng.randint(0, 2))),
                rng.choice((None, "Hot", "Cold")),
                rng.choice((None, "Sink", "Fridge", "CounterTop")),
            )
            for _ in range(rng.randint(1, 3))
        )
        return GoalCondition(clauses=clauses)

    scenes = [scene_for_row(row, sdt) for row in suite["tasks"]]
    pairs_checked = 0
    # every suite scene (perturbed as shipped), several goals each
    for state in scenes:
        for _ in range(5):
            goal = random_goal()
            if goal_satisfied(state, goal)[0] != _brute_goal(state, goal):
                ok = False
            pairs_checked += 1
    # plus 200 fully random (scene, goal) pairs
    for _ in range(200):
        state = random_state(rng, sdt, 8)
        goal = random_goal()
        if goal_satisfied(state, goal)[0] != _brute_goal(state, goal):
            ok = False
        pairs_checked += 1
    print(f"  (scene, goal) pairs checked: {pairs_checked} across all suite scenes + random")
    _verdict("criterion 6: goal checker matches exhaustive witness oracle", ok)


def test_criterion_7_grammar_round_trips_and_totality(sdt):
    rng = random.Random(113)
    refs = ["WineBottle", "Fridge", "PotatoSliced", "Mug",
            format_object_id("Apple", (1.38, 1.04, 3.33)),
            format_object_id("Drawer", (-0.86, 0.58, 1.43)) + "|DrawerSliced-0"]
    ok = True
    for _ in range(1000):
        plan = [
            ActionTriplet(
                rng.choice(list(ActionName)),
                rng.choice(refs),
                rng.choice([None] + refs),
            )
            for _ in range(rng.randint(0, 10))
        ]
        if parse_triplets(format_triplets(plan)) != plan:
            ok = False
            break
    crashes = 0
    for _ in range(2000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 120)))
        text = blob.decode("utf-8", errors="replace")
        for parser in (parse_triplets, parse_recovery, parse_goal):
            try:
                parser(text)
            except SdtPlanError:
                pass
            except Exception:
                crashes += 1
    ok = ok and crashes == 0
    _verdict("criterion 7: 1000 plan round-trips; parsers total under fuzzed input", ok)


def test_criterion_8_ablation_ordering(sdt, suite):
    successes = {}
    for mode in ("plan", "resolve", "replan"):
        reports = [run_row(row, sdt, mode=mode) for row in suite["tasks"]]
        successes[mode] = sum(1 for r in reports if r.success)
    print(f"  successes by mode: {successes}")
    ok = successes["plan"] < successes["resolve"] <= successes["replan"]
    _verdict("criterion 8: mode successes ordered plan < resolve <= replan", ok)
