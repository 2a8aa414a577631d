"""Corrupted model replies: a run ends in a reported status, never an exception."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ABLATIONS, scene_for_row

from sdtplan.backends import OracleConfig, ScriptedOracle
from sdtplan.replanner import run_task
from sdtplan.world import validate_state

#: One reply's corruption: the operation and two cut points, as fractions of its length.
_MUTATION = st.tuples(
    st.sampled_from(["keep", "truncate", "duplicate", "flip", "swap"]),
    st.floats(0, 1),
    st.floats(0, 1),
)


def mutate(reply: str, op: str, a: float, b: float) -> str:
    i, j = sorted((int(a * len(reply)), int(b * len(reply))))
    if op == "truncate":
        return reply[:i]
    if op == "duplicate":
        return reply[:j] + reply[i:]
    if op == "flip":
        return reply[:i] + reply[i:j].swapcase() + reply[j:]
    if op == "swap":
        tokens = re.split(r"(\w+)", reply)  # the words sit at the odd indices
        words = range(1, len(tokens), 2)
        if words:
            x, y = (words[min(int(f * len(words)), len(words) - 1)] for f in (a, b))
            tokens[x], tokens[y] = tokens[y], tokens[x]
        return "".join(tokens)
    return reply


class MutatingOracle(ScriptedOracle):
    """The oracle, its k-th reply corrupted by the k-th mutation (kept once they run out)."""

    def __init__(self, config: OracleConfig, mutations):
        super().__init__(config)
        self.mutations = list(mutations)

    def complete(self, prompt: str) -> str:
        reply = super().complete(prompt)
        return mutate(reply, *self.mutations.pop(0)) if self.mutations else reply


@pytest.mark.parametrize("ablation", ABLATIONS)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=8))
def test_corrupted_replies_end_in_a_reported_status(sdt, suite, ablation, mutations):
    for row in suite["tasks"]:
        oracle = MutatingOracle(OracleConfig(**row.get("oracle_faults", {})), mutations)
        report = run_task(row["task"], scene_for_row(row, sdt), sdt, oracle, ABLATIONS[ablation])
        validate_state(report.final_state, sdt)
        assert report.status in ("Completed", "Aborted") or report.status.startswith(
            ("PlanningFailed: ", "ReplanFailed: ", "ExecutionFailed: ")
        ), (row["id"], report.status)
