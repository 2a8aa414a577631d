"""Prompt layout: rendering and splitting, and the pinned oracle traffic."""

from __future__ import annotations

import hashlib

import pytest

from conftest import scene_for_row, suite_row

from sdtplan import prompts
from sdtplan.backends import OracleConfig, ScriptedOracle
from sdtplan.replanner import RunConfig, run_task


def test_sections_inverts_render():
    secs = [
        ("## One", ["  first line", "", "second line  "]),
        ("## Empty", []),
        ("## Last", ["- x", "- y"]),
    ]
    prompt = prompts.render("# HEADER", secs)
    assert prompt.startswith("# HEADER\n\n## One\n")
    assert prompts.sections(prompt) == {
        title: "\n".join(body).strip() for title, body in secs
    }


def test_render_leaves_out_none_bodies_and_first_title_wins():
    prompt = prompts.render("# H", [("## A", ["a"]), ("## B", None), ("## A", ["again"])])
    assert "## B" not in prompt
    assert prompts.sections(prompt) == {"## A": "a"}


class RecordingOracle(ScriptedOracle):
    """The oracle, counting its calls and hashing every (prompt, reply) pair in order."""

    def __init__(self, config: OracleConfig):
        super().__init__(config)
        self.calls = 0
        self.digest = hashlib.sha256()

    def complete(self, prompt: str) -> str:
        reply = super().complete(prompt)
        self.calls += 1
        for text in (prompt, reply):
            self.digest.update(text.encode("utf-8") + b"\0")
        return reply


#: Table-1 row id -> (oracle calls, sha256 over its prompts and replies), replan mode.
TRAFFIC = {
    1: (5, "0b70411db5c16784873d1fbaa34519122fb408748cd7e8f07be34264adf39e42"),
    2: (3, "1e59a4f794f1ebe312431b92613a38bb63902be81576516f3fafb914cad1d649"),
    3: (5, "f0df1a4103196141b09361a2dbc80b615200b05e2e6d8bac7afcdbe2b990e1ad"),
    4: (5, "cb120bf790b1ce6bb2442ab2afe81e34cf5385b192fa7fcb06aa2eb1f3c7cb95"),
    5: (3, "bbc3d835ea2042da1f67384f2e85a8b807adc5880fca94bc9c1097363bc0c716"),
    6: (6, "1f3b5d024daa69071d6ab6f9cbc7e11d9d3f1e3e3b018e7310df1634ada67ebf"),
    7: (4, "8871247b8c00857c894e44fa977f4c1706cdd122a5548b11769ff468861337bb"),
    8: (4, "eb4bb9abdd549da96f203eedb5a3aba9a1472199be9c4dce76b856941cf34bc8"),
    9: (5, "9b48f853bf222b10b6674277f10d36bbf7f5269c03ef075cba0594ea5cf7449b"),
    10: (1, "96a651c7142d8dad4e4a3d4af3deaf8f1a1714996a9b1e4756cd2f415414c8f0"),
    11: (1, "1a9a256e8b04ee639e0fe9d9855e5fda4de0056ac4338fe2fc9804f9472328a5"),
    12: (3, "6be2a5d0b14b1692f96d076132eae66d38f0d3b9be41e9497c210e32f927c973"),
    13: (3, "709de1919f1fb23d9347d38e056f3d0213c8b6c3db0c844ce2a388bcbc420039"),
    14: (5, "0de7ef78b1da64f29821d4fb9551933a7b706410e0d58f3465545fccb76d7dd9"),
}


@pytest.mark.parametrize("task_id", sorted(TRAFFIC))
def test_oracle_traffic_is_pinned(sdt, suite, task_id):
    row = suite_row(suite, task_id)
    oracle = RecordingOracle(OracleConfig(**row.get("oracle_faults", {})))
    run_task(row["task"], scene_for_row(row, sdt), sdt, oracle, RunConfig("replan"))
    assert (oracle.calls, oracle.digest.hexdigest()) == TRAFFIC[task_id]
