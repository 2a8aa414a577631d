"""The golden-trace corpus: the one pin on every prompt, reply and report row.

``tests/golden/<ablation>/`` holds what ``sdtplan run <flags> --lenient``
writes for the packaged table-1 suite, ``<flags>`` being the ablation's
``ABLATION_FLAGS``: a trace per row and ``report.md``. A fresh oracle run
must write the same corpus, which pins the oracle, and
``sdtplan verify`` must accept every committed trace, which pins the pipeline
given the recorded replies. A change that is meant to move a prompt or a reply
re-records the corpus with the command in ``RE_RECORD``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from conftest import ABLATION_FLAGS, GOLDEN

from sdtplan import cli, resolver

RE_RECORD = "sdtplan run {flags} --lenient --out tests/golden/{ablation}"


def _corpus_moves(ablation: str, out_dir: Path) -> list[str]:
    """Each field in which a fresh oracle run of ``ablation``, written to ``out_dir``,
    differs from the committed corpus, as ``<ablation>/<file>: <field>: ...`` lines
    (``cli._divergences`` names a list by its first differing entry)."""
    argv = ["run", *ABLATION_FLAGS[ablation].split(), "--lenient", "--out", str(out_dir)]
    assert cli.main(argv) == 0
    golden = GOLDEN / ablation
    names = sorted(path.name for path in golden.iterdir())
    assert sorted(path.name for path in out_dir.iterdir()) == names
    moves = []
    for name in names:
        stored, fresh = ((folder / name).read_bytes() for folder in (golden, out_dir))
        if name == "report.md":
            moves += [f"{ablation}/{name}: differs"] if stored != fresh else []
            continue
        stored, fresh = json.loads(stored), json.loads(fresh)
        lost = [f"{key}: stored only" for key in sorted(stored.keys() - fresh.keys())]
        moves += [f"{ablation}/{name}: {move}" for move in lost + list(cli._divergences(stored, fresh))]
    return moves


@pytest.mark.parametrize("ablation", ABLATION_FLAGS)
def test_a_fresh_run_writes_the_committed_corpus(tmp_path, ablation):
    moves = _corpus_moves(ablation, tmp_path)
    command = RE_RECORD.format(flags=ABLATION_FLAGS[ablation], ablation=ablation)
    assert not moves, "\n".join(moves + [f"if the change is meant, re-record: {command}"])


@pytest.mark.parametrize("ablation", ABLATION_FLAGS)
def test_verify_accepts_every_committed_trace(tmp_path, capsys, monkeypatch, ablation):
    monkeypatch.chdir(tmp_path)  # a trace names its scene and knowledge base apart from the cwd
    traces = sorted((GOLDEN / ablation).glob("trace_task*.json"))
    assert len(traces) == 14
    refused = {}
    for path in traces:
        code = cli.main(["verify", str(path)])
        printed = capsys.readouterr()
        if code != 0:
            refused[path.name] = printed.out + printed.err
    assert not refused, refused


def test_a_moved_recovery_prompt_names_the_mode_the_trace_and_the_exchange(tmp_path, monkeypatch):
    build = resolver.build_failure_query
    monkeypatch.setattr(resolver, "build_failure_query", lambda *args: build(*args) + " please")
    moves = _corpus_moves("resolve", tmp_path)
    recovering = {
        path.name for path in (GOLDEN / "resolve").glob("trace_task*.json")
        if any(entry["attempts"] for entry in json.loads(path.read_text(encoding="utf-8"))["history"])
    }
    assert recovering
    assert {move.split(":")[0] for move in moves} == {f"resolve/{name}" for name in recovering}
    for move in moves:
        assert re.match(r"resolve/trace_task\d+\.json: exchanges\[\d+\]: stored ", move), move
