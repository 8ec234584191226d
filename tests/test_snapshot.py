"""Behaviour snapshot: every seed-0 document of the benchmark corpus,
run in-process through ``gradex.cli.run``, must print the report stored
in ``bench/expected/<workload>.json`` byte for byte.

The corpus and the comparison come from ``bench/corpus.py``; nothing
under ``bench/`` is written.
"""

import json
import pathlib
import sys

import pytest

import gradex.cli as cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402

CASES = [(workload, doc)
         for workload in sorted(corpus.WORKLOADS)
         for doc in corpus.corpus(workload, corpus.DEFAULT_SEED)]


@pytest.fixture(scope="module")
def expected():
    return {w: json.loads((BENCH / "expected" / f"{w}.json").read_text())
            for w in corpus.WORKLOADS}


@pytest.mark.parametrize("workload,doc", CASES,
                         ids=[f"{w}/{d['id']}" for w, d in CASES])
def test_report_matches_snapshot(workload, doc, expected, tmp_path,
                                 monkeypatch, capsys):
    for name, text in doc["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRADEX_SEED", raising=False)
    code = cli.run(doc["argv"])
    out = capsys.readouterr().out
    assert code == 0
    assert corpus.matches(expected[workload][doc["id"]], out,
                          corpus.DEFAULT_SEED)
