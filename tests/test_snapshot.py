"""Behaviour snapshot: every document of the benchmark corpus, run
in-process through ``gradex.cli.run``, must print the report stored in
``bench/expected/<workload>.json``: byte for byte under seed 0, and the
same invariant view under seeds 1, 2 and 77, which rescale every basis
vector (``corpus.matches``).

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

SEEDS = (corpus.DEFAULT_SEED, 1, 2, 77)
CASES = [(workload, seed, doc)
         for seed in SEEDS
         for workload in sorted(corpus.WORKLOADS)
         for doc in corpus.corpus(workload, seed)]


@pytest.fixture(scope="module")
def expected():
    return {w: json.loads((BENCH / "expected" / f"{w}.json").read_text())
            for w in corpus.WORKLOADS}


def case_id(workload, seed, doc):
    name = f"{workload}/{doc['id']}"
    return name if seed == corpus.DEFAULT_SEED else f"{name}/seed{seed}"


@pytest.mark.parametrize("workload,seed,doc", CASES,
                         ids=[case_id(*case) for case in CASES])
def test_report_matches_snapshot(workload, seed, doc, expected, tmp_path,
                                 monkeypatch, capsys):
    for name, text in doc["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = cli.run(doc["argv"])
    out = capsys.readouterr().out
    assert code == 0
    assert corpus.matches(expected[workload][doc["id"]], out, seed)
