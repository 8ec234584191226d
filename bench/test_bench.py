"""Self-tests of the benchmark harness:

    python3 -m pytest -q bench/test_bench.py

They run gradex for real (one traced pass per workload), so they take
about half a minute.
"""

from __future__ import annotations

import json
import time

import pytest

import corpus
import run

# per-layer metrics that must be nonzero on the workload they are meant
# to move (see the prediction table in bench/README.md)
_EXACTLA = ["exactla.calls", "exactla.self_s", "exactla.mat_mul.calls",
            "exactla.mat_mul.self_s", "exactla.mat_mul.cells",
            "exactla.rref.calls", "exactla.rref.self_s", "exactla.rref.cells",
            "exactla.solve_linear.calls", "exactla.kernel_basis.calls"]
_CLI = ["cli.calls", "cli.self_s", "cli.parse.self_s", "cli.emit.self_s",
        "cli.ring_from_json.calls"]
_GFUNCT = ["gfunct.calls", "gfunct.self_s", "gfunct.coarsen.self_s",
           "gfunct.restrict.self_s", "gfunct.corestrict.self_s",
           "gfunct.adjunction_check.self_s"]
_ABGROUPS = ["abgroups.calls", "abgroups.self_s",
             "abgroups.smith_normal_form.calls",
             "abgroups.smith_normal_form.self_s",
             "abgroups.kernel_data.calls", "abgroups.kernel_data.self_s"]
_GMOD = [f"gmod.{f}.{s}" for f in ("kernel", "graded_hom",
                                   "radical_submodule", "freeness",
                                   "is_monogeneous")
         for s in ("calls", "self_s")]
_GHOM = [f"ghom.{f}.{s}" for f in ("resolution", "minimal_cover", "verify",
                                   "dimension", "schanuel_glue")
         for s in ("calls", "self_s")]
NONZERO_ON = {
    "rings-q": _EXACTLA + _CLI + _GFUNCT + _ABGROUPS + [
        "gcore.calls", "gcore.self_s", "gcore.nilradical.calls",
        "gcore.nilradical.self_s", "gcore.algebra_init.calls",
        "gcore.algebra_init.self_s"],
    "homological": _EXACTLA + _CLI + _GMOD + _GHOM + [
        "gmod.calls", "gmod.self_s", "ghom.calls", "ghom.self_s",
        "gcore.nilradical.calls", "gcore.nilradical.calls_per_doc",
        "gcore.algebra_init.calls", "gcore.algebra_init.self_s",
        "gmod.module_init.calls", "gmod.module_init.self_s"],
    "finite-fields": _EXACTLA + _CLI + _GFUNCT + _ABGROUPS + [
        "exactla.det.calls", "gcore.classify_element.calls",
        "gcore.classify_element.self_s", "gcore.classify_ring.calls",
        "gcore.quotient_ring.calls", "gcore.size_guard.refusals",
        "gmod.graded_hom.calls", "gmod.graded_hom.self_s",
        "oracles.calls", "oracles.self_s",
        "oracles.oracle_ring_class.self_s",
        "oracles.enumerate_morphisms.self_s",
        "exactla.invertible_intertwiner.samples_used",
        "exactla.invertible_intertwiner.found_per_sample"],
}
# no gradex subcommand reaches these at the commit that added the
# benchmark: they read 0 on every workload (bench/README.md, "Gaps")
UNREACHABLE = {"gmod.tensor.calls", "gmod.tensor.self_s",
               "gmod.cokernel.calls", "gmod.cokernel.self_s"}


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload):
    assert corpus.corpus(workload, 7) == corpus.corpus(workload, 7)
    a, b = corpus.corpus(workload, 7), corpus.corpus(workload, 8)
    assert [d["id"] for d in a] != [d["id"] for d in b]
    files_a = {d["id"]: d["files"] for d in a}
    files_b = {d["id"]: d["files"] for d in b}
    assert sorted(files_a) == sorted(files_b)
    assert files_a != files_b


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_document_has_an_expected_report(workload):
    expected = json.loads((run.BENCH / "expected" / f"{workload}.json")
                          .read_text())
    ids = [d["id"] for d in corpus.corpus(workload, corpus.DEFAULT_SEED)]
    assert sorted(ids) == sorted(expected)


def test_invariant_view_ignores_rescaling_but_not_answers():
    ring = {"group": {"free_rank": 1, "torsion": []}, "field": "Q",
            "basis": [{"degree": [0]}, {"degree": [1]}],
            "mul": [[0, 0, [[0, "1"]]], [0, 1, [[1, "1"]]]],
            "unit": ["1", "0"]}
    scaled = dict(ring, mul=[[0, 0, [[0, "2"]]], [0, 1, [[1, "-1/3"]]]],
                  unit=["1/2", "0"])
    report = json.dumps({"corestriction": ring, "ideal_dim": 1})
    assert corpus.matches(report, json.dumps(
        {"corestriction": scaled, "ideal_dim": 1}), seed=1)
    assert not corpus.matches(report, json.dumps(
        {"corestriction": scaled, "ideal_dim": 2}), seed=1)
    assert not corpus.matches(report, json.dumps(
        {"corestriction": scaled, "ideal_dim": 1}), corpus.DEFAULT_SEED)


def _one_document(tmp_path):
    doc = corpus.corpus("rings-q", corpus.DEFAULT_SEED)[0]
    for name, text in doc["files"].items():
        (tmp_path / name).write_text(text)
    expected = json.loads((run.BENCH / "expected" / "rings-q.json")
                          .read_text())
    return doc, {doc["id"]: expected[doc["id"]]}


def _failed_frac(tmp_path, docs, expected, timeout=run.DOC_TIMEOUT_S):
    samples, _ = run.run_pass(docs, expected, corpus.DEFAULT_SEED, tmp_path,
                              run.child_env(), time.perf_counter() + 120,
                              timeout=timeout)
    return run.failed_frac(samples)


def test_failed_frac_counts_wrong_reports_exit_codes_and_timeouts(tmp_path):
    doc, expected = _one_document(tmp_path)
    assert _failed_frac(tmp_path, [doc], expected) == 0
    report = json.loads(expected[doc["id"]])
    corrupted = {doc["id"]: json.dumps(dict(report, corrupted=True))}
    assert _failed_frac(tmp_path, [doc], corrupted) == 1
    wrong_exit = dict(doc, argv=doc["argv"] + ["--cutoff", "x"])
    assert _failed_frac(tmp_path, [doc, wrong_exit], expected) == 0.5
    assert _failed_frac(tmp_path, [doc], expected, timeout=0.01) == 1


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_pass_reports_every_mapped_layer(workload, tmp_path):
    docs = corpus.corpus(workload, corpus.DEFAULT_SEED)
    for d in docs:
        for name, text in d["files"].items():
            (tmp_path / name).write_text(text)
    expected = json.loads((run.BENCH / "expected" / f"{workload}.json")
                          .read_text())
    env = run.child_env()
    setup = run.setup_times(tmp_path, env)
    samples, records = run.run_pass(docs, expected, corpus.DEFAULT_SEED,
                                    tmp_path, env, time.perf_counter() + 120,
                                    traced=True)
    assert run.failed_frac(samples) == 0
    metrics = run.per_layer_metrics(records, [samples], [samples], setup)
    assert sorted(metrics) == sorted(name for name, _, _ in run.PER_LAYER)
    zero = [m for m in NONZERO_ON[workload] if not metrics[m] > 0]
    assert zero == []
    assert all(metrics[m] == 0 for m in UNREACHABLE)
    assert metrics["trace.coverage"] >= 0.9
