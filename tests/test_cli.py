import contextlib
import io
import json
import pathlib
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import gradex.abgroups as ag
import gradex.cli as cli
import gradex.exactla as la
import gradex.gcore as gc
import gradex.gfunct as gf
import gradex.ghom as gh
import gradex.gmod as gm
from gradex.exactla import GF
import samples as S
from support import dense, square_zero_document

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "bench"))
import corpus  # noqa: E402


RING_QX2 = {
    "group": {"free_rank": 1, "torsion": []},
    "field": "Q",
    "basis": [{"degree": [0]}, {"degree": [1]}],
    "mul": [[0, 0, [[0, "1"]]], [0, 1, [[1, "1"]]], [1, 0, [[1, "1"]]]],
    "unit": ["1", "0"],
}

RING_F2Z2 = {
    "group": {"free_rank": 0, "torsion": [2]},
    "field": {"p": 2},
    "basis": [{"degree": [0]}, {"degree": [1]}],
    "mul": [[0, 0, [[0, 1]]], [0, 1, [[1, 1]]], [1, 0, [[1, 1]]],
            [1, 1, [[0, 1]]]],
    "unit": [1, 0],
}

RING_F5X2 = {
    "group": {"free_rank": 1, "torsion": []},
    "field": {"p": 5},
    "basis": [{"degree": [0]}, {"degree": [1]}],
    "mul": [[0, 0, [[0, 1]]], [0, 1, [[1, 1]]], [1, 0, [[1, 1]]]],
    "unit": [1, 0],
}

LAURENT = {"monoid": {"dim": 1, "gens": [[1], [-1]]}, "mode": "fine",
           "field": "Q"}

MODULE_K = {  # Q[X]/(X^2) modulo <X>
    "ring": RING_QX2,
    "basis": [{"degree": [0]}],
    "action": [[0, 0, [[0, "1"]]]],
}

MODULE_R = {  # the regular module
    "ring": RING_QX2,
    "basis": [{"degree": [0]}, {"degree": [1]}],
    "action": [[0, 0, [[0, "1"]]], [0, 1, [[1, "1"]]], [1, 0, [[1, "1"]]]],
}

MODULE_QX4_X2 = {  # Q[X]/(X^4) modulo <X^2>
    "ring": {"group": {"free_rank": 1}, "field": "Q",
             "basis": [{"degree": [k]} for k in range(4)],
             "mul": [[i, j, [[i + j, 1]]] for i in range(4)
                     for j in range(4 - i)],
             "unit": [1, 0, 0, 0]},
    "basis": [{"degree": [0]}, {"degree": [1]}],
    "action": [[0, 0, [[0, 1]]], [0, 1, [[1, 1]]], [1, 0, [[1, 1]]]],
}

MODULE_F2 = {  # F2[Z/2] as a module over itself
    "ring": RING_F2Z2,
    "basis": [{"degree": [0]}, {"degree": [1]}],
    "action": RING_F2Z2["mul"],
}

PSI_Z_TO_0 = {"source": {"free_rank": 1, "torsion": []},
              "target": {"free_rank": 0, "torsion": []},
              "matrix": []}
PSI_Z_TO_Z2 = {"source": {"free_rank": 1, "torsion": []},
               "target": {"free_rank": 0, "torsion": [2]},
               "matrix": [[1]]}
PHI_DOUBLING = {"source": {"free_rank": 1, "torsion": []},
                "target": {"free_rank": 1, "torsion": []},
                "matrix": [[2]]}
PHI_ZERO_INTO_Z = {"source": {"free_rank": 0, "torsion": []},
                   "target": {"free_rank": 1, "torsion": []},
                   "matrix": [[]]}

BAD_GROUP = {"group": {"free_rank": 0, "torsion": [1]}, "field": "Q",
             "basis": [], "mul": [], "unit": []}


@pytest.fixture()
def docs(tmp_path):
    names = {
        "ring.json": RING_QX2, "f2z2.json": RING_F2Z2,
        "f5x2.json": RING_F5X2, "laurent.json": LAURENT,
        "K.json": MODULE_K, "R.json": MODULE_R, "Mf2.json": MODULE_F2,
        "psi0.json": PSI_Z_TO_0, "psi2.json": PSI_Z_TO_Z2,
        "phi2.json": PHI_DOUBLING, "phi0.json": PHI_ZERO_INTO_Z,
        "bad.json": BAD_GROUP,
    }
    for name, doc in names.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "broken.json").write_text("{oops")
    return tmp_path


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestClassify:
    def test_truncated_polynomials(self, docs, capsys):
        code, out = run_json(capsys, ["classify", str(docs / "ring.json")])
        assert code == 0
        assert out == {"simple": False, "entire": False, "reduced": False}

    def test_group_algebra_with_oracle(self, docs, capsys):
        code, out = run_json(capsys, ["classify", str(docs / "f2z2.json"),
                                      "--oracle"])
        assert code == 0
        assert out["simple"] and out["entire"] and out["reduced"]
        assert out["oracle_agrees"] is True

    def test_inline_json(self, capsys):
        code, out = run_json(capsys, ["classify", json.dumps(RING_F2Z2)])
        assert code == 0 and out["simple"] is True

    def test_monoid_algebra(self, docs, capsys):
        code, out = run_json(capsys, ["classify", str(docs / "laurent.json")])
        assert code == 0
        assert out["entire"] is True and out["reduced"] is True


class TestFunctors:
    def test_coarsen(self, docs, capsys):
        code, out = run_json(capsys, ["coarsen", str(docs / "ring.json"),
                                      "--psi", str(docs / "psi0.json")])
        assert code == 0
        assert out["group"] == {"free_rank": 0, "torsion": []}
        assert out["mul"] == RING_QX2["mul"]  # ring itself unchanged

    def test_restrict(self, docs, capsys):
        code, out = run_json(capsys, ["restrict", str(docs / "ring.json"),
                                      "--phi", str(docs / "phi2.json")])
        assert code == 0
        assert len(out["basis"]) == 1

    def test_corestrict_finite(self, docs, capsys):
        code, out = run_json(capsys, ["corestrict", str(docs / "ring.json"),
                                      "--phi", str(docs / "phi2.json")])
        assert code == 0
        assert out["ideal_dim"] == 1
        assert len(out["corestriction"]["basis"]) == 1

    def test_corestrict_laurent_zero(self, docs, capsys):
        code, out = run_json(capsys, ["corestrict", str(docs / "laurent.json"),
                                      "--phi", str(docs / "phi0.json")])
        assert code == 0
        assert out == {"corestriction": "zero ring", "witness_degree": [1]}

    def test_corestrict_monoid_beyond_the_old_walk(self, capsys):
        # x . x^9 = x^10 lies in a_phi and in degree 10Z
        code, out = run_json(capsys, [
            "corestrict", '{"monoid":{"dim":1,"gens":[[1]]},"field":"Q"}',
            "--phi", '{"source":{"free_rank":1},"target":{"free_rank":1},'
                     '"matrix":[[10]]}'])
        assert code == 0
        assert out == {"corestriction": "differs", "detail": {
            "method": "unit of the image monoid in G/im(phi)",
            "witness_degree": [1], "witness_exponent": [1]}}

    def test_corestrict_monoid_of_dimension_zero(self, capsys):
        # the lattice of Z^0 has the empty basis
        code, out = run_json(capsys, [
            "corestrict", '{"monoid":{"dim":0,"gens":[[]]},"field":"Q"}',
            "--phi", '{"source":{},"target":{},"matrix":[]}'])
        assert code == 0 and out["corestriction"] == "equals_restriction"

    @pytest.mark.parametrize("result", ["equals_restriction", "undecided"])
    def test_corestrict_monoid_answers_with_a_method(self, capsys, result):
        # deg X = 2 along the doubling map; over Q[y]/(y^2), deg y = 1,
        # a base degree lies outside 2Z, over Q in degree 0 none does
        base = RING_QX2 if result == "undecided" else dict(
            RING_QX2, basis=[{"degree": [0]}], mul=[[0, 0, [[0, "1"]]]],
            unit=["1"])
        doc = {"monoid": {"dim": 1, "gens": [[1]]}, "mode": {"d": [[2]]},
               "base": base}
        code, out = run_json(capsys, ["corestrict", json.dumps(doc),
                                      "--phi", json.dumps(PHI_DOUBLING)])
        assert code == 0 and out["corestriction"] == result
        assert list(out["detail"]) == ["method"]

    @pytest.mark.parametrize("command, field, n", [
        ("restrict", "Q", 12), ("adjoint-check", {"p": 2}, 6)])
    def test_one_smith_form_per_group_map(self, capsys, monkeypatch,
                                          command, field, n):
        # every preimage and the mono test of the doubling map read one
        # factorisation of [M | D_H]
        calls, snf = [], ag.smith_normal_form

        def counted(A):
            calls.append(A)
            return snf(A)
        monkeypatch.setattr(ag, "smith_normal_form", counted)
        ring = {"group": {"free_rank": 1}, "field": field,
                "basis": [{"degree": [k]} for k in range(n)],
                "mul": [[i, j, [[i + j, 1]]] for i in range(n)
                        for j in range(n - i)],
                "unit": [1] + [0] * (n - 1)}
        assert cli.run([command, json.dumps(ring),
                        "--phi", json.dumps(PHI_DOUBLING)]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("workload, doc_id", [
        ("finite-fields", "adjoint-check-f2x6-double"),
        ("finite-fields", "adjoint-check-f3x4-double"),
        ("rings-q", "adjoint-check-qx6-double")])
    def test_adjoint_check_applies_each_functor_to_each_ring_once(
            self, tmp_path, capsys, monkeypatch, workload, doc_id):
        # the calls made outside another functor (a corestriction
        # restricts its quotient); on f2x6-double, building the images
        # for each check ran corestrict 4 times, restrict_with_indices
        # 6 times and extend 5 times, on 3, 3 and 4 distinct rings
        doc = next(d for d in corpus.corpus(workload, corpus.DEFAULT_SEED)
                   if d["id"] == doc_id)
        for name, text in doc["files"].items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        applied, depth = {}, [0]

        def recorded(name, fn):
            def call(R, phi):
                if not depth[0]:
                    applied.setdefault(name, []).append(R)
                depth[0] += 1
                try:
                    return fn(R, phi)
                finally:
                    depth[0] -= 1
            return call
        for name in ("corestrict", "restrict_with_indices", "extend"):
            monkeypatch.setattr(gf, name, recorded(name, getattr(gf, name)))
        assert cli.run(doc["argv"]) == 0
        capsys.readouterr()
        assert sorted(applied) == ["corestrict", "extend",
                                   "restrict_with_indices"]
        for name, rings in applied.items():
            assert all(R != S for t, R in enumerate(rings)
                       for S in rings[t + 1:]), name

    def test_adjoint_check_checks_each_ring_map_once(self, tmp_path, capsys,
                                                     monkeypatch):
        # the unit R ->> E(C(R)) is kept on R, and the transposes are
        # bare matrices that must lie among the enumerated (so checked)
        # morphisms: on f2x6-double one map is checked twice, the
        # counit triangle's inclusion E(S) -> R, which the enumeration of
        # Hom(E(S), R) also meets.  Checking each transpose and the unit
        # again made 32 checks of 28 maps
        doc = next(d for d in corpus.corpus("finite-fields",
                                            corpus.DEFAULT_SEED)
                   if d["id"] == "adjoint-check-f2x6-double")
        for name, text in doc["files"].items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        checked, check = [], gc._Morphism._check

        def recorded(self):
            checked.append((self.source, self.target, self.matrix))
            return check(self)
        monkeypatch.setattr(gc._Morphism, "_check", recorded)
        assert cli.run(doc["argv"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        keys = [(id(S), id(T), tuple(map(tuple, F))) for S, T, F in checked]
        assert len(keys) - len(set(keys)) == 1

    def test_adjoint_check(self, docs, capsys):
        code, out = run_json(capsys, ["adjoint-check", str(docs / "ring.json"),
                                      "--phi", str(docs / "phi2.json")])
        assert code == 0
        assert out["ok"] is True
        assert out["tensor_witness"]["reconstructed_instance"] is True
        assert all(t["ok"] for t in out["triangles"])


class TestModules:
    def test_free_regular(self, docs, capsys):
        code, out = run_json(capsys, ["module", str(docs / "R.json")])
        assert code == 0
        assert out["free"] is True and out["rank"] == 1
        assert out["monogeneous"] is True
        assert out["hilbert"] == {"0": 1, "1": 1}

    def test_not_free_quotient(self, docs, capsys):
        code, out = run_json(capsys, ["module", str(docs / "K.json")])
        assert code == 0
        assert out["free"] is False and out["monogeneous"] is True

    def test_module_oracle(self, docs, capsys):
        code, out = run_json(capsys, ["module", str(docs / "Mf2.json"),
                                      "--oracle"])
        assert code == 0
        assert out["free"] is True
        assert out["oracle_agrees"] is True

    def test_free_module_of_rank_3_within_budget(self, capsys):
        # Q[x]/(x^4) with shifts 0, 1, 2 takes about 0.03 s with
        # Nakayama's rank tests for a generator, and took 0.35-0.45 s
        # with a search of the Alon grid (Python 3.11, 2 shared vCPUs)
        obj = corpus.free_module(corpus.truncated_poly("Q", 4), [0, 1, 2])
        doc = json.dumps(corpus.render(obj, random.Random(0)))
        t0 = time.perf_counter()
        code, out = run_json(capsys, ["module", doc])
        assert time.perf_counter() - t0 < 0.15
        assert code == 0 and out["free"] is True and out["rank"] == 3
        assert out["monogeneous"] is False

    def test_module_coordinates_are_read_not_solved(self, capsys,
                                                    monkeypatch):
        # submodules read their action at the leads of their basis and
        # HOM at its maps' free slots: no solve_linear call comes from
        # inside _module_on_subspace or graded_hom, on a resolve run
        # (kernels) and on a module run (freeness by HOM)
        readers = {gm._module_on_subspace.__code__, gm.graded_hom.__code__}
        inside, outside, solve = [], [], la.solve_linear

        def counted(*args):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in readers:
                frame = frame.f_back
            (outside if frame is None else inside).append(args)
            return solve(*args)

        monkeypatch.setattr(la, "solve_linear", counted)
        q = corpus.truncated_poly("Q", 4)
        for argv in (["resolve", corpus.cyclic_module(q, 2), "--cutoff", "4"],
                     ["module", corpus.free_module(q, [0, 1, 2])]):
            argv[1] = json.dumps(corpus.render(argv[1], random.Random(0)))
            assert cli.run(argv) == 0
            assert inside == [] and outside, argv[0]
            outside.clear()
        capsys.readouterr()

    def test_resolve(self, docs, capsys):
        code, out = run_json(capsys, ["resolve", str(docs / "K.json"),
                                      "--cutoff", "3"])
        assert code == 0
        assert out["verified"] is True and out["terminated"] is False
        assert out["betti"] == {"0": {"0": 1}, "1": {"1": 1},
                                "2": {"2": 1}, "3": {"3": 1}}

    @pytest.mark.parametrize("field", ["Q", {"p": 2}])
    def test_resolve_over_a_product_of_fields_is_not_minimal(self, capsys,
                                                             field):
        # R = K x K in degree 0 and M = R: free of rank 1, but the greedy
        # cover takes both idempotents, and nil(R) F = 0 cannot hold the
        # nonzero kernel
        ring = {"group": {"free_rank": 1}, "field": field,
                "basis": [{"degree": [0]}, {"degree": [0]}],
                "mul": [[0, 0, [[0, 1]]], [1, 1, [[1, 1]]]], "unit": [1, 1]}
        doc = json.dumps({"ring": ring, "basis": ring["basis"],
                          "action": ring["mul"]})
        code, out = run_json(capsys, ["module", doc])
        assert code == 0 and out["free"] is True and out["rank"] == 1
        code, out = run_json(capsys, ["resolve", doc, "--cutoff", "2"])
        assert code == 0 and out["betti"] == {str(i): {"0": 2}
                                              for i in range(3)}
        assert out["minimal"] is False and out["verified"] is True

    def test_dimensions(self, docs, capsys):
        for cmd in ("pd", "id", "fd"):
            code, out = run_json(capsys, [cmd, str(docs / "K.json"),
                                          "--cutoff", "3"])
            assert code == 0 and out["value"] == ">=3", cmd
            code, out = run_json(capsys, [cmd, str(docs / "R.json"),
                                          "--cutoff", "3"])
            assert code == 0 and out["value"] == "0", cmd

    def test_schanuel(self, docs, capsys):
        code, out = run_json(capsys, ["schanuel", str(docs / "K.json"),
                                      "--n", "1"])
        assert code == 0 and out["verified"] is True

    def test_schanuel_builds_the_steps_the_glue_reads(self, docs, capsys,
                                                      monkeypatch):
        # --n 2: two steps, so two kernels, for each of the two
        # resolutions; none when --n is outside 1..32
        calls, kernel = [], gh.kernel
        monkeypatch.setattr(gh, "kernel", lambda p: calls.append(p)
                            or kernel(p))
        code, out = run_json(capsys, ["schanuel", str(docs / "K.json"),
                                      "--n", "2"])
        assert code == 0 and out["verified"] is True and out["n"] == 2
        assert len(calls) == 4
        for n in ("0", "33"):
            code = cli.run(["schanuel", str(docs / "K.json"), "--n", n])
            err = json.loads(capsys.readouterr().err)
            assert code == 2 and err["kind"] == "validation", n
            assert len(calls) == 4, n

    def test_schanuel_guard_fires_before_any_resolution(self, capsys,
                                                        monkeypatch):
        # dim K_i = 2 * 3^i on the non-minimal side, so the Schanuel sums
        # of lengths 1..4 hold 704 basis vectors and those of 1..5 2158
        calls, resolution = [], gh.resolution
        monkeypatch.setattr(gh, "resolution", lambda *a, **k: calls.append(
            a) or resolution(*a, **k))
        doc = json.dumps(MODULE_QX4_X2)
        for n in ("5", "32"):
            code = cli.run(["schanuel", doc, "--n", n])
            err = json.loads(capsys.readouterr().err)
            assert code == 3 and err["kind"] == "size-guard", n
            assert not calls
        code, out = run_json(capsys, ["schanuel", doc, "--n", "4"])
        assert code == 0 and out["verified"] is True and len(calls) == 2

    def test_coarsen_compare(self, docs, capsys):
        code, out = run_json(capsys, ["coarsen-compare", str(docs / "K.json"),
                                      "--psi", str(docs / "psi2.json"),
                                      "--cutoff", "3"])
        assert code == 0
        assert out["ok"] is True and out["betti_equal"] is True

    def test_coarsen_compare_keeps_the_kernel_of_psi(self, tmp_path, capsys,
                                                     monkeypatch):
        # psi's Smith form of [M | D_H] is made once, however many epi
        # tests read its diagonal, and psi's kernel is read off it
        calls = smith_forms_of_corpus_doc("homological",
                                          "coarsen-compare-q3-x1-z2",
                                          tmp_path, capsys, monkeypatch)
        assert len(calls) == 1

    def test_kernel_of_a_torsion_source_takes_one_smith_form(
            self, tmp_path, capsys, monkeypatch):
        # psi: Z/6 -> 0 has no [M | D_H] to factor, and coarsening only
        # tests that psi is onto, so it factors nothing; the kernel Z/6
        # of the same psi takes one Smith form, for its invariant factors
        calls = smith_forms_of_corpus_doc("finite-fields", "coarsen-f3z6-0",
                                          tmp_path, capsys, monkeypatch)
        assert calls == []
        psi = cli.hom_from_json(json.loads(
            (tmp_path / "coarsen-f3z6-0.psi.json").read_text()))
        ag.kernel_data(psi)
        assert calls == [[[6]]]


def smith_forms_of_corpus_doc(workload, doc_id, tmp_path, capsys,
                              monkeypatch):
    """The matrices ``smith_normal_form`` factors while the seed-0 corpus
    document ``doc_id`` runs in-process."""
    doc = next(d for d in corpus.corpus(workload, corpus.DEFAULT_SEED)
               if d["id"] == doc_id)
    for name, text in doc["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    calls, snf = [], ag.smith_normal_form
    monkeypatch.setattr(ag, "smith_normal_form",
                        lambda A: calls.append(A) or snf(A))
    assert cli.run(doc["argv"]) == 0
    capsys.readouterr()
    return calls


class TestSpecAndOracles:
    def test_spec(self, docs, capsys):
        code, out = run_json(capsys, ["spec", str(docs / "f2z2.json")])
        assert code == 0
        assert out["count"] == 1 and out["nilradical_dim"] == 0

    def test_spec_rational_ring_guarded(self, docs, capsys):
        # prime enumeration only runs over small finite fields
        code = cli.run(["spec", str(docs / "ring.json")])
        capsys.readouterr()
        assert code == 3

    def test_oracle_diff_ring(self, docs, capsys):
        code, out = run_json(capsys, ["oracle-diff", str(docs / "f2z2.json")])
        assert code == 0 and out["agree"] is True

    def test_oracle_diff_module(self, docs, capsys):
        code, out = run_json(capsys, ["oracle-diff", str(docs / "Mf2.json")])
        assert code == 0
        assert out["object"] == "module" and out["agree"] is True


class TestValidation:
    def test_violation_paths_are_document_rooted(self, docs, capsys):
        code, out = run_json(capsys, ["validate", str(docs / "bad.json")])
        assert code == 0
        assert out["ok"] is False
        assert any(v.startswith("group.torsion[0]") for v in out["violations"])

    def test_valid_document(self, docs, capsys):
        code, out = run_json(capsys, ["validate", str(docs / "ring.json")])
        assert code == 0 and out == {"ok": True, "violations": []}

    @pytest.mark.parametrize("doc, path", [
        (dict(RING_QX2, mul=[[0, 0, [[0, "xyz"]]]]), "mul[0][2][0][1]"),
        (dict(RING_QX2, mul=[[0, 0, [[0, 0.5]]]]), "mul[0][2][0][1]"),
        (dict(RING_F5X2, mul=[[0, 0, [[0, "1/5"]]]]), "mul[0][2][0][1]"),
        (dict(RING_QX2, unit=[True, 0]), "unit[0]"),
        (dict(RING_QX2, mul=[["0", 0, [[0, 1]]]]), "mul[0]"),
        (dict(RING_QX2, mul=[[0, 0, [["0", 1]]]]), "mul[0][2][0]"),
        (dict(MODULE_K, action=[[0, "0", [[0, 1]]]]), "action[0]"),
        (dict(RING_QX2, group={"free_rank": True}), "group.free_rank"),
        (dict(RING_QX2, group={"free_rank": 1, "torsion": 5}),
         "group.torsion"),
        ({"var_degree": [1], "ambient": [[0]], "gens": [[["xyz", 1]]]},
         "gens[0][0][0]"),
        ({"var_degree": [1], "ambient": [[0]], "gens": [[[1, "1"]]]},
         "gens[0][0]"),
        (dict(PSI_Z_TO_Z2, matrix=[["x"]]), "matrix[0]"),
        (dict(PHI_DOUBLING, matrix=[[1.5]]), "matrix[0]"),
        (dict(RING_QX2, basis=3), "basis"),
        (dict(RING_QX2, mul=5), "mul"),
        (dict(MODULE_K, basis=3), "basis"),
        (dict(MODULE_K, action=5), "action"),
        ({"var_degree": [1], "ambient": [[0]], "gens": 5}, "gens"),
        ({"var_degree": ["a"], "ambient": [[0]], "gens": [[[1, 1]]]},
         "var_degree"),
        (dict(LAURENT, mode={"d": "x"}), "mode.d"),
        (dict(RING_QX2, basis=[{"degree": ["a"]}, {"degree": [1]}]),
         "basis[0].degree"),
        (dict(RING_QX2, basis=[{"degree": [True]}, {"degree": [1]}]),
         "basis[0].degree"),
        (dict(LAURENT, monoid={"dim": "a", "gens": []}), "monoid.dim"),
        (dict(LAURENT, monoid={"dim": -1, "gens": []}), "monoid.dim"),
        (dict(LAURENT, monoid={"dim": 1, "gens": [[1.5]]}),
         "monoid.gens[0]"),
        (dict(LAURENT, monoid={"dim": 1, "gens": 5}), "monoid.gens"),
        (dict(LAURENT, mode="x"), "mode"),
        ({"var_degree": [1], "ambient": [[0]], "gens": [[[1, -1]]]},
         "gens[0][0]"),
        ({"var_degree": [0], "ambient": [[0]], "gens": [[[1, 1]]]}, "$"),
        ({"var_degree": [1], "ambient": [], "gens": [[[1, 1]]]}, "$"),
        (dict(RING_QX2, unit=["2", "0"]), "$"),
        (dict(MODULE_K, action=[[0, 0, [[0, "2"]]]]), "$"),
        (dict(RING_F5X2, field={"p": 0}), "field.p"),
        (dict(RING_F5X2, field={"p": True}), "field.p"),
        (dict(RING_F5X2, field={"p": "5"}), "field.p"),
    ])
    def test_malformed_scalar_or_integer_is_a_violation(self, tmp_path,
                                                         capsys, doc, path):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["validate", str(p)])
        assert code == 0 and out["ok"] is False
        assert any(v.startswith(path + ":") for v in out["violations"])

    def test_classify_names_bad_coefficient(self, capsys):
        doc = dict(RING_QX2, mul=[[0, 0, [[0, "xyz"]]]])
        code = cli.run(["classify", json.dumps(doc)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["kind"] == "validation"
        assert err["error"].startswith("ring.mul[0][2][0][1]:")

    def test_repeated_and_zero_mul_entries(self):
        # a repeated (i, j) item and a repeated k: the last value wins;
        # an explicit "0" removes an entry (x.x = x would break the
        # grading); the result is Q[x]/(x^2)
        doc = dict(RING_QX2, mul=[
            [0, 0, [[0, "1"], [1, "0"]]], [1, 0, [[1, "3"]]],
            [0, 1, [[1, "2"], [1, "1"]]], [1, 1, [[1, "1"]]],
            [1, 0, [[1, "1"]]], [1, 1, [[0, "0"], [1, "0"]]]])
        R = cli.ring_from_json(doc)
        assert R == S.dual_numbers()
        assert cli.ring_to_json(R) == RING_QX2

    def test_fraction_coefficient_over_fp(self):
        # 1/2 is the inverse of 2 in F5, not the integer part of 0.5
        t = cli._sparse_tensor(1, [[0, 0, [[0, "1/2"]]]], GF(5), "mul")
        assert t == [(0, 0, 0, 3)]

    def test_coarsen_rejects_non_integer_psi(self, docs, capsys):
        psi = json.dumps(dict(PSI_Z_TO_Z2, matrix=[["x"]]))
        code = cli.run(["coarsen", str(docs / "ring.json"), "--psi", psi])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["kind"] == "validation"
        assert err["error"].startswith("psi.matrix[0]:")

    def test_field_p_zero_is_not_q(self, capsys):
        # {"p": 0} is no prime field, and must not be read as Q
        doc = {"group": {"free_rank": 0}, "field": {"p": 0},
               "basis": [[]], "mul": [[0, 0, [[0, 1]]]], "unit": [1]}
        code = cli.run(["classify", json.dumps(doc)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert json.loads(err)["error"].startswith("ring.field.p:")

    def test_classify_rejects_invalid(self, docs, capsys):
        code = cli.run(["classify", str(docs / "bad.json")])
        capsys.readouterr()
        assert code == 2


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code = cli.run(["frobnicate", "x.json"])
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown subcommand" in err

    def test_malformed_json(self, docs, capsys):
        code = cli.run(["classify", str(docs / "broken.json")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("content, error", [
        (b"[" * 100000, "nested too deeply"),
        (b'{"free_rank": "\xff"}', "not UTF-8"),
    ], ids=["deep", "not-utf8"])
    def test_unreadable_document(self, tmp_path, capsys, content, error):
        p = tmp_path / "doc.json"
        p.write_bytes(content)
        for cmd in ("validate", "classify"):
            code = cli.run([cmd, str(p)])
            captured = capsys.readouterr()
            err = json.loads(captured.err)
            assert code == 2 and err["kind"] == "validation", cmd
            assert error in err["error"] and not captured.out

    def test_scalar_exponent_beyond_the_digit_limit(self, capsys):
        # "1e5000" would be 10^5000, more digits than int-to-str allows
        ring = dict(RING_QX2, unit=["1e5000", "0"])
        code = cli.run(["classify", json.dumps(ring)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["error"].startswith("ring.unit[0]:")
        assert "exponent" in err["error"]

    def test_missing_file(self, docs, capsys):
        code = cli.run(["classify", str(docs / "nope.json")])
        capsys.readouterr()
        assert code == 2

    def test_size_guard(self, docs, capsys):
        code = cli.run(["spec", str(docs / "f5x2.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert json.loads(err)["kind"] == "size-guard"

    def test_ring_oracle_guard_fires_before_any_product(self, capsys):
        # coarse F2[Z/12]: 4095 nonzero homogeneous elements times 4096
        # elements is past the 2^20 products the ring oracle may make
        R = gf.coarsen(S.group_algebra(2, 12), S.psi_Zmod_to_zero(12))
        doc = json.dumps(cli.ring_to_json(R))
        t0 = time.perf_counter()
        code = cli.run(["classify", doc, "--oracle"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "size-guard"

    def test_monoid_past_the_old_elimination_bound_is_answered(self,
                                                                capsys):
        # 14 generators in Z^4: one Fourier-Motzkin elimination per
        # generator held 34, 249, 13 547 and then 39.7 million
        # constraints, and a guard refused it; the unit LP finds every
        # generator a unit
        doc = {"monoid": {"dim": 4, "gens": [
            [-2, 1, 3, 3], [3, -3, -1, -3], [0, 3, 0, 0], [2, 0, 3, -2],
            [-3, 0, -3, 3], [0, 0, 1, 3], [3, -3, 2, 0], [-1, 2, 3, -2],
            [1, -3, -1, -3], [-3, -3, 2, 1], [-3, 0, 2, -2], [0, 2, -3, 1],
            [-2, 3, 0, 0], [1, -2, -1, -2]]}, "mode": "fine", "field": "Q"}
        phi = {"source": {"free_rank": 4}, "target": {"free_rank": 4},
               "matrix": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                          [0, 0, 0, 1]]}
        t0 = time.perf_counter()
        code = cli.run(["corestrict", json.dumps(doc),
                        "--phi", json.dumps(phi)])
        assert time.perf_counter() - t0 < 2.0
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "corestriction": "zero ring", "witness_degree": [-3, -3, 14, 66]}

    @pytest.mark.parametrize("n, dim, code", [
        (64, 4, 0), (32, 8, 0), (1, 256, 0), (0, 256, 0), (65, 1, 3),
        (33, 8, 3), (2, 129, 3), (0, 257, 3), (20000, 2, 3)])
    def test_monoid_guard_fires_before_the_monoid_is_built(
            self, capsys, monkeypatch, n, dim, code):
        # at most 64 generators and 256 generator entries; past them the
        # document is refused before its generators are read.  Without
        # the guard, 20,000 generators in Z^2 took about 6 s in classify,
        # most of it removing duplicates
        gens = [[(i * 7 + t) % 5 - 2 for t in range(dim)] for i in range(n)]
        doc = json.dumps({"monoid": {"dim": dim, "gens": gens},
                          "mode": "coarse", "field": "Q"})
        if code == 3:
            monkeypatch.setattr(cli, "AffineMonoid", None)
        for argv in (["classify", doc], ["corestrict", doc, "--phi",
                                         '{"source":{},"target":{},'
                                         '"matrix":[]}']):
            t0 = time.perf_counter()
            assert cli.run(argv) == code, argv[0]
            assert time.perf_counter() - t0 < 1.0, argv[0]
            err = capsys.readouterr().err
            if code == 3:
                assert json.loads(err)["kind"] == "size-guard"

    def test_integer_literal_beyond_the_digit_limit(self, tmp_path, capsys):
        # json.loads refuses an int of more than 4300 digits with a
        # ValueError that is not a JSONDecodeError
        text = ('{"group": {"free_rank": 0}, "field": {"p": 1' + "0" * 4999
                + '}, "basis": [[]], "mul": [[0, 0, [[0, 1]]]], "unit": [1]}')
        p = tmp_path / "doc.json"
        p.write_text(text)
        for argv in (["classify", text], ["validate", str(p)]):
            code = cli.run(argv)
            captured = capsys.readouterr()
            err = json.loads(captured.err)
            assert code == 2 and err["kind"] == "validation", argv
            assert err["error"].startswith("$: ") and "digits" in err["error"]
            assert not captured.out

    def test_axiom_check_guard_fires_before_the_entries_are_read(
            self, capsys):
        # 150^2 x 150 associativity triples are past 2^20: the check of
        # that ring ran for about 50 s before this guard; so are 32^2 x
        # 1025 for a module over a ring of dimension 32
        ring = square_zero_document(150)
        module = {"ring": square_zero_document(32), "action": [],
                  "basis": [{"degree": []}] * 1025}
        for cmd, doc in (("validate", ring), ("classify", ring),
                         ("validate", module), ("module", module)):
            t0 = time.perf_counter()
            code = cli.run([cmd, json.dumps(doc)])
            assert time.perf_counter() - t0 < 1.0, cmd
            err = json.loads(capsys.readouterr().err)
            assert code == 3 and err["kind"] == "size-guard", cmd
            assert "associativity triples" in err["error"]
        # 64^3 triples are within it, and the ring is checked
        code = cli.run(["validate", json.dumps(square_zero_document(64))])
        assert code == 0 and json.loads(capsys.readouterr().out) == {
            "ok": True, "violations": []}

    @pytest.mark.parametrize("p, code", [(2 ** 61 - 1, 0), (2 ** 89 - 1, 2)])
    def test_large_prime_field(self, capsys, p, code):
        # primality and the Frobenius power in the nilradical take
        # O(log p) steps; beyond the deterministic Miller-Rabin bound
        # the field is refused
        doc = {"group": {"free_rank": 0}, "field": {"p": p},
               "basis": [[]], "mul": [[0, 0, [[0, 1]]]], "unit": [1]}
        assert cli.run(["classify", json.dumps(doc)]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert json.loads(out) == {"entire": True, "reduced": True,
                                       "simple": True}
        else:
            assert "too large" in json.loads(err)["error"]

    def test_field_flag_rejected_by_argparse(self, docs, capsys):
        code = cli.run(["classify", str(docs / "ring.json"),
                        "--field", "Fp:6"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unrecognized arguments: --field" in err

    def test_field_flag_rejected_for_q(self, docs, capsys):
        # the flag was validated and then ignored, so "Q" used to pass
        code = cli.run(["classify", str(docs / "ring.json"), "--field", "Q"])
        capsys.readouterr()
        assert code == 2

    def test_seed_only_on_module(self, docs, capsys):
        code = cli.run(["resolve", str(docs / "K.json"), "--seed", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unrecognized arguments: --seed" in err
        code, out = run_json(capsys, ["module", str(docs / "K.json"),
                                      "--seed", "3"])
        assert code == 0 and out["free"] is False

    def test_oracle_only_on_classify_and_module(self, docs, capsys):
        code = cli.run(["resolve", str(docs / "K.json"), "--oracle"])
        capsys.readouterr()
        assert code == 2

    def test_malformed_action_term(self, tmp_path, capsys):
        doc = dict(MODULE_K, action=[[0, 0, [5]]])
        path = tmp_path / "bad_action.json"
        path.write_text(json.dumps(doc))
        code = cli.run(["module", str(path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["kind"] == "validation"
        assert "action[0][2][0]" in err["error"]
        code, out = run_json(capsys, ["validate", str(path)])
        assert code == 0 and out["ok"] is False
        assert any(v.startswith("action[0][2][0]")
                   for v in out["violations"])


    def test_cutoff_outside_0_to_32_is_refused(self, docs, capsys):
        for cmd in ("resolve", "pd", "id", "fd"):
            for cutoff in ("-1", "33"):
                code = cli.run([cmd, str(docs / "K.json"),
                                "--cutoff", cutoff])
                err = json.loads(capsys.readouterr().err)
                assert code == 2 and err["kind"] == "validation", \
                    (cmd, cutoff)
        code = cli.run(["coarsen-compare", str(docs / "K.json"),
                        "--psi", str(docs / "psi2.json"), "--cutoff", "-1"])
        capsys.readouterr()
        assert code == 2

    def test_group_rank_above_32_is_refused(self, capsys):
        # a ring with an empty basis over Z^33 and psi: Z^33 -> 0 would
        # run Smith normal form on the grading map
        ring = {"group": {"free_rank": 33, "torsion": []}, "field": "Q",
                "basis": [], "mul": [], "unit": []}
        psi = {"source": {"free_rank": 33, "torsion": []},
               "target": {"free_rank": 0, "torsion": []}, "matrix": []}
        t0 = time.perf_counter()
        code = cli.run(["coarsen", json.dumps(ring), "--psi",
                        json.dumps(psi)])
        assert time.perf_counter() - t0 < 1.0
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["kind"] == "validation"
        assert err["error"].startswith("ring.group:")
        code, out = run_json(capsys, ["validate", json.dumps(
            {"free_rank": 31, "torsion": [2, 2]})])
        assert code == 0 and out["ok"] is False
        code, out = run_json(capsys, ["validate", json.dumps(
            {"free_rank": 30, "torsion": [2, 2]})])
        assert code == 0 and out["ok"] is True

    @pytest.mark.parametrize("text", ["5", "[1]", '"action"', "null"])
    def test_oracle_diff_non_object(self, tmp_path, capsys, text):
        p = tmp_path / "doc.json"
        p.write_text(text)
        code = cli.run(["oracle-diff", str(p)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["kind"] == "validation"

    def test_schanuel_glue_length_at_least_one(self, docs, capsys):
        for n in ("-1", "0"):
            code = cli.run(["schanuel", str(docs / "K.json"), "--n", n])
            err = json.loads(capsys.readouterr().err)
            assert code == 2 and err["kind"] == "validation", n

    def test_env_seed_not_an_integer(self, docs, capsys, monkeypatch):
        # GRADEX_SEED is not read: a malformed value changes no exit code.
        code = cli.run(["classify", str(docs / "ring.json")])
        plain = capsys.readouterr()
        monkeypatch.setenv("GRADEX_SEED", "abc")
        code_env = cli.run(["classify", str(docs / "ring.json")])
        assert (code, plain) == (0, capsys.readouterr()) and code_env == 0


class TestDeterminism:
    def test_byte_identical_reports(self, docs, capsys):
        outs = []
        for _ in range(2):
            code = cli.run(["module", str(docs / "R.json"), "--seed", "7"])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_env_seed(self, docs, capsys, monkeypatch):
        # --seed alone picks the seed; GRADEX_SEED leaves the report as is.
        argv = ["module", str(docs / "R.json")]
        code, out = run_json(capsys, argv)
        monkeypatch.setenv("GRADEX_SEED", "12345")
        assert run_json(capsys, argv) == (code, out)
        assert code == 0 and out["free"] is True

    def test_text_mode(self, docs, capsys):
        code = cli.run(["classify", str(docs / "ring.json"), "--text"])
        out = capsys.readouterr().out
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "simple" in out


class TestRoundTrip:
    def test_ring_serialization(self, docs):
        R = cli.ring_from_json(RING_QX2)
        doc = cli.ring_to_json(R)
        R2 = cli.ring_from_json(doc)
        assert R2.basis_degrees == R.basis_degrees
        assert dense(R2) == dense(R)
        assert R2.unit == R.unit
        assert R2.group == R.group

    def test_module_serialization(self):
        M = cli.module_from_json(MODULE_K)
        doc = cli.module_to_json(M)
        M2 = cli.module_from_json(doc)
        assert M2 == M

    def test_hom_serialization(self):
        h = cli.hom_from_json(PSI_Z_TO_Z2)
        doc = cli.hom_to_json(h)
        h2 = cli.hom_from_json(doc)
        assert h2.source == h.source and h2.target == h.target
        assert h2.matrix == h.matrix

    def test_sample_rings_round_trip(self):
        for R in (S.dual_numbers(GF(3)), S.group_algebra(2, 2),
                  S.product_field_algebra()):
            doc = cli.ring_to_json(R)
            R2 = cli.ring_from_json(doc)
            assert dense(R2) == dense(R)
            assert R2.basis_degrees == R.basis_degrees


# argv -> stdout with COLUMNS=80, as printed when every call built all
# fifteen subparsers
HELP_TEXTS = {
    ('-h',): (
        'usage: gradex [-h]\n'
        '              {classify,coarsen,restrict,corestrict,adjoint-check,'
        'module,resolve,pd,id,fd,schanuel,coarsen-compare,spec,oracle-diff,'
        'validate}\n'
        '              ...\n'
        '\n'
        'positional arguments:\n'
        '  {classify,coarsen,restrict,corestrict,adjoint-check,module,'
        'resolve,pd,id,fd,schanuel,coarsen-compare,spec,oracle-diff,'
        'validate}\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ),
    ('classify', '-h'): (
        'usage: gradex classify [-h] [--json | --text] [--oracle] object\n'
        '\n'
        'positional arguments:\n'
        '  object      JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --oracle\n'
    ),
    ('coarsen', '-h'): (
        'usage: gradex coarsen [-h] [--json | --text] --psi PSI object\n'
        '\n'
        'positional arguments:\n'
        '  object      JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --psi PSI\n'
    ),
    ('restrict', '-h'): (
        'usage: gradex restrict [-h] [--json | --text] --phi PHI object\n'
        '\n'
        'positional arguments:\n'
        '  object      JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --phi PHI\n'
    ),
    ('corestrict', '-h'): (
        'usage: gradex corestrict [-h] [--json | --text] --phi PHI object\n'
        '\n'
        'positional arguments:\n'
        '  object      JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --phi PHI\n'
    ),
    ('adjoint-check', '-h'): (
        'usage: gradex adjoint-check [-h] [--json | --text] --phi PHI object\n'
        '\n'
        'positional arguments:\n'
        '  object      JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --phi PHI\n'
    ),
    ('module', '-h'): (
        'usage: gradex module [-h] [--json | --text] [--oracle] [--seed SEED]'
        ' object\n'
        '\n'
        'positional arguments:\n'
        '  object       JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help   show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --oracle\n'
        '  --seed SEED\n'
    ),
    ('resolve', '-h'): (
        'usage: gradex resolve [-h] [--json | --text] [--cutoff CUTOFF] objec'
        't\n'
        '\n'
        'positional arguments:\n'
        '  object           JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --cutoff CUTOFF\n'
    ),
    ('pd', '-h'): (
        'usage: gradex pd [-h] [--json | --text] [--cutoff CUTOFF] object\n'
        '\n'
        'positional arguments:\n'
        '  object           JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --cutoff CUTOFF\n'
    ),
    ('id', '-h'): (
        'usage: gradex id [-h] [--json | --text] [--cutoff CUTOFF] object\n'
        '\n'
        'positional arguments:\n'
        '  object           JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --cutoff CUTOFF\n'
    ),
    ('fd', '-h'): (
        'usage: gradex fd [-h] [--json | --text] [--cutoff CUTOFF] object\n'
        '\n'
        'positional arguments:\n'
        '  object           JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --cutoff CUTOFF\n'
    ),
    ('schanuel', '-h'): (
        'usage: gradex schanuel [-h] [--json | --text] [--n N] object\n'
        '\n'
        'positional arguments:\n'
        '  object      JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --n N\n'
    ),
    ('coarsen-compare', '-h'): (
        'usage: gradex coarsen-compare [-h] [--json | --text] --psi PSI\n'
        '                              [--cutoff CUTOFF]\n'
        '                              object\n'
        '\n'
        'positional arguments:\n'
        '  object           JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --json\n'
        '  --text\n'
        '  --psi PSI\n'
        '  --cutoff CUTOFF\n'
    ),
    ('spec', '-h'): (
        'usage: gradex spec [-h] [--json | --text] object\n'
        '\n'
        'positional arguments:\n'
        '  object      JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --json\n'
        '  --text\n'
    ),
    ('oracle-diff', '-h'): (
        'usage: gradex oracle-diff [-h] [--json | --text] object\n'
        '\n'
        'positional arguments:\n'
        '  object      JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --json\n'
        '  --text\n'
    ),
    ('validate', '-h'): (
        'usage: gradex validate [-h] [--json | --text] object\n'
        '\n'
        'positional arguments:\n'
        '  object      JSON file path or inline JSON\n'
        '\n'
        'options:\n'
        '  -h, --help  show this help message and exit\n'
        '  --json\n'
        '  --text\n'
    ),
}


class TestHelp:
    @pytest.mark.parametrize("argv", [[]] + [list(a) for a in HELP_TEXTS])
    def test_help_texts_unchanged(self, argv, capsys, monkeypatch):
        # each call builds only the named subcommand's parser; the texts
        # must read as when all of them were built
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.run(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out == HELP_TEXTS[tuple(argv) or ("-h",)]


# argv tokens after the subcommand: values that int() reads or not, some
# led by a dash, and as noise the flags of every subcommand (so some are
# foreign to the one drawn), unknown flags and abbreviations
VALUES = st.sampled_from(["r.json", "{}", "7", "-1", "+3", " 4", "1_0", "x",
                          "1.5", "-.5", "", "-", "-x", "-x y", "--"])
INTS = st.one_of(st.integers(-40, 40).map(str), VALUES)
FLAGS = sorted({f for opts in cli.OPTIONS.values() for f, _, _ in opts}
               | {"--json", "--text"})
NOISE = st.one_of(st.sampled_from(FLAGS + ["--field", "-x", "--o", "--ps",
                                           "--cut", "--se", "--t", "--j"]),
                  VALUES)


@st.composite
def argvs(draw):
    """(subcommand, argv) from the subcommand's table: its options in
    any order and with repeats, as --name value or --name=value, its
    required options most of the time, one object most of the time, and
    some noise."""
    name = draw(st.sampled_from(sorted(cli.OPTIONS)))
    table = [("--json", bool, None), ("--text", bool, None),
             *cli.OPTIONS[name]]
    parts = [[draw(VALUES)] for _ in range(draw(st.sampled_from(
        [1, 1, 1, 0, 2])))]
    given = draw(st.lists(st.sampled_from(table), max_size=4))
    if draw(st.sampled_from([True, True, False])):
        given += [o for o in table if o[1] is str]
    for flag, kind, _ in given:
        value = draw(INTS if kind is int else VALUES)
        parts.append([flag] if kind is bool else draw(st.sampled_from(
            [[flag, value], [f"{flag}={value}"]])))
    parts += [[t] for t in draw(st.lists(NOISE, max_size=2))]
    return name, [t for part in draw(st.permutations(parts)) for t in part]


def differs(argv, name):
    """Whether an option token before any -- abbreviates a flag of
    subcommand name, or gives one of its flags the value --."""
    flags = ["--help", "--json", "--text", *(f for f, _, _ in
                                             cli.OPTIONS[name])]
    options = argv[:argv.index("--")] if "--" in argv else argv
    for head, _, value in (t.partition("=") for t in options
                           if t.startswith("--")):
        if len(head) > 2 and any(f != head and f.startswith(head)
                                 for f in flags):
            return True
        if head in flags and value == "--":
            return True
    return False


class TestArgvParser:
    """``_parse_args`` against argparse, as ``_build_parser(name)``
    (built for help texts) would parse the same argv: whenever
    ``_parse_args`` accepts, argparse reads the same value for every
    dest, and whenever argparse exits 2, ``run`` returns 2 with one JSON
    error line.  The one deliberate difference: argparse accepts an
    abbreviated option (``--cut 3`` for ``--cutoff 3``) and
    ``_parse_args`` rejects it as unrecognized, so without an
    abbreviation the two accept the same argvs.  Beside it, argparse
    (3.11) reads ``--psi=--`` as an empty list, which no command can
    load; ``_parse_args`` refuses it as a missing value.  -h and --help
    are left out: anywhere after the subcommand they print help before
    any parsing."""

    @settings(max_examples=400, deadline=None)
    @given(argvs())
    def test_agrees_with_argparse(self, drawn):
        name, argv = drawn
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                expected = vars(cli._build_parser(name).parse_args(argv))
            except SystemExit as e:
                assert e.code == 2
                expected = None
            try:
                got = vars(cli._parse_args(name, argv))
            except cli.ValidationError:
                got = None
        if got is not None:
            assert got == expected
        elif expected is not None:
            assert differs(argv, name)
        if expected is None:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert cli.run([name, *argv]) == 2
            assert json.loads(err.getvalue())["kind"] == "validation"
            assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("argv, read", [
        (["x", "--cutoff", "-1"], {"object": "x", "text": False,
                                   "cutoff": -1}),
        (["--text", "--", "-x"], {"object": "-x", "text": True, "cutoff": 8}),
        (["x", "--cutoff=x"], "argument --cutoff: invalid int value: 'x'"),
        (["x", "--cutoff"], "argument --cutoff: expected one argument"),
        (["x", "--cutoff=--"], "argument --cutoff: expected one argument"),
        (["x", "--cut", "3"], "unrecognized arguments: --cut 3"),
        (["--cutoff", "3"], "the following arguments are required: object"),
    ])
    def test_examples(self, argv, read):
        if isinstance(read, dict):
            assert vars(cli._parse_args("resolve", argv)) == read
        else:
            with pytest.raises(cli.ValidationError) as e:
                cli._parse_args("resolve", argv)
            assert str(e.value) == read
