import json
import time
from itertools import product

import pytest

import gradex.cli as cli
import gradex.exactla as la
import gradex.gcore as gc
import gradex.gfunct as gf
import gradex.gmod as gm
import gradex.oracles as orc
from gradex.exactla import GF
import samples as S
from support import (cokernel, dense, exhaustive_classify,
                     generated_submodule, regular_module)
from test_ghom import sample_modules


def quotient_by_power(R, k):
    """R / <x^k> for a truncated polynomial algebra."""
    M = regular_module(R)
    gen = [0] * R.dim
    gen[k] = 1
    _, incl = generated_submodule(M, [gen])
    return cokernel(incl)


# ---------------------------------------------------------------------------
# references: the straightforward filters, multiplying and comparing each
# candidate from scratch
# ---------------------------------------------------------------------------

def reference_mul(R, T, x, y):
    """x y in R, T the dense tensor of R."""
    f = R.field
    out = [f.zero] * R.dim
    for i in range(R.dim):
        if x[i] == 0:
            continue
        for j in range(R.dim):
            if y[j] == 0:
                continue
            c = f.mul(x[i], y[j])
            for k in range(R.dim):
                s = T[i][j][k]
                if s != 0:
                    out[k] = f.add(out[k], f.mul(c, s))
    return out


def reference_classify(R):
    f = R.field
    zero = [f.zero] * R.dim
    elements = [list(v) for v in product(f.elements(), repeat=R.dim)]
    T, rows = dense(R), []
    for x in elements:
        products = [reference_mul(R, T, x, y) for y in elements]
        unit = any(p == list(R.unit) for p in products)
        regular = all(p != zero for p, y in zip(products, elements)
                      if y != zero)
        if R.dim == 0:
            unit = regular = True
        power = x[:]
        nilpotent = False
        for _ in range(max(R.dim, 1)):
            if power == zero:
                nilpotent = True
                break
            power = reference_mul(R, T, power, x)
        if power == zero:
            nilpotent = True
        rows.append({"element": tuple(x), "unit": unit,
                     "regular": regular, "nilpotent": nilpotent})
    return rows


def reference_ring_class(R):
    f = R.field
    table = {r["element"]: r for r in reference_classify(R)}
    simple = entire = reduced = True
    for x, row in table.items():
        degrees = {R.basis_degrees[i] for i in range(R.dim) if x[i] != 0}
        if len(degrees) != 1:
            continue  # zero or not homogeneous
        simple = simple and row["unit"]
        entire = entire and row["regular"]
        reduced = reduced and not row["nilpotent"]
    return {"simple": simple, "entire": entire, "reduced": reduced}


def reference_morphisms(M, N):
    f = M.field
    slots = [(k, j) for k in range(N.dim) for j in range(M.dim)
             if N.basis_degrees[k] == M.basis_degrees[j]]
    A, B, out = dense(M), dense(N), []
    for vals in product(f.elements(), repeat=len(slots)):
        mat = [[f.zero] * M.dim for _ in range(N.dim)]
        for (k, j), v in zip(slots, vals):
            mat[k][j] = v
        ok = True
        for i in range(M.algebra.dim):
            for j in range(M.dim):
                # u(x_i . v_j) vs x_i . u(v_j)
                lhs = [f.zero] * N.dim
                for t in range(M.dim):
                    a = A[i][j][t]
                    if a == 0:
                        continue
                    for k in range(N.dim):
                        lhs[k] = f.add(lhs[k], f.mul(a, mat[k][t]))
                rhs = [f.zero] * N.dim
                for k in range(N.dim):
                    if mat[k][j] == 0:
                        continue
                    for t in range(N.dim):
                        b = B[i][k][t]
                        if b != 0:
                            rhs[t] = f.add(rhs[t], f.mul(mat[k][j], b))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(tuple(r) for r in mat))
    return sorted(out)


def oracle_rings():
    """finite_corpus() and every coarsening in coarsening_pairs()."""
    return S.finite_corpus() + [gf.coarsen(R, psi)
                                for R, psi in S.coarsening_pairs()]


def module_zoo(p, n):
    """Modules over F_p[X]/(X^n): the zero module, free modules of rank
    at most 2 with shifts 0 and 1, and the cyclic quotients R/(X^k)."""
    R = S.truncated_polynomial_algebra(GF(p), n)
    zero, one = R.group.zero, R.basis_degrees[1]
    mods = [gm.GradedModule(R, [], [])]
    for shifts in ([zero], [one], [zero, zero], [zero, one]):
        mods.append(gm.free_module(R, shifts))
    for k in range(1, n):
        mods.append(quotient_by_power(R, k)[0])
    return mods


class TestExhaustiveClassify:
    def test_dual_numbers_f2(self):
        R = S.dual_numbers(GF(2))
        table = {r["element"]: r for r in exhaustive_classify(R)}
        assert len(table) == 4
        assert table[(0, 1)] == {"element": (0, 1), "unit": False,
                                 "regular": False, "nilpotent": True}
        assert table[(1, 0)]["unit"] and not table[(1, 0)]["nilpotent"]
        assert table[(1, 1)]["unit"]  # 1 + x is invertible
        assert table[(0, 0)]["nilpotent"]

    def test_group_algebra_f2_z2(self):
        R = S.group_algebra(2, 2)
        table = {r["element"]: r for r in exhaustive_classify(R)}
        assert table[(0, 1)]["unit"]
        assert table[(1, 1)]["nilpotent"] and not table[(1, 1)]["unit"]

    def test_unit_count_of_truncated_f3(self):
        R = S.truncated_polynomial_algebra(GF(3), 2)
        units = sum(r["unit"] for r in exhaustive_classify(R))
        assert units == 6  # (a + bx) invertible iff a != 0


class TestAgreementWithReferences:
    @pytest.mark.parametrize("build", range(len(oracle_rings())))
    def test_ring_tables_and_flags(self, build):
        R = oracle_rings()[build]
        assert exhaustive_classify(R) == reference_classify(R)
        assert orc.oracle_ring_class(R) == reference_ring_class(R)

    @pytest.mark.parametrize("p, n", [(2, 3), (3, 2)], ids=["F2", "F3"])
    def test_morphisms_of_every_ordered_pair(self, p, n):
        mods = module_zoo(p, n)
        for A in mods:
            for B in mods:
                assert orc.enumerate_morphisms(A, B) == \
                    reference_morphisms(A, B), (A.basis_degrees,
                                                B.basis_degrees)


class TestRingClassConcordance:
    def test_spot_checks(self):
        flags = orc.oracle_ring_class(S.group_algebra(2, 2))
        assert flags == {"simple": True, "entire": True, "reduced": True}
        flags = orc.oracle_ring_class(S.dual_numbers(GF(2)))
        assert flags == {"simple": False, "entire": False, "reduced": False}

    def test_full_corpus(self):
        for R in S.finite_corpus():
            rc = gc.classify_ring(R)
            flags = orc.oracle_ring_class(R)
            assert rc.simple == flags["simple"], R
            assert rc.entire == flags["entire"], R
            assert rc.reduced == flags["reduced"], R


class TestSubmoduleEnumeration:
    def test_chain_ring(self):
        # graded submodules of F2[X]/(X^4) are exactly the <X^k>
        R = S.truncated_polynomial_algebra(GF(2), 4)
        subs = orc.enumerate_graded_substructures(regular_module(R))
        assert len(subs) == 5
        dims = sorted(len(s) for s in subs)
        assert dims == [0, 1, 2, 3, 4]

    def test_group_algebra_is_gr_simple(self):
        R = S.group_algebra(2, 2)
        subs = orc.enumerate_graded_substructures(regular_module(R))
        assert len(subs) == 2  # only 0 and the whole module

    def test_radical_and_socle_appear(self):
        import gradex.exactla as la
        R = S.truncated_polynomial_algebra(GF(2), 3)
        M = regular_module(R)
        subs = orc.enumerate_graded_substructures(M)
        rad = gm.radical_submodule(M)
        soc = gm.socle_submodule(M)
        for target in (rad, soc):
            canon = tuple(tuple(r) for r in orc._eliminate(M.field,
                                                           list(target)))
            assert any(tuple(tuple(r) for r in orc._eliminate(
                M.field, [list(v) for v in s])) == canon for s in subs)

    @pytest.mark.parametrize("R", [
        gf.coarsen(S.truncated_polynomial_algebra(GF(2), 3),
                   S.psi_Z_to_zero()),
        gf.coarsen(S.group_algebra(3, 3), S.psi_Zmod_to_zero(3))])
    def test_each_submodule_listed_once(self, R):
        # one entry per submodule, each its canonical basis
        M = regular_module(R)
        subs = orc.enumerate_graded_substructures(M)
        canon = {tuple(map(tuple, M.graded_span(s))) for s in subs}
        assert len(set(subs)) == len(subs) == len(canon) == 4
        assert set(subs) == canon

    def test_spec_agrees_with_prime_ideals(self):
        # the graded ideals of R are the submodules of its regular module
        for R in oracle_rings() + [R for R, _ in S.coarsening_pairs()]:
            primes = set()
            for s in orc.enumerate_graded_substructures(regular_module(R)):
                if gc.classify_ring(gc.quotient_ring(R, s)[0]).entire:
                    primes.add(tuple(map(tuple, R.graded_span(s))))
            spec = [tuple(map(tuple, P)) for P in gc.spec_enumerate(R)]
            assert len(spec) == len(primes) and set(spec) == primes, R


class TestMorphismEnumeration:
    def test_endomorphisms_of_quotient(self):
        R = S.dual_numbers(GF(2))
        K, _ = quotient_by_power(R, 1)
        assert len(orc.enumerate_morphisms(K, K)) == 2  # 0 and identity

    def test_hom_counts_match_graded_hom(self):
        R = S.truncated_polynomial_algebra(GF(2), 3)
        M = regular_module(R)
        K, _ = quotient_by_power(R, 1)
        for A, B in [(M, M), (M, K), (K, M), (K, K)]:
            H, _ = gm.graded_hom(A, B)
            deg0 = sum(1 for d in H.basis_degrees
                       if d == R.group.zero)
            assert len(orc.enumerate_morphisms(A, B)) == 2 ** deg0, (A, B)

    @pytest.mark.parametrize("i", range(len(sample_modules())))
    def test_oracle_diff_counts_degree0_hom(self, i, capsys):
        # oracle-diff reads the count from one kernel of the degree-0
        # equations; graded_hom builds every degree
        M = sample_modules()[i]
        H, _ = gm.graded_hom(M, M)
        deg0 = sum(1 for d in H.basis_degrees if d == M.algebra.group.zero)
        code = cli.run(["oracle-diff", json.dumps(cli.module_to_json(M))])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["agree"] is True
        assert out["hom_deg0_dim"] == deg0
        assert out["oracle_hom_count"] == M.field.p ** deg0

    def test_oracle_diff_free_f2x4_within_budget(self, capsys):
        # a guard against rebuilding both sides of the equivariance
        # check for each of the 2^14 candidates (about 1.1 s)
        R = S.truncated_polynomial_algebra(GF(2), 4)
        F = gm.free_module(R, [R.group.zero, R.basis_degrees[1]])
        doc = json.dumps(cli.module_to_json(F))
        t0 = time.perf_counter()
        code = cli.run(["oracle-diff", doc])
        assert time.perf_counter() - t0 < 0.3
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "object": "module", "hom_deg0_dim": 3,
            "oracle_hom_count": 8, "agree": True}

    def test_guard(self):
        R = S.truncated_polynomial_algebra(GF(5), 2)
        F = gm.free_module(R, [R.group.zero] * 5)
        with pytest.raises(gc.SizeGuardExceeded):
            orc.enumerate_morphisms(F, F)

    def test_twenty_slots_at_the_guard(self):
        # F2[X]/(X^5)^2 with shifts 0: 2 * 2 * 5 = 20 slots, 2^20 =
        # ENUM_LIMIT candidates, which the guard still admits
        R = S.truncated_polynomial_algebra(GF(2), 5)
        F = gm.free_module(R, [R.group.zero, R.group.zero])
        H, _ = gm.graded_hom(F, F)
        deg0 = sum(1 for d in H.basis_degrees if d == R.group.zero)
        assert deg0 == 4
        assert len(orc.enumerate_morphisms(F, F)) == 2 ** deg0


class TestRingOracleWork:
    """_mul_vec calls of oracle_ring_class, counted: a row of products
    only while simple or entire is undecided, powers only while reduced
    is, nothing once all three are false."""

    # calls per ring of oracle_rings() when every nonzero homogeneous
    # element got a full row of products and its powers
    FULL_SCAN = [3, 8, 11, 30, 73, 42, 12, 180, 33, 44, 12, 44, 18, 88,
                 11, 73, 42, 8, 18, 17, 770]

    @staticmethod
    def count_products(monkeypatch):
        calls = [0]
        mul_vec = orc._mul_vec

        def counting(*args):
            calls[0] += 1
            return mul_vec(*args)
        monkeypatch.setattr(orc, "_mul_vec", counting)
        return calls

    def test_coarse_f3_z4_stops_once_decided(self, monkeypatch):
        # 80 nonzero elements; a full scan makes 80 * (81 + 4) = 6800
        # products, but the fourth element, e^2 + e^3, is a zero-divisor
        R = gf.coarsen(S.group_algebra(3, 4), S.psi_Zmod_to_zero(4))
        calls = self.count_products(monkeypatch)
        assert orc.oracle_ring_class(R) == {
            "simple": False, "entire": False, "reduced": True}
        assert calls[0] <= 1000

    def test_no_ring_needs_more_products(self, monkeypatch):
        rings = oracle_rings()
        assert len(rings) == len(self.FULL_SCAN)
        calls = self.count_products(monkeypatch)
        for R, full in zip(rings, self.FULL_SCAN):
            calls[0] = 0
            orc.oracle_ring_class(R)
            assert calls[0] <= full, (R, calls[0], full)


class TestFreenessOracle:
    def test_guard_bounds_the_tuples_walked(self, capsys):
        # 8 copies of F2 in degree 0 over F2[X]/(X^2): a basis of r = 4
        # generators from 255 nonzero vectors passes the 255^2 pair
        # bound, but the walk would try C(255, 4) ~ 1.7e8 tuples
        R = S.dual_numbers(GF(2))
        doc = {"ring": cli.ring_to_json(R),
               "basis": [{"degree": list(R.group.zero.coords)}] * 8,
               "action": [[0, j, [[j, 1]]] for j in range(8)]}
        M = cli.module_from_json(doc)
        t0 = time.perf_counter()
        with pytest.raises(gc.SizeGuardExceeded):
            orc.oracle_free_search(M)
        assert time.perf_counter() - t0 < 1.0
        code = cli.run(["module", json.dumps(doc), "--oracle"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "size-guard"


class TestSmallSubmoduleOracle:
    def test_concordance_on_chain_ring(self):
        R = S.truncated_polynomial_algebra(GF(2), 4)
        M = regular_module(R)
        for j in range(1, 4):
            gen = [0] * 4
            gen[j] = 1
            _, incl = generated_submodule(M, [gen])
            for mode in ("superfluous", "essential"):
                flag, witness = orc.oracle_small_submodule(incl, mode)
                rep = gm.small_submodule(incl, mode)
                assert flag == rep.flag, (j, mode)
                if not flag:
                    assert witness is not None

    def test_negative_cases(self):
        R = S.truncated_polynomial_algebra(GF(2), 3)
        M = regular_module(R)
        ident = gm.ModuleMorphism(M, M, la.eye(M.field, M.dim))
        flag, witness = orc.oracle_small_submodule(ident, "superfluous")
        assert flag is False and witness is not None
        Z = gm.GradedModule(R, [], [])
        zmap = gm.ModuleMorphism(Z, M, [[] for _ in range(M.dim)])
        flag, witness = orc.oracle_small_submodule(zmap, "essential")
        assert flag is False and witness is not None

    def test_concordance_over_f3(self):
        R = S.truncated_polynomial_algebra(GF(3), 2)
        M = regular_module(R)
        gen = [0, 1]
        _, incl = generated_submodule(M, [gen])
        for mode in ("superfluous", "essential"):
            flag, _ = orc.oracle_small_submodule(incl, mode)
            assert flag == gm.small_submodule(incl, mode).flag
