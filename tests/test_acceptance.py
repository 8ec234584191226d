"""End-to-end acceptance suite: ten criteria, each printing a single
pass line with its runtime and asserting an explicit time budget.  All
comparisons are exact."""

import time

import gradex.abgroups as ag
import gradex.gcore as gc
import gradex.gfunct as gf
import gradex.ghom as gh
import gradex.gmod as gm
import gradex.oracles as orc
from gradex.abgroups import Z, Zmod, GroupHom
from gradex.exactla import QQ, GF
import samples as S
from support import (cokernel, dense, duality_involution_check, entries,
                     generated_submodule, intersect_ideals, lambek_check,
                     lambek_dimension_check, mono_epi_duality_check, radical,
                     regular_module)


def timed(budget):
    def wrap(fn):
        def inner():
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            assert dt < budget, f"{fn.__name__} took {dt:.2f}s > {budget}s"
            name = fn.__name__.replace("test_", "").replace("_", "-")
            print(f"PASS {name} ({dt:.2f}s)")
        inner.__name__ = fn.__name__
        return inner
    return wrap


def quotient_by_x(R):
    M = regular_module(R)
    gen = [0] * R.dim
    gen[1] = 1
    _, incl = generated_submodule(M, [gen])
    return cokernel(incl)


@timed(1.0)
def test_1_torsion_dichotomy():
    pairs = S.coarsening_pairs()
    assert len(pairs) >= 6
    for R, psi in pairs:
        _, _, torsionfree, _, _ = ag.kernel_data(psi)
        fine = gc.classify_ring(R)
        coarse = gc.classify_ring(gf.coarsen(R, psi))
        if torsionfree:
            assert fine.entire == coarse.entire, (R, psi)
            assert fine.reduced == coarse.reduced, (R, psi)
    # the torsion-kernel failure: F2[Z/2] fine is simple, its total
    # coarsening is not even reduced, witnessed by (e0 + e1)^2 = 0
    R = S.group_algebra(2, 2)
    assert gc.classify_ring(R).simple
    Rc = gf.coarsen(R, S.psi_Zmod_to_zero(2))
    assert not gc.classify_ring(Rc).reduced
    w = Rc.element([1, 1])
    assert Rc.vec_degree(w) is not None and not any(Rc.act_vec(w, w))


@timed(1.0)
def test_2_simplicity_rigidity():
    # torsion kernel: the homogeneous sets of Q[i] (graded by Z/2) and
    # its total coarsening differ, witnessed by x + 1
    R = S.gaussian_rationals()
    Rc = gf.coarsen(R, S.psi_Zmod_to_zero(2))
    x_plus_1 = R.element([1, 1])
    assert R.vec_degree(x_plus_1) is None
    assert Rc.vec_degree(x_plus_1) is not None
    # torsionfree kernel with simple coarsening: homogeneous sets agree,
    # by exhaustive enumeration over F3
    checked = 0
    for R, psi in [(S.trivial_algebra(GF(3), Z(1)), S.psi_Z_to_zero()),
                   (S.trivial_algebra(GF(3), Z(1)), S.psi_Z_to_Zmod(3))]:
        _, _, torsionfree, _, _ = ag.kernel_data(psi)
        assert torsionfree
        Rc = gf.coarsen(R, psi)
        assert gc.classify_ring(Rc).simple
        fine_set = {tuple(x) for _, x in R.homogeneous_vectors()}
        coarse_set = {tuple(x) for _, x in Rc.homogeneous_vectors()}
        assert fine_set == coarse_set
        checked += 1
    assert checked == 2


@timed(5.0)
def test_3_adjoint_triple():
    phi = S.phi_doubling()
    # triangle identities on all samples
    for label, ok in gf.triangle_identities(
            phi,
            [S.dual_numbers(), S.truncated_polynomial_algebra(GF(2), 3)],
            [S.dual_numbers(GF(3)), S.trivial_algebra(QQ, Z(1))]):
        assert ok, label
    # corestriction of the Laurent algebra along 0 -> Z is the zero ring
    rep = gf.monoid_corestriction_report(S.laurent_algebra(),
                                         S.phi_zero_into(Z(1)))
    assert rep["result"] == "zero"
    # corestriction of Q[X]/(X^2) along doubling equals its restriction
    R = S.dual_numbers()
    cor = gf.corestrict(R, phi)
    rst = gf.restrict(R, phi)
    assert cor.algebra.basis_degrees == rst.basis_degrees
    assert dense(cor.algebra) == dense(rst)
    # Hom-set bijections over F2 by full enumeration
    for pair in [(S.dual_numbers(GF(2)), S.dual_numbers(GF(2))),
                 (S.truncated_polynomial_algebra(GF(2), 3),
                  S.dual_numbers(GF(2)))]:
        h = gf.hom_bijection_check(phi, *pair)
        assert h["corestriction-extension"] and h["extension-restriction"]
    # the tensor witness reports the degree-0 dimension mismatch
    w = gf.laurent_tensor_witness()
    assert w["mismatch"] and w["reconstructed_instance"]


@timed(2.0)
def test_4_freeness():
    # a module over trivially graded F2 x F2 with basis vectors in two
    # distinct degrees: not free, but free of rank one after total
    # coarsening; both answers oracle-confirmed
    R = S.product_field_algebra(GF(2), Z(1))
    M = gm.GradedModule(R, [Z(1).zero, Z(1).element((1,))],
                        entries([[[1, 0], [0, 0]], [[0, 0], [0, 1]]]))
    rep = gm.freeness(M)
    assert rep.free is False
    assert orc.oracle_free_search(M) is False
    Mc = gm.coarsen_module(M, S.psi_Z_to_zero())
    repc = gm.freeness(Mc)
    assert repc.free is True and repc.rank == 1
    assert orc.oracle_free_search(Mc) is True
    # five sample submodules of free modules over K[X] decompose into
    # cyclic summands and are free with rank <= number of generators
    g = Z(1).element((1,))
    zero = Z(1).zero
    presentations = [
        gm.PrincipalPresentation(QQ, g, [zero], [[(1, 2)]]),
        gm.PrincipalPresentation(QQ, g, [zero, zero],
                                 [[(1, 1), (0, 0)], [(0, 0), (1, 1)]]),
        gm.PrincipalPresentation(QQ, g, [zero], [[(1, 1)], [(1, 2)]]),
        gm.PrincipalPresentation(QQ, g, [zero, zero],
                                 [[(1, 1), (1, 1)], [(0, 0), (1, 2)]]),
        gm.PrincipalPresentation(QQ, g, [zero, g], [[(1, 2), (1, 1)]]),
    ]
    assert len(presentations) == 5
    for P in presentations:
        suite = gm.principal_suite(P, S.psi_Z_to_zero())
        assert suite["free"] is True
        assert suite["rank"] <= len(P.gens)
        assert suite["rank_bound_ok"] and suite["coarsened_agrees"]


@timed(1.0)
def test_5_superfluous_counterexample():
    rep = gm.principal_superfluous_report(S.psi_Z_to_zero())
    assert rep["graded_superfluous"] is True
    assert rep["coarsened_superfluous"] is False
    assert rep["witness"] == ["1", "1"]  # X + 1, found automatically
    assert rep["psi_kills_variable_degree"] is True
    # reflection direction on finite-field samples: if the coarsened
    # inclusion is superfluous then so is the graded one, with both
    # sides decided by the brute-force oracle
    psi = S.psi_Z_to_Zmod(2)
    for n in (2, 3, 4):
        R = S.truncated_polynomial_algebra(GF(2), n)
        M = regular_module(R)
        for j in range(1, n):
            gen = [0] * n
            gen[j] = 1
            _, incl = generated_submodule(M, [gen])
            fine_flag, _ = orc.oracle_small_submodule(incl, "superfluous")
            coarse_flag, _ = orc.oracle_small_submodule(
                gf.coarsen(incl, psi), "superfluous")
            if coarse_flag:
                assert fine_flag, (n, j)


@timed(1.0)
def test_6_schanuel():
    R = S.dual_numbers()
    K, _ = quotient_by_x(R)
    # the documented n = 1 instance: minimal cover R against the padded
    # cover R + R(-1) whose second copy maps to zero
    res1 = gh.resolution(K, cutoff=2, minimal=True)
    F = gm.free_module(R, [Z(1).zero, Z(1).element((1,))])
    beta = gm.ModuleMorphism(F, K, [[1, 0, 0, 0]])
    L, inclL = gm.kernel(beta)
    p2 = gh.minimal_cover(L)
    K2, incl2 = gm.kernel(p2)
    res2 = gh.FreeResolution(K, [beta, p2], [inclL, incl2], 2, False)
    iso, verified = gh.schanuel_glue(res1, res2, 1)
    assert verified and iso.is_iso()
    dims = {d.coords[0]: c for d, c in iso.source.hilbert().items()}
    assert dims == {0: 1, 1: 3, 2: 1}
    # n = 2 with the same pair of resolutions
    iso2, verified2 = gh.schanuel_glue(res1, res2, 2)
    assert verified2 and iso2.is_iso()


@timed(5.0)
def test_7_dimension_invariance():
    pairs = [
        (regular_module(S.dual_numbers(GF(2))), S.psi_Z_to_Zmod(2)),
        (quotient_by_x(S.dual_numbers(GF(2)))[0], S.psi_Z_to_Zmod(2)),
        (quotient_by_x(S.truncated_polynomial_algebra(GF(2), 3))[0],
         S.psi_Z_to_Zmod(3)),
        (regular_module(S.truncated_polynomial_algebra(GF(3), 2)),
         S.psi_Z_to_Zmod(2)),
        (regular_module(S.group_algebra(2, 4)),
         GroupHom(Zmod(4), Zmod(2), [[1]])),
    ]
    assert len(pairs) >= 4
    finite_kernel_seen = 0
    for M, psi in pairs:
        rep = gh.coarsen_dimension_compare(M, psi, cutoff=6)
        assert rep["ok"], (M, psi)
        assert rep["betti_equal"]
        _, _, _, finite, _ = ag.kernel_data(psi)
        if finite:
            finite_kernel_seen += 1
            assert rep["injective"]["equal"]
    assert finite_kernel_seen >= 1


@timed(2.0)
def test_8_lambek_and_duality():
    mods = []
    for R in (S.dual_numbers(GF(2)),
              S.truncated_polynomial_algebra(GF(2), 3),
              S.truncated_polynomial_algebra(GF(3), 2),
              S.group_algebra(2, 2)):
        M = regular_module(R)
        mods.extend([M, quotient_by_x(R)[0]])
    for M in mods:
        assert lambek_check(M), M
        assert duality_involution_check(M), M
        assert lambek_dimension_check(M, cutoff=3), M
    # duality is exact: it swaps monos and epis
    R = S.truncated_polynomial_algebra(GF(2), 3)
    M = regular_module(R)
    _, incl = generated_submodule(M, [[0, 1, 0]])
    _, proj = quotient_by_x(R)
    assert mono_epi_duality_check(incl)
    assert mono_epi_duality_check(proj)


@timed(10.0)
def test_9_radical_identities():
    samples = [R for R in S.finite_corpus() if R.field.p == 2 and R.dim <= 4]
    assert samples
    for R in samples:
        primes = gc.spec_enumerate(R)
        assert intersect_ideals(R, primes) == gc.nilradical(R), R
        ideals = [[]]
        for j in range(R.dim):
            x = [int(i == j) for i in range(R.dim)]
            ideals.append(gc.ideal_from_gens(R, [x]))
        for a in ideals:
            r1 = radical(R, a)
            assert radical(R, r1) == r1, (R, a)


@timed(30.0)
def test_10_oracle_concordance():
    # ring classification
    for R in S.finite_corpus():
        rc = gc.classify_ring(R)
        o = orc.oracle_ring_class(R)
        assert rc.simple == o["simple"], R
        assert rc.entire == o["entire"], R
        assert rc.reduced == o["reduced"], R
    # Hom enumeration against the graded HOM module
    for R in (S.dual_numbers(GF(2)),
              S.truncated_polynomial_algebra(GF(2), 3),
              S.group_algebra(2, 2)):
        M = regular_module(R)
        K = quotient_by_x(R)[0]
        for A, B in [(M, M), (M, K), (K, M), (K, K)]:
            H, _ = gm.graded_hom(A, B)
            deg0 = sum(1 for d in H.basis_degrees if d == R.group.zero)
            assert len(orc.enumerate_morphisms(A, B)) == 2 ** deg0
    # superfluous / essential criteria against the submodule oracle
    for n in (2, 3, 4):
        R = S.truncated_polynomial_algebra(GF(2), n)
        M = regular_module(R)
        for j in range(1, n):
            gen = [0] * n
            gen[j] = 1
            _, incl = generated_submodule(M, [gen])
            for mode in ("superfluous", "essential"):
                flag, _ = orc.oracle_small_submodule(incl, mode)
                assert flag == gm.small_submodule(incl, mode).flag, (n, j)
