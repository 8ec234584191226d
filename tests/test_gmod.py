import contextlib
import io
import pathlib
import sys
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gradex.cli as cli
import gradex.exactla as la
import gradex.gmod as gm
import gradex.gcore as gc
import gradex.gfunct as gf
import gradex.ghom as gh
import gradex.oracles as orc
from gradex.abgroups import GroupHom, Z, Zmod, ZERO_GROUP
from gradex.exactla import QQ, GF
import samples as S
from support import (adjunction_dims_check, assert_record, cokernel, dense,
                     entries, generated_submodule, image, monogeneous_by_walk,
                     reference_graded_span, reference_is_iso,
                     reference_is_minimal, reference_kernel_basis,
                     reference_minimal_generators,
                     reference_nilradical_generators, regular_module, shift,
                     solved_hom_action, solved_subspace_action, tensor)
from test_fuzz import modules as module_documents, rings as ring_documents
from test_gcore import mixed_basis, rescaled_truncated
from test_ghom import sample_modules
from test_oracles import quotient_by_power

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "bench"))
import corpus  # noqa: E402


def hkey(h):
    return {d.coords: c for d, c in h.items()}


def ideal_module(R, gen_coords):
    M = regular_module(R)
    return generated_submodule(M, [gen_coords])


def quotient_by_x(R):
    """R / <x> for a truncated polynomial algebra."""
    M = regular_module(R)
    gen = [0] * R.dim
    gen[1] = 1
    _, incl = generated_submodule(M, [gen])
    return cokernel(incl)


class TestConstruction:
    def test_grading_checked(self):
        R = S.dual_numbers()
        with pytest.raises(gc.GradingViolation):
            gm.GradedModule(R, [Z(1).zero], entries([[[1]], [[1]]]))

    def test_unit_must_act_as_identity(self):
        R = S.dual_numbers()
        with pytest.raises(gm.ModuleError):
            gm.GradedModule(R, [Z(1).zero], entries([[[0]], [[0]]]))

    def test_regular_module(self):
        R = S.dual_numbers()
        M = regular_module(R)
        assert hkey(M.hilbert()) == {(0,): 1, (1,): 1}

    def test_shift(self):
        R = S.dual_numbers()
        M = shift(regular_module(R), Z(1).element((1,)))
        assert hkey(M.hilbert()) == {(-1,): 1, (0,): 1}

    def test_direct_sum(self):
        # the action is block diagonal, M's block first, and the index
        # inclusions of M and N pass the checked constructor
        for field in (QQ, GF(3)):
            R = S.truncated_polynomial_algebra(field, 3)
            M = regular_module(R)
            N = shift(quotient_by_x(R)[0], Z(1).element((1,)))
            D, m = gm.direct_sum(M, N), M.dim
            assert hkey(D.hilbert()) == {(-1,): 1, (0,): 1, (1,): 1,
                                         (2,): 1}
            assert D.entries() == sorted(M.entries() + [
                (i, j + m, k + m, c) for i, j, k, c in N.entries()])
            eye = la.eye(field, D.dim)
            for X, idx in ((M, range(m)), (N, range(m, D.dim))):
                incl = gm.ModuleMorphism(X, D, [[row[j] for j in idx]
                                                for row in eye])
                assert incl.is_mono()


class TestGeneratedSubmodule:
    # generator coordinates are made field values where they enter
    def test_coordinate_reduced_to_zero_over_f2(self):
        sub, incl = ideal_module(S.dual_numbers(GF(2)), [0, 2])
        assert sub.dim == 0 and incl.matrix == [[], []]

    def test_coordinate_reduced_mod_3(self):
        R = S.dual_numbers(GF(3))
        sub4, incl4 = ideal_module(R, [0, 4])
        sub1, incl1 = ideal_module(R, [0, 1])
        assert sub4 == sub1 and incl4.matrix == incl1.matrix == [[0], [1]]
        assert sub4.basis_degrees == (Z(1).element((1,)),)

    def test_float_rejected(self):
        with pytest.raises(la.FieldError):
            ideal_module(S.dual_numbers(GF(2)), [0, 1.0])


class TestKernelImageCokernel:
    def test_quotient_by_x(self):
        R = S.dual_numbers()
        K, proj = quotient_by_x(R)
        assert hkey(K.hilbert()) == {(0,): 1}
        assert la.rank(R.field, proj.matrix) == K.dim
        ker, incl = gm.kernel(proj)
        assert hkey(ker.hilbert()) == {(1,): 1}

    def test_exactness_hilbert_identity(self):
        # dim of each graded piece of the source equals kernel + image
        R4 = S.truncated_polynomial_algebra(GF(2), 4)
        M = regular_module(R4)
        sub, incl = ideal_module(R4, [0, 0, 1, 0])  # <x^2>
        C, proj = cokernel(incl)
        for u in (incl, proj):
            ker, _ = gm.kernel(u)
            img, _ = image(u)
            lhs = hkey(u.source.hilbert())
            rhs = {}
            for part in (hkey(ker.hilbert()), hkey(img.hilbert())):
                for d, c in part.items():
                    rhs[d] = rhs.get(d, 0) + c
            assert lhs == rhs

    def test_cokernel_keeps_coordinates_leading_no_image_vector(self):
        # the image of the diagonal K -> K + K is spanned by e0 + e1,
        # which leads at coordinate 0: coordinate 1 represents the
        # cokernel, and the projection kills e0 + e1 and fixes e1
        R = S.dual_numbers()
        K, _ = quotient_by_x(R)
        D = gm.direct_sum(K, K)
        C, proj = cokernel(gm.ModuleMorphism(K, D, [[1], [1]]))
        reps, P, _ = D.quotient(D.graded_span([[1, 1]]))
        assert reps == [1] and proj.matrix == P
        assert C.basis_degrees == (D.basis_degrees[1],)
        assert proj([1, 1]) == [0]
        assert proj([0, 1]) == [1]

    def test_kernel_of_a_map_into_the_zero_module(self):
        # the matrix of M -> 0 has no rows, yet every column is free
        R = S.dual_numbers()
        M, Z0 = regular_module(R), gm.GradedModule(R, [], [])
        u = gm.ModuleMorphism(M, Z0, [])
        K, incl = gm.kernel(u)
        assert K.dim == 2 and incl.is_iso()
        assert not u.is_mono() and la.rank(M.field, u.matrix) == Z0.dim
        assert gm.ModuleMorphism(Z0, M, [[], []]).is_mono()

    def test_quotient_orders_coordinates_by_degree(self):
        # the regular module of Q[x]/(x^2) with its basis listed as
        # x, 1: the quotient by zero lists 1 (degree 0) before x
        R = S.dual_numbers()
        x, one = R.basis_degrees[1], R.basis_degrees[0]
        M = gm.GradedModule(R, [x, one], entries([[[1, 0], [0, 1]],
                                                  [[0, 0], [1, 0]]]))
        reps, P, action = M.quotient([])
        assert reps == [1, 0]
        assert P == [[0, 1], [1, 0]]
        C, _ = cokernel(gm.ModuleMorphism(
            gm.GradedModule(R, [], []), M,
            [[], []]))
        assert C.basis_degrees == (one, x)

    def test_tensor_projection_kills_relations(self):
        R = S.dual_numbers()
        M = regular_module(R)
        T, proj = tensor(M, M)
        n, A = M.dim, dense(M)
        for i in range(R.dim):
            for j in range(n):
                for k in range(n):
                    rel = [M.field.zero] * (n * n)
                    for j2, c in enumerate(A[i][j]):
                        rel[j2 * n + k] += c
                    for k2, c in enumerate(A[i][k]):
                        rel[j * n + k2] -= c
                    assert all(c == 0 for c in
                               la.mat_vec_mul(M.field, proj, rel))

    def test_image_of_composite(self):
        R = S.truncated_polynomial_algebra(GF(2), 3)
        M = regular_module(R)
        sub, incl = ideal_module(R, [0, 1, 0])
        img, _ = image(incl)
        assert hkey(img.hilbert()) == {(1,): 1, (2,): 1}


def coordinate_modules():
    """test_ghom.sample_modules(), and over each ring of the finite
    sample corpus and K[X]/(X^3) or Q[X]/(X^4) in a basis with
    cancelling products its regular module and a shift of it."""
    out = sample_modules()
    for R in S.finite_corpus() + [mixed_basis(GF(3)), mixed_basis(QQ),
                                  rescaled_truncated(4)]:
        M = regular_module(R)
        out += [M, shift(M, R.basis_degrees[-1])]
    return out


class TestCoordinatesAreRead:
    # kernel, image and generated_submodule read coordinates at the
    # leads of a graded_span basis, graded_hom at the free slots of its
    # maps: they give the entries that solving for them gives

    def test_submodules_match_the_solved_action(self):
        for M in coordinate_modules():
            eye = la.eye(M.field, M.dim)
            covers = [gh.minimal_cover(M),
                      gm.free_cover_from_generators(M, eye),
                      gm.free_cover_from_generators(M, eye[-1:])]
            subs = ([gm.kernel(p) for p in covers]
                    + [image(p) for p in covers]
                    + [generated_submodule(M, [e]) for e in eye])
            for sub, incl in subs:
                basis = [list(col) for col in zip(*incl.matrix)]
                assert sub.entries() == solved_subspace_action(
                    incl.target, basis), M
                assert list(sub.basis_degrees) == [
                    incl.target.vec_degree(b) for b in basis], M

    def test_hom_matches_the_solved_action(self):
        for M in coordinate_modules():
            F = gh.minimal_cover(M).source
            for X, Y in ((M, M), (F, M), (M, F)):
                H, maps = gm.graded_hom(X, Y)
                assert H.entries() == solved_hom_action(Y, maps), M


class TestHomAndTensor:
    def test_hom_examples(self):
        R = S.dual_numbers()
        M = regular_module(R)
        K, _ = quotient_by_x(R)
        H, _ = gm.graded_hom(K, M)
        assert hkey(H.hilbert()) == {(1,): 1}  # K -> M lands on the socle
        H, _ = gm.graded_hom(M, K)
        assert hkey(H.hilbert()) == {(0,): 1}
        H, _ = gm.graded_hom(M, M)
        assert hkey(H.hilbert()) == {(0,): 1, (1,): 1}

    def test_tensor_examples(self):
        R = S.dual_numbers()
        M = regular_module(R)
        K, _ = quotient_by_x(R)
        T, _ = tensor(K, K)
        assert hkey(T.hilbert()) == {(0,): 1}
        T, _ = tensor(M, K)
        assert hkey(T.hilbert()) == {(0,): 1}
        T, _ = tensor(M, M)
        assert hkey(T.hilbert()) == {(0,): 1, (1,): 1}

    def test_tensor_with_shift(self):
        R = S.dual_numbers(GF(3))
        M = regular_module(R)
        g = Z(1).element((1,))
        T, _ = tensor(shift(M, g), M)
        assert hkey(T.hilbert()) == {(-1,): 1, (0,): 1}

    def test_currying_adjunction(self):
        R = S.dual_numbers(GF(2))
        M = regular_module(R)
        K, _ = quotient_by_x(R)
        for triple in [(M, K, M), (K, K, K), (M, M, K),
                       (shift(M, Z(1).element((1,))), K, M)]:
            rep = adjunction_dims_check(*triple)
            assert rep["ok"], triple


class TestFreeness:
    def test_regular_is_free(self):
        rep = gm.freeness(regular_module(S.dual_numbers()))
        assert rep.free is True and rep.rank == 1
        assert rep.witness.is_iso()

    def test_quotient_not_free(self):
        R = S.dual_numbers()
        K, _ = quotient_by_x(R)
        rep = gm.freeness(K)
        assert rep.free is False
        assert "shift multiset" in rep.method

    def test_sum_of_shifts_free_rank_two(self):
        R = S.dual_numbers()
        M = regular_module(R)
        D = gm.direct_sum(M, shift(M, Z(1).element((1,))))
        rep = gm.freeness(D)
        assert rep.free is True and rep.rank == 2
        assert rep.witness.is_iso()

    def test_everything_free_over_simple_ring(self):
        R = S.gaussian_rationals()
        M = regular_module(R)
        D = gm.direct_sum(M, M)
        for mod in (M, D):
            rep = gm.freeness(mod)
            assert rep.free is True and rep.method == "greedy basis"
            assert rep.witness.is_iso()

    def test_simple_ring_witness_is_minimal_cover(self):
        R = S.gaussian_rationals()
        M = regular_module(R)
        D = gm.direct_sum(M, shift(M, R.basis_degrees[1]))
        rep = gm.freeness(D)
        gens = gm.minimal_generators(D)
        assert rep.rank == len(gens) == 2
        assert rep.witness.matrix == \
            gm.free_cover_from_generators(D, gens).matrix

    def test_not_free_over_product_ring(self):
        R = S.product_field_algebra()
        # the first factor as a module: e0 acts as 1, e1 acts as 0
        M = gm.GradedModule(R, [Z(1).zero], entries([[[1]], [[0]]]))
        rep = gm.freeness(M)
        assert rep.free is False

    def test_free_record_leaves_equality_alone(self):
        # free_degrees records how a module was built; F equals the
        # regular module it copies, and a direct sum keeps the record only
        # when both summands have one
        R = S.dual_numbers(GF(2))
        F, M = gm.free_module(R, [R.group.zero]), regular_module(R)
        assert F.free_degrees == (R.group.zero,) and M.free_degrees is None
        assert F == M and hash(F) == hash(M)
        assert gm.direct_sum(F, F).free_degrees == (R.group.zero,) * 2
        assert gm.direct_sum(F, M).free_degrees is None

    def test_rank_invariant_under_coarsening(self):
        R = S.dual_numbers(GF(2))
        F = gm.free_module(R, [Z(1).zero, Z(1).element((1,))])
        fine = gm.freeness(F)
        coarse = gm.freeness(gm.coarsen_module(F, S.psi_Z_to_Zmod(2)))
        assert fine.free is True and coarse.free is True
        assert fine.rank == coarse.rank == 2

    def test_free_spec_records_shifts(self):
        R = S.dual_numbers()
        g = Z(1).element((1,))
        F = gm.free_module(R, [g])
        rep = gm.freeness(F)
        assert list(rep.degrees) == [g]


def finite_rings():
    """The finite sample corpus, its coarsenings, and F_2[Z/4], F_3[Z/4]
    and F_2[Z/6]."""
    return (S.finite_corpus()
            + [gf.coarsen(R, psi) for R, psi in S.coarsening_pairs()]
            + [S.group_algebra(2, 4), S.group_algebra(3, 4),
               S.group_algebra(2, 6)])


def monogeneity_family(R):
    """The regular module M, a shift, sums, the submodule and quotient
    by each basis vector, the sum of M with each quotient, and the duals
    of all of these."""
    M = regular_module(R)
    g = R.group.element((1,) + (0,) * (R.group.dim - 1)) if R.group.dim \
        else R.group.zero
    Ms = shift(M, g)
    mods = [M, Ms, gm.direct_sum(M, M), gm.direct_sum(M, Ms)]
    for k in range(R.dim):
        Q = quotient_by_power(R, k)[0]
        mods += [generated_submodule(
            M, [la.unit_vector(R.field, R.dim, k)])[0], Q,
            gm.direct_sum(M, Q)]
    return mods + [gh.dual(X) for X in mods]


def factor_sum(g):
    """e_0 R + e_1 R(-g) over R = Q x Q, the second summand moved to
    degree g: R itself when g = 0."""
    R = S.product_field_algebra(QQ)
    M = regular_module(R)
    e0, e1 = (generated_submodule(M, [v])[0] for v in ([1, 0], [0, 1]))
    return gm.direct_sum(e0, shift(e1, -g))


class TestMonogeneity:
    def test_examples(self):
        R = S.dual_numbers(GF(2))
        M = regular_module(R)
        assert gm.is_monogeneous(M) is True
        D = gm.direct_sum(M, M)
        assert gm.is_monogeneous(D) is False
        K, _ = quotient_by_x(R)
        assert gm.is_monogeneous(K) is True
        # two generators in distinct degrees still need two generators
        F = gm.free_module(R, [Z(1).zero, Z(1).element((1,))])
        assert gm.is_monogeneous(F) is False

    def test_rational_case(self):
        R = S.dual_numbers()
        assert gm.is_monogeneous(regular_module(R)) is True
        D = gm.direct_sum(regular_module(R), regular_module(R))
        assert gm.is_monogeneous(D) is False

    def test_four_copies_of_q_need_four_generators(self):
        # one component of dimension 4, on which R_0 = Q acts through an
        # algebra of dimension 1
        F = gm.free_module(S.trivial_algebra(), [ZERO_GROUP.zero] * 4)
        assert gm.is_monogeneous(F) is False

    @pytest.mark.parametrize("ring", range(len(finite_rings())))
    def test_agrees_with_the_walk(self, ring):
        for M in monogeneity_family(finite_rings()[ring]):
            assert gm.is_monogeneous(M) is monogeneous_by_walk(M), M

    @pytest.mark.parametrize("build, expected", [
        (lambda: regular_module(S.product_field_algebra(QQ)), True),
        (lambda: factor_sum(Z(1).zero), True),
        (lambda: factor_sum(Z(1).element((1,))), False),
        (lambda: gm.direct_sum(*[factor_sum(Z(1).zero)] * 2), False),
        (lambda: gm.free_module(S.truncated_polynomial_algebra(QQ, 4),
                                [Z(1).element((s,)) for s in (0, 1, 2)]),
         False),
        (lambda: quotient_by_power(S.truncated_polynomial_algebra(QQ, 4),
                                   2)[0], True),
        (lambda: regular_module(S.gaussian_rationals()), True),
        (lambda: gm.free_module(S.gaussian_rationals(),
                                [Zmod(2).zero, Zmod(2).element((1,))]),
         False),
        (lambda: regular_module(gf.coarsen(S.gaussian_rationals(),
                                              S.psi_Zmod_to_zero(2))), True),
        (lambda: gm.free_module(gf.coarsen(S.gaussian_rationals(),
                                           S.psi_Zmod_to_zero(2)),
                                [ZERO_GROUP.zero] * 2), False),
    ], ids=["QxQ", "QxQ-as-factors", "QxQ-factors-apart", "QxQ-squared",
            "Qx4-free-012", "Qx4-mod-x2", "Q[i]", "Q[i]-free-01",
            "Q[i]-coarse", "Q[i]-coarse-free-00"])
    def test_over_q(self, build, expected):
        # Q x Q is not graded-local: a generator of e_0 R + e_1 R has a
        # part in each block, so it exists only when both lie in one degree
        assert gm.is_monogeneous(build()) is expected


def sample_rings():
    """Every finite ring of ``finite_rings`` and the samples over Q."""
    return finite_rings() + [
        S.trivial_algebra(), S.truncated_polynomial_algebra(QQ, 4),
        S.dual_numbers(), S.field_extension_algebra(),
        S.gaussian_rationals(), S.product_field_algebra(QQ),
        gf.coarsen(S.gaussian_rationals(), S.psi_Zmod_to_zero(2))]


class TestMinimalGenerators:
    """The pivots of one elimination choose the generators and the
    nilradical's lifts that membership solves and closures chose."""

    @pytest.mark.parametrize("ring", range(len(sample_rings())))
    def test_agree_with_the_reference_on_the_samples(self, ring):
        R = sample_rings()[ring]
        assert gc.nilradical_generators(R) == \
            reference_nilradical_generators(R), R
        for M in monogeneity_family(R):
            assert gm.minimal_generators(M) == \
                reference_minimal_generators(M), M

    @pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
    def test_a_product_of_fields_keeps_the_greedy_choice(self, field):
        # (1, 1) alone generates K x K, but the greedy choice modulo
        # nil(R) M = 0 takes both idempotents, and resolve prints the
        # Betti numbers 2, 2, 2 of that cover
        M = regular_module(S.product_field_algebra(field))
        gens = gm.minimal_generators(M)
        assert gens == reference_minimal_generators(M) == \
            [la.unit_vector(field, 2, j) for j in range(2)]
        assert gh.resolution(M, 2).betti() == [{(0,): 2}] * 3

    @given(module_documents())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_agree_with_the_reference_on_drawn_modules(self, doc):
        M = cli.module_from_json(doc)
        assert gm.minimal_generators(M) == reference_minimal_generators(M)

    def test_agree_with_the_reference_on_the_corpora(self, tmp_path,
                                                     monkeypatch):
        # every module the corpus documents cover, kernels and duals
        # included
        seen, minimal = [], gm.minimal_generators

        def checked(M):
            gens = minimal(M)
            assert gens == reference_minimal_generators(M), M
            seen.append(M)
            return gens
        monkeypatch.setattr(gm, "minimal_generators", checked)
        monkeypatch.setattr(gh, "minimal_generators", checked)
        for workload, seed in product(sorted(corpus.WORKLOADS),
                                      (corpus.DEFAULT_SEED, 7, 1001)):
            for doc in corpus.corpus(workload, seed):
                d = tmp_path / f"{seed}-{doc['id']}"
                d.mkdir()
                for name, text in doc["files"].items():
                    (d / name).write_text(text)
                monkeypatch.chdir(d)
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.run(doc["argv"]) == 0, doc["id"]
        assert seen


@st.composite
def degree_zero_maps(draw):
    """A module morphism M -> N, M and N drawn over one drawn ring (K x K
    and F_p among them) and N = M half the time: a drawn combination of
    the degree-0 basis maps of HOM(M, N), with coefficients in -1..2, so
    that many are singular."""
    ring = draw(ring_documents())
    M = cli.module_from_json(draw(module_documents(ring)))
    N = M if draw(st.booleans()) else \
        cli.module_from_json(draw(module_documents(ring)))
    f, (H, maps) = M.field, gm.graded_hom(M, N)
    F = la.zeros(f, N.dim, M.dim)
    for d, G in zip(H.basis_degrees, maps):
        if d == M.group.zero:
            c = f.of(draw(st.integers(-1, 2)))
            F = [[f.add(a, f.mul(c, b)) for a, b in zip(row, grow)]
                 for row, grow in zip(F, G)]
    return gm.ModuleMorphism(M, N, F)


def handmade_maps():
    """Degree-0 maps the drawn ones may miss, over Q and over F_3: an
    idempotent of K x K (a non-isomorphism of equal dimension), the
    cover of K[x]/(x^2) onto its residue field (a degree only in the
    source) and the inclusion of its radical (a degree only in the
    target); last, an automorphism of F_3[Z/2] graded by Z/2."""
    maps = []
    for field in (QQ, GF(3)):
        P = regular_module(S.product_field_algebra(field))
        maps.append(gm.ModuleMorphism(P, P, [[1, 0], [0, 0]]))
        M = regular_module(S.dual_numbers(field))
        K, cover = gm._quotient_module(M, gm.radical_submodule(M))
        maps.append(gm.ModuleMorphism(M, K, cover))
        maps.append(gm.kernel(maps[-1])[1])
    G = regular_module(S.group_algebra(3, 2))
    return maps + [gm.ModuleMorphism(G, G, [[2, 0], [0, 2]])]


class TestPerComponentSolvesAgainstDense:
    """Spans, kernels and the mono, iso and minimality tests, solved per
    component or per generator block, give the bases and booleans of the
    dense references in ``support``."""

    @staticmethod
    def assert_agree(u):
        basis = reference_kernel_basis(u)
        assert [list(c) for c in zip(*gm.kernel(u)[1].matrix)] == basis
        assert u.is_mono() is (not basis)
        assert u.is_iso() is reference_is_iso(u)

    @given(degree_zero_maps())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_kernels_and_isomorphisms_of_drawn_maps(self, u):
        self.assert_agree(u)

    @pytest.mark.parametrize("case", range(len(handmade_maps())))
    def test_kernels_and_isomorphisms_of_handmade_maps(self, case):
        u = handmade_maps()[case]
        self.assert_agree(u)
        assert u.is_iso() is (case == len(handmade_maps()) - 1)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_graded_spans(self, data):
        M = cli.module_from_json(data.draw(module_documents()))
        vecs = [M.element(v) for v in data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=M.dim, max_size=M.dim),
            max_size=6))]
        assert M.graded_span(iter(vecs)) == reference_graded_span(M, vecs)
        assert M.graded_span(vecs) == M.graded_span(M.graded_span(vecs))

    @given(module_documents(), st.booleans())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_minimality(self, doc, minimal):
        res = gh.resolution(cli.module_from_json(doc), 2, minimal)
        assert res.is_minimal() is reference_is_minimal(res)


class TestSmallSubmodules:
    def test_radical_and_socle(self):
        R = S.truncated_polynomial_algebra(GF(2), 4)
        M = regular_module(R)
        rad = gm.radical_submodule(M)
        soc = gm.socle_submodule(M)
        assert len(rad) == 3   # <x> = span(x, x^2, x^3)
        assert len(soc) == 1   # span(x^3)

    def test_superfluous_and_essential(self):
        R = S.truncated_polynomial_algebra(GF(2), 4)
        M = regular_module(R)
        sub, incl = ideal_module(R, [0, 1, 0, 0])
        rep = gm.small_submodule(incl, "superfluous")
        assert rep.flag is True
        soc, sincl = ideal_module(R, [0, 0, 0, 1])
        rep = gm.small_submodule(sincl, "essential")
        assert rep.flag is True
        # the identity is never superfluous on a nonzero module
        ident = gm.ModuleMorphism(M, M, la.eye(M.field, M.dim))
        rep = gm.small_submodule(ident, "superfluous")
        assert rep.flag is False
        # the zero submodule is never essential when the socle is nonzero
        Zm = gm.GradedModule(R, [], [])
        zmap = gm.ModuleMorphism(Zm, M, [[] for _ in range(M.dim)])
        rep = gm.small_submodule(zmap, "essential")
        assert rep.flag is False

    def test_concordance_with_oracle(self):
        R = S.truncated_polynomial_algebra(GF(2), 3)
        M = regular_module(R)
        for gen in ([0, 1, 0], [0, 0, 1]):
            sub, incl = ideal_module(R, gen)
            for mode in ("superfluous", "essential"):
                rep = gm.small_submodule(incl, mode)
                flag, _ = orc.oracle_small_submodule(incl, mode)
                assert rep.flag == flag, (gen, mode)


class TestPrincipalPresentations:
    def test_single_generator(self):
        g = Z(1).element((1,))
        P = gm.PrincipalPresentation(QQ, g, [Z(1).zero], [[(1, 2)]])
        summands = gm.principal_decompose(P)
        assert [(tuple(d.coords), k) for d, k in summands] == [((0,), 2)]

    def test_two_independent_generators(self):
        g = Z(1).element((1,))
        P = gm.PrincipalPresentation(
            QQ, g, [Z(1).zero, Z(1).zero],
            [[(1, 1), (0, 0)], [(0, 0), (1, 1)]])
        summands = gm.principal_decompose(P)
        assert len(summands) == 2

    def test_dependent_generators_drop_rank(self):
        g = Z(1).element((1,))
        # second column is X times the first: rank stays 1
        P = gm.PrincipalPresentation(
            QQ, g, [Z(1).zero], [[(1, 1)], [(1, 2)]])
        summands = gm.principal_decompose(P)
        assert [(tuple(d.coords), k) for d, k in summands] == [((0,), 1)]

    def test_mixing_columns(self):
        g = Z(1).element((1,))
        P = gm.PrincipalPresentation(
            QQ, g, [Z(1).zero, Z(1).zero],
            [[(1, 1), (1, 1)], [(0, 0), (1, 2)]])
        summands = gm.principal_decompose(P)
        assert len(summands) == 2
        assert all(k >= 1 for _, k in summands)

    def test_pivot_row_and_column_both_cleared(self):
        # ambient degrees 0, 1, 0 and columns u = (X^2, X, 0),
        # v = (X^2, 2X, 0), w = (0, 0, X^3).  The pivot is X at
        # (row 1, col 0); v - 2u = (-X^2, 0, 0) clears its row, and the
        # ambient basis vector e_1' = e_1 + X e_0 its column, since
        # u = X e_1'.  The submodule is <X^2> e_0 + <X> e_1' + <X^3> e_2.
        Zg = Z(1)
        P = gm.PrincipalPresentation(
            QQ, Zg.element((1,)), [Zg.zero, Zg.element((1,)), Zg.zero],
            [[(1, 2), (1, 1), (0, 0)], [(1, 2), (2, 1), (0, 0)],
             [(0, 0), (0, 0), (1, 3)]])
        summands = gm.principal_decompose(P)
        assert [(tuple(d.coords), k) for d, k in summands] == \
            [((0,), 2), ((0,), 3), ((1,), 1)]

    def test_homogeneity_enforced(self):
        g = Z(1).element((1,))
        with pytest.raises(gm.ModuleError):
            gm.PrincipalPresentation(
                QQ, g, [Z(1).zero, Z(1).element((1,))],
                [[(1, 1), (1, 1)]])

    def test_finite_order_rejected(self):
        with pytest.raises(gm.ModuleError):
            gm.PrincipalPresentation(
                QQ, Zmod(2).element((1,)), [Zmod(2).zero], [[(1, 1)]])

    def test_suite_with_coarsening(self):
        g = Z(1).element((1,))
        P = gm.PrincipalPresentation(
            QQ, g, [Z(1).zero, Z(1).zero],
            [[(1, 2), (0, 0)], [(0, 0), (1, 3)]])
        rep = gm.principal_suite(P, S.psi_Z_to_zero())
        assert rep["free"] is True and rep["rank"] == 2
        assert rep["rank_bound_ok"] is True
        assert rep["coarsened_free"] is True
        assert rep["coarsened_rank"] == 2

    def test_superfluous_counterexample(self):
        rep = gm.principal_superfluous_report(S.psi_Z_to_zero())
        assert rep["graded_superfluous"] is True
        assert rep["coarsened_superfluous"] is False
        assert rep["witness"] == ["1", "1"]  # the polynomial X + 1
        assert rep["psi_kills_variable_degree"] is True

    def test_superfluous_kept_by_identity_coarsening(self):
        # psi = id keeps deg X of infinite order: nothing is coarsened
        rep = gm.principal_superfluous_report(GroupHom(Z(1), Z(1), [[1]]))
        assert rep["coarsened_superfluous"] is True
        assert rep["witness"] is None

    def test_superfluous_witness_has_order_of_variable_degree(self):
        # Z -> Z/2: deg X has order 2, so X^2 + 1 is homogeneous of
        # degree 0 (X + 1 is not homogeneous there)
        rep = gm.principal_superfluous_report(S.psi_Z_to_Zmod(2))
        assert rep["coarsened_superfluous"] is False
        assert rep["witness"] == ["1", "0", "1"]
        assert rep["psi_kills_variable_degree"] is False

    def test_reflection_direction(self):
        # a coarsened-superfluous inclusion is graded-superfluous: check
        # on a finite model where both sides are decidable
        R = S.truncated_polynomial_algebra(GF(2), 4)
        M = regular_module(R)
        psi = S.psi_Z_to_Zmod(2)
        for gen in ([0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]):
            sub, incl = ideal_module(R, gen)
            coarse = gm.small_submodule(gf.coarsen(incl, psi),
                                        "superfluous")
            fine = gm.small_submodule(incl, "superfluous")
            if coarse.flag:
                assert fine.flag


class TestHilbertCoarsen:
    def test_pushforward(self):
        R = S.truncated_polynomial_algebra(GF(2), 4)
        M = regular_module(R)
        hc = gm.coarsen_module(M, S.psi_Z_to_Zmod(2)).hilbert()
        assert hkey(hc) == {(0,): 2, (1,): 2}
        assert hkey(gm.coarsen_module(M, S.psi_Z_to_zero()).hilbert()) \
            == {(): 4}


class TestRecords:
    """Equality, hashing, frozen-ness, defaults and repr of the records."""

    def test_freeness_report(self):
        a = gm.FreenessReport(True, None, 1, "m")
        assert_record(a, gm.FreenessReport(free=True, degrees=None, rank=1,
                                           method="m", status="decided",
                                           witness=None),
                      gm.FreenessReport(True, None, 1, "m", "undecided"),
                      (True, None, 1, "m", "decided", None),
                      gm.SmallReport(True, None, 1, "m"), frozen=False)
        assert a.status == "decided" and a.witness is None
        assert repr(a) == ("FreenessReport(free=True, degrees=None, rank=1, "
                           "method='m', status='decided', witness=None)")

    def test_small_report(self):
        a = gm.SmallReport(True, "superfluous", "m")
        assert_record(a, gm.SmallReport(flag=True, mode="superfluous",
                                        method="m", witness=None),
                      gm.SmallReport(False, "superfluous", "m"),
                      (True, "superfluous", "m", None),
                      gm.FreenessReport(True, "superfluous", "m", None),
                      frozen=False)
        assert a.witness is None
        assert repr(a) == ("SmallReport(flag=True, mode='superfluous', "
                           "method='m', witness=None)")

    def test_principal_presentation(self):
        X, zero = Z(1).element((1,)), Z(1).zero
        fields = (QQ, X, [zero], [[(1, 2)]])
        a = gm.PrincipalPresentation(*fields)
        assert_record(a, gm.PrincipalPresentation(
            field=QQ, var_degree=X, ambient_degrees=[zero],
            gens=[[(1, 2)]]), gm.PrincipalPresentation(QQ, X, [zero], []),
            fields, gm.SmallReport(*fields), frozen=False)
        assert repr(a) == ("PrincipalPresentation(field=Q, var_degree=(1,), "
                           "ambient_degrees=[(0,)], gens=[[(1, 2)]])")
        for bad in ((QQ, zero, [zero], []), (QQ, X, [zero], [[]]),
                    (QQ, X, [zero, zero], [[(1, 0), (1, 1)]])):
            with pytest.raises(gm.ModuleError):
                gm.PrincipalPresentation(*bad)
