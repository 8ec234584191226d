import sys
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import gradex.exactla as la
import gradex.ghom as gh
import gradex.gmod as gm
import gradex.gcore as gc
from gradex.abgroups import Z, Zmod
from gradex.exactla import QQ, GF
from gradex.gfunct import coarsen
import samples as S
from support import (assert_record, cogenerator_faithfulness_check, cokernel,
                     dual_morphism, duality_involution_check, entries,
                     generated_submodule, injective_dimension_direct,
                     is_injective, lambek_check, lambek_dimension_check,
                     mono_epi_duality_check, regular_module, shift)


def hkey(h):
    return {d.coords: c for d, c in h.items()}


def quotient_by_x(R):
    M = regular_module(R)
    gen = [0] * R.dim
    gen[1] = 1
    _, incl = generated_submodule(M, [gen])
    return cokernel(incl)


def sample_modules():
    out = []
    for R in (S.dual_numbers(GF(2)), S.truncated_polynomial_algebra(GF(2), 3),
              S.group_algebra(2, 2)):
        M = regular_module(R)
        out.append(M)
        out.append(quotient_by_x(R)[0] if R.dim > 1 else M)
        out.append(shift(M, R.group.element((1,) + (0,) * (R.group.dim - 1))))
    return out


def quotient_by_x2_of_x3():
    """F2[x]/(x^3) modulo <x^2>."""
    M = regular_module(S.truncated_polynomial_algebra(GF(2), 3))
    _, incl = generated_submodule(M, [[0, 0, 1]])
    return cokernel(incl)[0]


def cyclic_quotients(R):
    """The regular module of R, each R/(b_i) for a basis vector b_i of R
    (R/(x^k) over K[x]/(x^n)), and the first syzygy of each nonzero
    one."""
    M = regular_module(R)
    out = [M]
    for i in range(R.dim):
        _, incl = generated_submodule(M, [la.unit_vector(R.field, R.dim,
                                                            i)])
        Q = cokernel(incl)[0]
        out.append(Q)
        if Q.dim:
            out.append(gm.kernel(gh.minimal_cover(Q))[0])
    return out


def reference_dimension(M, kind, cutoff):
    """Step with kernel(minimal_cover(K)) and stop at the first
    projective K; injective through the dual."""
    K = gh.dual(M) if kind == "injective" else M
    for n in range(cutoff + 1):
        if gh.is_projective(K):
            return n
        K, _ = gm.kernel(gh.minimal_cover(K))
    return None


class TestDuality:
    def test_dual_of_regular(self):
        R = S.dual_numbers()
        D = gh.dual(regular_module(R))
        assert hkey(D.hilbert()) == {(-1,): 1, (0,): 1}

    def test_involution(self):
        for M in sample_modules():
            assert duality_involution_check(M)

    def test_mono_epi_duality(self):
        R = S.truncated_polynomial_algebra(GF(2), 3)
        M = regular_module(R)
        _, incl = generated_submodule(M, [[0, 1, 0]])
        assert mono_epi_duality_check(incl)
        K, proj = quotient_by_x(R)
        assert mono_epi_duality_check(proj)

    def test_dual_morphism_transposes(self):
        R = S.dual_numbers(GF(2))
        M = regular_module(R)
        u = gm.ModuleMorphism(M, M, la.eye(M.field, M.dim))
        du = dual_morphism(u)
        assert du.matrix == u.matrix  # identity transposes to itself


class TestInjectivesAndProjectives:
    def test_regular_module_flags(self):
        R = S.dual_numbers()
        M = regular_module(R)
        assert gh.is_projective(M) is True
        # a finite-dimensional graded algebra like K[X]/(X^2) is
        # self-injective up to shift; here dual(R) = R(1), so R itself
        # is injective
        assert is_injective(M) is True

    def test_quotient_flags(self):
        R = S.dual_numbers()
        K, _ = quotient_by_x(R)
        assert gh.is_projective(K) is False
        assert is_injective(K) is False

    def test_everything_projective_over_simple_ring(self):
        R = S.gaussian_rationals()
        M = regular_module(R)
        assert gh.is_projective(M) and is_injective(M)

    def test_tor1_criterion_matches_split_oracle(self):
        # is_projective asks whether Tor_1(M, R/nil R) vanishes, read off
        # the minimal cover (or any other); the oracle asks whether the
        # identity of M lifts through its minimal cover.  The coarse
        # group algebras have several blocks, each with nilpotents; Q x Q
        # has projectives that are not free.
        rings = [coarsen(S.group_algebra(p, n), S.psi_Zmod_to_zero(n))
                 for p, n in ((2, 6), (3, 6), (2, 12))]
        modules = list(sample_modules()) + [
            M for pair in module_pairs() for M in pair] + [
            M for R in rings + [S.product_field_algebra(QQ)]
            for M in cyclic_quotients(R)]
        modules = list(dict.fromkeys(modules + [
            X for M in modules
            for X in (gh.dual(M), gm.kernel(gh.minimal_cover(M))[0])]))
        answers = set()
        for M in modules:
            ident = gm.ModuleMorphism(M, M, la.eye(M.field, M.dim))
            split = reference_lift(gh.minimal_cover(M), ident) is not None
            assert gh.is_projective(M) == split, M
            full = gm.free_cover_from_generators(M, ident.matrix)
            assert gh._tor1_vanishes(full) == split, M
            answers.add(split)
        assert answers == {True, False}

    def test_lambek_on_corpus(self):
        for M in sample_modules():
            assert lambek_check(M), M

    def test_cogenerator_faithful(self):
        for M in sample_modules():
            assert cogenerator_faithfulness_check(M), M


def reference_lift(p, v):
    """Lift v through p from the degree-0 maps of the graded HOM module:
    their composites with p, then one solve for the coefficients."""
    f = p.target.field
    H, maps = gm.graded_hom(v.source, p.source)
    deg0 = [maps[t] for t in range(H.dim)
            if H.basis_degrees[t] == H.group.zero]
    composites = [la.mat_mul(f, p.matrix, h) for h in deg0]
    rows = [[c[k][j] for c in composites]
            for k in range(v.target.dim) for j in range(v.source.dim)]
    rhs = [v.matrix[k][j]
           for k in range(v.target.dim) for j in range(v.source.dim)]
    sol, = la.solve_linear(f, rows, [rhs])
    if sol is None:
        return None
    t = la.zeros(f, p.source.dim, v.source.dim)
    for c, h in zip(sol, deg0):
        for k in range(p.source.dim):
            for j in range(v.source.dim):
                t[k][j] = f.add(t[k][j], f.mul(c, h[k][j]))
    return t


def free_lift_cases(M):
    """(p, v) pairs with free sources over M: its minimal and full covers
    lifted through each other, and both through the cover of the
    submodule generated by the last basis vector of M, which is onto M
    only when that vector generates M."""
    eye = la.eye(M.field, M.dim)
    small = gh.minimal_cover(M)
    full = gm.free_cover_from_generators(M, eye)
    part = gm.free_cover_from_generators(M, eye[-1:])
    return [(small, full), (full, small), (part, small), (part, full)]


def padded_lift_cases(M):
    """The padded covers that schanuel_glue builds at its second step from
    the minimal and the full resolution of M, lifted through each other,
    and the padded cover of the minimal side lifted through a cover of
    the submodule generated by its target's last basis vector."""
    f = M.field
    res_min = gh.resolution(M, cutoff=1)
    res_big = gh.resolution(M, cutoff=1, minimal=False)
    if res_min.length < 2 or res_big.length < 2:
        return []
    theta = gh._schanuel_base(M, res_min.covers[0], res_min.incls[0],
                              res_big.covers[0], res_big.incls[0])
    lhs, rhs = theta.source, theta.target
    augA, _ = gh._pad(res_min.covers[1], res_min.incls[1],
                      res_big.covers[0].source, lhs)
    augB, _ = gh._pad(res_big.covers[1], res_big.incls[1],
                      res_min.covers[0].source, rhs)
    cols = la.solve_linear(f, theta.matrix, [
        [row[j] for row in augB.matrix] for j in range(augB.source.dim)])
    augB = gm.ModuleMorphism._derived(augB.source, lhs, [
        [c[k] for c in cols] for k in range(lhs.dim)])
    part = gm.free_cover_from_generators(lhs, la.eye(f, lhs.dim)[-1:])
    return [(augA, augB), (augB, augA), (part, augA)]


def assert_lift(p, v):
    """lift_through_epi(p, v) exists exactly when reference_lift finds a
    lift; when it does, it passes the checked constructor and p o t = v.
    Returns whether it exists."""
    t = gh.lift_through_epi(p, v)
    assert (t is None) == (reference_lift(p, v) is None)
    if t is not None:
        gm.ModuleMorphism(t.source, t.target, t.matrix)
        assert p.compose(t).matrix == v.matrix
    return t is not None


@lru_cache(maxsize=None)
def lift_cases():
    """free_lift_cases over the modules of module_pairs() and the kernels
    of their minimal and full covers, and padded_lift_cases over the
    modules of module_pairs()."""
    modules = list(dict.fromkeys(M for pair in module_pairs() for M in pair))
    cases = []
    for M in modules:
        eye = la.eye(M.field, M.dim)
        for cover in (gh.minimal_cover(M),
                      gm.free_cover_from_generators(M, eye)):
            cases += free_lift_cases(gm.kernel(cover)[0])
        cases += free_lift_cases(M) + padded_lift_cases(M)
    return cases


class TestLifts:
    def test_matches_reference(self):
        answers = set()
        for M in sample_modules():
            K = gm.kernel(gh.minimal_cover(M))[0]
            for p, v in (free_lift_cases(M) + free_lift_cases(K)
                         + padded_lift_cases(M)):
                answers.add(assert_lift(p, v))
        assert answers == {True, False}  # onto and not onto

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_generator_images_lift(self, data):
        assert_lift(*data.draw(st.sampled_from(lift_cases())))

    def test_source_must_be_free(self):
        M = quotient_by_x(S.dual_numbers(GF(2)))[0]
        p = gh.minimal_cover(M)
        with pytest.raises(gm.ModuleError, match="free source"):
            gh.lift_through_epi(p, gm.ModuleMorphism(M, M, [[1]]))


def reference_hom_equations(M, N, g):
    """The rows of F A_i = B_i F for every basis vector x_i of R, each
    written by scanning every slot."""
    R, f = M.algebra, M.field
    slots = [(k, j) for k in range(N.dim) for j in range(M.dim)
             if N.basis_degrees[k] == M.basis_degrees[j] + g]
    rows = []
    for i in range(R.dim):
        A, B = M.action_matrix(i), N.action_matrix(i)
        for k in range(N.dim):
            for j in range(M.dim):
                row = [f.zero] * len(slots)
                for s, (k2, j2) in enumerate(slots):
                    if k2 == k:
                        row[s] = f.add(row[s], A[j2][j])
                    if j2 == j:
                        row[s] = f.sub(row[s], B[k][k2])
                if any(row):
                    rows.append(row)
    return slots, rows


@lru_cache(maxsize=None)
def module_pairs():
    """Ordered pairs of modules over one ring: over each sample ring R
    (finite_corpus() and a few rings over Q), the cyclic quotients of R,
    their first syzygies and a shift of R; and the pairs of
    sample_modules() over a common ring."""
    rings = S.finite_corpus() + [
        S.truncated_polynomial_algebra(QQ, 4), S.dual_numbers(QQ),
        S.gaussian_rationals(), S.product_field_algebra(QQ, Z(1))]
    pools = []
    for R in rings:
        M = regular_module(R)
        pools.append(cyclic_quotients(R) + [shift(M, R.basis_degrees[-1])])
    samples = sample_modules()
    pools += [samples[i:i + 3] for i in range(0, len(samples), 3)]
    return [(M, N) for pool in pools for M in pool for N in pool]


class TestHomEquationsOverGenerators:
    """The rows of _hom_equations over a generating set of R have the
    kernel of the rows over every basis vector of R, so the canonical
    answers of graded_hom are those of the full rows."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_kernel_and_lift(self, data):
        M, N = data.draw(st.sampled_from(module_pairs()))
        f, zero = M.field, M.group.zero
        shifts = sorted({(b - a).coords for a in M.basis_degrees
                         for b in N.basis_degrees}) or [zero.coords]
        g = M.group.element(data.draw(st.sampled_from(shifts)))
        slots, rows = gm._hom_equations(M, N, g)
        ref_slots, ref_rows = reference_hom_equations(M, N, g)
        assert slots == ref_slots
        assert len(rows) <= len(ref_rows)
        assert la.kernel_basis(f, rows, len(slots)) == \
            la.kernel_basis(f, ref_rows, len(slots))
        # a degree-0 map v: M -> N, out of the minimal cover of M, lifted
        # through the minimal cover of N
        slots, rows = reference_hom_equations(M, N, zero)
        v = la.zeros(f, N.dim, M.dim)
        for sol in la.kernel_basis(f, rows, len(slots)):
            c = f.of(data.draw(st.integers(-2, 2)))
            for (k, j), x in zip(slots, sol):
                v[k][j] = f.add(v[k][j], f.mul(c, x))
        v = gm.ModuleMorphism(M, N, v).compose(gh.minimal_cover(M))
        assert assert_lift(gh.minimal_cover(N), v)


class TestResolutions:
    def test_minimal_resolution_of_quotient(self):
        R = S.dual_numbers()
        K, _ = quotient_by_x(R)
        res = gh.resolution(K, cutoff=4)
        assert res.verify()
        assert not res.terminated  # K has infinite projective dimension
        assert res.betti() == [{(0,): 1}, {(1,): 1}, {(2,): 1},
                               {(3,): 1}, {(4,): 1}]

    def test_resolution_of_free_terminates(self):
        R = S.dual_numbers()
        M = regular_module(R)
        res = gh.resolution(M, cutoff=4)
        assert res.terminated and res.length == 1
        assert res.betti() == [{(0,): 1}]
        assert res.verify()

    def test_nonminimal_resolution_verifies_shape(self):
        R = S.dual_numbers(GF(2))
        K, _ = quotient_by_x(R)
        res = gh.resolution(K, cutoff=2, minimal=False)
        # non-minimal covers are bigger but still resolve
        assert len(res.covers[0].source.free_degrees) >= 1
        f = K.field
        import gradex.exactla as la
        prod = la.mat_mul(f, res.step_matrix(0), res.step_matrix(1))
        assert all(x == 0 for row in prod for x in row)

    def test_minimality_detects_nonminimal(self):
        # the non-minimal cover of the regular module uses two
        # generators, so the first syzygy contains a unit coefficient:
        # the resolution is exact, and not minimal
        R = S.dual_numbers(GF(2))
        K = regular_module(R)
        res = gh.resolution(K, cutoff=2, minimal=False)
        assert res.verify() and not res.is_minimal()
        assert gh.resolution(K, cutoff=2).is_minimal()


    def test_cutoff_8_resolution_within_budget(self):
        # Q[x]/(x^8) modulo <x^2>; a guard against recomputing the
        # nilradical at every minimal cover (about 2 s)
        R = S.truncated_polynomial_algebra(QQ, 8)
        _, incl = generated_submodule(regular_module(R),
                                         [[0, 0, 1, 0, 0, 0, 0, 0]])
        K = cokernel(incl)[0]
        t0 = time.perf_counter()
        res = gh.resolution(K, cutoff=8)
        assert time.perf_counter() - t0 < 1.0
        assert res.betti() == [{(d,): 1} for d in (0, 2, 8, 10, 16, 18, 24,
                                                   26, 32)]


class TestSchanuel:
    def test_first_kernels(self):
        R = S.dual_numbers(GF(2))
        K, _ = quotient_by_x(R)
        res_min = gh.resolution(K, cutoff=3, minimal=True)
        res_big = gh.resolution(K, cutoff=3, minimal=False)
        iso, verified = gh.schanuel_glue(res_min, res_big, 1)
        assert verified
        # K1 + Q0 has the graded dimension of L1 + P0
        assert hkey(iso.source.hilbert()) == hkey(iso.target.hilbert())

    def test_second_kernels(self):
        R = S.dual_numbers(GF(2))
        K, _ = quotient_by_x(R)
        res_min = gh.resolution(K, cutoff=3, minimal=True)
        res_big = gh.resolution(K, cutoff=3, minimal=False)
        iso, verified = gh.schanuel_glue(res_min, res_big, 2)
        assert verified

    def test_identity_case(self):
        R = S.truncated_polynomial_algebra(GF(2), 3)
        K, _ = quotient_by_x(R)
        res = gh.resolution(K, cutoff=3, minimal=True)
        iso, verified = gh.schanuel_glue(res, res, 1)
        assert verified and iso.is_iso()

    @pytest.mark.parametrize("n", [4, 6])
    def test_second_kernels_over_q_within_budget(self, n):
        # Q[x]/(x^n) modulo <x^2>, as `schanuel --n 2` runs it: over
        # 30 s at n = 4 while products and eliminations touched every
        # zero entry, about 13 s at n = 6 while each lift built all of
        # the graded HOM module
        M = regular_module(S.truncated_polynomial_algebra(QQ, n))
        gen = [0] * n
        gen[2] = 1
        _, incl = generated_submodule(M, [gen])
        K = cokernel(incl)[0]
        t0 = time.perf_counter()
        res_min = gh.resolution(K, cutoff=2)
        res_big = gh.resolution(K, cutoff=2, minimal=False)
        iso, verified = gh.schanuel_glue(res_min, res_big, 2)
        assert time.perf_counter() - t0 < 5.0
        assert verified

    def test_third_kernels_within_budget(self):
        # F2[x]/(x^6) modulo <x^3>, as `schanuel --n 3` runs it: about
        # 34 s while each lift solved the degree-0 equivariance system
        # of a map out of a free module
        M = regular_module(S.truncated_polynomial_algebra(GF(2), 6))
        _, incl = generated_submodule(M, [[0, 0, 0, 1, 0, 0]])
        K = cokernel(incl)[0]
        t0 = time.perf_counter()
        res_min = gh.resolution(K, cutoff=2)
        res_big = gh.resolution(K, cutoff=2, minimal=False)
        iso, verified = gh.schanuel_glue(res_min, res_big, 3)
        assert time.perf_counter() - t0 < 5.0
        assert verified

    def test_base_step_reads_the_kernel_coordinates(self, monkeypatch):
        # inclB^-1 (q - tP p) is read at the leads of inclB's columns: no
        # solve_linear call comes from _schanuel_base itself (its lifts
        # make one per generator)
        callers, solve = [], la.solve_linear

        def counted(*args):
            callers.append(sys._getframe(1).f_code)
            return solve(*args)
        monkeypatch.setattr(la, "solve_linear", counted)
        for M in sample_modules() + [quotient_by_x2_of_x3()]:
            if M.dim == 0:
                continue
            res_min = gh.resolution(M, cutoff=2)
            res_big = gh.resolution(M, cutoff=2, minimal=False)
            n = min(2, res_min.length, res_big.length)
            # on a free M, the minimal side B has L = 0
            for res1, res2 in ((res_min, res_big), (res_big, res_min)):
                assert gh.schanuel_glue(res1, res2, n)[1], M
        assert callers and gh._schanuel_base.__code__ not in callers

    def test_base_step_refuses_a_smaller_kernel(self):
        # theta's L block is onto L, so one product finds q - tP p outside
        # a proper submodule of L, and outside L = 0
        K = quotient_by_x2_of_x3()
        res_min = gh.resolution(K, cutoff=1)
        res_big = gh.resolution(K, cutoff=1, minimal=False)
        cover, incl = res_big.covers[0], res_big.incls[0]
        Q0 = cover.source
        smaller = generated_submodule(Q0, [[row[-1] for row in incl.matrix]])
        zero = gm.ModuleMorphism(gm.GradedModule(K.algebra, [], []), Q0,
                                 [[] for _ in range(Q0.dim)])
        assert 0 < smaller[0].dim < incl.source.dim
        for sub in (smaller[1], zero):
            with pytest.raises(gm.ModuleError, match="escapes"):
                gh._schanuel_base(K, res_min.covers[0], res_min.incls[0],
                                  cover, sub)

    @pytest.mark.parametrize("minimal", [True, False])
    @pytest.mark.parametrize("n", [1, 2])
    def test_glue_quotient_of_truncated_cube(self, n, minimal):
        K = quotient_by_x2_of_x3()
        res_min = gh.resolution(K, cutoff=n, minimal=True)
        res_other = gh.resolution(K, cutoff=n, minimal=minimal)
        iso, verified = gh.schanuel_glue(res_min, res_other, n)
        assert verified and iso.is_iso()


class TestDimensions:
    @pytest.mark.parametrize("kind", ["projective", "injective", "flat"])
    def test_matches_reference_walk(self, kind):
        # K x K has projective modules that are not free; the group
        # algebras F2[Z/2] and F3[Z/2] are graded fields
        R = S.product_field_algebra()
        modules = sample_modules() + [
            gm.GradedModule(R, [Z(1).zero], entries([[[1]], [[0]]])),
            quotient_by_x(S.truncated_polynomial_algebra(QQ, 3))[0]]
        for R in (S.truncated_polynomial_algebra(GF(2), 3),
                  S.truncated_polynomial_algebra(GF(3), 3),
                  S.truncated_polynomial_algebra(QQ, 4), S.dual_numbers(),
                  S.product_field_algebra(GF(3)),
                  S.product_field_algebra(QQ), S.group_algebra(2, 2),
                  S.group_algebra(3, 2)):
            modules += cyclic_quotients(R)
        for M in modules:
            for cutoff in range(5):
                rep = gh.dimension(M, kind, cutoff)
                assert rep.value == reference_dimension(M, kind, cutoff), \
                    (M, cutoff)
                if kind == "injective":
                    direct = injective_dimension_direct(M, cutoff)
                    assert rep.value == direct.value, (M, cutoff)

    def test_tor1_acts_with_the_ideal_generators_of_nil(self, monkeypatch):
        # nil Q[x]/(x^8) = (x), so NK = x.K: 6 products for the kernel K
        # of the cover of R/(x^2), not one per basis vector of N
        R = S.truncated_polynomial_algebra(QQ, 8)
        _, incl = generated_submodule(regular_module(R),
                                         [[0, 0, 1, 0, 0, 0, 0, 0]])
        p = gh.minimal_cover(cokernel(incl)[0])
        calls, act_vec = [], gm.GradedModule.act_vec

        def counted(self, x, v):
            if self is p.source:
                calls.append(x)
            return act_vec(self, x, v)
        monkeypatch.setattr(gm.GradedModule, "act_vec", counted)
        assert gh._tor1_vanishes(p) is False
        assert len(calls) == 6

    @pytest.mark.parametrize("kind", ["projective", "injective", "flat"])
    def test_one_split_test_decides(self, kind, monkeypatch):
        calls, minimal_cover = [], gh.minimal_cover

        def counted(M):
            calls.append(M)
            return minimal_cover(M)
        monkeypatch.setattr(gh, "minimal_cover", counted)
        K, _ = quotient_by_x(S.truncated_polynomial_algebra(QQ, 3))
        rep = gh.dimension(K, kind, 8)
        assert rep.value is None and rep.display == ">=8"
        assert len(calls) == 1

    def test_free_module_dimension_zero(self):
        R = S.dual_numbers()
        M = regular_module(R)
        for kind in ("projective", "injective", "flat"):
            rep = gh.dimension(M, kind, cutoff=4)
            assert rep.value == 0, kind

    def test_infinite_dimension_reported_as_bound(self):
        R = S.dual_numbers()
        K, _ = quotient_by_x(R)
        for kind in ("projective", "injective", "flat"):
            rep = gh.dimension(K, kind, cutoff=3)
            assert rep.value is None
            assert rep.display == ">=3"

    def test_projective_not_free_has_dimension_zero(self):
        # over K x K every module is projective: dimension 0 throughout
        R = S.product_field_algebra()
        M = gm.GradedModule(R, [Z(1).zero], entries([[[1]], [[0]]]))
        assert gh.dimension(M, "projective", 4).value == 0

    def test_injective_direct_cross_check(self):
        R = S.dual_numbers(GF(2))
        M = regular_module(R)
        K, _ = quotient_by_x(R)
        for mod in (M, K):
            via_dual = gh.dimension(mod, "injective", cutoff=3)
            direct = injective_dimension_direct(mod, cutoff=3)
            assert via_dual.value == direct.value

    def test_lambek_dimension_inequality(self):
        for M in sample_modules():
            assert lambek_dimension_check(M, cutoff=3), M


class TestCoarsenDimensionCompare:
    def test_pairs(self):
        pairs = [
            (regular_module(S.dual_numbers(GF(2))), S.psi_Z_to_Zmod(2)),
            (quotient_by_x(S.dual_numbers(GF(2)))[0], S.psi_Z_to_Zmod(2)),
            (quotient_by_x(S.truncated_polynomial_algebra(GF(2), 3))[0],
             S.psi_Z_to_Zmod(3)),
            (regular_module(S.truncated_polynomial_algebra(GF(3), 2)),
             S.psi_Z_to_Zmod(2)),
        ]
        for M, psi in pairs:
            rep = gh.coarsen_dimension_compare(M, psi, cutoff=3)
            assert rep["ok"], (M, psi)

    def test_finite_kernel_compares_injective(self):
        from gradex.abgroups import GroupHom
        M = regular_module(S.group_algebra(2, 4))
        psi = GroupHom(Zmod(4), Zmod(2), [[1]])
        rep = gh.coarsen_dimension_compare(M, psi, cutoff=3)
        assert rep["ok"]
        assert "equal" in rep["injective"]

    def test_infinite_kernel_skips_injective(self):
        M = regular_module(S.dual_numbers(GF(2)))
        rep = gh.coarsen_dimension_compare(M, S.psi_Z_to_zero(), cutoff=3)
        assert rep["ok"]
        assert rep["injective"] == {
            "skipped": "kernel of the coarsening map is infinite"}


class TestRecords:
    def test_free_resolution(self):
        fields = (1, [2], [3], 4, False)
        a = gh.FreeResolution(*fields)
        assert_record(a, gh.FreeResolution(
            target=1, covers=[2], incls=[3], cutoff=4, terminated=False),
            gh.FreeResolution(1, [2], [3], 4, True), fields,
            gh.DimensionReport("projective", 1, 4), frozen=False)
        assert repr(a) == ("FreeResolution(target=1, covers=[2], incls=[3], "
                           "cutoff=4, terminated=False)")

    def test_dimension_report(self):
        a = gh.DimensionReport("projective", None, 4)
        assert_record(a, gh.DimensionReport(kind="projective", value=None,
                                            cutoff=4),
                      gh.DimensionReport("flat", None, 4),
                      ("projective", None, 4),
                      gh.FreeResolution("projective", None, 4, 0, 0),
                      frozen=False)
        assert a.display == ">=4"
        assert repr(a) == ("DimensionReport(kind='projective', value=None, "
                           "cutoff=4)")
