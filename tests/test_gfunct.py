from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import gradex.abgroups as ag
import gradex.exactla as la
import gradex.gcore as gc
import gradex.gfunct as gf
import gradex.oracles as orc
from gradex.abgroups import Z, Zmod, ZERO_GROUP, GroupHom
from gradex.exactla import QQ, GF
import samples as S
from support import assert_record, combinations, dense


class TestCoarsening:
    def test_underlying_ring_unchanged(self):
        for R, psi in S.coarsening_pairs():
            Rc = gf.coarsen(R, psi)
            assert Rc.field is R.field
            assert dense(Rc) == dense(R)
            assert Rc.unit == R.unit
            assert Rc.dim == R.dim
            assert Rc.group == psi.target
            for i in range(R.dim):
                assert Rc.basis_degrees[i] == psi(R.basis_degrees[i])

    def test_requires_epimorphism(self):
        with pytest.raises(gf.FunctorError):
            gf.coarsen(S.dual_numbers(), GroupHom(Z(1), Z(1), [[2]]))

    def test_torsion_kernel_breaks_classification(self):
        # F2[Z/2] is a graded field with its fine Z/2-grading, but after
        # coarsening away the torsion grading group the element e0+e1
        # becomes a homogeneous square-zero element
        R = S.group_algebra(2, 2)
        fine = gc.classify_ring(R)
        assert fine.simple and fine.entire and fine.reduced
        Rc = gf.coarsen(R, S.psi_Zmod_to_zero(2))
        coarse = gc.classify_ring(Rc)
        assert not coarse.reduced and not coarse.entire and not coarse.simple
        w = Rc.element([1, 1])
        assert Rc.vec_degree(w) is not None
        assert not any(Rc.act_vec(w, w))

    def test_torsionfree_kernel_preserves_classification(self):
        for R, psi in S.coarsening_pairs():
            K, _, torsionfree, _, _ = ag.kernel_data(psi)
            if not torsionfree:
                continue
            fine = gc.classify_ring(R)
            coarse = gc.classify_ring(gf.coarsen(R, psi))
            assert fine.entire == coarse.entire
            assert fine.reduced == coarse.reduced

    def test_coarse_entire_implies_fine_entire(self):
        # one direction of the dichotomy needs no kernel hypothesis
        for R, psi in S.coarsening_pairs():
            coarse = gc.classify_ring(gf.coarsen(R, psi))
            fine = gc.classify_ring(R)
            if coarse.entire:
                assert fine.entire
            if coarse.reduced:
                assert fine.reduced

    def test_simple_not_preserved_even_torsionfree(self):
        # K[X]/(X^2-0)? no: use the graded field K with Z-grading
        # concentrated in degree 0; coarsening keeps it simple.  The
        # interesting direction: fine homogeneous sets only grow under
        # coarsening, so every fine unit stays a unit
        for R, psi in S.coarsening_pairs():
            if R.field.p > 3 or R.dim > 3:
                continue
            Rc = gf.coarsen(R, psi)
            for _, x in R.homogeneous_vectors():
                assert Rc.vec_degree(x) is not None
                fine_c = gc.classify_element(R, x)
                coarse_c = gc.classify_element(Rc, x)
                assert fine_c.unit == coarse_c.unit
                assert fine_c.nilpotent == coarse_c.nilpotent

    def test_coarsen_ideal(self):
        R = S.dual_numbers(GF(2))
        a = gc.ideal_from_gens(R, [[0, 1]])
        Rc = gf.coarsen_algebra(R, S.psi_Z_to_zero())
        assert len(Rc.graded_span(a)) == 1
        assert gc.classify_ring(gc.quotient_ring(Rc, a)[0]).simple

    def test_coarsened_ring_has_the_same_generators(self):
        for R, psi in S.coarsening_pairs():
            assert gf.coarsen_algebra(R, psi)._generators == R._generators

    def test_coarsening_reuses_computed_generators(self, monkeypatch):
        R = S.truncated_polynomial_algebra(QQ, 6)
        gens = R._generators

        def recomputed(*args):
            raise AssertionError("the closure ran again")
        monkeypatch.setattr(gc._GradedSpace, "submodule_span", recomputed)
        Rc = gf.coarsen_algebra(R, S.psi_Z_to_zero())
        assert Rc._generators == gens


class TestRestriction:
    def test_restrict_dual_numbers_along_doubling(self):
        R = S.dual_numbers()
        Rst = gf.restrict(R, S.phi_doubling())
        assert Rst.dim == 1  # only degree 0 lies in the image of 2Z
        assert gc.classify_ring(Rst).simple

    def test_restrict_keeps_even_part(self):
        R = S.truncated_polynomial_algebra(GF(2), 4)
        Rst, kept = gf.restrict_with_indices(R, S.phi_doubling())
        assert kept == [0, 2]
        assert Rst.basis_degrees[1].coords == (1,)  # X^2 now in degree 1

    def test_extend(self):
        R = S.dual_numbers()
        E = gf.extend(R, S.phi_doubling())
        assert E.dim == R.dim
        assert [d.coords for d in E.basis_degrees] == [(0,), (2,)]

    def test_requires_monomorphism(self):
        with pytest.raises(gf.FunctorError):
            gf.restrict(S.dual_numbers(), GroupHom(Z(1), ZERO_GROUP, []))


class TestCorestriction:
    def test_equals_restriction_for_dual_numbers(self):
        R = S.dual_numbers()
        cor = gf.corestrict(R, S.phi_doubling())
        assert cor.algebra.dim == 1
        assert len(cor.ideal) == 1  # a_phi(R) = <X>
        assert gc.classify_ring(cor.algebra).simple

    def test_zero_when_unit_outside_image(self):
        # Q[i] graded by Z/2: i is a unit of degree 1, which is outside
        # the image of 0 -> Z/2, so the corestriction collapses to 0
        R = S.gaussian_rationals()
        cor = gf.corestrict(R, S.phi_zero_into(Zmod(2)))
        assert cor.algebra.dim == 0
        assert len(cor.ideal) == R.dim

    def test_identity_corestriction(self):
        R = S.dual_numbers(GF(3))
        cor = gf.corestrict(R, GroupHom(Z(1), Z(1), [[1]]))
        assert len(cor.ideal) == 0
        assert cor.algebra.dim == R.dim
        assert cor.algebra.basis_degrees == R.basis_degrees


class TestAdjointTriple:
    def test_triangle_identities(self):
        phi = S.phi_doubling()
        g_samples = [S.dual_numbers(), S.truncated_polynomial_algebra(GF(2), 3)]
        f_samples = [S.dual_numbers(GF(3)), S.trivial_algebra(QQ, Z(1))]
        for label, ok in gf.triangle_identities(phi, g_samples, f_samples):
            assert ok, label

    def test_hom_bijection_finite_fields(self):
        phi = S.phi_doubling()
        pairs = [
            (S.dual_numbers(GF(2)), S.dual_numbers(GF(2))),
            (S.truncated_polynomial_algebra(GF(2), 3), S.dual_numbers(GF(2))),
            (S.dual_numbers(GF(3)), S.trivial_algebra(GF(3), Z(1))),
        ]
        for R, Sr in pairs:
            rep = gf.hom_bijection_check(phi, R, Sr)
            assert rep["corestriction-extension"], (R, Sr)
            assert rep["extension-restriction"], (R, Sr)

    def test_full_adjunction_report(self):
        phi = S.phi_doubling()
        rep = gf.adjunction_check(
            phi,
            f_samples=[S.dual_numbers(GF(2))],
            g_samples=[S.dual_numbers()],
            finite_field_pairs=[(S.dual_numbers(GF(2)),
                                 S.dual_numbers(GF(2)))])
        assert rep["ok"] is True
        assert rep["tensor_witness"]["reconstructed_instance"] is True

    def test_tensor_witness_growth(self):
        w = gf.laurent_tensor_witness(kmax=7)
        assert w["tensor_degree0_dim_lower_bound"] == 15
        assert w["restricted_tensor_degree0_dim"] == 1
        assert w["mismatch"] is True


class TestMorphismEnumeration:
    def test_endomorphisms_of_group_algebra(self):
        R = S.group_algebra(2, 2)
        homs = gf.enumerate_ring_morphisms(R, R)
        assert len(homs) == 1
        assert homs[0].matrix == la.eye(R.field, R.dim)

    def test_all_enumerated_maps_are_multiplicative(self):
        A = S.dual_numbers(GF(2))
        B = S.truncated_polynomial_algebra(GF(2), 3)
        f = A.field
        elements = [list(x) for x in product(f.elements(), repeat=A.dim)]

        def add(x, y):
            return [f.add(a, b) for a, b in zip(x, y)]
        for h in gf.enumerate_ring_morphisms(A, B):
            for x in elements:
                hx = h(x)
                for y in elements:
                    hy = h(y)
                    assert h(A.act_vec(x, y)) == B.act_vec(hx, hy)
                    assert h(add(x, y)) == add(hx, hy)


def walk_witness_pair(A, k, embed, bound):
    """Do two monomials e_m1, e_m2 with coefficient sum at most bound
    have deg m2 outside H and deg (m1 + m2) inside it?  H is k Z^e, or
    k Z x 0 in Z^2 when ``embed``; degrees are compared modulo H."""
    def mod_h(d):
        return (d[0] % k, d[1]) if embed else tuple(x % k for x in d)
    keys = {mod_h(A.monomial_degree(m).coords)
            for _, m in combinations(A.monoid, bound)}
    return any(any(r) and mod_h(tuple(-x for x in r)) in keys
               for r in keys)


class TestMonoidShortcuts:
    def test_laurent_corestriction_is_zero(self):
        L = S.laurent_algebra()
        rep = gf.monoid_corestriction_report(L, S.phi_zero_into(Z(1)))
        assert rep["result"] == "zero"
        assert rep["witness_degree"] == (1,)

    def test_polynomial_degree_support(self):
        base = S.trivial_algebra(QQ, Z(1))
        monoid = gc.AffineMonoid(1, [(1,)])
        # deg X = 1: odd powers multiply back into the even part
        A1 = gc.MonoidAlgebra(base, monoid, mode="d", dmatrix=[[1]])
        rep = gf.monoid_corestriction_report(A1, S.phi_doubling())
        assert rep["result"] == "differs"
        # deg X = 2: every monomial already has even degree
        A2 = gc.MonoidAlgebra(base, monoid, mode="d", dmatrix=[[2]])
        rep = gf.monoid_corestriction_report(A2, S.phi_doubling())
        assert rep["result"] == "equals_restriction"

    def test_lattice_basis_built_once(self, monkeypatch):
        # the fine degree of every monoid point needs diff(M): its basis
        # and every coordinate in it read one Smith form of the generators
        # (the group maps factor matrices of 3 rows, G = Z^3)
        calls, snf = [], ag.smith_normal_form
        monkeypatch.setattr(ag, "smith_normal_form",
                            lambda A: calls.append(A) or snf(A))
        A = gc.MonoidAlgebra(S.trivial_algebra(QQ, Z(1)), gc.AffineMonoid(
            2, [(1, 0), (0, 1), (1, 1)]), mode="fine")
        G = A.grading_group()
        identity = GroupHom(G, G, [[int(i == j) for j in range(G.dim)]
                                   for i in range(G.dim)])
        rep = gf.monoid_corestriction_report(A, identity)
        assert rep["result"] == "equals_restriction"
        assert [B for B in calls if len(B) == 2] == [[[1, 0, 1], [0, 1, 1]]]

    @pytest.mark.parametrize("gens, dmatrix", [
        ([(1,)], [[2]]),
        ([(1, 0), (0, 1), (1, 1)], [[2, 4]]),
        ([(1, 0), (1, 2), (0, 3)], [[2, -2]]),
    ])
    def test_even_degrees_equal_the_restriction(self, gens, dmatrix):
        # every monomial has even degree, so a_phi = 0
        base = S.trivial_algebra(QQ, Z(1))
        A = gc.MonoidAlgebra(base, gc.AffineMonoid(len(gens[0]), gens),
                             mode="d", dmatrix=dmatrix)
        rep = gf.monoid_corestriction_report(A, S.phi_doubling())
        assert rep["result"] == "equals_restriction"
        assert not walk_witness_pair(A, 2, False, 5)

    def test_index_beyond_the_old_walk_differs(self):
        # x * x^9 = x^10 lies in a_phi and in degree 10Z, which a walk
        # over the monomials of coefficient sum at most 8 never reaches
        A = gc.MonoidAlgebra(S.trivial_algebra(QQ, Z(1)),
                             gc.AffineMonoid(1, [(1,)]), mode="d",
                             dmatrix=[[1]])
        rep = gf.monoid_corestriction_report(A, GroupHom(Z(1), Z(1), [[10]]))
        assert rep["result"] == "differs"
        assert rep["witness_exponent"] == (1,)
        assert rep["witness_degree"] == (1,)
        assert walk_witness_pair(A, 10, False, 9)

    def test_free_image_needs_an_opposite_generator(self):
        # phi: Z -> Z^2 onto the first axis, so G/H = Z/3 x Z
        base = S.trivial_algebra(QQ, Z(2))
        phi = GroupHom(Z(1), Z(2), [[3], [0]])
        one_way = gc.MonoidAlgebra(base, gc.AffineMonoid(
            2, [(1, 0), (0, 1)]), mode="d", dmatrix=[[3, 0], [0, 1]])
        rep = gf.monoid_corestriction_report(one_way, phi)
        assert rep["result"] == "equals_restriction"
        both = gc.MonoidAlgebra(base, gc.AffineMonoid(
            2, [(1, 0), (0, 1), (1, 1)]), mode="d", dmatrix=[[3, 0], [0, 1]])
        assert gf.monoid_corestriction_report(both, phi)["result"] == \
            "equals_restriction"
        back = gc.MonoidAlgebra(base, gc.AffineMonoid(
            2, [(1, 0), (0, 1), (1, -2)]), mode="d", dmatrix=[[3, 0], [0, 1]])
        rep = gf.monoid_corestriction_report(back, phi)
        assert (rep["result"], rep["witness_exponent"]) == ("differs", (0, 1))

    def test_base_degree_outside_the_image(self):
        # over Q[y]/(y^2), deg y = 1, along the doubling map
        base = S.dual_numbers()
        even = gc.MonoidAlgebra(base, gc.AffineMonoid(1, [(1,)]), mode="d",
                                dmatrix=[[2]])
        rep = gf.monoid_corestriction_report(even, S.phi_doubling())
        assert rep["result"] == "undecided" and "base degree" in \
            rep["method"]
        # the unit 1 = e_0 still gives the witness e_X e_X of degree 2
        odd = gc.MonoidAlgebra(base, gc.AffineMonoid(1, [(1,)]), mode="d",
                               dmatrix=[[1]])
        rep = gf.monoid_corestriction_report(odd, S.phi_doubling())
        assert rep["result"] == "differs"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda d: st.integers(1, 2).flatmap(
        lambda e: st.tuples(
            st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1,
                     max_size=3),
            st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                     min_size=e, max_size=e),
            st.integers(1, 25),
            st.booleans() if e == 2 else st.just(False)))))
    def test_degree_rule_agrees_with_the_walk(self, case):
        # trivially based d-graded algebras along phi = x k on Z^e, or
        # along Z -> Z^2 onto k times the first axis (embed)
        gens, dmatrix, k, embed = case
        e = len(dmatrix)
        A = gc.MonoidAlgebra(S.trivial_algebra(QQ, Z(e)), gc.AffineMonoid(
            len(gens[0]), gens), mode="d", dmatrix=dmatrix)
        phi = (GroupHom(Z(1), Z(2), [[k], [0]]) if embed else
               GroupHom(Z(e), Z(e), [[k * (i == j) for j in range(e)]
                                     for i in range(e)]))
        result = gf.monoid_corestriction_report(A, phi)["result"]
        assert result != "undecided"
        if walk_witness_pair(A, k, embed, 12):
            assert result in ("differs", "zero")
        if result == "equals_restriction":
            assert not walk_witness_pair(A, k, embed, 12)

    def test_deterministic_report(self):
        base = S.trivial_algebra(QQ, Z(1))
        monoid = gc.AffineMonoid(1, [(1,)])
        A = gc.MonoidAlgebra(base, monoid, mode="d", dmatrix=[[1]])
        r1 = gf.monoid_corestriction_report(A, S.phi_doubling())
        r2 = gf.monoid_corestriction_report(A, S.phi_doubling())
        assert r1 == r2


class TestRecords:
    def test_corestriction_result(self):
        fields = (1, 2, [0], [[1]], [0])
        a = gf.CorestrictionResult(*fields)
        assert_record(a, gf.CorestrictionResult(
            algebra=1, ideal=2, kept=[0], proj=[[1]], reps=[0]),
            gf.CorestrictionResult(1, 2, [], [[1]], [0]),
            fields, Z(1), frozen=False)
        assert repr(a) == ("CorestrictionResult(algebra=1, ideal=2, "
                           "kept=[0], proj=[[1]], reps=[0])")
