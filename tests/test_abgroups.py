from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import gradex.abgroups as ag
import gradex.gcore as gc
from gradex.exactla import QQ, det
from support import (Pair, assert_record, hermite_basis, integer_solutions,
                     lattice_column_basis, reference_kernel, within)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


small_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    min_size=1, max_size=4).filter(
        lambda rows: len({len(r) for r in rows}) == 1)


class TestSmithNormalForm:
    @given(small_matrices)
    @settings(max_examples=150, deadline=None)
    def test_factorization_and_divisibility(self, A):
        U, D, V, Ui, Vi = ag.smith_normal_form(A)
        assert ag.mat_mul(ag.mat_mul(U, A), V) == D
        assert ag.mat_mul(U, Ui) == identity(len(A))
        assert ag.mat_mul(V, Vi) == identity(len(A[0]))
        diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        assert all(d >= 0 for d in diag)
        for i in range(len(D)):
            for j in range(len(D[0])):
                if i != j:
                    assert D[i][j] == 0

    def test_worked_examples(self):
        D = ag.smith_normal_form([[2, 4], [6, 8]])[1]
        assert [D[0][0], D[1][1]] == [2, 4]
        D = ag.smith_normal_form([[2, 0], [0, 3]])[1]
        assert [D[0][0], D[1][1]] == [1, 6]
        D = ag.smith_normal_form([[0]])[1]
        assert D == [[0]]

    @given(small_matrices)
    @settings(max_examples=80, deadline=None)
    def test_unimodular_transforms(self, A):
        U, D, V, _, _ = ag.smith_normal_form(A)
        for T in (U, V):
            assert det(QQ, [list(map(QQ.of, row)) for row in T]) in (1, -1)


class TestGroups:
    def test_invariant_factor_normalization(self):
        G, proj, lift = ag.FGAbelianGroup.from_presentation(
            2, [(2, 0), (0, 3)])
        assert G.free_rank == 0 and G.torsion_factors == (6,)
        # the canonical form must be a divisibility chain with factors >= 2
        for i in range(1, len(G.torsion_factors)):
            assert G.torsion_factors[i] % G.torsion_factors[i - 1] == 0

    def test_element_reduction(self):
        G = ag.Zmod(4)
        e = G.element((7,))
        assert e.coords == (3,)
        assert (e + e).coords == (2,)
        assert (-e).coords == (1,)

    def test_mixed_group_order(self):
        G = ag.FGAbelianGroup(1, (2, 4))
        assert G.order is None  # infinite
        H = ag.Zmod(2, 4)
        assert H.order == 8

    def test_infinite_order(self):
        G = ag.FGAbelianGroup(1, (2,))
        assert G.element((1, 0)).has_infinite_order()
        assert not G.element((0, 1)).has_infinite_order()


class TestHoms:
    def test_well_definedness_rejected(self):
        with pytest.raises(ag.GroupError):
            ag.GroupHom(ag.Zmod(2), ag.Z(1), [[1]])

    def test_kernel_examples(self):
        K, incl, tf, finite, order = ag.kernel_data(
            ag.GroupHom(ag.Z(1), ag.Zmod(2), [[1]]))
        assert K.free_rank == 1 and K.torsion_factors == ()
        assert tf and not finite
        K, _, tf, finite, order = ag.kernel_data(
            ag.GroupHom(ag.Zmod(4), ag.Zmod(2), [[1]]))
        assert K.torsion_factors == (2,) and finite and order == 2
        assert not tf
        K, incl, tf, _, _ = ag.kernel_data(
            ag.GroupHom(ag.Z(2), ag.Z(1), [[1, 0]]))
        assert K.free_rank == 1 and tf
        # inclusion actually lands in the kernel
        h = ag.GroupHom(ag.Z(2), ag.Z(1), [[1, 0]])
        for c in [(1,), (2,), (-1,)]:
            img = h(incl(K.element(c)))
            assert img.is_zero

    def test_hom_props(self):
        epi, mono, iso = ag.hom_props(ag.GroupHom(ag.Z(1), ag.Zmod(2), [[1]]))
        assert epi and not mono and not iso
        epi, mono, iso = ag.hom_props(ag.GroupHom(ag.Z(1), ag.Z(1), [[2]]))
        assert not epi and mono and not iso
        epi, mono, iso = ag.hom_props(ag.GroupHom(ag.Z(1), ag.Z(1), [[-1]]))
        assert epi and mono and iso

    def test_preimage_under_mono(self):
        phi = ag.GroupHom(ag.Z(1), ag.Z(1), [[2]])
        assert phi.preimage(ag.Z(1).element((4,))).coords == (2,)
        assert phi.preimage(ag.Z(1).element((3,))) is None

    def test_preimage_into_the_zero_group(self):
        for source in (ag.Z(1), ag.Zmod(2)):
            h = ag.GroupHom(source, ag.ZERO_GROUP, [])
            assert h.preimage(ag.ZERO_GROUP.zero) == source.zero

    def test_maps_out_of_z(self):
        G = ag.Zmod(2, 4)
        h = ag.GroupHom(ag.Z(1), G, [[1], [1]])   # x -> (x mod 2, x mod 4)
        assert ag.hom_props(h) == (False, False, False)
        assert ag.image_index_data(h) == [1, 2]   # G / im h = Z/2
        K, incl, tf, finite, order = ag.kernel_data(h)
        assert (K, tf, finite, order) == (ag.Z(1), True, False, None)
        assert incl.matrix in (((4,),), ((-4,),))
        y = G.element((1, 3))
        assert h(h.preimage(y)) == y
        assert h.preimage(G.element((0, 1))) is None
        # x -> (2x, x) is a monomorphism onto a subgroup of index 4
        h = ag.GroupHom(ag.Z(1), ag.FGAbelianGroup(1, (2,)), [[2], [1]])
        assert ag.hom_props(h) == (False, True, False)
        assert ag.image_index_data(h) == [1, 4]
        assert ag.kernel_data(h)[0] == ag.ZERO_GROUP
        assert h.preimage(h.target.element((6, 1))).coords == (3,)
        assert h.preimage(h.target.element((6, 0))) is None

    def test_maps_into_z(self):
        # (a, b) -> 2a + 3b is onto, with kernel spanned by (3, -2)
        h = ag.GroupHom(ag.Z(2), ag.Z(1), [[2, 3]])
        assert ag.hom_props(h) == (True, False, False)
        K, incl, tf, finite, _ = ag.kernel_data(h)
        assert K == ag.Z(1) and tf and not finite
        assert incl.matrix in (((3,), (-2,)), ((-3,), (2,)))
        for n in (-5, 1, 7):
            assert h(h.preimage(ag.Z(1).element((n,)))).coords == (n,)
        # a finite group maps to Z by zero only
        h = ag.GroupHom(ag.Zmod(4), ag.Z(1), [[0]])
        assert ag.hom_props(h) == (False, False, False)
        assert ag.image_index_data(h) == [0]
        assert ag.kernel_data(h)[0] == ag.Zmod(4)
        assert h.preimage(ag.Z(1).element((0,))).coords == (0,)
        assert h.preimage(ag.Z(1).element((1,))) is None

def _chains(bound, prev=1):
    """Every divisibility chain d_1 | d_2 | ... of factors >= 2 with
    product at most ``bound``, the empty chain first."""
    yield ()
    for d in range(max(2, prev), bound + 1, prev):
        for rest in _chains(bound // d, d):
            yield (d,) + rest


FINITE_GROUPS = [ag.Zmod(*c) for c in _chains(64)]


@st.composite
def finite_maps(draw):
    """A map between finite groups of order at most 64: column j may be
    any image that the order d_j of generator j kills."""
    G = draw(st.sampled_from(FINITE_GROUPS))
    H = draw(st.sampled_from(FINITE_GROUPS))
    cols = [[draw(st.integers(0, e)) * (e // gcd(d, e))
             for e in H.torsion_factors] for d in G.torsion_factors]
    return ag.GroupHom(G, H, [[c[i] for c in cols] for i in range(H.dim)])


def elements(G):
    """Every element of the finite group G."""
    return [G.element(c) for c in product(*map(range, G.torsion_factors))]


class TestFiniteMapsByEnumeration:
    @given(finite_maps())
    @settings(max_examples=120, deadline=None)
    def test_against_enumeration(self, h):
        image = {h(x) for x in elements(h.source)}
        kernel = {x for x in elements(h.source) if h(x).is_zero}
        for y in elements(h.target):
            x = h.preimage(y)
            assert (x is None) is (y not in image)
            assert x is None or h(x) == y
        epi, mono, iso = ag.hom_props(h)
        assert (epi, mono) == (len(image) == h.target.order,
                               len(kernel) == 1)
        K, incl, tf, finite, order = ag.kernel_data(h)
        assert finite and order == K.order == len(kernel)
        assert {incl(k) for k in elements(K)} == kernel


@st.composite
def maps_with_free_parts(draw):
    """A map between groups of free rank at most 2 beside a torsion chain
    of FINITE_GROUPS: column j may be any image of a free generator j,
    and for a generator of order d any image with no free part that d
    kills, its torsion coordinates left unreduced."""
    G, H = (ag.FGAbelianGroup(draw(st.integers(0, 2)), draw(
        st.sampled_from(FINITE_GROUPS)).torsion_factors) for _ in "GH")
    cols = [[draw(st.integers(-9, 9)) for _ in range(H.dim)]
            for _ in range(G.free_rank)]
    cols += [[0] * H.free_rank + [draw(st.integers(0, e)) * (e // gcd(d, e))
                                  for e in H.torsion_factors]
             for d in G.torsion_factors]
    return ag.GroupHom(G, H, [[c[i] for c in cols] for i in range(H.dim)])


@st.composite
def monoid_generators(draw):
    """(d, generators in Z^d) for a monoid of at most 5 generators in Z^d,
    d <= 3."""
    d = draw(st.integers(0, 3))
    return d, draw(st.lists(st.lists(st.integers(-9, 9), min_size=d,
                                     max_size=d), max_size=5))


class TestAgainstSeparateSmithForms:
    """The one Smith form of a map or a monoid, held to the chain of
    separate factorisations in ``support.reference_kernel``."""

    @given(maps_with_free_parts())
    @settings(max_examples=150, deadline=None)
    def test_kernels(self, h):
        system = h._system
        for T, Tinv in ((system.U, system.Uinv), (system.V, system.Vinv)):
            assert not T or ag.mat_mul(T, Tinv) == identity(len(T))
        K, incl, tf, finite, order = ag.kernel_data(h)
        assert (tf, finite, order) == (K.is_torsionfree, K.is_finite,
                                       K.order)
        assert all(h(incl(K.element(c))).is_zero for c in identity(K.dim))
        # the reference may run past any budget: then it has no answer
        ref = within(2, reference_kernel, h)
        assume(ref is not None)
        ref_K, ref_incl = ref
        assert K == ref_K
        # beside the source relations, the columns of incl span the
        # lattice that the reference's span: so incl maps K onto ker h, a
        # group isomorphic to K, and is injective (finitely generated
        # abelian groups are Hopfian), as its own mono test finds
        n, rel_G = h.source.dim, h.source.relation_columns()
        assert hermite_basis(list(zip(*incl.matrix)) + rel_G, n) == \
            hermite_basis(list(zip(*ref_incl)) + rel_G, n)
        assert ag.hom_props(incl)[1]

    @given(monoid_generators(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_monoid_lattices(self, monoid, data):
        d, gens = monoid
        M = gc.AffineMonoid(d, gens)
        gens = [list(g) for g in M.generators]
        group, basis = M.diff_group()
        assert basis == lattice_column_basis(gens, d)
        assert group == ag.Z(len(basis))
        L = M._lattice
        for T, Tinv in ((L.U, L.Uinv), (L.V, L.Vinv)):
            assert not T or ag.mat_mul(T, Tinv) == identity(len(T))
        x = data.draw(st.lists(st.integers(-5, 5), min_size=len(gens),
                               max_size=len(gens)))
        inside = [sum(c * g[i] for c, g in zip(x, gens)) for i in range(d)]
        other = data.draw(st.lists(st.integers(-9, 9), min_size=d,
                                   max_size=d))
        for m, ref in zip((inside, other),
                          integer_solutions(basis, d, (inside, other))):
            assert M.diff_coords(m) == (None if ref is None else tuple(ref))
        assert M.diff_coords(inside) is not None


class TestRecords:
    """Equality, hashing, frozen-ness and repr of the group records."""

    def test_group(self):
        a = ag.FGAbelianGroup(1, (2,))
        assert_record(a, ag.FGAbelianGroup(free_rank=1, torsion_factors=[2]),
                      ag.FGAbelianGroup(1, (4,)), (1, (2,)),
                      Pair(1, (2,)), frozen=True)
        assert a.torsion_factors == (2,) and repr(a) == "Z x Z/2"
        with pytest.raises(ag.GroupError):
            ag.FGAbelianGroup(0, (4, 6))

    def test_element(self):
        G = ag.Zmod(2)
        a = ag.GroupElement(G, (1,))
        assert_record(a, ag.GroupElement(group=G, coords=(3,)),
                      ag.GroupElement(G, (0,)), (G, (1,)),
                      Pair(G, (1,)), frozen=True)
        assert a.coords == (1,) and repr(a) == "(1,)"
        assert {a: 0}[G.element((5,))] == 0
        with pytest.raises(ag.GroupError):
            ag.GroupElement(G, (1, 0))

    def test_hom(self):
        src, tgt = ag.Z(1), ag.Zmod(2)
        a = ag.GroupHom(src, tgt, [[1]])
        assert_record(a, ag.GroupHom(source=src, target=tgt, matrix=((1,),)),
                      ag.GroupHom(src, tgt, [[0]]), (src, tgt, ((1,),)),
                      ag.GroupHom(src, ag.Z(1), [[1]]), frozen=True)
        assert repr(a) == "GroupHom(source=Z, target=Z/2, matrix=((1,),))"
        with pytest.raises(ag.GroupError):
            ag.GroupHom(tgt, src, [[1]])
