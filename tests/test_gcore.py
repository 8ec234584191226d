import json
import random
import sys
import time
from fractions import Fraction
from itertools import islice, product
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import gradex.cli as cli
import gradex.exactla as la
import gradex.gcore as gc
import gradex.gmod as gm
import gradex.oracles as orc
from gradex.abgroups import Z, Zmod, ZERO_GROUP
from gradex.exactla import QQ, GF
from gradex.gfunct import coarsen
import samples as S
from support import EliminationTooLarge, assert_record, closure, cokernel, \
    combinations, contains, dense, entries, generated_submodule, \
    intersect_ideals, radical, reference_generators, \
    reference_unit_indices, regular_module, shift, square_zero_document, \
    tensor


class TestConstruction:
    def test_grading_violation_names_triple(self):
        with pytest.raises(gc.GradingViolation) as e:
            gc.GradedAlgebra(Z(1), QQ,
                             [Z(1).zero, Z(1).element((1,))],
                             entries([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
                             [1, 0])
        assert "(1,1,0)" in str(e.value) or "(1, 1, 0)" in str(e.value)

    def test_unit_must_be_degree_zero(self):
        with pytest.raises(gc.AlgebraError):
            gc.GradedAlgebra(Z(1), QQ, [Z(1).element((1,))],
                             entries([[[1]]]), [1])

    def test_associativity_checked(self):
        # commutative and unital but (e1*e1)*e2 != e1*(e1*e2)
        with pytest.raises(gc.AssociativityViolation):
            gc.GradedAlgebra(ZERO_GROUP, GF(2),
                             [ZERO_GROUP.zero] * 3,
                             entries([[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                      [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                                      [[0, 0, 1], [1, 0, 0], [0, 0, 0]]]),
                             [1, 0, 0])

    def test_commutativity_checked(self):
        with pytest.raises(gc.CommutativityViolation):
            gc.GradedAlgebra(ZERO_GROUP, GF(2),
                             [ZERO_GROUP.zero] * 2,
                             entries([[[1, 0], [0, 1]], [[1, 0], [0, 0]]]),
                             [1, 0])

    def test_zero_ring(self):
        R = gc.GradedAlgebra(Z(1), QQ, [], [], [])
        assert R.dim == 0
        rc = gc.classify_ring(R)
        # zero ring: 1 = 0, so neither simple nor entire, but reduced
        assert (rc.simple, rc.entire, rc.reduced) == (False, False, True)


class TestEntries:
    """Rings and modules are built from, and keep, only their nonzero
    structure constants (i, j, k, c)."""

    def test_one_scalar_conversion_per_given_entry(self, monkeypatch):
        # K[X]/(X^32): 528 given entries, where a dense tensor has 32^3
        n = 32
        structure = [(i, j, i + j, 1) for i in range(n) for j in range(n - i)]
        unit = [1] + [0] * (n - 1)
        G = Z(1)
        calls, of = [], la.ScalarField.of

        def counted(self, x):
            calls.append(x)
            return of(self, x)
        monkeypatch.setattr(la.ScalarField, "of", counted)
        monkeypatch.setattr(gc._GradedSpace, "_check_module_axioms",
                            lambda self, R: None)
        R = gc.GradedAlgebra(G, QQ, [G.element((k,)) for k in range(n)],
                             structure, unit)
        assert len(calls) <= len(structure) + len(unit)
        assert len(R.entries()) == len(structure)

    @pytest.mark.parametrize("entry", [(0, 0, -1, 1), (0, 2, 0, 1),
                                       (2, 0, 0, 1), (-1, 0, 0, 1)])
    def test_index_out_of_range(self, entry):
        R = S.dual_numbers()
        with pytest.raises(IndexError):
            gc.GradedAlgebra(R.group, QQ, R.basis_degrees,
                             R.entries() + [entry], R.unit)
        with pytest.raises(IndexError):
            gm.GradedModule(R, R.basis_degrees, R.entries() + [entry])

    @pytest.mark.parametrize("seed", range(3))
    def test_rebuilt_from_shuffled_entries(self, seed):
        rng = random.Random(seed)
        R3 = S.truncated_polynomial_algebra(GF(3), 3)
        M = regular_module(R3)
        spaces = [S.truncated_polynomial_algebra(QQ, 6), S.group_algebra(3, 3),
                  rescaled_truncated(5), mixed_basis(GF(3)), M,
                  tensor(M, M)[0], gm.direct_sum(M, shift(
                      M, R3.basis_degrees[1])),
                  mod_x2(R3, [0, 0, 1])]
        for X in spaces:
            E = X.entries()
            rng.shuffle(E)
            if isinstance(X, gc.GradedAlgebra):
                Y = gc.GradedAlgebra(X.group, X.field, X.basis_degrees, E,
                                     X.unit)
            else:
                Y = gm.GradedModule(X.algebra, X.basis_degrees, E)
            assert Y == X and hash(Y) == hash(X)
            assert Y.entries() == X.entries() == sorted(E)


class TestElementClassification:
    def test_dual_numbers(self):
        R = S.dual_numbers()
        c = gc.classify_element(R, R.element([0, 1]))
        assert (c.unit, c.regular, c.nilpotent, c.homogeneous) == \
            (False, False, True, True)
        c = gc.classify_element(R, R.element([1, 1]))
        assert c.unit and not c.nilpotent and not c.homogeneous

    def test_group_algebra_f2(self):
        R = S.group_algebra(2, 2)
        c = gc.classify_element(R, R.element([0, 1]))
        assert (c.unit, c.regular, c.nilpotent, c.homogeneous) == \
            (True, True, False, True)
        c = gc.classify_element(R, R.element([1, 1]))
        assert (c.unit, c.regular, c.nilpotent, c.homogeneous) == \
            (False, False, True, False)

    def test_zero_element(self):
        R = S.dual_numbers()
        c = gc.classify_element(R, R.element([0, 0]))
        assert (c.unit, c.regular, c.nilpotent, c.homogeneous) == \
            (False, False, True, True)

    def test_unit_iff_regular_in_finite_dimension(self):
        for R in S.finite_corpus():
            for x in product(R.field.elements(), repeat=R.dim):
                c = gc.classify_element(R, list(x))
                assert c.unit == c.regular

    @given(st.sampled_from(S.finite_corpus()), st.data())
    @settings(max_examples=60, deadline=None)
    def test_power_is_repeated_multiplication(self, R, data):
        # x^p by repeated squaring against p - 1 products x . x^k
        f = R.field
        x = data.draw(st.lists(st.sampled_from(f.elements()),
                               min_size=R.dim, max_size=R.dim))
        xk = x
        for _ in range(f.p - 1):
            xk = R.act_vec(x, xk)
        assert gc.power(R, x, f.p) == xk
        assert gc.power(R, x, 1) == x and gc.power(R, x, 0) == list(R.unit)


class TestRingClassification:
    def test_examples(self):
        rc = gc.classify_ring(S.group_algebra(2, 2))
        assert rc.simple and rc.entire and rc.reduced
        rc = gc.classify_ring(S.gaussian_rationals())
        assert rc.simple and rc.entire and rc.reduced
        rc = gc.classify_ring(S.dual_numbers())
        assert not rc.simple and not rc.entire and not rc.reduced
        rc = gc.classify_ring(S.product_field_algebra())
        assert not rc.entire and rc.reduced and not rc.simple

    @pytest.mark.parametrize("pair", range(len(S.coarsening_pairs())))
    def test_agrees_with_oracle(self, pair):
        # on a coarsening pair's ring, its coarsening, and the quotients
        # of the ring by the ideal each basis vector generates
        R, psi = S.coarsening_pairs()[pair]
        rings = [R, coarsen(R, psi)] + [
            gc.quotient_ring(R, gc.ideal_from_gens(
                R, [la.unit_vector(R.field, R.dim, i)]))[0]
            for i in range(R.dim)]
        for A in rings:
            if A.dim == 0:
                continue   # the zero ring: the oracle's scan is vacuous
            rc = gc.classify_ring(A)
            assert {"simple": rc.simple, "entire": rc.entire,
                    "reduced": rc.reduced} == orc.oracle_ring_class(A)

    def test_exhaustive_stops_at_first_non_unit(self, monkeypatch):
        # coarse F2[Z/10] has 1023 nonzero homogeneous elements; the third
        # enumerated, e_8 + e_9 = g^8 (1 + g), is not a unit
        R = coarsen(S.group_algebra(2, 10), S.psi_Zmod_to_zero(10))
        calls, classify_element = [], gc.classify_element

        def counted(R, x):
            calls.append(x)
            return classify_element(R, x)
        monkeypatch.setattr(gc, "classify_element", counted)
        rc = gc.classify_ring(R)
        assert rc.method == "exhaustive" and rc.simple is False
        assert len(calls) == 3

    def test_implication_chain(self):
        # simple => entire => reduced on every corpus member
        for R in S.finite_corpus():
            rc = gc.classify_ring(R)
            if rc.simple:
                assert rc.entire
            if rc.entire:
                assert rc.reduced


IDEAL_RINGS = S.finite_corpus() + [
    S.dual_numbers(), S.truncated_polynomial_algebra(QQ, 4),
    S.gaussian_rationals(), S.field_extension_algebra(QQ, 3, 2)]


@st.composite
def rings_with_homogeneous_gens(draw):
    R = draw(st.sampled_from(IDEAL_RINGS))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(R.degrees()))
        v = [R.field.zero] * R.dim
        for i in R.component_indices(g):
            v[i] = R.field.of(draw(st.integers(-3, 3)))
        gens.append(v)
    return R, gens


class TestComponents:
    """The one component map: the degrees in ``coords`` order, each with
    its ascending basis indices, built once and read by ``degrees`` and
    ``component_indices``."""

    @pytest.mark.parametrize("shifts", [(), (0,), (2, 0, -1), (1, 1)])
    def test_a_partition_in_degree_order(self, shifts):
        G = Z(1)
        M = gm.free_module(S.truncated_polynomial_algebra(QQ, 3),
                           [G.element((s,)) for s in shifts])
        comps = M.components
        assert list(comps) == M.degrees() == sorted(
            set(M.basis_degrees), key=lambda g: g.coords)
        assert sorted(j for idx in comps.values() for j in idx) == \
            list(range(M.dim))
        for g, idx in comps.items():
            assert idx == sorted(idx)
            assert {M.basis_degrees[j] for j in idx} == {g}
            assert M.component_indices(g) is idx
        assert M.component_indices(G.element((99,))) == []
        assert M.components is comps


class TestIdealsAndQuotients:
    @given(rings_with_homogeneous_gens())
    @settings(max_examples=60, deadline=None)
    def test_ideal_is_submodule_of_regular_module(self, ring_gens):
        R, gens = ring_gens
        _, incl = generated_submodule(regular_module(R), gens)
        basis = [[row[j] for row in incl.matrix]
                 for j in range(incl.source.dim)]
        assert gc.ideal_from_gens(R, gens) == basis

    def test_principal_ideal_of_dual_numbers(self):
        R = S.dual_numbers()
        a = gc.ideal_from_gens(R, [[0, 1]])
        assert len(a) == 1
        Q, proj, reps = gc.quotient_ring(R, a)
        assert Q.dim == 1 and reps == [0]
        rc = gc.classify_ring(Q)
        assert rc.simple

    def test_nilradical(self):
        R = S.dual_numbers()
        nil = gc.nilradical(R)
        assert len(nil) == 1
        x, one = la.coords_in_basis(R.field, nil, [R.element([0, 1]),
                                                   R.element([1, 0])])
        assert x is not None and one is None
        assert len(gc.nilradical(S.gaussian_rationals())) == 0
        # graded notions only see homogeneous elements: x+1 is nilpotent
        # in F2[X]/(X^2-1) but not homogeneous, and x itself is a unit, so
        # this ring is a graded field even though it is not reduced as an
        # ungraded ring
        R = S.field_extension_algebra(GF(2), 2, 1)
        assert len(gc.nilradical(R)) == 0
        rc = gc.classify_ring(R)
        assert rc.simple and rc.reduced
        # yet classify_element detects the ungraded nilpotency
        c = gc.classify_element(R, R.element([1, 1]))
        assert c.nilpotent and not c.homogeneous

    def test_radical_idempotent(self):
        for R in S.finite_corpus():
            r1 = radical(R, [])
            r2 = radical(R, r1)
            assert r1 == r2

    def test_ideal_class(self):
        # a is maximal / prime / perfect iff R/a is simple / entire /
        # reduced
        R = S.dual_numbers()
        a = gc.ideal_from_gens(R, [[0, 1]])
        rc = gc.classify_ring(gc.quotient_ring(R, a)[0])
        assert rc.simple and rc.entire and rc.reduced
        rc = gc.classify_ring(gc.quotient_ring(R, [])[0])
        assert not rc.entire and not rc.reduced

    def test_quotient_ring_checks_its_ideal(self):
        R = S.truncated_polynomial_algebra(QQ, 3)
        with pytest.raises(gc.AlgebraError, match="not homogeneous"):
            gc.quotient_ring(R, [[1, 1, 0]])
        # span{x} in K[x]/(x^3) misses x . x = x^2
        with pytest.raises(gc.AlgebraError, match="not an ideal"):
            gc.quotient_ring(R, [[0, 1, 0]])

    def test_quotient_ring_checks_closure_under_generators(self,
                                                           monkeypatch):
        # (x^8) in Q[x]/(x^16): x . x^k for the 8 basis vectors x^k of
        # the ideal, where acting with all 16 basis vectors made 128
        R = S.truncated_polynomial_algebra(QQ, 16)
        a = gc.ideal_from_gens(R, [la.unit_vector(QQ, 16, 8)])
        assert R._generators == (1,)
        calls, act_vec = [0], gc._GradedSpace.act_vec

        def counted(self, x, v):
            calls[0] += 1
            return act_vec(self, x, v)
        monkeypatch.setattr(gc._GradedSpace, "act_vec", counted)
        Q, _, _ = gc.quotient_ring(R, a)
        assert Q.dim == 8 and calls[0] <= 8

    def test_ideal_from_gens_needs_homogeneous_generators(self):
        R = S.truncated_polynomial_algebra(QQ, 3)
        with pytest.raises(gc.AlgebraError, match="not homogeneous"):
            gc.ideal_from_gens(R, [[0, 1, 1]])

    def test_intersection(self):
        R = S.product_field_algebra()
        a = gc.ideal_from_gens(R, [[1, 0]])
        b = gc.ideal_from_gens(R, [[0, 1]])
        assert len(intersect_ideals(R, [a, b])) == 0


class TestSpectra:
    def test_spec_examples(self):
        R = S.truncated_polynomial_algebra(GF(2), 2)
        primes = gc.spec_enumerate(R)
        assert len(primes) == 1 and len(primes[0]) == 1
        primes = gc.spec_enumerate(S.group_algebra(2, 2))
        assert len(primes) == 1 and len(primes[0]) == 0
        primes = gc.spec_enumerate(S.product_field_algebra())
        assert len(primes) == 2

    def test_minimal_generators_solve_nothing(self, monkeypatch):
        # minimal_generators and nilradical_generators read their choice
        # off the pivots of one elimination each, on two copies of each
        # R/(1 + t^j), j = 2, 3, 4, 6, over coarse F2[Z/12] (dimension
        # 30, 8 generators); one membership solve per basis vector made
        # 30 solve_linear calls
        R = coarsen(S.group_algebra(2, 12), S.psi_Zmod_to_zero(12))
        M = gm.GradedModule(R, [], [])
        for j in (2, 3, 4, 6) * 2:
            gen = la.unit_vector(R.field, R.dim, 0)
            gen[j] = R.field.one
            _, incl = generated_submodule(regular_module(R), [gen])
            M = gm.direct_sum(M, cokernel(incl)[0])
        fresh = coarsen(S.group_algebra(2, 12), S.psi_Zmod_to_zero(12))

        def solved(*args):
            raise AssertionError("a linear system was solved")
        monkeypatch.setattr(la, "solve_linear", solved)
        monkeypatch.setattr(la, "coords_in_basis", solved)
        assert M.dim == 30 and len(gm.minimal_generators(M)) == 8
        # N = (t^3 - 1) over F2[t]/(t^12 - 1), and N/N^2 = R/N has dim 3
        assert len(gc.nilradical_generators(fresh)) == 3

    def test_coarse_f3_z6_within_budget(self):
        # F3[x]/(x^6 - 1) = F3[x]/((x - 1)^3 (x + 1)^3): two primes, one
        # for each primitive idempotent of (R/nil R)_0 = F3 x F3
        R = coarsen(S.group_algebra(3, 6), S.psi_Zmod_to_zero(6))
        start = time.perf_counter()
        assert len(gc.spec_enumerate(R)) == 2
        assert time.perf_counter() - start < 1.0

    def test_submodule_span_acts_once_per_basis_vector(self, monkeypatch):
        # one pass: each x_i acts once on each vector of a graded_span
        # basis of the generators
        rings = S.finite_corpus() + [
            coarsen(S.group_algebra(p, 6), S.psi_Zmod_to_zero(6))
            for p in (2, 3)]
        rng = random.Random(0)
        calls, act_vec = [0], gc._GradedSpace.act_vec

        def counted(self, x, v):
            calls[0] += 1
            return act_vec(self, x, v)
        monkeypatch.setattr(gc._GradedSpace, "act_vec", counted)
        for R in rings:
            for _ in range(20):
                gens = [[rng.randrange(R.field.p) for _ in range(R.dim)]
                        for _ in range(rng.randint(0, 3))]
                calls[0] = 0
                R.submodule_span(gens)
                assert calls[0] <= len(R.graded_span(gens)) * R.dim, \
                    (R, gens)

    def test_nil_is_intersection_of_spec(self):
        for R in S.finite_corpus():
            if R.field.p > 3 or R.dim > 4:
                continue
            primes = gc.spec_enumerate(R)
            assert intersect_ideals(R, primes) == gc.nilradical(R)


class TestMonoids:
    def test_sharpness(self):
        # M is sharp iff no generator is a unit
        assert gc.AffineMonoid(2, [(1, 0), (0, 1)]).units == ()
        assert gc.AffineMonoid(1, [(1,), (-1,)]).units == ((1,), (-1,))
        assert gc.AffineMonoid(2, [(1, 1), (1, -1)]).units == ()

    def test_membership(self):
        M = gc.AffineMonoid(2, [(1, 1), (1, -1)])
        assert contains(M, (2, 0)) is True
        assert contains(M, (1, 0)) is False
        assert contains(M, (0, 2)) is False

    def test_combinations_give_sharpness_witness(self):
        M = gc.AffineMonoid(1, [(1,), (-1,)])
        assert list(combinations(M, 1)) == [((0, 0), (0,)), ((0, 1), (-1,)),
                                            ((1, 0), (1,))]
        assert next(c for c, point in combinations(M, 16)
                    if any(c) and point == (0,)) == (1, 1)
        assert M.units == ((1,), (-1,))

    def test_combinations_walk_by_coefficient_sum(self):
        # every generator is reached within the first k + 1 tuples, the
        # first one listed as well as the last
        gens = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (-1, 0)]
        M = gc.AffineMonoid(2, gens)
        first = [point for _, point in islice(combinations(M, 32),
                                              len(gens) + 1)]
        assert first[0] == (0, 0) and sorted(first[1:]) == sorted(gens)
        assert contains(M, (1, 0)) is True
        sums = [sum(c) for c, _ in combinations(M, 4)]
        assert sums == sorted(sums)
        lex = [c for c, _ in combinations(M, 4)]
        assert sorted(lex, key=lambda c: (sum(c), c)) == lex
        assert len(lex) == len(set(lex)) == comb(4 + len(gens), len(gens))

    def test_outside_cone_decided_without_enumeration(self):
        # with no walk at all (bound 0) only the cone can answer
        M = gc.AffineMonoid(2, [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2),
                                (-1, 0)])
        assert contains(M, (0, -1), bound=0) is False

    def test_unreachable_point_in_cone_is_undecided_quickly(self):
        # 1 = 2a + 3b has no natural solution, but (1, 0) lies in the
        # cone and the lattice; the tuple walk took about 13 s over C(38, 6)
        # coefficient tuples, the distinct points of each sum are few
        M = gc.AffineMonoid(2, [(2, 0), (0, 2), (2, 2), (4, 2), (2, 4),
                                (3, 0)])
        t0 = time.perf_counter()
        assert contains(M, (1, 0)) is None
        assert time.perf_counter() - t0 < 1.0
        assert contains(M, (5, 2)) is True

    def test_membership_walk_stops_past_its_point_budget(self):
        # 7 = 2 + 2 + 3 is first reached at coefficient sum 3, after the
        # six points of sums 0 to 2 outgrew a budget of 3
        M = gc.AffineMonoid(1, [(2,), (3,)])
        assert contains(M, (7,)) is True
        assert contains(M, (7,), points=3) is None

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1,
                 max_size=4),
        st.tuples(*[st.integers(-6, 6)] * d),
        st.integers(0, 6))))
    def test_membership_agrees_with_tuple_walk(self, case):
        d, gens, m, bound = case
        M = gc.AffineMonoid(d, gens)
        walk = any(point == m for _, point in combinations(M, bound))
        answer = contains(M, m, bound)
        if answer is False:
            assert not walk
        else:
            assert answer == (True if walk or not any(m) else None)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1,
                 max_size=4),
        st.tuples(*[st.integers(-6, 6)] * d))))
    def test_units_agree_with_the_walk(self, case):
        # a generator g (m among them) is a unit iff -g lies in M,
        # wherever the walk decides that
        d, gens, m = case
        M = gc.AffineMonoid(d, gens + [m])
        for g in M.generators:
            a = contains(M, tuple(-x for x in g), 12)
            if a is not None and any(g):
                assert (g in M.units) is a

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                             max_size=10))))
    def test_units_agree_with_fourier_motzkin(self, case):
        # the one LP against one elimination per generator, wherever
        # no elimination step holds more than 2^12 constraints
        d, gens = case
        M = gc.AffineMonoid(d, gens)
        nonzero = [i for i, g in enumerate(M.generators) if any(g)]
        try:
            ref = reference_unit_indices(M.generators, nonzero)
        except EliminationTooLarge:
            return
        assert M.units == tuple(M.generators[i] for i in ref)

    def test_units_decided_where_the_walk_gives_up(self):
        # -(100) = 100 (-1) needs coefficient sum 100; the walk of sum
        # at most 32 leaves it open, the unit criterion does not
        M = gc.AffineMonoid(1, [(100,), (-1,)])
        assert contains(M, (-100,)) is None
        assert M.units == ((100,), (-1,))
        # a cone that is a half-plane: only (1, 0) and (-1, 0) are units
        M = gc.AffineMonoid(2, [(1, 0), (-1, 0), (3, 1), (-40, 1)])
        assert M.units == ((1, 0), (-1, 0))

    def test_laurent_units(self):
        L = S.laurent_algebra()
        assert L.monoid.units == ((1,), (-1,))
        rc = L.classify_ring()
        assert rc.entire and rc.reduced

    def test_polynomial_transfer(self):
        P = S.polynomial_monoid_algebra()
        rc = P.classify_ring()
        assert rc.entire and rc.reduced
        assert rc.simple is not True  # K[X] is not a graded field


class TestGuards:
    def test_spec_guard(self):
        R = S.truncated_polynomial_algebra(GF(5), 2)
        with pytest.raises(gc.SizeGuardExceeded):
            gc.spec_enumerate(R)

    def test_enumeration_guard(self):
        R = S.trivial_algebra(QQ, Z(1))
        with pytest.raises(gc.AlgebraError):
            list(R.homogeneous_vectors())


# ---------------------------------------------------------------------------
# the ring layer's fast paths against dense references
# ---------------------------------------------------------------------------

def in_basis(R, P):
    """R in the basis whose i-th vector has coordinates P[i], each
    homogeneous of the degree of the i-th old basis vector."""
    f, n, P = R.field, R.dim, [R.element(v) for v in P]
    structure = [la.coords_in_basis(f, P, [R.act_vec(P[i], P[j])
                                           for j in range(n)])
                 for i in range(n)]
    unit, = la.coords_in_basis(f, P, [list(R.unit)])
    return gc.GradedAlgebra(R.group, f, R.basis_degrees, entries(structure),
                            unit)


def rescaled_truncated(n):
    """Q[X]/(X^n) in the basis s_k X^k, s_k cycling through nonzero
    fractions."""
    scales = [Fraction(c) for c in ("1", "-2", "1/3", "3/2", "-1/2", "2/3")]
    return in_basis(S.truncated_polynomial_algebra(QQ, n),
                    [[scales[k % len(scales)] if i == k else 0
                      for k in range(n)] for i in range(n)])


Q_RING_FACTORIES = [
    S.trivial_algebra, S.dual_numbers,
    lambda: S.truncated_polynomial_algebra(QQ, 4), S.gaussian_rationals,
    lambda: S.field_extension_algebra(QQ, 3, 2),
    lambda: S.product_field_algebra(QQ),
] + [lambda n=n: rescaled_truncated(n) for n in range(1, 13)]


class TestTraceForm:
    @pytest.mark.parametrize("build", range(len(Q_RING_FACTORIES)))
    def test_gram_matches_products_of_multiplication_matrices(
            self, build, monkeypatch):
        R = Q_RING_FACTORIES[build]()
        f, n = R.field, R.dim
        L = [R.action_matrix(i) for i in range(n)]
        reference = [[sum((P[t][t] for t in range(n)), f.zero)
                      for P in (la.mat_mul(f, L[i], L[j]) for j in range(n))]
                     for i in range(n)]
        grams, trace_gram = [], gc._trace_gram

        def captured(R):
            grams.append(trace_gram(R))
            return grams[-1]
        monkeypatch.setattr(gc, "_trace_gram", captured)
        gc.nilradical(R)
        assert grams[0] == reference

    def test_classify_truncated_16_within_budget(self):
        # a guard against a return to n^2 dense products (about 5 s)
        R = S.truncated_polynomial_algebra(QQ, 16)
        t0 = time.perf_counter()
        rc = gc.classify_ring(R)
        assert time.perf_counter() - t0 < 1.0
        assert (rc.simple, rc.entire, rc.reduced) == (False, False, False)


class TestInvariantsComputedOnce:
    @pytest.mark.parametrize("build", [
        lambda: S.truncated_polynomial_algebra(QQ, 5),
        lambda: S.group_algebra(3, 3)], ids=["Q[X]/(X^5)", "F3[Z/3]"])
    def test_second_call_is_the_same_object_without_linear_algebra(
            self, build, monkeypatch):
        R = build()
        nil, rc = gc.nilradical(R), gc.classify_ring(R)

        def no_work(*args):
            raise AssertionError("linear algebra on a computed invariant")
        for name in ("rref", "rank", "kernel_basis", "mat_mul", "span_basis",
                     "solve_linear", "det"):
            monkeypatch.setattr(la, name, no_work)
        assert gc.nilradical(R) is nil and gc.classify_ring(R) is rc


def dense_axiom_check(space, R):
    """The construction check written with dense loops over every tensor
    entry and dense vectors: the reference for the check that reads only
    nonzero structure constants."""
    f, t, deg, m = space.field, dense(space), space.basis_degrees, space.dim
    xx = dense(R)

    def act(x, v):
        out = [f.zero] * m
        for i in range(R.dim):
            for j in range(m):
                for k in range(m):
                    out[k] = f.add(out[k], f.mul(f.mul(x[i], v[j]),
                                                 t[i][j][k]))
        return out
    for d in deg:
        if d.group != R.group:
            raise space._degree_error("basis degree outside the grading "
                                      "group")
    for i in range(R.dim):
        for j in range(m):
            for k in range(m):
                if t[i][j][k] != 0 and \
                        R.basis_degrees[i] + deg[j] != deg[k]:
                    raise gc.GradingViolation(
                        f"tensor entry ({i},{j},{k}) links degrees "
                        f"{R.basis_degrees[i]}+{deg[j]} != {deg[k]}")
    space._check_ring_axioms()
    basis = [la.unit_vector(f, m, j) for j in range(m)]
    for j, e in enumerate(basis):
        if act(R.unit, e) != e:
            raise space._unit_error(f"unit does not act as identity on "
                                    f"v_{j}")
    for i in range(R.dim):
        x = la.unit_vector(f, R.dim, i)
        for i2 in range(R.dim):
            for j, e in enumerate(basis):
                if act(xx[i][i2], e) != act(x, t[i2][j]):
                    raise space._associativity_error(
                        f"(x_{i} x_{i2}) v_{j} != x_{i} (x_{i2} v_{j})")


def mixed_basis(field):
    """K[X]/(X^3), trivially graded, in the basis 1, X + X^2, X - X^2:
    products such as (X + X^2)(X - X^2) = X^2 have terms that cancel."""
    return in_basis(coarsen(S.truncated_polynomial_algebra(field, 3),
                            S.psi_Z_to_zero()),
                    [[1, 0, 0], [0, 1, 1], [0, 1, -1]])


def mod_x2(R, x2):
    """R modulo the submodule generated by x2."""
    return cokernel(generated_submodule(regular_module(R),
                                              [x2])[1])[0]


AXIOM_BASES = [
    S.truncated_polynomial_algebra(QQ, 3),
    S.truncated_polynomial_algebra(GF(3), 3),
    S.field_extension_algebra(QQ, 3, 2),
    S.product_field_algebra(QQ),
    S.group_algebra(2, 3),
    coarsen(S.truncated_polynomial_algebra(QQ, 3), S.psi_Z_to_zero()),
    coarsen(S.group_algebra(3, 3), S.psi_Zmod_to_zero(3)),
    mixed_basis(QQ),
    mixed_basis(GF(3)),
]
AXIOM_BASES += [regular_module(R) for R in AXIOM_BASES[::2]] + [
    mod_x2(S.truncated_polynomial_algebra(GF(2), 3), [0, 0, 1]),
    mod_x2(AXIOM_BASES[5], [0, 0, 1]),
    mod_x2(AXIOM_BASES[7], [0, Fraction(1, 2), Fraction(-1, 2)]),
    mod_x2(AXIOM_BASES[8], [0, 2, 1])]


def _outcome(build):
    try:
        build()
    except ValueError as e:
        return type(e), str(e)
    return None


def _rebuild(base, tensor):
    if isinstance(base, gc.GradedAlgebra):
        return gc.GradedAlgebra(base.group, base.field, base.basis_degrees,
                                entries(tensor), base.unit)
    return gm.GradedModule(base.algebra, base.basis_degrees, entries(tensor))


def _both_outcomes(base, tensor):
    """(outcome of the constructor, outcome of the dense reference on the
    same tensor)."""
    with patch.object(gc._GradedSpace, "_check_module_axioms",
                      lambda self, R: None):
        unchecked = _rebuild(base, tensor)
    R = getattr(unchecked, "algebra", unchecked)
    return (_outcome(lambda: _rebuild(base, tensor)),
            _outcome(lambda: dense_axiom_check(unchecked, R)))


@st.composite
def perturbed_tensors(draw):
    """A base algebra or module and its tensor with one to three entries
    replaced; half the time the entry keeps the grading, and for an
    algebra half the time its mirror c[j][i][k] is replaced too."""
    base = draw(st.sampled_from(AXIOM_BASES))
    R = getattr(base, "algebra", base)
    deg, m = base.basis_degrees, base.dim
    T = dense(base)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, R.dim - 1)), draw(st.integers(0, m - 1))
        graded = [k for k in range(m) if R.basis_degrees[i] + deg[j] == deg[k]]
        if graded and draw(st.booleans()):
            k = draw(st.sampled_from(graded))
        else:
            k = draw(st.integers(0, m - 1))
        c = base.field.of(draw(st.integers(-2, 2)))
        T[i][j][k] = c
        if base is R and draw(st.booleans()):
            T[j][i][k] = c
    return base, T


class TestSparseAxiomCheck:
    @given(perturbed_tensors())
    @settings(max_examples=300, deadline=None)
    def test_raises_exactly_when_dense_check_raises(self, base_tensor):
        got, want = _both_outcomes(*base_tensor)
        assert got == want

    def test_every_violation_is_reached(self):
        # every single-entry change to 0 or 2 (and its mirror, for an
        # algebra): the outcomes agree and cover every kind of violation
        seen = set()
        for base in AXIOM_BASES:
            D = dense(base)
            m, r = base.dim, len(D)
            for i, j, k in product(range(r), range(m), range(m)):
                for c in (0, 2):
                    T = [[list(row) for row in block] for block in D]
                    T[i][j][k] = base.field.of(c)
                    if isinstance(base, gc.GradedAlgebra):
                        T[j][i][k] = base.field.of(c)
                    got, want = _both_outcomes(base, T)
                    assert got == want, (base, i, j, k, c)
                    seen.add(got and (got[0], got[1].split(" ")[0].rstrip(
                        "0123456789")))
        assert {None, (gc.GradingViolation, "tensor"),
                (gc.UnitViolation, "unit"),
                (gc.AssociativityViolation, "(x_"),
                (gm.ModuleError, "unit"), (gm.ModuleError, "(x_")} <= seen


def field_power(field, n):
    """K^n, trivially graded, in its idempotent basis e_0 .. e_{n-1}: two
    idempotents generate it when n = 3."""
    structure = [[[int(i == j == k) for k in range(n)] for j in range(n)]
                 for i in range(n)]
    return gc.GradedAlgebra(Z(1), field, [Z(1).zero] * n, entries(structure),
                            [1] * n)


def square_zero_pair(field):
    """K[x, y]/(x^2, y^2), graded by Z^2, in the basis 1, x, y, xy."""
    G = Z(2)
    mono = [(0, 0), (1, 0), (0, 1), (1, 1)]
    structure = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i, a in enumerate(mono):
        for j, b in enumerate(mono):
            c = (a[0] + b[0], a[1] + b[1])
            if c in mono:
                structure[i][j][mono.index(c)] = 1
    return gc.GradedAlgebra(G, field, [G.element(m) for m in mono],
                            entries(structure), [1, 0, 0, 0])


MULTI_GENERATOR_BASES = [field_power(QQ, 3), field_power(GF(3), 3),
                         square_zero_pair(QQ), square_zero_pair(GF(2))]
MULTI_GENERATOR_BASES += [regular_module(R)
                          for R in MULTI_GENERATOR_BASES[::2]]


class TestAlgebraGenerators:
    """The associativity check tries only the generators of
    ``GradedAlgebra._generators`` in the middle of its triples."""

    @pytest.mark.parametrize("R, count", [
        (S.truncated_polynomial_algebra(QQ, 5), 1), (field_power(QQ, 3), 2),
        (square_zero_pair(GF(2)), 2), (S.trivial_algebra(), 0)])
    def test_generators_span_the_algebra(self, R, count):
        assert len(R._generators) == count
        assert len(closure(R, [list(R.unit)], R._generators)) == R.dim

    def test_generators_match_the_span_closed_again_for_each(self):
        # the span of the words grows by what each new generator adds;
        # closing the whole span again for each one chooses the same
        rings = S.finite_corpus() + MULTI_GENERATOR_BASES[:4] + [
            S.truncated_polynomial_algebra(QQ, 5), S.gaussian_rationals(),
            S.trivial_algebra(), cli.ring_from_json(square_zero_document(9))]
        for R in rings:
            assert R._generators == reference_generators(R), R

    def test_validate_closes_each_generator_once(self, monkeypatch, capsys):
        # dimension 100 with 99 generators: each new x_s acts on the s
        # words so far, and the s generators then act on x_s, 9900
        # act_vec calls, and the unit check makes 100 more; closing the
        # whole span again for each generator made 333,400
        parsed, calls, act_vec = [], [0], gc._GradedSpace.act_vec
        ring_from_json = cli.ring_from_json

        def counted(self, x, v):
            calls[0] += 1
            return act_vec(self, x, v)
        monkeypatch.setattr(gc._GradedSpace, "act_vec", counted)
        monkeypatch.setattr(cli, "ring_from_json", lambda *args:
                            parsed.append(ring_from_json(*args)) or parsed[-1])
        doc = json.dumps(square_zero_document(100))
        assert cli.run(["validate", doc]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert calls[0] <= 10000
        assert parsed[0]._generators == tuple(range(1, 100))

    def test_construction_check_skips_the_triples_that_vanish(self):
        # x_i x_i2 = 0 and x_i2 v_j = 0 make both sides of a triple 0:
        # on the square-zero ring of dimension 30, with generators
        # x_1..x_29, only the triples with i = 0 or j = 0 are walked,
        # 29 x (30 + 29); walking every one took 29 x 30 x 30 = 26,100
        calls, previous = [0], sys.getprofile()

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "associative":
                calls[0] += 1
        sys.setprofile(count)
        try:
            R = cli.ring_from_json(square_zero_document(30))
        finally:
            sys.setprofile(previous)
        assert R._generators == tuple(range(1, 30))
        assert calls[0] == 29 * (30 + 29)

    def test_violations_beyond_the_first_generator(self):
        # every single-entry change to 0 or 2 (and its mirror, for an
        # algebra) of bases that need two generators
        for base in MULTI_GENERATOR_BASES:
            D = dense(base)
            m, r = base.dim, len(D)
            for i, j, k in product(range(r), range(m), range(m)):
                for c in (0, 2):
                    T = [[list(row) for row in block] for block in D]
                    T[i][j][k] = base.field.of(c)
                    if isinstance(base, gc.GradedAlgebra):
                        T[j][i][k] = base.field.of(c)
                    got, want = _both_outcomes(base, T)
                    assert got == want, (base, i, j, k, c)


class TestRecords:
    """Equality, hashing, frozen-ness, defaults and repr of the records."""

    def test_element_and_ring_and_ideal_classes(self):
        a = gc.ElementClass(True, True, False, True)
        assert_record(a, gc.ElementClass(unit=True, regular=True,
                                         nilpotent=False, homogeneous=True),
                      gc.ElementClass(True, True, True, True),
                      (True, True, False, True),
                      gc.RingClass(True, True, False, True), frozen=True)
        assert repr(a) == ("ElementClass(unit=True, regular=True, "
                           "nilpotent=False, homogeneous=True)")
        r = gc.RingClass(True, True, True, "m")
        assert_record(r, gc.RingClass(simple=True, entire=True, reduced=True,
                                      method="m"),
                      gc.RingClass(None, True, True, "m"),
                      (True, True, True, "m"),
                      gc.ElementClass(True, True, True, "m"), frozen=True)
        assert repr(r) == ("RingClass(simple=True, entire=True, reduced=True,"
                           " method='m')")
        for args, kwargs in ((("m",), {}), ((1, 2, 3, "m", 5), {}),
                             ((1, 2, 3, "m"), {"simple": 1}),
                             ((1, 2, 3), {"mode": "m"})):
            with pytest.raises(TypeError):
                gc.RingClass(*args, **kwargs)
