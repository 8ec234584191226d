"""Helpers shared by the test modules: the record-behaviour check and a
plain record to compare against, dense tensor literals and views of
structure constants, and cross-checks that only the tests run (duality,
Lambek, the currying adjunction, the morphism axioms checked on every
basis vector, the action of a submodule and of HOM with its coordinates
solved for, algebra generators chosen by re-closing the whole span,
intersections of ideals, a walk over every homogeneous element for a
single generator, the element tables of a finite algebra, and,
for an affine monoid, the Fourier-Motzkin elimination that its unit LP
is held to and the bounded walks over its points), and a CLI document
whose every basis vector but the unit is a generator."""

import pytest

import gradex.exactla as la
import gradex.gcore as gc
import gradex.ghom as gh
import gradex.gmod as gm
import gradex.oracles as orc
from gradex._record import Record


class Pair(Record, frozen=True):
    """A record of two fields, to tell other records of two fields from."""
    _fields = ("first", "second")


def assert_record(a, b, c, fields, other, frozen, hashable_fields=True):
    """a and b are equal records and c differs from them in one field.
    a equals neither ``other`` (a record of another class) nor the plain
    tuple ``fields`` of its field values.  A frozen record refuses
    assignment and deletion, and hashes like its equal twin when its field
    values are hashable; a record that is not frozen is unhashable."""
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != other and other != a
    assert a != fields and fields != a
    cls = type(a)
    if frozen:
        assert cls.__hash__ is not None
        if hashable_fields:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)
        name = next(iter(vars(a)))
        value = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)


# ---------------------------------------------------------------------------
# dense tensors
# ---------------------------------------------------------------------------

def entries(T):
    """The entries (i, j, k, T[i][j][k]) of a dense tensor literal, zeros
    included."""
    return [(i, j, k, c) for i, block in enumerate(T)
            for j, row in enumerate(block) for k, c in enumerate(row)]


def dense(space):
    """The dense tensor T[i][j][k] of a ring's or module's entries, as
    lists."""
    f, m = space.field, space.dim
    r = getattr(space, "algebra", space).dim
    T = [[[f.zero] * m for _ in range(m)] for _ in range(r)]
    for i, j, k, c in space.entries():
        T[i][j][k] = c
    return T


# ---------------------------------------------------------------------------
# cross-checks of the homological layer
# ---------------------------------------------------------------------------

def duality_involution_check(M):
    """dual(dual(M)) equals M and the evaluation map is the identity."""
    DD = gh.dual(gh.dual(M))
    return DD == M


def mono_epi_duality_check(u):
    """u is mono iff dual(u) is epi, and vice versa."""
    du = gh.dual_morphism(u)
    return u.is_mono() == du.is_epi() and u.is_epi() == du.is_mono()


def lambek_check(M):
    """is_flat(M) must equal is_injective(HOM(M, E)) with E = dual(R)."""
    E = gh.injective_cogenerator(M.algebra)
    H, _ = gm.graded_hom(M, E)
    return gh.is_flat(M) == gh.is_injective(H)


def cogenerator_faithfulness_check(M):
    """HOM(-, E) kills no nonzero module."""
    E = gh.injective_cogenerator(M.algebra)
    H, _ = gm.graded_hom(M, E)
    return (M.dim == 0) == (H.dim == 0)


def lambek_dimension_check(M, cutoff=8):
    """id(HOM(M, E)) <= fd(M), compared as cutoff-bounded reports."""
    E = gh.injective_cogenerator(M.algebra)
    H, _ = gm.graded_hom(M, E)
    idh = gh.dimension(H, "injective", cutoff)
    fdm = gh.dimension(M, "flat", cutoff)
    if fdm.value is None:
        return True
    return idh.value is not None and idh.value <= fdm.value


def adjunction_dims_check(M, N, P):
    """Currying bijection HOM(M tensor N, P) = HOM(M, HOM(N, P)):
    compares graded dimensions and checks that currying is a
    degree-preserving linear isomorphism."""
    f = M.field
    T, proj = gm.tensor(M, N)
    H1, maps1 = gm.graded_hom(T, P)
    HNP, mapsNP = gm.graded_hom(N, P)
    H2, maps2 = gm.graded_hom(M, HNP)
    if sorted((d.coords, c) for d, c in H1.hilbert().items()) != \
            sorted((d.coords, c) for d, c in H2.hilbert().items()):
        return {"ok": False, "reason": "graded dimensions differ"}
    flatNP = [[x for row in F for x in row] for F in mapsNP]
    # F: T -> P curries to v_j |-> the map n_k |-> F(v_j tensor n_k)
    FTs = [la.mat_mul(f, F, proj) for F in maps1]  # pure tensors -> P
    cols = la.coords_in_basis(f, flatNP, [
        [FT[r][j * N.dim + k] for r in range(P.dim) for k in range(N.dim)]
        for FT in FTs for j in range(M.dim)])
    if None in cols:
        return {"ok": False, "reason": "curried map leaves HOM(N,P)"}
    curried = [[x for c in cols[a * M.dim:(a + 1) * M.dim] for x in c]
               for a in range(len(maps1))]
    flat2 = []
    for F in maps2:  # F: M -> HNP, matrix HNP.dim x M.dim
        flat2.append([F[t][j] for j in range(M.dim) for t in range(HNP.dim)])
    if not flat2:
        return {"ok": len(curried) == 0, "dims": 0}
    C = la.coords_in_basis(f, flat2, curried)
    if None in C:
        return {"ok": False, "reason": "currying misses HOM(M,HOM(N,P))"}
    Cm = [[C[j][i] for j in range(len(C))] for i in range(len(flat2))]
    ok = (len(C) == len(flat2)
          and la.rank(f, Cm) == len(flat2)) if C else len(flat2) == 0
    return {"ok": ok, "dims": len(flat2)}


# ---------------------------------------------------------------------------
# morphisms: equivariance under every basis vector
# ---------------------------------------------------------------------------

def _shape_and_degrees(S, T, F):
    return (len(F) == T.dim and all(len(row) == S.dim for row in F)
            and all(c == 0 or T.basis_degrees[k] == S.basis_degrees[j]
                    for k, row in enumerate(F) for j, c in enumerate(row)))


def is_module_morphism(S, T, F):
    """Is the matrix F a morphism S -> T of modules over one algebra:
    the right shape, degree-preserving, and F A_i = B_i F for every
    basis vector x_i of the algebra, A_i and B_i its actions on S and
    T?"""
    f = T.field
    return (S.algebra == T.algebra and _shape_and_degrees(S, T, F)
            and all(la.mat_mul(f, F, S.action_matrix(i))
                    == la.mat_mul(f, T.action_matrix(i), F)
                    for i in range(S.algebra.dim)))


def is_ring_morphism(A, B, F):
    """Is the matrix F a graded ring morphism A -> B: a common grading
    group, the right shape, degree-preserving, unital, and F(x_i a) =
    F(x_i) F(a) for every basis vector x_i of A?"""
    f = B.field
    if A.group != B.group or not _shape_and_degrees(A, B, F):
        return False
    return (la.mat_vec_mul(f, F, list(A.unit)) == list(B.unit)
            and is_multiplicative(A, B, F))


def is_multiplicative(A, B, F):
    """F(x_i a) = F(x_i) F(a) for every basis vector x_i of A and every
    a, F of the right shape."""
    f = B.field
    return all(la.mat_mul(f, F, A.action_matrix(i))
               == la.mat_mul(f, B.mult_matrix([row[i] for row in F]), F)
               for i in range(A.dim))


# ---------------------------------------------------------------------------
# module coordinates solved for in a basis: the reference for gmod,
# which reads them at the leads of the basis or HOM's free slots
# ---------------------------------------------------------------------------

def _entries_from_coords(coords, k):
    """Action entries (i, j, t, c), sorted, from the coordinates of each
    x_i . b_j in a basis b_0 .. b_{k-1}, listed at position i * k + j."""
    return sorted((p // k, p % k, t, c) for p, row in enumerate(coords)
                  for t, c in enumerate(row) if c)


def solved_subspace_action(M, basis):
    """Action entries on a basis of a subspace of M closed under the
    action, each x_i . b_j solved for in the basis."""
    f, r = M.field, M.algebra.dim
    return _entries_from_coords(la.coords_in_basis(f, basis, [
        M.act_vec(la.unit_vector(f, r, i), b)
        for i in range(r) for b in basis]), len(basis))


def solved_hom_action(N, maps):
    """Action entries of HOM(-, N) on its basis maps, each x_i . F =
    B_i F solved for among the flattened maps."""
    f = N.field
    flat = [[x for row in F for x in row] for F in maps]
    return _entries_from_coords(la.coords_in_basis(f, flat, [
        [x for row in la.mat_mul(f, N.action_matrix(i), F) for x in row]
        for i in range(N.algebra.dim) for F in maps]), len(maps))


# ---------------------------------------------------------------------------
# algebra generators: the span re-closed for each new generator
# ---------------------------------------------------------------------------

def reference_generators(R):
    """The greedy generators of ``GradedAlgebra._generators``, the span of
    the words in them closed again under every generator so far each
    time one joins."""
    f, n = R.field, R.dim
    S, words = [], R.graded_span([R.unit])
    for s in range(n):
        if len(words) == n:
            break
        if la.coords_in_basis(f, words,
                              [la.unit_vector(f, n, s)]) == [None]:
            S.append(s)
            words = R.submodule_span(words, S)
    return tuple(S)


def square_zero_document(n):
    """The trivially graded F2 algebra of dimension n with unit x_0 and
    x_i x_j = 0 for i, j >= 1, as a CLI document: each x_i with i >= 1
    is one of its generators."""
    return {"group": {"free_rank": 0, "torsion": []}, "field": {"p": 2},
            "basis": [{"degree": []}] * n,
            "mul": [[0, j, [[j, 1]]] for j in range(n)]
            + [[j, 0, [[j, 1]]] for j in range(1, n)],
            "unit": [1] + [0] * (n - 1)}


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def intersect_ideals(R, ideals):
    """Intersection of graded ideals.  It is a graded subspace, so the
    rref basis of the intersection is homogeneous."""
    if not ideals:
        raise gc.AlgebraError("empty intersection")
    basis = ideals[0]
    for I in ideals[1:]:
        basis = _intersect_subspaces(R.field, basis, I)
    return R.graded_span(gc._homogeneous(R, basis, "intersection basis "
                                                   "vector"))


def _intersect_subspaces(f, B1, B2):
    """rref basis of span(B1) meet span(B2): the B1 halves of the kernel
    of [B1 | -B2], mapped through B1."""
    if not B1 or not B2:
        return []
    k = len(B1)
    A = [[b[i] for b in B1] + [f.neg(b[i]) for b in B2]
         for i in range(len(B1[0]))]
    B = [row[:k] for row in A]
    return la.span_basis(f, [la.mat_vec_mul(f, B, c[:k])
                             for c in la.kernel_basis(f, A, k + len(B2))])


# ---------------------------------------------------------------------------
# affine monoids: Fourier-Motzkin elimination and bounded walks
# ---------------------------------------------------------------------------

def combinations(M, bound):
    """Every (coefficients, point): natural coefficients of the
    generators of the affine monoid M summing to at most ``bound``, by
    increasing sum and lexicographically within one sum, and the point
    they combine to."""
    gens = M.generators

    def rec(i, remaining, coeffs, point):
        if i == len(gens):
            if remaining == 0:
                yield coeffs, point
            return
        # the last generator takes whatever the sum has left
        for c in (range(remaining + 1) if i < len(gens) - 1
                  else (remaining,)):
            nxt = tuple(x + c * y for x, y in zip(point, gens[i]))
            yield from rec(i + 1, remaining - c, coeffs + (c,), nxt)

    for total in range(bound + 1):
        yield from rec(0, total, (), M.zero)


FOURIER_MOTZKIN_LIMIT = 2 ** 12


class EliminationTooLarge(Exception):
    """A Fourier-Motzkin step would hold more than its limit."""


def fourier_motzkin_feasible(cons):
    """Feasibility over Q of the constraints (coeffs, rhs), each meaning
    coeffs . x >= rhs, by eliminating every variable in turn: next the
    one that pairs the fewest constraints of opposite signs.  A step can
    square the number of constraints, so one that would hold more than
    FOURIER_MOTZKIN_LIMIT raises EliminationTooLarge before it is
    formed."""
    left = set(range(len(cons[0][0]) if cons else 0))
    while left:
        v = min(left, key=lambda u: sum(c[u] > 0 for c, _ in cons)
                * sum(c[u] < 0 for c, _ in cons))
        left.remove(v)
        pos = [(c, r) for c, r in cons if c[v] > 0]
        neg = [(c, r) for c, r in cons if c[v] < 0]
        zero = [(c, r) for c, r in cons if c[v] == 0]
        size = len(zero) + len(pos) * len(neg)
        if size > FOURIER_MOTZKIN_LIMIT:
            raise EliminationTooLarge(f"step of {size} constraints")
        # eliminate v: combine with weights |nc[v]| and pc[v]
        cons = zero + [
            ([-nc[v] * x + pc[v] * y for x, y in zip(pc, nc)],
             -nc[v] * pr + pc[v] * nr) for pc, pr in pos for nc, nr in neg]
    return all(rhs <= 0 for _, rhs in cons)


def reference_unit_indices(vectors, candidates):
    """The i in ``candidates`` with v_i a unit of the monoid the vectors
    generate, one elimination each: by Tucker's theorem of the
    alternative, v_i is a unit iff no w has v_j . w >= 0 for all j and
    v_i . w >= 1, a system in only dim v variables."""
    rows = [list(map(la.QQ.of, v)) for v in vectors]
    nonneg = [(row, la.QQ.zero) for row in rows]
    return [i for i in candidates if not fourier_motzkin_feasible(
        nonneg + [(rows[i], la.QQ.one)])]


def contains(M, m, bound=32, points=2 ** 18):
    """Is m a natural combination of the generators of M?  True / False
    / None (no combination with coefficient sum at most ``bound``
    reaches m, or the walk outgrew ``points`` points)."""
    m = tuple(int(x) for x in m)
    if all(x == 0 for x in m):
        return True
    if M.diff_coords(m) is None:
        return False
    # outside the rational cone (no lambda >= 0 with sum lambda_i g_i
    # = m, each equality written as two inequalities) m is not in M
    gens = [g for g in M.generators if any(x != 0 for x in g)]
    cons = []
    for t in range(M.ambient_dim):
        coeffs = [la.QQ.of(g[t]) for g in gens]
        cons.append((coeffs, la.QQ.of(m[t])))
        cons.append(([-c for c in coeffs], la.QQ.of(-m[t])))
    for i in range(len(gens)):
        cons.append((la.unit_vector(la.QQ, len(gens), i), la.QQ.zero))
    if not fourier_motzkin_feasible(cons):
        return False
    # the distinct points of coefficient sum 1, 2, ..., bound, one
    # layer per sum: a point met in an earlier layer adds nothing new.
    # Past ``points`` points the walk stops as at the bound.
    seen, layer = {M.zero}, {M.zero}
    for _ in range(bound):
        layer = {tuple(x + y for x, y in zip(p, g))
                 for p in layer for g in gens} - seen
        if m in layer:
            return True
        seen |= layer
        if len(seen) > points:
            break
    return None


# ---------------------------------------------------------------------------
# generators and element tables
# ---------------------------------------------------------------------------

def monogeneous_by_walk(M, limit=gc.HOMOGENEOUS_ENUM_LIMIT):
    """Over F_p: is M generated by one homogeneous element?  Every
    nonzero homogeneous m is tried, as a generator when the x_i . m span
    M; more than ``limit`` candidates raise SizeGuardExceeded."""
    f, R = M.field, M.algebra
    xs = [la.unit_vector(f, R.dim, i) for i in range(R.dim)]
    return M.dim == 0 or any(
        la.rank(f, [M.act_vec(x, m) for x in xs]) == M.dim
        for _, m in M.homogeneous_vectors(limit))


def exhaustive_classify(R):
    """Tables of unit / regular / nilpotent flags for every element of a
    finite algebra, by direct multiplication only: each element x is
    multiplied by every element and by its own powers."""
    p, consts, one = R.field.p, R.entries(), list(R.unit)
    elements = list(orc._all_vectors(R.field, R.dim))
    zero = [0] * R.dim
    table = []
    for x in elements:
        products = [orc._mul_vec(p, consts, x, y) for y in elements]
        unit = not x or one in products
        regular = not x or all(q != zero for q, y in zip(products, elements)
                               if y != zero)
        power = x
        for _ in range(max(len(x), 1)):
            if power == zero:
                break
            power = orc._mul_vec(p, consts, power, x)
        table.append({"element": tuple(x), "unit": unit, "regular": regular,
                      "nilpotent": power == zero})
    return table
