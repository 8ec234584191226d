"""Helpers shared by the test modules: the record-behaviour check and a
plain record to compare against, dense tensor literals and views of
structure constants, the module constructions that only the tests build
inputs with (regular module, shift, generated submodule, image,
cokernel, tensor product, dual morphism, radical of an ideal), and
cross-checks that only the tests run (duality, the injective dimension
walked through cokernels, Lambek, the currying adjunction, the morphism
axioms checked on every basis vector, the action of a submodule and of
HOM with its coordinates solved for, the dense spans, kernels,
isomorphism tests and minimality test that the core's per-component
solves are held to, algebra generators chosen by
re-closing the whole span, intersections of ideals, a walk over every
homogeneous element for a single generator, the element tables of a
finite algebra, and, for an affine monoid, the Fourier-Motzkin
elimination that its unit LP is held to and the bounded walks over its
points), the integer kernels and lattice bases that the one Smith form
of ``gradex.abgroups`` is held to, and a CLI document whose every basis
vector but the unit is a generator."""

import signal

import pytest

import gradex.abgroups as ag
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
# module constructions that only the tests build inputs with
# ---------------------------------------------------------------------------

def regular_module(R):
    """R as a module over itself."""
    return gm.GradedModule._derived(R, R.basis_degrees, R.entries())


def shift(M, g):
    """The g-shift: component at h is the old component at g + h."""
    return gm.GradedModule._derived(M.algebra,
                                    [d - g for d in M.basis_degrees],
                                    M.entries())


def generated_submodule(M, gens):
    """Graded submodule generated by the given vectors; returns
    (module, inclusion).  Coordinates are made field values first."""
    gens = [[M.field.of(c) for c in v] for v in gens]
    return gm._module_on_subspace(M, M.submodule_span(gens))


def image(u):
    """(image module, inclusion into the target)."""
    return gm._module_on_subspace(u.target, gm._image_span(u))


def cokernel(u):
    """(cokernel module, projection from the target)."""
    C, proj = gm._quotient_module(u.target, gm._image_span(u))
    return C, gm.ModuleMorphism._derived(u.target, C, proj)


def tensor(M, N):
    """M tensor N over the algebra, the quotient of V = M tensor_K N
    (x_i acting through M) by the graded span of x_i m (x) n - m (x) x_i n;
    returns (T, proj) with proj the matrix from pure-tensor coordinates
    (index j*dim(N)+k) to T."""
    if M.algebra != N.algebra:
        raise gm.ModuleError("tensor over different algebras")
    R, f = M.algebra, M.field
    m, n = M.dim, N.dim
    rels = []
    for i in range(R.dim):
        for j in range(m):
            for k in range(n):
                rel = [f.zero] * (m * n)
                for j2, c in M._nz[i][j]:
                    rel[j2 * n + k] = c
                for k2, c in N._nz[i][k]:
                    rel[j * n + k2] = f.sub(rel[j * n + k2], c)
                rels.append(rel)
    V = gm.GradedModule._derived(R, [dm + dn for dm in M.basis_degrees
                                     for dn in N.basis_degrees],
                                 [(i, j * n + k, j2 * n + k, c)
                                  for i, j, j2, c in M.entries()
                                  for k in range(n)])
    return gm._quotient_module(V, V.graded_span(rels))


def dual_morphism(u):
    """Transpose: dual(target) -> dual(source)."""
    T = [[u.matrix[k][j] for k in range(u.target.dim)]
         for j in range(u.source.dim)]
    return gm.ModuleMorphism._derived(gh.dual(u.target), gh.dual(u.source), T)


def radical(R, a):
    """Preimage of nil(R/a) under the projection."""
    Q, _, reps = gc.quotient_ring(R, a)
    return gc.ideal_from_gens(R, list(a) + [
        gc._scatter(R.field, R.dim, reps, v) for v in gc.nilradical(Q)])


# ---------------------------------------------------------------------------
# cross-checks of the homological layer
# ---------------------------------------------------------------------------

def is_injective(M):
    return gh.is_projective(gh.dual(M))


def injective_dimension_direct(M, cutoff=8):
    """Cross-check of ``ghom.dimension(M, "injective")``, which decides
    by one split test of dual(M)'s cover: here the injective resolution
    is walked directly, embedding each cosyzygy into the dual of a free
    module and stepping to the cokernel, up to cutoff steps."""
    K = M
    for n in range(cutoff + 1):
        if is_injective(K):
            return gh.DimensionReport("injective", n, cutoff)
        p = gh.minimal_cover(gh.dual(K))
        # dualize: K = dual(dual(K)) embeds into dual(F), an injective
        emb = gm.ModuleMorphism(K, gh.dual(p.source),
                                [[p.matrix[k][j] for k in range(p.target.dim)]
                                 for j in range(p.source.dim)])
        K, _ = cokernel(emb)
    return gh.DimensionReport("injective", None, cutoff)


def duality_involution_check(M):
    """dual(dual(M)) equals M and the evaluation map is the identity."""
    DD = gh.dual(gh.dual(M))
    return DD == M


def mono_epi_duality_check(u):
    """u is mono iff dual(u) is epi (of full rank), and vice versa."""
    du = dual_morphism(u)
    epi = [la.rank(v.target.field, v.matrix) == v.target.dim for v in (u, du)]
    return u.is_mono() == epi[1] and epi[0] == du.is_mono()


def lambek_check(M):
    """M is flat (projective, for these finitely generated modules) iff
    HOM(M, E) is injective, with E = dual(R) the injective cogenerator."""
    E = gh.dual(regular_module(M.algebra))
    H, _ = gm.graded_hom(M, E)
    return gh.is_projective(M) == is_injective(H)


def cogenerator_faithfulness_check(M):
    """HOM(-, E) kills no nonzero module."""
    E = gh.dual(regular_module(M.algebra))
    H, _ = gm.graded_hom(M, E)
    return (M.dim == 0) == (H.dim == 0)


def lambek_dimension_check(M, cutoff=8):
    """id(HOM(M, E)) <= fd(M), compared as cutoff-bounded reports."""
    E = gh.dual(regular_module(M.algebra))
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
    T, proj = tensor(M, N)
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
# dense references for what the core solves per component or generator
# block: spans by homogeneous parts, kernels by one kernel_basis of the
# whole matrix, isomorphisms by one determinant, minimality against the
# radical of each free module
# ---------------------------------------------------------------------------

def homogeneous_parts(X, v):
    """Degree -> homogeneous part of the coordinate vector v, as a vector
    of length X.dim."""
    out = {}
    for j, c in enumerate(v):
        if c:
            out.setdefault(X.basis_degrees[j], [X.field.zero] * X.dim)[j] = c
    return out


def reference_graded_span(X, vectors):
    """Per degree, in ``coords`` order, the rref basis of the homogeneous
    parts of the vectors, each reduced on all X.dim columns."""
    by_degree = {}
    for v in vectors:
        for g, w in homogeneous_parts(X, v).items():
            by_degree.setdefault(g, []).append(w)
    return [b for g in sorted(by_degree, key=lambda g: g.coords)
            for b in la.span_basis(X.field, by_degree[g])]


def reference_kernel_basis(u):
    """The basis of ``gm.kernel(u)``: one kernel_basis of the whole matrix
    of u, brought to the canonical basis by homogeneous parts."""
    return reference_graded_span(u.source, la.kernel_basis(
        u.source.field, u.matrix, u.source.dim))


def reference_is_iso(u):
    """A square matrix of nonzero determinant."""
    return (u.source.dim == u.target.dim
            and la.det(u.target.field, u.matrix) != 0)


def reference_is_minimal(res):
    """Does each kernel of the resolution lie in the radical submodule of
    the free module it is included in?"""
    f = res.target.field
    return all(None not in la.coords_in_basis(
        f, gm.radical_submodule(p.source), [list(c) for c in
                                            zip(*incl.matrix)])
        for p, incl in zip(res.covers, res.incls))


# ---------------------------------------------------------------------------
# generators: spans closed by brute force, membership solved for
# ---------------------------------------------------------------------------

def closure(X, vectors, acting):
    """A basis of the span of the vectors closed under the x_i with i in
    ``acting``: every product taken again until the span stops
    growing."""
    f = X.field
    span = la.span_basis(f, vectors)
    while True:
        grown = la.span_basis(f, span + [
            la.mat_vec_mul(f, X.action_matrix(i), v)
            for v in span for i in acting])
        if len(grown) == len(span):
            return span
        span = grown


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
            words = closure(R, words, S)
    return tuple(S)


def reference_minimal_generators(M):
    """The unit vectors ``gm.minimal_generators`` chooses, one membership
    solve each: e joins when it is not in the radical plus the
    submodules the vectors chosen before it generate."""
    f = M.field
    span = list(gm.radical_submodule(M))
    chosen = []
    for j in sorted(range(M.dim),
                    key=lambda t: (M.basis_degrees[t].coords, t)):
        e = la.unit_vector(f, M.dim, j)
        if la.coords_in_basis(f, span, [e])[0] is None:
            chosen.append(e)
            span += closure(M, [e], range(M.algebra.dim))
    return chosen


def reference_nilradical_generators(R):
    """The basis vectors of N = nil(R) that ``gc.nilradical_generators``
    chooses, one rank each: v joins when it is not in N^2 plus the
    vectors chosen before it."""
    f, N = R.field, gc.nilradical(R)
    square = R.graded_span([R.act_vec(x, y) for x in N for y in N])
    gens = []
    for v in N:
        if la.rank(f, square + gens + [v]) > len(square) + len(gens):
            gens.append(v)
    return gens


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
    return not any(rhs > 0 for _, rhs in cons)


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
# integer lattices: bases, solutions and kernels by separate Smith forms
# ---------------------------------------------------------------------------

def _columns(cols, n):
    """The n-row matrix with the given columns."""
    return [[col[i] for col in cols] for i in range(n)]


def lattice_column_basis(cols, n):
    """Basis of the lattice in Z^n spanned by the given columns: the
    columns of A V with a nonzero diagonal entry in U A V = D."""
    if not cols or not n:
        return []
    A = _columns(cols, n)
    _, D, V = ag.smith_normal_form(A)[:3]
    AV = ag.mat_mul(A, V)
    r = sum(1 for i in range(min(n, len(cols))) if D[i][i] != 0)
    return [[AV[i][j] for i in range(n)] for j in range(r)]


def integer_solutions(cols, n, bs):
    """For each b, one integer x with A x = b, or None: A is the n-row
    matrix of the given columns, in one Smith form of its own."""
    if not cols or not n:
        return [None if any(b) else [0] * len(cols) for b in bs]
    U, D, V = ag.smith_normal_form(_columns(cols, n))[:3]
    return [_solution(U, D, V, len(cols), b) for b in bs]


def _solution(U, D, V, m, b):
    y = [0] * m
    for i, c in enumerate(ag.mat_vec(U, b)):
        d = D[i][i] if i < min(len(U), m) else 0
        if d and c % d == 0:
            y[i] = c // d
        elif c:
            return None
    return ag.mat_vec(V, y)


def _xgcd(a, b):
    """(g, x, y) with g = x a + y b a gcd of a and b, up to sign."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hermite_basis(cols, n):
    """The column Hermite normal form of the lattice in Z^n that the
    columns span: one basis per lattice, so two generating sets span the
    same lattice iff their forms are equal.  Row by row, extended-gcd
    steps on pairs of columns leave one pivot, made positive, and the
    entries of the earlier pivots in its row are reduced modulo it."""
    rest, basis = [list(c) for c in cols], []
    for i in range(n):
        piv, others = None, []
        for c in rest:
            if not c[i]:
                others.append(c)
            elif piv is None:
                piv = c
            else:
                g, x, y = _xgcd(piv[i], c[i])
                a, b = piv[i] // g, c[i] // g
                piv, c = ([x * p + y * q for p, q in zip(piv, c)],
                          [b * p - a * q for p, q in zip(piv, c)])
                others.append(c)
        rest = others
        if piv is not None:
            piv = piv if piv[i] > 0 else [-p for p in piv]
            basis = [[p - b[i] // piv[i] * q for p, q in zip(b, piv)]
                     for b in basis] + [piv]
    return basis


def reference_quotient_group(n, relation_cols):
    """(group, lift) of Z^n / <relation_cols>: the lift inverts U by a
    second Smith form (Uk U V = I, so U^-1 = V Uk)."""
    if not relation_cols:
        return ag.FGAbelianGroup(n, ()), [[int(i == j) for j in range(n)]
                                          for i in range(n)]
    U, D, _ = ag.smith_normal_form(_columns(relation_cols, n))[:3]
    diag = [D[i][i] if i < len(relation_cols) else 0 for i in range(n)]
    keep = [i for i, d in enumerate(diag) if d == 0] + \
        [i for i, d in enumerate(diag) if d >= 2]
    Uk, I, V = ag.smith_normal_form(U)[:3]
    assert all(I[i][i] == 1 for i in range(n))
    Uinv = ag.mat_mul(V, Uk)
    group = ag.FGAbelianGroup(sum(1 for d in diag if d == 0),
                              tuple(d for d in diag if d >= 2))
    return group, [[Uinv[i][j] for j in keep] for i in range(n)]


class _Expired(Exception):
    pass


def within(seconds, f, *args):
    """f(*args), or None when a wall-clock alarm ends it after
    ``seconds`` (POSIX, main thread only)."""
    def expire(*_):
        raise _Expired
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return f(*args)
    except _Expired:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def reference_kernel(h):
    """(K, incl matrix) for the kernel of the group map h: the preimage
    lattice P = {x : M x in L_H} rebuilt as a lattice basis from the
    kernel of [M | D_H] and the source relations, those relations solved
    for in that basis, and K = P / L_G: the chain that
    ``GroupHom._kernel`` replaces, with up to three more Smith forms.
    Their transforms can grow without bound even on maps of a few
    generators: Z^2 x Z/3 x Z/15 -> Z/3 x Z/15 with the columns (2, 14),
    (0, 7), (1, 5), (2, 0) ran past 60 s on a 2-vCPU machine, where
    ``GroupHom._kernel`` takes under 1 ms."""
    n, rel_G = h.source.dim, h.source.relation_columns()
    rel_H = h.target.relation_columns()
    A = [list(row) + [c[i] for c in rel_H] for i, row in enumerate(h.matrix)]
    m = n + len(rel_H)
    kernel = [[int(i == j) for i in range(m)] for j in range(m)]
    if A:
        _, D, V = ag.smith_normal_form(A)[:3]
        r = sum(1 for i in range(min(len(A), m)) if D[i][i])
        kernel = [list(col) for col in zip(*V)][r:]
    P = lattice_column_basis([v[:n] for v in kernel] + rel_G, n)
    if not P:
        return ag.ZERO_GROUP, [[]] * n
    C_cols = integer_solutions(P, n, rel_G)
    K, lift = reference_quotient_group(len(P), C_cols)
    return K, ag.mat_mul(_columns(P, n), lift)


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
