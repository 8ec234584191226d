"""Finitely generated abelian groups in invariant-factor coordinates.

Groups are stored as Z^r x Z/d_1 x ... x Z/d_k with d_1 | d_2 | ... | d_k
and every d_i >= 2.  Elements carry free coordinates first, torsion
coordinates last, the latter reduced to [0, d_i).  Homomorphisms are
integer matrices acting on coordinate columns.  Each one factors
[M | D_H], its matrix beside the target's relation columns, once in
Smith normal form (an ``IntegerSystem``), and reads its preimages, the
index of its image and its kernel from that form.  The relations of
the target are diagonal in these coordinates, so whether a vector lies
in their lattice is a reduction, with no factorisation at all.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from ._record import Record


class GroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrix utilities (arbitrary precision)
# ---------------------------------------------------------------------------

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, m = len(A), len(B[0])
    k = len(B)
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(A, v):
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def smith_normal_form(A):
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal
    with d_1 | d_2 | ... and all diagonal entries nonnegative."""
    if not A:
        return [], [], []
    n, m = len(A), len(A[0])
    D = [row[:] for row in A]
    U = _identity(n)
    V = _identity(m)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        for j in range(m):
            D[dst][j] += c * D[src][j]
        for j in range(n):
            U[dst][j] += c * U[src][j]

    def add_col(src, dst, c):
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(n, m):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, n):
            for j in range(t, m):
                if D[i][j] != 0:
                    if piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, n):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    add_row(t, i, -q)
                    if D[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    add_col(t, j, -q)
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if D[t][t] < 0:
            negate_row(t)
        # divisibility: D[t][t] must divide every later entry
        fixed = True
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if D[i][j] % D[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    return U, D, V


class IntegerSystem:
    """One Smith form U A V = D of an integer matrix A with m columns,
    read for the diagonal of D, one integer solution of A x = b and a
    basis of the integer kernel of A.  A may have no rows."""

    def __init__(self, A, m):
        self.U, D, self.V = smith_normal_form(A) if A else \
            ([], [], _identity(m))
        self.diagonal = [D[i][i] for i in range(min(len(A), m))]

    def solve(self, b):
        """One integer x with A x = b, or None."""
        y = [0] * len(self.V)
        for i, c in enumerate(mat_vec(self.U, b)):
            d = self.diagonal[i] if i < len(self.diagonal) else 0
            if d and c % d == 0:
                y[i] = c // d
            elif c:
                return None
        return mat_vec(self.V, y)

    def kernel(self):
        """Basis (list of columns) of the integer kernel of A: the columns
        of V past the nonzero diagonal, which comes first."""
        r = sum(1 for d in self.diagonal if d)
        return [list(col) for col in zip(*self.V)][r:]


def lattice_column_basis(cols, n):
    """Basis of the lattice in Z^n spanned by the given columns."""
    if not cols or not n:
        return []
    A = [[col[i] for col in cols] for i in range(n)]
    U, D, V = smith_normal_form(A)
    # columns of A*V with nonzero diagonal span the lattice in triangular form
    AV = mat_mul(A, V)
    r = sum(1 for i in range(min(n, len(cols))) if D[i][i] != 0)
    return [[AV[i][j] for i in range(n)] for j in range(r)]


# ---------------------------------------------------------------------------
# groups, elements, homomorphisms
# ---------------------------------------------------------------------------

class FGAbelianGroup(Record, frozen=True):
    _fields = ("free_rank", "torsion_factors")

    def __init__(self, free_rank, torsion_factors):
        if free_rank < 0:
            raise GroupError("free rank must be nonnegative")
        torsion_factors = tuple(torsion_factors)
        for d in torsion_factors:
            if d < 2:
                raise GroupError(f"torsion factor {d} < 2")
        for a, b in zip(torsion_factors, torsion_factors[1:]):
            if b % a != 0:
                raise GroupError(f"torsion factors {a}, {b} break divisibility")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion_factors", torsion_factors)

    @property
    def dim(self):
        return self.free_rank + len(self.torsion_factors)

    @property
    def is_torsionfree(self):
        return not self.torsion_factors

    @property
    def is_finite(self):
        return self.free_rank == 0

    @property
    def order(self):
        if not self.is_finite:
            return None
        n = 1
        for d in self.torsion_factors:
            n *= d
        return n

    def element(self, coords):
        return GroupElement(self, tuple(coords))

    @property
    def zero(self):
        return self.element((0,) * self.dim)

    def relation_columns(self):
        """Columns generating the relation lattice in Z^dim."""
        cols = []
        for i, d in enumerate(self.torsion_factors):
            col = [0] * self.dim
            col[self.free_rank + i] = d
            cols.append(col)
        return cols

    def reduce(self, coords):
        coords = list(coords)
        for i, d in enumerate(self.torsion_factors):
            coords[self.free_rank + i] %= d
        return tuple(coords)

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion_factors]
        return " x ".join(parts) if parts else "0"

    @staticmethod
    def from_presentation(n_generators, relation_cols):
        """Z^n modulo the lattice spanned by the given columns, plus the
        projection matrix from Z^n coordinates to canonical coordinates."""
        return _quotient_group(n_generators, relation_cols)


ZERO_GROUP = FGAbelianGroup(0, ())


def Z(n=1):
    return FGAbelianGroup(n, ())


def Zmod(*ds):
    return FGAbelianGroup(0, tuple(ds))


class GroupElement(Record, frozen=True):
    _fields = ("group", "coords")

    def __init__(self, group, coords):
        if len(coords) != group.dim:
            raise GroupError("coordinate length mismatch")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", group.reduce(coords))

    def __add__(self, other):
        if other.group != self.group:
            raise GroupError("elements of different groups")
        return GroupElement(self.group,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, n):
        return GroupElement(self.group, tuple(n * a for a in self.coords))

    @property
    def is_zero(self):
        return all(a == 0 for a in self.coords)

    def has_infinite_order(self):
        return any(self.coords[i] != 0 for i in range(self.group.free_rank))

    def order(self):
        """The order of the element, None when it is infinite."""
        if self.has_infinite_order():
            return None
        tors = self.coords[self.group.free_rank:]
        return lcm(*(d // gcd(c, d)
                     for c, d in zip(tors, self.group.torsion_factors)))

    def __repr__(self):
        return f"{self.coords}"


def _quotient_group(n, relation_cols):
    """Z^n / <relation_cols>; returns (group, projection matrix, lift matrix).

    projection: Z^n coords -> canonical coords of the quotient.
    lift: canonical generator j -> a representative in Z^n.
    """
    if not relation_cols:
        return FGAbelianGroup(n, ()), _identity(n), _identity(n)
    system = IntegerSystem([[col[i] for col in relation_cols]
                            for i in range(n)], len(relation_cols))
    # coordinate i is free for a zero diagonal entry, dropped for a unit
    diag = system.diagonal + [0] * (n - len(system.diagonal))
    free_idx = [i for i, d in enumerate(diag) if d == 0]
    tors_idx = [i for i, d in enumerate(diag) if d >= 2]
    keep = free_idx + tors_idx
    group = FGAbelianGroup(len(free_idx), tuple(diag[i] for i in tors_idx))
    proj = [system.U[i][:] for i in keep]
    Uinv = _matrix_inverse_unimodular(system.U)
    lift = [[Uinv[i][j] for j in keep] for i in range(n)]
    return group, proj, lift


def _matrix_inverse_unimodular(U):
    """Inverse of a unimodular integer matrix."""
    n = len(U)
    Uk, D, V = smith_normal_form(U)
    # U is unimodular, so D is the identity and U^{-1} = V * Uk
    for i in range(n):
        if D[i][i] != 1:
            raise GroupError("matrix is not unimodular")
    return mat_mul(V, Uk)


class GroupHom(Record, frozen=True):
    # matrix: rows of integers, target.dim x source.dim
    _fields = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        mat = tuple(tuple(row) for row in matrix)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", mat)
        if len(mat) != target.dim or any(len(r) != source.dim for r in mat):
            raise GroupError("hom matrix has wrong shape")
        # well-definedness: source relations must land in the target
        # lattice, which is diagonal in invariant-factor coordinates
        for col in source.relation_columns():
            if any(target.reduce(mat_vec(mat, col))):
                raise GroupError("hom does not respect torsion relations")

    @cached_property
    def _system(self):
        """[M | D_H], the matrix beside the target's relation columns, in
        one Smith form: preimages, the image index and the kernel all
        read it.  Written to __dict__, so equality and hashing keep to
        the fields."""
        rel = self.target.relation_columns()
        return IntegerSystem([list(row) + [col[i] for col in rel]
                              for i, row in enumerate(self.matrix)],
                             self.source.dim + len(rel))

    @cached_property
    def _kernel(self):
        """kernel_data of the map, kept like _system."""
        n, rel_G = self.source.dim, self.source.relation_columns()
        # preimage lattice P = {x : M x in L_H}: the kernel of [M | D_H],
        # cut to its first n coordinates, with the source relations
        P = lattice_column_basis([v[:n] for v in self._system.kernel()]
                                 + rel_G, n)
        s = len(P)
        if s == 0:
            return ZERO_GROUP, GroupHom(ZERO_GROUP, self.source,
                                        [[]] * n), True, True, 1
        B = [[P[j][i] for j in range(s)] for i in range(n)]  # n x s basis
        # K = P / L_G, so express the source relations in the basis B
        C_cols = []
        if rel_G:
            system = IntegerSystem(B, s)
            C_cols = [system.solve(col) for col in rel_G]
            if None in C_cols:
                raise GroupError("internal: relation outside preimage "
                                 "lattice")
        K, _, lift = _quotient_group(s, C_cols)
        incl = GroupHom(K, self.source, mat_mul(B, lift))
        return K, incl, K.is_torsionfree, K.is_finite, K.order

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group != self.source:
            raise GroupError("element not in the source group")
        return self.target.element(mat_vec(self.matrix, x.coords))

    def preimage(self, y: GroupElement):
        """Some x with self(x) = y, or None."""
        if y.group != self.target:
            raise GroupError("element not in the target group")
        sol = self._system.solve(list(y.coords))
        if sol is None:
            return None
        return self.source.element(sol[:self.source.dim])


def kernel_data(h: GroupHom):
    """(K, incl, torsionfree, finite, order) for the kernel of h, computed
    once per map (``GroupHom._kernel``).  K is in invariant-factor form;
    incl is a monomorphism K -> source whose image is exactly ker(h)."""
    return h._kernel


def image_index_data(h: GroupHom):
    """Invariant factors of target / image(h); all 1 means epimorphism."""
    diag = h._system.diagonal
    return diag + [0] * (h.target.dim - len(diag))


def hom_props(h: GroupHom):
    """(epi, mono, iso) flags."""
    diag = image_index_data(h)
    epi = all(d == 1 for d in diag)
    K, _, _, _, order = kernel_data(h)
    mono = (K.dim == 0)
    return epi, mono, epi and mono
