"""Finitely generated abelian groups in invariant-factor coordinates.

Groups are stored as Z^r x Z/d_1 x ... x Z/d_k with d_1 | d_2 | ... | d_k
and every d_i >= 2.  Elements carry free coordinates first, torsion
coordinates last, the latter reduced to [0, d_i).  Homomorphisms are
integer matrices acting on coordinate columns.

``smith_normal_form`` is the one factorisation here: U A V = D, with
U^-1 and V^-1 built beside U and V.  An ``IntegerSystem`` keeps one and
reads the rest off it: integer solutions (U, then V), the kernel
(columns of V) and coordinates in it (rows of V^-1), the lattice the
columns span (d_j times column j of U^-1) and coordinates in it (U).
Each homomorphism factors [M | D_H], its matrix beside the target's
relation columns, once, and reads its preimages, the index of its
image and its kernel lattice from that form; the kernel group takes a
second one, for its invariant factors, when the source has torsion.
A quotient group reads its projection from U and its lift from U^-1.
The relations of the target are diagonal in these coordinates, so
whether a vector lies in their lattice is a reduction, with no
factorisation at all.
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
    """Return (U, D, V, Ui, Vi) with U*A*V = D, U and V unimodular,
    Ui = U^-1, Vi = V^-1, and D diagonal with d_1 | d_2 | ... and all
    diagonal entries nonnegative.  Each row operation on D and U puts
    its inverse on the columns of Ui, each column operation on D and V
    its inverse on the rows of Vi."""
    if not A:
        return [], [], [], [], []
    n, m = len(A), len(A[0])
    D = [row[:] for row in A]
    U, Ui = _identity(n), _identity(n)
    V, Vi = _identity(m), _identity(m)

    def swap_rows(i, j):
        for M in (D, U):
            M[i], M[j] = M[j], M[i]
        for row in Ui:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in D + V:
            row[i], row[j] = row[j], row[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def add_row(src, dst, c):
        for M in (D, U):
            M[dst] = [x + c * y for x, y in zip(M[dst], M[src])]
        for row in Ui:
            row[src] -= c * row[dst]

    def add_col(src, dst, c):
        for row in D + V:
            row[dst] += c * row[src]
        Vi[src] = [x - c * y for x, y in zip(Vi[src], Vi[dst])]

    t = 0
    while t < min(n, m):
        # the nonzero entry of least absolute value, the first of equals
        piv = min(((abs(D[i][j]), i, j) for i in range(t, n)
                   for j in range(t, m) if D[i][j]), default=None)
        if piv is None:
            break
        swap_rows(t, piv[1])
        swap_cols(t, piv[2])
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
            for M in (D, U):
                M[t] = [-x for x in M[t]]
            for row in Ui:
                row[t] = -row[t]
        # divisibility: D[t][t] must divide every later entry
        bad = next((i for i in range(t + 1, n) if any(
            D[i][j] % D[t][t] for j in range(t + 1, m))), None)
        if bad is None:
            t += 1
        else:
            add_row(bad, t, 1)
    return U, D, V, Ui, Vi


class IntegerSystem:
    """One Smith form U A V = D of an integer matrix A with m columns,
    read for the diagonal of D, one integer solution of A x = b, a
    basis of the integer kernel of A and a basis of the lattice the
    columns of A span, with coordinates in the last.  A may have no
    rows."""

    def __init__(self, A, m):
        self.U, D, self.V, self.Uinv, self.Vinv = smith_normal_form(A) \
            if A else ([], [], _identity(m), [], _identity(m))
        self.diagonal = [D[i][i] for i in range(min(len(A), m))]
        # the nonzero diagonal comes first
        self.rank = sum(1 for d in self.diagonal if d)

    def image_coords(self, b):
        """Coordinates y of b in ``image_basis``, y_i = (U b)_i / d_i, or
        None when b lies outside the lattice: a division is inexact or
        (U b)_i is nonzero past the rank."""
        y = []
        for i, c in enumerate(mat_vec(self.U, b)):
            if i < self.rank and c % self.diagonal[i] == 0:
                y.append(c // self.diagonal[i])
            elif c:
                return None
        return y

    def solve(self, b):
        """One integer x with A x = b, or None: x = V y."""
        y = self.image_coords(b)
        return None if y is None else mat_vec(self.V, y)

    def kernel(self):
        """Basis (list of columns) of the integer kernel of A: the columns
        of V past the rank.  A kernel vector v has the coordinates
        (V^-1 v)[rank:] in it."""
        return [list(col) for col in zip(*self.V)][self.rank:]

    def image_basis(self):
        """Basis (list of columns) of the lattice the columns of A span:
        the first rank columns of A V = U^-1 D, d_j times column j of
        U^-1."""
        return [[d * row[j] for row in self.Uinv]
                for j, d in enumerate(self.diagonal[:self.rank])]


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
        """(Z^n / <relation_cols>, projection, lift): the projection maps
        Z^n coordinates to canonical ones (rows of U), the lift canonical
        generator j to a representative in Z^n (columns of U^-1)."""
        n = n_generators
        if not relation_cols:
            return FGAbelianGroup(n, ()), _identity(n), _identity(n)
        system = IntegerSystem([[col[i] for col in relation_cols]
                                for i in range(n)], len(relation_cols))
        # coordinate i is free for a zero diagonal entry, dropped for a unit
        diag = system.diagonal + [0] * (n - len(system.diagonal))
        keep = [i for i, d in enumerate(diag) if d == 0] + \
            [i for i, d in enumerate(diag) if d >= 2]
        group = FGAbelianGroup(n - system.rank,
                               tuple(d for d in diag if d >= 2))
        return (group, [system.U[i] for i in keep],
                [[system.Uinv[i][j] for j in keep] for i in range(n)])


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
        read it.  M's torsion rows are reduced first: the same map, and
        smaller entries for the form to grow.  Written to __dict__, so
        equality and hashing keep to the fields."""
        rel = self.target.relation_columns()
        mods = [0] * self.target.free_rank + list(self.target.torsion_factors)
        return IntegerSystem([[x % d if d else x for x in row] +
                              [col[i] for col in rel] for i, (row, d) in
                              enumerate(zip(self.matrix, mods))],
                             self.source.dim + len(rel))

    @cached_property
    def _kernel(self):
        """kernel_data of the map, kept like _system.  The preimage
        lattice P = {x : M x in L_H} has the kernel of [M | D_H], cut to
        its first n coordinates, as a basis B: D_H has full column rank,
        so no kernel vector has a zero x-part.  K = P / L_G."""
        n, system = self.source.dim, self._system
        B = [v[:n] for v in system.kernel()]
        if not B:
            return ZERO_GROUP, GroupHom(ZERO_GROUP, self.source,
                                        [[]] * n), True, True, 1
        # a source relation c lies in P beside w = -(M c)_tors / d, M's
        # rows reduced as in _system, so its coordinates in B are those
        # of (c, w) in the kernel basis
        f, C_cols = self.target.free_rank, []
        for c in self.source.relation_columns():
            w = [-sum(x % d * y for x, y in zip(row, c)) // d for row, d in
                 zip(self.matrix[f:], self.target.torsion_factors)]
            C_cols.append(mat_vec(system.Vinv, c + w)[system.rank:])
        K, _, lift = FGAbelianGroup.from_presentation(len(B), C_cols)
        incl = GroupHom(K, self.source, mat_mul(list(zip(*B)), lift))
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
        return None if sol is None else self.source.element(
            sol[:self.source.dim])


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
    epi = all(d == 1 for d in image_index_data(h))
    mono = kernel_data(h)[0].dim == 0
    return epi, mono, epi and mono
