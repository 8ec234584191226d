"""Exact scalar fields (Q and prime fields) and dense linear algebra.

Scalars are ``Rational`` values over Q and least residues (ints in
[0, p)) over F_p; matrices are lists of rows.  Everything is exact, no
floating point anywhere.  Membership of a whole batch of vectors in
the span of one basis is decided by one ``solve_linear`` elimination
(``coords_in_basis``); the callers read coordinates in a reduced basis
at its leads instead of solving for them.
"""

from __future__ import annotations

import random
import sys
from itertools import product
from math import gcd

from ._record import Record


class FieldError(ValueError):
    pass


class DimensionError(ValueError):
    pass


# Miller-Rabin with the prime bases 2..41 is deterministic below
# PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p):
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# rational numbers
# ---------------------------------------------------------------------------

_new = object.__new__
_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


def _q(n, d):
    """The Rational n/d of coprime ints n and d > 0, unchecked."""
    r = _new(Rational)
    r.numerator = n
    r.denominator = d
    return r


def _operand(b):
    """b as a Rational when it is an int (bools included) or a
    ``fractions.Fraction``, else None.  A Fraction exists only once its
    module has been imported, so ``fractions`` is looked up, never
    imported."""
    if isinstance(b, int):
        return _q(int(b), 1)
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(b, fractions.Fraction):
        return _q(b.numerator, b.denominator)
    return None


def _sum(na, da, nb, db):
    """na/da + nb/db in lowest terms (Henrici: gcds of the denominators
    only), both given in lowest terms."""
    if da == db:    # integer entries, the common case, need no gcd
        if da == 1:
            return _q(na + nb, 1)
        n = na + nb
        g = gcd(n, da)
        return _q(n // g, da // g)
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    return _q(t // g2, s * (db // g2))


class Rational:
    """An exact rational number numerator/denominator, always in lowest
    terms with denominator > 0; the attributes are never assigned after
    construction.  It equals, hashes, orders and prints like the
    ``fractions.Fraction`` of the same value, and mixes with ints and
    Fractions in arithmetic and comparisons (not with floats).

    Its operations are written out for the two-int representation
    rather than dispatched through ``numbers.Rational``, and it needs no
    import beyond ``math.gcd``.  It has no ``__init__`` and its
    module-level helpers are private: bench/tracer.py wraps every
    gradex ``__init__`` and public function, and a span on every scalar
    operation would swamp the trace.
    """

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator=0, denominator=1):
        if numerator.__class__ is not int or \
                denominator.__class__ is not int:
            raise TypeError("a Rational is made from two ints")
        if denominator == 0:
            raise ZeroDivisionError(f"Rational({numerator}, 0)")
        g = gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        return _q(numerator // g, denominator // g)

    def __add__(a, b):
        if b.__class__ is not Rational:
            b = _operand(b)
            if b is None:
                return NotImplemented
        return _sum(a.numerator, a.denominator, b.numerator, b.denominator)

    __radd__ = __add__

    def __sub__(a, b):
        if b.__class__ is not Rational:
            b = _operand(b)
            if b is None:
                return NotImplemented
        return _sum(a.numerator, a.denominator, -b.numerator, b.denominator)

    def __mul__(a, b):
        if b.__class__ is not Rational:
            b = _operand(b)
            if b is None:
                return NotImplemented
        na, da, nb, db = a.numerator, a.denominator, b.numerator, \
            b.denominator
        if db == 1:     # an integer factor needs one gcd, or none
            if da == 1:
                return _q(na * nb, 1)
            g = gcd(nb, da)
            return _q(na * (nb // g), da // g)
        if da == 1:
            g = gcd(na, db)
            return _q((na // g) * nb, db // g)
        g1 = gcd(na, db)
        g2 = gcd(nb, da)
        return _q((na // g1) * (nb // g2), (da // g2) * (db // g1))

    __rmul__ = __mul__

    def __truediv__(a, b):
        if b.__class__ is not Rational:
            b = _operand(b)
            if b is None:
                return NotImplemented
        nb, db = b.numerator, b.denominator
        if nb == 0:
            raise ZeroDivisionError(f"Rational({a.numerator}, 0)")
        if nb < 0:
            nb, db = -nb, -db
        return a * _q(db, nb)

    def __neg__(a):
        return _q(-a.numerator, a.denominator)

    def __bool__(a):
        return a.numerator != 0

    def __eq__(a, b):
        if b.__class__ is not Rational:
            if b.__class__ is int:
                return a.denominator == 1 and a.numerator == b
            b = _operand(b)
            if b is None:
                return NotImplemented
        return a.numerator == b.numerator and a.denominator == b.denominator

    def __ne__(a, b):
        if b.__class__ is not Rational:
            if b.__class__ is int:
                return a.denominator != 1 or a.numerator != b
            b = _operand(b)
            if b is None:
                return NotImplemented
        return a.numerator != b.numerator or a.denominator != b.denominator

    def _cmp(a, b):
        """a - b scaled by the positive denominators, or None."""
        if b.__class__ is not Rational:
            b = _operand(b)
            if b is None:
                return None
        return a.numerator * b.denominator - b.numerator * a.denominator

    def __lt__(a, b):
        c = a._cmp(b)
        return NotImplemented if c is None else c < 0

    def __gt__(a, b):
        c = a._cmp(b)
        return NotImplemented if c is None else c > 0

    def __hash__(a):
        # the numeric hash every equal int, Fraction and float has
        n, d = a.numerator, a.denominator
        if d == 1:
            return hash(n)
        try:
            h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
        except ValueError:
            h = _HASH_INF
        # (hash() itself turns -1 into -2)
        return h if n >= 0 else -h

    def __str__(a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __repr__(a):
        return f"Rational({a.numerator}, {a.denominator})"


def _parse_rational(s):
    """The Rational a string spells, or FieldError.  "[+-]digits" and
    "[+-]digits/digits" are read here; any other string, and any digits
    that int() refuses, go to ``fractions.Fraction``, imported only
    then, so exactly the strings a Fraction accepts are accepted, with
    its value, except an exponent beyond the int-to-str digit limit,
    for which Fraction would build 10^|exp| before any size guard."""
    num, slash, den = s.partition("/")
    if (num[1:] if num[:1] in ("+", "-") else num).isdigit() and (
            not slash or den.isdigit()):
        try:
            n, d = int(num), int(den) if slash else 1
        except ValueError:
            d = 0
        if d:
            return Rational(n, d)
    try:   # (a limit of 0 means none; 4300 digits is the default)
        huge = abs(int(s.lower().partition("e")[2] or 0)) > (
            sys.get_int_max_str_digits() or 4300)
    except ValueError:   # no integer exponent: Fraction refuses it below
        huge = False
    if huge:
        raise FieldError(f"exponent out of range: {s!r}")
    from fractions import Fraction
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise FieldError(f"not an exact scalar: {s!r}") from None
    return _q(x.numerator, x.denominator)


# shared (Rationals are immutable): equal entries then compare by identity
_Q_ZERO, _Q_ONE = _q(0, 1), _q(1, 1)


class ScalarField(Record, frozen=True):
    _fields = ("p",)  # 0 means Q

    def __init__(self, p):
        if p >= PRIME_BOUND:
            raise FieldError(f"{p} is too large: primality is decided "
                             f"only below {PRIME_BOUND}")
        if p != 0 and not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    @property
    def is_rational(self):
        return self.p == 0

    @property
    def is_finite(self):
        return self.p != 0

    def of(self, x):
        """Exact value of an int, a Rational, a Fraction or a string such
        as "1/2" (over F_p, a/b is a times the inverse of b); no floats
        or bools."""
        c = x.__class__
        if c is int:
            return x % self.p if self.p else _q(x, 1)
        if c is not Rational:
            if c is str:
                x = _parse_rational(x)
            else:
                fractions = sys.modules.get("fractions")
                if fractions is None or c is not fractions.Fraction:
                    raise FieldError(f"not an exact scalar: {x!r}")
                x = _q(x.numerator, x.denominator)
        if self.p == 0:
            return x
        if x.denominator % self.p == 0:
            raise FieldError(f"{x} has no value mod {self.p}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    @property
    def zero(self):
        return _Q_ZERO if self.p == 0 else 0

    @property
    def one(self):
        return _Q_ONE if self.p == 0 else 1

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p:
            return pow(a, self.p - 2, self.p)
        n, d = a.numerator, a.denominator
        return _q(d, n) if n > 0 else _q(-d, -n)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        if self.p == 0:
            raise FieldError("Q cannot be enumerated")
        return range(self.p)

    def __repr__(self):
        return "Q" if self.p == 0 else f"F{self.p}"


QQ = ScalarField(0)


def GF(p):
    """The prime field F_p; 0 is refused like any other non-prime (the
    ScalarField with p = 0 is Q)."""
    if p == 0:
        raise FieldError("0 is not prime")
    return ScalarField(p)


# ---------------------------------------------------------------------------
# vectors and matrices (lists of rows over a field)
# ---------------------------------------------------------------------------

def zeros(field, n, m):
    return [[field.zero] * m for _ in range(n)]


def unit_vector(field, n, i):
    """The i-th standard basis vector of field^n."""
    v = [field.zero] * n
    v[i] = field.one
    return v


def eye(field, n):
    M = zeros(field, n, n)
    for i in range(n):
        M[i][i] = field.one
    return M


def mat_mul(field, A, B):
    """A B, from the nonzero products only: each nonzero A[i][t] meets
    the nonzero entries of row t of B, and over F_p each entry is
    reduced once."""
    if A and B and len(A[0]) != len(B):
        raise DimensionError("matrix product shape mismatch")
    m = len(B[0]) if B else 0
    B_nz = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    p, zero = field.p, field.zero
    C = []
    for row in A:
        c = [zero] * m
        for a, b_nz in zip(row, B_nz):
            if a:
                for j, b in b_nz:
                    c[j] += a * b
        C.append([x % p for x in c] if p else c)
    return C


def _dot(field, u, v):
    s = field.zero
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s % field.p if field.p else s


def mat_vec_mul(field, A, v):
    if A and len(A[0]) != len(v):
        raise DimensionError("matrix-vector shape mismatch")
    return [_dot(field, row, v) for row in A]


def _eliminate(p, row, f, pivot_nz):
    """row -= f * pivot row, in place, on the pivot row's nonzero
    columns ``pivot_nz`` ((column, entry) pairs) only."""
    if p:
        for j, x in pivot_nz:
            row[j] = (row[j] - f * x) % p
    else:
        for j, x in pivot_nz:
            row[j] -= f * x


def rref(field, A):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = [row[:] for row in A]
    n = len(R)
    m = len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = field.inv(R[r][c])
        # left of c the pivot row is zero
        pivot_nz = [(j, field.mul(inv, x))
                    for j, x in enumerate(R[r][c:], c) if x]
        for j, x in pivot_nz:
            R[r][j] = x
        for i in range(n):
            if i != r and R[i][c]:
                _eliminate(field.p, R[i], R[i][c], pivot_nz)
        pivots.append(c)
        r += 1
        if r == n:
            break
    return R, pivots


def rank(field, A):
    return len(rref(field, A)[1])


def kernel_basis(field, A, m):
    """Basis of the right kernel of A (m columns, maybe no rows) from the
    rref: per free column c, in order, a vector that is 1 at c and 0
    right of it (its pivots lie left); every other one is 0 at c."""
    R, pivots = rref(field, A)
    pivset = set(pivots)
    free = [c for c in range(m) if c not in pivset]
    basis = []
    for fc in free:
        v = [field.zero] * m
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(R[r][fc])
        basis.append(v)
    return basis


def solve_linear(field, A, rhs):
    """For each b in rhs, the solution of A x = b with its free variables
    set to 0, or None.  One rref of A augmented by every b: a column is
    inconsistent exactly when it has a nonzero entry below the rank of
    A, and the pivots of inconsistent columns leave the others as they
    are."""
    n = len(A)
    if any(len(b) != n for b in rhs):
        raise DimensionError("rhs length mismatch")
    m = len(A[0]) if A else 0
    R, pivots = rref(field, [A[i] + [b[i] for b in rhs] for i in range(n)])
    pivots = [c for c in pivots if c < m]
    r = len(pivots)
    sols = []
    for c in range(m, m + len(rhs)):
        if any(R[i][c] != 0 for i in range(r, n)):
            sols.append(None)
            continue
        x = [field.zero] * m
        for i, pc in enumerate(pivots):
            x[pc] = R[i][c]
        sols.append(x)
    return sols


def det(field, A):
    n = len(A)
    if any(len(r) != n for r in A):
        raise DimensionError("determinant of non-square matrix")
    M = [row[:] for row in A]
    d = field.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if M[i][c]:
                pr = i
                break
        if pr is None:
            return field.zero
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            d = field.neg(d)
        d = field.mul(d, M[c][c])
        inv = field.inv(M[c][c])
        # columns up to c are not read again
        pivot_nz = [(j, x) for j, x in enumerate(M[c][c + 1:], c + 1) if x]
        for i in range(c + 1, n):
            if M[i][c]:
                _eliminate(field.p, M[i], field.mul(inv, M[i][c]), pivot_nz)
    return d


def span_basis(field, vectors):
    """Canonical (rref) basis of the span of the given vectors."""
    if not vectors:
        return []
    R, pivots = rref(field, [list(v) for v in vectors])
    return [R[i] for i in range(len(pivots))]


def coords_in_basis(field, basis, vectors):
    """Coordinates of each vector in the given basis, or None: one
    solve_linear against the matrix with the basis as columns."""
    n = len(basis[0]) if basis else len(vectors[0]) if vectors else 0
    return solve_linear(field, [[b[i] for b in basis] for i in range(n)],
                        vectors)


# ---------------------------------------------------------------------------
# invertible intertwiners: an invertible member of a linear family
# ---------------------------------------------------------------------------

DEFAULT_SEED = 20230817
EXHAUSTIVE_LIMIT = 2 ** 16
INTERTWINER_BUDGET = 2000


def _random_points(field, k, seed, budget):
    """``budget`` random points: uniform over F_p, integers from a range
    widening every 50 draws over Q."""
    rng = random.Random(seed)
    for i in range(budget):
        if field.is_finite:
            yield tuple(rng.randrange(field.p) for _ in range(k))
        else:
            bound = 2 + i // 50
            yield tuple(rng.randint(-bound, bound) for _ in range(k))


class IntertwinerResult(Record):
    # status: "found" | "proven_none" | "budget_exhausted"
    _fields = ("status", "matrix", "samples_used")
    _defaults = {"samples_used": 0}


def _space_member(field, basis, n, ts):
    M = zeros(field, n, n)
    for t, K in zip(ts, basis):
        t = field.of(t)
        if t:
            for M_i, K_i in zip(M, K):
                for j, k in enumerate(K_i):
                    if k:
                        M_i[j] = field.add(M_i[j], field.mul(t, k))
    return M


def invertible_intertwiner(field, basis, n, seed=DEFAULT_SEED):
    """Search the span {sum_i t_i basis_i} of n x n matrices for an
    invertible member: (status, matrix, points tried), status "found",
    "proven_none" or "budget_exhausted".  The determinant has degree at
    most n in each t_i.

    Over F_p every point t is tried when there are at most
    EXHAUSTIVE_LIMIT.  Otherwise, for at most 3 parameters, the grid
    {0..n}^k decides when it has at most EXHAUSTIVE_LIMIT points: a
    polynomial of degree <= n in each variable that vanishes on it is
    zero (Alon's Combinatorial Nullstellensatz); over F_p it is reached
    only when p > n, so its points are distinct.  Otherwise
    INTERTWINER_BUDGET random points are drawn, and a miss is
    "budget_exhausted", never a no.
    """
    k, decided = len(basis), True
    if field.is_finite and field.p ** k <= EXHAUSTIVE_LIMIT:
        points = product(field.elements(), repeat=k)
    elif k <= 3 and (n + 1) ** k <= EXHAUSTIVE_LIMIT:
        points = product(range(n + 1), repeat=k)
    else:
        points = _random_points(field, k, seed, INTERTWINER_BUDGET)
        decided = False
    tried = 0
    for tried, ts in enumerate(points, 1):
        M = _space_member(field, basis, n, ts)
        if det(field, M) != 0:
            return IntertwinerResult("found", M, tried)
    return IntertwinerResult("proven_none" if decided else
                             "budget_exhausted", None, tried)
