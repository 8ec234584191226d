import operator
import sys
import time
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from gradex import exactla as la
from samples import truncated_polynomial_algebra
from support import assert_record


fields = st.sampled_from([la.QQ, la.GF(2), la.GF(3), la.GF(5)])

small = st.integers(-6, 6)
matrices = st.lists(st.lists(small, min_size=1, max_size=4),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1)


def conv(field, rows):
    return [[field.of(x) for x in row] for row in rows]


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


@st.composite
def systems(draw):
    """(field, A, rhs): A is n x m (m = 0 when n = 0), and rhs mixes
    vectors A x, vectors A x + e_i (inconsistent unless e_i lies in the
    column space) and arbitrary vectors, in any order."""
    field = draw(fields)
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4)) if n else 0
    A = conv(field, draw(st.lists(st.lists(small, min_size=m, max_size=m),
                                  min_size=n, max_size=n)))
    images = [la.mat_vec_mul(field, A, conv(field, [x])[0]) for x in draw(
        st.lists(st.lists(small, min_size=m, max_size=m), max_size=3))]
    shifted = [vec_add(field, b, la.unit_vector(field, n, i))
               for b in (images if n else [])
               for i in draw(st.lists(st.integers(0, n - 1), max_size=2))]
    other = conv(field, draw(st.lists(st.lists(small, min_size=n, max_size=n),
                                      max_size=2)))
    return field, A, draw(st.permutations(images + shifted + other))


def solve_one(field, A, b):
    """Reference: one rref of [A | b] for the single right-hand side b."""
    m = len(A[0]) if A else 0
    R, pivots = la.rref(field, [row + [c] for row, c in zip(A, b)])
    if m in pivots:
        return None
    x = [field.zero] * m
    for r, pc in enumerate(pivots):
        x[pc] = R[r][m]
    return x


class TestFields:
    def test_rationals_are_fractions(self):
        assert la.QQ.of("3/2") == Fraction(3, 2)
        assert la.QQ.inv(Fraction(2)) == Fraction(1, 2)

    def test_gf_zero_is_refused(self):
        with pytest.raises(la.FieldError):
            la.GF(0)

    def test_prime_field_arithmetic(self):
        f = la.GF(5)
        assert f.of(-1) == 4
        assert f.inv(2) == 3
        assert f.mul(3, 4) == 2
        assert list(f.elements()) == [0, 1, 2, 3, 4]

    def test_exact_parsing(self):
        f = la.GF(5)
        assert f.of("1/2") == f.of(Fraction(1, 2)) == f.inv(2) == 3
        assert f.of("-3/4") == f.div(f.of(-3), 4)
        assert la.GF(7).of(" 10 ") == 3
        assert la.QQ.of("0.1") == Fraction(1, 10)

    @pytest.mark.parametrize("field, x", [
        (la.QQ, 0.1), (la.QQ, True), (la.GF(5), 2.0), (la.GF(5), False),
        (la.GF(5), "1/5"), (la.GF(5), Fraction(3, 10)), (la.QQ, "xyz"),
        (la.QQ, "1/0"), (la.QQ, None)])
    def test_inexact_or_undefined_rejected(self, field, x):
        with pytest.raises(la.FieldError):
            field.of(x)

    def test_nonprime_rejected(self):
        with pytest.raises(la.FieldError):
            la.GF(6)

    def test_large_prime_accepted_quickly(self):
        start = time.perf_counter()
        assert la.GF(2 ** 61 - 1).p == 2 ** 61 - 1
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("n", [
        561,          # a Carmichael number
        3215031751,   # a strong pseudoprime to the bases 2, 3, 5 and 7
    ])
    def test_pseudoprimes_rejected(self, n):
        with pytest.raises(la.FieldError, match="not prime"):
            la.GF(n)

    def test_prime_beyond_deterministic_bound_refused(self):
        with pytest.raises(la.FieldError, match="too large"):
            la.GF(2 ** 89 - 1)

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            la.QQ.inv(Fraction(0))

    def test_inverse_converts_nothing(self, monkeypatch):
        # every caller hands inv a field value: building K[x]/(x^32)
        # inverts the pivots of many eliminations, with no of() among them
        of_callers, inverted = [], []
        of, inv = la.ScalarField.of, la.ScalarField.inv

        def counted_of(self, x):
            of_callers.append(sys._getframe(1).f_code.co_name)
            return of(self, x)

        def counted_inv(self, a):
            inverted.append(a)
            return inv(self, a)
        monkeypatch.setattr(la.ScalarField, "of", counted_of)
        monkeypatch.setattr(la.ScalarField, "inv", counted_inv)
        truncated_polynomial_algebra(la.QQ, 32)
        assert inverted and of_callers
        assert "inv" not in of_callers


# small denominators meet often (equal denominators, a numerator equal
# to an int operand); large ones exercise the gcd paths
fractions_ = (st.fractions(min_value=-4, max_value=4, max_denominator=6)
              | st.fractions(max_denominator=10 ** 6)
              | st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                          st.integers(1, 10 ** 30)))
BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARE = [operator.eq, operator.ne, operator.lt, operator.gt]
# characters of the strings Fraction parses, and some it does not: a
# non-ASCII decimal digit (Fraction reads it, like int does) and
# digits that are not decimal (superscript two)
SCALAR_CHARS = "0123456789+-/._eE \t\u0663\u00b2x"


def is_normal_rational(x):
    return (type(x) is la.Rational and x.denominator > 0
            and gcd(x.numerator, x.denominator) == 1)


class TestRational:
    """``exactla.Rational`` against ``fractions.Fraction``."""

    @given(fractions_, fractions_ | st.integers(-50, 50),
           st.sampled_from(BINARY))
    @settings(max_examples=400, deadline=None)
    @example(Fraction(1, 4), Fraction(1, 4), operator.add)
    @example(Fraction(1, 6), Fraction(-5, 6), operator.sub)
    def test_arithmetic_agrees(self, a, b, op):
        q = la.QQ.of(a)
        qb = la.QQ.of(b)
        if op is operator.truediv and b == 0:
            for left, right in ((q, qb), (q, b)):
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
            return
        want = op(a, b)
        # Rational with Rational, with b (an int or a Fraction) on the
        # right, and for + and * (which reflect) a Fraction on the left
        reflects = op in (operator.add, operator.mul)
        for got in [op(q, qb), op(q, b)] + ([op(a, qb)] if reflects else []):
            assert is_normal_rational(got)
            assert got == want and str(got) == str(want)
            assert hash(got) == hash(want)
        # b on the left
        if reflects:
            got = op(b, q)
            assert is_normal_rational(got) and got == op(b, a)

    @given(fractions_)
    @settings(max_examples=200, deadline=None)
    def test_unary_bool_hash_str_agree(self, a):
        q = la.QQ.of(a)
        assert is_normal_rational(q)
        assert (q.numerator, q.denominator) == (a.numerator, a.denominator)
        assert is_normal_rational(-q) and -q == -a
        assert bool(q) is bool(a)
        assert hash(q) == hash(a)
        assert str(q) == str(a)

    @given(fractions_, fractions_ | st.integers(-50, 50),
           st.sampled_from(COMPARE))
    @settings(max_examples=400, deadline=None)
    @example(Fraction(2), 2, operator.eq)
    @example(Fraction(1, 2), 1, operator.ne)
    def test_comparisons_agree(self, a, b, op):
        q = la.QQ.of(a)
        want = op(a, b)
        for got in (op(q, la.QQ.of(b)), op(q, b), op(a, la.QQ.of(b))):
            assert got is want
        # the reflected side: an int or Fraction on the left
        assert op(b, q) is op(b, a)

    @pytest.mark.parametrize("x", [
        Fraction(1, 2 ** 61 - 1), Fraction(-3, 2 * (2 ** 61 - 1)),
        Fraction(-1, 2 ** 61),      # hashes to -2: -1 is reserved
        Fraction(-1), Fraction(-2 ** 70, 3), Fraction(0)])
    def test_hash_edge_cases(self, x):
        assert hash(la.QQ.of(x)) == hash(x)
        assert la.QQ.of(x) in {x} and x in {la.QQ.of(x)}

    def test_constructor_normalises(self):
        assert (la.Rational(6, -4).numerator,
                la.Rational(6, -4).denominator) == (-3, 2)
        assert la.Rational(0, -7).denominator == 1
        assert repr(la.Rational(-3, 2)) == "Rational(-3, 2)"
        with pytest.raises(ZeroDivisionError):
            la.Rational(1, 0)
        with pytest.raises(TypeError):
            la.Rational(Fraction(1, 2))

    def test_every_q_scalar_is_rational(self):
        Q = la.QQ
        for x in (Q.zero, Q.one, Q.of(3), Q.of(Fraction(3, 4)), Q.of("5/10"),
                  Q.of("0.1"), Q.of(" 2 "), Q.inv(Fraction(2)), Q.inv(-3),
                  Q.div(1, 3), Q.neg(Q.of(2))):
            assert is_normal_rational(x)

    @given(st.text(SCALAR_CHARS, max_size=12)
           | st.from_regex(r"\A\s?[+-]?[0-9_]{0,4}([/.][0-9]{0,3})?\s?\Z"))
    @settings(max_examples=500, deadline=None)
    @example("1/0")
    @example("1.5")
    @example(" 2 ")
    @example("-0/5")
    @example("007/14")
    @example("1_000")
    @example("\u0663/4")
    @example("\u00b2")
    @example("+")
    @example("")
    @example("1" * 5000)
    @example("1e4300")
    @example("0E5000")
    @example("-2e-4301")
    def test_parsing_accepts_what_fraction_accepts(self, s):
        # the one documented exception: an exponent past the int-to-str
        # digit limit is refused, whatever its mantissa, before Fraction
        # would build 10^|exp| (nor is Fraction asked here, for that reason)
        try:
            huge = abs(int(s.lower().partition("e")[2] or 0)) > (
                sys.get_int_max_str_digits() or 4300)
        except ValueError:
            huge = False
        if huge:
            with pytest.raises(la.FieldError, match="exponent"):
                la.QQ.of(s)
            return
        try:
            want = Fraction(s)
        except (ValueError, ZeroDivisionError):
            want = None
        if want is None:
            with pytest.raises(la.FieldError):
                la.QQ.of(s)
        else:
            got = la.QQ.of(s)
            assert is_normal_rational(got) and got == want
            if want.denominator % 7:
                assert la.GF(7).of(s) == la.GF(7).of(want)


class TestLinearAlgebra:
    @given(fields, matrices)
    @settings(max_examples=120, deadline=None)
    def test_rref_idempotent_and_rank(self, field, rows):
        A = conv(field, rows)
        R, pivots = la.rref(field, A)
        R2, pivots2 = la.rref(field, R)
        assert R == R2 and pivots == pivots2
        assert la.rank(field, A) == len(pivots)

    @given(fields, matrices)
    @settings(max_examples=120, deadline=None)
    def test_kernel_vectors_annihilate(self, field, rows):
        A, m = conv(field, rows), len(rows[0])
        for v in la.kernel_basis(field, A, m):
            assert all(a == 0 for a in la.mat_vec_mul(field, A, v))
        assert la.rank(field, A) + len(la.kernel_basis(field, A, m)) == m

    @given(fields, matrices, st.lists(small, min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_solve_consistency(self, field, rows, xs):
        A = conv(field, rows)
        xs = (xs + [0] * len(rows[0]))[:len(rows[0])]
        x = [field.of(c) for c in xs]
        b = la.mat_vec_mul(field, A, x)
        sol, = la.solve_linear(field, A, [b])
        assert sol is not None
        assert la.mat_vec_mul(field, A, sol) == b

    @given(systems())
    @example((la.QQ, conv(la.QQ, [[1, 2], [2, 4]]),
              conv(la.QQ, [[3, 6], [1, 0], [0, 0], [1, 3]])))
    @example((la.GF(3), [[], []], conv(la.GF(3), [[0, 0], [1, 0]])))
    @example((la.GF(2), [], [[], []]))
    @example((la.GF(5), conv(la.GF(5), [[1, 2]]), []))
    @settings(max_examples=150, deadline=None)
    def test_batched_solve_matches_one_at_a_time(self, system):
        field, A, rhs = system
        sols = la.solve_linear(field, A, rhs)
        assert sols == [solve_one(field, A, b) for b in rhs]
        for b, x in zip(rhs, sols):
            if x is not None:
                assert la.mat_vec_mul(field, A, x) == b

    def test_coords_in_empty_basis(self):
        f = la.GF(3)
        assert la.coords_in_basis(f, [], [[0, 0], [1, 0]]) == [[], None]
        assert la.coords_in_basis(f, [], []) == []

    @given(fields, matrices)
    @settings(max_examples=100, deadline=None)
    def test_det_vs_rank(self, field, rows):
        n = min(len(rows), len(rows[0]))
        A = conv(field, [r[:n] for r in rows[:n]])
        d = la.det(field, A)
        assert (d != 0) == (la.rank(field, A) == n)

    def test_span_and_coords(self):
        f = la.QQ
        basis = la.span_basis(f, conv(f, [[1, 2], [2, 4], [0, 1]]))
        assert len(basis) == 2
        assert la.coords_in_basis(f, basis, [[f.of(5), f.of(7)]])[0] \
            is not None
        c, = la.coords_in_basis(f, basis, [[f.of(5), f.of(7)]])
        total = [f.zero, f.zero]
        for ci, b in zip(c, basis):
            total = vec_add(f, total, [f.mul(ci, a) for a in b])
        assert total == [f.of(5), f.of(7)]


# ---------------------------------------------------------------------------
# dense references: every entry of every product and row update, as the
# kernels computed before they skipped zeros
# ---------------------------------------------------------------------------

def dense_dot(f, u, v):
    s = f.zero
    for a, b in zip(u, v):
        s = f.add(s, f.mul(a, b))
    return s


def dense_mat_mul(f, A, B):
    m = len(B[0]) if B else 0
    return [[dense_dot(f, row, [Bt[j] for Bt in B]) for j in range(m)]
            for row in A]


def dense_rref(f, A):
    R = [row[:] for row in A]
    n, m = len(R), len(R[0]) if R else 0
    pivots, r = [], 0
    for c in range(m):
        pr = next((i for i in range(r, n) if R[i][c] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = f.inv(R[r][c])
        R[r] = [f.mul(inv, x) for x in R[r]]
        for i in range(n):
            if i != r and R[i][c] != 0:
                g = R[i][c]
                R[i] = [f.sub(R[i][j], f.mul(g, R[r][j])) for j in range(m)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return R, pivots


def dense_kernel_basis(f, A, m):
    R, pivots = dense_rref(f, A)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = la.unit_vector(f, m, fc)
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(R[r][fc])
        basis.append(v)
    return basis


def leibniz_det(f, A):
    """Sum over permutations, signed by their inversion count."""
    n = len(A)
    d = f.zero
    for perm in permutations(range(n)):
        term = f.one
        for i, j in enumerate(perm):
            term = f.mul(term, A[i][j])
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        d = f.add(d, f.neg(term) if inversions % 2 else term)
    return d


sparse_fields = st.sampled_from([la.QQ, la.GF(2), la.GF(3), la.GF(7)])


@st.composite
def sparse_matrix(draw, field, n, m):
    """An n x m matrix ([] when n = 0), all zero, sparse or dense;
    entries over Q include fractions."""
    entry = small
    if field.is_rational:
        entry = st.one_of(small, st.fractions(-3, 3, max_denominator=4))
    entry = {"zero": st.just(0),
             "sparse": st.one_of(st.just(0), st.just(0), st.just(0), entry),
             "dense": entry}[draw(st.sampled_from(["zero", "sparse",
                                                   "dense"]))]
    return [[field.of(draw(entry)) for _ in range(m)] for _ in range(n)]


dims = st.integers(0, 4)


class TestZeroSkippingAgainstDense:
    @given(st.data(), sparse_fields, dims, dims, dims)
    @settings(max_examples=200, deadline=None)
    def test_mat_mul(self, data, field, n, k, m):
        A = data.draw(sparse_matrix(field, n, k))
        B = data.draw(sparse_matrix(field, k, m))
        assert la.mat_mul(field, A, B) == dense_mat_mul(field, A, B)

    @given(st.data(), sparse_fields, dims, dims)
    @settings(max_examples=150, deadline=None)
    def test_mat_vec_mul(self, data, field, n, k):
        A = data.draw(sparse_matrix(field, n, k))
        v, = data.draw(sparse_matrix(field, 1, k))
        assert la.mat_vec_mul(field, A, v) == [dense_dot(field, row, v)
                                               for row in A]

    @given(st.data(), sparse_fields, dims, dims)
    @settings(max_examples=200, deadline=None)
    def test_rref_and_kernel(self, data, field, n, m):
        A = data.draw(sparse_matrix(field, n, m))
        assert la.rref(field, A) == dense_rref(field, A)
        assert la.kernel_basis(field, A, m) == dense_kernel_basis(field, A, m)

    @given(st.data(), sparse_fields, dims)
    @settings(max_examples=150, deadline=None)
    def test_det(self, data, field, n):
        A = data.draw(sparse_matrix(field, n, n))
        assert la.det(field, A) == leibniz_det(field, A)


class TestKernelBasis:
    @given(st.data(), fields, dims, dims)
    @settings(max_examples=150, deadline=None)
    def test_coordinates_are_read_at_the_free_columns(self, data, field, n,
                                                     m):
        # each vector is 1 at its own free column, which is its last
        # nonzero entry, and every other vector is 0 there (graded_hom
        # reads HOM's coordinates at these columns); the matrix with no
        # rows is checked with every draw
        A = data.draw(sparse_matrix(field, n, m))
        for rows in (A, []):
            basis = la.kernel_basis(field, rows, m)
            free = [max(c for c, x in enumerate(v) if x) for v in basis]
            pivots = la.rref(field, rows)[1]
            assert free == [c for c in range(m) if c not in pivots]
            for v, c in zip(basis, free):
                assert [w[c] for w in basis] == [1 if w is v else 0
                                                 for w in basis]


class TestIntertwiner:
    def test_found_over_finite_field(self):
        f = la.GF(2)
        basis = [la.eye(f, 2), [[0, 1], [1, 0]]]
        res = la.invertible_intertwiner(f, basis, 2)
        assert res.status == "found"
        assert la.det(f, res.matrix) != 0

    def test_proven_none_exhaustive(self):
        f = la.GF(3)
        basis = [[[1, 0], [0, 0]]]  # rank never exceeds 1
        res = la.invertible_intertwiner(f, basis, 2)
        assert res.status == "proven_none"

    def test_proven_none_rational_grid(self):
        f = la.QQ
        basis = [conv(f, [[1, 0], [0, 0]]), conv(f, [[0, 1], [0, 0]])]
        res = la.invertible_intertwiner(f, basis, 2)
        assert res.status == "proven_none"

    def test_proven_none_by_grid_over_large_field(self):
        # 65537 points per parameter are too many to try; det(t E_00)
        # has degree <= 2 in t, so the grid {0, 1, 2} decides
        f = la.GF(65537)
        res = la.invertible_intertwiner(f, [[[1, 0], [0, 0]]], 2)
        assert res.status == "proven_none" and res.samples_used == 3

    def test_rational_found_deterministic(self):
        f = la.QQ
        basis = [conv(f, [[1, 0], [0, 0]]), conv(f, [[0, 0], [0, 1]])]
        r1 = la.invertible_intertwiner(f, basis, 2)
        r2 = la.invertible_intertwiner(f, basis, 2)
        assert r1.status == "found" and r1.matrix == r2.matrix


class TestRecords:
    """Equality, hashing, frozen-ness, defaults and repr of the records."""

    def test_field(self):
        a = la.GF(5)
        assert_record(a, la.ScalarField(p=5), la.GF(7), (5,),
                      la.IntertwinerResult(5, None), frozen=True)
        assert a == la.ScalarField(5) and repr(a) == "F5"
        assert repr(la.QQ) == "Q"
        for p in (4, la.PRIME_BOUND):
            with pytest.raises(la.FieldError):
                la.ScalarField(p)

    def test_intertwiner_result(self):
        a = la.IntertwinerResult("found", [[1]])
        assert_record(a, la.IntertwinerResult(status="found", matrix=[[1]],
                                              samples_used=0),
                      la.IntertwinerResult("found", [[1]], 3),
                      ("found", [[1]], 0), la.GF(2), frozen=False)
        assert a.samples_used == 0
        assert repr(a) == ("IntertwinerResult(status='found', matrix=[[1]], "
                           "samples_used=0)")
