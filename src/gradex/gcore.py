"""Graded rings at desk scale.

Two representations: finite-dimensional structure-constant algebras over an
exact field, and algebras of affine monoids over such a base.  There is no
automatic conversion between the two; each operation documents which one it
accepts.  Predicates quantifying over infinitely many homogeneous elements
are decided through theorems, linear algebra over Q and Z (the units of
an affine monoid: one LP, ``_unit_indices``) or exhaustive enumeration
over finite fields, otherwise the answer is None ("undecided").

Structure-constant algebras and the graded modules of ``gmod`` share one
core, ``_GradedSpace``: a degree-labelled basis and the action of the
algebra's basis on it, given and kept as its nonzero structure constants
(i, j, k, c), x_i . v_j = sum_k c v_k.  A ring is checked as its own
regular module, plus commutativity and a homogeneous unit of degree 0.
A morphism of either has one check, ``_Morphism._check``, run on the
generators of its source ring only: the elements its matrix commutes
with form a subalgebra, which holds 1 (for a ring map, once F(1) = 1).
An element of a ring is, as one of a module, the list of its
coordinates in the basis: the core reads its degree (``vec_degree``)
and its products (``act_vec``, ``mult_matrix``).
Subobjects rest on the same core: a graded ideal is a graded submodule of
R regarded as a module over itself, so ideals and submodules share one
canonical homogeneous basis (``graded_span``), one closure under the
action (``submodule_span``) and one matrix of an element's action
(``mult_matrix``).  An ideal is that basis, a list of coordinate
vectors: ``nilradical``, ``ideal_from_gens`` and ``spec_enumerate``
return it, and ``quotient_ring`` takes any list of homogeneous vectors,
brings it to the canonical basis and checks that its span is closed
under multiplication.  The graded spectrum is read
off the idempotents of (R/nil R)_0.
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import product

from .abgroups import FGAbelianGroup, GroupError, IntegerSystem
from . import exactla as la
from ._record import Record


class AlgebraError(ValueError):
    pass


class GradingViolation(AlgebraError):
    pass


class AssociativityViolation(AlgebraError):
    pass


class CommutativityViolation(AlgebraError):
    pass


class UnitViolation(AlgebraError):
    pass


class SizeGuardExceeded(RuntimeError):
    pass


HOMOGENEOUS_ENUM_LIMIT = 2 ** 20


# ---------------------------------------------------------------------------
# the core shared by algebras and modules
# ---------------------------------------------------------------------------

class _Derivable:
    """A value checked where its data enters.  ``__init__`` stores its
    arguments with ``_setup`` and then proves the axioms; ``_derived``
    only stores them.  gradex builds with ``_derived`` what it derives
    from checked values by constructions that keep the axioms
    (quotients, sums, duals, regradings, lifts), so each axiom is
    proved once, on the data a caller handed in.  A morphism's
    ``__init__`` also makes its entries field values: a derived one
    keeps, and may share, the matrix it is given; nothing mutates one."""

    @classmethod
    def _derived(cls, *args):
        obj = cls.__new__(cls)
        obj._setup(*args)
        return obj


class _Morphism(_Derivable):
    """A map between graded rings or modules, as a matrix F on basis
    coordinates (column j is the image of basis vector j).  ``_check``
    proves its shape, its degrees and F A_i = B_i F for the x_i in the
    source ring's ``_generators`` (see the module docstring): A_i is
    x_i acting on the source, B_i (``_image_action``) x_i on a target
    module, F(x_i) on a target ring.  Each subclass adds preconditions
    (``_require``; a ring map keeps the unit) and names ``_error``.
    The checked constructor makes the entries field values; ``_derived``
    keeps the matrix it is given."""

    def __init__(self, source, target, matrix):
        f = target.field
        self._setup(source, target, [[f.of(x) for x in row]
                                     for row in matrix])
        self._check()

    def _setup(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def _check(self):
        S, T, F, f = self.source, self.target, self.matrix, self.target.field
        if len(F) != T.dim or any(len(row) != S.dim for row in F):
            raise self._error("morphism matrix has wrong shape")
        self._require()
        for k, row in enumerate(F):
            for j, c in enumerate(row):
                if c != 0 and T.basis_degrees[k] != S.basis_degrees[j]:
                    raise self._error(f"morphism entry ({k},{j}) is not "
                                      f"degree-preserving")
        for i in getattr(S, "algebra", S)._generators:
            if la.mat_mul(f, F, S.action_matrix(i)) != \
                    la.mat_mul(f, self._image_action(i), F):
                raise self._error(f"morphism does not commute with x_{i}")

    def __call__(self, v):
        return la.mat_vec_mul(self.target.field, self.matrix, v)

    def compose(self, other):
        """self o other."""
        M = la.mat_mul(self.target.field, self.matrix, other.matrix)
        return type(self)._derived(other.source, self.target, M)


class _GradedSpace(_Derivable):
    """A space over ``field`` with basis vectors v_j labelled by degrees
    in ``group``, acted on by the basis x_i of a graded algebra through
    structure constants: x_i . v_j = sum_k c v_k over the entries
    (i, j, k, c).  Only the nonzero entries are kept, in ``_nz``: for
    each (i, j), the pairs (k, c) sorted by k.  ``entries()`` reads them
    back.

    The ``_setup`` of GradedAlgebra and GradedModule sets group, field,
    basis_degrees and dim, the entries through _set_tensor (an algebra
    also its unit); their constructors then call _check_module_axioms
    with the acting algebra (an algebra acts on itself).  Each subclass
    names the exceptions raised for a basis degree outside the group
    (_degree_error), a unit that does not act as the identity
    (_unit_error) and a non-associative action (_associativity_error).
    """

    def _set_tensor(self, entries, r):
        """Keep the nonzero entries (i, j, k, c), i < r acting basis
        vectors, each c made a field value once.  A later (i, j, k)
        replaces an earlier one."""
        f, m = self.field, self.dim
        rows = [[{} for _ in range(m)] for _ in range(r)]
        for i, j, k, c in entries:
            if not (0 <= i < r and 0 <= j < m and 0 <= k < m):
                raise IndexError(f"tensor entry ({i},{j},{k}) out of range")
            rows[i][j][k] = f.of(c)
        self._nz = tuple(tuple(tuple(sorted((k, c) for k, c in row.items()
                                            if c)) for row in block)
                         for block in rows)

    def entries(self):
        """The nonzero structure constants (i, j, k, c), ordered by
        (i, j, k)."""
        return [(i, j, k, c) for i, block in enumerate(self._nz)
                for j, row in enumerate(block) for k, c in row]

    def _check_module_axioms(self, R):
        """Grading first, then the subclass's own axioms, then the unit
        of R acts as the identity and the action is associative."""
        f, nz, deg, m = self.field, self._nz, self.basis_degrees, self.dim
        for d in deg:
            if d.group != R.group:
                raise self._degree_error("basis degree outside the grading "
                                         "group")
        for i in range(R.dim):
            for j in range(m):
                for k, _ in nz[i][j]:
                    if R.basis_degrees[i] + deg[j] != deg[k]:
                        raise GradingViolation(
                            f"tensor entry ({i},{j},{k}) links degrees "
                            f"{R.basis_degrees[i]}+{deg[j]} != {deg[k]}")
        self._check_ring_axioms()
        for j in range(m):
            e = la.unit_vector(f, m, j)
            if self.act_vec(R.unit, e) != e:
                raise self._unit_error(f"unit does not act as identity on "
                                       f"v_{j}")

        def sparse_sum(terms):
            out = {}
            for k, c in terms:
                out[k] = f.add(out[k], c) if k in out else c
            return {k: c for k, c in out.items() if c}

        def associative(i, i2, j):
            # (x_i x_i2) v_j against x_i (x_i2 v_j)
            return sparse_sum((k, f.mul(a, c))
                              for b, a in R._nz[i][i2]
                              for k, c in nz[b][j]) == \
                sparse_sum((k, f.mul(a, c))
                           for b, a in nz[i2][j] for k, c in nz[i][b])
        # x_i2 for i2 in R._generators suffices: the x_i2 satisfying
        # every (x_i x_i2) v_j = x_i (x_i2 v_j) form a subalgebra (for
        # an algebra acting on itself, its middle nucleus), and those
        # x_i2 generate R; both sides vanish where x_i x_i2 = x_i2 v_j = 0.
        # A failure is looked up again over every i2, naming the first.
        gens, rows, cols = R._generators, range(R.dim), range(m)
        if all(associative(i, i2, j) for i in rows for i2 in gens
               for j in cols if R._nz[i][i2] or nz[i2][j]):
            return
        for i in rows:
            for i2 in rows:
                for j in cols:
                    if not associative(i, i2, j):
                        raise self._associativity_error(
                            f"(x_{i} x_{i2}) v_{j} != x_{i} (x_{i2} v_{j})")

    def _check_ring_axioms(self):
        """Axioms beyond those of a module: none."""

    # -- grading ---------------------------------------------------------

    def degrees(self):
        """Degree support, canonically ordered."""
        return sorted(set(self.basis_degrees), key=lambda g: g.coords)

    def component_indices(self, g):
        return [j for j in range(self.dim) if self.basis_degrees[j] == g]

    def hilbert(self):
        """Degree -> dimension of the component."""
        out = {}
        for d in self.basis_degrees:
            out[d] = out.get(d, 0) + 1
        return out

    # -- vectors ---------------------------------------------------------

    def element(self, coords):
        return [self.field.of(c) for c in coords]

    def vec_degree(self, v):
        """Degree of a nonzero homogeneous vector, or None."""
        degs = {self.basis_degrees[j] for j, c in enumerate(v) if c != 0}
        return degs.pop() if len(degs) == 1 else None

    def homogeneous_components(self, v):
        """Degree -> homogeneous part of the coordinate vector v."""
        out = {}
        for j, c in enumerate(v):
            if c != 0:
                w = out.setdefault(self.basis_degrees[j],
                                   [self.field.zero] * self.dim)
                w[j] = c
        return out

    def homogeneous_vectors(self, limit=HOMOGENEOUS_ENUM_LIMIT):
        """All (degree, nonzero homogeneous element) pairs over a finite
        field; refused when the components hold more than ``limit``
        vectors in all."""
        f = self.field
        if not f.is_finite:
            raise AlgebraError("cannot enumerate homogeneous elements over Q")
        total = sum(f.p ** c for c in self.hilbert().values())
        if total > limit:
            raise SizeGuardExceeded(f"{total} homogeneous elements > {limit}")
        for g in self.degrees():
            idx = self.component_indices(g)
            for vals in product(f.elements(), repeat=len(idx)):
                if any(v != 0 for v in vals):
                    yield g, _scatter(f, self.dim, idx, vals)

    # -- action ----------------------------------------------------------

    def act_vec(self, xcoords, v):
        """Coordinates of x . v, x given in the acting algebra's basis."""
        f = self.field
        out = [f.zero] * self.dim
        for i, xi in enumerate(xcoords):
            if xi == 0:
                continue
            nz = self._nz[i]
            for j, vj in enumerate(v):
                if vj == 0:
                    continue
                c = f.mul(xi, vj)
                for k, a in nz[j]:
                    out[k] = f.add(out[k], f.mul(c, a))
        return out

    def action_matrix(self, i):
        """Matrix of x_i acting on the space (columns indexed by v_j)."""
        M = la.zeros(self.field, self.dim, self.dim)
        for j, row in enumerate(self._nz[i]):
            for k, c in row:
                M[k][j] = c
        return M

    def mult_matrix(self, xcoords):
        """Matrix of x acting on the space (columns indexed by v_j), x
        given in the acting algebra's basis."""
        f, n = self.field, self.dim
        M = la.zeros(f, n, n)
        for i, xi in enumerate(xcoords):
            if xi == 0:
                continue
            for j, row in enumerate(self._nz[i]):
                for k, c in row:
                    M[k][j] = f.add(M[k][j], f.mul(xi, c))
        return M

    # -- subobjects --------------------------------------------------------

    @staticmethod
    def leads(basis):
        """The first nonzero coordinate of each vector.  A graded_span
        basis is 1 at its own lead and 0 at the others."""
        return [next(j for j, c in enumerate(v) if c) for v in basis]

    def graded_span(self, vectors):
        """Canonical homogeneous basis of the graded span of the vectors:
        per degree, in degree order, the rref basis of their homogeneous
        parts."""
        by_degree = {}
        for v in vectors:
            for g, w in self.homogeneous_components(v).items():
                by_degree.setdefault(g, []).append(w)
        basis = []
        for g in sorted(by_degree, key=lambda g: g.coords):
            basis.extend(la.span_basis(self.field, by_degree[g]))
        return basis

    def submodule_span(self, gens, acting=None):
        """graded_span of the graded submodule generated by the vectors:
        their graded span, closed under the action of the acting
        algebra's basis vectors x_i (those with i in ``acting``, if
        given).  Each round acts only on a basis of what the last round
        added modulo the span before it: the rows of one rref of the
        span and the products whose pivots are new.  The span is brought
        to its canonical basis once, at the end."""
        f, r = self.field, len(self._nz)
        acting = range(r) if acting is None else acting
        basis = spanning = new = self.graded_span(gens)
        pivots = set(self.leads(basis))
        while True:
            products = [self.act_vec(la.unit_vector(f, r, i), b)
                        for b in new for i in acting]
            rows, lead = la.rref(f, spanning + products)
            if len(lead) == len(spanning):
                return basis if spanning is basis else \
                    self.graded_span(spanning)
            new = [v for v, p in zip(rows, lead) if p not in pivots]
            spanning, pivots = rows[:len(lead)], set(lead)

    def quotient(self, sub):
        """The quotient by a subspace closed under the action, given its
        graded_span basis: (reps, proj, entries).  reps are the
        coordinates that lead no vector of sub (sub is in rref within
        each degree, so their unit vectors complete it), ordered by
        degree, then index; proj is the projection along span(sub) onto
        their span; entries are the nonzero (i, t, k, c) with
        proj(x_i . v_{reps[t]}) = sum_k c v_{reps[k]}."""
        f, r = self.field, len(self._nz)
        lead = self.leads(sub)
        reps = sorted(set(range(self.dim)).difference(lead),
                      key=lambda j: (self.basis_degrees[j].coords, j))
        # x - sum_v x_lead(v) v vanishes at the leads (see leads): its
        # entries at reps are proj x
        proj = []
        for j in reps:
            row = la.unit_vector(f, self.dim, j)
            for p, v in zip(lead, sub):
                if v[j]:
                    row[p] = f.neg(v[j])
            proj.append(row)
        entries = []
        for i in range(r):
            P = la.mat_mul(f, proj, self.action_matrix(i))
            entries.extend((i, t, k, row[j]) for t, j in enumerate(reps)
                           for k, row in enumerate(P) if row[j])
        return reps, proj, entries


# ---------------------------------------------------------------------------
# structure-constant algebras
# ---------------------------------------------------------------------------

class GradedAlgebra(_GradedSpace):
    """Finite-dimensional commutative algebra with a degree-labelled basis.

    ``structure`` is an iterable of (i, j, k, c): c is the coefficient
    of basis vector k in the product of basis vectors i and j, and
    entries not given are 0.  At construction the algebra is
    checked as its own regular module (grading, unit, associativity),
    plus commutativity and a homogeneous unit of degree 0.
    """

    _unit_error = UnitViolation
    _associativity_error = AssociativityViolation
    _degree_error = GradingViolation

    def __init__(self, group, field, basis_degrees, structure, unit):
        self._setup(group, field, basis_degrees, structure, unit)
        if len(self.unit) != self.dim:
            raise UnitViolation("unit vector has wrong length")
        self._check_module_axioms(self)

    def _setup(self, group, field, basis_degrees, structure, unit):
        self.group = group
        self.field = field
        self.basis_degrees = tuple(basis_degrees)
        self.dim = len(self.basis_degrees)
        self._set_tensor(structure, self.dim)
        self.unit = tuple(field.of(c) for c in unit)
        self._invariants = {}   # filled by _kept

    def _check_ring_axioms(self):
        nz = self._nz
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if nz[i][j] != nz[j][i]:
                    a, b = dict(nz[i][j]), dict(nz[j][i])
                    k = min(k for k in a.keys() | b.keys()
                            if a.get(k) != b.get(k))
                    raise CommutativityViolation(
                        f"c[{i}][{j}][{k}] != c[{j}][{i}][{k}]")
        if any(a != 0 and d != self.group.zero
               for d, a in zip(self.basis_degrees, self.unit)):
            raise UnitViolation("unit is not homogeneous of degree 0")

    @cached_property
    def _generators(self):
        """Indices S of basis vectors generating the algebra, chosen
        greedily: x_s joins S when it is not in the span W of the
        right-nested words x_s1 (x_s2 (... (x_sk 1))) in S so far.  W is
        closed under the x_i in S, so it grows by the submodule that
        x_s . W generates under S and x_s: each generator is closed once.
        Only grading, commutativity and the unit need to hold, so the
        associativity check of the algebra itself can use S."""
        f, n = self.field, self.dim
        S, words = [], self.graded_span([self.unit])
        for s in range(n):
            if len(words) == n:
                break
            x = la.unit_vector(f, n, s)
            if la.coords_in_basis(f, words, [x]) == [None]:
                S.append(s)
                words = la.span_basis(f, words + self.submodule_span(
                    [self.act_vec(x, w) for w in words], S))
        return tuple(S)

    def __eq__(self, other):
        return (isinstance(other, GradedAlgebra)
                and self.group == other.group and self.field == other.field
                and self.basis_degrees == other.basis_degrees
                and self._nz == other._nz and self.unit == other.unit)

    def __hash__(self):
        return hash((self.group, self.field, self.basis_degrees))

    def __repr__(self):
        return f"GradedAlgebra(dim={self.dim}, field={self.field}, group={self.group})"


class ElementClass(Record, frozen=True):
    _fields = ("unit", "regular", "nilpotent", "homogeneous")


def classify_element(R: GradedAlgebra, x) -> ElementClass:
    """Unit/regular/nilpotent/homogeneous flags of the element with
    coordinates x via the multiplication matrix; depends only on x and
    the underlying ring, except for the homogeneity flag (the zero
    vector counts as homogeneous)."""
    n, zero = R.dim, not any(x)
    hom = zero or R.vec_degree(x) is not None
    if n == 0:
        return ElementClass(True, True, True, hom)
    if zero:
        return ElementClass(False, False, True, hom)
    unit = la.rank(R.field, R.mult_matrix(x)) == n
    regular = unit  # injective == bijective in finite dimension
    nilpotent = False
    if not regular:
        xk = x
        for _ in range(n):
            xk = R.act_vec(xk, x)
            if not any(xk):
                nilpotent = True
                break
    return ElementClass(unit, regular, nilpotent, hom)


def power(R: GradedAlgebra, x, k):
    """x^k by repeated squaring, x and x^k as coordinates (k may be a
    large prime p)."""
    out = list(R.unit)
    while k:
        if k & 1:
            out = R.act_vec(out, x)
        k >>= 1
        if k:
            x = R.act_vec(x, x)
    return out


class RingClass(Record, frozen=True):
    _fields = ("simple", "entire", "reduced", "method")

    def _chain_ok(self):
        if self.simple is True and self.entire is False:
            return False
        if self.entire is True and self.reduced is False:
            return False
        return True


def _kept(fn, R, *args):
    """fn(R, *args), kept in R._invariants after the first call: R is
    immutable, and a global cache would compare whole tensors."""
    key = (fn, *args)
    if key not in R._invariants:
        R._invariants[key] = fn(R, *args)
    return R._invariants[key]


def _once_per_algebra(fn):
    """fn(R), computed once for each ring (``_kept``)."""
    @wraps(fn)
    def cached(R):
        return _kept(fn, R)
    return cached


@_once_per_algebra
def classify_ring(R: GradedAlgebra) -> RingClass:
    """Simple / entire / reduced flags with the decision method, one rule
    per flag.  Reduced: the nilradical is graded, so it is zero exactly
    when no nonzero homogeneous element is nilpotent.  Entire equals
    simple: in finite dimension an injective multiplication is
    bijective.  Simple: every nonzero homogeneous element is a unit,
    tested on all of them over F_p when the enumeration guard allows
    ("exhaustive"), else on the basis when every component has
    dimension <= 1 ("criterion"), else undecided."""
    if R.dim == 0:
        return RingClass(False, False, True, "zero-ring")
    reduced = not nilradical(R)
    simple, method = None, "criterion"
    if R.field.is_finite:
        try:
            simple = all(classify_element(R, x).unit
                         for _, x in R.homogeneous_vectors())
            method = "exhaustive"
        except SizeGuardExceeded:
            pass
    if method == "criterion" and all(c <= 1 for c in R.hilbert().values()):
        f = R.field
        simple = all(classify_element(R, la.unit_vector(f, R.dim, i)).unit
                     for i in range(R.dim))
    out = RingClass(simple, simple, reduced, method)
    assert out._chain_ok()
    return out


# ---------------------------------------------------------------------------
# graded ideals
# ---------------------------------------------------------------------------

def _homogeneous(R: GradedAlgebra, vectors, what):
    """The coordinate vectors made field values, each zero or of one
    degree."""
    vecs = [R.element(v) for v in vectors]
    if any(any(v) and R.vec_degree(v) is None for v in vecs):
        raise AlgebraError(f"{what} is not homogeneous")
    return vecs


def ideal_from_gens(R: GradedAlgebra, gens):
    """Smallest graded ideal containing the homogeneous generators: the
    submodule they generate in R regarded as a module over itself."""
    return R.submodule_span(_homogeneous(R, gens, "ideal generator"))


def quotient_ring(R: GradedAlgebra, a):
    """(Q, proj, reps): Q = R/a with the induced grading, proj the
    projection matrix (qdim x dim), reps the indices of R lifting Q's basis.
    a may be any list of homogeneous vectors, so the one condition Q
    needs, their span closed under multiplication, is checked here:
    under R._generators, since the x with x a in a form a subalgebra."""
    f, a = R.field, R.graded_span(_homogeneous(R, a, "ideal basis vector"))
    if None in la.coords_in_basis(f, a, [
            R.act_vec(la.unit_vector(f, R.dim, i), b)
            for i in R._generators for b in a]):
        raise AlgebraError("quotient by a subspace that is not an ideal")
    reps, proj, entries = R.quotient(a)
    pos = {i: t for t, i in enumerate(reps)}
    Q = GradedAlgebra._derived(R.group, f, [R.basis_degrees[i] for i in reps],
                               [(pos[i], t, k, c) for i, t, k, c in entries
                                if i in pos],
                               la.mat_vec_mul(f, proj, list(R.unit)))
    return Q, proj, reps


def _scatter(field, n, idx, w):
    """The vector of length n with w[t] at idx[t] and 0 elsewhere."""
    v = [field.zero] * n
    for j, c in zip(idx, w):
        v[j] = c
    return v


def _trace_gram(R: GradedAlgebra):
    """Gram matrix of the trace form over Q: tr(L_i L_j) = tr(L_{x_i x_j})
    = sum_k c_ij^k tr(L_k), tr(L_k) = sum_j c_kj^j, so row i is the trace
    row times L_i."""
    f, n = R.field, R.dim
    traces = [f.zero] * n
    for k, j, j2, c in R.entries():
        if j == j2:
            traces[k] = f.add(traces[k], c)
    return [la.mat_mul(f, [traces], R.action_matrix(i))[0]
            for i in range(n)]


@_once_per_algebra
def nilradical(R: GradedAlgebra):
    """Graded ideal generated by the homogeneous nilpotents, as its
    graded_span basis (one list per ring, shared by every caller, so
    callers do not change it).  The nilradical N is the kernel of a
    matrix A: over Q the Gram matrix of the trace form (its radical),
    over F_p an iterated Frobenius.  A homogeneous element is nilpotent
    iff it lies in N, so N meets R_g in the kernel of A restricted to
    the columns of R_g."""
    f, n = R.field, R.dim
    if f.is_rational:
        A = _trace_gram(R)
    else:  # x -> x^(p^k) with p^k >= n, the k-th power of x -> x^p
        step = [list(row) for row in zip(*(
            power(R, la.unit_vector(f, n, j), f.p) for j in range(n)))]
        A, q = step, f.p
        while q < n:
            A, q = la.mat_mul(f, step, A), q * f.p
    vecs = []
    for g in R.degrees():
        idx = R.component_indices(g)
        vecs += [_scatter(f, n, idx, w) for w in la.kernel_basis(
            f, [[row[c] for c in idx] for row in A], len(idx))]
    return R.graded_span(vecs)


@_once_per_algebra
def nilradical_generators(R: GradedAlgebra):
    """Basis vectors of N = nil(R) that lift a basis of N/N^2.  N is
    nilpotent, so they generate N as an ideal (graded Nakayama): for a
    submodule X, N.X is the sum of the g.X, and N kills X iff every g
    does."""
    f, N = R.field, nilradical(R)
    square = R.graded_span([R.act_vec(x, y) for i, x in enumerate(N)
                            for y in N[i:]])
    gens = []
    for v in N:
        if la.rank(f, square + gens + [v]) > len(square) + len(gens):
            gens.append(v)
    return gens


# ---------------------------------------------------------------------------
# desk-scale graded spectrum over F_p, from the idempotents of (R/nil R)_0
# ---------------------------------------------------------------------------

def spec_enumerate(R: GradedAlgebra):
    """All graded prime ideals over F_p, ordered by their bases degree by
    degree.  R is finite-dimensional, so a graded prime P is
    graded-maximal (a nonzero homogeneous element acts injectively on
    R/P, hence bijectively) and contains N = nil(R).  Q = R/N is
    reduced, so Q_0 is a product of fields, and each primitive
    idempotent e of Q_0 cuts out a graded-simple factor eQ.  The graded
    primes are the preimages of the (1 - e)Q."""
    if not R.field.is_finite or R.field.p > 3 or R.dim > 6:
        raise SizeGuardExceeded("spec_enumerate is limited to p <= 3, dim <= 6")
    f, N = R.field, nilradical(R)
    Q, _, reps = quotient_ring(R, N)
    idem = [e for g, e in Q.homogeneous_vectors()
            if g == Q.group.zero and Q.act_vec(e, e) == e]
    primes = []
    for e in idem:
        if any(d != e and Q.act_vec(d, e) == d for d in idem):
            continue   # e = d + (e - d) is not primitive
        co = Q.submodule_span([[f.sub(a, b) for a, b in zip(Q.unit, e)]])
        primes.append(R.graded_span(N + [
            _scatter(f, R.dim, reps, v) for v in co]))
    return sorted(primes, key=lambda P: [
        [v for v in P if R.vec_degree(v) == g] for g in R.degrees()])


# ---------------------------------------------------------------------------
# affine monoids and monoid algebras
# ---------------------------------------------------------------------------

def _unit_indices(vectors, candidates):
    """The i in ``candidates`` with v_i a unit of the monoid the integer
    vectors v_j generate: c_i > 0 for some c >= 0 with sum_j c_j v_j = 0
    (-v_i = sum_j d_j v_j gives c = d + e_i).  A sum of such c serves
    them all, so one LP finds them: maximise sum_i y_i over c = s + y,
    sum_j c_j v_j = 0, s >= 0 and 0 <= y <= 1; at an optimum y_i = 1
    exactly at the units.  One rref gives x_P = -B x_F (y_i repeats the
    column of s_i, so it is free), and each constraint on x_F >= 0 reads
    a . x <= b with b in {0, 1}: the all-slack basis is feasible.  The
    simplex pivots exactly by Bland's rule, which cannot cycle."""
    f, k = la.QQ, len(candidates)
    cols = list(vectors) + [vectors[i] for i in candidates]
    E, piv = la.rref(f, [list(map(f.of, row)) for row in zip(*cols)])
    free = [j for j in range(len(cols)) if j not in piv]
    n, ys = len(free), len(free) - k     # x_F holds y last
    # a row [b, a] is a . x <= b: x_P >= 0, then y <= 1
    A = [[f.zero] + [row[g] for g in free] for row in E[:len(piv)]] + \
        [[f.one] + e for e in la.eye(f, n)[ys:]]
    m = len(A)
    # with slack columns, and last the objective row [value, -cost]
    T = [a + e for a, e in zip(A, la.eye(f, m))] + \
        [[f.zero] * (ys + 1) + [-f.one] * k + [f.zero] * m]
    basic = list(range(n + 1, n + m + 1))
    # Bland: the least columns enter and leave (T[-1][0] >= 0 is the value)
    while any(a < 0 for a in T[-1]):
        j = next(j for j, a in enumerate(T[-1]) if a < 0)
        # the objective is at most k, so some row bounds the step
        r = min((T[r][0] / T[r][j], basic[r], r)
                for r in range(m) if T[r][j] > 0)[2]
        inv = f.one / T[r][j]
        prow = T[r] = [a * inv for a in T[r]]
        nzp = [(c, x) for c, x in enumerate(prow) if x]
        for row in T:
            a = row[j]
            if row is not prow and a:
                for c, x in nzp:
                    row[c] -= a * x
        basic[r] = j
    ones = {b for b, row in zip(basic, T) if row[0] == 1}
    return [i for t, i in enumerate(candidates) if ys + 1 + t in ones]


class AffineMonoid:
    """Finitely generated submonoid of Z^d (cancellable and torsionfree
    by construction), its unit generators read off one LP."""

    def __init__(self, ambient_dim, generators):
        self.ambient_dim = ambient_dim
        gens = [tuple(int(x) for x in g) for g in generators]
        if any(len(t) != ambient_dim for t in gens):
            raise GroupError("generator has wrong dimension")
        self.generators = tuple(dict.fromkeys(gens))

    @property
    def zero(self):
        return (0,) * self.ambient_dim

    @cached_property
    def _lattice(self):
        """One Smith form of the generators, as columns in Z^d: the
        generators never change, so they are factored once."""
        gens = self.generators
        return IntegerSystem([[g[r] for g in gens]
                              for r in range(self.ambient_dim)], len(gens))

    def diff_group(self):
        """(group, basis) of the subgroup of Z^d generated by the
        generators; the group is free of the lattice rank."""
        basis = self._lattice.image_basis()
        return FGAbelianGroup(len(basis), ()), basis

    def diff_coords(self, m):
        """Coordinates of m in the lattice basis of diff(M), or None."""
        y = self._lattice.image_coords(list(m))
        return tuple(y) if y is not None else None

    @cached_property
    def units(self):
        """The nonzero generators that are units of M, in order."""
        gens = self.generators
        return tuple(gens[i] for i in _unit_indices(
            gens, [i for i, g in enumerate(gens) if any(g)]))

    def __repr__(self):
        return f"AffineMonoid(dim={self.ambient_dim}, gens={self.generators})"


class MonoidAlgebra:
    """Algebra of an affine monoid over a graded base, in fine, coarse or
    d-graded mode.  An element is a finite mapping monoid tuple -> base
    coordinates."""

    def __init__(self, base: GradedAlgebra, monoid: AffineMonoid, mode="fine",
                 dmatrix=None):
        self.base = base
        self.monoid = monoid
        if mode not in ("fine", "coarse", "d"):
            raise AlgebraError(f"unknown grading mode {mode!r}")
        self.mode = mode
        self.dmatrix = None
        if mode == "d":
            if dmatrix is None:
                raise AlgebraError("d-graded mode needs a matrix")
            G = base.group
            self.dmatrix = tuple(tuple(int(x) for x in row) for row in dmatrix)
            if len(self.dmatrix) != G.dim or any(
                    len(r) != monoid.ambient_dim for r in self.dmatrix):
                raise AlgebraError("grading matrix has wrong shape")

    # -- grading ---------------------------------------------------------

    def grading_group(self):
        G = self.base.group
        if self.mode != "fine":
            return G
        diff, _ = self.monoid.diff_group()
        return FGAbelianGroup(G.free_rank + diff.free_rank, G.torsion_factors)

    def monomial_degree(self, m, base_degree=None):
        """Degree of r e_m for homogeneous r of the given base degree."""
        G = self.base.group
        g = base_degree if base_degree is not None else G.zero
        if self.mode == "coarse":
            return g
        if self.mode == "d":
            shift = [sum(self.dmatrix[i][j] * m[j]
                         for j in range(self.monoid.ambient_dim))
                     for i in range(G.dim)]
            return g + G.element(shift)
        diffc = self.monoid.diff_coords(m)
        if diffc is None:
            raise AlgebraError("monomial exponent outside diff(M)")
        big = self.grading_group()
        a = G.free_rank
        coords = tuple(g.coords[:a]) + tuple(diffc) + tuple(g.coords[a:])
        return big.element(coords)

    def classify_ring(self) -> RingClass:
        """Entirety/reducedness delegated to the base through the monoid
        algebra transfer theorems (torsionfreeness and cancellability hold
        by construction)."""
        base_cls = classify_ring(self.base)
        simple = None
        if all(x == 0 for g in self.monoid.generators for x in g):
            simple = base_cls.simple
        return RingClass(simple, base_cls.entire, base_cls.reduced,
                         f"transfer({base_cls.method})")

    def __repr__(self):
        return f"MonoidAlgebra({self.base!r}, {self.monoid!r}, mode={self.mode})"
