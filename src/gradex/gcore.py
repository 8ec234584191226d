"""Graded rings at desk scale.

Two representations: finite-dimensional structure-constant algebras over an
exact field, and algebras of affine monoids over such a base.  There is no
automatic conversion between the two; each operation documents which one it
accepts.  Predicates quantifying over infinitely many homogeneous elements
are decided through theorems or exhaustive enumeration over finite fields,
otherwise the answer is None ("undecided").

Structure-constant algebras and the graded modules of ``gmod`` share one
core, ``_GradedSpace``: a degree-labelled basis and the action of the
algebra's basis on it, given and kept as its nonzero structure constants
(i, j, k, c), x_i . v_j = sum_k c v_k.  A ring is checked as its own
regular module, plus commutativity and a homogeneous unit of degree 0.
Subobjects rest on the same core: a graded ideal is a graded submodule of
R regarded as a module over itself, so ideals and submodules share one
canonical homogeneous basis (``graded_span``), one closure under the
action (``submodule_span``) and one matrix of an element's action
(``mult_matrix``).
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import combinations, product

from .abgroups import FGAbelianGroup, GroupError, lattice_column_basis, \
    integer_solve
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
    proved once, on the data a caller handed in."""

    @classmethod
    def _derived(cls, *args):
        obj = cls.__new__(cls)
        obj._setup(*args)
        return obj


class _Morphism(_Derivable):
    """A map between graded rings or modules, as a matrix on basis
    coordinates (column j is the image of basis vector j)."""

    def _setup(self, source, target, matrix):
        self.source = source
        self.target = target
        f = target.field
        self.matrix = [[f.of(x) for x in row] for row in matrix]

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
        # x_i2 generate R.  A failure is looked up again over every i2,
        # so the first failing triple is named.
        gens, rows, cols = R._generators, range(R.dim), range(m)
        if all(associative(i, i2, j) for i in rows for i2 in gens
               for j in cols):
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
                    coords = [f.zero] * self.dim
                    for i, v in zip(idx, vals):
                        coords[i] = v
                    yield g, self.element(coords)

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
        pivots = {next(j for j, c in enumerate(v) if c != 0) for v in basis}
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
        lead = {next(j for j, c in enumerate(v) if c != 0) for v in sub}
        reps = sorted((j for j in range(self.dim) if j not in lead),
                      key=lambda j: (self.basis_degrees[j].coords, j))
        proj = la.complement_projection(
            f, sub, [la.unit_vector(f, self.dim, j) for j in reps])
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
        self._invariants = {}   # filled by _once_per_algebra

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
        greedily: x_s joins S when it is not in the span of the
        right-nested words x_s1 (x_s2 (... (x_sk 1))) in S so far.  Only
        grading, commutativity and the unit need to hold, so the
        associativity check of the algebra itself can use S."""
        f, n = self.field, self.dim
        S, words = [], self.graded_span([self.unit])
        for s in range(n):
            if len(words) == n:
                break
            if la.coords_in_basis(f, words,
                                  [la.unit_vector(f, n, s)]) == [None]:
                S.append(s)
                words = self.submodule_span(words, S)
        return tuple(S)

    # -- elements ------------------------------------------------------------

    def element(self, coords):
        return AlgebraElement(self, tuple(self.field.of(c) for c in coords))

    def basis_element(self, i):
        return self.element(la.unit_vector(self.field, self.dim, i))

    @property
    def zero(self):
        return self.element([self.field.zero] * self.dim)

    @property
    def one(self):
        return self.element(self.unit)

    def all_elements(self, limit=HOMOGENEOUS_ENUM_LIMIT):
        if not self.field.is_finite:
            raise AlgebraError("cannot enumerate elements over Q")
        if self.field.p ** self.dim > limit:
            raise SizeGuardExceeded("element count exceeds guard")
        for vals in product(self.field.elements(), repeat=self.dim):
            yield self.element(vals)

    def __eq__(self, other):
        return (isinstance(other, GradedAlgebra)
                and self.group == other.group and self.field == other.field
                and self.basis_degrees == other.basis_degrees
                and self._nz == other._nz and self.unit == other.unit)

    def __hash__(self):
        return hash((self.group, self.field, self.basis_degrees))

    def __repr__(self):
        return f"GradedAlgebra(dim={self.dim}, field={self.field}, group={self.group})"


class AlgebraElement(Record, frozen=True):
    _fields = ("parent", "coords")

    def __init__(self, parent, coords):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "coords", coords)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def support_degrees(self):
        return sorted({self.parent.basis_degrees[i]
                       for i, c in enumerate(self.coords) if c != 0},
                      key=lambda g: g.coords)

    @property
    def is_homogeneous(self):
        return len(self.support_degrees()) <= 1

    def is_homogeneous_of(self, g):
        sup = self.support_degrees()
        return sup == [] or sup == [g]

    def __add__(self, other):
        R = self.parent
        return R.element([R.field.add(a, b)
                          for a, b in zip(self.coords, other.coords)])

    def __mul__(self, other):
        R = self.parent
        if isinstance(other, AlgebraElement):
            return R.element(R.act_vec(self.coords, other.coords))
        return R.element([R.field.mul(R.field.of(other), a) for a in self.coords])

    __rmul__ = __mul__

    def power(self, k):
        """x^k by repeated squaring (k may be a large prime p)."""
        out, base = self.parent.one, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __repr__(self):
        return f"elt{self.coords}"


class ElementClass(Record, frozen=True):
    _fields = ("unit", "regular", "nilpotent", "homogeneous")


def classify_element(R: GradedAlgebra, x: AlgebraElement) -> ElementClass:
    """Unit/regular/nilpotent/homogeneous flags via the multiplication
    matrix; depends only on x and the underlying ring, except for the
    homogeneity flag."""
    n = R.dim
    hom = x.is_homogeneous
    if n == 0:
        return ElementClass(True, True, True, hom)
    if x.is_zero:
        return ElementClass(False, False, True, hom)
    rk = la.rank(R.field, R.mult_matrix(x.coords))
    unit = (rk == n)
    regular = unit  # injective == bijective in finite dimension
    nilpotent = False
    if not regular:
        power = x
        for _ in range(n):
            power = power * x
            if power.is_zero:
                nilpotent = True
                break
    return ElementClass(unit, regular, nilpotent, hom)


class RingClass(Record, frozen=True):
    _fields = ("simple", "entire", "reduced", "method")

    def _chain_ok(self):
        if self.simple is True and self.entire is False:
            return False
        if self.entire is True and self.reduced is False:
            return False
        return True


def _once_per_algebra(fn):
    """fn(R), kept in R._invariants after the first call: R is immutable,
    and a global cache would compare whole tensors."""
    @wraps(fn)
    def cached(R):
        if fn.__name__ not in R._invariants:
            R._invariants[fn.__name__] = fn(R)
        return R._invariants[fn.__name__]
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
    reduced = nilradical(R).dim == 0
    simple, method = None, "criterion"
    if R.field.is_finite:
        try:
            simple = all(classify_element(R, x).unit
                         for _, x in R.homogeneous_vectors())
            method = "exhaustive"
        except SizeGuardExceeded:
            pass
    if method == "criterion" and all(c <= 1 for c in R.hilbert().values()):
        simple = all(classify_element(R, R.basis_element(i)).unit
                     for i in range(R.dim))
    out = RingClass(simple, simple, reduced, method)
    assert out._chain_ok()
    return out


# ---------------------------------------------------------------------------
# graded ideals
# ---------------------------------------------------------------------------

class GradedIdeal:
    """Graded ideal: a graded submodule of R regarded as a module over
    itself, stored as R.graded_span of homogeneous vectors."""

    def __init__(self, parent: GradedAlgebra, vectors):
        self.parent = parent
        vecs = []
        for v in vectors:
            x = parent.element(v) if not isinstance(v, AlgebraElement) else v
            if not x.is_homogeneous:
                raise AlgebraError("ideal basis vector is not homogeneous")
            vecs.append(x.coords)
        self.basis = parent.graded_span(vecs)

    @property
    def dim(self):
        return len(self.basis)

    def vectors(self):
        return list(self.basis)

    def contains(self, x: AlgebraElement):
        # the span of a homogeneous basis is graded
        return la.coords_in_basis(self.parent.field, self.basis,
                                  [list(x.coords)])[0] is not None

    def __eq__(self, other):
        return (isinstance(other, GradedIdeal) and self.parent == other.parent
                and self.basis == other.basis)

    def __hash__(self):
        return hash(tuple(map(tuple, self.basis)))

    def __repr__(self):
        return f"GradedIdeal(dim={self.dim})"


def ideal_from_gens(R: GradedAlgebra, gens) -> GradedIdeal:
    """Smallest graded ideal containing the homogeneous generators: the
    submodule they generate in R regarded as a module over itself."""
    vecs = []
    for g in gens:
        x = g if isinstance(g, AlgebraElement) else R.element(g)
        if not x.is_homogeneous:
            raise AlgebraError("ideal generator is not homogeneous")
        vecs.append(x.coords)
    return GradedIdeal(R, R.submodule_span(vecs))


def quotient_ring(R: GradedAlgebra, a: GradedIdeal):
    """(Q, proj, lift): Q = R/a with the induced grading, proj the
    coordinate projection matrix (qdim x dim), lift a section (dim x qdim).
    A hand-made GradedIdeal may be any graded subspace, so the one
    condition Q needs, a closed under multiplication, is checked here."""
    f = R.field
    if None in la.coords_in_basis(f, a.basis, [
            R.act_vec(la.unit_vector(f, R.dim, i), b)
            for i in range(R.dim) for b in a.basis]):
        raise AlgebraError("quotient by a subspace that is not an ideal")
    reps, proj, entries = R.quotient(a.basis)
    pos = {i: t for t, i in enumerate(reps)}
    Q = GradedAlgebra._derived(R.group, f, [R.basis_degrees[i] for i in reps],
                               [(pos[i], t, k, c) for i, t, k, c in entries
                                if i in pos],
                               la.mat_vec_mul(f, proj, list(R.unit)))
    lift = [[f.one if i == j else f.zero for j in reps]
            for i in range(R.dim)]
    return Q, proj, lift


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
def nilradical(R: GradedAlgebra) -> GradedIdeal:
    """Graded ideal generated by the homogeneous nilpotents.  The
    nilradical N is the kernel of a matrix A: over Q the Gram matrix of
    the trace form (its radical), over F_p an iterated Frobenius.  A
    homogeneous element is nilpotent iff it lies in N, so N meets R_g in
    the kernel of A restricted to the columns of R_g."""
    f, n = R.field, R.dim
    if f.is_rational:
        A = _trace_gram(R)
    else:  # x -> x^(p^k) with p^k >= n
        k = 1
        while f.p ** k < n:
            k += 1
        A = la.eye(f, n)
        for _ in range(k):
            step = la.zeros(f, n, n)
            for j in range(n):
                col = R.basis_element(j).power(f.p).coords
                for i in range(n):
                    step[i][j] = col[i]
            A = la.mat_mul(f, step, A)
    vecs = []
    for g in R.degrees():
        idx = R.component_indices(g)
        for w in la.kernel_basis(f, [[row[c] for c in idx] for row in A],
                                 len(idx)):
            v = [f.zero] * n
            for c, x in zip(idx, w):
                v[c] = x
            vecs.append(v)
    return GradedIdeal(R, vecs)


def radical(R: GradedAlgebra, a: GradedIdeal) -> GradedIdeal:
    """Preimage of nil(R/a) under the projection."""
    Q, _, lift = quotient_ring(R, a)
    return ideal_from_gens(R, a.vectors() + [
        la.mat_vec_mul(R.field, lift, v) for v in nilradical(Q).vectors()])


class IdealClass(Record, frozen=True):
    _fields = ("maximal", "prime", "perfect", "method")


def ideal_class(R: GradedAlgebra, a: GradedIdeal) -> IdealClass:
    Q, _, _ = quotient_ring(R, a)
    rc = classify_ring(Q)
    return IdealClass(rc.simple, rc.entire, rc.reduced, rc.method)


# ---------------------------------------------------------------------------
# desk-scale graded spectrum over F_p
# ---------------------------------------------------------------------------

def _all_subspaces(field, d):
    """All subspaces of F_p^d as canonical rref bases (tuples of tuples),
    each written down once: choose the pivot columns, then fill the
    entries right of each pivot outside the pivot columns."""
    out = []
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            free = [(r, c) for r, p in enumerate(pivots)
                    for c in range(p + 1, d) if c not in pivots]
            for vals in product(field.elements(), repeat=len(free)):
                rows = [la.unit_vector(field, d, p) for p in pivots]
                for (r, c), v in zip(free, vals):
                    rows[r][c] = v
                out.append(tuple(map(tuple, rows)))
    return sorted(out)


def spec_enumerate(R: GradedAlgebra):
    """All graded prime ideals over F_p, by enumerating graded subspaces."""
    if not R.field.is_finite or R.field.p > 3 or R.dim > 6:
        raise SizeGuardExceeded("spec_enumerate is limited to p <= 3, dim <= 6")
    f = R.field
    degs = R.degrees()
    per_degree = []
    for g in degs:
        per_degree.append(_all_subspaces(f, len(R.component_indices(g))))
    primes = []
    for choice in product(*per_degree):
        vecs = []
        for g, basis in zip(degs, choice):
            idx = R.component_indices(g)
            for b in basis:
                v = [f.zero] * R.dim
                for pos, i in enumerate(idx):
                    v[i] = b[pos]
                vecs.append(v)
        # an ideal is its own submodule span
        if len(R.submodule_span(vecs)) != len(vecs):
            continue
        cand = GradedIdeal(R, vecs)
        cls = ideal_class(R, cand)
        if cls.prime:
            primes.append(cand)
    return primes


# ---------------------------------------------------------------------------
# affine monoids and monoid algebras
# ---------------------------------------------------------------------------

def _fourier_motzkin_feasible(cons):
    """Feasibility over Q of the constraints (coeffs, rhs), each meaning
    coeffs . x >= rhs, by eliminating every variable in turn."""
    nvars = len(cons[0][0]) if cons else 0
    for v in range(nvars):
        pos, neg, zero = [], [], []
        for coeffs, rhs in cons:
            c = coeffs[v]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                zero.append((coeffs, rhs))
        new = list(zero)
        for pc, pr in pos:
            for nc, nr in neg:
                # eliminate v: combine with weights |nc[v]| and pc[v]
                a, b = pc[v], -nc[v]
                coeffs = [b * pc[i] + a * nc[i] for i in range(nvars)]
                new.append((coeffs, b * pr + a * nr))
        cons = new
    return all(rhs <= 0 for _, rhs in cons)


class SharpnessReport(Record, frozen=True):
    _fields = ("sharp", "method", "witness", "bound")
    _defaults = {"witness": None, "bound": None}


class AffineMonoid:
    """Finitely generated submonoid of Z^d (cancellable and torsionfree
    by construction)."""

    MEMBERSHIP_BOUND = 32
    MEMBERSHIP_POINTS = 2 ** 18
    SHARP_SEARCH_BOUND = 16

    def __init__(self, ambient_dim, generators):
        self.ambient_dim = ambient_dim
        seen = []
        for g in generators:
            t = tuple(int(x) for x in g)
            if len(t) != ambient_dim:
                raise GroupError("generator has wrong dimension")
            if t not in seen:
                seen.append(t)
        self.generators = tuple(seen)

    @property
    def zero(self):
        return (0,) * self.ambient_dim

    def diff_group(self):
        """(group, basis) of the subgroup of Z^d generated by the
        generators; the group is free of the lattice rank."""
        return self._diff

    @cached_property
    def _diff(self):
        # the generators never change, so the lattice basis is built once
        basis = lattice_column_basis([list(g) for g in self.generators],
                                     self.ambient_dim)
        return FGAbelianGroup(len(basis), ()), basis

    def diff_coords(self, m):
        """Coordinates of m in the lattice basis of diff(M)."""
        group, basis = self.diff_group()
        if not basis:
            if any(x != 0 for x in m):
                return None
            return ()
        A = [[b[i] for b in basis] for i in range(self.ambient_dim)]
        sol = integer_solve(A, list(m))
        return tuple(sol) if sol is not None else None

    def sharpness(self) -> SharpnessReport:
        gens = [g for g in self.generators if any(x != 0 for x in g)]
        if not gens:
            return SharpnessReport(True, "trivial")
        # pointed iff some w has g . w >= 1 for every nonzero generator g
        if _fourier_motzkin_feasible(
                [([la.QQ.of(c) for c in g], la.QQ.one) for g in gens]):
            return SharpnessReport(True, "pointed-cone")
        wit = next((c for c, point in
                    self.combinations(self.SHARP_SEARCH_BOUND)
                    if any(c) and point == self.zero), None)
        if wit is not None:
            return SharpnessReport(False, "witness", witness=wit)
        return SharpnessReport(None, "bounded-search",
                               bound=self.SHARP_SEARCH_BOUND)

    def combinations(self, bound):
        """Every (coefficients, point): natural coefficients of the
        generators summing to at most ``bound``, by increasing sum and
        lexicographically within one sum, and the point they combine
        to."""
        gens = self.generators

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
            yield from rec(0, total, (), self.zero)

    def contains(self, m, bound=MEMBERSHIP_BOUND):
        """Is m a natural combination of the generators?  True / False /
        None (no combination with coefficient sum at most ``bound``
        reaches m, or the walk outgrew MEMBERSHIP_POINTS points)."""
        m = tuple(int(x) for x in m)
        if all(x == 0 for x in m):
            return True
        if self.diff_coords(m) is None:
            return False
        # outside the rational cone (no lambda >= 0 with sum lambda_i g_i
        # = m, each equality written as two inequalities) m is not in M
        gens = [g for g in self.generators if any(x != 0 for x in g)]
        cons = []
        for t in range(self.ambient_dim):
            coeffs = [la.QQ.of(g[t]) for g in gens]
            cons.append((coeffs, la.QQ.of(m[t])))
            cons.append(([-c for c in coeffs], la.QQ.of(-m[t])))
        for i in range(len(gens)):
            cons.append((la.unit_vector(la.QQ, len(gens), i), la.QQ.zero))
        if not _fourier_motzkin_feasible(cons):
            return False
        # the distinct points of coefficient sum 1, 2, ..., bound, one
        # layer per sum: a point met in an earlier layer adds nothing
        # new.  Past MEMBERSHIP_POINTS points the walk stops as at the
        # bound.
        seen, layer = {self.zero}, {self.zero}
        for _ in range(bound):
            layer = {tuple(x + y for x, y in zip(p, g))
                     for p in layer for g in gens} - seen
            if m in layer:
                return True
            seen |= layer
            if len(seen) > self.MEMBERSHIP_POINTS:
                break
        return None

    def is_invertible(self, m):
        neg = tuple(-x for x in m)
        a = self.contains(m)
        b = self.contains(neg)
        if a is False or b is False:
            return False
        if a is None or b is None:
            return None
        return True

    def __repr__(self):
        return f"AffineMonoid(dim={self.ambient_dim}, gens={self.generators})"


class MonoidAlgebra:
    """Algebra of an affine monoid over a graded base, in fine, coarse or
    d-graded mode.  Elements are finite maps monoid element -> base element."""

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

    def element(self, terms):
        """terms: mapping monoid tuple -> base element or coords."""
        clean = {}
        for m, r in terms.items():
            x = r if isinstance(r, AlgebraElement) else self.base.element(r)
            if not x.is_zero:
                clean[tuple(int(v) for v in m)] = x
        return MonoidAlgebraElement(self, clean)

    def monomial(self, m, r=None):
        r = self.base.one if r is None else r
        return self.element({tuple(m): r})

    @property
    def one(self):
        return self.monomial(self.monoid.zero)

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

    def is_unit(self, x: "MonoidAlgebraElement"):
        """True/False/None; monomials decided directly, general elements
        through the sharp-monoid unit theorem when the base is reduced."""
        terms = x.terms
        if len(terms) == 1:
            (m, r), = terms.items()
            if not classify_element(self.base, r).unit:
                return False
            inv = self.monoid.is_invertible(m)
            return None if inv is None else bool(inv)
        base_cls = classify_ring(self.base)
        sharp = self.monoid.sharpness().sharp
        if base_cls.reduced is True and sharp is True:
            if list(terms) == [self.monoid.zero]:
                return classify_element(self.base, terms[self.monoid.zero]).unit
            return False
        return None

    def __repr__(self):
        return f"MonoidAlgebra({self.base!r}, {self.monoid!r}, mode={self.mode})"


class MonoidAlgebraElement(Record, frozen=True):
    _fields = ("parent", "terms")

    def __init__(self, parent, terms):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "terms", dict(terms))

    def __add__(self, other):
        out = dict(self.terms)
        for m, r in other.terms.items():
            out[m] = out[m] + r if m in out else r
        return self.parent.element(out)

    def __repr__(self):
        return f"MAElt({self.terms})"
