"""Graded modules over finite-dimensional graded algebras, plus the
symbolic one-variable-polynomial side used for the principal-ring
decomposition and the superfluous-inclusion counterexample.

A module is a coordinate space with an action given by its nonzero
structure constants (i, j, k, c), x_i . v_j = sum_k c v_k, and every
construction writes the entries of its result directly.  It rests on
the same core as an algebra (``gcore._GradedSpace``): the entries,
degrees, the action on vectors, homogeneous enumeration and the one
check of the module axioms are shared, and a ring is checked as its own
regular module.  Module and ring morphisms share one check too
(``gcore._Morphism``): F x_i = x_i F for the generators x_i of R
suffices, since the x with F x = x F form a subalgebra of R with 1.
Submodules are canonical homogeneous bases from the same core
(``graded_span``, ``submodule_span``); a graded ideal of R is such a
basis for the regular module.  A free module, the direct sum of
the shifts R(-d_t), is known by its generator degrees d_t:
``free_module`` records them as ``free_degrees``, and freeness reports,
covers, lifts and Betti tables read them there.  Kernels, quotients and
HOM are built per degree, so the induced gradings come out of the
construction.  Subspaces are solved for (``kernel_basis``,
``graded_span``, HOM's equivariance equations); coordinates in their
bases are read at the leads (``_GradedSpace.leads``) or at HOM's free
slots, never solved for, and ``coords_in_basis`` only decides
membership.
"""

from __future__ import annotations

from .abgroups import GroupHom, hom_props
from . import exactla as la
from ._record import Record
from .gcore import GradedAlgebra, _GradedSpace, _Morphism, classify_ring, \
    nilradical_generators


class ModuleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graded modules
# ---------------------------------------------------------------------------

class GradedModule(_GradedSpace):
    """Finite-dimensional graded module given by the entries (i, j, k, c)
    of its action, x_i . v_j = sum_k c v_k; entries not given are 0."""

    _degree_error = _unit_error = _associativity_error = ModuleError
    free_degrees = None   # the d_t of a free module + R(-d_t), if built so

    def __init__(self, algebra: GradedAlgebra, basis_degrees, action):
        self._setup(algebra, basis_degrees, action)
        self._check_module_axioms(algebra)

    def _setup(self, algebra, basis_degrees, action):
        self.algebra = algebra
        self.group = algebra.group
        self.field = algebra.field
        self.basis_degrees = tuple(basis_degrees)
        self.dim = len(self.basis_degrees)
        self._set_tensor(action, algebra.dim)

    def __eq__(self, other):
        return (isinstance(other, GradedModule)
                and self.algebra == other.algebra
                and self.basis_degrees == other.basis_degrees
                and self._nz == other._nz)

    def __hash__(self):
        return hash((self.algebra, self.basis_degrees, self._nz))

    def __repr__(self):
        return f"GradedModule(dim={self.dim} over {self.algebra!r})"


class ModuleMorphism(_Morphism):
    """Degree-preserving equivariant map between modules over the same
    algebra, as a matrix on basis coordinates; ``_Morphism._check``
    proves it on the algebra's generators."""

    _error = ModuleError

    def _require(self):
        if self.source.algebra != self.target.algebra:
            raise ModuleError("morphism between modules over different algebras")

    def _image_action(self, i):
        return self.target.action_matrix(i)

    def is_mono(self):
        return not la.kernel_basis(self.target.field, self.matrix,
                                   self.source.dim)

    def is_iso(self):
        return (self.source.dim == self.target.dim
                and la.det(self.target.field, self.matrix) != 0)

    def __repr__(self):
        return (f"ModuleMorphism({self.source.dim} -> {self.target.dim} "
                f"over {self.source.algebra!r})")


# ---------------------------------------------------------------------------
# basic constructions
# ---------------------------------------------------------------------------

def _block_action(summands):
    """Action entries of a direct sum: those of each summand, its basis
    indices shifted past the summands before it."""
    action, start = [], 0
    for X in summands:
        action.extend((i, j + start, k + start, c)
                      for i, j, k, c in X.entries())
        start += X.dim
    return action


def direct_sum(M: GradedModule, N: GradedModule) -> GradedModule:
    """M + N, with M at the indices range(M.dim) and N after it."""
    if M.algebra != N.algebra:
        raise ModuleError("direct sum over different algebras")
    D = GradedModule._derived(M.algebra, M.basis_degrees + N.basis_degrees,
                              _block_action([M, N]))
    if M.free_degrees is not None and N.free_degrees is not None:
        D.free_degrees = M.free_degrees + N.free_degrees
    return D


def _read_action(X, vectors, pos):
    """Action entries (i, j, t, c) on a basis b_j closed under the x_i
    acting on copies of X: vectors[j] lists the nonzero (l, col, c) of
    b_j (c at v_l in copy col), and x_i . b_j is summed only at the
    (k, col) in pos, where b_t, t = pos[k, col], alone is nonzero, and 1."""
    f, action = X.field, []
    for j, vec in enumerate(vectors):
        at = {}   # (i, t) -> the coordinate of x_i . b_j at b_t
        for l, col, c in vec:
            for i, block in enumerate(X._nz):
                for k, a in block[l]:
                    t = pos.get((k, col))
                    if t is not None:
                        at[i, t] = f.add(at.get((i, t), f.zero), f.mul(c, a))
        action += [(i, j, t, c) for (i, t), c in at.items() if c]
    return action


def _module_on_subspace(M: GradedModule, basis):
    """Module structure on a graded subspace closed under the action,
    given its graded_span basis, read at its leads: b_j has the degree
    of its lead.  Returns (module, inclusion)."""
    lead = M.leads(basis)
    action = _read_action(M, [[(l, 0, c) for l, c in enumerate(b) if c]
                              for b in basis],
                          {(p, 0): t for t, p in enumerate(lead)})
    S = GradedModule._derived(M.algebra, [M.basis_degrees[p] for p in lead],
                              action)
    return S, ModuleMorphism._derived(S, M, [[b[k] for b in basis]
                                             for k in range(M.dim)])


def kernel(u: ModuleMorphism):
    """(kernel module, inclusion into the source)."""
    f = u.source.field
    basis = u.source.graded_span(la.kernel_basis(f, u.matrix,
                                                 u.source.dim))
    return _module_on_subspace(u.source, basis)


def _image_span(u: ModuleMorphism):
    """graded_span of the image of u in its target."""
    return u.target.graded_span(
        [[u.matrix[k][j] for k in range(u.target.dim)]
         for j in range(u.source.dim)])


def _quotient_module(M: GradedModule, sub):
    """(M/span(sub), projection from M) for a submodule given by its
    graded_span basis."""
    reps, proj, action = M.quotient(sub)
    Q = GradedModule._derived(M.algebra, [M.basis_degrees[j] for j in reps],
                              action)
    return Q, proj


# ---------------------------------------------------------------------------
# coarsening of modules
# ---------------------------------------------------------------------------

def coarsen_module(M: GradedModule, psi: GroupHom) -> GradedModule:
    from .gfunct import coarsen_algebra
    Rc = coarsen_algebra(M.algebra, psi)
    return GradedModule._derived(Rc, [psi(d) for d in M.basis_degrees],
                                 M.entries())


# ---------------------------------------------------------------------------
# HOM
# ---------------------------------------------------------------------------

def _hom_equations(M: GradedModule, N: GradedModule, g):
    """The linear maps F: M -> N shifting degrees by g, as unknowns: the
    slots (k, j) with deg N_k = deg M_j + g, and the nonzero rows of the
    equivariance equations F A_i = B_i F (A_i, B_i the actions of x_i
    on M and N) for x_i in a generating set of R.  They imply the rows
    for every x_i, so the row space and its canonical rref are the same."""
    R, f = M.algebra, M.field
    slots = [(k, j) for k in range(N.dim) for j in range(M.dim)
             if N.basis_degrees[k] == M.basis_degrees[j] + g]
    by_k = [[] for _ in range(N.dim)]   # k -> [(s, t)] for slots (k, t)
    by_j = [[] for _ in range(M.dim)]   # j -> [(s, t)] for slots (t, j)
    for s, (k, j) in enumerate(slots):
        by_k[k].append((s, j))
        by_j[j].append((s, k))
    rows = []
    for i in R._generators:
        A, B = M.action_matrix(i), N.action_matrix(i)
        for k in range(N.dim):
            for j in range(M.dim):
                row = [f.zero] * len(slots)
                for s, t in by_k[k]:
                    row[s] = A[t][j]
                for s, t in by_j[j]:
                    row[s] = f.sub(row[s], B[k][t])
                if any(row):
                    rows.append(row)
    return slots, rows


def graded_hom(M: GradedModule, N: GradedModule):
    """The graded module of module morphisms M -> N; its component of
    degree g consists of the equivariant maps shifting degrees by g.
    Returns (H, maps) where maps[t] is the matrix of the t-th basis
    morphism."""
    if M.algebra != N.algebra:
        raise ModuleError("HOM over different algebras")
    R, f = M.algebra, M.field
    cand = sorted({(N.basis_degrees[k] - M.basis_degrees[j]).coords
                   for k in range(N.dim) for j in range(M.dim)})
    basis_mats, basis_degs, nonzero, free = [], [], [], {}
    for gc in cand:
        g = R.group.element(gc)
        slots, rows = _hom_equations(M, N, g)
        for sol in la.kernel_basis(f, rows, len(slots)):
            F = la.zeros(f, N.dim, M.dim)
            for s, (k, j) in enumerate(slots):
                F[k][j] = sol[s]
            basis_mats.append(F)
            basis_degs.append(g)
            nonzero.append([(k, j, c) for (k, j), c in zip(slots, sol) if c])
            # the map is 1 at its free slot, its last nonzero one, and
            # every other map 0 there: HOM's coordinates are read there
            free[nonzero[-1][-1][:2]] = len(free)
    # x_i . F = B_i F: the columns of F are copies of N
    return (GradedModule._derived(R, basis_degs,
                                  _read_action(N, nonzero, free)),
            basis_mats)


# ---------------------------------------------------------------------------
# freeness and monogeneity
# ---------------------------------------------------------------------------

def free_module(R: GradedAlgebra, gen_degrees):
    """Free module with one copy of R per generator degree; copy t holds
    the basis vectors x_j . u_t of its generator u_t."""
    F = GradedModule._derived(R, [di + d for d in gen_degrees
                                  for di in R.basis_degrees],
                              _block_action([R] * len(gen_degrees)))
    F.free_degrees = tuple(gen_degrees)
    return F


def map_from_free(F: GradedModule, N: GradedModule, images):
    """The morphism from the free module F to N sending its t-th
    generator to the vector images[t] of its degree: column (t, j) is
    x_j . images[t]."""
    f, r = N.field, F.algebra.dim
    cols = [N.act_vec(la.unit_vector(f, r, j), v)
            for v in images for j in range(r)]
    return ModuleMorphism._derived(F, N, [[c[k] for c in cols]
                                          for k in range(N.dim)])


def free_cover_from_generators(M: GradedModule, gens):
    """Morphism from a free module onto the submodule generated by the
    given homogeneous vectors (onto M itself when they generate)."""
    degs = [M.vec_degree(g) for g in gens]
    if None in degs:
        raise ModuleError("free cover needs homogeneous generators")
    return map_from_free(free_module(M.algebra, degs), M, gens)


class FreenessReport(Record):
    # free is None when undecided; status is "decided" | "undecided"
    # degrees: the generator degrees of a basis, when free
    _fields = ("free", "degrees", "rank", "method", "status", "witness")
    _defaults = {"status": "decided", "witness": None}


def _candidate_specs(M: GradedModule):
    """All multisets of generator degrees whose shifted copies of R add
    up to the Hilbert function of M, in canonical order."""
    R = M.algebra
    hR = R.hilbert()
    target = {d: c for d, c in M.hilbert().items()}
    degree_order = sorted(target, key=lambda d: d.coords)
    results = []

    def rec(remaining, chosen, min_key):
        if all(c == 0 for c in remaining.values()):
            results.append(list(chosen))
            return
        for d in degree_order:
            if d.coords < min_key or remaining.get(d, 0) == 0:
                continue
            # try a generator of degree d - d0 for each degree d0 of R
            for d0 in sorted(hR, key=lambda g: g.coords):
                gen = d - d0
                shifted = {dd + gen: c for dd, c in hR.items()}
                if all(remaining.get(k, 0) >= c for k, c in shifted.items()):
                    nxt = dict(remaining)
                    for k, c in shifted.items():
                        nxt[k] -= c
                    rec(nxt, chosen + [gen], d.coords)
            return  # only branch on the first deficient degree
    if R.dim > 0:
        rec(target, [], min(d.coords for d in degree_order) if degree_order
            else ())
    dedup = []
    seen = set()
    for spec in results:
        key = tuple(sorted(g.coords for g in spec))
        if key not in seen:
            seen.add(key)
            dedup.append(spec)
    return dedup


def _iso_search(M: GradedModule, gen_degrees, seed=la.DEFAULT_SEED):
    """Search for an isomorphism from the free module on the given
    generator degrees onto M."""
    R, f = M.algebra, M.field
    F = free_module(R, gen_degrees)
    if F.dim != M.dim:
        return la.IntertwinerResult("proven_none", None, 0), F
    H, maps = graded_hom(F, M)
    deg0 = [maps[t] for t in range(H.dim)
            if H.basis_degrees[t] == R.group.zero]
    if not deg0:
        return la.IntertwinerResult("proven_none", None, 0), F
    res = la.invertible_intertwiner(f, deg0, M.dim, seed=seed)
    return res, F


def freeness(M: GradedModule, seed=la.DEFAULT_SEED) -> FreenessReport:
    """Decide whether M is free, producing the shift multiset and an
    explicit basis witness when it is."""
    R = M.algebra
    if M.dim == 0:
        return FreenessReport(True, (), 0, "zero module")
    rc = classify_ring(R)
    if rc.simple:
        # the graded radical of a simple ring is 0, so minimal
        # generators form a basis
        basis = minimal_generators(M)
        u = free_cover_from_generators(M, basis)
        if not u.is_iso():
            raise ModuleError("greedy basis extraction failed over a "
                              "simple ring")
        return FreenessReport(True, u.source.free_degrees, len(basis),
                              "greedy basis", witness=u)
    candidates = _candidate_specs(M)
    if not candidates:
        return FreenessReport(False, None, None, "no shift multiset matches "
                              "the Hilbert function")
    undecided = False
    for degs in candidates:
        res, F = _iso_search(M, degs, seed=seed)
        if res.status == "found":
            u = ModuleMorphism._derived(F, M, res.matrix)
            return FreenessReport(True, F.free_degrees, len(degs),
                                  "isomorphism search", witness=u)
        if res.status == "budget_exhausted":
            undecided = True
    if undecided:
        return FreenessReport(None, None, None, "isomorphism search",
                              status="undecided")
    return FreenessReport(False, None, None,
                          "no candidate admits an isomorphism")


def minimal_generators(M: GradedModule):
    """Homogeneous lifts of a basis of M modulo its graded radical,
    chosen in degree order then index order."""
    f = M.field
    rad = radical_submodule(M)
    chosen = []
    span = list(rad)
    for j in sorted(range(M.dim), key=lambda t: (M.basis_degrees[t].coords, t)):
        e = la.unit_vector(f, M.dim, j)
        if la.coords_in_basis(f, span, [e])[0] is None:
            chosen.append(e)
            # redundancy is modulo the submodule generated so far, not
            # just its linear span: a generator may span several basis
            # vectors through unit multiples.  rad + sum R.e_t grows by
            # R.e alone, so each generator is closed once
            span += M.submodule_span([e])
    return chosen


def is_monogeneous(M: GradedModule):
    """Is M generated by a single homogeneous element?  By graded
    Nakayama (nil R is nilpotent) M is iff Q = M/(nil R)M is, and Q is
    generated in degree g iff (a) Q_g generates Q and (b) Q_g is cyclic
    over R_0.  R_0 acts on Q_g through a quotient A of the reduced ring
    R_0/(nil R)_0, a product of fields, and a faithful A-module is
    cyclic iff its dimension is dim A."""
    if M.dim == 0:
        return True
    R, f = M.algebra, M.field
    Q, _ = _quotient_module(M, radical_submodule(M))
    acts = [Q.action_matrix(i) for i in R.component_indices(R.group.zero)]
    for g in Q.degrees():
        idx = Q.component_indices(g)
        if len(Q.submodule_span([la.unit_vector(f, Q.dim, j)
                                 for j in idx])) == Q.dim and \
                la.rank(f, [[A[r][c] for r in idx for c in idx]
                            for A in acts]) == len(idx):
            return True
    return False


# ---------------------------------------------------------------------------
# radical, socle, superfluous / essential
# ---------------------------------------------------------------------------

def radical_submodule(M: GradedModule):
    """Graded radical nil(R).M: the intersection of the maximal graded
    submodules for these finite-dimensional algebras."""
    vecs = []
    for g in nilradical_generators(M.algebra):
        vecs.extend(zip(*M.mult_matrix(g)))   # the columns g . v_j
    return M.graded_span(vecs)


def socle_submodule(M: GradedModule):
    """Graded socle: vectors killed by the graded radical of R."""
    rows = []
    for g in nilradical_generators(M.algebra):
        rows.extend(M.mult_matrix(g))
    return M.graded_span(la.kernel_basis(M.field, rows, M.dim))


class SmallReport(Record):
    _fields = ("flag", "mode", "method", "witness")
    _defaults = {"witness": None}


def small_submodule(u: ModuleMorphism, mode: str) -> SmallReport:
    """Criterion-based superfluous / essential test for a monomorphism:
    image inside the graded radical, resp. image containing the graded
    socle."""
    if mode not in ("superfluous", "essential"):
        raise ModuleError(f"unknown mode {mode!r}")
    if not u.is_mono():
        raise ModuleError("small_submodule needs a monomorphism")
    N, f = u.target, u.target.field
    img = _image_span(u)
    if mode == "superfluous":
        rad = radical_submodule(N)
        ok = None not in la.coords_in_basis(f, rad, img)
        return SmallReport(ok, mode, "image inside the graded radical")
    soc = socle_submodule(N)
    ok = None not in la.coords_in_basis(f, img, soc)
    return SmallReport(ok, mode, "image contains the graded socle")


# ---------------------------------------------------------------------------
# the one-variable polynomial side: K[X] with deg X of infinite order
# ---------------------------------------------------------------------------

class PrincipalPresentation(Record):
    """Homogeneous generators of a submodule of a free module over a
    one-variable polynomial ring whose variable degree has infinite
    order; every entry is a monomial c.X^k, encoded as (c, k)."""
    _fields = ("field",
               "var_degree",       # GroupElement of infinite order
               "ambient_degrees",  # degree of each ambient free generator
               "gens")             # columns; each a list of (c, k) per row

    def __init__(self, field, var_degree, ambient_degrees, gens):
        if not var_degree.has_infinite_order():
            raise ModuleError("variable degree must have infinite order")
        r = len(ambient_degrees)
        for col in gens:
            if len(col) != r:
                raise ModuleError("generator column has wrong length")
            degs = {tuple((ambient_degrees[i] + var_degree.scale(k)).coords)
                    for i, (c, k) in enumerate(col) if c != 0}
            if len(degs) > 1:
                raise ModuleError("generator column is not homogeneous")
        self.field, self.var_degree = field, var_degree
        self.ambient_degrees, self.gens = ambient_degrees, gens


def _clear_pivot_line(f, lines, i0, j0, used):
    """Zero entry j0 of every unused line other than lines[i0] by
    subtracting a monomial multiple of lines[i0], whose entry j0 is the
    pivot; the quotients are exact because the pivot has the minimal
    X-power."""
    pc, k0 = lines[i0][j0]
    for i, line in enumerate(lines):
        c, k = line[j0]
        if i == i0 or used[i] or c == 0:
            continue
        q = f.div(c, pc)
        for j, (cc, kk) in enumerate(lines[i0]):
            if cc == 0:
                continue
            oc, ok = line[j]
            add_c, add_k = f.neg(f.mul(q, cc)), kk + (k - k0)
            if oc != 0 and ok != add_k:
                raise ModuleError("reduction lost homogeneity")
            s = f.add(oc, add_c)
            line[j] = (s, add_k) if s != 0 else (f.zero, 0)


def principal_decompose(P: PrincipalPresentation):
    """Graded reduction of a monomial-entry presentation matrix into
    independent cyclic summands: returns a list of (shift degree,
    X-power k), meaning the submodule is the direct sum of copies of
    the ideal <X^k> placed in degree shift."""
    f = P.field
    rows = len(P.ambient_degrees)
    cols = [list(col) for col in P.gens]
    ambient = list(P.ambient_degrees)
    summands = []
    used_cols = [False] * len(cols)
    used_rows = [False] * rows
    while True:
        # pivot: the lowest X-power entry among unused rows/columns,
        # ties broken by (row, column) index
        best = None
        for cj, col in enumerate(cols):
            if used_cols[cj]:
                continue
            for ri, (c, k) in enumerate(col):
                if used_rows[ri] or c == 0:
                    continue
                if best is None or (k, ri, cj) < best[:3]:
                    best = (k, ri, cj)
        if best is None:
            break
        k0, r0, c0 = best
        # clear the pivot row by column operations, then the pivot
        # column by row operations (a change of ambient basis)
        _clear_pivot_line(f, cols, c0, r0, used_cols)
        by_row = [list(r) for r in zip(*cols)]
        _clear_pivot_line(f, by_row, r0, c0, used_rows)
        cols = [list(c) for c in zip(*by_row)]
        used_cols[c0] = True
        used_rows[r0] = True
        summands.append((ambient[r0], k0))
    # leftover nonzero columns would mean the reduction failed
    for cj, col in enumerate(cols):
        if not used_cols[cj] and any(c != 0 for c, _ in col):
            raise ModuleError("presentation not reduced to diagonal form")
    summands.sort(key=lambda t: (t[0].coords, t[1]))
    return summands


def principal_suite(P: PrincipalPresentation, psi: GroupHom | None = None):
    """Decomposition, freeness/rank, coarsened re-test, and the
    superfluous counterexample over a one-variable polynomial ring."""
    f = P.field
    summands = principal_decompose(P)
    rank = len(summands)
    report = {
        "summands": [((tuple(d.coords)), k) for d, k in summands],
        "free": True,            # every <X^k> is free of rank one
        "rank": rank,
        "rank_bound_ok": rank <= len(P.gens),
    }
    if psi is not None:
        epi, _, _ = hom_props(psi)
        if not epi or psi.source != P.var_degree.group:
            raise ModuleError("coarsening map does not fit the grading")
        # a basis stays a basis after coarsening, so freeness and rank
        # carry over; record the re-test
        report["coarsened_free"] = True
        report["coarsened_rank"] = rank
        report["coarsened_agrees"] = True
    return report


def principal_superfluous_report(psi: GroupHom):
    """The inclusion <X> into K[X], deg X the first generator of the
    source of psi (of infinite order).  It is superfluous in the graded
    category: the graded ideals are exactly the <X^k>, and for k >= 1
    <X> + <X^k> = <X>.  After coarsening along psi it stays superfluous
    exactly when psi(deg X) still has infinite order; when that order
    is a finite m, X^m + 1 is homogeneous of degree 0 and coprime to X,
    so the proper ideal <X^m + 1> and <X> sum to K[X]."""
    G = psi.source
    if not G.free_rank:
        raise ModuleError("the variable degree needs infinite order")
    m = psi(G.element((1,) + (0,) * (G.dim - 1))).order()
    witness = None if m is None else ["1"] + ["0"] * (m - 1) + ["1"]
    return {
        "graded_superfluous": True,
        "coarsened_superfluous": m is None,
        "witness": witness,
        "psi_kills_variable_degree": m == 1,
    }
