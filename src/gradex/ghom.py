"""Homological machinery over finite-dimensional graded algebras:
graded duals, projective / injective / flat tests, free resolutions and
betti tables, the explicit Schanuel isomorphism, and dimension reports
that survive coarsening.

One syzygy walk (``_syzygies``: cover K_n, step to its kernel K_{n+1})
is the only cover-to-kernel loop.  Resolutions take its first steps,
and dimensions and betti tables are read off it: the projective
dimension is the first n whose cover splits.  For the finitely
generated modules here flat equals projective, so the flat dimension
is the same number; the injective dimension is the projective
dimension of the dual.  ``oracles.injective_dimension_direct`` keeps
its own cokernel walk as an independent cross-check.
"""

from __future__ import annotations

from itertools import islice

from .abgroups import GroupHom, hom_props, kernel_data
from . import exactla as la
from ._record import Record
from .gcore import GradedAlgebra
from . import gmod as gm
from .gmod import (GradedModule, ModuleMorphism, FreeSpec, regular_module,
                   free_cover_from_generators, direct_sum, kernel,
                   radical_submodule, ModuleError, coarsen_module,
                   minimal_generators)


# ---------------------------------------------------------------------------
# graded dual
# ---------------------------------------------------------------------------

def dual(M: GradedModule) -> GradedModule:
    """Scalar dual with degrees negated; (x.f)(v) = f(x.v), so the
    action entries (i, j, k, c) become (i, k, j, c).  dual(dual(M)) is
    M on the nose, the evaluation map being the identity matrix."""
    return GradedModule._derived(M.algebra, [-d for d in M.basis_degrees],
                                 [(i, k, j, c) for i, j, k, c in M.entries()])


def dual_morphism(u: ModuleMorphism) -> ModuleMorphism:
    """Transpose: dual(target) -> dual(source)."""
    T = [[u.matrix[k][j] for k in range(u.target.dim)]
         for j in range(u.source.dim)]
    return ModuleMorphism._derived(dual(u.target), dual(u.source), T)


def injective_cogenerator(R: GradedAlgebra) -> GradedModule:
    """E = dual(R): injective, and a cogenerator on the
    finite-dimensional modules."""
    return dual(regular_module(R))


# ---------------------------------------------------------------------------
# lifting, splitting, projectivity
# ---------------------------------------------------------------------------

def lift_through_epi(p: ModuleMorphism, v: ModuleMorphism):
    """A morphism t with p o t = v (same target), or None: one solve of
    the degree-zero equivariance equations of t stacked on the
    equations p t = v."""
    if p.target.dim != v.target.dim or p.target != v.target:
        raise ModuleError("lift needs a common target")
    f, V, P = p.target.field, v.source, p.source
    slots, rows = gm._hom_equations(V, P, V.group.zero)
    rhs = [f.zero] * len(rows)
    for r in range(v.target.dim):
        for j in range(V.dim):
            row = [p.matrix[r][k] if j2 == j else f.zero
                   for k, j2 in slots]
            if any(row) or v.matrix[r][j] != 0:
                rows.append(row)
                rhs.append(v.matrix[r][j])
    sol, = la.solve_linear(f, rows, [rhs])
    if sol is None:
        return None
    t = la.zeros(f, P.dim, V.dim)
    for (k, j), c in zip(slots, sol):
        t[k][j] = c
    return ModuleMorphism._derived(V, P, t)


def minimal_cover(M: GradedModule) -> ModuleMorphism:
    return free_cover_from_generators(M, minimal_generators(M))


def _splits(p: ModuleMorphism) -> bool:
    """Does the identity of p's target lift through the epimorphism p?"""
    identity = gm.identity_module_morphism(p.target)
    return lift_through_epi(p, identity) is not None


def is_projective(M: GradedModule) -> bool:
    """Does the free cover split?"""
    return M.dim == 0 or _splits(minimal_cover(M))


def is_injective(M: GradedModule) -> bool:
    return is_projective(dual(M))


def is_flat(M: GradedModule) -> bool:
    """For finitely generated modules over these finite-dimensional
    algebras, flat coincides with projective; the tests keep this
    shortcut honest with the Lambek cross-check."""
    return is_projective(M)


# ---------------------------------------------------------------------------
# free resolutions
# ---------------------------------------------------------------------------

class FreeResolution(Record):
    _fields = ("target",
               "covers",      # covers[i]: F_i ->> K_i  (K_0 = target)
               "incls",       # incls[i]: K_{i+1} -> F_i
               "cutoff", "minimal",
               "terminated")  # the last kernel is zero

    @property
    def length(self):
        return len(self.covers)

    def step_spec(self, i) -> FreeSpec:
        F = self.covers[i].source
        # the cover places one block of algebra.dim basis vectors per
        # generator, each shifted by the generator degree
        R = self.target.algebra
        degs = [F.basis_degrees[t] - R.basis_degrees[0]
                for t in range(0, F.dim, max(R.dim, 1))]
        return FreeSpec.from_generator_degrees(degs)

    def step_matrix(self, i):
        """Matrix F_i -> F_{i-1} (or F_0 -> target for i = 0)."""
        if i == 0:
            return self.covers[0].matrix
        comp = self.incls[i - 1].compose(self.covers[i])
        return comp.matrix

    def betti(self):
        out = []
        for i in range(self.length):
            spec = self.step_spec(i)
            table = {}
            for d in spec.generator_degrees():
                key = tuple(d.coords)
                table[key] = table.get(key, 0) + 1
            out.append(table)
        return out

    def verify(self):
        """Composites vanish and ranks account for every kernel."""
        f = self.target.field
        for i in range(1, self.length):
            prev = self.step_matrix(i - 1)
            cur = self.step_matrix(i)
            prod = la.mat_mul(f, prev, cur)
            if any(x != 0 for row in prod for x in row):
                return False
        for i in range(self.length):
            Fi = self.covers[i].source
            Ki = self.covers[i].target
            ker_dim = (self.incls[i].source.dim if i < len(self.incls)
                       else Fi.dim - Ki.dim)
            if la.rank(f, self.covers[i].matrix) != Ki.dim:
                return False
            if i < len(self.incls) and Fi.dim - Ki.dim != ker_dim:
                return False
        if self.minimal:
            for i in range(1, self.length):
                Fprev = self.covers[i - 1].source
                rad = radical_submodule(Fprev)
                cols = self.step_matrix(i)
                if None in la.coords_in_basis(f, rad, [
                        [cols[k][j] for k in range(Fprev.dim)]
                        for j in range(self.covers[i].source.dim)]):
                    return False
        return True


def _check_cutoff(cutoff):
    if not 0 <= cutoff <= 32:
        raise ModuleError(f"cutoff {cutoff} outside the range 0..32")


def _syzygies(M: GradedModule, minimal):
    """The syzygy walk: yields (p_n: F_n ->> K_n, incl_n: K_{n+1} -> F_n)
    with K_0 = M, while K_n is nonzero.  The covers are minimal, or
    spanned by every basis vector of K_n."""
    K = M
    while K.dim:
        p = (minimal_cover(K) if minimal else
             free_cover_from_generators(K, la.eye(K.field, K.dim)))
        K, incl = kernel(p)
        yield p, incl


def _first_split(covers, M: GradedModule):
    """The first n whose cover F_n ->> K_n splits, i.e. the first
    projective syzygy: 0 for M = 0, None when no listed cover splits.
    By Schanuel's lemma it is the same n for every projective
    resolution of M."""
    if M.dim == 0:
        return 0
    return next((n for n, p in enumerate(covers) if _splits(p)), None)


def resolution(M: GradedModule, cutoff=8, minimal=True) -> FreeResolution:
    _check_cutoff(cutoff)
    steps = list(islice(_syzygies(M, minimal), cutoff + 1))
    covers = [p for p, _ in steps]
    incls = [incl for _, incl in steps]
    terminated = not incls or incls[-1].source.dim == 0
    return FreeResolution(M, covers, incls, cutoff, minimal, terminated)


# ---------------------------------------------------------------------------
# Schanuel
# ---------------------------------------------------------------------------

def _schanuel_base(M, coverA, inclA, coverB, inclB):
    """One-step Schanuel: from two epimorphisms alpha: P0 ->> M and
    beta: Q0 ->> M with kernels K, L, the isomorphism theta:
    K + Q0 -> L + P0 through their fibre product.  With lifts tQ
    (alpha tQ = beta) and tP (beta tP = alpha), theta(k, q) =
    (inclB^-1 (q - tP p), p) for p = inclA k + tQ q.  Returns (theta,
    lhs_data, rhs_data) where the data triples are (module, first
    injection, second injection)."""
    f = M.field
    tQ = lift_through_epi(coverA, coverB)
    tP = lift_through_epi(coverB, coverA)
    if tQ is None or tP is None:
        raise ModuleError("free cover failed to lift through an epimorphism")
    lhsD, jK, jQ0 = direct_sum(inclA.source, coverB.source)
    rhsD, jL, jP0 = direct_sum(inclB.source, coverA.source)
    p = [a + b for a, b in zip(inclA.matrix, tQ.matrix)]
    q = [[f.zero] * inclA.source.dim + row
         for row in la.eye(f, coverB.source.dim)]
    rest = [[f.sub(a, b) for a, b in zip(qr, tr)]
            for qr, tr in zip(q, la.mat_mul(f, tP.matrix, p))]
    cols = la.solve_linear(f, inclB.matrix, [[row[j] for row in rest]
                                             for j in range(lhsD.dim)])
    if None in cols:  # inclB is not the kernel of beta
        raise ModuleError("vector escapes the fibre product")
    theta = [[c[k] for c in cols] for k in range(inclB.source.dim)] + p
    return (ModuleMorphism._derived(lhsD, rhsD, theta), (lhsD, jK, jQ0),
            (rhsD, jL, jP0))


def schanuel_glue(res1: FreeResolution, res2: FreeResolution, n: int):
    """Explicit isomorphism K + Q_{n-1} + P_{n-2} + ... =
    L + P_{n-1} + Q_{n-2} + ... between the n-th kernels of two free
    resolutions of the same module, built by fibre products exactly as
    in the inductive proof.  Returns (iso, verified)."""
    if n < 1:
        raise ModuleError(f"glue length {n} must be at least 1")
    if res1.target != res2.target:
        raise ModuleError("resolutions do not resolve the same module")
    if res1.length < n or res2.length < n:
        raise ModuleError("resolutions shorter than the glue length")
    coversA = res1.covers[:n]
    inclsA = res1.incls[:n]
    coversB = res2.covers[:n]
    inclsB = res2.incls[:n]
    iso = _schanuel_rec(res1.target, coversA, inclsA, coversB, inclsB)
    lhs_h = sorted((tuple(d.coords), c)
                   for d, c in iso.source.hilbert().items())
    rhs_h = sorted((tuple(d.coords), c)
                   for d, c in iso.target.hilbert().items())
    verified = iso.is_iso() and lhs_h == rhs_h
    return iso, verified


def _pad(cover, incl, j_kernel, j_free, twist, target):
    """The next step of a resolution padded by a free summand Q of the
    Schanuel sum ker + Q: the cover F + Q ->> ker + Q, carried onto
    target by the matrix twist, and its kernel inclusion into F + Q."""
    f = target.field
    FQ, jF, _ = direct_sum(cover.source, j_free.source)
    aug = [a + b for a, b in
           zip(la.mat_mul(f, j_kernel.matrix, cover.matrix), j_free.matrix)]
    return (ModuleMorphism._derived(FQ, target, la.mat_mul(f, twist, aug)),
            ModuleMorphism._derived(incl.source, FQ,
                                    la.mat_mul(f, jF.matrix, incl.matrix)))


def _schanuel_rec(M, coversA, inclsA, coversB, inclsB):
    f = M.field
    theta, (lhs, jK1, jQ0), (_, jL1, jP0) = _schanuel_base(
        M, coversA[0], inclsA[0], coversB[0], inclsB[0])
    if len(coversA) == 1:
        return theta
    # padded resolutions of M' = K1 + Q0:
    #   P1 + Q0 ->> K1 + Q0        with kernel K2 inside P1
    #   Q1 + P0 ->> L1 + P0 -theta^{-1}-> K1 + Q0   with kernel L2
    augA, inclA2 = _pad(coversA[1], inclsA[1], jK1, jQ0,
                        la.eye(f, lhs.dim), lhs)
    augB, inclB2 = _pad(coversB[1], inclsB[1], jL1, jP0,
                        la.mat_inverse(f, theta.matrix), lhs)
    return _schanuel_rec(lhs,
                         [augA] + coversA[2:], [inclA2] + inclsA[2:],
                         [augB] + coversB[2:], [inclB2] + inclsB[2:])


# ---------------------------------------------------------------------------
# dimension reports
# ---------------------------------------------------------------------------

class DimensionReport(Record):
    _fields = ("kind",    # "projective" | "injective" | "flat"
               "value",   # None encodes the lower bound ">= cutoff"
               "cutoff")

    @property
    def display(self):
        return str(self.value) if self.value is not None else \
            f">={self.cutoff}"

    def __eq__(self, other):
        return (isinstance(other, DimensionReport)
                and self.kind == other.kind and self.value == other.value
                and self.cutoff == other.cutoff)


def dimension(M: GradedModule, kind="projective", cutoff=8) -> DimensionReport:
    """The first n <= cutoff whose syzygy K_n is projective, scanned
    lazily along the one syzygy walk; it stops at the first split, so a
    projective module that is not free (over K x K, say) costs one step
    although its resolution never terminates.  Flat dimension is the
    same number (see is_flat); injective dimension is the projective
    dimension of the dual."""
    if kind not in ("projective", "flat", "injective"):
        raise ModuleError(f"unknown dimension kind {kind!r}")
    _check_cutoff(cutoff)
    N = dual(M) if kind == "injective" else M
    covers = (p for p, _ in islice(_syzygies(N, True), cutoff + 1))
    return DimensionReport(kind, _first_split(covers, N), cutoff)


def _agreement(fine: DimensionReport, coarse: DimensionReport):
    return {"fine": fine.display, "coarse": coarse.display,
            "equal": fine.value == coarse.value}


def coarsen_dimension_compare(M: GradedModule, psi: GroupHom, cutoff=6):
    """pd / fd (and id when ker(psi) is finite) must agree between M
    and its coarsening, along with the pushed-forward betti tables."""
    epi, _, _ = hom_props(psi)
    if not epi:
        raise ModuleError("dimension comparison needs an epimorphism")
    Mc = coarsen_module(M, psi)
    res, resc = resolution(M, cutoff), resolution(Mc, cutoff)
    # flat dimension is projective dimension (see is_flat)
    pd = [DimensionReport("projective", _first_split(r.covers, r.target),
                          cutoff) for r in (res, resc)]
    report = {"projective": _agreement(*pd), "flat": _agreement(*pd)}
    _, _, _, finite, _ = kernel_data(psi)
    if finite:
        report["injective"] = _agreement(dimension(M, "injective", cutoff),
                                         dimension(Mc, "injective", cutoff))
    else:
        report["injective"] = {
            "skipped": "kernel of the coarsening map is infinite"}
    fine_betti = []
    for i, table in enumerate(res.betti()):
        pushed = {}
        for key, c in table.items():
            e = tuple(psi(M.algebra.group.element(key)).coords)
            pushed[e] = pushed.get(e, 0) + c
        fine_betti.append(pushed)
    coarse_betti = resc.betti()
    report["betti_equal"] = fine_betti == coarse_betti
    report["betti"] = coarse_betti
    report["ok"] = (report["betti_equal"]
                    and all(v.get("equal", True) for v in report.values()
                            if isinstance(v, dict)))
    return report
