"""Homological machinery over finite-dimensional graded algebras:
graded duals, the projectivity test, free resolutions and betti
tables, the explicit Schanuel isomorphism, and dimension reports that
survive coarsening.

``resolution`` holds the only cover-to-kernel loop (cover K_n, step to
its kernel K_{n+1}); betti tables are read off it.  ``schanuel_glue``
writes its maps as blocks over direct sums, reads the inverse of a
kernel inclusion at the leads of its basis and solves where it applies
the inverse of theta.  Dimensions are decided by theorem: every
algebra here is finite-dimensional and commutative, hence artinian, and
over such a ring a finitely generated module of finite projective or
injective dimension has dimension 0 (Auslander-Buchsbaum; Bass).  So a
dimension is 0 when the module (or its dual, for the injective one) is
projective, which Tor_1(-, R/nil R) decides, and infinite otherwise; a
report's ``">=N"`` is a proven bound.
"""

from __future__ import annotations

from collections import Counter

from .abgroups import GroupHom, hom_props, kernel_data
from . import exactla as la
from ._record import Record
from .gcore import _scatter, nilradical, nilradical_generators
from .gmod import (GradedModule, ModuleMorphism,
                   free_cover_from_generators, map_from_free, direct_sum,
                   kernel, radical_submodule, ModuleError, coarsen_module,
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


# ---------------------------------------------------------------------------
# lifting, projectivity
# ---------------------------------------------------------------------------

def lift_through_epi(p: ModuleMorphism, v: ModuleMorphism):
    """A morphism t from the free source V of v with p o t = v (same
    target), or None.  t sends each generator u of V, of degree d, to a
    solution y in P_d of p(y) = v(u): one solve per generator."""
    if p.target.dim != v.target.dim or p.target != v.target:
        raise ModuleError("lift needs a common target")
    V, P, M, f = v.source, p.source, p.target, p.target.field
    if V.free_degrees is None:
        raise ModuleError("lift needs a free source")
    n, images = V.algebra.dim, []
    for t, d in enumerate(V.free_degrees):
        cols, rows = P.component_indices(d), M.component_indices(d)
        vu = la.mat_vec_mul(f, [v.matrix[r][t * n:(t + 1) * n]
                                for r in rows], V.algebra.unit)
        sol, = la.solve_linear(f, [[p.matrix[r][k] for k in cols]
                                   for r in rows], [vu])
        if sol is None:
            return None
        images.append(_scatter(f, P.dim, cols, sol))
    return map_from_free(V, P, images)


def minimal_cover(M: GradedModule) -> ModuleMorphism:
    return free_cover_from_generators(M, minimal_generators(M))


def _tor1_vanishes(p: ModuleMorphism) -> bool:
    """Is Tor_1(M, R/N) = 0 for the free cover p: F ->> M, N = nil(R)?
    With K = ker p, 0 -> Tor_1 -> K/NK -> F/NF -> M/NM -> 0 is exact, so
    dim Tor_1 = dim NF - dim NK - dim NM; NF is one copy of N for each
    generator of F, and NK is spanned by the g.k for the ideal
    generators g of N, since K is a submodule."""
    F, f, R = p.source, p.source.field, p.source.algebra
    K = la.kernel_basis(f, p.matrix, F.dim)
    NK = [F.act_vec(g, k) for g in nilradical_generators(R) for k in K]
    return len(F.free_degrees) * len(nilradical(R)) == \
        la.rank(f, NK) + len(radical_submodule(p.target))


def is_projective(M: GradedModule) -> bool:
    """Is Tor_1(M, R/nil R) zero?  By graded Nakayama on each graded-local
    block of R (R/nil R is a product of graded fields), iff projective."""
    return M.dim == 0 or _tor1_vanishes(minimal_cover(M))


# ---------------------------------------------------------------------------
# free resolutions
# ---------------------------------------------------------------------------

class FreeResolution(Record):
    _fields = ("target",
               "covers",      # covers[i]: F_i ->> K_i  (K_0 = target)
               "incls",       # incls[i]: K_{i+1} -> F_i
               "cutoff",
               "terminated")  # the last kernel is zero

    @property
    def length(self):
        return len(self.covers)

    def step_matrix(self, i):
        """Matrix F_i -> F_{i-1} (or F_0 -> target for i = 0)."""
        if i == 0:
            return self.covers[0].matrix
        return self.incls[i - 1].compose(self.covers[i]).matrix

    def betti(self):
        return [dict(Counter(d.coords for d in p.source.free_degrees))
                for p in self.covers]

    def verify(self):
        """Composites vanish and ranks account for every kernel."""
        f = self.target.field
        d = [self.step_matrix(i) for i in range(self.length)]
        for i in range(1, self.length):
            prod = la.mat_mul(f, d[i - 1], d[i])
            if any(x != 0 for row in prod for x in row):
                return False
        return all(la.rank(f, p.matrix) == p.target.dim and
                   p.source.dim - p.target.dim == incl.source.dim
                   for p, incl in zip(self.covers, self.incls))

    def is_minimal(self):
        """Does each kernel K_{i+1} lie in nil(R) F_i?  Then no cover has
        a superfluous generator (graded Nakayama).  Greedy covers can
        fail it when (R/nil R)_0 is not a field, as over Q x Q."""
        f = self.target.field
        return all(None not in la.coords_in_basis(
            f, radical_submodule(p.source), [list(c) for c in
                                             zip(*incl.matrix)])
            for p, incl in zip(self.covers, self.incls))


def _check_cutoff(cutoff):
    if not 0 <= cutoff <= 32:
        raise ModuleError(f"cutoff {cutoff} outside the range 0..32")


def resolution(M: GradedModule, cutoff=8, minimal=True) -> FreeResolution:
    """The first cutoff + 1 steps (p_n: F_n ->> K_n, incl_n: K_{n+1} ->
    F_n) with K_0 = M, fewer when a kernel is zero.  The covers are
    minimal, or spanned by every basis vector of K_n."""
    _check_cutoff(cutoff)
    covers, incls, K = [], [], M
    while K.dim and len(covers) <= cutoff:
        p = (minimal_cover(K) if minimal else
             free_cover_from_generators(K, la.eye(K.field, K.dim)))
        K, incl = kernel(p)
        covers.append(p)
        incls.append(incl)
    return FreeResolution(M, covers, incls, cutoff, K.dim == 0)


# ---------------------------------------------------------------------------
# Schanuel
# ---------------------------------------------------------------------------

def _schanuel_base(M, coverA, inclA, coverB, inclB):
    """One-step Schanuel: from two epimorphisms alpha: P0 ->> M and
    beta: Q0 ->> M with kernels K, L, the isomorphism theta:
    K + Q0 -> L + P0 through their fibre product.  With lifts tQ
    (alpha tQ = beta) and tP (beta tP = alpha), theta(k, q) =
    (inclB^-1 (q - tP p), p) for p = [inclA | tQ](k, q).  The columns
    of inclB must be a graded_span basis (as ``kernel`` and ``_pad``
    build them), so inclB^-1 is read at their leads, and one product
    checks that q - tP p lies in L."""
    f = M.field
    tQ = lift_through_epi(coverA, coverB)
    tP = lift_through_epi(coverB, coverA)
    if tQ is None or tP is None:
        raise ModuleError("free cover failed to lift through an epimorphism")
    lhs = direct_sum(inclA.source, coverB.source)
    rhs = direct_sum(inclB.source, coverA.source)
    p = [a + b for a, b in zip(inclA.matrix, tQ.matrix)]
    rest = la.mat_mul(f, [[f.neg(x) if x else x for x in row]
                          for row in tP.matrix], p)
    for r, row in enumerate(rest, inclA.source.dim):   # q - tP p
        row[r] = f.add(row[r], f.one)
    top = [rest[k] for k in inclB.target.leads(zip(*inclB.matrix))]
    # inclB top = q - tP p, which is 0 when L is
    if (la.mat_mul(f, inclB.matrix, top) != rest if top
            else any(map(any, rest))):
        raise ModuleError("vector escapes the fibre product")
    return ModuleMorphism._derived(lhs, rhs, top + p)


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
    iso = _schanuel_rec(res1.target, res1.covers[:n], res1.incls[:n],
                        res2.covers[:n], res2.incls[:n])
    return iso, iso.is_iso() and iso.source.hilbert() == iso.target.hilbert()


def _pad(cover, incl, Q, D):
    """The next step of a resolution padded by a free summand Q of the
    Schanuel sum D = ker + Q: the cover diag(cover, 1_Q): F + Q ->> D
    and its kernel inclusion [incl; 0] into F + Q."""
    f, n, q = D.field, cover.source.dim, Q.dim
    aug = [row + [f.zero] * q for row in cover.matrix] + \
        [[f.zero] * n + e for e in la.eye(f, q)]
    FQ = direct_sum(cover.source, Q)
    return (ModuleMorphism._derived(FQ, D, aug),
            ModuleMorphism._derived(incl.source, FQ, incl.matrix +
                                    la.zeros(f, q, incl.source.dim)))


def _schanuel_rec(M, coversA, inclsA, coversB, inclsB):
    theta = _schanuel_base(M, coversA[0], inclsA[0], coversB[0], inclsB[0])
    if len(coversA) == 1:
        return theta
    # padded resolutions of M' = K1 + Q0:
    #   P1 + Q0 ->> K1 + Q0        with kernel K2 inside P1
    #   Q1 + P0 ->> L1 + P0 -theta^{-1}-> K1 + Q0   with kernel L2 (a solve)
    lhs, rhs, f = theta.source, theta.target, M.field
    augA, inclA2 = _pad(coversA[1], inclsA[1], coversB[0].source, lhs)
    augB, inclB2 = _pad(coversB[1], inclsB[1], coversA[0].source, rhs)
    cols = la.solve_linear(f, theta.matrix, [[row[j] for row in augB.matrix]
                                             for j in range(augB.source.dim)])
    augB = ModuleMorphism._derived(augB.source, lhs, [
        [c[k] for c in cols] for k in range(lhs.dim)])
    return _schanuel_rec(lhs,
                         [augA] + coversA[2:], [inclA2] + inclsA[2:],
                         [augB] + coversB[2:], [inclB2] + inclsB[2:])


# ---------------------------------------------------------------------------
# dimension reports
# ---------------------------------------------------------------------------

class DimensionReport(Record):
    _fields = ("kind",    # "projective" | "injective" | "flat"
               "value",   # 0, or None: infinite, displayed ">= cutoff"
               "cutoff")

    @property
    def display(self):
        return str(self.value) if self.value is not None else \
            f">={self.cutoff}"


def dimension(M: GradedModule, kind="projective", cutoff=8) -> DimensionReport:
    """0 when M is projective (M's dual for ``injective``), else None:
    the dimension is infinite.  The ring is commutative and artinian, so
    a finite projective dimension is 0 (Auslander-Buchsbaum, Trans. AMS
    85, 1957) and so is a finite injective dimension (Bass, Math. Z. 82,
    1963).  A graded module is graded-projective iff it is projective
    (Nastasescu-Van Oystaeyen, LNM 1836), so the graded test
    Tor_1(M, R/nil R) = 0 of is_projective decides; for finitely
    generated modules flat is projective.  The cutoff only sets the N of
    the displayed bound ">=N"."""
    if kind not in ("projective", "flat", "injective"):
        raise ModuleError(f"unknown dimension kind {kind!r}")
    _check_cutoff(cutoff)
    N = dual(M) if kind == "injective" else M
    return DimensionReport(kind, 0 if is_projective(N) else None, cutoff)


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
    # pd by Tor_1(-, R/nil R) on the cover each resolution has built
    # (see is_projective and dimension); flat dimension is projective
    # dimension (see dimension)
    pd = [DimensionReport("projective", 0 if not r.covers
                          or _tor1_vanishes(r.covers[0]) else None,
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
