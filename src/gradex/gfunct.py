"""Coarsening along an epimorphism and the restriction / extension /
corestriction triple along a monomorphism, with executable adjunction
checks at desk scale.

Functors act on values: each function takes a ring (or module, or
morphism) and a group map and returns the regraded object.  Regrading
keeps the axioms, so the result is built without a second check
(``_Derivable._derived``); only the group maps are checked, for being
epi or mono.  The adjunction checks build units and counits through
the checked constructor, whose check is part of what they verify:
F(1) = 1 and F(x a) = F(x) F(a) for the source's generators x
(``gcore._Morphism._check``); such x form a subalgebra, holding 1.
The Hom-set checks enumerate, so check, every morphism, and ``_bijects``
finds each transpose, a bare matrix, among them.  Functor images and
units are kept on the ring (``gcore._kept``), so each is built once.
"""

from __future__ import annotations

from itertools import product

from .abgroups import FGAbelianGroup, GroupHom, GroupError, hom_props
from . import exactla as la
from ._record import Record
from .gcore import (GradedAlgebra, MonoidAlgebra, AlgebraError,
                    SizeGuardExceeded, ideal_from_gens, quotient_ring,
                    _Morphism, _kept, _unit_indices)


class FunctorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graded ring morphisms
# ---------------------------------------------------------------------------

class AlgebraMorphism(_Morphism):
    """Degree-preserving unital ring morphism between graded algebras
    over the same grading group, as a matrix on basis coordinates;
    ``_Morphism._check`` proves F(x_i a) = F(x_i) F(a) on the source's
    generators x_i, which suffices once F(1) = 1."""

    _error = FunctorError

    def _require(self):
        if self.source.group != self.target.group:
            raise FunctorError("morphism between different grading groups")
        if self(self.source.unit) != list(self.target.unit):
            raise FunctorError("morphism does not preserve the unit")

    def _image_action(self, i):
        return self.target.mult_matrix([row[i] for row in self.matrix])


# ---------------------------------------------------------------------------
# coarsening
# ---------------------------------------------------------------------------

def _require_epi(psi, group):
    if psi.source != group:
        raise FunctorError("grading group does not match the epimorphism source")
    epi, _, _ = hom_props(psi)
    if not epi:
        raise FunctorError("coarsening requires an epimorphism")


def _regraded(R: GradedAlgebra, group, degrees) -> GradedAlgebra:
    """R with new basis degrees: the same algebra, the same generators."""
    Rg = GradedAlgebra._derived(group, R.field, degrees, R.entries(), R.unit)
    if "_generators" in vars(R):
        Rg._generators = R._generators
    return Rg


def coarsen_algebra(R: GradedAlgebra, psi: GroupHom) -> GradedAlgebra:
    """Same underlying algebra, degrees pushed through psi."""
    _require_epi(psi, R.group)
    return _regraded(R, psi.target, [psi(d) for d in R.basis_degrees])


def coarsen(X, psi):
    """Coarsen an algebra, module or morphism along psi."""
    if isinstance(X, _Morphism):
        return type(X)._derived(coarsen(X.source, psi),
                                coarsen(X.target, psi), X.matrix)
    if isinstance(X, GradedAlgebra):
        return coarsen_algebra(X, psi)
    from . import gmod
    if isinstance(X, gmod.GradedModule):
        return gmod.coarsen_module(X, psi)
    raise FunctorError(f"cannot coarsen {type(X).__name__}")


# ---------------------------------------------------------------------------
# restriction / extension / corestriction
# ---------------------------------------------------------------------------

def _require_mono(phi):
    _, mono, _ = hom_props(phi)
    if not mono:
        raise FunctorError("restriction requires a monomorphism")


def restrict_with_indices(R: GradedAlgebra, phi: GroupHom):
    """(restricted algebra over the source of phi, kept basis indices)."""
    _require_mono(phi)
    if phi.target != R.group:
        raise FunctorError("phi does not land in the grading group")
    pre = [phi.preimage(d) for d in R.basis_degrees]
    kept = [i for i, d in enumerate(pre) if d is not None]
    pos = {i: t for t, i in enumerate(kept)}
    structure = [(pos[i], pos[j], pos[k], c) for i, j, k, c in R.entries()
                 if i in pos and j in pos and k in pos]
    S = GradedAlgebra._derived(phi.source, R.field, [pre[i] for i in kept],
                               structure, [R.unit[i] for i in kept])
    return S, kept


def restrict(R: GradedAlgebra, phi: GroupHom) -> GradedAlgebra:
    """The restricted algebra, the one kept on R."""
    return _kept(restrict_with_indices, R, phi)[0]


def extend(S: GradedAlgebra, phi: GroupHom) -> GradedAlgebra:
    """Relabel degrees through phi; underlying algebra unchanged."""
    _require_mono(phi)
    if phi.source != S.group:
        raise FunctorError("phi does not start at the grading group")
    return _regraded(S, phi.target, [phi(d) for d in S.basis_degrees])


class CorestrictionResult(Record):
    _fields = ("algebra",   # R_((phi)), graded by the source of phi
               "ideal",     # a_phi(R), as its graded_span basis
               "kept",      # quotient basis indices surviving restriction
               "proj",      # projection matrix R -> R / a_phi(R)
               "lift")      # section R / a_phi(R) -> R


def corestrict(R: GradedAlgebra, phi: GroupHom) -> CorestrictionResult:
    """Quotient by the ideal generated by components outside im(phi),
    then restrict."""
    _require_mono(phi)
    outside = [la.unit_vector(R.field, R.dim, i)
               for i, d in enumerate(R.basis_degrees)
               if phi.preimage(d) is None]
    a_phi = ideal_from_gens(R, outside)
    Q, proj, lift = quotient_ring(R, a_phi)
    Rcor, kept = restrict_with_indices(Q, phi)
    return CorestrictionResult(Rcor, a_phi, kept, proj, lift)


def restrict_morphism(h: AlgebraMorphism, phi: GroupHom) -> AlgebraMorphism:
    """Induced morphism on the restrictions kept on h's rings."""
    (S1, kept1), (S2, kept2) = (_kept(restrict_with_indices, X, phi)
                                for X in (h.source, h.target))
    M = [[h.matrix[i][j] for j in kept1] for i in kept2]
    return AlgebraMorphism._derived(S1, S2, M)


def corestrict_morphism(h: AlgebraMorphism, phi: GroupHom) -> AlgebraMorphism:
    """Induced morphism on the corestrictions kept on h's rings (h maps
    a_phi into a_phi)."""
    cs, ct = (_kept(corestrict, X, phi) for X in (h.source, h.target))
    f = h.target.field
    lift = [[row[j] for j in cs.kept] for row in cs.lift]
    M = la.mat_mul(f, [ct.proj[i] for i in ct.kept],
                   la.mat_mul(f, h.matrix, lift))
    return AlgebraMorphism._derived(cs.algebra, ct.algebra, M)


# ---------------------------------------------------------------------------
# morphism enumeration over finite fields
# ---------------------------------------------------------------------------

MORPHISM_ENUM_LIMIT = 2 ** 20


def enumerate_ring_morphisms(A: GradedAlgebra, B: GradedAlgebra):
    """All graded ring morphisms A -> B over a finite field, canonically
    ordered by matrix entries."""
    if A.group != B.group:
        raise FunctorError("morphisms need a common grading group")
    f = B.field
    if not f.is_finite:
        raise AlgebraError("morphism enumeration needs a finite field")
    slots = [(i, j) for j in range(A.dim) for i in range(B.dim)
             if B.basis_degrees[i] == A.basis_degrees[j]]
    if f.p ** len(slots) > MORPHISM_ENUM_LIMIT:
        raise SizeGuardExceeded("morphism search space too large")
    out = []
    for vals in product(f.elements(), repeat=len(slots)):
        M = la.zeros(f, B.dim, A.dim)
        for (i, j), v in zip(slots, vals):
            M[i][j] = v
        try:
            out.append(AlgebraMorphism(A, B, M))
        except FunctorError:
            continue
    return out


# ---------------------------------------------------------------------------
# adjunction checks
# ---------------------------------------------------------------------------

def triangle_identities(phi: GroupHom, g_samples, f_samples):
    """Verify the four triangle identities of the corestriction -|
    extension -| restriction triple on the given finite-dimensional
    samples, each functor image the one kept on its ring.  Returns a
    list of (label, ok) pairs."""
    results = []
    for R in g_samples:
        # left triangle of (corestriction, extension): corestricting the
        # unit R ->> (R_((phi)))^(phi) must give the identity of R_((phi))
        alpha = _kept(_corestriction_unit, R, phi)
        results.append((f"C-E unit triangle on {R!r}",
                        corestrict_morphism(alpha, phi).matrix
                        == la.eye(R.field, alpha.target.dim)))
        # left triangle of (extension, restriction): restricting the
        # counit (R_(phi))^(phi) -> R gives the identity of R_(phi)
        Rst, kept = _kept(restrict_with_indices, R, phi)
        incl_m = AlgebraMorphism(_kept(extend, Rst, phi), R,
                                 la.eye_columns(R.field, R.dim, kept))
        results.append((f"E-R counit triangle on {R!r}",
                        restrict_morphism(incl_m, phi).matrix
                        == la.eye(R.field, Rst.dim)))
    for S in f_samples:
        ES = _kept(extend, S, phi)
        # unit of (corestriction, extension) on an extended ring is the
        # identity: a_phi(S^(phi)) = 0
        cor = _kept(corestrict, ES, phi)
        results.append((f"unit on extension of {S!r}", not cor.ideal
                        and cor.algebra.basis_degrees == S.basis_degrees))
        # unit of (extension, restriction) is the identity on the nose
        Rst_ES, kept = _kept(restrict_with_indices, ES, phi)
        results.append((f"E-R unit on {S!r}",
                        Rst_ES.basis_degrees == S.basis_degrees
                        and kept == list(range(S.dim))))
    return results


def _corestriction_unit(R: GradedAlgebra, phi: GroupHom) -> AlgebraMorphism:
    """The unit R ->> (R_((phi)))^(phi) of corestriction -| extension,
    checked once per ring when kept (``_kept``)."""
    cor = _kept(corestrict, R, phi)
    return AlgebraMorphism(R, _kept(extend, cor.algebra, phi),
                           [cor.proj[k] for k in cor.kept])


def _bijects(homs, transposed):
    """Are the transposed matrices distinct and those of the homs?"""
    keys = [tuple(map(tuple, M)) for M in transposed]
    return (len(keys) == len(set(keys)) == len(homs)
            and set(keys) == {tuple(map(tuple, h.matrix)) for h in homs})


def hom_bijection_check(phi: GroupHom, R: GradedAlgebra, S: GradedAlgebra):
    """Over a finite field: verify |Hom(R_((phi)), S)| = |Hom(R, S^(phi))|
    and |Hom(S, R_(phi))| = |Hom(S^(phi), R)| by full enumeration, with
    the adjunction transposes as explicit bijections.

    R is G-graded, S is F-graded; each functor image is the one kept on
    its ring."""
    cor = _kept(corestrict, R, phi)
    ES = _kept(extend, S, phi)
    left = enumerate_ring_morphisms(cor.algebra, S)
    right = enumerate_ring_morphisms(R, ES)
    # transpose f: R_((phi)) -> S to E(f) o alpha: R -> S^(phi)
    alpha = _kept(_corestriction_unit, R, phi)
    first_ok = _bijects(right, [la.mat_mul(R.field, h.matrix, alpha.matrix)
                                for h in left])
    # second adjunction: Hom(S, R_(phi)) vs Hom(S^(phi), R)
    Rst, kept = _kept(restrict_with_indices, R, phi)
    left2 = enumerate_ring_morphisms(ES, R)
    right2 = enumerate_ring_morphisms(S, Rst)
    second_ok = _bijects(right2, [[h.matrix[i] for i in kept]
                                  for h in left2])
    return {"corestriction-extension": first_ok,
            "extension-restriction": second_ok,
            "hom_counts": (len(left), len(right), len(left2), len(right2))}


def laurent_tensor_witness(kmax=5):
    """Degree-0 dimension growth of (K[Z] tensor K[Z])_(0) versus the
    one-dimensional K[Z]_(0) tensor K[Z]_(0).

    The instance is reconstructed from the evident Laurent-algebra
    reading of the underlying argument; the report flags this."""
    monomials = [(k, -k) for k in range(-kmax, kmax + 1)]
    return {
        "tensor_degree0_monomials": monomials,
        "tensor_degree0_dim_lower_bound": len(monomials),
        "restricted_tensor_degree0_dim": 1,
        "mismatch": len(monomials) > 1,
        "reconstructed_instance": True,
    }


def adjunction_check(phi: GroupHom, f_samples, g_samples,
                     finite_field_pairs=(), tensor_witness_k=5):
    """Full adjoint-triple report: triangle identities on every sample,
    Hom-set bijections on the given (R, S) pairs over finite fields, and
    the tensor-product obstruction witness."""
    report = {
        "triangles": triangle_identities(phi, g_samples, f_samples),
        "hom_bijections": [hom_bijection_check(phi, R, S)
                           for R, S in finite_field_pairs],
        "tensor_witness": laurent_tensor_witness(tensor_witness_k),
    }
    report["ok"] = (all(ok for _, ok in report["triangles"])
                    and all(h["corestriction-extension"]
                            and h["extension-restriction"]
                            for h in report["hom_bijections"])
                    and report["tensor_witness"]["mismatch"])
    return report


# ---------------------------------------------------------------------------
# monoid-algebra corestriction shortcuts
# ---------------------------------------------------------------------------

def monoid_corestriction_report(MA: MonoidAlgebra, phi: GroupHom):
    """How the corestriction of R = B[M] along phi compares with its
    restriction, with H = im(phi) and q: G -> G/H, decided in order:
    ``zero`` when a unit generator of M has degree outside H;
    ``differs`` when q(m) != 0 is a unit of q(M) for a generator m, say
    q(m) + q(m') = 0, so e_m e_m' is a nonzero element of a_phi in
    degree H (q(m) is a unit iff its free part is a unit of the monoid
    of free parts); ``undecided`` when a base degree lies outside H,
    where base products may vanish; else ``equals_restriction``: r e_m
    has degree in H iff q(m) = 0, so a_phi meets R_H only through a
    nonzero unit of q(M)."""
    _require_mono(phi)
    G = MA.grading_group()
    if phi.target != G:
        raise FunctorError("phi does not match the monoid algebra grading")
    M = MA.monoid
    for m in M.units:
        d = MA.monomial_degree(m)
        if phi.preimage(d) is None:
            return {"result": "zero", "witness_exponent": m,
                    "witness_degree": tuple(d.coords)}
    Q, proj, _ = FGAbelianGroup.from_presentation(
        G.dim, [list(col) for col in zip(*phi.matrix)] + G.relation_columns())
    degs = [MA.monomial_degree(m) for m in M.generators]
    images = list(map(GroupHom(G, Q, proj), degs))
    # over the zero ring every e_m is 0
    units = MA.base.dim and _unit_indices(
        [q.coords[:Q.free_rank] for q in images],
        [i for i, q in enumerate(images) if not q.is_zero])
    if units:
        i = units[0]
        return {"result": "differs", "witness_exponent": M.generators[i],
                "witness_degree": tuple(degs[i].coords),
                "method": "unit of the image monoid in G/im(phi)"}
    if any(phi.preimage(MA.monomial_degree(M.zero, g)) is None
           for g in MA.base.degrees()):
        return {"result": "undecided",
                "method": "a base degree lies outside im(phi)"}
    return {"result": "equals_restriction",
            "method": "no nonzero unit of the image monoid in G/im(phi)"}
