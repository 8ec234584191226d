"""Brute-force reference implementations.

Everything here recomputes answers by direct enumeration and explicit
multiplication, sharing only scalar arithmetic with the main code
paths, so that criterion-based shortcuts elsewhere can be diffed
against ground truth on finite-field samples.  The conditions a
candidate is tested against (the nonzero structure constants, the
equivariance forms) are written down once per call, and no candidate
is tested once its answer is known: the ring flags stop multiplying
once decided, and the morphism search never extends a partial matrix
that breaks a form.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .gcore import GradedAlgebra, SizeGuardExceeded
from .gmod import GradedModule, ModuleMorphism, free_cover_from_generators

ENUM_LIMIT = 2 ** 20
SUBMODULE_LIMIT = 2 ** 16


# ---------------------------------------------------------------------------
# scalar-level helpers (deliberately re-implemented)
# ---------------------------------------------------------------------------

def _mul_vec(p, consts, x, y):
    """x y over F_p: plain-int sums over the nonzero structure constants
    (i, j, k, c), x_i x_j = sum c x_k, reduced once per coordinate."""
    out = [0] * len(x)
    for i, j, k, c in consts:
        if x[i] and y[j]:
            out[k] += x[i] * y[j] * c
    return [a % p for a in out]


def _all_vectors(f, n, limit=ENUM_LIMIT):
    if f.p ** n > limit:
        raise SizeGuardExceeded("element enumeration too large")
    for vals in product(f.elements(), repeat=n):
        yield list(vals)


def _eliminate(f, rows):
    """Row reduce in place (fresh copy); returns the nonzero rows in
    reduced echelon form, read once every column has cleared them."""
    M = [r[:] for r in rows]
    out = []
    for col in range(len(M[0]) if M else 0):
        piv = None
        for r in M:
            if r[col] != 0 and all(r[c] == 0 for c in range(col)):
                piv = r
                break
        if piv is None:
            continue
        inv = f.inv(piv[col])
        piv[:] = [f.mul(inv, x) for x in piv]
        for r in M:
            if r is not piv and r[col] != 0:
                c = r[col]
                for t in range(len(r)):
                    r[t] = f.sub(r[t], f.mul(c, piv[t]))
        out.append(piv)
    return out


def _span_contains(f, rows, v):
    reduced = _eliminate(f, rows + [v])
    return len(reduced) == len(_eliminate(f, rows)) if rows else \
        all(x == 0 for x in v)


# ---------------------------------------------------------------------------
# element classification by direct search
# ---------------------------------------------------------------------------

def oracle_ring_class(R: GradedAlgebra):
    """simple / entire / reduced flags from the nonzero homogeneous
    elements x: one row of products of x by every element of R while
    simple or entire is undecided (is x a unit, is x regular), then the
    powers of x while reduced is (is x nilpotent)."""
    f = R.field
    components = [[i for i in range(R.dim) if R.basis_degrees[i] == g]
                  for g in R.degrees()]
    homogeneous = sum(f.p ** len(idx) - 1 for idx in components)
    if homogeneous * f.p ** R.dim > ENUM_LIMIT:
        raise SizeGuardExceeded("ring oracle needs more than 2^20 "
                                "element products")
    elements = list(_all_vectors(f, R.dim))
    consts, one, zero = R.entries(), list(R.unit), [0] * R.dim
    simple = entire = reduced = True
    for idx in components:
        for vals in product(f.elements(), repeat=len(idx)):
            if not (simple or entire or reduced):
                break
            if not any(vals):
                continue
            x = [0] * R.dim
            for i, v in zip(idx, vals):
                x[i] = v
            if simple or entire:
                products = [_mul_vec(f.p, consts, x, y) for y in elements]
                simple = simple and one in products
                entire = entire and all(q != zero for q, y in
                                        zip(products, elements) if y != zero)
            if reduced:
                power = x
                for _ in range(R.dim):
                    if power == zero:
                        break
                    power = _mul_vec(f.p, consts, power, x)
                reduced = power != zero
    return {"simple": simple, "entire": entire, "reduced": reduced}


# ---------------------------------------------------------------------------
# graded submodules and morphisms by enumeration
# ---------------------------------------------------------------------------

def _component_subspaces(f, d):
    """All subspaces of f^d as sorted tuples of reduced basis rows."""
    found = {tuple()}
    frontier = [[]]
    while frontier:
        base = frontier.pop()
        for v in _all_vectors(f, d, limit=SUBMODULE_LIMIT):
            if all(x == 0 for x in v):
                continue
            if _span_contains(f, base, v):
                continue
            nb = _eliminate(f, base + [v])
            key = tuple(tuple(r) for r in nb)
            if key not in found:
                found.add(key)
                frontier.append([list(r) for r in nb])
    return sorted(found)


def enumerate_graded_substructures(M: GradedModule):
    """All graded submodules of a finite module, canonically ordered.
    Each submodule is a tuple of full-length basis vectors."""
    f, consts = M.field, M.entries()
    degrees = sorted(M.degrees(), key=lambda d: d.coords)
    per_degree = []
    total = 1
    for g in degrees:
        idx = M.component_indices(g)
        subs = _component_subspaces(f, len(idx))
        per_degree.append((idx, subs))
        total *= len(subs)
        if total > SUBMODULE_LIMIT:
            raise SizeGuardExceeded("too many candidate graded subspaces")
    out = []
    for choice in product(*(subs for _, subs in per_degree)):
        basis = []
        for (idx, _), rows in zip(per_degree, choice):
            for r in rows:
                v = [f.zero] * M.dim
                for pos, c in zip(idx, r):
                    v[pos] = c
                basis.append(v)
        closed = True
        for b in basis:
            # w[i] = x_i . b
            w = [[f.zero] * M.dim for _ in range(M.algebra.dim)]
            for i, j, k, a in consts:
                if b[j] != 0:
                    w[i][k] = f.add(w[i][k], f.mul(b[j], a))
            if not all(_span_contains(f, basis, v) for v in w):
                closed = False
                break
        if closed:
            out.append(tuple(tuple(v) for v in basis))
    return sorted(out)


def enumerate_morphisms(M: GradedModule, N: GradedModule):
    """All degree-preserving equivariant maps M -> N over a finite
    field, by a depth-first search over the slot values: u(x_i . v_j) =
    x_i . u(v_j) is one linear form per (i, j, k), tested as soon as its
    last slot has a value, and a prefix that breaks one is not extended."""
    f = M.field
    slots = [(k, j) for k in range(N.dim) for j in range(M.dim)
             if N.basis_degrees[k] == M.basis_degrees[j]]
    if f.p ** len(slots) > ENUM_LIMIT:
        raise SizeGuardExceeded("morphism enumeration too large")
    slot = {kj: s for s, kj in enumerate(slots)}
    coeffs = {}   # (i, j, k) -> {s: coefficient of slot s}
    for i, j, t, a in M.entries():  # u(x_i . v_j)_k = sum_t a_ijt u_kt
        for k in range(N.dim):
            if (k, t) in slot:
                form = coeffs.setdefault((i, j, k), {})
                form[slot[k, t]] = form.get(slot[k, t], 0) + a
    for i, t, k, b in N.entries():  # (x_i . u(v_j))_k = sum_t u_tj b_itk
        for j in range(M.dim):
            if (t, j) in slot:
                form = coeffs.setdefault((i, j, k), {})
                form[slot[t, j]] = form.get(slot[t, j], 0) - b
    closing = [[] for _ in slots]   # d -> the forms whose last slot is d
    for form in coeffs.values():
        form = [(s, c % f.p) for s, c in sorted(form.items()) if c % f.p]
        if form:
            closing[form[-1][0]].append([(*slots[s], c) for s, c in form])
    mat, out = [[f.zero] * M.dim for _ in range(N.dim)], []

    def extend(d):   # the slots before d hold a prefix that breaks no form
        if d == len(slots):
            out.append(tuple(tuple(r) for r in mat))
            return
        k, j = slots[d]
        for v in f.elements():
            mat[k][j] = v
            if all(sum(c * mat[a][b] for a, b, c in form) % f.p == 0
                   for form in closing[d]):
                extend(d + 1)
    extend(0)
    return sorted(out)


def oracle_free_search(M: GradedModule):
    """Brute force over a finite field: is there a homogeneous tuple
    whose free cover is an isomorphism onto M?"""
    if M.dim == 0:
        return True
    R = M.algebra
    if M.dim % max(R.dim, 1) != 0:
        return False
    r = M.dim // R.dim
    pool = [v for _, v in M.homogeneous_vectors(limit=2 ** 16)]
    if (len(pool) ** min(r, 2) > 2 ** 16
            or math.comb(len(pool), r) > 2 ** 16):
        raise SizeGuardExceeded("freeness oracle pool too large")
    for combo in combinations(pool, r):
        if free_cover_from_generators(M, list(combo)).is_iso():
            return True
    return False


# ---------------------------------------------------------------------------
# superfluous / essential ground truth
# ---------------------------------------------------------------------------

def oracle_small_submodule(u: ModuleMorphism, mode: str):
    """Ground truth by enumerating every graded submodule of the
    target.  Returns (flag, witness-or-None)."""
    N = u.target
    f = N.field
    img = [[u.matrix[k][j] for k in range(N.dim)]
           for j in range(u.source.dim)]
    img = _eliminate(f, img) if img else []
    subs = enumerate_graded_substructures(N)
    if mode == "superfluous":
        for basis in subs:
            rows = [list(v) for v in basis]
            if len(_eliminate(f, rows)) == N.dim:
                continue  # S = N is allowed to complete the image
            total = _eliminate(f, img + rows)
            if len(total) == N.dim:
                return False, basis
        return True, None
    if mode == "essential":
        for basis in subs:
            if not basis:
                continue
            rows = [list(v) for v in basis]
            # im(u) meets S iff dim(im) + dim(S) > dim(im + S)
            joint = _eliminate(f, img + rows)
            if len(joint) == len(img) + len(_eliminate(f, rows)):
                return False, basis
        return True, None
    raise ValueError(f"unknown mode {mode!r}")
