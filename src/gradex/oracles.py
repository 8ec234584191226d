"""Brute-force reference implementations.

Everything here recomputes answers by direct enumeration and explicit
multiplication, sharing only scalar arithmetic with the main code
paths, so that criterion-based shortcuts elsewhere can be diffed
against ground truth on finite-field samples.
"""

from __future__ import annotations

from itertools import combinations, product

from .gcore import GradedAlgebra, SizeGuardExceeded
from .gmod import GradedModule, ModuleMorphism, free_cover_from_generators

ENUM_LIMIT = 2 ** 20
SUBMODULE_LIMIT = 2 ** 16


# ---------------------------------------------------------------------------
# scalar-level helpers (deliberately re-implemented)
# ---------------------------------------------------------------------------

def _mul_vec(R: GradedAlgebra, x, y):
    f = R.field
    out = [f.zero] * R.dim
    for i in range(R.dim):
        if x[i] == 0:
            continue
        for j in range(R.dim):
            if y[j] == 0:
                continue
            c = f.mul(x[i], y[j])
            for k in range(R.dim):
                s = R.structure[i][j][k]
                if s != 0:
                    out[k] = f.add(out[k], f.mul(c, s))
    return out


def _all_vectors(f, n, limit=ENUM_LIMIT):
    if f.p ** n > limit:
        raise SizeGuardExceeded("element enumeration too large")
    for vals in product(f.elements(), repeat=n):
        yield list(vals)


def _eliminate(f, rows):
    """Row reduce in place (fresh copy); returns the nonzero rows."""
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
        out.append(piv[:])
    return out


def _span_contains(f, rows, v):
    reduced = _eliminate(f, rows + [v])
    return len(reduced) == len(_eliminate(f, rows)) if rows else \
        all(x == 0 for x in v)


# ---------------------------------------------------------------------------
# element classification by direct search
# ---------------------------------------------------------------------------

def exhaustive_classify(R: GradedAlgebra):
    """Tables of unit / regular / nilpotent flags for every element of a
    finite algebra, by direct multiplication only."""
    f = R.field
    elements = list(_all_vectors(f, R.dim))
    one = list(R.unit)
    rows = []
    for x in elements:
        products = [_mul_vec(R, x, y) for y in elements]
        unit = any(p == one for p in products)
        regular = all(p != [f.zero] * R.dim
                      for p, y in zip(products, elements)
                      if y != [f.zero] * R.dim)
        if R.dim == 0:
            unit = regular = True
        power = x[:]
        nilpotent = False
        for _ in range(max(R.dim, 1)):
            if power == [f.zero] * R.dim:
                nilpotent = True
                break
            power = _mul_vec(R, power, x)
        if power == [f.zero] * R.dim:
            nilpotent = True
        rows.append({"element": tuple(x), "unit": unit,
                     "regular": regular, "nilpotent": nilpotent})
    return rows


def oracle_ring_class(R: GradedAlgebra):
    """simple / entire / reduced flags from the exhaustive table,
    looking only at nonzero homogeneous elements."""
    f = R.field
    table = {r["element"]: r for r in exhaustive_classify(R)}
    simple = entire = reduced = True
    for g in R.degrees():
        idx = [i for i in range(R.dim) if R.basis_degrees[i] == g]
        for vals in product(f.elements(), repeat=len(idx)):
            if all(v == 0 for v in vals):
                continue
            x = [f.zero] * R.dim
            for i, v in zip(idx, vals):
                x[i] = v
            row = table[tuple(x)]
            simple = simple and row["unit"]
            entire = entire and row["regular"]
            reduced = reduced and not row["nilpotent"]
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
    f = M.field
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
            for i in range(M.algebra.dim):
                w = [f.zero] * M.dim
                for j, c in enumerate(b):
                    if c == 0:
                        continue
                    for k in range(M.dim):
                        a = M.action[i][j][k]
                        if a != 0:
                            w[k] = f.add(w[k], f.mul(c, a))
                if not _span_contains(f, basis, w):
                    closed = False
                    break
            if not closed:
                break
        if closed:
            out.append(tuple(tuple(v) for v in basis))
    return sorted(out)


def enumerate_morphisms(M: GradedModule, N: GradedModule):
    """All degree-preserving equivariant maps M -> N over a finite
    field, by filtering every candidate matrix directly."""
    f = M.field
    slots = [(k, j) for k in range(N.dim) for j in range(M.dim)
             if N.basis_degrees[k] == M.basis_degrees[j]]
    if f.p ** len(slots) > ENUM_LIMIT:
        raise SizeGuardExceeded("morphism enumeration too large")
    out = []
    for vals in product(f.elements(), repeat=len(slots)):
        mat = [[f.zero] * M.dim for _ in range(N.dim)]
        for (k, j), v in zip(slots, vals):
            mat[k][j] = v
        ok = True
        for i in range(M.algebra.dim):
            for j in range(M.dim):
                # u(x_i . v_j) vs x_i . u(v_j)
                lhs = [f.zero] * N.dim
                for t in range(M.dim):
                    a = M.action[i][j][t]
                    if a == 0:
                        continue
                    for k in range(N.dim):
                        lhs[k] = f.add(lhs[k], f.mul(a, mat[k][t]))
                rhs = [f.zero] * N.dim
                for k in range(N.dim):
                    if mat[k][j] == 0:
                        continue
                    for t in range(N.dim):
                        b = N.action[i][k][t]
                        if b != 0:
                            rhs[t] = f.add(rhs[t], f.mul(mat[k][j], b))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(tuple(r) for r in mat))
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
    if len(pool) ** min(r, 2) > 2 ** 16:
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
