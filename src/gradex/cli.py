"""Command-line entry point: parse JSON object descriptions, dispatch
operations, and emit deterministic machine- or human-readable reports.

Exit codes: 0 success, 1 unknown subcommand, 2 validation or parse
error, 3 size-guard refusal.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import Counter
from types import SimpleNamespace

from .abgroups import FGAbelianGroup, GroupHom, GroupError, ZERO_GROUP
from . import exactla as la
from .gcore import (GradedAlgebra, AlgebraError, GradingViolation,
                    SizeGuardExceeded, AffineMonoid, MonoidAlgebra,
                    classify_ring, spec_enumerate, nilradical)
from . import gfunct as gf
from . import gmod as gm
from . import ghom as gh
from . import oracles as orc


class ValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

def scalar_out(field, c):
    if field.is_finite:
        return int(c)
    return str(la.QQ.of(c))


def _jp(path, key):
    return f"{path}.{key}" if path else str(key)


def _is_int(x):
    """A JSON integer: Python reads true and false as ints, JSON does not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _list(x, path):
    if not isinstance(x, list):
        raise ValidationError(f"{path}: expected a list")
    return x


def _ints(x, n, path):
    """x, checked to be a list of n JSON integers."""
    if not (isinstance(x, list) and len(x) == n and all(map(_is_int, x))):
        raise ValidationError(f"{path}: expected an integer list of "
                              f"length {n}")
    return x


def _scalar(field, c, path):
    try:
        return field.of(c)
    except la.FieldError as e:
        raise ValidationError(f"{path}: {e}") from None


def group_to_json(G: FGAbelianGroup):
    return {"free_rank": G.free_rank, "torsion": list(G.torsion_factors)}


# the largest free_rank + len(torsion) a document may ask for: group work
# (Smith normal form, kernels of grading maps) grows with the rank
MAX_GROUP_RANK = 32
# the most associativity triples (x_i x_j) v_k, r^2 m for a ring of
# dimension r acting on m basis vectors, that a parsed ring or module
# may ask its construction check for
MAX_AXIOM_TRIPLES = 2 ** 20
# the most generators, and generator entries, a monoid document may
# have: within both, the unit LP took at most 1.9 s on random monoids
# with entries up to 10^30 (32 generators in Z^8)
MAX_MONOID_GENERATORS = 64
MAX_MONOID_ENTRIES = 256
# the most basis vectors that the Schanuel sums of glue lengths 1..n may
# hold in all: within it, schanuel took at most 3.0 s in-process on
# cyclic modules over Q[x]/(x^r) and their direct sums
MAX_SCHANUEL_SUMS = 2048


def _guard_axiom_check(r, m):
    """Refuse a ring of dimension r acting on m basis vectors before its
    entries are stored and checked."""
    if r * r * m > MAX_AXIOM_TRIPLES:
        raise SizeGuardExceeded(f"{r}^2 x {m} associativity triples > "
                                f"{MAX_AXIOM_TRIPLES}")


def _guard_schanuel(M, n):
    """Refuse a glue of length n before either resolution is built.  The
    non-minimal side covers K_i by all of its basis vectors, so dim K_i =
    dim M (dim R - 1)^i and dim F_i = dim R dim K_i, and it bounds the
    minimal side.  At each length j the glue builds a Schanuel sum of
    dimension at most dim K_j + dim F_{j-1} + ... + dim F_0."""
    r, k, below, cost = M.algebra.dim, M.dim, 0, 0
    for _ in range(n):
        below, k = below + r * k, k * (r - 1)
        cost += k + below
    if cost > MAX_SCHANUEL_SUMS:
        raise SizeGuardExceeded(f"schanuel --n {n}: Schanuel sums of {cost} "
                                f"basis vectors > {MAX_SCHANUEL_SUMS}")


def group_from_json(doc, path="group"):
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object")
    free = doc.get("free_rank", 0)
    tors = doc.get("torsion", [])
    if not _is_int(free) or free < 0:
        raise ValidationError(_jp(path, 'free_rank') + ": must be a nonnegative "
                              "integer")
    if free + len(_list(tors, _jp(path, "torsion"))) > MAX_GROUP_RANK:
        raise ValidationError(f"{path or '$'}: free_rank plus the number of "
                              f"torsion factors exceeds {MAX_GROUP_RANK}")
    for i, d in enumerate(tors):
        if not _is_int(d) or d < 2:
            raise ValidationError(_jp(path, f'torsion[{i}]') + ": torsion factors "
                                  "must be integers >= 2")
    for i in range(1, len(tors)):
        if tors[i] % tors[i - 1] != 0:
            raise ValidationError(_jp(path, f'torsion[{i}]') + ": factors must form "
                                  "a divisibility chain")
    return FGAbelianGroup(free, tuple(tors))


def hom_from_json(doc, path="hom"):
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ValidationError(f"{path}: expected an object with a matrix")
    src = group_from_json(doc.get("source", {}), _jp(path, "source"))
    tgt = group_from_json(doc.get("target", {}), _jp(path, "target"))
    at = _jp(path, "matrix")
    rows = [_ints(r, src.dim, f"{at}[{i}]")
            for i, r in enumerate(_list(doc["matrix"], at))]
    try:
        return GroupHom(src, tgt, rows)
    except GroupError as e:
        raise ValidationError(f"{at}: {e}")


def hom_to_json(h: GroupHom):
    return {"source": group_to_json(h.source),
            "target": group_to_json(h.target),
            "matrix": [list(r) for r in h.matrix]}


def field_from_json(doc, path="field"):
    if doc == "Q":
        return la.QQ
    if isinstance(doc, dict) and "p" in doc:
        if not _is_int(doc["p"]):
            raise ValidationError(_jp(path, 'p') + ": must be a prime integer")
        try:
            return la.GF(doc["p"])
        except la.FieldError as e:
            raise ValidationError(_jp(path, 'p') + f': {e}')
    raise ValidationError(f'{path}: expected "Q" or {{"p": prime}}')


def field_to_json(field):
    return "Q" if field.is_rational else {"p": field.p}


def _degrees_from_json(group, basis, path):
    degrees = []
    for i, entry in enumerate(_list(basis, path)):
        coords = entry.get("degree") if isinstance(entry, dict) else entry
        degrees.append(group.element(
            tuple(_ints(coords, group.dim, f"{path}[{i}].degree"))))
    return degrees


def _sparse_tensor(n, entries, field, path, width=None):
    """The entries (i, j, k, c) (i < n; j, k < width, default n) of a
    ``mul`` or ``action`` list [i, j, [[k, c]..]], in the order given."""
    width = width if width is not None else n
    out = []
    for t, item in enumerate(_list(entries, path)):
        if (not isinstance(item, list) or len(item) != 3
                or not isinstance(item[2], list)):
            raise ValidationError(f"{path}[{t}]: expected [i, j, [[k, c]..]]")
        i, j, terms = item
        if not (_is_int(i) and _is_int(j) and 0 <= i < n and 0 <= j < width):
            raise ValidationError(f"{path}[{t}]: index ({i!r},{j!r}) is not "
                                  "an integer in range")
        for s, kc in enumerate(terms):
            if not isinstance(kc, list) or len(kc) != 2:
                raise ValidationError(f"{path}[{t}][2][{s}]: expected [k, c]")
            k, c = kc
            if not (_is_int(k) and 0 <= k < width):
                raise ValidationError(f"{path}[{t}][2][{s}]: index {k!r} is "
                                      "not an integer in range")
            out.append(
                (i, j, k, _scalar(field, c, f"{path}[{t}][2][{s}][1]")))
    return out


def ring_from_json(doc, path="ring"):
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object")
    if "monoid" in doc:
        return monoid_algebra_from_json(doc, path)
    for key in ("group", "field", "basis", "mul", "unit"):
        if key not in doc:
            raise ValidationError(_jp(path, key) + ': missing')
    group = group_from_json(doc["group"], _jp(path, "group"))
    field = field_from_json(doc["field"], _jp(path, "field"))
    degrees = _degrees_from_json(group, doc["basis"], _jp(path, "basis"))
    n = len(degrees)
    _guard_axiom_check(n, n)
    structure = _sparse_tensor(n, doc["mul"], field, _jp(path, "mul"))
    if not isinstance(doc["unit"], list) or len(doc["unit"]) != n:
        raise ValidationError(_jp(path, 'unit') + f': expected {n} coordinates')
    unit = [_scalar(field, c, _jp(path, f"unit[{i}]"))
            for i, c in enumerate(doc["unit"])]
    try:
        return GradedAlgebra(group, field, degrees, structure, unit)
    except GradingViolation as e:
        raise ValidationError(_jp(path, 'mul') + f': {e}')
    except (AlgebraError, ValueError) as e:
        raise ValidationError(f"{path or '$'}: {e}")


def _sparse_tensor_to_json(space):
    """The entries of a ring or module, in the [i, j, [[k, c]..]] form
    _sparse_tensor reads."""
    out = []
    for i, j, k, c in space.entries():
        if not out or out[-1][:2] != [i, j]:
            out.append([i, j, []])
        out[-1][2].append([k, scalar_out(space.field, c)])
    return out


def ring_to_json(R: GradedAlgebra):
    return {"group": group_to_json(R.group),
            "field": field_to_json(R.field),
            "basis": [{"degree": list(d.coords)} for d in R.basis_degrees],
            "mul": _sparse_tensor_to_json(R),
            "unit": [scalar_out(R.field, c) for c in R.unit]}


def monoid_algebra_from_json(doc, path="ring"):
    at = _jp(path, "monoid")
    mon = doc["monoid"]
    if not isinstance(mon, dict) or "dim" not in mon or "gens" not in mon:
        raise ValidationError(f"{at}: expected dim and gens")
    dim = mon["dim"]
    if not _is_int(dim) or dim < 0:
        raise ValidationError(f"{at}.dim: must be a nonnegative integer")
    gens = _list(mon["gens"], f"{at}.gens")
    if len(gens) > MAX_MONOID_GENERATORS or \
            max(len(gens), 1) * dim > MAX_MONOID_ENTRIES:
        raise SizeGuardExceeded(
            f"{len(gens)} generators in Z^{dim}: more than "
            f"{MAX_MONOID_GENERATORS} generators or {MAX_MONOID_ENTRIES} "
            f"entries")
    monoid = AffineMonoid(dim, [_ints(g, dim, f"{at}.gens[{i}]")
                                for i, g in enumerate(gens)])
    field = field_from_json(doc.get("field", "Q"), _jp(path, "field"))
    if "base" in doc:
        base = ring_from_json(doc["base"], _jp(path, "base"))
    else:   # the base field, trivially graded
        base = GradedAlgebra(ZERO_GROUP, field, [ZERO_GROUP.zero],
                             [(0, 0, 0, 1)], [1])
    mode = doc.get("mode", "fine")
    if isinstance(mode, dict) and "d" in mode:
        at = _jp(path, "mode.d")
        rows = [_ints(r, monoid.ambient_dim, f"{at}[{i}]")
                for i, r in enumerate(_list(mode["d"], at))]
        try:
            return MonoidAlgebra(base, monoid, mode="d", dmatrix=rows)
        except AlgebraError as e:
            raise ValidationError(f"{at}: {e}")
    if mode not in ("fine", "coarse"):
        raise ValidationError(_jp(path, "mode") + ': expected "fine", '
                              '"coarse" or {"d": matrix}')
    return MonoidAlgebra(base, monoid, mode=mode)


def module_from_json(doc, path="module"):
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object")
    for key in ("ring", "basis", "action"):
        if key not in doc:
            raise ValidationError(_jp(path, key) + ': missing')
    R = ring_from_json(doc["ring"], _jp(path, "ring"))
    if isinstance(R, MonoidAlgebra):
        raise ValidationError(_jp(path, 'ring') + ': modules need a '
                              "finite-dimensional ring")
    degrees = _degrees_from_json(R.group, doc["basis"], _jp(path, "basis"))
    _guard_axiom_check(R.dim, len(degrees))
    action = _sparse_tensor(R.dim, doc["action"], R.field,
                            _jp(path, "action"), width=len(degrees))
    try:
        return gm.GradedModule(R, degrees, action)
    except GradingViolation as e:
        raise ValidationError(_jp(path, 'action') + f': {e}')
    except (gm.ModuleError, AlgebraError, ValueError) as e:
        raise ValidationError(f"{path or '$'}: {e}")


def module_to_json(M: gm.GradedModule):
    return {"ring": ring_to_json(M.algebra),
            "basis": [{"degree": list(d.coords)} for d in M.basis_degrees],
            "action": _sparse_tensor_to_json(M)}


def principal_from_json(doc, path="principal"):
    for key in ("var_degree", "ambient", "gens"):
        if key not in doc:
            raise ValidationError(_jp(path, key) + ': missing')
    at = _jp(path, "var_degree")
    group = group_from_json(
        doc.get("group", {"free_rank": len(_list(doc["var_degree"], at))}),
        _jp(path, "group"))
    field = field_from_json(doc.get("field", "Q"), _jp(path, "field"))
    var = group.element(tuple(_ints(doc["var_degree"], group.dim, at)))
    at = _jp(path, "ambient")
    ambient = [group.element(tuple(_ints(d, group.dim, f"{at}[{i}]")))
               for i, d in enumerate(_list(doc["ambient"], at))]
    gens = []
    for ci, col in enumerate(_list(doc["gens"], _jp(path, "gens"))):
        entries = []
        for ri, entry in enumerate(_list(col, _jp(path, f"gens[{ci}]"))):
            at = _jp(path, f"gens[{ci}][{ri}]")
            if not isinstance(entry, list) or len(entry) != 2 or \
                    not _is_int(entry[1]) or entry[1] < 0:
                raise ValidationError(f"{at}: expected [c, k] with an "
                                      "integer k >= 0")
            c, k = entry
            entries.append((_scalar(field, c, f"{at}[0]"), k))
        gens.append(entries)
    try:
        return gm.PrincipalPresentation(field, var, ambient, gens)
    except gm.ModuleError as e:
        raise ValidationError(f"{path or '$'}: {e}")


# ---------------------------------------------------------------------------
# schema validation (violations as data)
# ---------------------------------------------------------------------------

def schema_validate(doc):
    """Validate any supported document; returns a list of violation
    strings naming the JSON path and the broken rule (empty = ok)."""
    try:
        if not isinstance(doc, dict):
            return ["$: expected a JSON object"]
        if "mul" in doc or "monoid" in doc:
            ring_from_json(doc, "")
        elif "action" in doc:
            module_from_json(doc, "")
        elif "gens" in doc and "var_degree" in doc:
            principal_from_json(doc, "")
        elif "matrix" in doc:
            hom_from_json(doc, "")
        elif "free_rank" in doc or "torsion" in doc:
            group_from_json(doc, "")
        else:
            return ["$: unrecognized document shape"]
        return []
    except ValidationError as e:
        return [str(e)]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load(arg):
    """Load JSON from a file path, or inline when the argument starts
    with '{'.  Text that is not UTF-8, too deeply nested for the parser,
    or holding an integer past Python's digit limit is malformed input."""
    text = arg
    try:
        if not arg.lstrip().startswith("{"):
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as e:   # int(): past the digit limit
        raise ValidationError("$: " + {
            UnicodeDecodeError: "not UTF-8 text",
            RecursionError: "JSON nested too deeply"}.get(
                type(e), "an integer literal has too many digits")) from None


def _degree_key(coords):
    return ",".join(str(c) for c in coords) if coords else "0"


def _hilbert_json(h):
    return {_degree_key(d.coords): c
            for d, c in sorted(h.items(), key=lambda t: t[0].coords)}


def _betti_json(betti):
    return {str(i): {_degree_key(k): v for k, v in sorted(table.items())}
            for i, table in enumerate(betti)}


def _emit(report, as_text):
    if as_text:
        lines = []

        def walk(obj, indent=""):
            if isinstance(obj, dict):
                for k in sorted(obj, key=str):
                    v = obj[k]
                    if isinstance(v, (dict, list)):
                        lines.append(f"{indent}{k}:")
                        walk(v, indent + "  ")
                    else:
                        lines.append(f"{indent}{k}: {v}")
            elif isinstance(obj, list):
                for v in obj:
                    if isinstance(v, (dict, list)):
                        walk(v, indent + "  ")
                    else:
                        lines.append(f"{indent}- {v}")
        walk(report)
        print("\n".join(lines))
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _ring_flags(rc):
    return {"simple": rc.simple, "entire": rc.entire, "reduced": rc.reduced}


def _oracle_agrees(flags, oracle):
    """Every flag the main path decided matches the oracle's."""
    return all(flags[k] is None or flags[k] == oracle[k] for k in oracle)


def cmd_classify(args):
    R = ring_from_json(_load(args.object))
    if isinstance(R, MonoidAlgebra):
        rc = R.classify_ring()
    else:
        rc = classify_ring(R)
    report = _ring_flags(rc)
    if args.oracle:
        if isinstance(R, MonoidAlgebra) or not R.field.is_finite:
            report["oracle"] = "skipped: needs a finite-dimensional algebra "\
                               "over a finite field"
        else:
            o = orc.oracle_ring_class(R)
            report["oracle"] = o
            report["oracle_agrees"] = _oracle_agrees(report, o)
    return _emit(report, args.text)


def cmd_coarsen(args):
    R = ring_from_json(_load(args.object))
    psi = hom_from_json(_load(args.psi), "psi")
    Rc = gf.coarsen(R, psi)
    return _emit(ring_to_json(Rc), args.text)


def cmd_restrict(args):
    R = ring_from_json(_load(args.object))
    phi = hom_from_json(_load(args.phi), "phi")
    if isinstance(R, MonoidAlgebra):
        raise ValidationError("ring: restriction needs a finite-dimensional "
                              "ring (corestrict handles monoid algebras)")
    return _emit(ring_to_json(gf.restrict(R, phi)), args.text)


def cmd_corestrict(args):
    R = ring_from_json(_load(args.object))
    phi = hom_from_json(_load(args.phi), "phi")
    if isinstance(R, MonoidAlgebra):
        rep = gf.monoid_corestriction_report(R, phi)
        if rep["result"] == "zero":
            return _emit({"corestriction": "zero ring",
                          "witness_degree": list(rep["witness_degree"])},
                         args.text)
        return _emit({"corestriction": rep["result"],
                      "detail": {k: (list(v) if isinstance(v, tuple) else v)
                                 for k, v in rep.items() if k != "result"}},
                     args.text)
    cor = gf.corestrict(R, phi)
    if cor.algebra.dim == 0:
        return _emit({"corestriction": "zero ring",
                      "ideal_dim": len(cor.ideal)}, args.text)
    return _emit({"corestriction": ring_to_json(cor.algebra),
                  "ideal_dim": len(cor.ideal)}, args.text)


def cmd_adjoint_check(args):
    R = ring_from_json(_load(args.object))
    phi = hom_from_json(_load(args.phi), "phi")
    if isinstance(R, MonoidAlgebra):
        raise ValidationError("ring: adjoint-check needs a "
                              "finite-dimensional ring")
    S = gf.restrict(R, phi)   # kept on R: the checks read this one
    rep = gf.adjunction_check(phi, [S], [R], finite_field_pairs=[
        (R, S)] if R.field.is_finite else [])
    out = {"ok": rep["ok"],
           "triangles": [{"check": lab, "ok": ok}
                         for lab, ok in rep["triangles"]],
           "tensor_witness": {k: rep["tensor_witness"][k] for k in (
               "mismatch", "tensor_degree0_dim_lower_bound",
               "restricted_tensor_degree0_dim", "reconstructed_instance")}}
    if rep["hom_bijections"]:
        out["hom_bijections"] = [dict(h, hom_counts=list(h["hom_counts"]))
                                 for h in rep["hom_bijections"]]
    return _emit(out, args.text)


def cmd_module(args):
    M = module_from_json(_load(args.object))
    rep = gm.freeness(M, seed=args.seed)
    out = {"dim": M.dim,
           "hilbert": _hilbert_json(M.hilbert()),
           "free": rep.free,
           "rank": rep.rank,
           "method": rep.method,
           "status": rep.status,
           "monogeneous": gm.is_monogeneous(M)}
    if rep.degrees is not None:
        # the generator of degree d spans a copy of R(g), g = -d
        out["shifts"] = [list(t) for t in _hilbert_json(
            Counter(-d for d in rep.degrees)).items()]
    if args.oracle and M.field.is_finite:
        out["oracle_free"] = orc.oracle_free_search(M)
        out["oracle_agrees"] = (rep.free == out["oracle_free"])
    return _emit(out, args.text)


def cmd_resolve(args):
    M = module_from_json(_load(args.object))
    res = gh.resolution(M, cutoff=args.cutoff)
    return _emit({"betti": _betti_json(res.betti()),
                  "length": res.length,
                  "minimal": res.is_minimal(),
                  "terminated": res.terminated,
                  "verified": res.verify()}, args.text)


def _dim_cmd(kind):
    def run(args):
        M = module_from_json(_load(args.object))
        rep = gh.dimension(M, kind, cutoff=args.cutoff)
        return _emit({"kind": kind, "value": rep.display,
                      "cutoff": rep.cutoff}, args.text)
    return run


def cmd_schanuel(args):
    M = module_from_json(_load(args.object))
    n = args.n
    if not 1 <= n <= 32:
        raise ValidationError(f"--n {n} outside the range 1..32")
    _guard_schanuel(M, n)
    # n steps each: the glue reads the first n covers and kernels
    res1 = gh.resolution(M, cutoff=n - 1)
    res2 = gh.resolution(M, cutoff=n - 1, minimal=False)
    if res1.length < n or res2.length < n:
        return _emit({"verified": True,
                      "note": "resolutions terminate before the glue "
                              "length; kernels are zero"}, args.text)
    iso, ok = gh.schanuel_glue(res1, res2, n)
    return _emit({"verified": ok,
                  "n": n,
                  "hilbert": _hilbert_json(iso.source.hilbert())},
                 args.text)


def cmd_coarsen_compare(args):
    M = module_from_json(_load(args.object))
    psi = hom_from_json(_load(args.psi), "psi")
    rep = gh.coarsen_dimension_compare(M, psi, cutoff=args.cutoff)
    out = {"ok": rep["ok"], "betti_equal": rep["betti_equal"],
           "betti": _betti_json(rep["betti"])}
    for kind in ("projective", "flat", "injective"):
        out[kind] = rep[kind]
    return _emit(out, args.text)


def cmd_spec(args):
    R = ring_from_json(_load(args.object))
    if isinstance(R, MonoidAlgebra):
        raise ValidationError("ring: spectrum enumeration needs a "
                              "finite-dimensional ring")
    primes = spec_enumerate(R)
    out = {"count": len(primes),
           "primes": [{"dim": len(p),
                       "basis": [[scalar_out(R.field, c) for c in v]
                                 for v in p]}
                      for p in primes],
           "nilradical_dim": len(nilradical(R))}
    return _emit(out, args.text)


def cmd_oracle_diff(args):
    doc = _load(args.object)
    if isinstance(doc, dict) and "action" in doc:
        M = module_from_json(doc)
        if not M.field.is_finite:
            raise ValidationError("module: oracle-diff needs a finite field")
        # compare the counts of degree-zero endomorphisms
        slots, rows = gm._hom_equations(M, M, M.algebra.group.zero)
        deg0 = len(la.kernel_basis(M.field, rows, len(slots)))
        oracle_homs = orc.enumerate_morphisms(M, M)
        agree = M.field.p ** deg0 == len(oracle_homs)
        return _emit({"object": "module",
                      "hom_deg0_dim": deg0,
                      "oracle_hom_count": len(oracle_homs),
                      "agree": agree}, args.text)
    R = ring_from_json(doc)
    if isinstance(R, MonoidAlgebra) or not R.field.is_finite:
        raise ValidationError("ring: oracle-diff needs a finite-dimensional "
                              "ring over a finite field")
    main = _ring_flags(classify_ring(R))
    o = orc.oracle_ring_class(R)
    return _emit({"object": "ring", "main": main, "oracle": o,
                  "agree": _oracle_agrees(main, o)}, args.text)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def cmd_validate(args):
    doc = _load(args.object)
    violations = schema_validate(doc)
    report = {"ok": not violations, "violations": violations}
    _emit(report, args.text)
    return 0


DISPATCH = {
    "classify": cmd_classify,
    "coarsen": cmd_coarsen,
    "restrict": cmd_restrict,
    "corestrict": cmd_corestrict,
    "adjoint-check": cmd_adjoint_check,
    "module": cmd_module,
    "resolve": cmd_resolve,
    "pd": _dim_cmd("projective"),
    "id": _dim_cmd("injective"),
    "fd": _dim_cmd("flat"),
    "schanuel": cmd_schanuel,
    "coarsen-compare": cmd_coarsen_compare,
    "spec": cmd_spec,
    "oracle-diff": cmd_oracle_diff,
    "validate": cmd_validate,
}


# each subcommand's options besides --json/--text, in help order, as
# (flag, kind, default): a bool is a switch and a str is required
_ORACLE = ("--oracle", bool, False)
_PSI, _PHI = ("--psi", str, None), ("--phi", str, None)
_CUTOFF = [("--cutoff", int, 8)]
OPTIONS = {"classify": [_ORACLE], "coarsen": [_PSI], "restrict": [_PHI],
           "corestrict": [_PHI], "adjoint-check": [_PHI],
           "module": [_ORACLE, ("--seed", int, la.DEFAULT_SEED)],
           "resolve": _CUTOFF, "pd": _CUTOFF, "id": _CUTOFF, "fd": _CUTOFF,
           "schanuel": [("--n", int, 1)],
           "coarsen-compare": [_PSI, ("--cutoff", int, 6)],
           "spec": [], "oracle-diff": [], "validate": []}


def _build_parser(name=None):
    """The top-level parser, or the parser of subcommand ``name`` built
    from OPTIONS; gradex only prints their help.  The metavar lists
    every subcommand, so usage lines read the same whichever subparser
    is built."""
    import argparse
    top = argparse.ArgumentParser(prog="gradex", add_help=True)
    sub = top.add_subparsers(dest="command",
                             metavar="{" + ",".join(DISPATCH) + "}")
    if name is None:
        return top
    p = sub.add_parser(name)
    p.add_argument("object", help="JSON file path or inline JSON")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="text", action="store_false",
                     default=False)
    fmt.add_argument("--text", dest="text", action="store_true")
    for flag, kind, default in OPTIONS[name]:
        if kind is bool:
            p.add_argument(flag, action="store_true")
        elif kind is str:
            p.add_argument(flag, required=True)
        else:
            p.add_argument(flag, type=int, default=default)
    return p


# argparse's negative numbers, compiled on first use
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


def _parse_args(name, argv):
    """The arguments after subcommand ``name``, read as
    ``_build_parser(name).parse_args`` reads them except that an
    abbreviated option is unrecognized.  An argv error raises
    ValidationError with argparse's message."""
    kinds = {"--json": bool, "--text": bool,
             **{f: k for f, k, _ in OPTIONS[name]}}
    flags = ("-h", "--help", *kinds)

    def is_option(tok):
        # as argparse reads it: a dash and more that starts or abbreviates
        # a flag, or else is neither a negative number nor holds a space
        head = tok.partition("=")[0] if tok[1:2] == "-" else tok
        return len(tok) > 1 and tok[0] == "-" and (
            tok[:2] in flags or any(f.startswith(head) for f in flags)
            or not (" " in tok or re.match(_NEGATIVE, tok)))

    args = {"object": None, "json": False, "text": False,
            **{f[2:]: d for f, _, d in OPTIONS[name]}}
    extras, at, rest, tokens = [], None, False, enumerate(argv)
    for i, tok in tokens:
        flag, eq, value = tok.partition("=")
        if tok == "--" and not rest:   # argparse drops it next to the object
            rest = True
            if at not in (None, i - 1):
                extras.append(tok)
        elif rest or not is_option(tok):
            if at is None:
                args["object"], at = tok, i
            else:
                extras.append(tok)
        elif flag not in kinds or eq and kinds[flag] is bool:
            extras.append(tok)
        elif kinds[flag] is bool:
            args[flag[2:]] = True
            if args["json"] and args["text"]:
                other = "--text" if flag == "--json" else "--json"
                raise ValidationError(f"argument {flag}: not allowed with "
                                      f"argument {other}")
        else:
            # a missing value reads as --, which argparse never takes
            value = value if eq else next(tokens, (i, "--"))[1]
            if value == "--" or not eq and is_option(value):
                raise ValidationError(f"argument {flag}: expected one "
                                      "argument")
            try:
                args[flag[2:]] = kinds[flag](value)
            except ValueError:
                raise ValidationError(f"argument {flag}: invalid int value: "
                                      f"{value!r}") from None
    # only the object and the str options have no value by default
    missing = [f for f in ("object", *kinds) if args[f.lstrip("-")] is None]
    if missing:
        raise ValidationError("the following arguments are required: "
                              + ", ".join(missing))
    if extras:
        raise ValidationError("unrecognized arguments: " + " ".join(extras))
    del args["json"]
    return SimpleNamespace(**args)


def _fail(code, **error):
    """Print the error as one JSON line on stderr and return code.  A
    stderr that cannot take the line (a pipe whose reader has gone, or
    a closed descriptor: then sys.stderr is None, and print would write
    to stdout) leaves the code as it is."""
    if sys.stderr is not None:
        try:
            print(json.dumps(error), file=sys.stderr)
        except OSError:
            pass
    return code


def run(argv):
    if not argv or argv[0] in ("-h", "--help"):
        _build_parser().print_help()
        return 0
    if argv[0] not in DISPATCH:
        return _fail(1, error=f"unknown subcommand {argv[0]!r}")
    try:
        if "-h" in argv or "--help" in argv:
            _build_parser(argv[0]).print_help()
            return 0
        return DISPATCH[argv[0]](_parse_args(argv[0], argv[1:])) or 0
    except SizeGuardExceeded as e:
        return _fail(3, error=str(e), kind="size-guard")
    except (ValidationError, json.JSONDecodeError, OSError,
            GroupError, AlgebraError, gm.ModuleError, gf.FunctorError) as e:
        return _fail(2, error=str(e), kind="validation")


def main():
    """The console entry: run, flush, then end the process with no
    interpreter teardown and no atexit hooks.  A failed stdout flush
    (a closed pipe) is a validation error like one inside run."""
    code = run(sys.argv[1:])
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as e:
            code = _fail(2, error=str(e), kind="validation")
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
