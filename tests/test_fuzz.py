"""Fuzzed CLI documents.  Hypothesis draws well-formed ring, module,
homomorphism and principal-presentation documents of dimension at most
4, monoid-algebra documents of up to 32 generators in Z^4, and
structure-aware mutations of them: a node of another type, an index out
of range, a float, deep nesting, bytes that are not UTF-8, a scalar
with a huge decimal exponent, and an integer literal past Python's
4300-digit limit.  On every one, each subcommand keeps the CLI contract:
``cli.run`` returns 0, 1, 2 or 3 and raises nothing, and ``validate``
accepts every well-formed document.  Over a finite field, wherever the
main path and a brute-force oracle both answer (``classify --oracle``,
``module --oracle``, ``oracle-diff``), they agree, and every ``module``
report's ``monogeneous`` is a boolean equal to a walk over every
homogeneous element, wherever that walk has at most WALK_LIMIT
candidates.  A ``corestrict`` call
returns within CORESTRICT_BUDGET_S, and on a drawn monoid algebra it
answers: no size guard refuses its unit LP.  The example budgets are
fixed, so the suite costs the same few seconds on every run."""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, given, settings, strategies as st

import gradex.cli as cli
from gradex.gcore import SizeGuardExceeded
from support import monogeneous_by_walk

TORSION = [[], [2], [3], [2, 2], [2, 4]]
FIELDS = ["Q", {"p": 2}, {"p": 3}, {"p": 5}]
# the slowest of 300 random corestrict documents on 0-32 generators in
# Z^0..Z^4 took 0.04 s (Python 3.11, 2 shared vCPUs)
CORESTRICT_BUDGET_S = 5.0
WALK_LIMIT = 2 ** 12


def run(argv):
    """The exit code and the standard output of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    if argv[0] == "corestrict":
        assert time.perf_counter() - t0 < CORESTRICT_BUDGET_S, argv
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# well-formed documents
# ---------------------------------------------------------------------------

@st.composite
def groups(draw):
    torsion = draw(st.sampled_from(TORSION))
    free = draw(st.integers(0, 2 - len(torsion) // 2))
    return {"free_rank": free, "torsion": torsion}


def gdim(G):
    return G["free_rank"] + len(G["torsion"])


def degree(draw, G):
    return draw(st.lists(st.integers(-2, 2), min_size=gdim(G),
                         max_size=gdim(G)))


@st.composite
def rings(draw):
    """K[x]/(x^n) with deg x drawn from the group, K[Z/n] graded by Z/n,
    or K x K in degree 0."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["truncated", "group", "product"]))
    if kind == "group":
        n = draw(st.integers(1, 4))
        G = {"free_rank": 0, "torsion": [n] if n > 1 else []}
        degs = [[k] if n > 1 else [] for k in range(n)]
        mul = [[i, j, [[(i + j) % n, 1]]] for i in range(n)
               for j in range(n)]
    elif kind == "product":
        G = draw(groups())
        degs = [[0] * gdim(G)] * 2
        mul = [[0, 0, [[0, 1]]], [1, 1, [[1, 1]]]]
    else:
        n, G = draw(st.integers(1, 4)), draw(groups())
        g = degree(draw, G)
        degs = [[k * c for c in g] for k in range(n)]
        mul = [[i, j, [[i + j, 1]]] for i in range(n) for j in range(n - i)]
    unit = [1] * 2 if kind == "product" else [1] + [0] * (len(degs) - 1)
    return {"group": G, "field": field,
            "basis": [{"degree": d} for d in degs], "mul": mul,
            "unit": [c if field != "Q" else str(c) for c in unit]}


@st.composite
def modules(draw, ring=None):
    """R/(x^k) over R = K[x]/(x^n), or copies of R, shifted; R is the
    ring document given, or a drawn one."""
    R = ring or draw(rings())
    G, n = R["group"], len(R["basis"])
    shift = degree(draw, G)
    degs = [[a + b for a, b in zip(d["degree"], shift)] for d in R["basis"]]
    if len(R["mul"]) == n * (n + 1) // 2:   # truncated: a cyclic quotient
        k = draw(st.integers(1, n))
        return {"ring": R, "basis": [{"degree": d} for d in degs[:k]],
                "action": [[i, j, [[i + j, 1]]] for i in range(n)
                           for j in range(k - i)]}
    copies = draw(st.integers(1, 4 // n))
    return {"ring": R,
            "basis": [{"degree": d} for _ in range(copies) for d in degs],
            "action": [[i, t * n + j, [[t * n + k, c] for k, c in out]]
                       for t in range(copies) for i, j, out in R["mul"]]}


@st.composite
def homs(draw, source=None, target=None):
    """A map out of a free group, which respects every relation."""
    source = source or {"free_rank": draw(st.integers(0, 2)), "torsion": []}
    target = target or draw(groups())
    return {"source": source, "target": target,
            "matrix": [draw(st.lists(st.integers(-3, 3),
                                     min_size=gdim(source),
                                     max_size=gdim(source)))
                       for _ in range(gdim(target))]}


def phis(G):
    """Monomorphisms into G: the identity, 0 -> G, and k times the free
    part."""
    n, f = gdim(G), G["free_rank"]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    return st.one_of(
        st.just({"source": G, "target": G, "matrix": ident}),
        st.just({"source": {"free_rank": 0}, "target": G,
                 "matrix": [[] for _ in range(n)]}),
        st.integers(2, 25).map(lambda k: {
            "source": {"free_rank": f}, "target": G,
            "matrix": [[k * (i == j) for j in range(f)] for i in range(n)]}))


def psis(G):
    """Maps out of G: the identity, G -> 0, or a drawn map from a free
    G (epimorphisms or not)."""
    n = gdim(G)
    out = [st.just({"source": G, "target": G, "matrix": [
        [int(i == j) for j in range(n)] for i in range(n)]}),
        st.just({"source": G, "target": {"free_rank": 0}, "matrix": []})]
    if not G["torsion"]:
        out.append(homs(source=G))
    return st.one_of(*out)


@st.composite
def monoid_algebras(draw):
    # entries from a drawn Random: Hypothesis would favour zeros and
    # repeats, which leave few distinct generators
    d, n = draw(st.integers(0, 4)), draw(st.integers(0, 32))
    rnd = draw(st.randoms(use_true_random=False))
    doc = {"monoid": {"dim": d, "gens": [[rnd.randint(-3, 3) for _ in range(d)]
                                         for _ in range(n)]},
           "field": draw(st.sampled_from(FIELDS))}
    mode = draw(st.sampled_from(["fine", "coarse", "d", "base"]))
    if mode == "base":
        base = draw(rings())
        doc.update(base=base, field=base["field"])
        mode = draw(st.sampled_from(["fine", "coarse", "d"]))
        rows = gdim(base["group"])
    else:
        rows = 0
    if mode == "d":
        mode = {"d": [draw(st.lists(st.integers(-3, 3), min_size=d,
                                    max_size=d)) for _ in range(rows)]}
    doc["mode"] = mode
    return doc


@st.composite
def principals(draw):
    """Generators over K[X] in a free module on degrees a_i deg X: column
    t holds c X^(t - a_i) in row i, homogeneous of degree t deg X."""
    G = {"free_rank": draw(st.integers(1, 2)),
         "torsion": draw(st.sampled_from(TORSION[:3]))}
    var = [draw(st.sampled_from([-2, -1, 1, 2]))] + degree(draw, G)[1:]
    shifts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    gens = [[[draw(st.integers(-2, 2)), t - a] for a in shifts]
            for t in draw(st.lists(st.integers(max(shifts), 5),
                                   max_size=3))]
    return {"group": G, "field": draw(st.sampled_from(FIELDS)),
            "var_degree": var, "ambient": [[a * c for c in var]
                                           for a in shifts], "gens": gens}


def grading_group(doc):
    G = cli.ring_from_json(doc).grading_group()
    return {"free_rank": G.free_rank, "torsion": list(G.torsion_factors)}


RING_CMDS = [["classify"], ["classify", "--oracle"], ["coarsen", "psi"],
             ["restrict", "phi"], ["corestrict", "phi"], ["spec"],
             ["oracle-diff"], ["adjoint-check", "phi"]]
MODULE_CMDS = [["module"], ["module", "--oracle"], ["resolve", "--cutoff",
                                                    "3"],
               ["pd"], ["id"], ["fd"], ["schanuel", "--n", "2"],
               ["coarsen-compare", "psi", "--cutoff", "2"], ["oracle-diff"]]


# the subcommands that compare the main path with a brute-force oracle
ORACLE_CMDS = [["classify", "--oracle"], ["module", "--oracle"],
               ["oracle-diff"]]


@st.composite
def cases(draw):
    """(document, subcommand argv with --psi/--phi drawn for the
    document's grading group; the object goes after the subcommand)."""
    kind = draw(st.sampled_from(["ring", "module", "monoid", "hom",
                                 "principal"]))
    if kind == "hom":
        return draw(homs()), ["validate"]
    if kind == "principal":   # validate is the one reader of these
        return draw(principals()), draw(st.sampled_from(
            [["validate"], ["classify"], ["module"]]))
    doc = draw({"ring": rings(), "module": modules(),
                "monoid": monoid_algebras()}[kind])
    if kind == "monoid":
        G = grading_group(doc)
    else:
        G = (doc["ring"] if kind == "module" else doc)["group"]
    argv = []
    for tok in draw(st.sampled_from(MODULE_CMDS if kind == "module"
                                    else RING_CMDS)):
        if tok in ("psi", "phi"):
            argv += ["--" + tok, json.dumps(draw(
                psis(G) if tok == "psi" else phis(G)))]
        else:
            argv.append(tok)
    return doc, argv


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------

def nodes(doc, path=()):
    """Every path into the document, the root included."""
    yield path
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from nodes(value, path + (key,))


def replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


REPLACEMENTS = st.one_of(
    st.sampled_from([None, True, "", "x", [], {}, -1, 2 ** 70, 4, 99]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["1e5000", "-3E+99999", "2e-4301", "1e" + "9" * 30,
                     "0.5", "1/0", "nan"]),
    st.integers(1, 200).map(lambda n: json.loads("[" * n + "]" * n)))


@st.composite
def mutations(draw):
    """A drawn case with one node replaced, by a drawn value or by an
    integer literal of more than 4300 digits (which json.dumps cannot
    write), or its text made too deep or not UTF-8: (the document's
    bytes, its subcommand argv)."""
    doc, argv = draw(cases())
    how = draw(st.sampled_from(["node", "node", "node", "long", "deep",
                                "bytes"]))
    if how == "deep":
        return b'{"group": ' + b"[" * 100000, argv
    if how in ("node", "long"):
        doc = replace(doc, draw(st.sampled_from(list(nodes(doc)))),
                      draw(REPLACEMENTS) if how == "node" else "LONG")
        digits = b"7" * draw(st.integers(4301, 6000))
        return json.dumps(doc).encode().replace(b'"LONG"', digits), argv
    text = json.dumps(doc).encode()
    at = draw(st.integers(0, len(text)))
    return text[:at] + b"\xff\xfe" + text[at:], argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_well_formed_documents_validate_and_run(case):
    doc, argv = case
    text = json.dumps(doc)
    code, out = run(["validate", text])
    assert code == 0 and json.loads(out) == {"ok": True, "violations": []}
    code, out = run([argv[0], text, *argv[1:]])
    if code == 0 and argv in ORACLE_CMDS:
        report = json.loads(out)
        # the keys appear where an oracle ran (a finite field); module
        # compares only where its main path decided
        if report.get("free", True) is not None:
            assert report.get("oracle_agrees", True) is True, (doc, argv)
        assert report.get("agree", True) is True, (doc, argv)
    if code == 0 and argv[0] == "module":
        M = cli.module_from_json(doc)
        if M.field.is_finite:
            got = json.loads(out)["monogeneous"]
            assert isinstance(got, bool), (doc, got)
            try:
                assert got is monogeneous_by_walk(M, WALK_LIMIT), doc
            except SizeGuardExceeded:
                pass


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(mutations())
def test_mutated_documents_keep_the_exit_contract(tmp_path, mutation):
    # from a file, and inline when the text reads as an object
    data, argv = mutation
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    objects = [str(path)]
    if data.startswith(b"{"):
        objects.append(data.decode("utf-8", "replace"))
    for obj in objects:
        run(["validate", obj])
        run([argv[0], obj, *argv[1:]])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_corestrict_on_monoid_algebras_keeps_the_budget(data):
    # up to 32 generators in Z^4: the unit LP answers every one
    doc = data.draw(monoid_algebras())
    phi = data.draw(phis(grading_group(doc)))
    code, _ = run(["corestrict", json.dumps(doc), "--phi", json.dumps(phi)])
    assert code != 3, doc
