"""Check where data enters.  The constructors of rings, modules and
morphisms prove every axiom; what gradex derives from checked values is
built without a second check (``_Derivable._derived``).

The counting test runs the seed-0 benchmark corpus through
``gradex.cli.run`` and finds each axiom check on a ring or module the
CLI read, and nowhere else.  A derived morphism keeps the matrix it is
handed, which holds field values; the checked constructor makes the
caller's entries field values.  The property test re-checks, with the
checked constructors, every ring, module and morphism that a derivation
builds on the trusted path.  The morphism check, which runs on the
source ring's generators, is held to the same axioms checked on every
basis vector.
"""

import json
import pathlib
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import gradex.cli as cli
import gradex.exactla as la
import gradex.gcore as gc
import gradex.gfunct as gf
import gradex.ghom as gh
import gradex.gmod as gm
from gradex.abgroups import GroupHom, Z, ZERO_GROUP
from gradex.exactla import QQ, GF
import samples as S
import support
from support import is_module_morphism, is_multiplicative, is_ring_morphism
from test_ghom import (free_lift_cases, padded_lift_cases, quotient_by_x,
                       sample_modules)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402


# ---------------------------------------------------------------------------
# counting: one axiom check per ring or module the CLI reads
# ---------------------------------------------------------------------------

# rings and modules cli.ring_from_json / cli.module_from_json build per
# seed-0 pass (a module's ring and a monoid algebra's base included).
# quotient_ring checks its one precondition (the ideal is closed under
# multiplication) instead of the quotient's axioms, so no derived
# result is left checked and nothing is added to these counts.
PARSED = {"rings-q": 15, "homological": 28, "finite-fields": 20}


def _run_corpus(workload, tmp_path, monkeypatch):
    for doc in corpus.corpus(workload, corpus.DEFAULT_SEED):
        d = tmp_path / doc["id"]
        d.mkdir()
        for name, text in doc["files"].items():
            (d / name).write_text(text)
        monkeypatch.chdir(d)
        assert cli.run(doc["argv"]) == 0


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_axioms_checked_once_per_parsed_object(workload, tmp_path,
                                               monkeypatch, capsys):
    reading, adjunction = [0], [0]
    parsed, derived, morphism_checks, ring_morphism_checks = [], [], [], []

    def nesting(counter, fn):
        def wrapped(*args, **kwargs):
            counter[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] -= 1
        return wrapped

    def counted(fn, log, flag=None):
        def wrapped(self, *args):
            log.append(self if flag is None else flag[0])
            return fn(self, *args)
        return wrapped

    axioms = gc._GradedSpace._check_module_axioms

    def check_axioms(self, R):
        (parsed if reading[0] else derived).append(self)
        return axioms(self, R)

    for name in ("ring_from_json", "module_from_json"):
        monkeypatch.setattr(cli, name, nesting(reading, getattr(cli, name)))
    monkeypatch.setattr(gf, "adjunction_check",
                        nesting(adjunction, gf.adjunction_check))
    monkeypatch.setattr(gc._GradedSpace, "_check_module_axioms",
                        check_axioms)
    monkeypatch.setattr(gm.ModuleMorphism, "_check",
                        counted(gm.ModuleMorphism._check, morphism_checks))
    monkeypatch.setattr(gf.AlgebraMorphism, "_check",
                        counted(gf.AlgebraMorphism._check,
                                ring_morphism_checks, adjunction))
    _run_corpus(workload, tmp_path, monkeypatch)
    capsys.readouterr()
    assert derived == []
    assert len(parsed) == PARSED[workload]
    assert len({id(X) for X in parsed}) == len(parsed)
    assert morphism_checks == []
    # ring morphisms are checked only where the check is the point: the
    # adjunction checks' enumerations and triangle identities
    assert all(ring_morphism_checks)


def is_field_value(f, x):
    """An int in 0..p-1 over F_p, a Rational over Q."""
    return x.__class__ is f.zero.__class__ and f.of(x) == x


@pytest.mark.parametrize("doc_id", ["schanuel1-f2x4-x2", "schanuel1-q4-x1",
                                    "schanuel2-q3-x1"])
def test_derived_morphisms_keep_their_matrices(doc_id, tmp_path,
                                               monkeypatch, capsys):
    # at --n 2: every morphism built without a check keeps the matrix
    # object it is handed, and the constructions hand it field values
    doc = next(d for d in corpus.corpus("homological", corpus.DEFAULT_SEED)
               if d["id"] == doc_id)
    for name, text in doc["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    kept, derived = [], gc._Derivable.__dict__["_derived"].__func__

    def recording(cls, *args):
        obj = derived(cls, *args)
        if issubclass(cls, gc._Morphism):
            kept.append((obj, args[2]))
        return obj
    monkeypatch.setattr(gc._Derivable, "_derived", classmethod(recording))
    assert cli.run(doc["argv"][:-1] + ["2"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 2
    assert kept
    for u, matrix in kept:
        f = u.target.field
        assert u.matrix is matrix
        assert all(is_field_value(f, x) for row in matrix for x in row)


def test_checked_morphisms_make_their_entries_field_values():
    for f in (QQ, GF(3)):
        R = S.dual_numbers(f)
        M, c = support.regular_module(R), f.of("-1/2")
        u = gm.ModuleMorphism(M, M, [["-1/2", 0], [0, "-1/2"]])
        h = gf.AlgebraMorphism(R, R, [[1, "0"], [0, "1"]])
        assert u.matrix == [[c, f.zero], [f.zero, c]]
        assert h.matrix == la.eye(f, 2)
        assert all(is_field_value(f, x) for g in (u, h)
                   for row in g.matrix for x in row)


# ---------------------------------------------------------------------------
# property: every trusted derivation yields values that pass the check
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def rings():
    """The finite-field sample corpus, Q[x]/(x^3) and the Gaussian
    rationals."""
    return tuple(S.finite_corpus()) + (
        S.truncated_polynomial_algebra(QQ, 3), S.gaussian_rationals())


@lru_cache(maxsize=None)
def modules():
    """test_ghom's sample modules over F2, and over Q the Gaussian
    rationals and Q[x]/(x^3) in the bases 1, x, x^2 and 1, 2x, -3x^2
    (structure constants other than 1), and Q[x]/(x^3) modulo x."""
    Rq = S.truncated_polynomial_algebra(QQ, 3)
    s = [1, 2, -3]
    scaled = gm.GradedModule(Rq, Rq.basis_degrees, [
        (i, j, i + j, Fraction(s[j], s[i + j]))
        for i in range(3) for j in range(3 - i)])
    return tuple(sample_modules()) + (
        support.regular_module(S.gaussian_rationals()),
        support.regular_module(Rq), scaled, quotient_by_x(Rq)[0])


def _identity_hom(G):
    return GroupHom(G, G, [[int(i == j) for j in range(G.dim)]
                           for i in range(G.dim)])


def epis(G):
    """Epimorphisms out of G."""
    out = [GroupHom(G, ZERO_GROUP, [])]
    if G == Z(1):
        out.append(S.psi_Z_to_Zmod(2))
    return out


def monos_into(G):
    out = [S.phi_zero_into(G), _identity_hom(G)]
    if G == Z(1):
        out.append(S.phi_doubling())
    return out


def monos_from(G):
    out = [_identity_hom(G)]
    if G == Z(1):
        out.append(S.phi_doubling())
    if G == ZERO_GROUP:
        out.append(S.phi_zero_into(Z(1)))
    return out


def ring_morphisms(R):
    """The identity of R and the projection onto a corestriction's
    quotient, both through the checked constructor."""
    cor = gf.corestrict(R, S.phi_zero_into(R.group))
    Q, proj, _ = gc.quotient_ring(R, cor.ideal)
    return [gf.AlgebraMorphism(R, R, la.eye(R.field, R.dim)),
            gf.AlgebraMorphism(R, Q, proj)]


def module_morphisms(M):
    """Morphisms into M: its minimal and its full free cover and the
    inclusion of the submodule generated by its first basis vector."""
    eye = la.eye(M.field, M.dim)
    return [gh.minimal_cover(M), gm.free_cover_from_generators(M, eye),
            support.generated_submodule(M, eye[:1])[1]]


def ring(draw):
    return draw(st.sampled_from(rings()))


def module(draw):
    return draw(st.sampled_from(modules()))


def nonzero_module(draw):
    return draw(st.sampled_from([M for M in modules() if M.dim]))


def partner(draw, M):
    """A module over the algebra of M."""
    return draw(st.sampled_from([N for N in modules()
                                 if N.algebra == M.algebra]))


def module_morphism(draw):
    return draw(st.sampled_from(module_morphisms(module(draw))))


def ring_morphism(draw):
    return draw(st.sampled_from(ring_morphisms(ring(draw))))


def unit_vectors(draw, M):
    if M.dim == 0:
        return []
    return [la.unit_vector(M.field, M.dim, j) for j in draw(
        st.lists(st.integers(0, M.dim - 1), min_size=1, max_size=3))]


# derivation name -> f(draw), which draws the inputs and returns the
# call to make on the trusted path
DERIVATIONS = {}


def derivation(fn):
    DERIVATIONS[fn.__name__] = fn
    return fn


@derivation
def regular_module(draw):
    R = ring(draw)
    return lambda: support.regular_module(R)


@derivation
def shift(draw):
    M = module(draw)
    g = draw(st.sampled_from(M.algebra.basis_degrees))
    return lambda: support.shift(M, g)


@derivation
def direct_sum(draw):
    M = module(draw)
    N = partner(draw, M)
    return lambda: gm.direct_sum(M, N)


@derivation
def generated_submodule(draw):
    M = module(draw)
    gens = [M.element(v) for v in draw(st.lists(
        st.lists(st.sampled_from([0, 1, 2]), min_size=M.dim,
                 max_size=M.dim), min_size=1, max_size=3))]
    return lambda: support.generated_submodule(M, gens)


@derivation
def kernel(draw):
    u = module_morphism(draw)
    return lambda: gm.kernel(u)


@derivation
def image(draw):
    u = module_morphism(draw)
    return lambda: support.image(u)


@derivation
def cokernel(draw):
    u = module_morphism(draw)
    return lambda: support.cokernel(u)


@derivation
def tensor(draw):
    M = module(draw)
    N = partner(draw, M)
    return lambda: support.tensor(M, N)


@derivation
def graded_hom(draw):
    M = module(draw)
    N = partner(draw, M)
    return lambda: gm.graded_hom(M, N)


@derivation
def dual(draw):
    M = module(draw)
    return lambda: gh.dual(M)


@derivation
def dual_morphism(draw):
    u = module_morphism(draw)
    return lambda: support.dual_morphism(u)


@derivation
def free_module(draw):
    R = ring(draw)
    degs = draw(st.lists(st.sampled_from(R.basis_degrees), min_size=1,
                         max_size=3))
    return lambda: gm.free_module(R, degs)


@derivation
def free_cover_from_generators(draw):
    M = module(draw)
    gens = unit_vectors(draw, M)
    return lambda: gm.free_cover_from_generators(M, gens)


@derivation
def coarsen_module(draw):
    M = module(draw)
    psi = draw(st.sampled_from(epis(M.group)))
    return lambda: gm.coarsen_module(M, psi)


@derivation
def coarsen_morphism(draw):
    u = module_morphism(draw)
    psi = draw(st.sampled_from(epis(u.target.group)))
    return lambda: gf.coarsen(u, psi)


@derivation
def coarsen_algebra(draw):
    R = ring(draw)
    psi = draw(st.sampled_from(epis(R.group)))
    return lambda: gf.coarsen_algebra(R, psi)


@derivation
def coarsen_ring_morphism(draw):
    h = ring_morphism(draw)
    psi = draw(st.sampled_from(epis(h.source.group)))
    return lambda: gf.coarsen(h, psi)


@derivation
def restrict_with_indices(draw):
    R = ring(draw)
    phi = draw(st.sampled_from(monos_into(R.group)))
    return lambda: gf.restrict_with_indices(R, phi)


@derivation
def extend(draw):
    R = ring(draw)
    phi = draw(st.sampled_from(monos_from(R.group)))
    return lambda: gf.extend(R, phi)


@derivation
def corestrict(draw):
    R = ring(draw)
    phi = draw(st.sampled_from(monos_into(R.group)))
    return lambda: gf.corestrict(R, phi)


@derivation
def restrict_morphism(draw):
    h = ring_morphism(draw)
    phi = draw(st.sampled_from(monos_into(h.source.group)))
    return lambda: gf.restrict_morphism(h, phi)


@derivation
def corestrict_morphism(draw):
    h = ring_morphism(draw)
    phi = draw(st.sampled_from(monos_into(h.source.group)))
    return lambda: gf.corestrict_morphism(h, phi)


@derivation
def compose_ring_morphisms(draw):
    identity, alpha = ring_morphisms(ring(draw))
    return lambda: alpha.compose(identity)


@derivation
def quotient_ring(draw):
    R = ring(draw)
    a = gc.ideal_from_gens(R, [la.unit_vector(R.field, R.dim, i) for i in
                               draw(st.lists(st.integers(0, R.dim - 1),
                                             max_size=2))])
    return lambda: gc.quotient_ring(R, a)


@derivation
def compose(draw):
    M = module(draw)
    u = draw(st.sampled_from(module_morphisms(M)))
    _, incl = support.generated_submodule(M, unit_vectors(draw, M))
    _, proj = support.cokernel(incl)
    return lambda: proj.compose(u)


@derivation
def map_from_free(draw):
    M = module(draw)
    images = unit_vectors(draw, M)
    F = gm.free_module(M.algebra, [M.vec_degree(v) for v in images])
    return lambda: gm.map_from_free(F, M, images)


@derivation
def lift_through_epi(draw):
    # a free module lifts through every epimorphism: the minimal and the
    # full cover of a module, and the padded covers of a Schanuel step
    M = module(draw)
    p, v = draw(st.sampled_from(free_lift_cases(M)[:2]
                                + padded_lift_cases(M)[:2]))
    return lambda: gh.lift_through_epi(p, v)


@derivation
def resolution(draw):
    M = nonzero_module(draw)
    minimal = draw(st.booleans())
    return lambda: gh.resolution(M, cutoff=2, minimal=minimal)


@derivation
def schanuel(draw):
    M = nonzero_module(draw)
    n = draw(st.integers(1, 2))
    res1 = gh.resolution(M, cutoff=n)
    res2 = gh.resolution(M, cutoff=n, minimal=False)
    n = min(n, res1.length, res2.length)
    return lambda: gh.schanuel_glue(res1, res2, n)


@derivation
def freeness(draw):
    M = draw(st.sampled_from([M for M in modules()
                              if M.dim == M.algebra.dim]))
    return lambda: gm.freeness(M)


def passes_full_check(X):
    """Rebuild X through its checked constructor, which raises on any
    violated axiom, and compare."""
    if isinstance(X, gc.GradedAlgebra):
        return gc.GradedAlgebra(X.group, X.field, X.basis_degrees,
                                X.entries(), X.unit) == X
    if isinstance(X, gm.GradedModule):
        return gm.GradedModule(X.algebra, X.basis_degrees,
                               X.entries()) == X
    return type(X)(X.source, X.target, X.matrix).matrix == X.matrix


@pytest.mark.parametrize("name", sorted(DERIVATIONS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_trusted_derivations_pass_the_full_check(name, data):
    call = DERIVATIONS[name](data.draw)
    built, derived = [], gc._Derivable.__dict__["_derived"].__func__

    def recording(cls, *args):
        built.append(derived(cls, *args))
        return built[-1]
    with patch.object(gc._Derivable, "_derived", classmethod(recording)):
        call()
    assert built  # the derivation took the trusted path
    for X in built:
        assert passes_full_check(X), (name, X)


# ---------------------------------------------------------------------------
# the morphism check on generators against the check on every basis vector
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def finite_rings():
    """The finite-field sample rings, their coarsenings, and their
    restrictions to degree 0 and along the doubling map, each once."""
    out = list(S.finite_corpus())
    out += [gf.coarsen(R, psi) for R, psi in S.coarsening_pairs()]
    for R in S.finite_corpus():
        out.append(gf.restrict(R, S.phi_zero_into(R.group)))
        if R.group == Z(1):
            out.append(gf.restrict(R, S.phi_doubling()))
    return tuple(R for t, R in enumerate(out) if R not in out[:t])


@lru_cache(maxsize=None)
def finite_modules():
    """Over each ring of finite_rings(): the regular module, its shift
    by the degree of the last basis vector and its quotient by the
    second basis vector; and the coarsenings of those over the sample
    rings."""
    out = []
    for R in finite_rings():
        M = support.regular_module(R)
        out += [M, support.shift(M, R.basis_degrees[-1])]
        if R.dim > 1:
            out.append(quotient_by_x(R)[0])
    for R, psi in S.coarsening_pairs():
        out += [gf.coarsen(M, psi) for M in out if M.algebra == R]
    return tuple(out)


ENUMERATED_MATRICES = 2 ** 12
RANDOM_MATRICES = 64


def degree_matrices(X, Y, rng):
    """Every degree-preserving matrix X -> Y when there are at most
    ENUMERATED_MATRICES of them, else RANDOM_MATRICES drawn with rng."""
    f = Y.field
    slots = [(k, j) for k in range(Y.dim) for j in range(X.dim)
             if Y.basis_degrees[k] == X.basis_degrees[j]]
    elements = list(f.elements())
    if len(elements) ** len(slots) <= ENUMERATED_MATRICES:
        values = product(elements, repeat=len(slots))
    else:
        values = ([rng.choice(elements) for _ in slots]
                  for _ in range(RANDOM_MATRICES))
    for vals in values:
        F = la.zeros(f, Y.dim, X.dim)
        for (k, j), c in zip(slots, vals):
            F[k][j] = c
        yield F


def accepts(cls, X, Y, F, error):
    try:
        cls(X, Y, F)
    except error:
        return False
    return True


def test_ring_morphism_check_agrees_with_every_basis_vector():
    rng, accepted = random.Random(0), 0
    for A in finite_rings():
        for B in finite_rings():
            if (A.group, A.field) != (B.group, B.field):
                continue
            for F in degree_matrices(A, B, rng):
                ok = accepts(gf.AlgebraMorphism, A, B, F, gf.FunctorError)
                assert ok == is_ring_morphism(A, B, F), (A, B, F)
                accepted += ok
    assert accepted >= len(finite_rings())   # the identities at least


def test_module_morphism_check_agrees_with_every_basis_vector():
    rng, accepted = random.Random(0), 0
    for M in finite_modules():
        for N in finite_modules():
            if M.algebra != N.algebra:
                continue
            for F in degree_matrices(M, N, rng):
                ok = accepts(gm.ModuleMorphism, M, N, F, gm.ModuleError)
                assert ok == is_module_morphism(M, N, F), (M, N, F)
                accepted += ok
    assert accepted >= len(finite_modules())


def test_non_unital_ring_map_is_refused():
    # the projection of K x K onto its first factor commutes with every
    # generator, but sends 1 to e_1: the maps commuting with it then
    # form a subalgebra without 1, so the unit is checked on its own
    R = S.product_field_algebra(GF(2), Z(1))
    F = [[1, 0], [0, 0]]
    assert is_multiplicative(R, R, F)
    with pytest.raises(gf.FunctorError, match="unit"):
        gf.AlgebraMorphism(R, R, F)
