"""Freeness certificates, minimal resolutions and homological dimensions.

Over R = Q[X]/(X^2) with deg X = 1, the residue field K = R/<X> is the
simplest module that is not free; its minimal free resolution never
terminates, with one generator marching up one degree per step.  The
kernels of any two resolutions of K agree after padding with the free
terms -- the script builds that isomorphism explicitly.  Modules are
read from the JSON documents the command line takes.
"""

from gradex.cli import module_from_json
from gradex import gmod as gm
from gradex import ghom as gh

RING = {"group": {"free_rank": 1, "torsion": []}, "field": "Q",
        "basis": [{"degree": [0]}, {"degree": [1]}],
        "mul": [[0, 0, [[0, "1"]]], [0, 1, [[1, "1"]]], [1, 0, [[1, "1"]]]],
        "unit": ["1", "0"]}


def hilbert_str(M):
    return {d.coords: c for d, c in M.hilbert().items()}


def main():
    M = module_from_json({"ring": RING, "basis": RING["basis"],
                          "action": RING["mul"]})
    K = module_from_json({"ring": RING, "basis": [{"degree": [0]}],
                          "action": [[0, 0, [[0, "1"]]]]})

    print("freeness reports over Q[X]/(X^2):")
    for name, mod in [("R", M), ("K = R/<X>", K)]:
        rep = gm.freeness(mod)
        print(f"  {name}: free={rep.free} rank={rep.rank} ({rep.method})")

    print()
    res = gh.resolution(K, cutoff=4)
    print(f"minimal free resolution of K, cutoff {res.cutoff}:")
    print(f"  betti tables: {res.betti()}")
    print(f"  internally verified: {res.verify()}")

    print()
    for kind in ("projective", "injective", "flat"):
        rep = gh.dimension(K, kind, cutoff=4)
        print(f"  {kind} dimension of K: {rep.display}")

    print()
    print("comparing two resolutions of K (one minimal, one padded):")
    res1 = gh.resolution(K, cutoff=2, minimal=True)
    F = gm.free_module(K.algebra, [K.group.zero, K.group.element((1,))])
    beta = gm.ModuleMorphism(F, K, [[1, 0, 0, 0]])
    L, inclL = gm.kernel(beta)
    p2 = gh.minimal_cover(L)
    _, incl2 = gm.kernel(p2)
    res2 = gh.FreeResolution(K, [beta, p2], [inclL, incl2], 2, False)
    iso, verified = gh.schanuel_glue(res1, res2, 1)
    print(f"  K1 + Q0 = L1 + P0 as graded modules: verified={verified}")
    print(f"  per-degree dimensions: {hilbert_str(iso.source)}")


if __name__ == "__main__":
    main()
