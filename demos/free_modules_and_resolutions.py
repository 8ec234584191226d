"""Freeness certificates, minimal resolutions and homological dimensions.

Over R = Q[X]/(X^2) with deg X = 1, the residue field K = R/<X> is the
simplest module that is not free; its minimal free resolution never
terminates, with one generator marching up one degree per step.  The
kernels of any two resolutions of K agree after padding with the free
terms -- the script builds that isomorphism explicitly.
"""

from gradex import samples as S
from gradex.abgroups import Z
from gradex.exactla import GF
from gradex import gmod as gm
from gradex import ghom as gh


def hilbert_str(M):
    return {d.coords: c for d, c in M.hilbert().items()}


def main():
    R = S.dual_numbers()
    M = gm.regular_module(R)
    _, incl = gm.generated_submodule(M, [[0, 1]])
    K, _ = gm.cokernel(incl)

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
    F = gm.free_module(R, [Z(1).zero, Z(1).element((1,))])
    beta = gm.ModuleMorphism(F, K, [[1, 0, 0, 0]])
    L, inclL = gm.kernel(beta)
    p2 = gh.minimal_cover(L)
    _, incl2 = gm.kernel(p2)
    res2 = gh.FreeResolution(K, [beta, p2], [inclL, incl2], 2, False, False)
    iso, verified = gh.schanuel_glue(res1, res2, 1)
    print(f"  K1 + Q0 = L1 + P0 as graded modules: verified={verified}")
    print(f"  per-degree dimensions: {hilbert_str(iso.source)}")


if __name__ == "__main__":
    main()
