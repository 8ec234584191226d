"""The three degree-change functors along a group monomorphism.

For a monomorphism phi: F -> G between grading groups, a G-graded ring
can be restricted (keep only components with degrees in the image),
extended (regrade an F-graded ring along phi), or corestricted (divide
by the ideal generated by the components outside the image, then
restrict).  Corestriction is left adjoint to extension, which is left
adjoint to restriction; the script verifies the triangle identities
and shows two corestriction extremes.  Rings and group maps are read
from the JSON documents the command line takes.
"""

from gradex.cli import hom_from_json, ring_from_json
from gradex.gfunct import (corestrict, restrict, triangle_identities,
                           monoid_corestriction_report, hom_bijection_check)

Z = {"free_rank": 1, "torsion": []}


def truncated(field, n):
    """K[X]/(X^n) with deg X = 1; n = 1 is K itself, graded by Z."""
    return ring_from_json({
        "group": Z, "field": field,
        "basis": [{"degree": [k]} for k in range(n)],
        "mul": [[i, j, [[i + j, "1"]]] for i in range(n)
                for j in range(n - i)],
        "unit": ["1"] + ["0"] * (n - 1)})


def main():
    phi = hom_from_json({"source": Z, "target": Z, "matrix": [[2]]})
    R = truncated("Q", 2)            # Q[X]/(X^2), deg X = 1

    cor = corestrict(R, phi)
    rst = restrict(R, phi)
    print("Q[X]/(X^2) along the doubling map:")
    print(f"  restriction keeps {rst.dim} of {R.dim} basis vectors")
    print(f"  corestriction has dimension {cor.algebra.dim} and divides "
          f"by an ideal of dimension {len(cor.ideal)}")
    print(f"  corestriction == restriction here? "
          f"{cor.algebra.basis_degrees == rst.basis_degrees}")

    print()
    print("The Laurent algebra K[X, X^-1] along 0 -> Z collapses:")
    laurent = ring_from_json({"monoid": {"dim": 1, "gens": [[1], [-1]]}})
    rep = monoid_corestriction_report(laurent, hom_from_json(
        {"source": {}, "target": Z, "matrix": [[]]}))
    print(f"  result: {rep['result']} "
          f"(an invertible monomial of degree {rep['witness_degree']} "
          f"lies outside the image)")

    print()
    print("Triangle identities on concrete samples:")
    for label, ok in triangle_identities(
            phi, [R, truncated({"p": 2}, 3)],
            [truncated({"p": 3}, 2), truncated("Q", 1)]):
        print(f"  {'ok ' if ok else 'FAIL'} {label}")

    print()
    print("Hom-set bijections over F2, by full enumeration:")
    h = hom_bijection_check(phi, truncated({"p": 2}, 2),
                            truncated({"p": 2}, 2))
    print(f"  corestriction -| extension : {h['corestriction-extension']}")
    print(f"  extension -| restriction   : {h['extension-restriction']}")
    print(f"  hom-set sizes              : {h['hom_counts']}")


if __name__ == "__main__":
    main()
