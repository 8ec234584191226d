"""The three degree-change functors along a group monomorphism.

For a monomorphism phi: F -> G between grading groups, a G-graded ring
can be restricted (keep only components with degrees in the image),
extended (regrade an F-graded ring along phi), or corestricted (divide
by the ideal generated by the components outside the image, then
restrict).  Corestriction is left adjoint to extension, which is left
adjoint to restriction; the script verifies the triangle identities
and shows two corestriction extremes.
"""

from gradex import samples as S
from gradex.abgroups import Z
from gradex.exactla import QQ, GF
from gradex.gfunct import (corestrict, restrict, triangle_identities,
                           monoid_corestriction_report, hom_bijection_check)


def main():
    phi = S.phi_doubling()           # Z -> Z, n |-> 2n
    R = S.dual_numbers()             # Q[X]/(X^2), deg X = 1

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
    rep = monoid_corestriction_report(S.laurent_algebra(),
                                      S.phi_zero_into(Z(1)))
    print(f"  result: {rep['result']} "
          f"(an invertible monomial of degree {rep['witness_degree']} "
          f"lies outside the image)")

    print()
    print("Triangle identities on concrete samples:")
    for label, ok in triangle_identities(
            phi, [R, S.truncated_polynomial_algebra(GF(2), 3)],
            [S.dual_numbers(GF(3)), S.trivial_algebra(QQ, Z(1))]):
        print(f"  {'ok ' if ok else 'FAIL'} {label}")

    print()
    print("Hom-set bijections over F2, by full enumeration:")
    h = hom_bijection_check(phi, S.dual_numbers(GF(2)),
                            S.dual_numbers(GF(2)))
    print(f"  corestriction -| extension : {h['corestriction-extension']}")
    print(f"  extension -| restriction   : {h['extension-restriction']}")
    print(f"  hom-set sizes              : {h['hom_counts']}")


if __name__ == "__main__":
    main()
