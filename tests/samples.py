"""Ready-made graded algebras and group maps that the tests build on."""

from __future__ import annotations

from gradex.abgroups import GroupHom, Z, Zmod, ZERO_GROUP
from gradex.exactla import QQ, GF
from gradex.gcore import GradedAlgebra, AffineMonoid, MonoidAlgebra


def trivial_algebra(field=QQ, group=ZERO_GROUP):
    """The base field as a trivially graded algebra."""
    return GradedAlgebra(group, field, [group.zero], [(0, 0, 0, 1)],
                         [1])


def truncated_polynomial_algebra(field=QQ, n=2, group=None, var_degree=None):
    """K[X]/(X^n) with deg X = var_degree (default the generator of Z)."""
    group = group or Z(1)
    g = var_degree or group.element((1,) + (0,) * (group.dim - 1))
    degrees = [group.zero]
    for k in range(1, n):
        degrees.append(degrees[-1] + g)
    structure = [(i, j, i + j, 1) for i in range(n) for j in range(n - i)]
    unit = [1] + [0] * (n - 1)
    return GradedAlgebra(group, field, degrees, structure, unit)


def dual_numbers(field=QQ, group=None, var_degree=None):
    """K[X]/(X^2)."""
    return truncated_polynomial_algebra(field, 2, group, var_degree)


def field_extension_algebra(field=QQ, n=2, a=-1):
    """K[X]/(X^n - a) graded by Z/n with deg X = 1; simple when X^n - a
    is irreducible (e.g. Q[i] for n=2, a=-1)."""
    group = Zmod(n)
    degrees = [group.element((k,)) for k in range(n)]
    structure = [(i, j, (i + j) % n, 1 if i + j < n else a)
                 for i in range(n) for j in range(n)]
    unit = [1] + [0] * (n - 1)
    return GradedAlgebra(group, field, degrees, structure, unit)


def gaussian_rationals():
    """Q[X]/(X^2+1) graded by Z/2: a simple graded ring."""
    return field_extension_algebra(QQ, 2, -1)


def group_algebra(p, n):
    """F_p[Z/n] with its fine grading by Z/n (basis e_0 .. e_{n-1})."""
    field = GF(p)
    group = Zmod(n)
    degrees = [group.element((k,)) for k in range(n)]
    structure = [(i, j, (i + j) % n, 1) for i in range(n) for j in range(n)]
    unit = [1] + [0] * (n - 1)
    return GradedAlgebra(group, field, degrees, structure, unit)


def product_field_algebra(field=GF(2), group=None):
    """K x K, trivially graded (idempotent basis)."""
    group = group or Z(1)
    degrees = [group.zero, group.zero]
    structure = [(0, 0, 0, 1), (1, 1, 1, 1)]
    unit = [1, 1]
    return GradedAlgebra(group, field, degrees, structure, unit)


def laurent_algebra(field=QQ):
    """K[Z] = K[X, X^-1] as a finely graded monoid algebra over K."""
    base = trivial_algebra(field)
    monoid = AffineMonoid(1, [(1,), (-1,)])
    return MonoidAlgebra(base, monoid, mode="fine")


def polynomial_monoid_algebra(field=QQ, mode="coarse"):
    """K[N] = K[X] as a monoid algebra over K."""
    base = trivial_algebra(field)
    monoid = AffineMonoid(1, [(1,)])
    return MonoidAlgebra(base, monoid, mode=mode)


def finite_corpus():
    """Small algebras over finite fields used as the shared sample set
    for oracle concordance and property tests."""
    return [
        trivial_algebra(GF(2), ZERO_GROUP),
        trivial_algebra(GF(3), Z(1)),
        truncated_polynomial_algebra(GF(2), 2),
        truncated_polynomial_algebra(GF(2), 3),
        truncated_polynomial_algebra(GF(2), 4),
        truncated_polynomial_algebra(GF(3), 2),
        group_algebra(2, 2),
        group_algebra(3, 3),
        group_algebra(2, 3),
        group_algebra(3, 2),
        field_extension_algebra(GF(2), 2, 1),   # F2[X]/(X^2-1), graded field
        field_extension_algebra(GF(3), 2, -1),  # F3[i], a graded field
        product_field_algebra(GF(2), Z(1)),
        product_field_algebra(GF(3), Z(1)),
    ]


def coarsening_pairs():
    """(ring, psi) pairs exercising torsionfree and torsion kernels."""
    return [
        (truncated_polynomial_algebra(GF(2), 2), psi_Z_to_Zmod(2)),
        (truncated_polynomial_algebra(GF(2), 3), psi_Z_to_zero()),
        (truncated_polynomial_algebra(GF(3), 2), psi_Z_to_Zmod(3)),
        (trivial_algebra(GF(3), Z(1)), psi_Z_to_zero()),
        (product_field_algebra(GF(2), Z(1)), psi_Z_to_Zmod(2)),
        (group_algebra(2, 2), psi_Zmod_to_zero(2)),   # torsion kernel
        (group_algebra(3, 3), psi_Zmod_to_zero(3)),   # torsion kernel
    ]


def psi_Z_to_zero():
    return GroupHom(Z(1), ZERO_GROUP, [])


def psi_Z_to_Zmod(n):
    return GroupHom(Z(1), Zmod(n), [[1]])


def psi_Zmod_to_zero(n):
    return GroupHom(Zmod(n), ZERO_GROUP, [])


def phi_zero_into(group):
    return GroupHom(ZERO_GROUP, group, [[] for _ in range(group.dim)])


def phi_doubling():
    return GroupHom(Z(1), Z(1), [[2]])
