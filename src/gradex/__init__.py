"""Exact kernel for rings and modules graded by finitely generated
abelian groups: coarsening and degree-restriction functors,
classification predicates, free-module theory, and homological
dimension theory, all over exact scalars."""

__version__ = "0.1.0"

from .abgroups import FGAbelianGroup, GroupElement, GroupHom, Z, Zmod, \
    ZERO_GROUP
from .exactla import QQ, GF, DEFAULT_SEED
from .gcore import GradedAlgebra, AffineMonoid, MonoidAlgebra, \
    classify_element, classify_ring, nilradical, spec_enumerate
from .gfunct import coarsen, restrict, extend, corestrict, adjunction_check
from .gmod import GradedModule, ModuleMorphism, direct_sum, kernel, \
    graded_hom, freeness, is_monogeneous, small_submodule, \
    PrincipalPresentation, principal_suite
from .ghom import dual, is_projective, resolution, schanuel_glue, \
    dimension, coarsen_dimension_compare
