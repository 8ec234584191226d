"""Exact kernel for rings and modules graded by finitely generated
abelian groups: coarsening and degree-restriction functors,
classification predicates, free-module theory, and homological
dimension theory, all over exact scalars."""

__version__ = "0.1.0"

from .abgroups import FGAbelianGroup, GroupElement, GroupHom, Z, Zmod, \
    ZERO_GROUP
from .exactla import QQ, GF, DEFAULT_SEED
from .gcore import GradedAlgebra, AffineMonoid, MonoidAlgebra, \
    classify_element, classify_ring, nilradical, radical, spec_enumerate
from .gfunct import coarsen, restrict, extend, corestrict, adjunction_check
from .gmod import GradedModule, ModuleMorphism, regular_module, shift, \
    direct_sum, kernel, image, cokernel, graded_hom, tensor, freeness, \
    is_monogeneous, small_submodule, PrincipalPresentation, principal_suite
from .ghom import dual, injective_cogenerator, is_projective, is_injective, \
    is_flat, resolution, schanuel_glue, dimension, coarsen_dimension_compare
