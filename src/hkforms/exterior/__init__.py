"""Pointwise quaternionic linear algebra on the exterior algebra of R^{4k}."""

from .forms import FormVector, basis_indices, hodge_star, inner, wedge
from .operators import (
    LefschetzAlgebra,
    asd_two_form_basis,
    duality_sign,
    kernel_subspace_distance,
    lie_closure_dimension,
    middle_kernel,
    middle_kernel_oracle_dimension,
    type_components,
    verify_so5,
)
from .quaternionic import QuaternionicStructure

__all__ = [
    "FormVector",
    "LefschetzAlgebra",
    "QuaternionicStructure",
    "asd_two_form_basis",
    "basis_indices",
    "duality_sign",
    "hodge_star",
    "inner",
    "kernel_subspace_distance",
    "lie_closure_dimension",
    "middle_kernel",
    "middle_kernel_oracle_dimension",
    "type_components",
    "verify_so5",
    "wedge",
]
