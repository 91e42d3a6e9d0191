"""Exact Poisson (co)homology with module coefficients on polynomial R^n.

The package computes, entirely over exact rationals: Poisson brackets and
their Jacobi verification, modular vector fields, free Poisson modules with
their flat-connection dictionary and twists, the chain and cochain
complexes with coefficients, weight-graded Betti numbers, and an exact
verifier for the twisted duality between them.
"""

__version__ = "0.1.0"

from .calculus import (
    Form,
    ModuleChainElement,
    ModuleCochainElement,
    MultiVector,
    interior_product,
    lie_derivative,
)
from .complexes import (
    BasisElement,
    ComplexSlice,
    assemble_slice,
    basis_image,
    blacktriangle,
    blacktriangle_basis,
    blacktriangle_inverse,
    chain_differential,
    cochain_differential,
    graded_weight_shift,
    slice_basis,
    star,
    star_inverse,
)
from .errors import (
    CheckError,
    DimensionError,
    FlatnessError,
    GradedModeError,
    JacobiError,
    ModularFieldError,
    ParseError,
    PoishomError,
    PoissonFieldError,
    SchemaError,
)
from .homology import (
    BettiTable,
    DualityReport,
    betti,
    betti_table,
    matrix_rank,
    verify_duality,
)
from .pmodule import (
    PoissonModule,
    elw_connection,
    flatness_defect,
    twist,
)
from .poisson import PoissonStructure, VolumeForm
from .poly import Poly, monomials_of_degree

__all__ = [
    "BasisElement",
    "BettiTable",
    "CheckError",
    "ComplexSlice",
    "DimensionError",
    "DualityReport",
    "FlatnessError",
    "Form",
    "GradedModeError",
    "JacobiError",
    "ModularFieldError",
    "ModuleChainElement",
    "ModuleCochainElement",
    "MultiVector",
    "ParseError",
    "PoishomError",
    "PoissonFieldError",
    "PoissonModule",
    "PoissonStructure",
    "Poly",
    "SchemaError",
    "VolumeForm",
    "assemble_slice",
    "basis_image",
    "betti",
    "betti_table",
    "blacktriangle",
    "blacktriangle_basis",
    "blacktriangle_inverse",
    "chain_differential",
    "cochain_differential",
    "elw_connection",
    "flatness_defect",
    "graded_weight_shift",
    "interior_product",
    "lie_derivative",
    "matrix_rank",
    "monomials_of_degree",
    "slice_basis",
    "star",
    "star_inverse",
    "twist",
    "verify_duality",
]
