"""Hom and Ext of twisted quiver representations and quiver sheaves on P1."""

from .linalg import (
    ExactMatrix,
    FieldSpec,
    kernel_basis,
    rank,
    solve,
)
from .quiver import Quiver
from .rep import (
    RepMorphism,
    TwistData,
    TwistedRep,
    build_extension,
    delta_matrix,
    ext1_classes,
    hom_complex,
    hom_space,
    is_split_extension,
)
from .resolution import (
    ExactnessReport,
    GradedBasis,
    check_resolution_exactness,
    lift_beta,
    resolution_matrices,
)
from .sheaf import (
    ExtReport,
    FormMatrix,
    QSheafP1,
    SplitBundle,
    cech_hyper,
    delta0_matrix,
    delta1_matrix,
    ext_quiver_sheaf,
    tensor_bundle,
)

__all__ = [
    "ExactMatrix", "FieldSpec", "rank", "kernel_basis", "solve",
    "Quiver",
    "TwistData", "TwistedRep", "RepMorphism",
    "delta_matrix", "hom_space", "build_extension",
    "is_split_extension", "ext1_classes", "hom_complex",
    "GradedBasis", "ExactnessReport",
    "resolution_matrices", "check_resolution_exactness", "lift_beta",
    "SplitBundle", "FormMatrix", "QSheafP1", "ExtReport",
    "delta0_matrix", "delta1_matrix", "ext_quiver_sheaf", "cech_hyper",
    "tensor_bundle",
]

__version__ = "0.1.0"
