"""Closed-form spectra for the quantum two-body problem on the n-sphere.

The package computes energy levels, multiplicities, and radial
eigenfunctions for Coulomb-like and oscillator-like interactions, backed
by the so(n+1) ladder machinery that produces them and by independent
numerical oracles (shooting, joint diagonalization, equation residuals)
that verify every closed form.

numpy is imported inside the functions that use it, never at module
level: the exact algebra, the closed-form levels, the Fuchsian data, the
shooting oracle and the 2F1 kernel run on the standard library, so
importing the package does not load it.  Nothing imports scipy.
"""

from .errors import ConvergenceError, ValidationError, VerificationError
from .liealg import (
    AlgebraLabel,
    HighestWeight,
    branch_B_to_D,
    branch_D_to_B,
    invariant_subspace_dim,
    weyl_dim,
)
from .ladder import (
    EigenvectorRecord,
    LadderRep,
    StructureReport,
    build_ladder_rep,
    classify_common_eigenvectors,
    operator_matrices,
    verify_embedding,
    verify_structure_relations,
)
from .radial import (
    KIND_COULOMB,
    KIND_OSCILLATOR,
    PhysicalParams,
    RadialCoefficients,
    coefficients_from_record,
    hamiltonian_ABC,
    potential,
    radial_coefficients,
    spectral_ode,
    valid_cases,
)
from .hyperfun import gauss_2f1, gauss_2f1_deriv, hypergeom_ode_residual, limit_near_one
from .fuchsian import (
    INFINITY,
    FuchsianEq,
    HeunParams,
    HeunReduction,
    HypergeomParams,
    MaierMatch,
    SingularPoint,
    accessory_parameter_probe,
    case1_pullback_residual,
    coulomb_exponents,
    cross_ratio,
    cross_ratio_classify,
    cross_ratio_orbit,
    maier_classify,
    oscillator_exponents,
    oscillator_zeta_exponents,
    psymbol,
    reduce_case1,
    to_heun,
)
from .spectra import (
    EnergyLevel,
    RadialEigenfunction,
    SpectrumReport,
    branch_residuals,
    closed_form_energy,
    coulomb_energy,
    oscillator_energy,
    radial_eigenfunction,
    spectrum,
)
from .oracle import (
    JointEigenspace,
    ShootingResult,
    gauss_legendre,
    joint_diagonalize,
    ode_residual,
    shooting_eigenvalue,
    shooting_mismatch,
)
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConvergenceError",
    "ValidationError",
    "VerificationError",
    "AlgebraLabel",
    "HighestWeight",
    "branch_B_to_D",
    "branch_D_to_B",
    "invariant_subspace_dim",
    "weyl_dim",
    "EigenvectorRecord",
    "LadderRep",
    "StructureReport",
    "build_ladder_rep",
    "classify_common_eigenvectors",
    "operator_matrices",
    "verify_embedding",
    "verify_structure_relations",
    "KIND_COULOMB",
    "KIND_OSCILLATOR",
    "PhysicalParams",
    "RadialCoefficients",
    "coefficients_from_record",
    "hamiltonian_ABC",
    "potential",
    "radial_coefficients",
    "spectral_ode",
    "valid_cases",
    "gauss_2f1",
    "gauss_2f1_deriv",
    "hypergeom_ode_residual",
    "limit_near_one",
    "INFINITY",
    "FuchsianEq",
    "HeunParams",
    "HeunReduction",
    "HypergeomParams",
    "MaierMatch",
    "SingularPoint",
    "accessory_parameter_probe",
    "case1_pullback_residual",
    "coulomb_exponents",
    "cross_ratio",
    "cross_ratio_classify",
    "cross_ratio_orbit",
    "maier_classify",
    "oscillator_exponents",
    "oscillator_zeta_exponents",
    "psymbol",
    "reduce_case1",
    "to_heun",
    "EnergyLevel",
    "RadialEigenfunction",
    "SpectrumReport",
    "branch_residuals",
    "closed_form_energy",
    "coulomb_energy",
    "oscillator_energy",
    "radial_eigenfunction",
    "spectrum",
    "ShootingResult",
    "JointEigenspace",
    "gauss_legendre",
    "joint_diagonalize",
    "ode_residual",
    "shooting_eigenvalue",
    "shooting_mismatch",
    "SUITE_NAMES",
    "run_suite",
]
