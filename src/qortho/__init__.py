"""Numerical library for big q-Laguerre and q-Meixner polynomials, the
associated Jacobi-matrix representation operators, and verification of
their orthogonality, duality, biorthogonality and classical-limit
identities."""

from qortho.qseries import (
    DenominatorZeroError,
    DomainError,
    NonConvergenceError,
    QParams,
    QSeriesError,
    SeriesDivergenceError,
    TailError,
    Truncation,
    jackson_Eq,
    phi_2_1,
    phi_3_2,
    q_number,
    q_pochhammer,
    q_pochhammer_inf,
)
from qortho.polynomials import (
    big_q_laguerre,
    big_q_laguerre_generating,
    big_q_laguerre_phi21,
    big_q_laguerre_recurrence,
    classical_laguerre,
    dual_f,
    dual_g,
    generating_closed,
    generating_series,
    q_inverse_meixner_relation,
    q_meixner,
    spectral_sequence,
)
from qortho.operators import (
    CoefficientVector,
    SpectralPoints,
    Tridiagonal,
    XiBasis,
    build_A,
    build_A1_A2,
    build_generator_matrices,
    eig_tridiagonal,
    eigen_coefficients,
    normalization_c,
    normalization_cprime,
    psi_phi_coefficients,
    qJ0_inverse_action,
    spectrum_points,
)
from qortho.orthogonality import run_identity_checks, verify_record
from qortho.climit import (
    LimitSweep,
    classical_eigenfunction,
    classical_operator_check,
    limit_operator_entries_check,
    limit_polynomial_check,
)
from qortho.reporting import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # parameters and policies
    "QParams",
    "Truncation",
    # exceptions
    "QSeriesError",
    "DomainError",
    "NonConvergenceError",
    "SeriesDivergenceError",
    "DenominatorZeroError",
    "TailError",
    # q-series kernels
    "q_pochhammer",
    "q_pochhammer_inf",
    "q_number",
    "phi_2_1",
    "phi_3_2",
    "jackson_Eq",
    # polynomial families
    "big_q_laguerre",
    "big_q_laguerre_phi21",
    "big_q_laguerre_recurrence",
    "big_q_laguerre_generating",
    "spectral_sequence",
    "q_meixner",
    "dual_f",
    "dual_g",
    "generating_series",
    "generating_closed",
    "q_inverse_meixner_relation",
    "classical_laguerre",
    # operators
    "Tridiagonal",
    "CoefficientVector",
    "SpectralPoints",
    "XiBasis",
    "build_generator_matrices",
    "build_A",
    "build_A1_A2",
    "eigen_coefficients",
    "psi_phi_coefficients",
    "normalization_c",
    "normalization_cprime",
    "spectrum_points",
    "eig_tridiagonal",
    "qJ0_inverse_action",
    # verification
    "VerificationReport",
    "run_identity_checks",
    "verify_record",
    # classical limit
    "LimitSweep",
    "limit_polynomial_check",
    "classical_eigenfunction",
    "classical_operator_check",
    "limit_operator_entries_check",
]
