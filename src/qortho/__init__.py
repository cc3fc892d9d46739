"""Numerical library for big q-Laguerre and q-Meixner polynomials, the
associated Jacobi-matrix representation operators, and verification of
their orthogonality, duality, biorthogonality and classical-limit
identities.

Each public name is imported from its module the first time it is read
(PEP 562), so `import qortho` loads no submodule, and `python -m qortho`
compiles only the modules its command line interface imports."""

import importlib

__version__ = "0.1.0"

# the module of each public name, every name written once
_MODULE_OF = {
    # parameters and policies
    "QParams": "qseries",
    "Truncation": "qseries",
    # exceptions
    "QSeriesError": "qseries",
    "DomainError": "qseries",
    "NonConvergenceError": "qseries",
    "SeriesDivergenceError": "qseries",
    "DenominatorZeroError": "qseries",
    "TailError": "qseries",
    # q-series kernels
    "q_pochhammer": "qseries",
    "q_pochhammer_inf": "qseries",
    "q_number": "qseries",
    "phi_2_1": "qseries",
    "phi_3_2": "qseries",
    "jackson_Eq": "qseries",
    # polynomial families
    "big_q_laguerre": "polynomials",
    "big_q_laguerre_recurrence": "polynomials",
    "spectral_sequence": "polynomials",
    "q_meixner": "polynomials",
    "classical_laguerre": "polynomials",
    "big_q_laguerre_phi21": "routes",
    "big_q_laguerre_generating": "routes",
    "dual_f": "routes",
    "dual_g": "routes",
    "generating_series": "routes",
    "generating_closed": "routes",
    "q_inverse_meixner_relation": "routes",
    # operators
    "Tridiagonal": "operators",
    "SpectralPoints": "operators",
    "build_A": "operators",
    "spectrum_points": "operators",
    "eig_tridiagonal": "operators",
    "CoefficientVector": "representation",
    "build_generator_matrices": "representation",
    "build_A1_A2": "representation",
    "eigen_coefficients": "representation",
    "psi_phi_coefficients": "representation",
    "normalization_c": "representation",
    "normalization_cprime": "representation",
    "qJ0_inverse_action": "representation",
    # verification
    "run_identity_checks": "orthogonality",
    "verify_record": "orthogonality",
    "VerificationReport": "reporting",
    # classical limit
    "LimitSweep": "climit",
    "limit_polynomial_check": "climit",
    "classical_eigenfunction": "climit",
    "classical_operator_check": "climit",
    "limit_operator_entries_check": "climit",
}

__all__ = ["__version__"]
__all__.extend(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
