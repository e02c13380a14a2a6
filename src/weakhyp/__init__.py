"""weakhyp: spectral diagnostics for weakly hyperbolic evolution problems.

The package simulates periodic semilinear equations whose principal part
degenerates in time, and measures the quantities that a propagation-of-
analyticity argument needs: quasi-symmetrizer certificates, two-regime
weighted energies, super-energy generating functions with a shrinking
radius schedule, and spectral estimates of the analyticity radius.
"""

from .config import ConfigError, RunConfig, load_config
from .energy import (
    EnergyLedger,
    GevreyOrderWarning,
    WeightParams,
    build_energy_ledger,
    continuation_check,
    default_c0,
    gevrey_weight,
    energy_inequality_check,
    master_estimate_check,
    phi_weight,
    rho_weight,
    super_energies,
)
from .equation import CoefficientSpec
from .exprdsl import ExpressionError, evaluate, evaluate_on_grid, parse, to_source
from .quasisym import (
    QuasiSymmetrizer,
    SymmetrizerCertificate,
    build_quasi_symmetrizer,
    verify_quasi_symmetrizer,
)
from .radius import (
    InsufficientBandError,
    MomentRadiusEstimate,
    RadiusEstimate,
    ZeroMomentError,
    fit_decay,
    fit_moment_radius,
)
from .spectral import (
    BlowUpError,
    StabilityError,
    Trajectory,
    assemble_state,
    companion_matrix,
    companion_stack,
    convolution_power,
    simulate,
)
from .symbol import (
    NonHyperbolicError,
    characteristic_roots,
    check_diam,
    diam_ratio,
    discriminant_check,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CoefficientSpec",
    "ConfigError",
    "EnergyLedger",
    "ExpressionError",
    "GevreyOrderWarning",
    "InsufficientBandError",
    "MomentRadiusEstimate",
    "NonHyperbolicError",
    "QuasiSymmetrizer",
    "RadiusEstimate",
    "RunConfig",
    "StabilityError",
    "SymmetrizerCertificate",
    "Trajectory",
    "WeightParams",
    "ZeroMomentError",
    "__version__",
    "assemble_state",
    "build_energy_ledger",
    "build_quasi_symmetrizer",
    "characteristic_roots",
    "check_diam",
    "companion_matrix",
    "companion_stack",
    "continuation_check",
    "convolution_power",
    "default_c0",
    "diam_ratio",
    "discriminant_check",
    "evaluate",
    "evaluate_on_grid",
    "fit_decay",
    "fit_moment_radius",
    "gevrey_weight",
    "energy_inequality_check",
    "load_config",
    "master_estimate_check",
    "parse",
    "phi_weight",
    "rho_weight",
    "simulate",
    "super_energies",
    "verify_quasi_symmetrizer",
]
