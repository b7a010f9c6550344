"""Regularity thresholds and radial minimal branches for coupled
Lane-Emden reaction systems.

The library has three layers: exact threshold algebra on quartic
polynomials (`thresholds`), a radial finite-difference realization of
the minimal solution branch with fold bracketing (`radial`), and
pointwise/integral checks on computed solutions (`diagnostics`).  The
`cli` module wires them into the `exle` executable.
"""

from .diagnostics import (
    DiagnosticsReport,
    GrowthDiagnostic,
    energy_report,
    extremal_extrapolate,
    rescale,
    restrict_state,
    singular_profile,
    souplet_check,
    souplet_weak_margin,
)
from .errors import (
    BudgetError,
    ConfigurationError,
    DiagnosticError,
    DomainError,
    ExleError,
    NumericalError,
)
from .radial import (
    Branch,
    BranchPoint,
    ContinuationConfig,
    MonotoneResult,
    RadialGrid,
    RadialLaplacian,
    StatePair,
    assemble_radial_laplacian,
    continue_ray,
    solve_minimal,
    stability_mu1,
)
from .thresholds import (
    ExponentPair,
    IdentityReport,
    ScalingExponents,
    ThresholdReport,
    check_polynomial_identities,
    eval_H,
    eval_L,
    eval_t0,
    hausdorff_bound,
    hausdorff_bound_proof_form,
    largest_root_L,
    scaling_exponents,
    stability_product,
    threshold_report,
    threshold_rows,
)

__all__ = [
    "Branch",
    "BranchPoint",
    "BudgetError",
    "ConfigurationError",
    "ContinuationConfig",
    "DiagnosticError",
    "DiagnosticsReport",
    "DomainError",
    "ExleError",
    "ExponentPair",
    "GrowthDiagnostic",
    "IdentityReport",
    "MonotoneResult",
    "NumericalError",
    "RadialGrid",
    "RadialLaplacian",
    "ScalingExponents",
    "StatePair",
    "ThresholdReport",
    "assemble_radial_laplacian",
    "check_polynomial_identities",
    "continue_ray",
    "energy_report",
    "eval_H",
    "eval_L",
    "eval_t0",
    "extremal_extrapolate",
    "hausdorff_bound",
    "hausdorff_bound_proof_form",
    "largest_root_L",
    "rescale",
    "restrict_state",
    "scaling_exponents",
    "singular_profile",
    "solve_minimal",
    "souplet_check",
    "souplet_weak_margin",
    "stability_mu1",
    "stability_product",
    "threshold_report",
    "threshold_rows",
]

__version__ = "0.1.0"
