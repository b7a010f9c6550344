"""Regularity thresholds and radial minimal branches for coupled
Lane-Emden reaction systems.

The library has three layers: exact threshold algebra on quartic
polynomials (`thresholds`), a radial finite-difference realization of
the minimal solution branch with fold bracketing (`radial`), and
pointwise/integral checks on computed solutions (`diagnostics`).  The
`cli` module wires them into the `exle` executable.

The namespace is lazy (PEP 562): `import exle` loads no submodule, and
so no numpy; each public name imports its submodule on first access.
"""

import importlib

_SUBMODULES = {
    "diagnostics": (
        "energy_report",
        "extremal_extrapolate",
        "rescale",
        "restrict_state",
        "singular_profile",
        "souplet_check",
    ),
    "errors": (
        "BudgetError",
        "ConfigurationError",
        "DiagnosticError",
        "DomainError",
        "ExleError",
        "NumericalError",
    ),
    "radial": (
        "Branch",
        "RadialGrid",
        "RadialLaplacian",
        "Trial",
        "assemble_radial_laplacian",
        "continue_ray",
        "solve_minimal",
        "stability_mu1",
    ),
    "thresholds": (
        "ExponentPair",
        "IdentityReport",
        "ScalingExponents",
        "ThresholdReport",
        "check_polynomial_identities",
        "eval_H",
        "eval_L",
        "eval_t0",
        "hausdorff_bound",
        "hausdorff_bound_proof_form",
        "largest_root_L",
        "scaling_exponents",
        "stability_product",
        "threshold_report",
        "threshold_rows",
    ),
}
_HOME = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES) | set(__all__))
