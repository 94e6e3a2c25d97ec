"""Exact structural analysis of leading-order profiles for singularly
perturbed mass-transfer systems.

The package builds, over exact rational arithmetic, the symmetric matrix
that governs the limiting parabolic profile of a hyperbolic relaxation
system with a simple conserved mode, determines its exact rank and
spectrum, checks the rank law ``rank = min(n - 1, K)`` on randomized
instance families, reproduces the closed forms of the two-state family
symbolically, and evaluates the limiting Gaussian profile numerically.

Importing the package loads none of its modules: each exported name and
each submodule is imported on first access (PEP 562), so a command or a
script pays only for the modules it uses.
"""

import importlib

# the names the package exports, by the module that defines them
_EXPORTS = {
    "exact_linalg": ("CHARPOLY_SIZE_LIMIT", "RationalMatrix", "SizeLimitExceeded",
                     "as_rational", "charpoly_adjugate", "hurwitz_stable", "nullspace",
                     "rank_exact"),
    "model": ("FAMILIES", "MARKOV_FAMILY", "SIMILARITY_FAMILY", "GenerationFailed",
              "GeneratorConfig", "KernelDimensionError", "NotStable", "SpectralData",
              "SystemSpec", "generate_instance", "validate_system"),
    "asymptotics": ("BREACH_KINDS", "RANK_AGREEMENT_TOLERANCE", "NotDissipative",
                    "ProfileQuery", "SingularCovariance", "StructureReport", "TransferStructure",
                    "analyze_structure", "build_M", "jacobi_eigenvalues", "leading_term_eval",
                    "pde_residual", "phi0_eval"),
    "formats": ("FORMAT_VERSION", "build_report", "instance_to_dict", "load_instance_file"),
    "multipoly": ("MultiPoly",),
    "symbolic": ("MAX_SYMBOLIC_DIRECTIONS", "SymbolicStructure", "build_M_parametric",
                 "eigen_closed_form_n2", "symbolic_report", "verify_rank_one_identity"),
    "search": ("CampaignConfig", "derive_instance_seed", "run_campaign"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = [*_EXPORTS, *_ORIGIN]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_ORIGIN})
