"""Exact structural analysis of leading-order profiles for singularly
perturbed mass-transfer systems.

The package builds, over exact rational arithmetic, the symmetric matrix
that governs the limiting parabolic profile of a hyperbolic relaxation
system with a simple conserved mode, determines its exact rank and
spectrum, checks the rank law ``rank = min(n - 1, K)`` on randomized
instance families, reproduces the closed forms of the two-state family
symbolically, and evaluates the limiting Gaussian profile numerically.
"""

from .exact_linalg import (
    CHARPOLY_SIZE_LIMIT,
    RationalMatrix,
    SizeLimitExceeded,
    as_rational,
    charpoly_adjugate,
    hurwitz_stable,
    nullspace,
    rank_exact,
)
from .model import (
    FAMILIES,
    MARKOV_FAMILY,
    SIMILARITY_FAMILY,
    GenerationFailed,
    GeneratorConfig,
    KernelDimensionError,
    NotStable,
    SpectralData,
    SystemSpec,
    generate_instance,
    validate_system,
)
from .asymptotics import (
    BREACH_KINDS,
    DISSIPATIVITY_TOLERANCE,
    RANK_AGREEMENT_TOLERANCE,
    NotDissipative,
    ProfileQuery,
    SingularCovariance,
    StructureReport,
    TransferStructure,
    analyze_structure,
    build_M,
    jacobi_eigenvalues,
    leading_term_eval,
    pde_residual,
    phi0_eval,
)
from .formats import (
    FORMAT_VERSION,
    build_report,
    instance_to_dict,
    load_instance_file,
)
from .multipoly import MultiPoly
from .symbolic import (
    MAX_SYMBOLIC_DIRECTIONS,
    SymbolicStructure,
    build_M_parametric,
    eigen_closed_form_n2,
    symbolic_report,
    verify_rank_one_identity,
)
from .search import CampaignConfig, derive_instance_seed, run_campaign

__version__ = "0.1.0"
