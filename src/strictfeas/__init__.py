"""strictfeas: diagnose and repair strict-feasibility failure in small SDPs.

The pipeline: model an SDP as a linear matrix pencil (`model`), solve it with
an honest interior-point method (`solver`), detect failure of strict
feasibility through the orthogonal-certificate alternative and substitute the
implied linear constraints (`facial`), then prove the optimum over Q(sqrt5)
from the reduced solve (`facial.certify_optimum`, checked by `certify`).  A
Bell-scenario frontend (`bell`) builds the bundled Almost Quantum problems
whose exact optima are 0 and 5*sqrt5 - 11.
"""

from .exactnum import (
    QuadExt,
    format_scalar,
    kernel_basis_exact,
    parse_scalar,
    psd_check_exact,
    qarray,
    qsign,
    quad,
    reconstruct_quadext,
    reconstruct_rational,
)
from .model import MatrixPencil, SdpProblem, StatusTag, to_double
from .solver import InvalidProblemError, SolveResult, diagnostics_report, solve_sdp
from .facial import (
    InconsistentConstraintsError,
    ReducingCertificate,
    RoundingFailedError,
    StrictlyFeasible,
    apply_constraints,
    certify_optimum,
    derive_implicit_constraints,
    find_reducing_certificate,
    reduce_problem,
)
from .certify import (
    MU2_STAR,
    BoundCertificate,
    InvalidCertificate,
    check_eigenvalue_formula,
    verify_bound_certificate,
    verify_primal_point,
)
from . import bell

__version__ = "0.1.0"

# what the demos and the README use, plus the result and error types of
# those functions; everything else is imported from its module
__all__ = [
    "BoundCertificate",
    "InconsistentConstraintsError",
    "InvalidCertificate",
    "InvalidProblemError",
    "MU2_STAR",
    "MatrixPencil",
    "QuadExt",
    "ReducingCertificate",
    "RoundingFailedError",
    "SdpProblem",
    "SolveResult",
    "StatusTag",
    "StrictlyFeasible",
    "apply_constraints",
    "bell",
    "certify_optimum",
    "check_eigenvalue_formula",
    "derive_implicit_constraints",
    "diagnostics_report",
    "find_reducing_certificate",
    "format_scalar",
    "kernel_basis_exact",
    "parse_scalar",
    "psd_check_exact",
    "qarray",
    "qsign",
    "quad",
    "reconstruct_quadext",
    "reconstruct_rational",
    "reduce_problem",
    "solve_sdp",
    "to_double",
    "verify_bound_certificate",
    "verify_primal_point",
]
