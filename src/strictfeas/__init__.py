"""strictfeas: diagnose and repair strict-feasibility failure in small SDPs.

The pipeline: model an SDP as a linear matrix pencil (`model`), solve it with
an honest interior-point method (`solver`), detect failure of strict
feasibility through the orthogonal-certificate alternative and substitute the
implied linear constraints (`facial`), and verify optima analytically over
Q(sqrt5) (`exactnum`, `certify`).  A Bell-scenario frontend (`bell`) builds
the bundled Almost Quantum problems whose exact optima are 0 and
5*sqrt5 - 11.
"""

from .exactnum import (
    QuadExt,
    Rational,
    format_scalar,
    frob_inner,
    kernel_basis_exact,
    parse_scalar,
    psd_check_exact,
    qarray,
    qeye,
    qsign,
    quad,
    qzeros,
    reconstruct_quadext,
    reconstruct_rational,
    rref_exact,
)
from .model import (
    Form,
    MatrixPencil,
    SdpProblem,
    SolveStatus,
    StatusTag,
    dualize,
    pencil_eval,
    primal_objective,
    primal_residuals,
    problem_from_json,
    problem_to_json,
    to_double,
    to_exact,
    validate,
)
from .solver import (
    Diagnostics,
    InvalidProblemError,
    SolveResult,
    SolverOptions,
    diagnostics_report,
    solve_sdp,
)
from .facial import (
    AffineExpr,
    ImplicitConstraintSet,
    InconsistentConstraintsError,
    ReducingCertificate,
    RoundingFailedError,
    StrictlyFeasible,
    apply_constraints,
    build_alternative_problem,
    certificate_null_vectors,
    derive_implicit_constraints,
    find_reducing_certificate,
    lift_assignment,
    reduce_problem,
)
from .certify import (
    MU2_STAR,
    BoundCertificate,
    InvalidCertificate,
    check_eigenvalue_formula,
    verify_bound_certificate,
    verify_mu2_bound,
    verify_primal_point,
)
from . import bell

__version__ = "0.1.0"

__all__ = [
    "AffineExpr",
    "BoundCertificate",
    "Diagnostics",
    "Form",
    "ImplicitConstraintSet",
    "InconsistentConstraintsError",
    "InvalidCertificate",
    "InvalidProblemError",
    "MU2_STAR",
    "MatrixPencil",
    "QuadExt",
    "Rational",
    "ReducingCertificate",
    "RoundingFailedError",
    "SdpProblem",
    "SolveResult",
    "SolveStatus",
    "SolverOptions",
    "StatusTag",
    "StrictlyFeasible",
    "apply_constraints",
    "bell",
    "build_alternative_problem",
    "certificate_null_vectors",
    "check_eigenvalue_formula",
    "derive_implicit_constraints",
    "diagnostics_report",
    "dualize",
    "find_reducing_certificate",
    "format_scalar",
    "frob_inner",
    "kernel_basis_exact",
    "lift_assignment",
    "parse_scalar",
    "pencil_eval",
    "primal_objective",
    "primal_residuals",
    "problem_from_json",
    "problem_to_json",
    "psd_check_exact",
    "qarray",
    "qeye",
    "qsign",
    "quad",
    "qzeros",
    "reconstruct_quadext",
    "reconstruct_rational",
    "reduce_problem",
    "rref_exact",
    "solve_sdp",
    "to_double",
    "to_exact",
    "validate",
    "verify_bound_certificate",
    "verify_mu2_bound",
    "verify_primal_point",
]
