"""Exact analytical verification of optima for pencil-form SDPs.

Primal feasibility is decided by exact PSD elimination; upper bounds come
from weak duality: a PSD matrix X with <F_i, X> = 0 for every non-objective
variable and <F_mu, X> < 0 proves mu <= -<F0, X>/<F_mu, X> for every feasible
point, since 0 <= <pencil(y), X> = <F0, X> + mu <F_mu, X>.

The bundled problems come with known closed-form data: problem 1 carries a
feasible point at mu = 0 and a dual matrix certifying mu <= 0; problem 2 is a
one-variable pencil whose feasible interval ends exactly at 5*sqrt5 - 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactnum import (
    NonSymmetricError,
    PsdCheck,
    QuadExt,
    as_quad,
    format_scalar,
    frob_inner,  # noqa: F401  (perfbench/spans.py times it here)
    psd_check_exact,
    qsign,
    quad,
    to_float,
)
from .model import MissingVariableError, SdpProblem, pencil_eval, pencil_pairing

MU2_STAR = quad(-11, 5)  # 5*sqrt5 - 11


class WrongShapeError(ValueError):
    pass


@dataclass(frozen=True)
class PrimalVerdict:
    feasible: bool
    witness_index: int | None = None
    witness: tuple | None = None

    def as_dict(self) -> dict:
        out = {"claim": "primal point is feasible", "verdict": "Feasible" if self.feasible else "Infeasible"}
        if self.witness is not None:
            out["witness"] = [format_scalar(x) for x in self.witness]
        return out


def verify_primal_point(prob: SdpProblem, assignment) -> PrimalVerdict:
    """Exact feasibility decision of the pencil at an exact assignment."""
    missing = [v for v in prob.var_names if v not in assignment]
    if missing:
        raise MissingVariableError(f"missing assignment for {missing}")
    M = pencil_eval(prob.pencil, assignment)
    check: PsdCheck = psd_check_exact(M)
    return PrimalVerdict(
        feasible=check.is_psd,
        witness_index=check.bad_index,
        witness=check.witness,
    )


@dataclass(frozen=True)
class BoundCertificate:
    """Weak-duality upper bound on a single objective variable, exact."""

    X: np.ndarray
    normalization: QuadExt  # <F_mu, X>, necessarily negative
    certified_bound: QuadExt

    def as_dict(self) -> dict:
        return {
            "claim": "objective variable is bounded above",
            "verdict": "Valid",
            "certified_bound": format_scalar(self.certified_bound),
            "normalization": format_scalar(self.normalization),
        }


@dataclass(frozen=True)
class InvalidCertificate:
    violations: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "claim": "objective variable is bounded above",
            "verdict": "Invalid",
            "violations": list(self.violations),
        }


def verify_bound_certificate(
    prob: SdpProblem, X: np.ndarray, objective_var: str
) -> BoundCertificate | InvalidCertificate:
    """Exactly check X as a weak-duality certificate for maximize objective_var.

    Requires X >= 0, <F_i, X> = 0 for every other variable and
    <F_obj, X> < 0; then every feasible point satisfies
    objective_var <= -<F0, X> / <F_obj, X>.  All violated conditions are
    reported (Invalid is a value, not an error).
    """
    if prob.pencil.scalar != "exact":
        return InvalidCertificate(("problem must be exact",))
    if objective_var not in prob.var_names:
        return InvalidCertificate((f"unknown objective variable {objective_var!r}",))
    n = prob.pencil.n
    if np.shape(X) != (n, n):
        return InvalidCertificate((f"X has shape {np.shape(X)}, expected {(n, n)}",))
    try:
        check = psd_check_exact(X)
    except NonSymmetricError:
        return InvalidCertificate(("X is not symmetric",))
    violations = []
    if not check.is_psd:
        violations.append(f"X is not PSD (elimination step {check.bad_index})")
    f0_inner, *inner = pencil_pairing(prob.pencil, X)
    for name, ip in zip(prob.var_names, inner):
        if name == objective_var:
            norm = ip
            if qsign(ip) >= 0:
                violations.append(
                    f"normalization <F_{name}, X> = {format_scalar(ip)} is not negative"
                )
        elif bool(ip):
            violations.append(f"<F_{name}, X> = {format_scalar(ip)} != 0")
    if violations:
        return InvalidCertificate(tuple(violations))
    bound = -f0_inner / norm
    return BoundCertificate(X=X, normalization=norm, certified_bound=bound)


@dataclass(frozen=True)
class IntervalBoundVerdict:
    confirmed: bool
    value: QuadExt | None
    detail: str

    def as_dict(self) -> dict:
        out = {
            "claim": "one-variable pencil stays PSD exactly up to the claimed value",
            "verdict": "BoundConfirmed" if self.confirmed else "Failed",
            "detail": self.detail,
        }
        if self.value is not None:
            out["certified_bound"] = format_scalar(self.value)
        return out


def _single_variable(prob: SdpProblem) -> str:
    if len(prob.var_names) != 1:
        raise WrongShapeError(
            f"expected a one-variable pencil, got {len(prob.var_names)} variables"
        )
    return prob.var_names[0]


def verify_mu2_bound(prob2_simplified: SdpProblem) -> IntervalBoundVerdict:
    """Confirm that the reduced problem-2 pencil peaks exactly at 5*sqrt5 - 11.

    Exact checks: PSD at the claimed value, not PSD at the claimed value plus
    1/1000, 1/100 and 1/10, and PSD at 0 and at half the claimed value.  For
    a one-variable pencil the feasible parameter set is an interval, so PSD
    at the value plus failure everywhere sampled above it pins the endpoint.
    """
    var = _single_variable(prob2_simplified)
    mu_star = MU2_STAR

    def check_at(mu) -> PsdCheck:
        return psd_check_exact(pencil_eval(prob2_simplified.pencil, {var: mu}))

    if not check_at(mu_star).is_psd:
        return IntervalBoundVerdict(False, None, "pencil is not PSD at the claimed value")
    for delta in (Fraction(1, 1000), Fraction(1, 100), Fraction(1, 10)):
        if check_at(mu_star + quad(delta)).is_psd:
            return IntervalBoundVerdict(
                False, None, f"pencil stays PSD at claimed value + {delta}"
            )
    for below in (quad(0), mu_star / 2):
        if not check_at(below).is_psd:
            return IntervalBoundVerdict(
                False, None, f"pencil is not PSD at {format_scalar(below)}"
            )
    return IntervalBoundVerdict(True, mu_star, "exact PSD up to the value, exact failure above")


@dataclass(frozen=True)
class FormulaVerdict:
    confirmed: bool
    detail: str

    def as_dict(self) -> dict:
        return {
            "claim": "closed-form eigenvalue branch matches the reduced pencil",
            "verdict": "Confirmed" if self.confirmed else "Failed",
            "detail": self.detail,
        }


def eigenvalue_branch_coefficients(mu) -> tuple[QuadExt, QuadExt]:
    """A(mu) and B(mu) of the closed-form branch lambda = (A - sqrt(B))/76."""
    mu = as_quad(mu)
    A = quad(-17, 4) * mu + quad(36, -4)
    B = quad(1201, 160) * mu * mu + quad(1360, -16) * mu + quad(688, -144)
    return A, B


def check_eigenvalue_formula(prob2_simplified: SdpProblem) -> FormulaVerdict:
    """Sample-check the closed-form minimum-eigenvalue branch numerically.

    At each sample the root lambda = (A - sqrt(B))/76 of the quadratic
    5776 l^2 - 152 A l + A^2 - B must coincide with an eigenvalue of the
    pencil to 1e-10; the branch vanishes at 5*sqrt5 - 11 and goes negative
    above it.
    """
    var = _single_variable(prob2_simplified)
    samples = [quad(0), quad(Fraction(1, 10)), MU2_STAR, quad(Fraction(1, 4))]
    details = []
    for mu in samples:
        A, B = eigenvalue_branch_coefficients(mu)
        if qsign(B) < 0:
            return FormulaVerdict(False, f"discriminant negative at mu = {format_scalar(mu)}")
        lam = (float(A) - math.sqrt(float(B))) / 76.0
        M = to_float(pencil_eval(prob2_simplified.pencil, {var: mu}))
        eigs = np.linalg.eigvalsh(M)
        dist = float(np.min(np.abs(eigs - lam)))
        if dist > 1e-10:
            return FormulaVerdict(
                False,
                f"branch value {lam:.12g} at mu = {format_scalar(mu)} is "
                f"{dist:.2e} away from the spectrum",
            )
        details.append(f"mu = {format_scalar(mu)}: branch {lam:.12g} in spectrum")
        if mu == MU2_STAR and abs(lam) > 1e-10:
            return FormulaVerdict(False, "branch does not vanish at the optimum")
        if mu == quad(Fraction(1, 4)) and lam >= 0:
            return FormulaVerdict(False, "branch is not negative above the optimum")
    return FormulaVerdict(True, "; ".join(details))
