"""Exact analytical verification of optima for pencil-form SDPs.

Primal feasibility is decided by exact PSD elimination; upper bounds come
from weak duality: a PSD matrix X with <F_i, X> = -s b_i for every variable
and one scale s > 0 proves <b, y> <= <F0, X>/s for every feasible y, since
0 <= <pencil(y), X> = <F0, X> - s <b, y>.  Every dual matrix, a bound
certificate here or a reducing certificate in `facial`, is read by one
check, `check_dual_matrix`; each caller judges the pairing.

`facial.certify_optimum` rounds the point and X from a solve: none is stored.
`check_eigenvalue_formula` checks the paper's closed form for problem 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bell import MU2_STAR
from .exactnum import (
    NonSymmetricError,
    QuadExt,
    as_quad,
    format_scalar,
    frob_inner,  # noqa: F401  (perfbench/spans.py times it here)
    psd_check_exact,
    qsign,
    quad,
    split,
    to_float,
)
from .model import SdpProblem, pencil_eval, pencil_pairing


class WrongShapeError(ValueError):
    pass


@dataclass(frozen=True)
class PrimalVerdict:
    feasible: bool
    witness: tuple | None = None

    def as_dict(self) -> dict:
        out = {"claim": "primal point is feasible", "verdict": "Feasible" if self.feasible else "Infeasible"}
        if self.witness is not None:
            out["witness"] = [format_scalar(x) for x in self.witness]
        return out


def verify_primal_point(prob: SdpProblem, assignment) -> PrimalVerdict:
    """Exact feasibility decision of the pencil at an exact assignment
    (MissingVariableError, from `pencil_eval`, when a variable has none)."""
    check = psd_check_exact(pencil_eval(prob.pencil, assignment))
    return PrimalVerdict(feasible=check.is_psd, witness=check.witness)


def check_dual_matrix(prob: SdpProblem, X) -> tuple:
    """(X's split, problems, pairing) of X, an exact matrix or its split,
    against an exact problem's pencil.

    X is split once.  A non-exact entry, a wrong shape or an asymmetric X is
    the one problem, with split and pairing None.  Otherwise one exact
    elimination decides X >= 0 (a failure is the problem) and the pairing is
    (<F0, X>, <F_1, X>, ..., <F_m, X>), for the caller to judge.
    """
    try:
        S = split(X)
    except TypeError:
        return None, ["X has a non-exact entry"], None
    try:
        pairing = pencil_pairing(prob.pencil, S)
    except ValueError as exc:  # X is not n x n, or the pencil is not exact
        return None, [str(exc)], None
    try:
        check = psd_check_exact(S)
    except NonSymmetricError:
        return None, ["X is not symmetric"], None
    problems = [] if check.is_psd else [f"X is not PSD (elimination step {check.bad_index})"]
    return S, problems, pairing


@dataclass(frozen=True)
class BoundCertificate:
    """Weak-duality upper bound on the whole objective, exact."""

    X: np.ndarray
    scale: QuadExt  # s > 0 with <F_i, X> = -s b_i for every i
    certified_bound: QuadExt

    def as_dict(self) -> dict:
        return {
            "claim": "objective is bounded above",
            "verdict": "Valid",
            "certified_bound": format_scalar(self.certified_bound),
            "scale": format_scalar(self.scale),
        }


@dataclass(frozen=True)
class InvalidCertificate:
    violations: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "claim": "objective is bounded above",
            "verdict": "Invalid",
            "violations": list(self.violations),
        }


def verify_bound_certificate(prob: SdpProblem, X) -> BoundCertificate | InvalidCertificate:
    """Exactly check X, an exact matrix or its split, as a weak-duality
    certificate for maximize <b, y> + objective_offset.

    Requires X >= 0 (`check_dual_matrix`) and <F_i, X> = -s b_i for every
    variable with one scale s > 0, read off the first nonzero b_i; then
    every feasible y has 0 <= <F(y), X> = <F0, X> - s <b, y>, so the
    objective is at most <F0, X>/s + objective_offset.  All violated
    conditions are reported (Invalid is a value, not an error).
    """
    S, violations, pairing = check_dual_matrix(prob, X)  # an inexact pencil is a problem
    if pairing is None:
        return InvalidCertificate(tuple(violations))
    b = [as_quad(c) for c in prob.objective]
    lead = next((k for k, c in enumerate(b) if bool(c)), None)
    if lead is None:
        return InvalidCertificate(("the objective has no variable term",))
    f0_inner, *inner = pairing
    scale = -inner[lead] / b[lead]
    if qsign(scale) <= 0:
        name = prob.var_names[lead]
        violations.append(
            f"scale s = -<F_{name}, X>/b_{name} = {format_scalar(scale)} is not positive"
        )
    for name, ip, bi in zip(prob.var_names, inner, b):
        if ip != -scale * bi:
            violations.append(
                f"<F_{name}, X> = {format_scalar(ip)} != -s*b_{name} = {format_scalar(-scale * bi)}"
            )
    if violations:
        return InvalidCertificate(tuple(violations))
    bound = f0_inner / scale + as_quad(prob.objective_offset)
    return BoundCertificate(X=S.join(), scale=scale, certified_bound=bound)


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
    names = prob2_simplified.var_names
    if len(names) != 1:
        raise WrongShapeError(f"expected a one-variable pencil, got {len(names)} variables")
    (var,) = names
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
