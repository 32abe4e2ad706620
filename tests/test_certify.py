"""Exact certification: feasibility, weak-duality bounds, and optima proved
from a numeric solve."""

import importlib
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from strictfeas.bell import (
    chsh_toy_pencil,
    chsh_toy_simplified,
    problem1_simplified,
    problem2_simplified,
)
from strictfeas.certify import (
    MU2_STAR,
    BoundCertificate,
    InvalidCertificate,
    WrongShapeError,
    check_eigenvalue_formula,
    eigenvalue_branch_coefficients,
    verify_bound_certificate,
    verify_primal_point,
)
from strictfeas.exactnum import (
    as_quad,
    format_scalar,
    kernel_basis_exact,
    psd_check_exact,
    qsign,
    quad,
    qarray,
    qzeros,
    to_float,
)
from strictfeas.model import (
    MatrixPencil,
    MissingVariableError,
    SdpProblem,
    pencil_eval,
    to_double,
)

from strictfeas.facial import RoundingFailedError, certify_optimum, reduce_problem
from strictfeas.solver import solve_sdp

from helpers import (
    interior_problem,
    mat_vec,
    pinned_objective_problem,
    pinned_offset_problem,
    planted_chain_problem,
    problem1_bound_matrix,
    problem1_optimal_point,
    problem2_bound_matrix,
    problem2_optimal_point,
    qeye,
    quadratic_form,
    reference_frob_inner,
)


class TestPrimalPoint:
    def test_problem1_point_feasible(self):
        verdict = verify_primal_point(problem1_simplified(), problem1_optimal_point())
        assert verdict.feasible

    def test_problem2_feasible_at_mu_star(self):
        point = problem2_optimal_point()
        assert point == {"mu": MU2_STAR}
        assert verify_primal_point(problem2_simplified(), point).feasible

    def test_problem2_feasible_at_zero(self):
        verdict = verify_primal_point(problem2_simplified(), {"mu": 0})
        assert verdict.feasible

    def test_problem2_infeasible_above_mu_star(self):
        prob = problem2_simplified()
        verdict = verify_primal_point(prob, {"mu": MU2_STAR + quad(Fraction(1, 100))})
        assert not verdict.feasible
        M = pencil_eval(prob.pencil, {"mu": MU2_STAR + quad(Fraction(1, 100))})
        assert qsign(quadratic_form(M, verdict.witness)) < 0

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            verify_primal_point(problem1_simplified(), {"mu": 0})

    def test_feasible_points_also_pass_numerically(self):
        # exact Feasible downcasts to a matrix with tiny-negative-at-worst spectrum
        prob = to_double(problem1_simplified())
        M = pencil_eval(
            prob.pencil, {k: float(v) for k, v in problem1_optimal_point().items()}
        )
        assert np.linalg.eigvalsh(M)[0] >= -1e-9


class TestBoundCertificate:
    def test_problem1_bound_is_zero(self):
        cert = verify_bound_certificate(problem1_simplified(), problem1_bound_matrix())
        assert isinstance(cert, BoundCertificate)
        assert cert.certified_bound == quad(0)
        assert cert.scale == quad(1)

    def test_zero_matrix_invalid(self):
        out = verify_bound_certificate(problem1_simplified(), qzeros(9))
        assert out == InvalidCertificate(
            ("scale s = -<F_mu, X>/b_mu = 0 is not positive",)
        )

    @pytest.mark.parametrize(
        "X, violation",
        [
            (problem1_bound_matrix()[:3, :3], "X has shape (3, 3), expected (9, 9)"),
            (problem1_bound_matrix()[0], "X has shape (9,), expected (9, 9)"),
            (np.triu(problem1_bound_matrix()), "X is not symmetric"),
            (np.eye(9), "X has a non-exact entry"),
        ],
        ids=["3x3", "vector", "upper-triangle", "float"],
    )
    def test_malformed_matrix_is_an_invalid_value(self, X, violation):
        out = verify_bound_certificate(problem1_simplified(), X)
        assert out == InvalidCertificate((violation,))

    def test_perturbed_certificate_recomputed_exactly(self):
        # adding 1 at entry (1,1) keeps all orthogonality conditions (no term
        # touches that entry) and shifts the bound to exactly 1
        X = np.array(problem1_bound_matrix(), dtype=object)
        X[0, 0] = X[0, 0] + quad(1)
        out = verify_bound_certificate(problem1_simplified(), X)
        assert isinstance(out, BoundCertificate)
        assert out.certified_bound == quad(1)

    def test_weak_duality_soundness(self):
        # every exactly-verified feasible point obeys the certified bound
        prob = problem1_simplified()
        cert = verify_bound_certificate(prob, problem1_bound_matrix())
        candidates = [
            problem1_optimal_point(),
            {**problem1_optimal_point(), "mu": quad(Fraction(-1, 10))},
        ]
        checked = 0
        for point in candidates:
            if verify_primal_point(prob, point).feasible:
                assert qsign(cert.certified_bound - point["mu"]) >= 0
                checked += 1
        assert checked >= 1

    def test_every_violation_in_pencil_order(self):
        # the stacked product reports what one <F_i, X> at a time reports:
        # the scale s = -<F_mu, X> is read off mu, the only objective term
        prob = problem1_simplified()
        rng = np.random.default_rng(5)
        S = rng.integers(-3, 4, size=(9, 9))
        for X in (S + S.T, S @ S.T, -np.eye(9, dtype=int)):
            X = np.array(X.tolist(), dtype=object) * quad(1)
            out = verify_bound_certificate(prob, X)
            check = psd_check_exact(X)
            want = [] if check else [f"X is not PSD (elimination step {check.bad_index})"]
            inner = [reference_frob_inner(term, X) for term in prob.pencil.terms]
            scale = -inner[0]
            if qsign(scale) <= 0:
                want.append(f"scale s = -<F_mu, X>/b_mu = {format_scalar(scale)} is not positive")
            for name, ip, b in zip(prob.var_names, inner, prob.objective):
                if ip != -scale * b:
                    want.append(
                        f"<F_{name}, X> = {format_scalar(ip)} != "
                        f"-s*b_{name} = {format_scalar(-scale * b)}"
                    )
            assert isinstance(out, InvalidCertificate)
            assert list(out.violations) == want
            assert len(want) >= 2

    def test_dict_round(self):
        cert = verify_bound_certificate(problem1_simplified(), problem1_bound_matrix())
        assert cert.as_dict() == {
            "claim": "objective is bounded above",
            "verdict": "Valid",
            "certified_bound": "0",
            "scale": "1",
        }


class TestProblem2Bound:
    def test_problem2_bound_is_mu_star(self):
        cert = verify_bound_certificate(problem2_simplified(), problem2_bound_matrix())
        assert isinstance(cert, BoundCertificate)
        assert cert.certified_bound == MU2_STAR
        assert cert.scale == quad(Fraction(100, 19), Fraction(48, 19))
        assert cert.as_dict()["certified_bound"] == "-11+5*sqrt5"

    def test_bound_vector_in_exact_kernel(self):
        # X = v v^T with F(mu*) v = 0, cross-checked by the numeric
        # eigensolver finding a near-zero value
        prob = problem2_simplified()
        M = pencil_eval(prob.pencil, {"mu": MU2_STAR})
        X = problem2_bound_matrix()
        v = X[1] / X[1, 1]  # v_1 = 1 + sqrt5 is nonzero
        assert all(X[i, j] == X[1, i] * X[1, j] / X[1, 1] for i in range(9) for j in range(9))
        kernel = kernel_basis_exact(M)
        assert len(kernel) >= 1
        for w in (v, *kernel):
            assert all(not bool(x) for x in mat_vec(M, w))
        assert min(abs(np.linalg.eigvalsh(to_float(M)))) < 1e-12

    def test_fat_pencil_certifies_another_bound(self):
        # with 2*I for the constant term the same matrix still certifies, but
        # its bound is <2I, X>/s = 2 tr(X)/s, not mu*
        base = problem2_simplified()
        pencil = MatrixPencil(
            n=9,
            scalar="exact",
            f0=qeye(9) + qeye(9),
            var_names=base.pencil.var_names,
            terms=base.pencil.terms,
        )
        fat = SdpProblem(pencil=pencil, objective=base.objective, name="fat")
        X = problem2_bound_matrix()
        cert = verify_bound_certificate(fat, X)
        assert isinstance(cert, BoundCertificate)
        want = 2 * sum(X[i, i] for i in range(9)) / cert.scale
        assert cert.certified_bound == want
        assert qsign(cert.certified_bound - MU2_STAR) > 0


def toy_bound_matrix():
    """A bound certificate for the raw toy's five-term objective with s = 1:
    <F_i, X> = -b_i for every variable, and the bound is <F0, X> = X00 = 1."""
    h = Fraction(1, 2)
    return qarray(
        [
            [1, 0, -h, 0, 0],
            [0, 1, 0, -h, -h],
            [-h, 0, 1, -h, h],
            [0, -h, -h, 1, 0],
            [0, -h, h, 0, 1],
        ]
    )


class TestWholeObjective:
    """The bound certificate judges every objective term and the offset."""

    def test_five_term_objective(self):
        out = verify_bound_certificate(chsh_toy_pencil(), toy_bound_matrix())
        assert isinstance(out, BoundCertificate)
        assert (out.scale, out.certified_bound) == (quad(1), quad(1))

    def test_scaled_certificate_gives_the_same_bound(self):
        out = verify_bound_certificate(chsh_toy_pencil(), toy_bound_matrix() * 2)
        assert (out.scale, out.certified_bound) == (quad(2), quad(1))

    def test_offset_is_added(self):
        prob = replace(chsh_toy_pencil(), objective_offset=quad(3))
        assert verify_bound_certificate(prob, toy_bound_matrix()).certified_bound == quad(4)

    def test_nonpositive_scale_is_invalid(self):
        X = qzeros(5)
        X[0, 0] = X[1, 1] = quad(1)
        X[0, 1] = X[1, 0] = quad(-1)
        out = verify_bound_certificate(chsh_toy_pencil(), X)
        assert out == InvalidCertificate(
            (
                "scale s = -<F_pA0, X>/b_pA0 = -1 is not positive",
                "<F_p00, X> = 0 != -s*b_p00 = 1",
                "<F_p01, X> = 0 != -s*b_p01 = 1",
                "<F_p10, X> = 0 != -s*b_p10 = 1",
                "<F_p11, X> = 0 != -s*b_p11 = -1",
            )
        )

    def test_pairing_off_the_objective_is_invalid(self):
        X = toy_bound_matrix()
        X[3, 4] = X[4, 3] = quad(Fraction(1, 4))
        assert psd_check_exact(X).is_psd
        out = verify_bound_certificate(chsh_toy_pencil(), X)
        assert out == InvalidCertificate(("<F_b01, X> = 1/2 != -s*b_b01 = 0",))

    def test_inexact_problem_is_invalid(self):
        out = verify_bound_certificate(to_double(chsh_toy_pencil()), toy_bound_matrix())
        assert out == InvalidCertificate(("only an exact pencil has an integer split",))

    def test_objective_without_a_variable_term(self):
        # a constant objective is its offset: scale 1, and X must be
        # orthogonal to every F_i, which the toy's own bound matrix is not
        prob = replace(chsh_toy_pencil(), objective=(quad(0),) * 8, objective_offset=quad(3))
        out = verify_bound_certificate(prob, toy_bound_matrix())
        assert out == InvalidCertificate(
            (
                "<F_pA0, X> = 1 != -s*b_pA0 = 0",
                "<F_p00, X> = -1 != -s*b_p00 = 0",
                "<F_p01, X> = -1 != -s*b_p01 = 0",
                "<F_p10, X> = -1 != -s*b_p10 = 0",
                "<F_p11, X> = 1 != -s*b_p11 = 0",
            )
        )
        cert = verify_bound_certificate(prob, qzeros(5))
        assert cert.scale == quad(1)
        assert cert.certified_bound == quad(3)


def objective_at(prob, point):
    total = as_quad(prob.objective_offset)
    for v, b in zip(prob.var_names, prob.objective):
        total = total + b * point[v]
    return total


def certified(prob):
    """`certify_optimum` on the problem's own numeric solve, each part
    re-checked by the public verifiers."""
    point, feasible, bound = certify_optimum(prob, solve_sdp(to_double(prob)))
    assert feasible.feasible and verify_primal_point(prob, point).feasible
    again = verify_bound_certificate(prob, bound.X)
    assert (again.scale, again.certified_bound) == (bound.scale, bound.certified_bound)
    # zero gap: the point attains the bound
    assert objective_at(prob, point) == bound.certified_bound
    return point, bound


class TestCertifyOptimum:
    @pytest.mark.parametrize(
        "build, optimum",
        [
            (problem1_simplified, quad(0)),
            (problem2_simplified, MU2_STAR),
            (chsh_toy_simplified, quad(0)),
        ],
        ids=["problem1", "problem2", "toy"],
    )
    def test_bundled_optima(self, build, optimum):
        _, bound = certified(build())
        assert bound.certified_bound == optimum

    def test_problem1_point_is_the_reference_point(self):
        point, _ = certified(problem1_simplified())
        assert point == problem1_optimal_point()

    @pytest.mark.parametrize("seed", [778, 779])
    def test_interior_optima_at_every_rank(self, seed):
        rng = np.random.default_rng(seed)
        for rank in range(1, 9):
            prob, optimum = interior_problem(rng, 9, 8, rank)
            _, bound = certified(prob)
            assert bound.certified_bound == quad(optimum)

    def test_reduced_problem_keeps_its_offset(self):
        reduced, _, _ = reduce_problem(pinned_offset_problem())
        assert reduced.objective_offset == quad(1)
        _, bound = certified(reduced)
        assert bound.certified_bound == quad(2)

    def test_reduced_constant_objective(self):
        # reduction fixes the objective's only variable: the objective is
        # the constant 1/2 in objective_offset
        reduced, _, _ = reduce_problem(pinned_objective_problem())
        assert not any(bool(c) for c in reduced.objective)
        _, bound = certified(reduced)
        assert bound.scale == quad(1)
        assert bound.certified_bound == quad("1/2")

    def test_reduced_planted_chain(self):
        reduced, rounds, _ = reduce_problem(planted_chain_problem())
        assert len(rounds) == 2
        _, bound = certified(reduced)
        assert bound.certified_bound == quad(1)

    def test_restricted_planted_finals(self, monkeypatch):
        # a restricted planted final is fully parametrized, so its X is
        # pinned; from the least-squares start every solve still rounds to
        # an exact proof (46 of 64 on seeds 778 and 840 from the identity
        # start).  maximize -s2_2 over I + S >= 0 has optimum 1
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        problems = workloads.build_inputs("planted-reduce", 778)
        assert len(problems) == 32
        for prob in problems:
            final, _, _ = reduce_problem(prob)
            _, bound = certified(final)
            assert bound.certified_bound == quad(1), prob.name

    def test_infeasible_point_never_certifies(self):
        prob = problem2_simplified()
        res = solve_sdp(to_double(prob))
        with pytest.raises(RoundingFailedError, match="F\\(y\\) is not exactly PSD"):
            certify_optimum(prob, replace(res, y={"mu": 0.25}))


class TestEigenvalueFormula:
    def test_confirmed(self):
        assert check_eigenvalue_formula(problem2_simplified()).confirmed

    def test_branch_vanishes_exactly_at_optimum(self):
        A, B = eigenvalue_branch_coefficients(MU2_STAR)
        assert B == A * A  # (A - sqrt(B))/76 = 0 exactly
        assert qsign(A) > 0

    def test_branch_positive_at_zero_negative_above(self):
        import math

        A0, B0 = eigenvalue_branch_coefficients(quad(0))
        assert (float(A0) - math.sqrt(float(B0))) / 76 > 0
        A4, B4 = eigenvalue_branch_coefficients(quad(Fraction(1, 4)))
        assert (float(A4) - math.sqrt(float(B4))) / 76 < 0

    def test_wrong_shape(self):
        with pytest.raises(WrongShapeError):
            check_eigenvalue_formula(problem1_simplified())
