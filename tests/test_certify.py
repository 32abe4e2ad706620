"""Exact certification: feasibility, weak-duality bounds of both problems."""

from fractions import Fraction

import numpy as np
import pytest

from strictfeas.bell import (
    problem1_bound_matrix,
    problem1_optimal_point,
    problem1_simplified,
    problem2_bound_matrix,
    problem2_optimal_point,
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
    format_scalar,
    kernel_basis_exact,
    psd_check_exact,
    qeye,
    qsign,
    quad,
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

from helpers import mat_vec, quadratic_form, reference_frob_inner


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
        cert = verify_bound_certificate(
            problem1_simplified(), problem1_bound_matrix(), "mu"
        )
        assert isinstance(cert, BoundCertificate)
        assert cert.certified_bound == quad(0)
        assert cert.normalization == quad(-1)

    def test_zero_matrix_invalid(self):
        out = verify_bound_certificate(problem1_simplified(), qzeros(9), "mu")
        assert isinstance(out, InvalidCertificate)
        assert any("normalization" in v for v in out.violations)

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
        out = verify_bound_certificate(problem1_simplified(), X, "mu")
        assert out == InvalidCertificate((violation,))

    def test_perturbed_certificate_recomputed_exactly(self):
        # adding 1 at entry (1,1) keeps all orthogonality conditions (no term
        # touches that entry) and shifts the bound to exactly 1
        X = np.array(problem1_bound_matrix(), dtype=object)
        X[0, 0] = X[0, 0] + quad(1)
        out = verify_bound_certificate(problem1_simplified(), X, "mu")
        assert isinstance(out, BoundCertificate)
        assert out.certified_bound == quad(1)

    def test_weak_duality_soundness(self):
        # every exactly-verified feasible point obeys the certified bound
        prob = problem1_simplified()
        cert = verify_bound_certificate(prob, problem1_bound_matrix(), "mu")
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
        # the stacked product reports what one <F_i, X> at a time reports
        prob = problem1_simplified()
        rng = np.random.default_rng(5)
        S = rng.integers(-3, 4, size=(9, 9))
        for X in (S + S.T, S @ S.T, -np.eye(9, dtype=int)):
            X = np.array(X.tolist(), dtype=object) * quad(1)
            out = verify_bound_certificate(prob, X, "mu")
            check = psd_check_exact(X)
            want = [] if check else [f"X is not PSD (elimination step {check.bad_index})"]
            for name, term in zip(prob.var_names, prob.pencil.terms):
                ip = reference_frob_inner(term, X)
                if name == "mu" and qsign(ip) >= 0:
                    want.append(f"normalization <F_mu, X> = {format_scalar(ip)} is not negative")
                elif name != "mu" and bool(ip):
                    want.append(f"<F_{name}, X> = {format_scalar(ip)} != 0")
            assert isinstance(out, InvalidCertificate)
            assert list(out.violations) == want
            assert len(want) >= 2

    def test_dict_round(self):
        cert = verify_bound_certificate(
            problem1_simplified(), problem1_bound_matrix(), "mu"
        )
        doc = cert.as_dict()
        assert doc["verdict"] == "Valid"
        assert doc["certified_bound"] == "0"


class TestProblem2Bound:
    def test_problem2_bound_is_mu_star(self):
        cert = verify_bound_certificate(problem2_simplified(), problem2_bound_matrix(), "mu")
        assert isinstance(cert, BoundCertificate)
        assert cert.certified_bound == MU2_STAR
        assert cert.normalization == -quad(Fraction(100, 19), Fraction(48, 19))
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
        # its bound is -<2I, X>/<F_mu, X> = -2 tr(X)/<F_mu, X>, not mu*
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
        cert = verify_bound_certificate(fat, X, "mu")
        assert isinstance(cert, BoundCertificate)
        want = -2 * sum(X[i, i] for i in range(9)) / cert.normalization
        assert cert.certified_bound == want
        assert qsign(cert.certified_bound - MU2_STAR) > 0


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
