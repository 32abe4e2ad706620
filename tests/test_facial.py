"""Diagnosis, certificate extraction, constraint derivation, substitution."""

import hashlib
import importlib
import json
import math
import random
import re
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictfeas.bell import (
    almost_quantum_pencil,
    chsh_toy_pencil,
    chsh_toy_simplified,
    line1,
    line1_expected_relations,
    line1_null_vectors,
    line2,
    line2_expected_relations,
    line2_null_vectors,
    problem1_simplified,
    problem2_simplified,
    toy_expected_relations,
    toy_null_vectors,
)
from strictfeas.exactnum import (
    QSplit,
    QuadExt,
    as_quad,
    kernel_basis_exact,
    nullspace_exact,
    primitive_rows,
    qarray,
    quad,
    qzeros,
    reconstruct_quadext,
    reconstruct_rational,
    row_space_basis_exact,
    rref_exact,
    split,
    to_float,
)
from strictfeas import certify, cli, exactnum, facial, model, solver
from strictfeas.facial import (
    AffineExpr,
    ImplicitConstraintSet,
    InconsistentConstraintsError,
    ReducingCertificate,
    ReductionError,
    RoundingFailedError,
    SolverFailedError,
    ROUNDING_LADDER,
    StrictlyFeasible,
    _affine_solve_exact,
    _chart_matrices,
    _face_split_certificate,
    _round_face,
    _snap,
    _symmetric_split,
    _upper_functionals,
    apply_constraints,
    build_alternative_problem,
    derive_implicit_constraints,
    find_reducing_certificate,
    lift_assignment,
    reduce_problem,
    verify_certificate_matrix,
)
from strictfeas.model import MatrixPencil, SdpProblem, pencil_eval, problem_to_json_str

from helpers import (
    assert_witness_proves,
    mat_vec,
    PLANTED_U,
    golden_face_problem,
    interior_problem,
    planted_chain,
    planted_chain_problem,
    pinned_objective_problem,
    problem1_optimal_point,
    reference_apply_constraints,
    reference_chart_margin_problem,
    reference_chart_matrices,
    reference_constraint_rows,
    reference_qmatmul,
    reference_split_matmul,
    reduction_digest,
    slice_margin_problem,
    span_margin_problem,
)


def span_canonical(vectors):
    """Canonical RREF matrix of the span; equal spans give equal canons."""
    M = np.array([[as_quad(x) for x in v] for v in vectors], dtype=object)
    R, pivots = rref_exact(M)
    rows = sorted(pivots.values())
    return tuple(tuple(R[r]) for r in rows)


def assert_same_span(got, want):
    assert span_canonical(got) == span_canonical(want)


def primitive_range(X):
    """The rows of X's reduced row echelon basis, each rescaled to a primitive
    integer vector with a positive leading entry (`primitive_rows`)."""
    return list(primitive_rows(split(row_space_basis_exact(X)), positive_lead=True).join())


def relations_as_dict(cons):
    return {
        v: (e.const, dict(e.coeffs)) for v, e in cons.eliminated
    }


def expected_as_dict(raw):
    return {v: (c, dict(co)) for v, (c, co) in raw.items()}


def identity_pencil_problem():
    # strictly feasible: the pencil at y = 0 is the identity
    pencil = MatrixPencil.from_upper(
        2, "exact", [(0, 0, 1), (1, 1, 1)], [("y", [(0, 0, 1), (1, 1, -1)])]
    )
    return SdpProblem(pencil=pencil, objective=(quad(1),), name="identity-pencil")


class TestAlternativeProblem:
    def test_toy_alternative_contains_basis_solutions(self):
        toy = chsh_toy_pencil()
        for idx in (3, 4):
            X = qzeros(5)
            X[idx, idx] = quad(1)
            assert verify_certificate_matrix(toy, X) == []

    def test_traceless_slice_has_no_margin_problem(self):
        assert build_alternative_problem(identity_pencil_problem()) is None

    def test_problem1_margin_objective_is_the_slack_margin(self):
        # at every point q of the margin problem, S(q) = mu I + Y with Y in
        # the pencil's span, and its objective is -mu; a trace-one X
        # orthogonal to the pencil reads mu = <S(q), X> whatever q is
        prob = almost_quantum_pencil(line1())
        v1, v2 = line1_null_vectors()
        X = qzeros(9)
        for v, w in ((v1, quad(Fraction(1, 8))), (v2, quad(Fraction(1, 4)))):
            for i in range(9):
                for j in range(9):
                    X[i, j] = X[i, j] + w * v[i] * v[j]
        assert verify_certificate_matrix(prob, X) == []
        Xf = to_float(split(X))
        Xf /= np.trace(Xf)
        alt = build_alternative_problem(prob)
        n = prob.pencil.n
        assert alt.pencil.m > 1
        assert np.array_equal(alt.pencil.f0, np.eye(n) / n)
        assert alt.objective_offset == -1.0 / n
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = rng.standard_normal(alt.pencil.m)
            S = pencil_eval(alt.pencil, dict(zip(alt.var_names, q)))
            mu = -(alt.objective_offset + np.dot(alt.objective, q))
            assert np.sum(S * Xf) == pytest.approx(mu, abs=1e-12 * (1 + np.abs(q).sum()))

    def test_margin_problem_is_the_search_chart(self):
        # the terms -Q_k are an orthonormal trace-free basis of the pencil's
        # span projected off I: orthogonal to every direction of the float
        # chart of the trace-one orthogonal slice, and together with it they
        # fill the trace-free matrices; the chart's origin X0 meets the
        # margin problem's equality constraints <Q_k, X> = b_k
        prob = almost_quantum_pencil(line2())
        alt = build_alternative_problem(prob)
        ref = reference_chart_margin_problem(prob)
        n = prob.pencil.n
        X0, B = ref.pencil.f0, ref.pencil.terms[:-1]
        Q = -np.array(alt.pencil.terms)
        assert alt.pencil.scalar == "double"
        assert alt.name == f"{prob.name}-alternative-margin"
        assert alt.var_names == tuple(f"q{k+1}" for k in range(len(Q)))
        assert np.array_equal(alt.pencil.f0, np.eye(n) / n)
        assert alt.objective_offset == -1.0 / n
        gram = np.tensordot(Q, Q, axes=([1, 2], [1, 2]))
        assert np.abs(gram - np.eye(len(Q))).max() < 1e-12
        assert np.abs(np.trace(Q, axis1=1, axis2=2)).max() < 1e-12
        assert np.abs(np.tensordot(Q, np.array(B), axes=([1, 2], [1, 2]))).max() < 1e-12
        assert len(Q) + len(B) == n * (n + 1) // 2 - 1
        assert np.tensordot(Q, X0, axes=2) == pytest.approx(alt.objective, abs=1e-12)

    @pytest.mark.parametrize(
        "make",
        [lambda: almost_quantum_pencil(line2()), planted_chain_problem, chsh_toy_pencil],
        ids=["line2", "chain", "toy"],
    )
    def test_the_search_solves_the_margin_problem(self, make, monkeypatch):
        # the span form with its objective cut, or the slice form uncut
        prob = make()
        solved = []
        solve = facial.solve_sdp

        def spy(problem, *, stop_above=None):
            solved.append((problem, stop_above))
            return solve(problem, stop_above=stop_above)

        monkeypatch.setattr(facial, "solve_sdp", spy)
        find_reducing_certificate(prob)
        want = build_alternative_problem(prob)
        ((got, stop_above),) = solved
        assert stop_above == (None if _on_slice(want) else facial.FEAS_CUT)
        assert got.name == want.name
        assert got.var_names == want.var_names
        assert got.objective == want.objective
        assert got.pencil.scalar == want.pencil.scalar
        assert np.array_equal(got.pencil.f0, want.pencil.f0)
        assert len(got.pencil.terms) == len(want.pencil.terms)
        assert all(np.array_equal(a, b) for a, b in zip(got.pencil.terms, want.pencil.terms))


def _on_slice(alt: SdpProblem) -> bool:
    """Whether a margin problem is posed on the slice side."""
    return alt.var_names[-1:] == ("slack_margin",)


class TestMarginForm:
    """The search poses its margin SDP on the side with fewer variables:
    the slice of L's complement when N - r < r, for N = n(n+1)/2 and
    r = dim L, and otherwise, a tie included, the span L."""

    @staticmethod
    def _sides(prob):
        p = prob.pencil
        r = len(facial._span_svd(p)[1])
        return p.n * (p.n + 1) // 2 - r, r

    def _assert_side(self, prob, on_slice):
        alt = build_alternative_problem(prob)
        free, r = self._sides(prob)
        assert (free < r) is on_slice, (prob.name, free, r)
        assert _on_slice(alt) is on_slice, prob.name
        assert len(alt.var_names) == (free if on_slice else r), prob.name
        assert alt.name == f"{prob.name}-alternative-margin"

    def test_bell_lines_and_interior_diagnose_take_the_span(self, monkeypatch):
        for line in (line1, line2):
            self._assert_side(almost_quantum_pencil(line()), False)
        for case in _benchmark_inputs(monkeypatch, "interior-diagnose", 840):
            assert self._sides(case.problem) == (36, 9)
            self._assert_side(case.problem, False)

    def test_planted_rounds_take_the_slice(self, monkeypatch):
        searches = 0
        for prob in _benchmark_inputs(monkeypatch, "planted-reduce", 840):
            _, rounds, _ = reduce_problem(prob)
            assert len(rounds) == 2
            for search in (prob, rounds[0].problem):
                self._assert_side(search, True)
                searches += 1
        assert searches == 64

    def test_the_toy_takes_the_slice(self):
        assert self._sides(chsh_toy_pencil()) == (6, 9)
        self._assert_side(chsh_toy_pencil(), True)

    @pytest.mark.parametrize(
        "make",
        [planted_chain_problem, lambda: _near_identity_span(Fraction(1, 100))],
        ids=["chain", "near-identity"],
    )
    def test_a_tie_takes_the_span(self, make):
        prob = make()
        assert self._sides(prob) == (3, 3)
        self._assert_side(prob, False)


class TestFindCertificate:
    def test_problem1_span(self):
        cert = find_reducing_certificate(almost_quantum_pencil(line1()))
        assert isinstance(cert, ReducingCertificate)
        assert_same_span(cert.range_vectors, line1_null_vectors())
        # each range vector lies in range(X) = ker(X)^perp, exactly
        for v in cert.range_vectors:
            for k in kernel_basis_exact(cert.X):
                dot = sum((as_quad(a) * as_quad(b) for a, b in zip(v, k)), quad(0))
                assert not bool(dot)

    def test_problem2_span(self):
        cert = find_reducing_certificate(almost_quantum_pencil(line2()))
        assert isinstance(cert, ReducingCertificate)
        assert_same_span(cert.range_vectors, line2_null_vectors())

    def test_toy_span(self):
        cert = find_reducing_certificate(chsh_toy_pencil())
        assert_same_span(cert.range_vectors, toy_null_vectors())

    def test_strictly_feasible_identity_pencil(self):
        out = find_reducing_certificate(identity_pencil_problem())
        assert isinstance(out, StrictlyFeasible)
        assert out.exact

    def test_empty_slice_is_exact_verdict(self):
        # no nonzero symmetric 2x2 matrix is orthogonal to I, diag(1, -1)
        # and the off-diagonal unit
        pencil = MatrixPencil.from_upper(
            2,
            "exact",
            [(0, 0, 1), (1, 1, 1)],
            [("y1", [(0, 0, 1), (1, 1, -1)]), ("y2", [(0, 1, 1)])],
        )
        prob = SdpProblem(pencil=pencil, objective=(quad(0), quad(0)), name="empty")
        out = find_reducing_certificate(prob)
        assert isinstance(out, StrictlyFeasible)
        assert out.exact
        assert out.detail == "F(y) is positive definite at y1 = 0, y2 = 0"

    def test_traceless_slice_is_exact_verdict(self):
        # f0 = I and no variables: the orthogonal slice is tr X = 0
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 0, 1), (1, 1, 1)], [])
        prob = SdpProblem(pencil=pencil, objective=(), name="traceless")
        out = find_reducing_certificate(prob)
        assert isinstance(out, StrictlyFeasible)
        assert out.exact
        assert out.detail == "F0 is positive definite, so y = 0 is a strictly feasible point"

    def test_ill_conditioned_chart_with_definite_f0_is_exact_verdict(self):
        # diag(1, 1 + 1e-10) with no variables: the slice's trace functional
        # is ~1e-10 in floats, but I is not a multiple of f0, so there is no
        # exact traceless verdict; f0 is positive definite, so y = 0 proves
        # strict feasibility exactly
        pencil = MatrixPencil.from_upper(
            2, "exact", [(0, 0, 1), (1, 1, Fraction(10**10 + 1, 10**10))], []
        )
        prob = SdpProblem(pencil=pencil, objective=(), name="near-identity")
        out = find_reducing_certificate(prob)
        assert out == StrictlyFeasible(
            exact=True,
            tolerance=None,
            detail="F0 is positive definite, so y = 0 is a strictly feasible point",
        )

    def test_ill_conditioned_traceless_chart_is_exact_verdict(self):
        # the same near-identity matrix as the one variable's term, F0 = 0:
        # the chart looks traceless and I is not in the span, so nothing is
        # said about the slice; y = 0 is no witness, but the least-squares
        # fit I ~ 1 * F_y snaps to c = (0, 1), whose witness y = 1 is one
        pencil = MatrixPencil.from_upper(
            2, "exact", [], [("y", [(0, 0, 1), (1, 1, Fraction(10**10 + 1, 10**10))])]
        )
        prob = SdpProblem(pencil=pencil, objective=(quad(0),), name="near-identity-term")
        assert find_reducing_certificate(prob) == StrictlyFeasible(
            exact=True, tolerance=None, detail="F(y) is positive definite at y = 1"
        )

    def test_traceless_verdict_names_its_witness(self):
        # I = 0 * F0 + F_1 with F0 the off-diagonal unit: c0 = 0, so the
        # witness is y = t with t = 1 + max row sum of |F0| = 2
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 1, 1)], [("y", [(0, 0, 1), (1, 1, 1)])])
        out = find_reducing_certificate(
            SdpProblem(pencil=pencil, objective=(quad(0),), name="offdiag-f0")
        )
        assert out.exact
        assert out.detail == "F(y) is positive definite at y = 2"
        # F0 = -I with dependent terms I and 2I: c0 shifts to 1
        pencil = MatrixPencil.from_upper(
            2,
            "exact",
            [(0, 0, -1), (1, 1, -1)],
            [("y", [(0, 0, 1), (1, 1, 1)]), ("z", [(0, 0, 2), (1, 1, 2)])],
        )
        out = find_reducing_certificate(
            SdpProblem(pencil=pencil, objective=(quad(0), quad(0)), name="shifted")
        )
        assert out.exact
        assert out.detail == "F(y) is positive definite at y = 2, z = 0"
        # F0 = diag(1, -1), F_y = diag(0, 1): I = F0 + 2 F_y, so c0 = 1 > 0
        # and the fit itself is the witness y = 2
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 0, 1), (1, 1, -1)], [("y", [(1, 1, 1)])])
        assert facial._span_svd(pencil)[4]  # traceless: I lies in the span
        out = find_reducing_certificate(
            SdpProblem(pencil=pencil, objective=(quad(0),), name="positive-c0")
        )
        assert out.exact
        assert out.detail == "F(y) is positive definite at y = 2"
        # F0 = [[1, 1], [1, 1 + d]] with d = 10^-20 is positive definite
        # exactly (leading minors 1 and d) but singular in floats, and
        # I = -F0 + F_y gives c0 = -1: only the exact test of y = 0 proves it
        d = Fraction(1, 10**20)
        pencil = MatrixPencil.from_upper(
            2,
            "exact",
            [(0, 0, 1), (0, 1, 1), (1, 1, 1 + d)],
            [("y", [(0, 0, 2), (0, 1, 1), (1, 1, 2 + d)])],
        )
        assert facial._span_svd(pencil)[4]  # traceless: I lies in the span
        out = find_reducing_certificate(
            SdpProblem(pencil=pencil, objective=(quad(0),), name="float-singular-f0")
        )
        assert out.exact
        assert out.detail == "F(y) is positive definite at y = 0"

    @pytest.mark.parametrize(
        "f0, terms",
        [
            # infeasible: y - 1 >= 0 and -y - 1 >= 0
            ([(0, 0, -1), (1, 1, -1)], [("y", [(0, 0, 1), (1, 1, -1)])]),
            # infeasible: F0 = -I, no variables
            ([(0, 0, -1), (1, 1, -1)], []),
            # infeasible: the (1, 1) entry is -2 whatever y is
            ([(0, 0, -1), (1, 1, -2)], [("y", [(0, 0, 1)])]),
            # strictly feasible for y > 1, but no cheap witness: y = 0 fails
            ([(0, 0, -1), (1, 1, -1)], [("y", [(0, 0, 1), (1, 1, 2)])]),
        ],
    )
    def test_traceless_pencil_without_witness_gets_no_exact_proof(
        self, f0, terms, monkeypatch
    ):
        # I is in the span of the pencil matrices only with a negative F0
        # coefficient: that proves the homogenized pencil strictly feasible,
        # not this one, and no margin problem is posed
        pencil = MatrixPencil.from_upper(2, "exact", f0, terms)
        prob = SdpProblem(pencil=pencil, objective=tuple(quad(0) for _ in terms))

        def unused(*args, **kwargs):
            raise AssertionError("a margin problem was solved")

        monkeypatch.setattr(facial, "solve_sdp", unused)
        with pytest.raises(SolverFailedError, match="no witness y"):
            find_reducing_certificate(prob)

    def test_interior_witness_comes_before_any_margin_solve(self, monkeypatch):
        # F(y) > 0 at the rounded fit of I rules out every certificate, so
        # the search poses no margin problem
        prob, _ = interior_problem(np.random.default_rng(778), 9, 8, 1)

        def unused(*args, **kwargs):
            raise AssertionError("the margin problem was solved")

        monkeypatch.setattr(facial, "solve_sdp", unused)
        out = find_reducing_certificate(prob)
        assert out.exact and out.tolerance is None
        assert_witness_proves(prob.pencil, out.detail)

    def test_definiteness_is_decided_by_the_psd_check(self, monkeypatch):
        # a rational candidate and one over Q(sqrt5) are both decided by the
        # one exact test, PSD of rank n: diag(-1, 1) is not definite, and
        # diag(sqrt5, 1) is
        checked = []
        check = facial.psd_check_exact

        def spy(M):
            checked.append(M)
            return check(M)

        monkeypatch.setattr(facial, "psd_check_exact", spy)
        p = MatrixPencil.from_upper(2, "exact", [(1, 1, 1)], [("y", [(0, 0, 1)])])
        verdict = facial._witness_verdict(p, [[quad(-1)], None, [quad(0, 1)]])
        assert verdict.exact and verdict.detail == "F(y) is positive definite at y = 1*sqrt5"
        assert [S.B is None for S in checked] == [True, False]

    def test_irrational_face_rounds_over_sqrt5(self):
        prob = golden_face_problem()
        cert = find_reducing_certificate(prob)
        # the face is irrational, its coordinates inside it are not
        assert cert.note == (
            "face rounding at max_den=100 over Q(sqrt5), coordinates at max_den=100; rank 1"
        )
        assert verify_certificate_matrix(prob, cert.X) == []
        assert_same_span(cert.range_vectors, [[quad(2), quad(-1, -1), quad(1, 1)]])

    def test_numeric_strictly_feasible_verdict(self):
        # the orthogonal slice holds trace-one matrices but none PSD:
        # X orthogonal to diag(3, 1) means X = a diag(1, -3) + s offdiag,
        # always indefinite when nonzero.  F0 itself is positive definite,
        # so the witness y = 0 proves it before any margin problem
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 0, 3), (1, 1, 1)], [])
        prob = SdpProblem(pencil=pencil, objective=(), name="indefinite-slice")
        out = find_reducing_certificate(prob)
        assert out == StrictlyFeasible(
            exact=True,
            tolerance=None,
            detail="F0 is positive definite, so y = 0 is a strictly feasible point",
        )

    def test_rank_steps_down_past_spurious_eigenvalue(self):
        # a margin iterate ~sqrt(gap) off the face: the rank-1 certificate
        # plus a 1e-4 eigenvalue that the rank cutoff counts; no rank-2
        # face rounds, so the search must step down to rank 1
        prob = planted_chain_problem()
        face = [int(x) for x in np.rint(np.linalg.inv(PLANTED_U)[:, 0])]
        u = np.array(face, dtype=float) / np.linalg.norm(face)
        w = np.random.default_rng(7).standard_normal(3)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        Xnum = np.outer(u, u) + 1e-4 * np.outer(w, w)
        cert, reason = _face_split_certificate(prob, Xnum)
        assert reason is None
        assert cert.rank == 1
        assert verify_certificate_matrix(prob, cert.X) == []
        assert_same_span(cert.range_vectors, [face])

    def test_certificates_are_exactly_verified(self):
        for prob in (chsh_toy_pencil(), almost_quantum_pencil(line1())):
            cert = find_reducing_certificate(prob)
            assert verify_certificate_matrix(prob, cert.X) == []
            tr = sum((as_quad(cert.X[i, i]) for i in range(prob.pencil.n)), quad(0))
            assert tr == quad(1)


def _zero_pencil_problem(m):
    pencil = MatrixPencil.from_upper(3, "exact", [], [(f"y{k}", []) for k in range(m)])
    return SdpProblem(pencil=pencil, objective=(quad(0),) * m, name=f"zero-{m}")


def _margin_inputs():
    """(id, problem) of every search the equivalence test compares: the
    bundled problems, each search of the planted chains' reductions, the
    zero pencil and strictly feasible interior problems."""
    yield "line1", almost_quantum_pencil(line1())
    yield "line2", almost_quantum_pencil(line2())
    yield "toy", chsh_toy_pencil()
    for n in (4, 8):
        for sqrt5 in (False, True):
            prob = planted_chain(np.random.default_rng(n), n, 2, sqrt5)
            _, rounds, _ = reduce_problem(prob)
            for k, p in enumerate([prob, *(r.problem for r in rounds)]):
                yield f"{prob.name}-search{k}", p
    for m in (0, 1):
        yield f"zero-{m}", _zero_pencil_problem(m)
    rng = np.random.default_rng(778)
    for rank in range(1, 9):
        yield f"interior-{rank}", interior_problem(rng, 9, 8, rank)[0]


def _margin(prob: SdpProblem, read) -> float:
    res = solver.solve_sdp(prob)
    assert res.status.tag is model.StatusTag.OPTIMAL, (prob.name, res.status)
    return read(res)


def _t_star(alt: SdpProblem) -> float:
    """The optimum t* of a margin problem of either form."""
    if _on_slice(alt):
        return _margin(alt, lambda r: r.y["slack_margin"])
    return _margin(alt, lambda r: -r.objective_dual)


class TestMarginEquivalence:
    """The margin problem over the pencil's span against the one over the
    float chart of the trace-one orthogonal slice: two sides of one
    primal-dual pair, so the same optimum and the same verdict."""

    def test_every_search_matches_the_chart_side(self):
        seen = traceless = 0
        for label, prob in _margin_inputs():
            alt = build_alternative_problem(prob)
            ref = reference_chart_margin_problem(prob)
            assert (alt is None) == (ref is None), label
            outcome = find_reducing_certificate(prob)
            if alt is None:
                # a planted chain's last search, on its fully parametrized
                # face: I lies in the span, and a witness decides exactly
                assert isinstance(outcome, StrictlyFeasible) and outcome.exact, label
                traceless += 1
                continue
            got = _t_star(alt)
            want = _margin(ref, lambda r: r.y["slack_margin"])
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), (label, got, want)
            if want < -facial.FEAS_CUT:
                if not _on_slice(alt):
                    # the span form's solve, stopped at its cut, bounds t*
                    cut = -solver.solve_sdp(alt, stop_above=facial.FEAS_CUT).objective_dual
                    assert want - 1e-7 * max(1.0, abs(want)) <= cut < -facial.FEAS_CUT, label
                assert isinstance(outcome, StrictlyFeasible), label
                if outcome.exact:
                    assert_witness_proves(prob.pencil, outcome.detail)
            else:
                assert isinstance(outcome, ReducingCertificate), label
            seen += 1
        assert (seen, traceless) == (3 + 4 * 2 + 2 + 8, 4)

    def test_planted_reduce_searches_agree_on_both_sides(self, monkeypatch):
        # every search of the planted-reduce benchmark that poses a margin
        # problem: the span form and the slice form it takes give the same
        # t* and the same verdict class; the last search of each reduction
        # is traceless and poses none
        searches = 0
        for prob in _benchmark_inputs(monkeypatch, "planted-reduce", 840):
            _, rounds, _ = reduce_problem(prob)
            for search in (prob, *(r.problem for r in rounds)):
                if build_alternative_problem(search) is None:
                    continue
                t_span = _t_star(span_margin_problem(search))
                t_slice = _t_star(slice_margin_problem(search))
                label = (prob.name, searches, t_span, t_slice)
                assert abs(t_span - t_slice) <= 1e-7 * max(1.0, abs(t_slice)), label
                assert (t_span < -facial.FEAS_CUT) == (t_slice < -facial.FEAS_CUT), label
                searches += 1
        assert searches == 64

    @pytest.mark.parametrize("k", [2, 4, 6], ids=["1e-2", "1e-4", "1e-6"])
    def test_span_nearly_holding_the_identity(self, k):
        # F_a = I + eps diag(1, 0, -1) lies ~eps from I: the slice is nearly
        # traceless and its best margin -(1 - eps) / (3 eps) is far below 0,
        # yet the trace-free basis of the span is orthonormal, so the solve
        # stays well scaled
        eps = Fraction(1, 10**k)
        prob = _near_identity_span(eps)
        out = find_reducing_certificate(prob)
        assert isinstance(out, StrictlyFeasible) and not out.exact
        got = _margin(build_alternative_problem(prob), lambda r: -r.objective_dual)
        assert got == pytest.approx(-float((1 - eps) / (3 * eps)), rel=1e-8)

    def test_slice_form_without_a_certificate(self, monkeypatch):
        # the near-identity pencil padded with the off-diagonal units e1 e2
        # and e0 e2: r = 5 of N = 6, so the slice side is the one point X0
        # and its margin problem has the one variable t.  No SDP is solved:
        # t* = lambda_min(X0), the chart side's optimum.  No PSD X is
        # orthogonal to the pencil and no witness proves it, so the numeric
        # verdict states that t*
        eps = Fraction(1, 100)
        pencil = MatrixPencil.from_upper(
            3,
            "exact",
            [(0, 0, 1), (1, 1, -1)],
            [
                ("a", [(0, 0, 1 + eps), (1, 1, 1), (2, 2, 1 - eps)]),
                ("b", [(0, 1, 1)]),
                ("c", [(1, 2, 1)]),
                ("d", [(0, 2, 1)]),
            ],
        )
        prob = SdpProblem(pencil=pencil, objective=(quad(0),) * 4, name="padded-near-identity")
        alt = build_alternative_problem(prob)
        assert alt.var_names == ("slack_margin",)
        t_star = np.linalg.eigvalsh(alt.pencil.f0)[0]
        want = _margin(reference_chart_margin_problem(prob), lambda r: r.y["slack_margin"])
        assert want < -facial.FEAS_CUT
        assert t_star == pytest.approx(want, rel=1e-7)

        def no_solve(problem, *, stop_above=None):
            raise AssertionError(f"solved {problem.name}")

        monkeypatch.setattr(facial, "solve_sdp", no_solve)
        out = find_reducing_certificate(prob)
        assert out == StrictlyFeasible(
            exact=False,
            tolerance=facial.FEAS_CUT,
            detail=(
                "the alternative problem is infeasible at solver tolerance "
                "(slack margin -3.300e+01); this is numerical evidence, not an exact proof"
            ),
        )
        assert f"(slack margin {t_star:.3e})" in out.detail

    def test_span_at_roundoff_from_the_identity_is_numeric_evidence(self):
        # eps = 1e-8: the margin solve's iterates grow like 1/eps, but a
        # strictly feasible one beats the cut long before they reach the
        # bound
        out = find_reducing_certificate(_near_identity_span(Fraction(1, 10**8)))
        assert isinstance(out, StrictlyFeasible) and not out.exact
        assert out.tolerance == facial.FEAS_CUT

    def test_span_holding_the_identity_in_floats_only_is_exact_verdict(self):
        # eps = 1e-10: I is in the span at float roundoff, not exactly; the
        # least-squares fit I ~ F_a snaps to c = (0, 1, 0), and c0 = 0 gives
        # the witness y = 2 c, F(2, 0) = diag(3 + 2 eps, 1, 2 - 2 eps)
        out = find_reducing_certificate(_near_identity_span(Fraction(1, 10**10)))
        assert out == StrictlyFeasible(
            exact=True, tolerance=None, detail="F(y) is positive definite at a = 2, b = 0"
        )


def _detail_margin(verdict: StrictlyFeasible) -> float:
    """The slack margin a numeric verdict's detail states: the span form's
    bound at its cut, or the slice form's optimum."""
    (margin,) = re.findall(r"slack margin (?:at most )?(\S+)\)", verdict.detail)
    return float(margin)


class TestObjectiveCut:
    """The margin solve stops at the first strictly feasible point that
    proves t* < -FEAS_CUT; a pencil with a certificate has t* >= 0, so no
    such point exists and its solve runs to the optimum."""

    def test_interior_verdicts_bound_the_full_margin(self):
        # every margin solve stops at a bound on t*, whatever the search
        # returns; an exact verdict stands on its re-proved witness, and a
        # numeric one states the cut's bound
        for seed in (778, 779, 905):
            rng = np.random.default_rng(seed)
            for rank in range(1, 9):
                prob, _ = interior_problem(rng, 9, 8, rank)
                alt = build_alternative_problem(prob)
                tstar = _margin(alt, lambda r: -r.objective_dual)
                cut = solver.solve_sdp(alt, stop_above=facial.FEAS_CUT)
                assert cut.status.tag is model.StatusTag.OBJECTIVE_CUT_REACHED, (seed, rank)
                margin = -cut.objective_dual
                assert tstar <= margin < -facial.FEAS_CUT, (seed, rank, tstar, margin)
                out = find_reducing_certificate(prob)
                assert isinstance(out, StrictlyFeasible), (seed, rank)
                if out.exact:
                    assert out.tolerance is None
                    assert_witness_proves(prob.pencil, out.detail)
                else:
                    assert out.tolerance == facial.FEAS_CUT
                    assert _detail_margin(out) == float(f"{margin:.3e}"), (seed, rank)

    def test_no_certificate_carrier_reaches_the_cut(self):
        # the cut is the span form's, whichever side the search takes
        carriers = 0
        for label, prob in _margin_inputs():
            if build_alternative_problem(prob) is None:
                continue
            alt = span_margin_problem(prob)
            full = solver.solve_sdp(alt)
            if -full.objective_dual < -facial.FEAS_CUT:
                continue
            cut = solver.solve_sdp(alt, stop_above=facial.FEAS_CUT)
            assert cut.status.tag is model.StatusTag.OPTIMAL, label
            assert np.array_equal(cut.X, full.X) and cut.y == full.y, label
            carriers += 1
        assert carriers == 3 + 4 * 2 + 2


def _near_identity_span(eps):
    pencil = MatrixPencil.from_upper(
        3,
        "exact",
        [(0, 0, 1), (1, 1, -1)],
        [("a", [(0, 0, 1 + eps), (1, 1, 1), (2, 2, 1 - eps)]), ("b", [(0, 1, 1)])],
    )
    return SdpProblem(pencil=pencil, objective=(quad(0), quad(0)), name="near-identity-span")


def _negative_fit_problem() -> SdpProblem:
    # F0 = [[-1, -1], [-1, 0]], F_y = diag(1, 2): r = 2 of N = 3, so the
    # trace-one slice of the span's complement is one point, X0
    pencil = MatrixPencil.from_upper(
        2, "exact", [(0, 0, -1), (0, 1, -1)], [("y", [(0, 0, 1), (1, 1, 2)])]
    )
    return SdpProblem(pencil=pencil, objective=(quad(1),), name="negative-fit")


class TestFloatSliceChart:
    """The float chart of the trace-one orthogonal slice that the slice
    form of the margin problem is posed over (`facial._slice_margin_problem`),
    against `reference_chart_margin_problem`'s, and the chart matrices the
    margin problems' terms are built with."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: almost_quantum_pencil(line1()),
            lambda: almost_quantum_pencil(line2()),
            chsh_toy_pencil,
            _negative_fit_problem,
        ],
        ids=["line1", "line2", "toy", "one-dimensional"],
    )
    def test_chart_is_orthonormal_trace_one_slice(self, make):
        prob = make()
        p = prob.pencil
        alt = slice_margin_problem(prob)
        X0, B = alt.pencil.f0, alt.pencil.terms[:-1]
        assert alt.var_names == (*(f"z{k+1}" for k in range(len(B))), "slack_margin")
        assert alt.objective == (0.0,) * len(B) + (1.0,)
        assert np.array_equal(alt.pencil.terms[-1], -np.eye(p.n))
        assert np.trace(X0) == pytest.approx(1.0, abs=1e-12)
        gram = np.array([[np.sum(a * b) for b in B] for a in B]).reshape(len(B), len(B))
        assert np.abs(gram - np.eye(len(B))).max(initial=0.0) < 1e-12
        for Q in (p.f0, *p.terms):
            Qf = to_float(Q)
            for M in (X0, *B):
                assert abs(np.sum(Qf * M)) < 1e-12
        for Bk in B:
            assert abs(np.trace(Bk)) < 1e-12
        pairs = list(zip(*np.triu_indices(p.n)))
        # the functionals of the pencil's split are the constraint rows of
        # the pencil matrices themselves
        K = _upper_functionals(p.split).join()
        assert np.array_equal(K, reference_constraint_rows((p.f0, *p.terms), pairs))
        # B is empty when the slice is one point (N - r = 1)
        assert len(B) == len(nullspace_exact(K)) - 1
        # the reference chart: the same minimum-norm point, and directions
        # spanning the same subspace (equal orthogonal projectors)
        ref = reference_chart_margin_problem(prob)
        assert np.abs(X0 - ref.pencil.f0).max() < 1e-12
        Bf = np.array(B).reshape(len(B), p.n * p.n)
        Rf = np.array(ref.pencil.terms[:-1]).reshape(len(B), p.n * p.n)
        assert np.abs(Bf.T @ Bf - Rf.T @ Rf).max(initial=0.0) < 1e-12

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_chart_stack_is_the_per_vector_build(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        k = data.draw(st.integers(min_value=1, max_value=4))
        entry = st.one_of(
            st.floats(min_value=-2, max_value=2),
            st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 9.9e-14, -1.1e-13, 5e-324]),
        )
        size = n * (n + 1) // 2
        coords = np.array(
            data.draw(st.lists(st.lists(entry, min_size=size, max_size=size), min_size=k, max_size=k))
        )
        got = _chart_matrices(coords, n)
        want = np.stack(reference_chart_matrices(coords, n))
        assert got.shape == (k, n, n)
        assert got.tobytes() == want.tobytes()


# floats at and around each rational rung's zero bound 1/(2 den), with
# either sign, next to signed zeros and generic and near-rational values
_ZERO_BOUNDS = sorted({1 / (2 * den) for den, extension, _ in ROUNDING_LADDER if not extension})
snap_floats = st.one_of(
    st.sampled_from(
        [
            s * v
            for h in _ZERO_BOUNDS
            for v in (h, math.nextafter(h, 0), math.nextafter(h, 1), 0.999 * h, 1.001 * h)
            for s in (1, -1)
        ]
        + [0.0, -0.0, 1e-7, -1e-7, 5e-324]
        + [s * tol for _, _, tol in ROUNDING_LADDER for s in (1, -1)]
    ),
    st.floats(min_value=-2, max_value=2),
    st.tuples(
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=-1e-5, max_value=1e-5),
    ).map(lambda t: t[0] / t[1] + t[2]),
    st.sampled_from([(1 + 5**0.5) / 2, 5**0.5 - 2, 0.1803398875, -0.1779982111]),
)


class TestSnaps:
    """The rounding ladder's snap of a float vector against the
    reconstruction of each entry, rung by rung."""

    @given(st.lists(snap_floats, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_snaps_equal_reconstruction_rung_by_rung(self, xs):
        for den, extension, tol in ROUNDING_LADDER:
            want = [
                reconstruct_quadext(x, den) if extension else reconstruct_rational(x, den, tol)
                for x in xs
            ]
            want = None if any(w is None for w in want) else want
            assert repr(_snap(np.array(xs), den, extension, tol)) == repr(want)

    @pytest.mark.parametrize("den", [1, 2, 3, 100, 10**4, 10**6])
    def test_rational_snaps_at_the_zero_bound(self, den):
        # a few ulps either side of 1/(2 den), where the float test of the
        # zero path and the exact bound can disagree, under tolerances both
        # tighter and looser than the bound
        xs = []
        for direction in (0.0, math.inf):
            x = 1 / (2 * den)
            for _ in range(4):
                xs += [x, -x]
                x = math.nextafter(x, direction)
        for tol in (1.0, 1 / den, 1e-3, 1e-6):
            want = [reconstruct_rational(x, den, tol) for x in xs]
            for k, x in enumerate(xs):
                assert repr(_snap([x], den, False, tol)) == repr(
                    None if want[k] is None else [want[k]]
                )
            assert repr(_snap(xs, den, False, tol)) == repr(
                None if None in want else want
            )

    def test_zero_snap_rejected_by_tolerance(self):
        # 0.004 < 1/200 snaps to 0 at max_den 100, but lies further than 1e-3
        # from it
        assert reconstruct_rational(0.004, 100, 1e-3) is None
        assert _snap([0.5, 0.004], 100, False, 1e-3) is None
        assert _snap([0.5, -0.0009], 100, False, 1e-3) == [Fraction(1, 2), Fraction(0)]

    def test_signed_zeros(self):
        for den, extension, tol in ROUNDING_LADDER:
            got = _snap([0.0, -0.0], den, extension, tol)
            assert repr(got) == repr([Fraction(0)] * 2 if not extension else [quad(0)] * 2)


class _FirstFace(Exception):
    """Raised with W's columns by the face built at the first rung."""


def _noisy_integer_faces(r, n):
    """Endless (G, Vr): full-rank integer rows G in [-2, 2]^(r x n) and an
    orthonormal basis of their span with noise 1e-6 on every entry."""
    rng = np.random.default_rng(10 * n + r)
    while True:
        G = rng.integers(-2, 3, size=(r, n))
        if np.linalg.matrix_rank(G) < r:
            continue
        Q, _ = np.linalg.qr(G.T.astype(float))
        yield G, Q + rng.uniform(-1e-6, 1e-6, size=Q.shape)


class TestEchelonSnap:
    """A face given by a noisy orthonormal basis rounds, at the first rung,
    to the reduced row echelon basis of the integer rows G that span it."""

    @pytest.mark.parametrize("n", range(4, 10))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_first_rung_gives_the_rref_of_an_integer_face(self, r, n, monkeypatch):
        def first_face(face, Xnum, verify):
            W, _, _ = face(ROUNDING_LADDER[0])
            raise _FirstFace(W.join().T.tolist())

        monkeypatch.setattr(facial, "_round_ladder", first_face)
        prob = SdpProblem(pencil=MatrixPencil.from_upper(n, "exact", [], []), objective=())
        for _, (G, Vr) in zip(range(4), _noisy_integer_faces(r, n)):
            want = primitive_range(qarray(G.tolist()))
            with pytest.raises(_FirstFace) as face:
                _round_face(prob, Vr @ Vr.T / r, Vr)
            assert face.value.args == ([list(w) for w in want],)

    def test_coordinates_take_the_whole_ladder_on_a_coarse_face(self):
        # the second face of r = 3, n = 5: W is RREF(G) at den 100, but the
        # in-face coordinates round at no rung before den 10^6; a finer face
        # rung would snap the noisy basis to a wrong face, so the
        # coordinates must try every rung on this one
        _, (G, Vr) = islice(_noisy_integer_faces(3, 5), 2)
        assert G.tolist() == [[1, 0, 1, -2, 2], [1, 2, 1, 0, 0], [2, -2, 2, 2, -1]]
        prob = SdpProblem(pencil=MatrixPencil.from_upper(5, "exact", [], []), objective=())
        cert, reason = _round_face(prob, Vr @ Vr.T / 3, Vr)
        assert reason is None
        assert cert.rank == 3
        assert cert.note == "face rounding at max_den=100, coordinates at max_den=1000000; rank 3"
        got, _ = rref_exact(np.array(cert.range_vectors, dtype=object))
        want, _ = rref_exact(qarray(G.tolist()))
        assert got.tolist() == want.tolist()


class TestOnePointFace:
    """A face whose conditions have one solution M gives one X whatever the
    inner rung, so a failing X is verified once per face rung."""

    def test_failing_face_verifies_once_per_face_rung(self, monkeypatch):
        # W = I: 2 M01 = 0, M00 + 2 M11 = 0 and tr M = 1 leave M = diag(2, -1)
        pencil = MatrixPencil.from_upper(
            2, "exact", [], [("a", [(0, 1, 1)]), ("b", [(0, 0, 1), (1, 1, 2)])]
        )
        prob = SdpProblem(pencil=pencil, objective=(0, 0))
        calls = []
        check = facial.verify_certificate_matrix

        def spy(prob, X):
            calls.append(X.join().tolist())
            return check(prob, X)

        monkeypatch.setattr(facial, "verify_certificate_matrix", spy)
        cert, failures = _round_face(prob, np.diag([0.5, 0.5]), np.eye(2))
        assert cert is None
        assert calls == [[[quad(2), quad(0)], [quad(0), quad(-1)]]] * len(ROUNDING_LADDER)
        assert [rung for rung, _ in failures] == list(ROUNDING_LADDER)
        first = f"coordinates at {facial._rung_name(ROUNDING_LADDER[0])}: "
        assert all(why.startswith(first) and "PSD" in why for _, why in failures)


class TestProjectorSplit:
    """A symmetric matrix split from its snapped upper triangle, as the
    in-face step builds M, joins back to those entries on both triangles;
    the cases are labelled by whether the matrix is a projector."""

    @pytest.mark.parametrize(
        "coords,n,projector",
        [
            # diag(1, 0) and the rank-one projector onto (1, 1)
            ([Fraction(1), Fraction(0), Fraction(0)], 2, True),
            ([Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)], 2, True),
            ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)], 2, False),
            # onto (1, phi): entries (1, phi, phi^2)/(1 + phi^2), in Q(sqrt5)
            ([quad("1/2", "-1/10"), quad(0, "1/5"), quad("1/2", "1/10")], 2, True),
            ([quad("1/2", "-1/10"), quad(0, "1/5"), quad("1/2", "1/9")], 2, False),
            ([quad(1), quad(0), quad(0, 1)], 2, False),
        ],
    )
    def test_projector_test(self, coords, n, projector):
        P = _symmetric_split(coords, n)
        full = P.join()
        pairs = zip(*np.triu_indices(n))
        assert all(full[i, j] == full[j, i] == as_quad(c) for (i, j), c in zip(pairs, coords))
        assert np.array_equal(reference_qmatmul(full, full), full) is projector

    @given(st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3)]), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_projector_test_matches_quadext_products(self, coords):
        full = _symmetric_split(coords, 3).join()
        pairs = zip(*np.triu_indices(3))
        assert all(full[i, j] == full[j, i] == as_quad(c) for (i, j), c in zip(pairs, coords))


class TestRangeReuse:
    """Range vectors taken from the face basis W equal the row-space pass
    over X that they replace."""

    @pytest.mark.parametrize(
        "make",
        [
            planted_chain_problem,
            golden_face_problem,
            lambda: planted_chain(np.random.default_rng(4), 4, 2),
            lambda: planted_chain(np.random.default_rng(4), 4, 2, sqrt5=True),
            lambda: planted_chain(np.random.default_rng(8), 8, 2),
            lambda: planted_chain(np.random.default_rng(8), 8, 2, sqrt5=True),
            lambda: almost_quantum_pencil(line1()),
            lambda: almost_quantum_pencil(line2()),
        ],
        ids=["chain", "golden", "n4", "n4-sqrt5", "n8", "n8-sqrt5", "line1", "line2"],
    )
    def test_every_certificate_of_a_reduction(self, make, monkeypatch):
        certs = []
        search = facial.find_reducing_certificate

        def spy(prob):
            out = search(prob)
            certs.append(out)
            return out

        monkeypatch.setattr(facial, "find_reducing_certificate", spy)
        reduce_problem(make())
        certs = [c for c in certs if isinstance(c, ReducingCertificate)]
        assert certs
        for cert in certs:
            want = primitive_range(cert.X)
            assert repr(list(cert.range_vectors)) == repr(want)

    def test_singular_face_coordinates_take_the_row_space_pass(self):
        # the face span(e0, e1) rounds exactly, but X = diag(1, 0, 0) gives
        # M = diag(1, 0): range(X) is smaller than the face, so the range
        # vectors come from X itself
        pencil = MatrixPencil.from_upper(3, "exact", [(2, 2, 1)], [])
        prob = SdpProblem(pencil=pencil, objective=())
        cert, reason = _round_face(prob, np.diag([1.0, 0.0, 0.0]), np.eye(3)[:, :2])
        assert reason is None
        assert cert.rank == 1
        assert [list(v) for v in cert.range_vectors] == [[quad(1), quad(0), quad(0)]]
        assert cert.note == "face rounding at max_den=100; rank 1"


def certificate_digest(certs) -> str:
    """sha256 of the certificates' report form, canonical JSON."""
    doc = json.dumps([c.as_dict() for c in certs], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


class TestPinnedCertificates:
    """Certificates stay byte-identical across refactors of the rounding:
    the digests of their report form are pinned.  A bundled certificate's
    face, the RREF of its range vectors, and its note are pinned apart in
    the clear: when the margin problem's optimal face is not a single point,
    a change of the solver's float path may move X inside the face, never
    the face itself."""

    @pytest.mark.parametrize(
        "make, digest, rref, note",
        [
            (lambda: almost_quantum_pencil(line1()),
             "f8b55fbc759a97e3e9d91fef45a1f5113ea1a1fdf9eeaf2db8b422921d7c402c",
             [[1, 0, -1, 0, -1, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0, 0, -1, 0]],
             "face rounding at max_den=100; rank 2"),
            (lambda: almost_quantum_pencil(line2()),
             "9617a62fcfad3eb89d03f1f2f7da2273881d4119361cd251c0c4c748b5ac47a7",
             [[0, 1, 0, 0, 0, 0, -1, 0, 0], [0, 0, 0, 1, 0, 0, 0, -1, 0],
              [0, 0, 0, 0, 0, 0, 0, 0, 1]],
             "face rounding at max_den=100; rank 3"),
            (chsh_toy_pencil,
             "39d73cbf03c41d89b30e411c71d7433deeeaf23e551e080cee46a89358eaa45f",
             [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
             "face rounding at max_den=100; rank 2"),
        ],
        ids=["line1", "line2", "toy"],
    )
    def test_bundled_raw_problems(self, make, digest, rref, note):
        cert = find_reducing_certificate(make())
        R, _ = rref_exact(np.array(cert.range_vectors, dtype=object))
        assert R.tolist() == [[quad(x) for x in row] for row in rref]
        assert cert.note == note
        assert certificate_digest([cert]) == digest

    @pytest.mark.parametrize("sqrt5", [False, True], ids=["Q", "Q(sqrt5)"])
    @pytest.mark.parametrize(
        "n, digest",
        [
            (4, "9a22158cb525b91828d804f6cfc79a2bf355fb82a6d515b56d8e72106e4c4c0a"),
            (8, "189c08ce3da72a31d623ce422b8e23018e42b09afbcc36de4064dbdf5a23da11"),
        ],
        ids=["n4", "n8"],
    )
    def test_planted_chains_of_degree_two(self, n, digest, sqrt5):
        # round 2 searches the face of round 1, in its coordinates (n - 1)
        _, rounds, _ = reduce_problem(planted_chain(np.random.default_rng(n), n, 2, sqrt5))
        assert [(r.certificate.X.shape[0], r.certificate.rank) for r in rounds] == [
            (n, 1), (n - 1, 1)
        ]
        assert certificate_digest([r.certificate for r in rounds]) == digest


class TestPinnedReductions:
    """Everything a reduction hands out stays byte-identical across
    refactors of the exact layer: on the planted-reduce and
    interior-diagnose benchmark inputs and on degree-3 chains, the
    certificates (X, range vectors, note), the relations, the faces, the
    restricted pencils' splits and the final verdicts are pinned by one
    digest per input set (`helpers.reduction_digest`)."""

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (778, "f6aae9a94e0b874a064a4c3738c9de453ceb80740fbf7f57c7b3443d35a983a3"),
            (840, "c92e4962a40706b45dc6f827be0ff61ac2ba02718ccdb2f4194d4ac9a8eb53e9"),
        ],
    )
    def test_planted_reduce_rounds(self, seed, digest, monkeypatch):
        problems = _benchmark_inputs(monkeypatch, "planted-reduce", seed)
        assert reduction_digest(problems) == digest

    def test_interior_diagnose_verdicts(self, monkeypatch):
        # strictly feasible pencils: the witness walk's verdicts and details
        cases = _benchmark_inputs(monkeypatch, "interior-diagnose", 840)
        assert reduction_digest([c.problem for c in cases]) == (
            "aa79b59acd1a35114e43f726287f4e8ef9f86ddf3dccbf8ad5f51cb3845e5b10"
        )

    def test_degree_three_chains(self):
        problems = [
            planted_chain(np.random.default_rng(seed), n, 3, sqrt5)
            for seed in range(100, 104)
            for n in (4, 8)
            for sqrt5 in (False, True)
        ]
        assert reduction_digest(problems) == (
            "9455c0f198e0bc5db0e183db9572ae919fcb1167432b4bd208a821a6160fc216"
        )


def _presented(prob: SdpProblem, order, c) -> SdpProblem:
    """prob with its variables in `order` and every F_i and b_i times c, the
    substitution y_i -> y_i / c: the same problem written differently."""
    p = prob.pencil
    return SdpProblem(
        pencil=MatrixPencil(
            n=p.n,
            scalar=p.scalar,
            f0=p.f0,
            var_names=tuple(p.var_names[k] for k in order),
            terms=tuple(p.terms[k] * c for k in order),
        ),
        objective=tuple(prob.objective[k] * c for k in order),
        name=prob.name,
    )


def _reduction_outcome(prob: SdpProblem) -> tuple:
    """(status, rounds, eliminated count, exactness) of `reduce_problem`."""
    try:
        _, rounds, verdict = reduce_problem(prob)
    except ReductionError as exc:
        return type(exc).__name__, len(exc.rounds), None, None
    eliminated = sum(len(r.constraints.eliminated_names) for r in rounds)
    return type(verdict).__name__, len(rounds), eliminated, verdict.exact


class TestPresentationInvariance:
    """A metamorphic property (Chen, Cheung & Yiu, *Metamorphic testing: a
    new approach for generating next test cases*, HKUST-CS98-01, 1998): a
    reduction's outcome must not depend on how the pencil is written.
    Facial reduction commutes with an invertible reparametrization
    (Borwein & Wolkowicz 1981), so reordering the variables or scaling
    every F_i and b_i keeps the status, the number of rounds, the count of
    eliminated variables and the exactness of the verdict.  Seed 105 at
    n = 4 over Q(sqrt5) searches a one-point slice in round 3, X0 with
    eigenvalues about {0, 1}: scaled, roundoff puts lambda_min(X0) above 0,
    where a margin SDP posed on that single point can end NumericalTrouble."""

    @pytest.mark.parametrize("sqrt5", [False, True], ids=["Q", "Q(sqrt5)"])
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("seed", range(100, 106))
    def test_degree_three_chain_outcome_survives_presentation(self, seed, n, sqrt5):
        prob = planted_chain(np.random.default_rng(seed), n, 3, sqrt5)
        want = _reduction_outcome(prob)
        identity = range(prob.pencil.m)
        permutation = np.random.default_rng(seed).permutation(prob.pencil.m)
        for label, order, c in [
            ("permuted", permutation, quad(1)),
            ("times 2", identity, quad(2)),
            ("times 1/3", identity, quad(Fraction(1, 3))),
        ]:
            assert _reduction_outcome(_presented(prob, order, c)) == want, label


def _benchmark_inputs(monkeypatch, workload: str, seed: int) -> list:
    """`perfbench/workloads.build_inputs(workload, seed)`, imported without
    writing bytecode into the benchmark's directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("workloads").build_inputs(workload, seed)


class TestAffineSolve:
    # the solutions are one split: the particular solution first, then the
    # homogeneous basis
    def test_particular_and_homogeneous(self):
        K = qarray([[1, 2], [2, 4]])
        particular, *homogeneous = _affine_solve_exact(K, [quad(1), quad(2)]).join()
        assert list(particular) == [quad(1), quad(0)]
        assert [list(h) for h in homogeneous] == [[quad(-2), quad(1)]]

    def test_unique_solution_has_no_homogeneous_part(self):
        particular, *homogeneous = _affine_solve_exact(qarray([[2]]), [quad(3)]).join()
        assert list(particular) == [quad(Fraction(3, 2))]
        assert homogeneous == []

    @pytest.mark.parametrize(
        "K, rhs",
        [([[1, 2], [2, 4]], [1, 3]), ([[1], [0]], [0, 1])],
        ids=["rank-deficient", "no-free-column"],
    )
    def test_inconsistent_is_none(self, K, rhs):
        assert _affine_solve_exact(qarray(K), [quad(r) for r in rhs]) is None


class TestNullVectors:
    def test_rank_one_projector(self):
        X = qzeros(5)
        X[3, 3] = quad(1)
        cert = ReducingCertificate(X=X, range_vectors=())
        vecs = primitive_range(cert.X)
        assert len(vecs) == 1
        assert list(vecs[0]) == [quad(0), quad(0), quad(0), quad(1), quad(0)]

    def test_vectors_are_primitive(self):
        cert = find_reducing_certificate(almost_quantum_pencil(line1()))
        for v in cert.range_vectors:
            entries = [x for x in v]
            assert all(x.b == 0 and x.a.denominator == 1 for x in entries)
            lead = next(x for x in entries if bool(x))
            assert lead > 0


class TestDeriveConstraints:
    def test_objective_variable_kept_whatever_its_scalars_were(self):
        # e1 gives a + b = 0; the objective is b alone, so a is eliminated.
        # Objective scalars are exact once the problem is made: "0" is zero
        pencil = MatrixPencil.from_upper(
            2, "exact", [(1, 1, 1)], [("a", [(0, 0, 1)]), ("b", [(0, 0, 1)])]
        )
        prob = SdpProblem(pencil=pencil, objective=("0", 1))
        cons = derive_implicit_constraints(prob, [[quad(1), quad(0)]])
        assert cons.eliminated_names == ("a",)

    def test_problem1_relations_match(self):
        prob = almost_quantum_pencil(line1())
        cons = derive_implicit_constraints(prob, line1_null_vectors())
        assert relations_as_dict(cons) == expected_as_dict(line1_expected_relations())

    def test_problem2_relations_match(self):
        prob = almost_quantum_pencil(line2())
        cons = derive_implicit_constraints(prob, line2_null_vectors())
        assert relations_as_dict(cons) == expected_as_dict(line2_expected_relations())

    def test_toy_relations_match(self):
        cons = derive_implicit_constraints(chsh_toy_pencil(), toy_null_vectors())
        assert relations_as_dict(cons) == expected_as_dict(toy_expected_relations())

    def test_pinned_objective_variable_moves_into_the_offset(self):
        # the objective's only variable comes last in the elimination order,
        # so it is eliminated exactly when the relations fix it
        prob = pinned_objective_problem()
        cons = derive_implicit_constraints(prob, [qarray([1, 0])])
        assert cons == ImplicitConstraintSet(
            eliminated=(("mu", AffineExpr(const=quad("1/2"), coeffs={})),)
        )
        reduced = apply_constraints(prob, cons)
        assert reduced.var_names == ("a",)
        assert reduced.objective == (quad(0),)
        assert reduced.objective_offset == quad("1/2")

    def test_objective_variable_never_eliminated(self):
        prob = almost_quantum_pencil(line2())
        cons = derive_implicit_constraints(prob, line2_null_vectors())
        assert "mu" not in cons.eliminated_names

    def test_inconsistent_constraints_detected(self):
        pencil = MatrixPencil.from_upper(1, "exact", [(0, 0, 1)], [])
        prob = SdpProblem(pencil=pencil, objective=(), name="bad")
        with pytest.raises(InconsistentConstraintsError):
            derive_implicit_constraints(prob, [qarray([[1]])[0]])


class TestApplyConstraints:
    def test_problem1_reduction_matches_golden(self):
        raw = almost_quantum_pencil(line1())
        cons = derive_implicit_constraints(raw, line1_null_vectors())
        assert_problems_equal(apply_constraints(raw, cons), problem1_simplified())

    def test_problem2_reduction_matches_golden(self):
        raw = almost_quantum_pencil(line2())
        cons = derive_implicit_constraints(raw, line2_null_vectors())
        assert_problems_equal(apply_constraints(raw, cons), problem2_simplified())

    def test_toy_reduction_matches_golden(self):
        raw = chsh_toy_pencil()
        cons = derive_implicit_constraints(raw, toy_null_vectors())
        assert_problems_equal(apply_constraints(raw, cons), chsh_toy_simplified())

    def test_empty_constraint_set_is_identity(self):
        raw = chsh_toy_pencil()
        empty = derive_implicit_constraints(raw, [])
        assert apply_constraints(raw, empty) is raw

    def test_substitution_correctness_random_lifts(self):
        rng = random.Random(2024)
        raw = almost_quantum_pencil(line1())
        cons = derive_implicit_constraints(raw, line1_null_vectors())
        reduced = apply_constraints(raw, cons)
        for _ in range(100):
            partial = {
                v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for v in reduced.var_names
            }
            full = lift_assignment(cons, partial)
            A = pencil_eval(reduced.pencil, partial)
            Bm = pencil_eval(raw.pencil, full)
            assert all(A[i, j] == Bm[i, j] for i in range(9) for j in range(9))


def random_relations(prob, rng):
    """Eliminate about half the variables by random affine expressions in the
    rest, with rational and Q(sqrt5) constants and coefficients."""
    names = list(prob.var_names)
    gone = set(rng.sample(names, max(1, len(names) // 2)))
    keep = [v for v in names if v not in gone]

    def scalar():
        a = Fraction(rng.randint(-2**80, 2**80), rng.randint(1, 9))
        return quad(a, Fraction(rng.randint(-3, 3), 2)) if rng.random() < 0.5 else quad(a)

    eliminated = tuple(
        (v, AffineExpr(const=scalar(), coeffs={w: scalar() for w in keep if rng.random() < 0.6}))
        for v in names
        if v in gone
    )
    return ImplicitConstraintSet(eliminated=eliminated)


def assert_same_problem(got, want):
    assert problem_to_json_str(got) == problem_to_json_str(want)
    assert (got.name, got.note) == (want.name, want.note)
    assert got.objective_offset == want.objective_offset
    mats = [got.pencil.f0, *got.pencil.terms, np.array(got.objective, dtype=object)]
    assert all(isinstance(x, QuadExt) for M in mats for x in M.flat)
    assert_problems_equal(got, want)


class TestSubstitutionProduct:
    """`apply_constraints` as one product, against substitution one variable
    and one matrix at a time."""

    @pytest.mark.parametrize(
        "line, vectors",
        [(line1, line1_null_vectors), (line2, line2_null_vectors)],
        ids=["line1", "line2"],
    )
    def test_bell_lines(self, line, vectors):
        raw = almost_quantum_pencil(line())
        cons = derive_implicit_constraints(raw, vectors())
        assert_same_problem(apply_constraints(raw, cons), reference_apply_constraints(raw, cons))
        rng = random.Random(line().name)
        cons = random_relations(raw, rng)
        assert_same_problem(apply_constraints(raw, cons), reference_apply_constraints(raw, cons))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: planted_chain(np.random.default_rng(4), 4, 2),
            lambda: planted_chain(np.random.default_rng(4), 4, 2, sqrt5=True),
            lambda: planted_chain(np.random.default_rng(8), 8, 2),
            lambda: planted_chain(np.random.default_rng(8), 8, 2, sqrt5=True),
            golden_face_problem,
        ],
        ids=["n4-rational", "n4-sqrt5", "n8-rational", "n8-sqrt5", "golden-face"],
    )
    def test_planted_and_golden(self, make):
        prob = make()
        # the relation the reduction finds, v = 0, touches no kept row
        trivial = ((prob.var_names[0], AffineExpr(const=quad(0), coeffs={})),)
        cons = ImplicitConstraintSet(eliminated=trivial)
        assert_same_problem(apply_constraints(prob, cons), reference_apply_constraints(prob, cons))
        rng = random.Random(prob.name)
        for _ in range(3):
            cons = random_relations(prob, rng)
            got = apply_constraints(prob, cons)
            assert_same_problem(got, reference_apply_constraints(prob, cons))
            if got.var_names:
                # a second round substitutes into a reduced problem, with its offset
                again = random_relations(got, rng)
                assert_same_problem(
                    apply_constraints(got, again), reference_apply_constraints(got, again)
                )

    def test_relation_on_an_eliminated_variable_is_rejected(self):
        # as in the reference: an expression may only use kept variables
        prob = planted_chain_problem()
        cons = ImplicitConstraintSet(
            eliminated=(
                ("a", AffineExpr(const=quad(0), coeffs={"b": quad(1)})),
                ("b", AffineExpr(const=quad(1), coeffs={})),
            ),
        )
        with pytest.raises(KeyError):
            reference_apply_constraints(prob, cons)
        with pytest.raises(KeyError):
            apply_constraints(prob, cons)


def assert_ends_strictly_feasible(prob, final, rounds, verdict):
    """The reduction ends with an exact StrictlyFeasible verdict on the last
    restricted problem, whose n is the original n less every round's rank."""
    assert isinstance(verdict, StrictlyFeasible) and verdict.exact
    assert final is rounds[-1].problem
    assert final.pencil.n == prob.pencil.n - sum(r.certificate.rank for r in rounds)


class TestSoundness:
    def test_feasible_slack_annihilates_range_vectors(self):
        # at the known optimum of problem 1, the slack of the raw pencil
        # kills both certificate directions exactly
        raw = almost_quantum_pencil(line1())
        cons = derive_implicit_constraints(raw, line1_null_vectors())
        full = lift_assignment(cons, problem1_optimal_point())
        slack = pencil_eval(raw.pencil, full)
        for v in line1_null_vectors():
            assert all(not bool(x) for x in mat_vec(slack, v))

    def test_diagnosis_idempotent_on_reduced_problems(self):
        for prob in (problem1_simplified(), problem2_simplified(), chsh_toy_simplified()):
            out = find_reducing_certificate(prob)
            if isinstance(out, StrictlyFeasible):
                continue
            cons = derive_implicit_constraints(prob, out.range_vectors)
            assert cons.eliminated == ()

    def test_reduce_problem_two_rounds_on_planted_chain(self):
        raw = planted_chain_problem()
        final, rounds, _ = reduce_problem(raw)
        assert [r.constraints.eliminated_names for r in rounds] == [("a",), ("b",)]
        searched = [raw] + [r.problem for r in rounds[:-1]]
        for prob, r in zip(searched, rounds):
            ((_, expr),) = r.constraints.eliminated
            assert not bool(expr.const) and not expr.coeffs
            assert verify_certificate_matrix(prob, r.certificate.X) == []
        assert final.var_names == ("s",)
        # the suffix marks a reduced problem once, however many rounds ran
        assert [r.problem.name for r in rounds] == ["planted-chain-reduced"] * 2
        assert final.name == "planted-chain-reduced"

    @pytest.mark.parametrize("sqrt5", [False, True], ids=["rational", "sqrt5"])
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_reduce_problem_planted_degree_two(self, n, sqrt5):
        prob = planted_chain(np.random.default_rng(100 + n), n, 2, sqrt5)
        final, rounds, verdict = reduce_problem(prob)
        assert [r.constraints.eliminated_names for r in rounds] == [("a1",), ("a2",)]
        for r in rounds:
            ((_, expr),) = r.constraints.eliminated
            assert not bool(expr.const) and not expr.coeffs
        assert_ends_strictly_feasible(prob, final, rounds, verdict)

    def test_reduce_problem_planted_reduce_seed_4903_problem_27(self, monkeypatch):
        # a degree-2 benchmark problem (n = 9) whose faces round from a
        # pivot-normalized basis, though their projectors snap at no rung
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        prob = workloads.build_inputs("planted-reduce", 4903)[27]
        final, rounds, verdict = reduce_problem(prob)
        assert [r.constraints.eliminated_names for r in rounds] == [("a",), ("b",)]
        for r in rounds:
            ((_, expr),) = r.constraints.eliminated
            assert not bool(expr.const) and not expr.coeffs
        assert_ends_strictly_feasible(prob, final, rounds, verdict)

    def test_reduce_problem_planted_degree_three(self):
        # the first margin iterate sits ~gap^(1/4) off the face, beyond the
        # tolerances of the rungs built for ~sqrt(gap) iterates: only the
        # ladder's last, coarse rung snaps it to the true face.  The data
        # are rational, and every face and coordinate snaps at a rational
        # rung
        prob = planted_chain(np.random.default_rng(104), 4, 3)
        final, rounds, verdict = reduce_problem(prob)
        assert [r.constraints.eliminated_names for r in rounds] == [
            ("a1",), ("a2",), ("a3",)
        ]
        assert [r.certificate.note for r in rounds] == [
            "face rounding at max_den=10, coordinates at max_den=100; rank 1",
            "face rounding at max_den=100; rank 1",
            "face rounding at max_den=100; rank 1",
        ]
        assert_ends_strictly_feasible(prob, final, rounds, verdict)

    def test_reduce_problem_golden_face(self):
        final, rounds, _ = reduce_problem(golden_face_problem())
        assert [r.constraints.eliminated_names for r in rounds] == [("b", "a")]
        for _, expr in rounds[0].constraints.eliminated:
            assert not bool(expr.const) and not expr.coeffs
        assert final.var_names == ("s12", "s11", "s22")

    def test_reduce_problem_pinned_objective(self):
        final, rounds, verdict = reduce_problem(pinned_objective_problem())
        assert [r.constraints.eliminated_names for r in rounds] == [("mu",)]
        ((_, expr),) = rounds[0].constraints.eliminated
        assert expr.const == quad("1/2") and not expr.coeffs
        assert final.var_names == ("a",)
        assert final.objective_offset == quad("1/2")
        # restricted to span(e2), the pencil is [a]: a = 1 is a witness
        assert final.pencil.n == 1
        assert verdict == StrictlyFeasible(
            exact=True, tolerance=None, detail="F(y) is positive definite at a = 1"
        )

    def test_reduce_problem_loop_terminates(self):
        final, rounds, verdict = reduce_problem(chsh_toy_pencil())
        assert len(rounds) == 1
        assert final.var_names == ("pA0", "pA1", "a01")

    def test_reduce_problem_planted_degree_three_n8_sqrt5(self):
        # round 1's face rounds at the coarse rung; with the face kept at
        # n = 8, the second search found its range vector again in the
        # constant kernel and the loop stopped with no verdict
        prob = planted_chain(np.random.default_rng(102), 8, 3, sqrt5=True)
        final, rounds, verdict = reduce_problem(prob)
        assert [r.constraints.eliminated_names for r in rounds] == [
            ("a1",), ("a2",), ("a3",)
        ]
        assert [r.problem.pencil.n for r in rounds] == [7, 6, 5]
        assert final is rounds[-1].problem
        assert isinstance(verdict, StrictlyFeasible) and verdict.exact

    def test_reduce_problem_planted_degree_three_n12_sqrt5(self):
        # the pencil spans 48 of the 78 symmetric dimensions, so each margin
        # problem is posed on the slice side (30 variables, then 19 and 9);
        # round 1's iterate rounds there, its coordinates at the coarse
        # rung, where the span side's found no face and raised
        # RoundingFailedError
        prob = planted_chain(np.random.default_rng(103), 12, 3, sqrt5=True)
        final, rounds, verdict = reduce_problem(prob)
        assert [r.constraints.eliminated_names for r in rounds] == [
            ("a1",), ("a2",), ("a3",)
        ]
        assert [r.problem.pencil.n for r in rounds] == [11, 10, 9]
        assert rounds[0].certificate.note == (
            "face rounding at max_den=100, coordinates at max_den=10; rank 1"
        )
        assert final is rounds[-1].problem
        assert isinstance(verdict, StrictlyFeasible) and verdict.exact

    @pytest.mark.parametrize("sqrt5", [False, True], ids=["Q", "Q(sqrt5)"])
    def test_reduce_problem_planted_degree_three_n12_face_at_den_ten_thousand(self, sqrt5):
        # round 1's face snaps at no rung before (10^4, 1e-5): its iterate
        # sits too far off the face for the first rung's tolerance, and the
        # coarse rung comes after it
        prob = planted_chain(np.random.default_rng(101), 12, 3, sqrt5)
        final, rounds, verdict = reduce_problem(prob)
        assert [r.constraints.eliminated_names for r in rounds] == [
            ("a1",), ("a2",), ("a3",)
        ]
        assert rounds[0].certificate.note == (
            "face rounding at max_den=10000, coordinates at max_den=100; rank 1"
        )
        assert_ends_strictly_feasible(prob, final, rounds, verdict)

    @pytest.mark.parametrize(
        "make",
        [
            planted_chain_problem,
            golden_face_problem,
            pinned_objective_problem,
            lambda: planted_chain(np.random.default_rng(8), 8, 2, sqrt5=True),
            lambda: planted_chain(np.random.default_rng(104), 4, 3),
            lambda: almost_quantum_pencil(line2()),
            chsh_toy_pencil,
        ],
        ids=["chain", "golden", "pinned", "n8-sqrt5", "degree3", "line2", "toy"],
    )
    def test_each_round_restricts_its_substituted_problem(self, make):
        searched = make()
        _, rounds, _ = reduce_problem(searched)
        assert rounds
        for r in rounds:
            sub, got = r.substituted, r.problem
            U = np.array(r.face, dtype=object).T
            # the face: n lowered by the rank, orthogonal to the range
            # vectors, one primitive integer vector per column
            assert U.shape == (searched.pencil.n, searched.pencil.n - r.certificate.rank)
            V = np.array(r.certificate.range_vectors, dtype=object)
            assert not any(map(bool, exactnum.qmatmul(V, U).flat))
            for u in r.face:
                S = split(u)
                assert S.d == 1 and math.gcd(*S.A, *(() if S.B is None else S.B)) == 1
            # every pencil matrix is U^T F U, entry for entry
            assert got.pencil.n == U.shape[1]
            for F, G in zip((sub.pencil.f0, *sub.pencil.terms), (got.pencil.f0, *got.pencil.terms)):
                assert exactnum.qmatmul(U.T, F, U).tolist() == G.tolist()
            assert (got.var_names, got.objective, got.objective_offset, got.name) == (
                sub.var_names, sub.objective, sub.objective_offset, sub.name
            )
            searched = got

    @pytest.mark.parametrize(
        "pencil, eliminated",
        [
            # diag(y, -y) >= 0 forces y = 0
            (MatrixPencil.from_upper(2, "exact", [], [("y", [(0, 0, 1), (1, 1, -1)])]), ("y",)),
            # the 3 x 3 zero pencil without variables
            (MatrixPencil.from_upper(3, "exact", [], []), ()),
        ],
        ids=["diag-y-minus-y", "zero-3"],
    )
    def test_full_rank_certificate_ends_at_the_face_zero(self, pencil, eliminated):
        # the certificate I/n has rank n: the face is {0}, so the loop ends
        # before restricting, with the substituted, all-zero problem
        prob = SdpProblem(pencil=pencil, objective=(quad(1),) * pencil.m, name="face-zero")
        final, rounds, verdict = reduce_problem(prob)
        (r,) = rounds
        assert (r.certificate.rank, r.face) == (pencil.n, ())
        assert r.constraints.eliminated_names == eliminated
        assert final is r.problem is r.substituted
        assert (final.pencil.n, final.pencil.m) == (pencil.n, 0)
        assert not any(map(bool, final.pencil.f0.flat))
        assert verdict == StrictlyFeasible(
            exact=True,
            tolerance=None,
            detail="every feasible F(y) is zero: the reduced problem has no conic constraint",
        )


class TestReductionErrors:
    @pytest.mark.parametrize(
        "cls, base",
        [
            (RoundingFailedError, RuntimeError),
            (SolverFailedError, RuntimeError),
            (InconsistentConstraintsError, ValueError),
        ],
    )
    def test_one_family_on_the_old_bases(self, cls, base):
        assert issubclass(cls, ReductionError) and issubclass(cls, base)
        # raised outside reduce_problem, an error carries no rounds
        exc = cls("failed")
        assert exc.rounds == () and exc.certificate is None


class TestInfeasibleSide:
    """Infeasible pencils, whose verdicts are wrong today: both tests flip
    once infeasible input gets an exact Infeasible verdict."""

    @pytest.mark.xfail(strict=True, reason="the numeric branch calls it strictly feasible")
    def test_strongly_infeasible_pencil_is_never_strictly_feasible(self):
        # F0 = -diag(1, 2, 3), F_y = diag(1, -1, 1) + (E12 + E21)/3: the
        # Farkas matrix X = diag(0, 1, 1) has <F_y, X> = 0 and <F0, X> = -5
        pencil = MatrixPencil.from_upper(
            3,
            "exact",
            [(0, 0, -1), (1, 1, -2), (2, 2, -3)],
            [("y", [(0, 0, 1), (1, 1, -1), (2, 2, 1), (0, 1, Fraction(1, 3))])],
        )
        prob = SdpProblem(pencil=pencil, objective=(quad(0),), name="farkas")
        X = qarray([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert list(model.pencil_pairing(pencil, X)) == [quad(-5), quad(0)]
        assert not isinstance(find_reducing_certificate(prob), StrictlyFeasible)

    @pytest.mark.xfail(strict=True, raises=InconsistentConstraintsError)
    def test_weakly_infeasible_pencil_reduces_to_a_verdict(self):
        # F(y) = [[y, 1], [1, 0]]: the certificate e2 e2^T implies 1 = 0, an
        # exact proof of infeasibility that is raised as an error today
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 1, 1)], [("y", [(0, 0, 1)])])
        prob = SdpProblem(pencil=pencil, objective=(quad(1),), name="weakly-infeasible")
        reduce_problem(prob)


class TestExactProductSites:
    """The stacked exact products of facial, at their edges and against the
    loop-based products they replace."""

    def test_pencil_without_variables(self):
        # the stacked pencil is F0 alone
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 0, 1)], [])
        prob = SdpProblem(pencil=pencil, objective=())
        assert verify_certificate_matrix(prob, qarray([[0, 0], [0, 1]])) == []
        assert verify_certificate_matrix(prob, qarray([[1, 0], [0, 1]])) == [
            "<F0, X> = 1 != 0"
        ]
        cons = derive_implicit_constraints(prob, [qarray([0, 1])])
        assert cons == ImplicitConstraintSet(eliminated=())
        with pytest.raises(InconsistentConstraintsError, match="inconsistent"):
            derive_implicit_constraints(prob, [qarray([1, 0])])

    def test_verify_reports_a_wrong_shape_or_asymmetry(self):
        toy = chsh_toy_pencil()
        assert verify_certificate_matrix(toy, qarray([[1, 0], [0, 1]])) == [
            "X has shape (2, 2), expected (5, 5)"
        ]
        X = qzeros(5)
        X[3, 4] = quad(1)
        assert verify_certificate_matrix(toy, X) == ["X is not symmetric"]
        # a float X is a problem too, not a TypeError from its split
        assert verify_certificate_matrix(toy, np.eye(5)) == ["X has a non-exact entry"]

    def test_no_range_vectors(self):
        cons = derive_implicit_constraints(planted_chain_problem(), [])
        assert cons == ImplicitConstraintSet(eliminated=())

    def test_verify_reports_every_nonzero_inner_product(self):
        prob = planted_chain_problem()
        problems = verify_certificate_matrix(prob, qarray(np.eye(3, dtype=int).tolist()))
        # <Q, I> = tr Q, in pencil order, for F0 and every term
        traces = [
            (label, sum(Q[i, i] for i in range(3)))
            for label, Q in zip(
                ("F0", "F_a", "F_b", "F_s"), (prob.pencil.f0, *prob.pencil.terms)
            )
        ]
        assert problems == [f"<{label}, X> = {t} != 0" for label, t in traces if t]
        assert len(problems) >= 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda: planted_chain(np.random.default_rng(4), 4, 2),
            lambda: planted_chain(np.random.default_rng(4), 4, 2, sqrt5=True),
            lambda: planted_chain(np.random.default_rng(8), 8, 2),
            lambda: planted_chain(np.random.default_rng(8), 8, 2, sqrt5=True),
            golden_face_problem,
        ],
        ids=["n4-rational", "n4-sqrt5", "n8-rational", "n8-sqrt5", "golden-face"],
    )
    def test_reduction_equals_loop_products(self, make, monkeypatch):
        prob = make()

        def outcome():
            final, rounds, verdict = reduce_problem(prob)
            X = rounds[0].certificate.X
            return (
                [(r.certificate.as_dict(), r.constraints.as_dict()) for r in rounds],
                problem_to_json_str(final),
                verdict,
                verify_certificate_matrix(prob, X + X),
                verify_certificate_matrix(prob, qarray(np.eye(prob.pencil.n, dtype=int).tolist())),
            )

        fast = outcome()
        # every pencil product (congruence, verification, derivation,
        # substitution) is a product of splits
        monkeypatch.setattr(QSplit, "__matmul__", reference_split_matmul)
        assert outcome() == fast


def assert_split_handed_on(pencil):
    """The pencil carries its stack's split, made without reading its
    Fractions, and equal by value to a fresh split over the same least
    common denominator."""
    assert "split" in vars(pencil)
    S, fresh = pencil.split, split(np.stack([pencil.f0, *pencil.terms]))
    assert S.shape == fresh.shape and S.d == fresh.d
    assert all(g == w for g, w in zip(S.join().flat, fresh.join().flat))


class TestSplitCarried:
    """A pencil is split once; a reduced pencil gets its split handed on."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: planted_chain(np.random.default_rng(4), 4, 2),
            lambda: planted_chain(np.random.default_rng(4), 4, 2, sqrt5=True),
            lambda: planted_chain(np.random.default_rng(8), 8, 2),
            lambda: planted_chain(np.random.default_rng(8), 8, 2, sqrt5=True),
            golden_face_problem,
        ],
        ids=["n4-rational", "n4-sqrt5", "n8-rational", "n8-sqrt5", "golden-face"],
    )
    def test_reduction_hands_on_the_split(self, make):
        prob = make()
        _, rounds, _ = reduce_problem(prob)
        assert rounds
        for r in rounds:
            assert_split_handed_on(r.problem.pencil)
        # relations that touch kept rows, with sqrt5 parts and denominators
        rng = random.Random(prob.name)
        for _ in range(2):
            assert_split_handed_on(apply_constraints(prob, random_relations(prob, rng)).pencil)

    @pytest.mark.parametrize(
        "line, vectors",
        [(line1, line1_null_vectors), (line2, line2_null_vectors)],
        ids=["line1", "line2"],
    )
    def test_bell_reductions_hand_on_the_split(self, line, vectors):
        raw = almost_quantum_pencil(line())
        cons = derive_implicit_constraints(raw, vectors())
        assert_split_handed_on(apply_constraints(raw, cons).pencil)

    def test_each_pencil_is_split_at_most_once(self, monkeypatch):
        prob = planted_chain(np.random.default_rng(8), 8, 2)
        seen = []

        def recording(X, real=exactnum.split):
            seen.append(X)
            return real(X)

        for module in (exactnum, model, facial, certify, solver, cli):
            if hasattr(module, "split"):
                monkeypatch.setattr(module, "split", recording)
        _, rounds, _ = reduce_problem(prob)
        assert len(rounds) == 2

        def splits_of(pencil):
            # the stack, or any one of its matrices, split from its Fractions
            mats = (pencil.f0, *pencil.terms)
            shape = (len(mats), pencil.n, pencil.n)
            return sum(
                any(X is M for M in mats)
                or (np.shape(X) == shape and np.array_equal(X, np.stack(mats)))
                for X in seen
                if not isinstance(X, QSplit)
            )

        assert splits_of(prob.pencil) == 1
        for r in rounds:
            assert "split" in vars(r.problem.pencil)
            assert splits_of(r.problem.pencil) == 0


class TestSerialization:
    def test_certificate_dict(self):
        cert = find_reducing_certificate(chsh_toy_pencil())
        doc = cert.as_dict()
        assert doc["n"] == 5
        assert len(doc["range_vectors"]) == 2

    def test_constraints_dict(self):
        cons = derive_implicit_constraints(chsh_toy_pencil(), toy_null_vectors())
        doc = cons.as_dict()
        assert len(doc["eliminated"]) == 5
        assert all(e["coeffs"] == {} and e["const"] == "0" for _, e in doc["eliminated"])


def assert_problems_equal(a, b):
    pa, pb = a.pencil, b.pencil
    assert pa.n == pb.n
    assert pa.var_names == pb.var_names
    for i in range(pa.n):
        for j in range(pa.n):
            assert pa.f0[i, j] == pb.f0[i, j], f"F0 at ({i},{j})"
    for name, ta, tb in zip(pa.var_names, pa.terms, pb.terms):
        for i in range(pa.n):
            for j in range(pa.n):
                assert ta[i, j] == tb[i, j], f"{name} at ({i},{j})"
    assert tuple(a.objective) == tuple(b.objective)
