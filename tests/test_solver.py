"""Interior-point solver: correctness on certified problems, honest failure modes."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from strictfeas.model import (
    MatrixPencil,
    SdpProblem,
    StatusTag,
    pencil_eval,
    to_double,
)
from strictfeas import bell, facial, solver
from strictfeas.solver import (
    FEAS_TOL,
    GAP_TOL,
    InvalidProblemError,
    _factor_schur,
    _max_steps,
    _nt_frame,
    _scaled_schur,
    _sym,
    diagnostics_report,
    solve_sdp,
)

from helpers import interior_problem, random_certified_sdp, span_margin_problem


def simple_interval_problem():
    # maximize y s.t. diag(1 - y, 1 + y) >= 0  ->  y* = 1
    pencil = MatrixPencil(
        n=2,
        scalar="double",
        f0=np.eye(2),
        var_names=("y",),
        terms=(np.diag([-1.0, 1.0]),),
    )
    return SdpProblem(pencil=pencil, objective=(1.0,), name="interval")


def unattained_problem():
    # maximize y s.t. [[0, y], [y, 1]] >= 0: optimum 0, primal not attained
    pencil = MatrixPencil(
        n=2,
        scalar="double",
        f0=np.array([[0.0, 0.0], [0.0, 1.0]]),
        var_names=("y",),
        terms=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
    )
    return SdpProblem(pencil=pencil, objective=(1.0,), name="unattained")


class TestBasics:
    def test_interval_problem(self):
        res = solve_sdp(simple_interval_problem())
        assert res.status.tag is StatusTag.OPTIMAL
        assert res.objective_dual == pytest.approx(1.0, abs=1e-7)
        assert res.y["y"] == pytest.approx(1.0, abs=1e-7)

    def test_optimal_invariants(self):
        res = solve_sdp(simple_interval_problem())
        d = res.diagnostics
        assert abs(res.objective_primal - res.objective_dual) <= GAP_TOL * (
            1 + abs(res.objective_primal)
        )
        assert d.primal_residual <= FEAS_TOL
        assert d.dual_residual <= FEAS_TOL
        assert d.min_slack_eigenvalue_estimate >= -10 * FEAS_TOL
        assert abs(
            sum(
                b * res.y[v]
                for b, v in zip(
                    simple_interval_problem().objective,
                    simple_interval_problem().var_names,
                )
            )
            - res.objective_dual
        ) <= 1e-12

    def test_determinism(self):
        # m = 30 is the size of a certificate search's margin problem; the
        # last case is a margin solve that stops at its objective cut
        cases = [
            (random_certified_sdp(np.random.default_rng(4), n, m)[0], None)
            for n, m in ((4, 3), (8, 30))
        ]
        prob, _ = interior_problem(np.random.default_rng(778), 9, 8, 3)
        cases.append((facial.build_alternative_problem(prob), facial.FEAS_CUT))
        for prob, cut in cases:
            r1 = solve_sdp(prob, stop_above=cut)
            r2 = solve_sdp(prob, stop_above=cut)
            # the whole result: status and message, every diagnostic
            # (history, condition estimate, regularized iterations, slack
            # eigenvalue, ...) and the iterate, X bit for bit
            assert r1.status == r2.status
            assert r1.diagnostics == r2.diagnostics
            assert r1.objective_primal == r2.objective_primal
            assert r1.objective_dual == r2.objective_dual
            assert r1.y == r2.y
            assert r1.X.tobytes() == r2.X.tobytes()
        assert r1.status.tag is StatusTag.OBJECTIVE_CUT_REACHED

    def test_offset_reported_not_iterated(self):
        prob = simple_interval_problem()
        shifted = replace(prob, objective_offset=2.5)
        r0, r1 = solve_sdp(prob), solve_sdp(shifted)
        assert r1.diagnostics.iterations == r0.diagnostics.iterations
        assert r1.diagnostics.final_gap == r0.diagnostics.final_gap
        assert r1.y == r0.y
        assert r1.objective_dual == r0.objective_dual + 2.5
        assert r1.objective_primal == r0.objective_primal + 2.5

    def test_rejects_exact_scalars(self):
        from strictfeas.exactnum import quad
        from strictfeas.model import MatrixPencil as MP

        pencil = MP.from_upper(1, "exact", [(0, 0, 1)], [("y", [(0, 0, 1)])])
        with pytest.raises(InvalidProblemError):
            solve_sdp(SdpProblem(pencil=pencil, objective=(quad(1),)))

    def test_rejects_invalid_problem(self):
        M = np.zeros((2, 2))
        M[0, 1] = 1.0
        pencil = MatrixPencil(
            n=2, scalar="double", f0=M, var_names=(), terms=()
        )
        with pytest.raises(InvalidProblemError):
            solve_sdp(SdpProblem(pencil=pencil, objective=()))


class TestNewtonSystem:
    def test_schur_complement_matches_pairwise_reference(self):
        rng = np.random.default_rng(7)
        n, m = 9, 36
        S = rng.standard_normal((m, n, n))
        A = S + S.transpose(0, 2, 1)
        G = rng.standard_normal((n, n)) + 2 * np.eye(n)
        W = G @ G.T
        ref = np.array([[np.tensordot(Ai, W @ Aj @ W, axes=2) for Aj in A] for Ai in A])
        Af, M = _scaled_schur(A, G)
        assert np.array_equal(M, M.T)
        # summation order differs from the reference, not the arithmetic
        tol = 4 * n * n * np.finfo(float).eps * np.abs(ref).max()
        assert np.max(np.abs(M - ref)) <= tol
        # the rows of Af are the scaled matrices G^T A_i G
        assert np.array_equal(Af, np.array([(G.T @ Ai @ G).ravel() for Ai in A]))

    def test_regularized_factorization_is_counted(self, monkeypatch):
        factor = solver._factor_schur
        calls = []

        def regularized_once(M):
            calls.append(M)
            Li, cond, regularized = factor(M)
            return Li, cond, regularized or len(calls) == 1

        monkeypatch.setattr(solver, "_factor_schur", regularized_once)
        res = solve_sdp(simple_interval_problem())
        assert res.status.tag is StatusTag.OPTIMAL
        assert res.diagnostics.regularized_iterations == 1
        assert "regularized Newton system: 1" in diagnostics_report(res)

    def test_non_finite_newton_system_is_trouble(self, monkeypatch):
        monkeypatch.setattr(
            solver,
            "_scaled_schur",
            lambda A, G: (np.zeros((A.shape[0], G.size)), np.full((A.shape[0],) * 2, np.nan)),
        )
        res = solve_sdp(simple_interval_problem())
        assert res.status.tag is StatusTag.NUMERICAL_TROUBLE

    @pytest.mark.parametrize("which", ["X", "Z"])
    def test_lost_definiteness_is_trouble(self, which, monkeypatch):
        # a full step that leaves X (dX^ shifted by -1e3 I) or Z (dy pushed
        # along diag(1, -1)) indefinite fails the next iteration's Cholesky
        # factorization of (X, Z): the solve ends as NumericalTrouble and
        # does not raise
        newton, cholesky = solver._newton, np.linalg.cholesky
        failed = []

        def overshooting(Af, Li, Rp, Rd, Rc):
            dy, dXh, dZh = newton(Af, Li, Rp, Rd, Rc)
            if which == "X":
                return dy, dXh - 1e3 * np.eye(len(dXh)), dZh
            return dy + 1e3, dXh, dZh

        def recording(M):
            try:
                return cholesky(M)
            except np.linalg.LinAlgError:
                failed.append(M)
                raise

        monkeypatch.setattr(solver, "_max_steps", lambda scale, dXh, dZh: (1.0, 1.0))
        monkeypatch.setattr(solver, "_newton", overshooting)
        monkeypatch.setattr(np.linalg, "cholesky", recording)
        res = solve_sdp(simple_interval_problem())
        assert res.status.tag is StatusTag.NUMERICAL_TROUBLE
        assert res.status.message.startswith("factorization failed")
        assert res.diagnostics.iterations == 1
        (XZ,) = failed
        assert dict(zip("XZ", np.linalg.eigvalsh(XZ)[:, 0]))[which] < 0

    def test_condition_estimate_tracks_the_schur_complement(self, monkeypatch):
        # the reported value is the 1-norm condition number of the last
        # factored matrix, up to the rounding of its inverse
        schur = solver._scaled_schur
        seen = []

        def recording(A, G):
            Af, M = schur(A, G)
            seen.append(M)
            return Af, M

        monkeypatch.setattr(solver, "_scaled_schur", recording)
        prob, _, _ = random_certified_sdp(np.random.default_rng(5), 5, 4)
        res = solve_sdp(prob)
        assert res.diagnostics.regularized_iterations == 0
        exact = np.linalg.cond(seen[-1], 1)
        m = seen[-1].shape[0]
        assert res.diagnostics.condition_estimate == pytest.approx(
            exact, rel=m * exact * np.finfo(float).eps
        )

    def test_nt_scaling_survives_shared_tiny_eigenvalue(self):
        # near the optimum X Z ~ 0; when X and Z share one tiny eigenvalue,
        # Lz^T Lx has a singular value ~1e-15 at roundoff level
        rng = np.random.default_rng(11)
        tiny = 1e-15
        for _ in range(200):
            Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            dx = np.concatenate([rng.uniform(0.5, 2.0, 3), [tiny] * 3])
            dz = np.concatenate([[tiny] * 4, rng.uniform(0.5, 2.0, 2)])
            X, Z = _sym((Q * dx) @ Q.T), _sym((Q * dz) @ Q.T)
            G, d = _nt_frame(*np.linalg.cholesky(np.array((X, Z))))
            W = G @ G.T
            assert np.all(np.isfinite(G)) and np.all(d > 0)
            assert np.array_equal(W, W.T)
            assert np.linalg.eigvalsh(W)[0] > 0

    def test_nt_frame_scales_x_and_z_to_one_diagonal(self):
        # G^{-1} X G^{-T} = G^T Z G = diag(d), and W = G G^T has W Z W = X
        rng = np.random.default_rng(12)
        for n in (1, 3, 9):
            X, Z = _spd(rng, n), _spd(rng, n)
            G, d = _nt_frame(np.linalg.cholesky(X), np.linalg.cholesky(Z))
            Gi = np.linalg.inv(G)
            scale = np.abs(d).max()
            assert np.abs(Gi @ X @ Gi.T - np.diag(d)).max() <= 1e-9 * scale
            assert np.abs(G.T @ Z @ G - np.diag(d)).max() <= 1e-9 * scale
            W = G @ G.T
            assert np.abs(W @ Z @ W - X).max() <= 1e-9 * np.abs(X).max()


def _spd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T + 1e-3 * np.eye(n)


class TestCallLayout:
    """The iteration's stacked calls are the same float arithmetic as the
    per-matrix calls they replace, equal bit for bit; its factored Newton
    solves agree with a direct solve up to rounding."""

    def test_factored_solve_matches_a_direct_solve(self):
        rng = np.random.default_rng(31)
        eps = np.finfo(float).eps
        for m in (1, 2, 5, 9, 35):
            for _ in range(5):
                M = _spd(rng, m)
                rhs = rng.standard_normal(m)
                Li, cond, regularized = _factor_schur(M)
                assert not regularized
                exact = np.linalg.cond(M, 1)
                # Li^T Li = M^{-1}: the Newton step's two matrix-vector products
                x, ref = Li.T @ (Li @ rhs), np.linalg.solve(M, rhs)
                assert np.abs(x - ref).max() <= 4 * m * exact * eps * np.abs(ref).max()
                assert cond == pytest.approx(exact, rel=4 * m * exact * eps)

    def test_indefinite_schur_complement_is_regularized(self):
        rng = np.random.default_rng(36)
        for m in (1, 2, 5, 9, 35):
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            lam = np.concatenate([[-1e-13], rng.uniform(1.0, 2.0, m - 1)])
            M = _sym((Q * lam) @ Q.T)
            assert np.linalg.eigvalsh(M)[0] < 0
            Li, cond, regularized = _factor_schur(M)
            assert regularized
            assert np.all(np.isfinite(Li)) and np.isfinite(cond)
            with pytest.raises(np.linalg.LinAlgError, match="factorization failed"):
                _factor_schur(M - 2 * np.eye(m))

    def test_stacked_step_lengths_match_per_matrix_calls(self):
        rng = np.random.default_rng(34)

        def one(d, dS):
            # D^{-1/2} dS D^{-1/2}, entry by entry
            r = 1.0 / np.sqrt(d)
            lam_min = float(np.linalg.eigvalsh(dS * np.outer(r, r))[0])
            return np.inf if lam_min >= 0 else -1.0 / lam_min

        for n in (2, 9, 12):
            d = rng.uniform(1e-3, 2.0, n)
            S = rng.standard_normal((n, n))
            dX, dZ = S + S.T, _spd(rng, n)  # dZ >= 0: an unbounded step
            r = 1.0 / np.sqrt(d)
            steps = _max_steps(np.outer(r, r), dX, dZ)
            assert steps == (one(d, dX), one(d, dZ))
            assert steps[1] == np.inf
            # the step found is the one to the boundary: D + a dX is singular
            lam = np.linalg.eigvalsh(np.diag(d) + steps[0] * dX)
            assert abs(lam[0]) <= 1e-9 * np.abs(lam).max()

    def test_reduction_one_norm_matches_norm(self):
        # the largest column sum of |M| is numpy's own norm(M, 1), and the
        # condition number is its product for M and Li^T Li
        rng = np.random.default_rng(37)
        for m in (1, 9, 35):
            M = _spd(rng, m)
            Li, cond, _ = _factor_schur(M)
            assert cond == float(np.linalg.norm(M, 1) * np.linalg.norm(Li.T @ Li, 1))
            for S in (M, Li.T @ Li, rng.standard_normal((m, m))):
                assert np.abs(S).sum(axis=0).max() == np.linalg.norm(S, 1)

    def test_broadcasts_match_outer(self):
        rng = np.random.default_rng(38)
        for n in (2, 9, 12):
            d = rng.uniform(1e-3, 2.0, n)
            r = 1.0 / np.sqrt(d)
            assert (r[:, None] * r).tobytes() == np.outer(r, r).tobytes()
            assert (d[:, None] + d).tobytes() == np.add.outer(d, d).tobytes()

    def test_diagonal_view_add_matches_flat(self):
        rng = np.random.default_rng(39)
        for n in (2, 9, 12):
            d = rng.uniform(1e-3, 2.0, n)
            P = rng.standard_normal((n, n))
            shift = 0.3 / d - d
            Rc = -(P + P.T) / (d[:, None] + d)
            assert Rc.flags.c_contiguous
            ref = Rc.copy()
            ref.flat[:: n + 1] += shift
            Rc.ravel()[:: n + 1] += shift
            assert Rc.tobytes() == ref.tobytes()
            # ravel() of a non-contiguous array is a copy: the add is lost
            T = ref.T.copy().T
            T.ravel()[:: n + 1] += shift
            assert T.tobytes() == ref.tobytes()

    def test_flat_dot_matches_tensordot(self):
        rng = np.random.default_rng(35)
        for n in (1, 4, 9, 12):
            a, b = rng.standard_normal((2, n, n))
            assert a.ravel() @ b.ravel() == np.tensordot(a, b, axes=2)


class TestNtDirection:
    """The direction of one iteration, recorded from the solver's own calls,
    against the Newton system it is to solve."""

    def test_direction_solves_the_nt_newton_system(self, monkeypatch):
        frames, solves = [], []
        frame, newton = solver._nt_frame, solver._newton

        def recording_frame(Xh, Zh):
            frames.append(frame(Xh, Zh))
            return frames[-1]

        def recording_newton(Af, Li, Rp, Rd, Rc):
            solves.append(((Rp, Rd, Rc), newton(Af, Li, Rp, Rd, Rc)))
            return solves[-1][1]

        monkeypatch.setattr(solver, "_nt_frame", recording_frame)
        monkeypatch.setattr(solver, "_newton", recording_newton)
        prob, _, _ = random_certified_sdp(np.random.default_rng(9), 6, 5)
        res = solve_sdp(prob)
        assert res.status.tag is StatusTag.OPTIMAL
        A = -np.array(prob.pencil.terms)
        n = A.shape[1]
        for k in (0, 3, len(frames) - 1):
            G, d = frames[k]
            D = np.diag(d)
            _, (_, dX_a, dZ_a) = solves[2 * k]
            (Rp, Rd_h, _), (dy, dX_h, dZ_h) = solves[2 * k + 1]
            # A(dX) = Rp for the dX taken, G dXh G^T; A^T dy + dZ = Rd is
            # read in the scaled frame, G^T (A^T dy) G + dZh = G^T Rd G,
            # since mapping dZh back would add the conditioning of G.
            # Each is relative to the size of the terms summed, Rp and Rd
            # being roundoff once the iterate is feasible.
            dX = G @ dX_h @ G.T
            AdX = np.tensordot(A, dX, axes=2)
            size = np.tensordot(np.abs(A), np.abs(dX), axes=2)
            assert np.all(np.abs(AdX - Rp) <= 1e-9 * size.max())
            A_h = G.T @ A @ G
            Aty = np.tensordot(dy, A_h, axes=1)
            size = np.tensordot(np.abs(dy), np.abs(A_h), axes=1) + np.abs(dZ_h)
            assert np.all(np.abs(Aty + dZ_h - Rd_h) <= 1e-9 * size.max())
            # NT complementarity, linearized at X^ = Z^ = D, with the
            # second-order term of the predictor
            sigma = res.diagnostics.history[k]["sigma"]
            mu = d @ d / n
            lhs = D @ (dX_h + dZ_h) + (dX_h + dZ_h) @ D
            P = dX_a @ dZ_a
            rhs = 2 * sigma * mu * np.eye(n) - 2 * D @ D - (P + P.T)
            assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()

    def test_history_records_each_step(self):
        res = solve_sdp(simple_interval_problem())
        *steps, last = res.diagnostics.history
        assert steps
        for snap in steps:
            assert 0 < snap["step_p"] <= 1 and 0 < snap["step_d"] <= 1
            assert 0 <= snap["sigma"] <= 1
        # no step is taken from the final iterate
        assert last["step_p"] is last["step_d"] is last["sigma"] is None


class TestIterationGuard:
    def test_margin_solves_of_interior_problems(self):
        # the margin problems of strictly feasible pencils are strictly
        # complementary; an NT corrector solves each in about ten iterations
        total = 0
        for seed in (778, 779, 905):
            rng = np.random.default_rng(seed)
            for rank in range(1, 9):
                prob, _ = interior_problem(rng, 9, 8, rank)
                res = solve_sdp(facial.build_alternative_problem(prob))
                assert res.status.tag is StatusTag.OPTIMAL, (seed, rank, res.status)
                assert res.diagnostics.iterations <= 12, (seed, rank)
                total += res.diagnostics.iterations
        assert total <= 250

    def test_raw_solves_of_interior_problems(self):
        # the least-squares start begins with both residuals at the size of
        # its shifts; from the identity start the total was 294, the largest
        # count 15
        total = 0
        for seed in (778, 779, 905):
            rng = np.random.default_rng(seed)
            for rank in range(1, 9):
                prob, optimum = interior_problem(rng, 9, 8, rank)
                res = solve_sdp(to_double(prob))
                assert res.status.tag is StatusTag.OPTIMAL, (seed, rank, res.status)
                assert res.objective_dual == pytest.approx(float(optimum), abs=1e-6)
                assert res.diagnostics.iterations <= 12, (seed, rank)
                total += res.diagnostics.iterations
        assert total <= 215


def _hex(v) -> str:
    return "None" if v is None else float(v).hex()


def _solve_digest(results) -> str:
    """sha256 over each result's status, iteration count, y, X and history,
    every float by its exact bits."""
    h = hashlib.sha256()
    for res in results:
        d = res.diagnostics
        h.update(f"{res.status.tag.value}|{d.iterations}|".encode())
        h.update(",".join(f"{k}={_hex(v)}" for k, v in res.y.items()).encode())
        h.update(np.ascontiguousarray(res.X, dtype=float).tobytes())
        for snap in d.history:
            h.update(";".join(f"{k}={_hex(v)}" for k, v in snap.items()).encode())
    return h.hexdigest()


def _two_by_two(f0, terms, objective) -> SdpProblem:
    pencil = MatrixPencil(
        n=2,
        scalar="double",
        f0=np.array(f0, dtype=float),
        var_names=tuple(f"y{i}" for i in range(len(terms))),
        terms=tuple(np.array(t, dtype=float) for t in terms),
    )
    return SdpProblem(pencil=pencil, objective=tuple(objective))


# positive definite, but not diagonally dominant: 2 * 1 < 1 + 2
NOT_DOMINANT = [[1.0, 2.0], [2.0, 5.0]]


class TestStartingPoint:
    def test_dominant_f0_starts_dual_feasible(self):
        # Z = F0 and y = 0 satisfy the dual equation exactly
        res = solve_sdp(simple_interval_problem())
        assert res.diagnostics.start == "F0"
        assert res.diagnostics.history[0]["res_d"] == 0.0

    def test_margin_solves_are_the_f0_start_bit_for_bit(self):
        # every margin problem over the pencil's span has F0 = I/n, so it
        # takes the F0 start; the digest is the one these solves gave before
        # the least-squares start.  The toy's search poses its margin SDP on
        # the slice side, so its span form is built here directly
        probs = [
            bell.almost_quantum_pencil(bell.line1()),
            bell.almost_quantum_pencil(bell.line2()),
            bell.chsh_toy_pencil(),
        ]
        rng = np.random.default_rng(778)
        probs += [interior_problem(rng, 9, 8, rank)[0] for rank in range(1, 9)]
        results = [solve_sdp(span_margin_problem(p)) for p in probs]
        assert {r.diagnostics.start for r in results} == {"F0"}
        assert _solve_digest(results) == (
            "2ee9352ef6fdc12fd1d93d44d50080abc5625351d35738f8718fd30f08abfaf6"
        )

    def test_least_squares_start_on_a_non_dominant_f0(self):
        prob, optimum = interior_problem(np.random.default_rng(778), 9, 8, 3)
        res = solve_sdp(to_double(prob))
        assert res.diagnostics.start == "least-squares"
        assert res.status.tag is StatusTag.OPTIMAL
        assert res.objective_dual == pytest.approx(float(optimum), abs=1e-6)
        # X~ solves A(X) = b and Z~ the dual equation, so the first
        # residuals are the shifts' alone (1.4 and 0.24; from the identity
        # start they are 228 and 2.0)
        first = res.diagnostics.history[0]
        assert first["res_p"] < 10.0 and first["res_d"] < 1.0

    @pytest.mark.parametrize(
        "f0, terms, objective, value",
        [
            # b = 0: X~ = 0, and every feasible y is optimal
            (NOT_DOMINANT, [[[1.0, 0.0], [0.0, -1.0]]], [0.0], 0.0),
            # C = 0: Z~ = 0; maximize -y s.t. y I >= 0 has optimum 0
            ([[0.0, 0.0], [0.0, 0.0]], [[[1.0, 0.0], [0.0, 1.0]]], [-1.0], 0.0),
        ],
        ids=["b=0", "C=0"],
    )
    def test_start_without_scale_keeps_the_identity(self, f0, terms, objective, value):
        # <X^, Z^> = 0: the least-squares point carries no scale, and the
        # test comes before any division by it
        res = solve_sdp(_two_by_two(f0, terms, objective))
        assert res.diagnostics.start == "identity"
        assert res.status.tag is StatusTag.OPTIMAL
        assert res.objective_dual == pytest.approx(value, abs=1e-7)

    def test_dependent_constraint_matrices_are_rejected(self):
        # the least-squares start's SVD is the rank test off the dominant
        # branch (TestDegenerateCases covers F0 = I)
        t = [[1.0, 0.0], [0.0, -1.0]]
        prob = _two_by_two(NOT_DOMINANT, [t, [[2.0, 0.0], [0.0, -2.0]]], [1.0, 0.0])
        with pytest.raises(InvalidProblemError, match="linearly dependent constraint matrices"):
            solve_sdp(prob)


def _same_iterates(r1, r2) -> bool:
    return (
        np.array_equal(r1.X, r2.X)
        and r1.y == r2.y
        and r1.diagnostics.history == r2.diagnostics.history
    )


def _cut_cases():
    """(id, double problem, an upper bound on its maximum)."""
    yield "problem1-raw", to_double(bell.almost_quantum_pencil(bell.line1())), 0.0
    yield "problem2-raw", to_double(bell.almost_quantum_pencil(bell.line2())), 0.2
    yield "chsh-toy", to_double(bell.chsh_toy_pencil()), 0.0
    prob, optimum = interior_problem(np.random.default_rng(778), 9, 8, 3)
    yield "interior", to_double(prob), float(optimum)


class TestObjectiveCut:
    @pytest.mark.parametrize("case", list(_cut_cases()), ids=lambda c: c[0])
    def test_unreached_cut_changes_no_iterate(self, case):
        _, prob, bound = case
        plain = solve_sdp(prob)
        for stop_above in (None, bound + 1e-3):
            res = solve_sdp(prob, stop_above=stop_above)
            assert res.status == plain.status
            assert _same_iterates(res, plain)

    def test_reached_cut_stops_at_a_strictly_feasible_point(self):
        prob = facial.build_alternative_problem(
            interior_problem(np.random.default_rng(778), 9, 8, 3)[0]
        )
        full = solve_sdp(prob)
        res = solve_sdp(prob, stop_above=facial.FEAS_CUT)
        assert res.status.tag is StatusTag.OBJECTIVE_CUT_REACHED
        assert facial.FEAS_CUT < res.objective_dual <= full.objective_dual
        assert res.diagnostics.iterations < full.diagnostics.iterations
        np.linalg.cholesky(pencil_eval(prob.pencil, res.y))
        # the steps up to the cut are the full solve's
        *steps, _ = res.diagnostics.history
        assert steps == full.diagnostics.history[: len(steps)]

    def test_cut_on_the_interval_problem(self):
        # maximize y s.t. diag(1 - y, 1 + y) >= 0: any 0.5 < y < 1 beats 0.5
        res = solve_sdp(simple_interval_problem(), stop_above=0.5)
        assert res.status.tag is StatusTag.OBJECTIVE_CUT_REACHED
        assert 0.5 < res.y["y"] < 1.0

    def test_failed_check_lets_the_solve_go_on(self, monkeypatch):
        # every F(y) (2 x 2; the Schur complement is 1 x 1 and the iterate
        # stack 2 x 2 x 2) fails its factorization: the solve runs to the
        # optimum as without a cut, and the failures are not reported
        plain = solve_sdp(simple_interval_problem())
        cholesky = np.linalg.cholesky
        refused = []

        def refusing(M):
            if M.shape == (2, 2):
                refused.append(M)
                raise np.linalg.LinAlgError("refused")
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "cholesky", refusing)
        res = solve_sdp(simple_interval_problem(), stop_above=0.5)
        assert refused
        assert res.status == plain.status and res.status.tag is StatusTag.OPTIMAL
        assert _same_iterates(res, plain)
        assert "refused" not in diagnostics_report(res)


class TestRandomCertified:
    def test_twenty_random_problems(self):
        rng = np.random.default_rng(20250810)
        for k in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(7, n * (n + 1) // 2)))
            prob, optimum, interior = random_certified_sdp(rng, n, m)
            # the advertised interior point really is strictly feasible
            slack = pencil_eval(prob.pencil, interior)
            assert np.linalg.eigvalsh(slack)[0] > 0
            res = solve_sdp(prob)
            assert res.status.tag is StatusTag.OPTIMAL, (k, res.status)
            assert res.objective_dual == pytest.approx(optimum, abs=1e-6)
            assert res.diagnostics.min_slack_eigenvalue_estimate >= -10 * FEAS_TOL

    def test_weak_duality_along_iterates(self):
        rng = np.random.default_rng(7)
        prob, optimum, _ = random_certified_sdp(rng, 4, 3)
        res = solve_sdp(prob)
        assert res.status.tag is StatusTag.OPTIMAL
        for snap in res.diagnostics.history:
            # primal reading upper-bounds the maximization, up to infeasibility
            slack_allowance = 1e3 * (snap["res_p"] + snap["res_d"]) + 10 * GAP_TOL
            assert snap["objective_primal"] >= snap["objective_dual"] - slack_allowance


class TestFailureModes:
    def test_unattained_primal_triggers_signature(self):
        res = solve_sdp(unattained_problem())
        assert (
            not res.status.is_optimal
            or res.diagnostics.max_abs_variable > 1e6
            or abs(res.objective_dual) > 1e-6
        )

    def test_unbounded_detection(self):
        # maximize y s.t. (1 + y) [[1]] >= 0 is unbounded above
        pencil = MatrixPencil(
            n=1,
            scalar="double",
            f0=np.array([[1.0]]),
            var_names=("y",),
            terms=(np.array([[1.0]]),),
        )
        res = solve_sdp(SdpProblem(pencil=pencil, objective=(1.0,)))
        assert res.status.tag in (
            StatusTag.DUAL_UNBOUNDED_SUSPECTED,
            StatusTag.NUMERICAL_TROUBLE,
        )

    def test_unconstrained_objective_variable(self):
        pencil = MatrixPencil(
            n=1,
            scalar="double",
            f0=np.array([[1.0]]),
            var_names=("free",),
            terms=(np.zeros((1, 1)),),
        )
        res = solve_sdp(SdpProblem(pencil=pencil, objective=(1.0,)))
        assert res.status.tag is StatusTag.DUAL_UNBOUNDED_SUSPECTED


def zero_pencil_problem(b: float) -> SdpProblem:
    # F(y) = 0 for every y: every y is feasible
    pencil = MatrixPencil(
        n=2, scalar="double", f0=np.zeros((2, 2)), var_names=("y",), terms=(np.zeros((2, 2)),)
    )
    return SdpProblem(pencil=pencil, objective=(b,))


class TestDegenerateCases:
    def test_zero_pencil_nonzero_objective_is_unbounded(self):
        res = solve_sdp(zero_pencil_problem(1.0))
        assert res.status.tag is StatusTag.DUAL_UNBOUNDED_SUSPECTED
        assert res.status.message == "zero pencil, nonzero objective"

    def test_zero_pencil_zero_objective_is_optimal(self):
        res = solve_sdp(zero_pencil_problem(0.0))
        assert res.status.tag is StatusTag.OPTIMAL
        assert res.diagnostics.final_gap == 0.0
        assert res.objective_dual == res.objective_primal == 0.0

    def test_equal_terms_are_rejected(self):
        F = np.diag([1.0, -1.0])
        pencil = MatrixPencil(
            n=2, scalar="double", f0=np.eye(2), var_names=("y", "z"), terms=(F, F.copy())
        )
        with pytest.raises(InvalidProblemError, match="linearly dependent constraint matrices"):
            solve_sdp(SdpProblem(pencil=pencil, objective=(1.0, 0.0)))


class TestStructurallyZeroRows:
    def test_zero_rows_are_ignored(self):
        # rows 2,3 carry no data at all; the live 1x1 block gives y* = 2
        f0 = np.zeros((3, 3))
        f0[0, 0] = 2.0
        t = np.zeros((3, 3))
        t[0, 0] = -1.0
        pencil = MatrixPencil(
            n=3, scalar="double", f0=f0, var_names=("y",), terms=(t,)
        )
        res = solve_sdp(SdpProblem(pencil=pencil, objective=(1.0,)))
        assert res.status.tag is StatusTag.OPTIMAL
        assert res.objective_dual == pytest.approx(2.0, abs=1e-7)
        assert res.X.shape == (3, 3)
        assert np.all(res.X[1:, :] == 0)


class TestReport:
    def test_clean_report(self):
        res = solve_sdp(simple_interval_problem())
        text = diagnostics_report(res)
        assert "no strict-feasibility warning" in text
        assert "status: Optimal" in text

    def test_cut_report(self):
        res = solve_sdp(simple_interval_problem(), stop_above=0.5)
        text = diagnostics_report(res)
        assert "status: ObjectiveCutReached" in text
        assert "stopped at the objective cut; not an optimum." in text
        assert "strict-feasibility warning" not in text
        assert "recommendation" not in text

    def test_start_line(self):
        text = diagnostics_report(solve_sdp(simple_interval_problem()))
        assert "start: F0" in text.splitlines()
        prob, _ = interior_problem(np.random.default_rng(778), 9, 8, 3)
        text = diagnostics_report(solve_sdp(to_double(prob)))
        assert "start: least-squares" in text.splitlines()

    def test_troubled_report(self):
        res = solve_sdp(unattained_problem())
        text = diagnostics_report(res)
        assert "no strict-feasibility warning" not in text
        assert "strict-feasibility warning" in text
        assert "facial" in text
