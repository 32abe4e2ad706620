"""Primal-dual interior-point solver for small dense SDPs in pencil form.

Infeasible-start path following with Nesterov-Todd scaling and a
Mehrotra-style predictor-corrector, dense Cholesky on the Schur complement.
Built for n <= ~10: everything is dense, single-threaded and deterministic
(two runs on the same input produce bitwise-identical iterates).

The constraint matrices are stacked once as an (m, n, n) array with a flat
(m, n^2) view, so the operator A(X) and its adjoint are single matrix-vector
products.

Each Newton step is taken in the Nesterov-Todd scaled frame (Todd, Toh &
Tutuncu, SIAM J. Optim. 1998).  From the Cholesky factors X = Lx Lx^T and
Z = Lz Lz^T and the SVD Lz^T Lx = U S V^T, G = Lx V S^{-1/2} scales X and Z
to one diagonal, G^{-1} X G^{-T} = G^T Z G = D = diag(s), and W = G G^T is
the NT point, as in SDPT3; the singular values are never negative, while
eigenvalues of a formed X^{1/2} Z X^{1/2} near the optimum roundoff can push
below zero.  Over the scaled matrices A^_i = G^T A_i G the Schur complement
is M_ij = <A^_i, A^_j> = <A_i, W A_j W>, assembled as in SDPA/SDPT3
(Fujisawa, Kojima & Nakata, Math. Prog. 1997): one batched matmul forms
every A^_i, one GEMM forms M.  In the frame the complementarity equation is
linearized at X^ = Z^ = D, where the two commute: the predictor's
right-hand side is -D, and the corrector's is the symmetric NT one of SDPT3
(Toh, Todd & Tutuncu, Optim. Methods Softw. 1999),
    (sigma mu / d_i - d_i) delta_ij - (P + P^T)_ij / (d_i + d_j),
with P = dX^_a dZ^_a the predictor's second-order term.  Each Newton solve
is refined once against A^ itself, which keeps the primal residual from
stalling at the Cholesky solve's accuracy when M is ill-conditioned near the
optimum.  Step lengths are read off D^{-1/2} dX^ D^{-1/2}, an entrywise
scaling, and only the corrector's direction is mapped back:
dX = G dX^ G^T, and dZ = Rd - A^T dy from the dual equation itself.

At n <= ~12 an iteration costs numpy call overhead, not flops, so one
iteration makes as few calls as its arithmetic allows:
- one stacked Cholesky factorization of (X, Z), whose factors the SVD
  takes; it is also the test that both are positive definite, and a
  failed one ends the solve as NumericalTrouble;
- one SVD for G, one batched matmul for the A^_i and one GEMM for M;
- one Cholesky factorization L L^T of M, which is also the test that M is
  positive definite, and one inverse Li = L^{-1}; each of the four Newton
  solves (predictor and corrector, each refined once) is then the two
  matrix-vector products Li^T (Li r), and the exact 1-norm condition number
  of M is ||M||_1 ||Li^T Li||_1, each norm one column-sum reduction
  |M|.sum(axis=0).max(), which is how np.linalg.norm(M, 1) computes it;
- one stacked eigvalsh for the predictor's two step lengths, one for the
  corrector's, whose scaling 1/sqrt(d_i d_j) is one broadcast product;
- two products each to scale the dual residual into the frame and to map
  dX back;
- for the corrector's right-hand side, one broadcast sum d_i + d_j and one
  add through a strided view of its diagonal;
- the residuals Rp, Rd and <X, Z> of the accepted merit trial, carried into
  the next iteration rather than recomputed.
Inner products are flat dot products, a.ravel() @ b.ravel(), with the
constant term's flat view taken once per solve.  Each of these is the same
float arithmetic as its per-matrix form (np.outer, np.add.outer, .flat),
so the iterates do not depend on the layout.  Per solve, a pencil without
a structurally zero row is used as it is: C is its own F0 and the returned
X the last iterate, with no index copies.  Each history entry records the
iterate's objectives, residuals and gap, and the primal step, dual step and
sigma taken from it.

The start depends on F0.  When F0 is strictly diagonally dominant with a
positive diagonal (every margin problem of the certificate search, whose F0
is I/n), Z = F0 and y = 0 make the dual residual zero and X = xi I with xi =
max(1, |b|, |F0|).  Otherwise the start is Mehrotra's least-squares point
(SIAM J. Optim. 1992): X~ = A^T (A A^T)^{-1} b and y~ = (A A^T)^{-1} A vec(C)
solve the two linear equations in the least-squares sense, Z~ = C - A^T y~,
and each side is shifted by max(-1.5 lambda_min, 0) I, then by
0.5 <X^, Z^> / tr Z^ (for X) and 0.5 <X^, Z^> / tr X^ (for Z) times I, so
both residuals start at the size of the shifts.  One thin SVD of A gives
both least-squares solves and is the rank test that rejects linearly
dependent constraint matrices.  When the shifted pair has <X^, Z^> <= 0 (b =
0, or C in the span of the A_i) that point carries no scale, and the start
is X = xi I, Z = max(1, |F0|) I and y = 0.  `Diagnostics.start` says which
start a solve took.

Honesty is the point: when iterates blow up, steps stagnate or the Newton
system degenerates, the result is reported as NumericalTrouble rather than
passing off the last iterate as optimal.  Maximization problems whose optimum
is only approached as variables run off to infinity (the signature of a
strict-feasibility failure on the primal side) reliably trigger this.

The tolerances and failure signals are module constants, not options: on a
problem that is not strictly feasible no tolerance makes the answer
reliable, so the exact layers (`facial`, `certify`) decide instead.

A caller that needs only to know whether the maximum exceeds some value
passes it as the objective cut `stop_above`.  The first iterate, not
already Optimal, with <b, y> + offset above the cut and a float Cholesky
factor of F(y) = C - A^T y (the pencil itself, not the iterate Z) ends the
solve as ObjectiveCutReached: by weak duality that y proves the maximum is
at least its objective.  Such a result is a bound, not an optimum.  Without
a cut the test is never made, so it cannot change an iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SdpProblem, SolveStatus, StatusTag, checked_stack, pencil_eval


class InvalidProblemError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# stopping tolerances (relative gap; residuals scaled by 1 + the data's size)
GAP_TOL = 1e-9
FEAS_TOL = 1e-9
MAX_ITER = 200
# failure signals: an iterate entry beyond VAR_BOUND, a step below MIN_STEP
# for STAGNATION_ROUNDS iterations in a row, or a Schur complement condition
# beyond COND_BOUND while the gap is still far from GAP_TOL
VAR_BOUND = 1e8
MIN_STEP = 1e-3
STAGNATION_ROUNDS = 5
COND_BOUND = 1e14
# fraction of the step to the boundary of the cone
STEP_FRAC = 0.98
# float64 machine epsilon, computed once
EPS = np.finfo(float).eps
# the trouble signature `diagnostics_report` warns of: a non-optimal status,
# or a final iterate entry beyond TROUBLE_VAR_BOUND
TROUBLE_VAR_BOUND = 1e6


@dataclass
class Diagnostics:
    iterations: int = 0
    final_gap: float = float("inf")
    primal_residual: float = float("inf")
    dual_residual: float = float("inf")
    max_abs_variable: float = 0.0
    min_slack_eigenvalue_estimate: float = float("nan")
    # exact 1-norm condition number of the last factored Schur complement,
    # regularization included
    condition_estimate: float = 0.0
    # iterations whose Schur complement was factored only after regularization
    regularized_iterations: int = 0
    # the interior-point start: "F0" (Z = F0, y = 0), "least-squares"
    # (Mehrotra's), "identity" (Z a multiple of I, y = 0), or "none" when
    # the solve needed no iterations
    start: str = "none"
    history: list = field(default_factory=list)


@dataclass
class SolveResult:
    status: SolveStatus
    y: dict[str, float]
    X: np.ndarray
    objective_primal: float
    objective_dual: float
    diagnostics: Diagnostics


def _structural_rows(F0: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Rows that carry any data in any pencil matrix (others are dropped)."""
    present = np.abs(F0).sum(axis=1) > 0
    present |= np.abs(terms).sum(axis=(0, 2)) > 0
    return np.flatnonzero(present)


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _nt_frame(Lx: np.ndarray, Lz: np.ndarray):
    """(G, d): the Nesterov-Todd scaling G and the scaled point d, from
    Cholesky factors X = Lx Lx^T and Z = Lz Lz^T.

    If Lz^T Lx = U S V^T then G = Lx V S^{-1/2} gives G^{-1} X G^{-T} =
    G^T Z G = D = diag(s), and W = G G^T is the NT point, W Z W = X.  The
    singular values are never negative, while eigenvalues of a formed
    X^{1/2} Z X^{1/2} near the optimum can be.
    """
    _, s, Vt = np.linalg.svd(Lz.T @ Lx)
    # singular values below eps * s_max are roundoff, not information
    s = np.maximum(s, EPS * s[0])
    return (Lx @ Vt.T) / np.sqrt(s), s


def _scaled_schur(A: np.ndarray, G: np.ndarray):
    """(Af, M) for a stack A of shape (m, n, n): the scaled matrices
    G^T A_i G flattened into the rows of Af, and M = Af Af^T.

    M_ij = <A_i, W A_j W> with W = G G^T.  One batched matmul forms every
    scaled matrix and one GEMM contracts them (the SDPA/SDPT3 dense
    assembly).  numpy forms a matrix times its own transpose as a
    symmetric product (syrk), so M needs no symmetrizing.
    """
    Af = (G.T @ A @ G).reshape(A.shape[0], -1)
    return Af, Af @ Af.T


def _factor_schur(M: np.ndarray):
    """(Li, cond, regularized) for a symmetric Schur complement M.

    Li = L^{-1} for the lower Cholesky factor L of the factored matrix, so
    its inverse is Li^T Li; cond is that matrix's exact 1-norm condition
    number.  The factored matrix is M itself when M is positive definite,
    the Cholesky factorization being the test, else M plus the smallest
    diagonal shift of (1e-14, 1e-10) times max(tr M / m, 1) that factors
    (regularized is then True).  Raises LinAlgError when neither does.
    """
    m = M.shape[0]
    for reg_scale in (0.0, 1e-14, 1e-10):
        Mreg = M
        if reg_scale:
            Mreg = M + reg_scale * max(float(np.trace(M)) / m, 1.0) * np.eye(m)
        try:
            L = np.linalg.cholesky(Mreg)
            break
        except np.linalg.LinAlgError:
            pass
    else:
        raise np.linalg.LinAlgError("Schur complement factorization failed")
    Li = np.linalg.inv(L)
    # the 1-norm as numpy's norm(., 1) computes it: the largest column sum
    cond = float(np.abs(Mreg).sum(axis=0).max() * np.abs(Li.T @ Li).sum(axis=0).max())
    return Li, cond, bool(reg_scale)


def _max_steps(scale: np.ndarray, dXh: np.ndarray, dZh: np.ndarray):
    """Largest alphas with D + alpha dXh >= 0 and D + alpha dZh >= 0 for
    D = diag(d) > 0, given scale_ij = 1/sqrt(d_i d_j): D^{-1/2} dS D^{-1/2}
    is dS * scale, and one stacked eigvalsh serves both."""
    lam_x, lam_z = np.linalg.eigvalsh(np.array((dXh, dZh)) * scale)[:, 0].tolist()
    return (np.inf if lam_x >= 0 else -1.0 / lam_x, np.inf if lam_z >= 0 else -1.0 / lam_z)


def _newton(Af: np.ndarray, Li: np.ndarray, Rp: np.ndarray, Rd: np.ndarray, Rc: np.ndarray):
    """(dy, dXh, dZh) of one Newton solve in the scaled frame:
    Af dXh = Rp, Af^T dy + dZh = Rd and dXh + dZh = Rc, where Li is the
    inverse Cholesky factor of M = Af Af^T.

    The solve is refined once against Af itself: after a full step the
    primal residual is this solve's residual, and refining shrinks it when
    M is ill-conditioned near the optimum.
    """
    rhs = Rp + Af @ (Rd - Rc).ravel()
    dy = Li.T @ (Li @ rhs)
    r = rhs - Af @ (dy @ Af)
    dy = dy + Li.T @ (Li @ r)
    dZh = Rd - (dy @ Af).reshape(Rd.shape)
    return dy, Rc - dZh, dZh


def _least_squares_start(U: np.ndarray, s: np.ndarray, Vt: np.ndarray,
                         b: np.ndarray, C: np.ndarray):
    """(X, y, Z): Mehrotra's least-squares start from the thin SVD
    A = U diag(s) Vt of the flat constraint rows, or None when the shifted
    pair has <X, Z> <= 0 (b = 0 or C in the span of the A_i, say).

    X~ = A^T (A A^T)^{-1} b and y~ = (A A^T)^{-1} A vec(C) are the
    least-squares solutions of A(X) = b and A^T y + Z = C with Z = 0, and
    Z~ = C - A^T y~.  Each is shifted by max(-1.5 lambda_min, 0) I to the
    positive semidefinite X^ and Z^, then by 0.5 <X^, Z^> / tr Z^ and
    0.5 <X^, Z^> / tr X^ times I off the boundary.
    """
    n = C.shape[0]
    X = _sym((Vt.T @ ((U.T @ b) / s)).reshape(n, n))
    # A^T y~ = Vt^T Vt vec(C), the projection of C onto the span of the A_i
    w = Vt @ C.ravel()
    y = U @ (w / s)
    Z = _sym(C - (w @ Vt).reshape(n, n))
    lam_x, lam_z = np.linalg.eigvalsh(np.array((X, Z)))[:, 0].tolist()
    eye = np.eye(n)
    X = X + max(-1.5 * lam_x, 0.0) * eye
    Z = Z + max(-1.5 * lam_z, 0.0) * eye
    xz = float(X.ravel() @ Z.ravel())
    # both are positive semidefinite, so xz > 0 makes both traces positive
    if not xz > 0:
        return None
    return X + 0.5 * xz / np.trace(Z) * eye, y, Z + 0.5 * xz / np.trace(X) * eye


def solve_sdp(prob: SdpProblem, *, stop_above: float | None = None) -> SolveResult:
    """Solve max <b,y> s.t. F0 + sum y_i F_i >= 0 (numeric scalars only).

    With stop_above, the solve ends as ObjectiveCutReached at the first
    strictly feasible y whose objective, offset included, exceeds it (see
    the module docstring).
    """
    violations, stack = checked_stack(prob)
    if violations:
        raise InvalidProblemError(violations)
    if prob.pencil.scalar != "double":
        raise InvalidProblemError(
            ["solver expects double scalars; downcast exact problems explicitly"]
        )

    n_full = prob.pencil.n
    b = np.asarray(prob.objective, dtype=float)
    m = b.size
    names = prob.pencil.var_names

    # the stack (F0, F_1, ..., F_m) that validation built, not a second one
    terms = np.asarray(stack[1:], dtype=float)
    rows = _structural_rows(prob.pencil.f0, terms)
    n = rows.size
    # without a structurally zero row, C is the pencil's own (read-only) F0
    full = n == n_full
    C = prob.pencil.f0 if full else prob.pencil.f0[np.ix_(rows, rows)]
    c_flat = C.ravel()
    # standard form: sum y_i A_i + Z = C, with A_i = -F_i
    A = -terms[:, rows[:, None], rows]
    Aflat = A.reshape(m, n * n)

    diag = Diagnostics()

    # the offset is reported and compared with the cut, never iterated on:
    # iterates and gap are those of <b, y> alone
    offset = float(prob.objective_offset)

    def finish(status: SolveStatus, y, Xred, cond) -> SolveResult:
        if full:
            X_full = Xred
        else:
            X_full = np.zeros((n_full, n_full))
            if n:
                X_full[np.ix_(rows, rows)] = Xred
        ydict = {name: float(val) for name, val in zip(names, y)}
        obj_p = (float(c_flat @ Xred.ravel()) if n else 0.0) + offset
        obj_d = float(b @ y) + offset
        diag.condition_estimate = cond
        diag.max_abs_variable = max(
            float(np.abs(y).max()) if m else 0.0,
            float(np.abs(Xred).max()) if n else 0.0,
        )
        slack = pencil_eval(prob.pencil, ydict)
        diag.min_slack_eigenvalue_estimate = float(np.linalg.eigvalsh(slack)[0])
        return SolveResult(
            status=status,
            y=ydict,
            X=X_full,
            objective_primal=obj_p,
            objective_dual=obj_d,
            diagnostics=diag,
        )

    # degenerate cases -------------------------------------------------
    if n == 0:
        # the pencil is identically zero: any y is feasible
        if np.any(b != 0):
            return finish(
                SolveStatus(StatusTag.DUAL_UNBOUNDED_SUSPECTED, "zero pencil, nonzero objective"),
                np.zeros(m),
                np.zeros((0, 0)),
                0.0,
            )
        # y = 0 is exactly optimal: no gap and no residuals
        diag.final_gap = diag.primal_residual = diag.dual_residual = 0.0
        return finish(SolveStatus(StatusTag.OPTIMAL, "zero pencil"), np.zeros(m), np.zeros((0, 0)), 0.0)

    dead_vars = ~Aflat.any(axis=1)
    if np.any(b[dead_vars] != 0):
        return finish(
            SolveStatus(
                StatusTag.DUAL_UNBOUNDED_SUSPECTED,
                "objective increases along an unconstrained variable",
            ),
            np.zeros(m),
            np.eye(n),
            0.0,
        )
    if m == 0:
        lam = float(np.linalg.eigvalsh(C)[0])
        tag = StatusTag.OPTIMAL if lam >= -FEAS_TOL else StatusTag.PRIMAL_INFEASIBLE
        msg = "no variables" if tag is StatusTag.OPTIMAL else "constant pencil is not PSD"
        if tag is StatusTag.OPTIMAL:
            # X = 0 with Z = F0 is exactly optimal: no gap and no residuals
            diag.final_gap = diag.primal_residual = diag.dual_residual = 0.0
        return finish(SolveStatus(tag, msg), np.zeros(0), np.zeros((n, n)), 0.0)

    # the start (module docstring): Z = F0 when it is strictly diagonally
    # dominant with a positive diagonal, else the least-squares point
    c_scale = float(np.abs(C).max()) if np.any(C) else 1.0
    c_diag = np.diag(C)
    dom = np.all(c_diag > 0) and np.all(2 * c_diag > np.abs(C).sum(axis=1))
    # one SVD of A is the rank test (numpy's matrix_rank at tol 1e-12) and,
    # off the dominant branch, the least-squares solves; the dominant branch
    # skips the singular vectors, which nearly triple the SVD's cost at a
    # margin problem's size (m = 35, n = 9)
    if dom:
        s = np.linalg.svd(Aflat, compute_uv=False)
    else:
        U, s, Vt = np.linalg.svd(Aflat, full_matrices=False)
    if np.count_nonzero(s > 1e-12) < m:
        raise InvalidProblemError(["linearly dependent constraint matrices"])

    def a_of(M: np.ndarray) -> np.ndarray:
        return Aflat @ M.ravel()

    def at_of(y: np.ndarray) -> np.ndarray:
        return (y @ Aflat).reshape(n, n)

    def residuals(X: np.ndarray, y: np.ndarray, Z: np.ndarray) -> tuple:
        """Rp, Rd, their max norms and <X, Z> at one point: what the merit
        test of a trial step needs, and the next iteration reuses."""
        Rp = b - a_of(X)
        Rd = C - Z - at_of(y)
        xz = float(X.ravel() @ Z.ravel())
        return Rp, Rd, float(np.abs(Rp).max()), float(np.abs(Rd).max()), xz

    start = None if dom else _least_squares_start(U, s, Vt, b, C)
    if start is not None:
        X, y, Z = start
        diag.start = "least-squares"
    else:
        X = max(1.0, float(np.abs(b).max()), c_scale) * np.eye(n)
        y = np.zeros(m)
        Z = C.copy() if dom else max(1.0, c_scale) * np.eye(n)
        diag.start = "F0" if dom else "identity"
    state = residuals(X, y, Z)

    b_scale = 1.0 + float(np.abs(b).max())
    stagnant = 0
    cond = 0.0
    tau = STEP_FRAC
    status = None

    for it in range(MAX_ITER):
        Rp, Rd, rp_max, rd_max, xz = state
        obj_p = float(c_flat @ X.ravel())
        obj_d = float(b @ y)
        gap = abs(obj_p - obj_d) / (1.0 + abs(obj_p))
        res_p = rp_max / b_scale
        res_d = rd_max / (1.0 + c_scale)
        max_var = max(float(np.abs(y).max()), float(np.abs(X).max()))

        diag.iterations = it
        diag.final_gap = gap
        diag.primal_residual = res_p
        diag.dual_residual = res_d
        diag.history.append(
            {"objective_primal": obj_p, "objective_dual": obj_d,
             "res_p": res_p, "res_d": res_d, "gap": gap,
             # the step taken from this iterate; None where none is
             "step_p": None, "step_d": None, "sigma": None}
        )

        if gap <= GAP_TOL and res_p <= FEAS_TOL and res_d <= FEAS_TOL:
            status = SolveStatus(StatusTag.OPTIMAL)
            break
        if stop_above is not None and obj_d + offset > stop_above:
            # F(y) itself, C - A^T y on the solver's rows, not the iterate
            # Z, which differs from it by the dual residual
            try:
                np.linalg.cholesky(C - at_of(y))
            except np.linalg.LinAlgError:
                pass
            else:
                status = SolveStatus(
                    StatusTag.OBJECTIVE_CUT_REACHED,
                    f"objective {obj_d + offset:.6e} above the cut {stop_above:.6e} "
                    "at a strictly feasible point",
                )
                break
        if max_var > VAR_BOUND:
            status = SolveStatus(
                StatusTag.NUMERICAL_TROUBLE,
                f"iterate magnitude {max_var:.2e} exceeded the bound {VAR_BOUND:.0e}; "
                "optimal solutions may fail to exist (strict feasibility suspect)",
            )
            break
        if obj_d > 1e12 * b_scale and res_d <= np.sqrt(FEAS_TOL):
            status = SolveStatus(
                StatusTag.DUAL_UNBOUNDED_SUSPECTED, "objective appears unbounded above"
            )
            break

        try:
            # one stacked Cholesky factorization of X and Z per iteration,
            # which is also the test that both are positive definite; the
            # factors give the NT frame, in which X and Z are both
            # D = diag(d) and every Newton step is taken
            Lx, Lz = np.linalg.cholesky(np.array((X, Z)))
            G, d = _nt_frame(Lx, Lz)
            Af, M = _scaled_schur(A, G)
            if not np.isfinite(M).all():
                status = SolveStatus(
                    StatusTag.NUMERICAL_TROUBLE, "Newton system is not finite"
                )
                break
            Li, cond, regularized = _factor_schur(M)
            diag.regularized_iterations += regularized
            # near convergence the Schur complement conditioning always
            # degrades (~1/mu); it only signals trouble while the gap is
            # still far from tolerance
            if cond > COND_BOUND and gap > 1e4 * GAP_TOL:
                status = SolveStatus(
                    StatusTag.NUMERICAL_TROUBLE,
                    f"Newton system condition {cond:.2e} exceeded {COND_BOUND:.0e}",
                )
                break
            Rdh = G.T @ Rd @ G

            # predictor
            D = np.diag(d)
            _, dXh_a, dZh_a = _newton(Af, Li, Rp, Rdh, -D)
            r = 1.0 / np.sqrt(d)
            scale = r[:, None] * r
            ap, ad = _max_steps(scale, dXh_a, dZh_a)
            ap, ad = min(1.0, ap), min(1.0, ad)
            # <X, Z> = <D, D>: both complementarity measures in the frame
            mu = float(d @ d) / n
            mu_aff = float((D + ap * dXh_a).ravel() @ (D + ad * dZh_a).ravel()) / n
            # centering: the exponent backs off to 1 when steps are blocked,
            # so boundary-crawling iterates get re-centered instead of stalling
            expon = max(1.0, 3.0 * min(ap, ad) ** 2)
            sigma = min(1.0, max(0.0, max(mu_aff, 0.0) / mu) ** expon)

            # corrector: the NT second-order term (SDPT3), symmetric in the
            # scaled frame where X and Z commute
            P = dXh_a @ dZh_a
            Rc = -(P + P.T) / (d[:, None] + d)
            # Rc is a new C-contiguous array, so ravel() is a view of it and
            # every (n+1)-th entry of the view is a diagonal entry of Rc
            Rc.ravel()[:: n + 1] += sigma * mu / d - d
            dy, dXh, dZh = _newton(Af, Li, Rp, Rdh, Rc)
            ap, ad = _max_steps(scale, dXh, dZh)
            ap, ad = min(1.0, tau * ap), min(1.0, tau * ad)
            # back to the original frame once: dX = G dXh G^T, and dZ from
            # the dual equation itself, which needs no inverse of G and
            # keeps A^T dy + dZ = Rd to roundoff
            dX = G @ dXh @ G.T
            dZ = Rd - at_of(dy)
        except np.linalg.LinAlgError as exc:
            status = SolveStatus(
                StatusTag.NUMERICAL_TROUBLE, f"factorization failed: {exc}"
            )
            break
        # merit safeguard: near-singular Newton systems can emit destructive
        # directions; retract the step rather than let residuals explode.
        # The accepted trial's residuals are the next iteration's.
        merit = abs(xz) / n + rp_max + rd_max
        for _ in range(3):
            Xn = _sym(X + ap * dX)
            yn = y + ad * dy
            Zn = _sym(Z + ad * dZ)
            state = residuals(Xn, yn, Zn)
            _, _, rp_new, rd_new, xz_new = state
            merit_new = abs(xz_new) / n + rp_new + rd_new
            if merit_new <= 10.0 * merit + 1e-14:
                break
            ap *= 0.25
            ad *= 0.25
        X, y, Z = Xn, yn, Zn
        diag.history[-1].update(step_p=ap, step_d=ad, sigma=sigma)
        tau = min(STEP_FRAC, 0.9 + 0.09 * min(ap, ad))

        if min(ap, ad) < MIN_STEP:
            stagnant += 1
            if stagnant >= STAGNATION_ROUNDS:
                status = SolveStatus(
                    StatusTag.NUMERICAL_TROUBLE,
                    f"step length below {MIN_STEP} for "
                    f"{STAGNATION_ROUNDS} consecutive iterations",
                )
                break
        else:
            stagnant = 0
    else:
        status = SolveStatus(StatusTag.ITERATION_LIMIT, f"no convergence in {MAX_ITER} iterations")

    if status is None:  # pragma: no cover - defensive
        status = SolveStatus(StatusTag.ITERATION_LIMIT, "no status recorded")
    return finish(status, y, X, cond)


def diagnostics_report(res: SolveResult) -> str:
    """Plain-text summary of a solve, with a strict-feasibility warning
    (a solve stopped at the objective cut gets its own line instead)."""
    d = res.diagnostics
    lines = [
        f"status: {res.status.tag.value}"
        + (f" ({res.status.message})" if res.status.message else ""),
        f"objective (primal reading): {res.objective_primal: .12g}",
        f"objective (pencil maximization): {res.objective_dual: .12g}",
        f"relative gap: {d.final_gap:.3e}",
        f"residuals: primal {d.primal_residual:.3e}, dual {d.dual_residual:.3e}",
        f"iterations: {d.iterations}",
        f"start: {d.start}",
        f"largest iterate magnitude: {d.max_abs_variable:.3e}",
        f"min slack eigenvalue estimate: {d.min_slack_eigenvalue_estimate:.3e}",
        f"Newton system condition number (1-norm): {d.condition_estimate:.3e}",
        f"iterations with a regularized Newton system: {d.regularized_iterations}",
    ]
    troubled = (not res.status.is_optimal) or d.max_abs_variable > TROUBLE_VAR_BOUND
    if res.status.tag is StatusTag.OBJECTIVE_CUT_REACHED:
        lines.append("stopped at the objective cut; not an optimum.")
    elif troubled:
        lines.append(
            "strict-feasibility warning: iterates or status indicate that optimal "
            "solutions may not exist for this formulation."
        )
        lines.append(
            "recommendation: diagnose with the facial module "
            "(find_reducing_certificate) and substitute the implicit constraints."
        )
    else:
        lines.append("no strict-feasibility warning.")
    return "\n".join(lines)
