"""Strict-feasibility diagnosis and repair for pencil-form SDPs.

Given max <b,y> s.t. F0 + sum_i y_i F_i >= 0, exactly one of two things holds
(when the problem is feasible): either some y makes the pencil positive
definite, or there is a nonzero X >= 0 with <F0, X> = 0 and <F_i, X> = 0 for
every i.  Such an X is a *reducing certificate*: every feasible slack matrix
annihilates range(X), so each range vector v yields linear relations
(F0 v)_j + sum_i y_i (F_i v)_j = 0 among the variables.  Substituting those
relations produces an equivalent, smaller problem that solvers handle
reliably.

The search runs in floats: an orthonormal float chart of the trace-one
slice of matrices orthogonal to the pencil, over which the minimum
eigenvalue is maximized numerically; `build_alternative_problem` is the
feasibility problem on that same chart.  The one exact claim about the
slice itself, that it is empty or holds only traceless matrices (an exact
StrictlyFeasible verdict), is the linear-algebra fact I in span{F0, F_i},
decided by one exact solve.  The candidate is
rationalized by one path, projection then rounding: the projector onto its
range is rounded first, which fixes the face exactly, and the coordinates
inside that face second.  The face's rank is not a setting: the search
starts at the rank the spectrum shows and steps down one rank at a time
until a candidate verifies.  Every certificate property is verified
exactly; a candidate that cannot be rationalized at any rank is surfaced as
RoundingFailed, never guessed around.

Every pencil-wide step reads the pencil's integer split
(`MatrixPencil.split`), not its Fractions: the float chart, the traceless
verdict, the face congruence, the exact verification, the derivation and
the substitution, which hands the reduced pencil's split on, so later
rounds never split again.  Face rounding stays on integers too, up to the
candidate X = W M W^T that the verification reads.  Its in-face step has
an affine right-hand side, so it also rounds the bound certificate by
which `certify_optimum` proves an optimum from a solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .certify import BoundCertificate, PrimalVerdict, check_dual_matrix, verify_bound_certificate
from .exactnum import (
    QUAD_ONE,
    QUAD_ZERO,
    RECONSTRUCT_TOL,
    QSplit,
    QuadCandidates,
    QuadExt,
    as_quad,
    format_scalar,
    frob_inner,  # noqa: F401  (perfbench/spans.py times it here)
    kernel_basis_exact,
    nullspace_exact,
    primitive_integer_vector,
    psd_check_exact,
    qconcat,
    reconstruct_quadext,  # noqa: F401  (perfbench/spans.py times it here)
    reconstruct_rational,
    row_space_basis_exact,
    rref_exact,
    split,
    to_float,
)
from .model import (
    MatrixPencil,
    SdpProblem,
    StatusTag,
    UnknownVariableError,
    matrix_entries,
    pencil_eval,
)
from .solver import SolveResult, solve_sdp


class RoundingFailedError(RuntimeError):
    """The numerical certificate could not be rationalized and verified."""


class SolverFailedError(RuntimeError):
    """The numerical stage of the diagnosis did not converge."""


class InconsistentConstraintsError(ValueError):
    """The implied linear relations admit no solution: the SDP is infeasible."""


@dataclass(frozen=True)
class AffineExpr:
    """const + sum_v coeffs[v] * v with exact scalars."""

    const: QuadExt
    coeffs: dict

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {v: c for v, c in self.coeffs.items() if bool(c)}
        )

    def evaluate(self, assignment) -> QuadExt:
        total = self.const
        for v, c in self.coeffs.items():
            total = total + c * as_quad(assignment[v])
        return total

    def __str__(self) -> str:
        parts = [format_scalar(self.const)] if bool(self.const) else []
        for v, c in sorted(self.coeffs.items()):
            parts.append(f"({format_scalar(c)})*{v}")
        return " + ".join(parts) if parts else "0"

    def as_dict(self) -> dict:
        return {
            "const": format_scalar(self.const),
            "coeffs": {v: format_scalar(c) for v, c in sorted(self.coeffs.items())},
        }


@dataclass(frozen=True)
class ImplicitConstraintSet:
    """Reduced consistent relations and a triangular elimination order."""

    equations: tuple[AffineExpr, ...]  # each reads: expression = 0
    eliminated: tuple[tuple[str, AffineExpr], ...]

    @property
    def eliminated_names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.eliminated)

    def as_dict(self) -> dict:
        return {
            "equations": [e.as_dict() for e in self.equations],
            "eliminated": [[v, e.as_dict()] for v, e in self.eliminated],
        }


@dataclass(frozen=True)
class ReducingCertificate:
    """Exact nonzero X >= 0 orthogonal to the whole pencil, plus range basis."""

    X: np.ndarray
    range_vectors: tuple
    note: str = ""

    @property
    def rank(self) -> int:
        return len(self.range_vectors)

    def as_dict(self) -> dict:
        return {
            "n": self.X.shape[0],
            "X": matrix_entries(self.X, "exact"),
            "range_vectors": [
                [format_scalar(x) for x in v] for v in self.range_vectors
            ],
            "note": self.note,
        }


@dataclass(frozen=True)
class StrictlyFeasible:
    """Verdict that no reducing certificate exists.

    `exact` verdicts are proved by linear algebra (the orthogonal slice is
    trivial) together with a witness y whose F(y) is positive definite, which
    `detail` names; numeric verdicts carry the solver tolerance and are
    evidence, not proof.
    """

    exact: bool
    tolerance: float | None
    detail: str = ""


def _upper_functionals(C: QSplit) -> QSplit:
    """<C_k, M> as functionals of the upper-triangle entries of a symmetric
    M, one row per matrix C_k of the stack C (one row for a matrix C):
    weighted on the integers, 1 on the diagonal and 2 off it, where M_ij
    counts twice."""
    iu = np.triu_indices(C.shape[-1])
    return C[..., iu[0], iu[1]].scaled(np.where(iu[0] == iu[1], 1, 2))


def _symmetric_split(coords, n: int) -> QSplit:
    """The split of the symmetric n x n matrix whose upper triangle, row by
    row, holds the exact scalars `coords`."""
    S = split(coords)
    iu = np.triu_indices(n)

    def full(U):
        if U is None:
            return None
        M = np.empty((n, n), dtype=object)
        M[iu] = U
        M[iu[1], iu[0]] = U
        return M

    return QSplit(full(S.A), full(S.B), S.d)


# slice coordinates below this are roundoff: they are set to exactly 0, so
# that rows no pencil matrix touches stay structurally zero for the solver
CHART_ZERO = 1e-13

# a trace functional on the float slice below this norm is roundoff: one
# exact solve then decides whether the slice is traceless
TRACE_FLOOR = 1e-9


def _float_slice_chart(prob: SdpProblem):
    """Orthonormal float chart of {X symmetric: <F0,X> = <F_i,X> = 0, tr X = 1}.

    In sqrt2-weighted upper-triangle coordinates the Frobenius inner product
    is the dot product, so the SVD nullspace N of the constraint rows is an
    orthonormal basis of the orthogonal slice.  With tau = N^T t for the
    trace functional t, X0 = N tau / |tau|^2 is its minimum-norm trace-one
    point and one QR gives an orthonormal basis B of the complement of tau
    in span N (the traceless directions).  Returns (X0, [B_k]) as float
    matrices.  When tau is at roundoff level (an empty N gives tau = 0) the
    slice looks traceless, and `_traceless_verdict` decides that exactly.
    """
    p = prob.pencil
    iu, w = _chart_coordinates(p.n)
    diag = iu[0] == iu[1]
    K = to_float(p.split)[:, iu[0], iu[1]] * w
    _, s, Vt = np.linalg.svd(K)
    # numpy's matrix_rank tolerance
    rank = int(np.sum(s > max(K.shape) * np.finfo(float).eps * s[0]))
    N = Vt[rank:].T
    tau = N.T @ diag.astype(float)
    norm = float(np.linalg.norm(tau))
    if norm < TRACE_FLOOR:
        return _traceless_verdict(prob)
    Qtau, _ = np.linalg.qr(tau[:, None], mode="complete")
    coords = np.vstack([N @ tau / norm**2, (N @ Qtau[:, 1:]).T])
    X0, *B = _chart_matrices(coords, p.n)
    return X0, B


def _chart_coordinates(n: int):
    """The upper-triangle indices of an n x n matrix and their sqrt2
    weights, under which the Frobenius product is the dot product."""
    iu = np.triu_indices(n)
    return iu, np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))


def _chart_matrices(coords: np.ndarray, n: int) -> np.ndarray:
    """The (k, n, n) stack of symmetric matrices whose weighted upper
    triangles are the rows of `coords`, roundoff-level coordinates
    (below CHART_ZERO) set to exactly 0; built in one step."""
    iu, w = _chart_coordinates(n)
    M = np.zeros((len(coords), n, n))
    M[:, iu[0], iu[1]] = np.where(np.abs(coords) < CHART_ZERO, 0.0, coords) / w
    return M + np.triu(M, 1).transpose(0, 2, 1)


def _traceless_verdict(prob: SdpProblem) -> StrictlyFeasible:
    """Exact proof of strict feasibility where the float chart finds the
    orthogonal slice empty or traceless, or SolverFailedError.

    One exact solve of I = c0 F0 + sum_i c_i F_i over the upper triangles
    decides the chart's reading: a solution makes every matrix orthogonal to
    the pencil traceless (<I, X> = sum_j c_j <Q_j, X> = 0), so no nonzero
    X >= 0 is orthogonal to it, and the rank of the same system tells
    whether that complement is {0} altogether.  That settles the
    homogenized pencil y0 F0 + sum_i y_i F_i only (F0 = -I passes), so the
    verdict is exact only with a witness y whose F(y) is positive definite,
    decided exactly (PSD with a trivial kernel).  Witnesses, cheapest first:

    - a solution with c0 > 0 (shifted there along a homogeneous solution
      when c0 is free): y = c / c0 gives F(y) = I / c0;
    - a solution with c0 = 0: y = t c gives F(y) = F0 + t I, positive
      definite for t = 1 + the largest absolute row sum of F0;
    - y = 0.
    """
    p = prob.pencil
    iu = np.triu_indices(p.n)
    # one row per upper-triangle entry (i, j), with right-hand side I_ij
    K = p.split[:, iu[0], iu[1]].T
    solved = _affine_solve_exact(K, (iu[0] == iu[1]).astype(int))
    candidates = []
    if solved is not None:
        c, homogeneous = solved
        free = next((h for h in homogeneous if bool(h[0])), None)
        if not c[0] > 0 and free is not None:
            shift = (QUAD_ONE - c[0]) / free[0]
            c = [ci + shift * hi for ci, hi in zip(c, free)]
        if c[0] > 0:
            candidates.append([ci / c[0] for ci in c[1:]])
        elif not bool(c[0]):
            t = QUAD_ONE + max(sum(map(abs, row), QUAD_ZERO) for row in p.f0)
            candidates.append([t * ci for ci in c[1:]])
    candidates.append([QUAD_ZERO] * p.m)
    witness = next(
        (y for y in candidates if _positive_definite(pencil_eval(p, dict(zip(p.var_names, y))))),
        None,
    )
    if solved is None:
        if witness is None:
            raise SolverFailedError(
                "the float chart of the orthogonal slice is traceless at roundoff "
                "level, but I is not in the span of the pencil matrices and F0 is "
                "not positive definite"
            )
        return StrictlyFeasible(
            exact=True,
            tolerance=None,
            detail="F0 is positive definite, so y = 0 is a strictly feasible point",
        )
    if p.m + 1 - len(solved[1]) == len(iu[0]):
        detail = "no nonzero symmetric matrix is orthogonal to the pencil"
    else:
        detail = (
            "every matrix orthogonal to the pencil is traceless, "
            "so none is PSD and nonzero"
        )
    if witness is None:
        raise SolverFailedError(
            f"{detail}, but I = c0 F0 + sum_i c_i F_i only with c0 < 0 and F0 is "
            "not positive definite: no witness y proves strict feasibility"
        )
    if p.m:
        point = ", ".join(f"{v} = {format_scalar(c)}" for v, c in zip(p.var_names, witness))
        detail += f"; F(y) is positive definite at {point}"
    else:
        detail += "; F0 is positive definite"
    return StrictlyFeasible(exact=True, tolerance=None, detail=detail)


def _positive_definite(M: np.ndarray) -> bool:
    """M > 0 exactly: PSD of full rank, in one elimination."""
    check = psd_check_exact(M)
    return check.is_psd and check.rank == len(M)


def _alternative_on_chart(prob: SdpProblem, chart) -> SdpProblem:
    name = f"{prob.name or 'problem'}-alternative"
    if isinstance(chart, StrictlyFeasible):
        pencil = MatrixPencil(
            n=1, scalar="double", f0=-np.ones((1, 1)), var_names=(), terms=()
        )
        return SdpProblem(
            pencil=pencil,
            objective=(),
            name=name,
            note=f"alternative infeasible: {chart.detail}",
        )
    X0, B = chart
    pencil = MatrixPencil(
        n=prob.pencil.n,
        scalar="double",
        f0=X0,
        var_names=tuple(f"z{k+1}" for k in range(len(B))),
        terms=tuple(B),
    )
    return SdpProblem(
        pencil=pencil,
        objective=tuple(0.0 for _ in B),
        name=name,
        note="trace-normalized feasibility problem of the second alternative",
    )


def build_alternative_problem(prob: SdpProblem) -> SdpProblem:
    """The feasibility SDP of the second alternative, trace-normalized.

    Over the float chart of `_float_slice_chart`, solutions
    X(z) = X0 + sum_k z_k B_k satisfy X >= 0, <F0, X> = 0, <F_i, X> = 0 and
    tr X = 1 (the normalization excludes X = 0), to roundoff.  The objective
    is zero.  When the slice is exactly empty or traceless the returned
    problem has an infeasible pencil of dimension 1 (constant -1), encoding
    exact infeasibility of the alternative.  `find_reducing_certificate`
    solves this problem with one more variable, the slack margin.
    """
    return _alternative_on_chart(prob, _float_slice_chart(prob))


# a best slack margin below -FEAS_CUT is numerical evidence that no
# certificate exists (ten times the solver's feasibility tolerance)
FEAS_CUT = 1e-8

# eigenvalues of the numerical certificate at or above this fraction of the
# largest one count toward its rank; the search starts at that rank
RANK_CUTOFF = 1e-6

# rounding rungs (max denominator, over Q(sqrt5), tolerance), tried in
# order.  Iterates sit ~sqrt(gap) off the optimal face, so the
# small-denominator rational snaps need a loose acceptance; that is sound
# because exact verification guards every snap.  Q(sqrt5) reconstruction
# comes only after plain rationals fail.  A rung snaps every entry the way
# `reconstruct_rational` or `reconstruct_quadext` would, but `_Snaps` does
# each entry's work once across the rungs: a rational zero needs no
# Fraction, and the Q(sqrt5) rungs share one PSLQ per entry.
ROUNDING_LADDER = (
    (100, False, 1e-3),
    (10**4, False, 1e-5),
    (10**6, False, RECONSTRUCT_TOL),
    (100, True, RECONSTRUCT_TOL),
    (10**4, True, RECONSTRUCT_TOL),
    (10**6, True, RECONSTRUCT_TOL),
)


_FRACTION_ZERO = Fraction(0)


class _Snaps:
    """The rounding ladder's snaps of one float vector, each entry's work
    done once.

    At a rational rung (den, tol) an entry with |x| < 1/(2 den) snaps to 0,
    which is then the closest fraction with denominator at most den and so
    what `reconstruct_rational` returns, and it is accepted iff |x| <= tol;
    any other entry goes through `reconstruct_rational`.  At a Q(sqrt5) rung
    each entry's candidates are built once (`QuadCandidates`) and filtered
    by den, so PSLQ runs at most once per entry and tolerance.
    """

    def __init__(self, values):
        self.x = np.asarray(values, dtype=float)
        self._quads: list[QuadCandidates] | None = None

    def at(self, den: int, extension: bool, tol: float) -> list | None:
        """The snapped exact scalars (Fractions at a rational rung, QuadExt
        over Q(sqrt5)), or None when an entry does not snap."""
        xs = self.x.tolist()
        if extension:
            if self._quads is None:
                self._quads = [QuadCandidates(x) for x in xs]
            snapped = (q.best(den) for q in self._quads)
        else:
            # rounding is monotone, so a float product below 1 is an exact one
            tiny = (np.abs(self.x) * (2 * den) < 1.0).tolist()
            snapped = (
                (_FRACTION_ZERO if abs(x) <= tol else None)
                if zero
                else reconstruct_rational(x, den, tol)
                for x, zero in zip(xs, tiny)
            )
        out = []
        for r in snapped:
            if r is None:
                return None
            out.append(r)
        return out


def _is_projector(P: QSplit) -> bool:
    """P @ P == P on the integers: P @ P = (A' + B'*sqrt5)/d' equals
    P = (A + B*sqrt5)/d iff d A' = d' A and d B' = d' B, part by part
    since sqrt5 is irrational."""
    PP = P @ P
    return all(
        np.all(P.d * (0 if X is None else X) == PP.d * (0 if Y is None else Y))
        for X, Y in ((PP.A, P.A), (PP.B, P.B))
    )


def _affine_solve_exact(K, rhs) -> tuple | None:
    """Exact particular solution and nullspace basis of K x = rhs, or None.

    One elimination of [K | -rhs] (K an exact matrix or its split): the
    system is consistent exactly when the last column is free, and then its
    basis vector (last entry 1) carries the particular solution while the
    others span the homogeneous solutions.
    """
    rows, cols = K.shape
    last = np.array([-as_quad(x) for x in rhs], dtype=object).reshape(rows, 1)
    basis = nullspace_exact(qconcat([K, last], axis=1))
    if not basis or not bool(basis[-1][cols]):
        return None
    *homogeneous, particular = basis
    return particular[:cols], [h[:cols] for h in homogeneous]


def _numerical_rank(lam: np.ndarray) -> int:
    """How many of the ascending eigenvalues lam count toward the rank."""
    return int(np.sum(lam >= RANK_CUTOFF * max(float(lam[-1]), 1e-300)))


def _face_split_certificate(prob: SdpProblem, Xnum: np.ndarray):
    """Certificate extraction by projection, then rounding, rank by rank.

    The search starts at the rank the spectrum gives (eigenvalues at least
    RANK_CUTOFF times the largest).  An iterate that sits ~sqrt(gap) off the
    optimal face can carry a spurious eigenvalue above that cutoff, and then
    no projector of that rank rounds; so when no rung verifies, the next
    lower rank is tried, down to rank 1.  The first exactly verified
    certificate wins.  Returns (certificate, None) or (None, the last failure
    reason at each rank).
    """
    lam, V = np.linalg.eigh(Xnum)
    top = _numerical_rank(lam)
    if top == 0:
        return None, "numerical certificate has rank 0"
    reasons = []
    for r in range(top, 0, -1):
        cert, reason = _round_face(prob, Xnum, V[:, -r:])
        if cert is not None:
            return cert, None
        reasons.append(f"rank {r}: {reason}")
    return None, "; ".join(reasons)


def _round_face(prob: SdpProblem, Xnum: np.ndarray, Vr: np.ndarray):
    """Round the face spanned by the orthonormal columns Vr, then X in it.

    The projector onto the face is basis independent, so it rounds to small
    exact entries even though the solver lands at an arbitrary interior point
    of the optimal face.  With the face fixed exactly (its integer basis W),
    the remaining in-face coordinates M of X = W M W^T are forgiving: any
    nearby rational point keeps M positive definite (`_round_in_face`).
    Each rung of the rounding ladder is tried in turn.  Returns
    (certificate, None) or (None, reason of the last failed rung).

    The projector's entries are snapped once for all rungs (`_Snaps`), and
    P is split straight from the snapped scalars.  When M is nonsingular,
    range(X) = range(W) = rowspace(P), whose reduced row echelon basis is
    unique, so W's columns are X's range vectors.
    """
    p = prob.pencil
    n = p.n
    r = Vr.shape[1]
    snaps = _Snaps((Vr @ Vr.T)[np.triu_indices(n)])
    reason = "projector rounding never succeeded"
    for rung in ROUNDING_LADDER:
        den, extension, _ = rung
        coords = snaps.at(*rung)
        if coords is None:
            reason = f"projector entries not representable at max_den={den}"
            continue
        P = _symmetric_split(coords, n)
        if not _is_projector(P):
            reason = f"rounded matrix at max_den={den} is not a projector"
            continue
        Wrows = row_space_basis_exact(P)
        if len(Wrows) != r:
            reason = f"projector rank {len(Wrows)} != numerical rank {r}"
            continue
        Wcols = [primitive_integer_vector(w) for w in Wrows]
        W = split(np.array(Wcols, dtype=object).T)
        # <W^T Q W, M> = 0 for every pencil matrix Q and tr(W^T W M) = 1
        rows = qconcat([W.T @ p.split @ W, (W.T @ W)[None]])
        rhs = [QUAD_ZERO] * (p.m + 1) + [QUAD_ONE]
        found, reason = _round_in_face(
            W, rows, rhs, Xnum, [rung], lambda X: (X, verify_certificate_matrix(prob, X))
        )
        if found is None:
            continue
        X, M = found
        if kernel_basis_exact(M):
            vectors = tuple(primitive_integer_vector(v) for v in row_space_basis_exact(X))
        else:
            vectors = tuple(Wcols)
        note = (
            f"face-projector rounding at max_den={den}"
            + (" over Q(sqrt5)" if extension else "")
            + f"; rank {len(vectors)}"
        )
        return ReducingCertificate(X=X.join(), range_vectors=vectors, note=note), None
    return None, reason


def _round_in_face(W: QSplit, rows: QSplit, rhs, Xnum: np.ndarray, rungs, verify):
    """X = W M W^T for a symmetric M with <rows_k, M> = rhs_k exactly:
    ((result, M), None) at the first rung where `verify(X)` returns (result,
    no problems), else (None, reason).  M = particular + sum_j s_j h_j from
    one exact solve, s fitted to Xnum and snapped; the solutions are one
    split, so each rung's M is one product on the integers.
    """
    r = W.shape[1]
    solved = _affine_solve_exact(_upper_functionals(rows), rhs)
    if solved is None:
        return None, "face slice is inconsistent"
    basis = split(np.array([solved[0], *solved[1]], dtype=object))
    Wpinv = np.linalg.pinv(to_float(W))
    mflat = (Wpinv @ Xnum @ Wpinv.T)[np.triu_indices(r)]
    # to_float of a split is float(QuadExt) bit for bit, row by row
    Bf = to_float(basis)
    snaps = _Snaps(np.linalg.lstsq(Bf[1:].T, mflat - Bf[0], rcond=None)[0])
    reason = "no rung to try"
    for den, extension, tol in rungs:
        s = snaps.at(den, extension, tol)
        if s is None:
            reason = f"face coordinates not representable at max_den={den}"
            continue
        M = _symmetric_split(split([Fraction(1), *s]) @ basis, r)
        result, problems = verify(W @ M @ W.T)
        if problems:
            reason = f"face rounding at max_den={den}: " + "; ".join(problems)
            continue
        return (result, M), None
    return None, reason


def find_reducing_certificate(prob: SdpProblem):
    """Search for a reducing certificate; verify it exactly or report back.

    The trace-one orthogonal slice gets an orthonormal float chart (see
    `_float_slice_chart`) and the minimum eigenvalue of X(z) is maximized
    numerically; the interior-point iterate then lands in the relative
    interior of the optimal face, i.e. at maximal rank.  The problem solved
    is `build_alternative_problem` plus a slack-margin variable.  When the
    chart finds the slice empty or traceless, one exact solve proves
    StrictlyFeasible(exact=True) instead (see `_traceless_verdict`).
    The candidate is rounded by projection, then rounding, from the rank its
    spectrum gives down to rank 1 (see `_face_split_certificate`).  Every
    certificate invariant is re-checked exactly.
    """
    chart = _float_slice_chart(prob)
    if isinstance(chart, StrictlyFeasible):
        return chart
    X0, B = chart
    n = prob.pencil.n
    alt = _alternative_on_chart(prob, chart)
    margin_prob = SdpProblem(
        pencil=replace(
            alt.pencil,
            var_names=(*alt.var_names, "slack_margin"),
            terms=(*alt.pencil.terms, -np.eye(n)),
        ),
        objective=(*alt.objective, 1.0),
        name=f"{alt.name}-margin",
    )
    res = solve_sdp(margin_prob)
    if res.status.tag is not StatusTag.OPTIMAL:
        raise SolverFailedError(
            f"alternative-problem solve ended with {res.status.tag.value}: "
            f"{res.status.message}"
        )
    tstar = res.y["slack_margin"]
    if tstar < -FEAS_CUT:
        return StrictlyFeasible(
            exact=False,
            tolerance=FEAS_CUT,
            detail=(
                "the alternative problem is infeasible at solver tolerance "
                f"(best slack margin {tstar:.3e}); this is numerical evidence, "
                "not an exact proof"
            ),
        )

    zhat = [res.y[f"z{k+1}"] for k in range(len(B))]
    Xnum = X0 + sum((z * Bk for z, Bk in zip(zhat, B)), np.zeros((n, n)))
    cert, reason = _face_split_certificate(prob, Xnum)
    if cert is None:
        raise RoundingFailedError(
            f"could not rationalize the numerical certificate: {reason}"
        )
    return cert


KERNEL_TOL = 1e-9  # float eigenvalues of F(y) this close to 0 pass the screen


def certify_optimum(
    prob: SdpProblem, res: SolveResult
) -> tuple[dict, PrimalVerdict, BoundCertificate]:
    """Prove an exact problem's optimum from `res`, its numeric solve: (an
    exact y, the verdict F(y) >= 0, a bound certificate), or
    RoundingFailedError.

    y* is snapped rung by rung until F(y) is exactly PSD with a kernel as
    large as the solver X's numerical rank.  X = W M W^T over an integer
    kernel basis W with <W^T F_i W, M> = -b_i (`_round_in_face`) has
    <F(y), X> = 0, so it bounds the objective by its value at y: zero gap.
    Only a strictly feasible (reduced) problem's solve is worth rounding.
    """
    p = prob.pencil
    rank = max(1, _numerical_rank(np.linalg.eigvalsh(res.X)))
    snaps = _Snaps([res.y[v] for v in p.var_names])
    rhs = [-as_quad(c) for c in prob.objective]

    def bound(X):
        out = verify_bound_certificate(prob, X)
        return out, getattr(out, "violations", ())

    reason = "no rung to try"
    for den, extension, tol in ROUNDING_LADDER:
        at = f"y at max_den={den}" + (" over Q(sqrt5)" if extension else "")
        y = snaps.at(den, extension, tol)
        if y is None:
            reason = f"{at} is not representable"
            continue
        point = dict(zip(p.var_names, map(as_quad, y)))
        F = split(pencil_eval(p, point))
        # the float spectrum screens out what the exact check would reject
        lamF = np.linalg.eigvalsh(to_float(F))
        check = lamF[0] >= -KERNEL_TOL and np.sum(lamF <= KERNEL_TOL) >= rank and psd_check_exact(F)
        if not (check and p.n - check.rank >= rank):
            reason = f"{at}: F(y) is not exactly PSD with a kernel of dimension {rank}"
            continue
        W = split(np.array([primitive_integer_vector(w) for w in kernel_basis_exact(F)]).T)
        found, why = _round_in_face(W, (W.T @ p.split @ W)[1:], rhs, res.X, ROUNDING_LADDER, bound)
        if found is not None:
            return point, PrimalVerdict(feasible=True), found[0]
        reason = f"{at}: {why}"
    raise RoundingFailedError(f"could not certify the optimum: {reason}")


def verify_certificate_matrix(prob: SdpProblem, X) -> list[str]:
    """Exact invariant check for a candidate certificate, an exact matrix or
    its split; [] when valid.  `check_dual_matrix` reads X once and reports
    an unreadable or non-PSD X; here X must also be nonzero and orthogonal
    to F0 and to every F_i."""
    X, problems, pairing = check_dual_matrix(prob, X)
    if pairing is None:
        return problems
    if not any(X.A.flat) and (X.B is None or not any(X.B.flat)):
        problems.append("X is zero")
    labels = ("F0", *(f"F_{name}" for name in prob.var_names))
    for label, v in zip(labels, pairing):
        if bool(v):
            problems.append(f"<{label}, X> = {format_scalar(v)} != 0")
    return problems


def derive_implicit_constraints(prob: SdpProblem, vectors) -> ImplicitConstraintSet:
    """Stack (F0 v)_j + sum_i y_i (F_i v)_j = 0 and reduce exactly.

    Pivots prefer the variable of largest file index among those solvable;
    when the objective is a single variable it is never eliminated.  Raises
    InconsistentConstraintsError when the relations admit no solution, which
    means the original SDP itself is infeasible.
    """
    p = prob.pencil
    if p.scalar != "exact":
        raise ValueError("implicit constraints are derived over exact pencils")
    names = list(p.var_names)
    support = [v for v, b in zip(names, prob.objective) if bool(as_quad(b))]
    protected = set(support) if len(support) == 1 else set()

    V = split(np.array(list(vectors), dtype=object).reshape(-1, p.n).T)
    # one product with the pencil's split gives (F_i v)_j for every term i,
    # range vector v and index j; F0 moved last and transposed, it is one
    # row per (v, j), and all-zero rows are dropped on the integers
    S = (p.split @ V)[[*range(1, p.m + 1), 0]].T.reshape(-1, p.m + 1)
    nonzero = (S.A != 0).any(axis=1)
    if S.B is not None:
        nonzero |= (S.B != 0).any(axis=1)
    if not nonzero.any():
        return ImplicitConstraintSet(equations=(), eliminated=())

    ncols = len(names)
    order = sorted(
        (k for k, v in enumerate(names) if v not in protected), reverse=True
    )
    R, pivots = rref_exact(S[nonzero], column_order=order)

    equations = []
    eliminated = []
    for c, r in sorted(pivots.items(), key=lambda kv: -kv[0]):
        coeffs = {
            names[k]: R[r, k] for k in range(ncols) if k != c and bool(R[r, k])
        }
        const = R[r, ncols]
        equations.append(
            AffineExpr(const=const, coeffs={names[c]: QUAD_ONE, **coeffs})
        )
        eliminated.append(
            (names[c], AffineExpr(const=-const, coeffs={v: -x for v, x in coeffs.items()}))
        )
    # rows with no pivot must be trivially satisfied
    pivot_rows = set(pivots.values())
    for r in range(R.shape[0]):
        if r in pivot_rows:
            continue
        if any(bool(R[r, k]) for k in range(ncols)):
            bad = [names[k] for k in range(ncols) if bool(R[r, k])]
            raise InconsistentConstraintsError(
                "the relations pin protected variable(s) "
                f"{bad}; the problem cannot be reduced by substitution"
            )
        if bool(R[r, ncols]):
            raise InconsistentConstraintsError(
                "the implied linear relations are inconsistent: "
                "the original SDP is infeasible"
            )
    return ImplicitConstraintSet(
        equations=tuple(equations), eliminated=tuple(eliminated)
    )


def apply_constraints(prob: SdpProblem, cons: ImplicitConstraintSet) -> SdpProblem:
    """Eliminate the constrained variables by exact affine substitution.

    The reduced pencil evaluated at any assignment of the remaining variables
    equals the original pencil at the lifted assignment, exactly; the
    objective is rewritten the same way (constants land in objective_offset).
    """
    p = prob.pencil
    names = list(p.var_names)
    for v, expr in cons.eliminated:
        if v not in names:
            raise UnknownVariableError(v)
        for w in expr.coeffs:
            if w not in names:
                raise UnknownVariableError(w)
    if not cons.eliminated:
        return prob

    eliminated = dict(cons.eliminated)
    keep = [v for v in names if v not in eliminated]
    # rows of the stack (F0, F_1, ..., F_m), flattened: the reduced problem
    # takes the rows of F0 and of the kept terms, each plus its combination
    # of eliminated rows, and so does the objective (offset first)
    kept = [0, *(1 + names.index(v) for v in keep)]
    gone = [1 + names.index(v) for v in eliminated]
    row_of = {v: 1 + j for j, v in enumerate(keep)}
    C = np.zeros((len(kept), len(eliminated)), dtype=object)
    for k, expr in enumerate(eliminated.values()):
        C[0, k] = expr.const
        for w, c in expr.coeffs.items():
            C[row_of[w], k] = c
    stack = p.split.reshape(1 + p.m, -1)
    mats = [(p.f0, *p.terms)[j] for j in kept]
    objective = np.array(
        [as_quad(b) for b in (prob.objective_offset, *prob.objective)], dtype=object
    )
    b = list(objective[kept])
    touched = [i for i in range(len(kept)) if any(map(bool, C[i]))]
    untouched = [i for i in range(len(kept)) if i not in touched]
    parts = [stack[[kept[i] for i in untouched]]]
    if touched:
        # one product for every touched row, on the integers: [I | C] times
        # [rows; eliminated rows], with the objective as one more column
        rows = [kept[i] for i in touched] + gone
        data = qconcat([stack[rows], objective[rows][:, None]], axis=1)
        coeffs = np.hstack([np.eye(len(touched), dtype=int), C[touched]])
        new = split(coeffs) @ data
        for i, row in zip(touched, new.join()):
            mats[i], b[i] = row[:-1].reshape(p.n, p.n), row[-1]
        parts.append(new[:, :-1])
    # the reduced pencil's split, from these integers alone: its rows in
    # pencil order, over their least common denominator
    reduced = qconcat(parts)[np.argsort(untouched + touched)]

    pencil = MatrixPencil.from_stack(mats, keep, reduced.reshape(-1, p.n, p.n))
    base = prob.name or "problem"
    base = base[: -len("-raw")] if base.endswith("-raw") else base
    new_name = base if base.endswith("-reduced") else base + "-reduced"
    return SdpProblem(
        pencil=pencil,
        objective=tuple(b[1:]),
        name=new_name,
        note=prob.note,
        objective_offset=b[0],
    )


def lift_assignment(cons: ImplicitConstraintSet, assignment: dict) -> dict:
    """Extend an assignment of the remaining variables to the original ones."""
    full = dict(assignment)
    for v, expr in reversed(cons.eliminated):
        full[v] = expr.evaluate(full)
    return full


@dataclass(frozen=True)
class ReductionRound:
    certificate: ReducingCertificate
    constraints: ImplicitConstraintSet
    problem: SdpProblem


def reduce_problem(
    prob: SdpProblem,
) -> tuple[SdpProblem, list[ReductionRound], StrictlyFeasible | None]:
    """Repeat diagnose -> derive -> substitute until nothing more is implied.

    Each round may expose a smaller face, so a problem of singularity degree
    d takes d rounds plus one search that finds nothing new; the loop is
    capped at the pencil dimension.  Returns the final problem, the rounds
    performed, and the terminating verdict: a StrictlyFeasible outcome, or
    None when the last certificate implied no further substitutions (a fixed
    point, e.g. structurally zero rows that no substitution can remove) or
    the cap hit.
    """
    rounds: list[ReductionRound] = []
    current = prob
    for _ in range(prob.pencil.n):
        outcome = find_reducing_certificate(current)
        if isinstance(outcome, StrictlyFeasible):
            return current, rounds, outcome
        cons = derive_implicit_constraints(current, outcome.range_vectors)
        if not cons.eliminated:
            return current, rounds, None
        current = apply_constraints(current, cons)
        rounds.append(
            ReductionRound(certificate=outcome, constraints=cons, problem=current)
        )
    return current, rounds, None
