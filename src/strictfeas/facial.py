"""Strict-feasibility diagnosis and repair for pencil-form SDPs.

Given max <b,y> s.t. F0 + sum_i y_i F_i >= 0, exactly one of two things holds
(when the problem is feasible): either some y makes the pencil positive
definite, or there is a nonzero X >= 0 with <F0, X> = 0 and <F_i, X> = 0 for
every i.  Such an X is a *reducing certificate*: every feasible slack matrix
annihilates range(X), so each range vector v yields linear relations
(F0 v)_j + sum_i y_i (F_i v)_j = 0 among the variables.  Substituting those
relations and restricting the pencil to the face orthogonal to range(X)
gives an equivalent, smaller problem (`reduce_problem`, which repeats the
round until a search ends it with a verdict).  One exact RREF in one fixed
column order solves the relations (`derive_implicit_constraints`);
relations that reduce to 0 = 1 prove the SDP infeasible.

The search runs in floats, from one SVD of the pencil's span
L = span{F0, F_i} (`_span_svd`).  One witness walk comes first: a y with
F(y) exactly positive definite proves an exact StrictlyFeasible verdict
(`_witnesses`, `_witness_verdict`).  Otherwise, unless I lies in L, one
margin solve decides the verdict (`build_alternative_problem`), posed from
the same SVD on its smaller side: over the trace-one slice of L's
complement, whose optimal point is the candidate, or over L, whose primal
iterate, shifted along I, is the candidate.  Only the span form's solve
stops at an objective cut (FEAS_CUT).

Every exact object rounded from a solver's iterate comes out of one loop,
`_round_ladder`: at each rung a face
builder fixes an exact face W and affine conditions on the coordinates M
of X = W M W^T, solved exactly once per face, and the coordinates fitted
to the iterate are snapped at every rung until X verifies.  The search's
face snaps a pivot-normalized basis of the candidate's range, from the
rank the spectrum shows down to 1; `certify_optimum`'s face is the kernel
of F(y) at a snapped y.  A candidate that verifies at no rank is surfaced
as RoundingFailed.

Every pencil-wide step reads the pencil's integer split
(`MatrixPencil.split`), not its Fractions, and so does every elimination
of a round: the face bases, the affine solves and the derivation take and
return splits.  Every congruence W^T F W (a face's conditions, the
restriction) is `qcongruence`, in int64 under its bound, and the restricted
split is handed on as the reduced pencil itself (`MatrixPencil.from_split`),
so later rounds never split again.  QuadExt entries are made only where a
round's result leaves: the certificate's X and range vectors, the relations
and `ReductionRound.face`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .certify import BoundCertificate, PrimalVerdict, check_dual_matrix, verify_bound_certificate
from .exactnum import (
    QUAD_ONE,
    QUAD_ZERO,
    RECONSTRUCT_TOL,
    QSplit,
    QuadExt,
    as_quad,
    format_scalar,
    gauss_jordan_split,
    nullspace_split,
    primitive_rows,
    psd_check_exact,
    qconcat,
    qcongruence,
    reconstruct_quadext,
    reconstruct_rational,
    row_space_split,
    split,
    to_float,
)

# not called here: perfbench/spans.py times them in this namespace
from .exactnum import (  # noqa: F401
    frob_inner,
    kernel_basis_exact,
    nullspace_exact,
    row_space_basis_exact,
)
from .model import (
    MatrixPencil,
    SdpProblem,
    StatusTag,
    UnknownVariableError,
    eval_split,
    matrix_entries,
    pencil_eval,
)
from .solver import SolveResult, solve_sdp


class ReductionError(Exception):
    """A diagnosis or reduction step that could not finish.  Raised out of
    `reduce_problem`, it carries `rounds`, the rounds completed before it,
    and `certificate`, the failing round's verified certificate (None when
    its search itself failed)."""

    rounds = ()
    certificate = None


class RoundingFailedError(ReductionError, RuntimeError):
    """The numerical certificate could not be rationalized and verified."""


class SolverFailedError(ReductionError, RuntimeError):
    """The numerical stage of the diagnosis did not converge."""


class InconsistentConstraintsError(ReductionError, ValueError):
    """The implied linear relations reduce to 0 = 1: the SDP is infeasible."""


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
    """The implied relations, solved: each (v, expr) reads v = expr, where
    expr uses only variables that are not eliminated."""

    eliminated: tuple[tuple[str, AffineExpr], ...]

    @property
    def eliminated_names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.eliminated)

    def as_dict(self) -> dict:
        return {"eliminated": [[v, e.as_dict()] for v, e in self.eliminated]}


@dataclass(frozen=True)
class ReducingCertificate:
    """Exact nonzero X >= 0 orthogonal to the whole pencil, plus range basis
    and, from a search, its split (rows: the vectors) for the next round."""

    X: np.ndarray
    range_vectors: tuple
    note: str = ""
    range_split: QSplit | None = field(default=None, repr=False, compare=False)

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

    `exact` verdicts are proved by a witness y whose F(y) is exactly
    positive definite, which `detail` names (or, at the end of a reduction
    to the face {0}, by every feasible F(y) being zero); numeric verdicts
    carry the solver tolerance and are evidence, not proof.
    """

    exact: bool
    tolerance: float | None
    detail: str = ""


def _upper_functionals(C: QSplit) -> QSplit:
    """<C_k, M> as functionals of the upper-triangle entries of a symmetric
    M, one row per matrix C_k of the stack C (one row for a matrix C):
    weighted on the integers, 1 on the diagonal and 2 off it, where M_ij
    counts twice."""
    iu = _chart_coordinates(C.shape[-1])[0]
    return C[..., iu[0], iu[1]].scaled(np.where(iu[0] == iu[1], 1, 2))


def _symmetric_split(coords, n: int) -> QSplit:
    """The split of the symmetric n x n matrix whose upper triangle, row by
    row, holds the exact scalars `coords`."""
    S = split(coords)
    iu = _chart_coordinates(n)[0]

    def full(U):
        if U is None:
            return None
        M = np.empty((n, n), dtype=object)
        M[iu] = U
        M[iu[1], iu[0]] = U
        return M

    return QSplit(full(S.A), full(S.B), S.d)


# a distance of I from the pencil's span below this norm is roundoff: the
# orthogonal slice looks traceless, and an exact witness decides the verdict
TRACE_FLOOR = 1e-9


@functools.cache
def _chart_coordinates(n: int):
    """The upper-triangle indices of an n x n matrix and their sqrt2
    weights, under which the Frobenius product is the dot product; made
    once per n and shared, read-only."""
    iu = np.triu_indices(n)
    w = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    for a in (*iu, w):
        a.setflags(write=False)
    return iu, w


def _chart_matrices(coords: np.ndarray, n: int) -> np.ndarray:
    """The (k, n, n) stack of symmetric matrices whose weighted upper
    triangles are the rows of `coords` (`_chart_coordinates(n)`), built in
    one step."""
    iu, w = _chart_coordinates(n)
    M = np.zeros((len(coords), n, n))
    M[:, iu[0], iu[1]] = coords / w
    return M + np.triu(M, 1).transpose(0, 2, 1)


def _span_svd(p: MatrixPencil):
    """The pencil's span L = span{F0, F_i} from one SVD, K = U diag(s) Vt,
    of the chart coordinates K of F0, F_1, ..., F_m (`_chart_coordinates`):
    (K, V, traces, fit, traceless, perp).  V, Vt's first rank rows, is an
    orthonormal basis of L, and its rows have the traces `traces`; perp,
    the other rows of Vt, is one of L's complement, and I lies in L up to
    roundoff (TRACE_FLOOR) when its part there is `traceless`.  `fit` is the
    least-squares c of I = c0 F0 + sum_i c_i F_i, of least norm when the
    matrices are dependent: c = U_r (V I / s_r)."""
    iu, w = _chart_coordinates(p.n)
    K = to_float(p.split[:, iu[0], iu[1]]) * w
    U, s, Vt = np.linalg.svd(K)
    # numpy's matrix_rank tolerance
    r = int(np.sum(s > max(K.shape) * np.finfo(float).eps * s[0]))
    eye = (iu[0] == iu[1]).astype(float)
    traces = Vt[:r] @ eye
    traceless = np.linalg.norm(Vt[r:] @ eye) < TRACE_FLOOR
    return K, Vt[:r], traces, U[:, :r] @ (traces / s[:r]), traceless, Vt[r:]


def _factors(coords, n: int) -> bool:
    """Whether the symmetric matrix with chart coordinates `coords` has a
    float Cholesky factor, i.e. is positive definite in floats; the
    factorization reads the lower triangle only."""
    iu, w = _chart_coordinates(n)
    lower = np.zeros((n, n))
    lower[iu[1], iu[0]] = coords / w
    try:
        np.linalg.cholesky(lower)
    except np.linalg.LinAlgError:
        return False
    return True


def _witnesses(p: MatrixPencil, K, c, traceless: bool):
    """The candidate witnesses y, cheapest first: y = 0, then, when the fit
    c of I has c0 > 0 and sum_k c_k F_k = c0 F(c / c0) factors, y = c / c0
    rounded to denominators 1, 10 and 100, each passed on only if F(y)
    factors in floats.  When I lies in the span (`traceless`), y = 0 skips
    that screen, since no margin problem follows to catch an F0 positive
    definite exactly but not in floats, and the witnesses (`_span_witness`)
    of c snapped down ROUNDING_LADDER follow, for a c0 = 0 that holds in
    floats only, and last that of the exact solve, its c0 shifted to 1
    along a free homogeneous solution."""
    if traceless or _factors(K[0], p.n):
        yield [QUAD_ZERO] * p.m
    if c[0] > 0 and _factors(c @ K, p.n):
        for den in (1, 10, 100):
            a = np.rint(den * c[1:] / c[0])
            if _factors(np.concatenate([[den], a]) @ K, p.n):
                yield [Fraction(int(x), den) for x in a]
    if not traceless:
        return
    for rung in ROUNDING_LADDER:
        snapped = _snap(c, *rung)
        if snapped is not None:
            yield _span_witness([as_quad(x) for x in snapped], p.f0)
    iu = _chart_coordinates(p.n)[0]
    # one row per upper-triangle entry (i, j), with right-hand side I_ij
    solved = _affine_solve_exact(p.split[:, iu[0], iu[1]].T, (iu[0] == iu[1]).astype(int))
    if solved is not None:
        exact, *homogeneous = solved.join()
        free = next((h for h in homogeneous if bool(h[0])), None)
        if not exact[0] > 0 and free is not None:
            shift = (QUAD_ONE - exact[0]) / free[0]
            exact = [ei + shift * hi for ei, hi in zip(exact, free)]
        yield _span_witness(exact, p.f0)


def _span_witness(c, f0):
    """The witness y that a solution c of I = c0 F0 + sum_i c_i F_i gives,
    or None when c0 < 0: y = c / c0 gives F(y) = I / c0 when c0 > 0, and
    when c0 = 0, y = t c gives F(y) = F0 + t I, positive definite for
    t = 1 + the largest absolute row sum of F0."""
    if c[0] > 0:
        return [ci / c[0] for ci in c[1:]]
    if bool(c[0]):
        return None
    t = QUAD_ONE + max(sum(map(abs, row), QUAD_ZERO) for row in f0)
    return [t * ci for ci in c[1:]]


def _witness_verdict(p: MatrixPencil, candidates) -> StrictlyFeasible | None:
    """The exact verdict of the first candidate y, a list of exact scalars
    (None skips), with F(y) exactly positive definite, each distinct y
    tried once; or None.  F(y), taken as its split (`eval_split`), is
    positive definite when `psd_check_exact` finds it PSD of rank n."""
    tried = []
    for y in candidates:
        if y is None or y in tried:
            continue
        tried.append(y)
        check = psd_check_exact(eval_split(p, dict(zip(p.var_names, y))))
        if check.is_psd and check.rank == p.n:
            break
    else:
        return None
    if not p.m:
        detail = "F0 is positive definite, so y = 0 is a strictly feasible point"
    else:
        point = ", ".join(f"{v} = {format_scalar(c)}" for v, c in zip(p.var_names, y))
        detail = f"F(y) is positive definite at {point}"
    return StrictlyFeasible(exact=True, tolerance=None, detail=detail)


def build_alternative_problem(prob: SdpProblem) -> SdpProblem | None:
    """The margin SDP of the second alternative, posed on its smaller side,
    or None on a traceless slice.

    The search's margin is t* = max t s.t. X - t I >= 0, X orthogonal to
    L = span{F0, F_i} and tr X = 1: the largest minimum eigenvalue on that
    slice, nonnegative iff a reducing certificate exists.  In sqrt2-weighted
    upper-triangle coordinates the Frobenius inner product is the dot
    product, so the SVD of the pencil's constraint rows gives orthonormal
    bases of L and of its complement (`_span_svd`).  With N = n(n+1)/2 and
    r = dim L, the problem is posed over the trace-one slice of the
    complement, N - r variables (`_slice_margin_problem`), when that is
    fewer than r, and otherwise over L from the dual side, r variables
    (`_span_margin_problem`): the Schur complement grows with the variable
    count.  Both are named `<name>-alternative-margin`.

    None means I lies in L up to roundoff (TRACE_FLOOR): the slice looks
    empty or traceless, and only a witness y decides (`_witnesses`).
    """
    _, V, traces, _, traceless, perp = _span_svd(prob.pencil)
    return None if traceless else _smaller_side(prob, V, traces, perp)[0]


def _smaller_side(prob: SdpProblem, V, traces, perp):
    """(the margin SDP on its smaller side, whether that is the slice side),
    from `_span_svd`'s bases of L and of its complement; a tie takes L."""
    if len(perp) < len(V):
        return _slice_margin_problem(prob, perp), True
    return _span_margin_problem(prob, V, traces), False


def _slice_margin_problem(prob: SdpProblem, perp) -> SdpProblem:
    """The margin SDP over the trace-one slice of L's complement, from
    `_span_svd`'s orthonormal basis perp of it: max t s.t.
    X0 + sum_k z_k B_k - t I >= 0, variables z1..zk and slack_margin, terms
    B_k and -I.  With tau = perp I the trace functional on the complement,
    X0 = tau perp / |tau|^2 is its minimum-norm trace-one point, and one QR
    of tau gives an orthonormal basis B of its trace-free directions.  Its
    optimum is t* itself, and X(z*) = X0 + sum_k z_k B_k is the certificate
    candidate."""
    n = prob.pencil.n
    iu = _chart_coordinates(n)[0]
    tau = perp @ (iu[0] == iu[1])
    Q, _ = np.linalg.qr(tau[:, None], mode="complete")
    coords = np.vstack([tau @ perp / (tau @ tau), Q[:, 1:].T @ perp])
    X0, *B = _chart_matrices(coords, n)
    pencil = MatrixPencil(
        n=n,
        scalar="double",
        f0=X0,
        var_names=(*(f"z{k+1}" for k in range(len(B))), "slack_margin"),
        terms=(*B, -np.eye(n)),
    )
    return SdpProblem(
        pencil=pencil,
        objective=(0.0,) * len(B) + (1.0,),
        name=f"{prob.name or 'problem'}-alternative-margin",
        note="margin problem of the second alternative, over the trace-one slice of L's complement",
    )


def _span_margin_problem(prob: SdpProblem, V, traces) -> SdpProblem:
    """The margin SDP from the dual side, from `_span_svd`'s basis V of the
    span and its traces: min mu s.t. S = mu I + Y >= 0, tr S = 1 and Y in
    L, with the same optimum t* as `_slice_margin_problem` and the same PSD
    pair (X - t I, S), the solver's primal and dual roles swapped.  One more
    SVD orthonormalizes the trace-free parts of V: Q_k = Y_k - (c_k / n) I
    for some Y_k in L with tr Y_k = c_k.  With Y = -sum_k q_k Y_k the trace
    condition eliminates mu = (1 + c.q) / n, so S = I/n - sum_k q_k Q_k,
    and maximizing -mu is objective -c/n with offset -1/n.  Variables
    q1..qk, terms -Q_k."""
    n = prob.pencil.n
    iu = _chart_coordinates(n)[0]
    eye = (iu[0] == iu[1]).astype(float)
    U, sq, Q = np.linalg.svd(V - np.outer(traces / n, eye), full_matrices=False)
    c = (U.T @ traces) / sq
    pencil = MatrixPencil(
        n=n,
        scalar="double",
        f0=np.eye(n) / n,
        var_names=tuple(f"q{k+1}" for k in range(len(Q))),
        terms=tuple(_chart_matrices(-Q, n)),
    )
    return SdpProblem(
        pencil=pencil,
        objective=tuple((-c / n).tolist()),
        name=f"{prob.name or 'problem'}-alternative-margin",
        note="trace-normalized margin problem of the second alternative, over the pencil's span",
        objective_offset=-1.0 / n,
    )


# a best slack margin below -FEAS_CUT is numerical evidence that no
# certificate exists (ten times the solver's feasibility tolerance).  It is
# also the span form's objective cut: the first strictly feasible point of
# `_span_margin_problem` with slack margin mu(q) < -FEAS_CUT settles that
# verdict, since t* <= mu(q), so the solve stops there.  A certificate
# means t* >= 0, which no such point can beat.  The slice form maximizes t
# itself, so a cut there would only bound t* from below: it runs uncut
FEAS_CUT = 1e-8

# eigenvalues of the numerical certificate at or above this fraction of the
# largest one count toward its rank; the search starts at that rank
RANK_CUTOFF = 1e-6

# rounding rungs (max denominator, over Q(sqrt5), tolerance), walked in
# order by `_round_ladder` and, for the fit of I, by `_witnesses`.
# Iterates sit ~sqrt(gap) off the optimal face, so the small-denominator
# rational snaps need a loose acceptance; that is sound because exact
# verification guards every snap.  Q(sqrt5) reconstruction comes only after
# plain rationals fail, and only at max_den 100, where Bell problem 2's
# optimum face snaps; no walk wins at a larger Q(sqrt5) height.  The last,
# coarse rung is for chains of singularity degree d >= 3, whose iterates sit
# about gap^(2^-d) off the face (Sturm, SIAM J. Optim. 2000), beyond the
# first rung's tolerance: a face with small integer entries still snaps at
# den 10 within 1e-2.  It comes last, so it is tried only where every other
# rung fails.
ROUNDING_LADDER = (
    (100, False, 1e-3),
    (10**4, False, 1e-5),
    (10**6, False, RECONSTRUCT_TOL),
    (100, True, RECONSTRUCT_TOL),
    (10, False, 1e-2),
)


def _rung_name(rung) -> str:
    den, extension, _ = rung
    return f"max_den={den}" + (" over Q(sqrt5)" if extension else "")


_FRACTION_ZERO = Fraction(0)


def _snap(x, den: int, extension: bool, tol: float) -> list | None:
    """The float vector x snapped at one rung of the rounding ladder:
    Fractions at a rational rung, QuadExt over Q(sqrt5) (`reconstruct_quadext`
    per entry), or None when an entry does not snap.

    At a rational rung (den, tol) an entry with |x| < 1/(2 den) snaps to 0,
    which is then the closest fraction with denominator at most den and so
    what `reconstruct_rational` returns, and it is accepted iff |x| <= tol;
    any other entry goes through `reconstruct_rational`.
    """
    x = np.asarray(x, dtype=float)
    xs = x.tolist()
    if extension:
        snapped = (reconstruct_quadext(v, den) for v in xs)
    else:
        # rounding is monotone, so a float product below 1 is an exact one
        tiny = (np.abs(x) * (2 * den) < 1.0).tolist()
        snapped = (
            (_FRACTION_ZERO if abs(v) <= tol else None)
            if zero
            else reconstruct_rational(v, den, tol)
            for v, zero in zip(xs, tiny)
        )
    out = []
    for r in snapped:
        if r is None:
            return None
        out.append(r)
    return out


def _affine_solve_exact(K, rhs) -> QSplit | None:
    """The solutions of K x = rhs as one split, a particular solution in row
    0 and a basis of the homogeneous ones after it; or None.

    One elimination of [K | -rhs] (K an exact matrix or its split): the
    system is consistent exactly when the last column is free, and then its
    nullspace vector (last entry 1, the last row) is the particular solution.
    """
    rows, cols = K.shape
    last = split(rhs).scaled(-1).reshape(rows, 1)
    N = nullspace_split(qconcat([K, last], axis=1))
    if not N.shape[0] or not N.A[-1, cols]:
        return None
    return N[[-1, *range(N.shape[0] - 1)], :cols]


def _numerical_rank(lam: np.ndarray) -> int:
    """How many of the ascending eigenvalues lam count toward the rank."""
    return int(np.sum(lam >= RANK_CUTOFF * max(float(lam[-1]), 1e-300)))


def _face_split_certificate(prob: SdpProblem, Xnum: np.ndarray):
    """Certificate extraction by face rounding, rank by rank.

    The search starts at the rank the spectrum gives (eigenvalues at least
    RANK_CUTOFF times the largest).  An iterate that sits ~sqrt(gap) off the
    optimal face can carry a spurious eigenvalue above that cutoff, and then
    no face of that rank rounds; so when no rung verifies, the next
    lower rank is tried, down to rank 1.  The first exactly verified
    certificate wins.  Returns (certificate, None) or (None, every failure,
    named by its rank and its face's rung).
    """
    lam, V = np.linalg.eigh(Xnum)
    top = _numerical_rank(lam)
    if top == 0:
        return None, "numerical certificate has rank 0"
    reasons = []
    for r in range(top, 0, -1):
        cert, failures = _round_face(prob, Xnum, V[:, -r:])
        if cert is not None:
            return cert, None
        reasons += [f"rank {r}, face at {_rung_name(rung)}: {why}" for rung, why in failures]
    return None, "; ".join(reasons)


def _round_face(prob: SdpProblem, Xnum: np.ndarray, Vr: np.ndarray):
    """Round the face spanned by the orthonormal columns Vr, then X in it.

    A column-pivoted Gram-Schmidt pass over the columns of Vr^T picks r
    pivots, and E = Vr^T[:, piv]^-1 Vr^T is the face's basis with
    E[:, piv] = I.  E depends on the face and the pivots alone, so its
    other entries, snapped at each rung (`_snap`), round to small
    exact numbers wherever in the face the solver lands.  At each rung the
    face builder fixes W, the reduced row echelon basis of the snapped rows
    as primitive integer columns, with the conditions <W^T Q W, M> = 0 for
    every Q and tr(W^T W M) = 1 on the coordinates M of X = W M W^T.  When
    M is nonsingular, range(X) = range(W), so W's columns are X's range
    vectors.  Returns (certificate, None) or (None, the (rung, reason) of
    each face rung's failure).
    """
    p = prob.pencil
    n, r = Vr.shape
    residual, piv = Vr.T.copy(), []
    for _ in range(r):
        k = int(np.argmax(np.linalg.norm(residual, axis=0)))
        q = residual[:, k] / np.linalg.norm(residual[:, k])
        residual -= np.outer(q, q @ residual)
        piv.append(k)
    free = [k for k in range(n) if k not in piv]
    entries = np.linalg.solve(Vr.T[:, piv], Vr.T)[:, free].ravel()
    basis = np.full((r, n), _FRACTION_ZERO, dtype=object)
    basis[range(r), piv] = Fraction(1)
    rhs = [QUAD_ZERO] * (p.m + 1) + [QUAD_ONE]

    def face(rung):
        coords = _snap(entries, *rung)
        if coords is None:
            return "face basis entries not representable"
        basis[:, free] = np.array(coords, dtype=object).reshape(r, n - r)
        W = primitive_rows(row_space_split(basis)).T
        return W, qconcat([qcongruence(W, p.split), (W.T @ W)[None]]), rhs

    found, failures = _round_ladder(
        face, Xnum, lambda X: (X, verify_certificate_matrix(prob, X))
    )
    if found is None:
        return None, failures
    X, W, M, rung, inner = found
    # M of rank below r: range(X) is smaller than range(W)
    V = primitive_rows(row_space_split(X)) if len(gauss_jordan_split(M)[2]) < r else W.T
    note = f"face rounding at {_rung_name(rung)}"
    if inner != rung:
        note += f", coordinates at {_rung_name(inner)}"
    note += f"; rank {V.shape[0]}"
    return ReducingCertificate(X.join(), tuple(V.join()), note, V), None


def _round_ladder(face, Xnum: np.ndarray, verify):
    """ROUNDING_LADDER walked for a matrix: X = W M W^T for a symmetric M with
    <rows_k, M> = rhs_k exactly, from the float iterate Xnum.

    At each rung in turn `face(rung)` builds the exact face, (W, rows, rhs),
    or names why it found none.  One exact solve gives the conditions'
    solutions M = particular + sum_j s_j h_j; s is fitted to Xnum and
    snapped at every rung of the ladder in order, and the first X for which
    `verify(X)` returns (result, no problems) wins.  The solutions are one
    split, so each M is one product on the integers.  Returns
    ((result, W, M, the face's rung, the coordinates' rung), None), or
    (None, [(rung, why it failed) for each face rung]), where a built face
    reports its coordinates' last failure; one solution's X is verified once.
    """
    failures = []
    for rung in ROUNDING_LADDER:
        built = face(rung)
        if isinstance(built, str):
            failures.append((rung, built))
            continue
        W, rows, rhs = built
        r = W.shape[1]
        basis = _affine_solve_exact(_upper_functionals(rows), rhs)
        if basis is None:
            failures.append((rung, "face slice is inconsistent"))
            continue
        if basis.shape[0] == 1:
            # the particular solution is the only one: there is nothing to fit
            fit = np.empty(0)
        else:
            Wpinv = np.linalg.pinv(to_float(W))
            mflat = (Wpinv @ Xnum @ Wpinv.T)[_chart_coordinates(r)[0]]
            # to_float of a split is float(QuadExt) bit for bit, row by row
            Bf = to_float(basis)
            fit = np.linalg.lstsq(Bf[1:].T, mflat - Bf[0], rcond=None)[0]
        for inner in ROUNDING_LADDER:
            s = _snap(fit, *inner)
            if s is None:
                why = f"coordinates not representable at {_rung_name(inner)}"
                continue
            M = _symmetric_split(split([Fraction(1), *s]) @ basis, r)
            result, problems = verify(W @ M @ W.T)
            if not problems:
                return (result, W, M, rung, inner), None
            why = f"coordinates at {_rung_name(inner)}: " + "; ".join(problems)
            if basis.shape[0] == 1:
                break  # every later inner rung would verify this X again
        failures.append((rung, why))
    return None, failures


def find_reducing_certificate(prob: SdpProblem):
    """Search for a reducing certificate; verify it exactly or report back.

    One SVD of the pencil's span (`_span_svd`) serves the whole search.  A y
    with F(y) exactly positive definite rules out every reducing
    certificate (Borwein & Wolkowicz 1981), so the witness walk comes first
    (`_witnesses`).  When I lies in the span no margin problem is posed:
    its slice settles only the homogenized pencil (F0 = -I passes), so a
    walk that proves nothing raises SolverFailedError.

    Otherwise the margin problem (`build_alternative_problem`) is solved on
    its smaller side; its optimum t* is the largest minimum eigenvalue of a
    trace-one X orthogonal to the pencil.  The slice form runs to its
    optimum, and X = X(z*) is the candidate; a slice of one point X0
    (N - r = 1) poses no SDP: t* = lambda_min(X0), and X0 is the
    candidate.  The span form's t* is
    -objective_dual, and its objective cut is FEAS_CUT, so where no
    certificate exists it stops at the first q with mu(q) < -FEAS_CUT; where
    one exists t* >= 0 and the solve runs to the optimum, and X = X~ +
    ((1 - tr X~) / n) I, with X - t* I = X~ the solver's primal.  A margin
    below -FEAS_CUT is numeric StrictlyFeasible evidence whose detail states
    it (at the span form's cut, as the bound it is).  Otherwise X, which an
    interior-point optimum puts in the relative interior of the optimal
    face, is rounded face first and coordinates second, from the rank its
    spectrum gives down to rank 1 (`_face_split_certificate`).  The note
    names the face's rung and, where it differs, the coordinates' rung.
    """
    p = prob.pencil
    K, V, traces, fit, traceless, perp = _span_svd(p)
    verdict = _witness_verdict(p, _witnesses(p, K, fit, traceless))
    if verdict is not None:
        return verdict
    if traceless:
        raise SolverFailedError(
            "I is in the span of the pencil matrices in floats, but F(y) is positive "
            "definite at no candidate: no witness y proves strict feasibility"
        )
    alt, on_slice = _smaller_side(prob, V, traces, perp)
    if on_slice and len(perp) == 1:
        # a one-point slice {X0}: t* = lambda_min(X0), and no SDP to solve
        Xnum = alt.pencil.f0
        margin = float(np.linalg.eigvalsh(Xnum)[0])
    else:
        res = solve_sdp(alt, stop_above=None if on_slice else FEAS_CUT)
        if res.status.tag not in (StatusTag.OPTIMAL, StatusTag.OBJECTIVE_CUT_REACHED):
            raise SolverFailedError(
                f"alternative-problem solve ended with {res.status.tag.value}: "
                f"{res.status.message}"
            )
        # the slice form's objective is t; the span form's is -mu(q) at the
        # solver's y: t* itself at an optimum, an upper bound on t* at the cut
        margin = res.objective_dual if on_slice else -res.objective_dual
        if on_slice:
            # X(z*) = X0 + sum_k z_k B_k, the slice pencil at t = 0
            Xnum = pencil_eval(alt.pencil, {**res.y, "slack_margin": 0.0})
        else:
            # the solver's primal X~ pairs with Q_k as -c_k / n; shifted
            # along I to trace one it is orthogonal to L, and X - t* I = X~
            Xnum = res.X + ((1.0 - np.trace(res.X)) / p.n) * np.eye(p.n)
    if margin < -FEAS_CUT:
        bound = "" if on_slice else "at most "
        return StrictlyFeasible(
            exact=False,
            tolerance=FEAS_CUT,
            detail=(
                "the alternative problem is infeasible at solver tolerance "
                f"(slack margin {bound}{margin:.3e}); this is numerical evidence, "
                "not an exact proof"
            ),
        )
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

    At each rung `_round_ladder` hands it, y* is snapped and kept if F(y)
    is exactly PSD with a kernel as large as the solver X's numerical rank;
    an integer basis W of that kernel is the face.  X = W M W^T with
    <W^T F_i W, M> = -b_i has <F(y), X> = 0, so it bounds the objective by
    its value at y: zero gap.  A constant objective asks no kernel at all:
    X = 0 bounds it by its offset, so F(y) may be positive definite, as it
    is on a face that reduction left strictly feasible.  The proof is
    exact weak duality whatever the solve was.
    """
    p = prob.pencil
    rank = 0  # a constant objective is bounded by X = 0, whatever the kernel of F(y)
    if any(map(bool, prob.objective)):
        rank = max(1, _numerical_rank(np.linalg.eigvalsh(res.X)))
    ystar = [res.y[v] for v in p.var_names]
    rhs = [-c for c in prob.objective]
    points = {}

    def face(rung):
        y = _snap(ystar, *rung)
        if y is None:
            return "y is not representable"
        point = points[rung] = dict(zip(p.var_names, map(as_quad, y)))
        F = eval_split(p, point)
        # the float spectrum screens out what the exact check would reject
        lamF = np.linalg.eigvalsh(to_float(F))
        check = lamF[0] >= -KERNEL_TOL and np.sum(lamF <= KERNEL_TOL) >= rank and psd_check_exact(F)
        if not (check and p.n - check.rank >= rank):
            return f"F(y) is not exactly PSD with a kernel of dimension {rank}"
        W = primitive_rows(nullspace_split(F), positive_lead=True).T
        return W, qcongruence(W, p.split)[1:], rhs

    def bound(X):
        out = verify_bound_certificate(prob, X)
        return out, getattr(out, "violations", ())

    found, failures = _round_ladder(face, res.X, bound)
    if found is None:
        reason = "; ".join(f"y at {_rung_name(rung)}: {why}" for rung, why in failures)
        raise RoundingFailedError(f"could not certify the optimum: {reason}")
    certificate, _, _, rung, _ = found
    return points[rung], PrimalVerdict(feasible=True), certificate


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
    # judged on the integers; only a nonzero entry is joined, to be shown
    B = pairing.A * 0 if pairing.B is None else pairing.B
    for label, a, b in zip(labels, pairing.A, B):
        if a or b:
            v = QuadExt(Fraction(a, pairing.d), Fraction(b, pairing.d))
            problems.append(f"<{label}, X> = {format_scalar(v)} != 0")
    return problems


def derive_implicit_constraints(prob: SdpProblem, vectors) -> ImplicitConstraintSet:
    """Stack (F0 v)_j + sum_i y_i (F_i v)_j = 0 and reduce exactly.

    One RREF over every variable column solves the relations for its pivots.
    The elimination order is fixed: columns by descending file index, except
    that a single-variable objective's variable comes last, so it is
    eliminated only when the relations fix it (its value then moves into the
    objective offset).  Raises InconsistentConstraintsError when the
    relations reduce to 0 = 1, which means the original SDP is infeasible.
    """
    p = prob.pencil
    if p.scalar != "exact":
        raise ValueError("implicit constraints are derived over exact pencils")
    names = p.var_names
    support = [k for k, b in enumerate(prob.objective) if bool(b)]
    last = support if len(support) == 1 else []
    order = [k for k in reversed(range(p.m)) if k not in last] + last

    V = split(vectors).reshape(-1, p.n).T
    # one product with the pencil's split gives (F_i v)_j for every term i,
    # range vector v and index j; F0 moved last and transposed, it is one
    # row per (v, j), and all-zero rows are dropped on the integers
    S = (p.split @ V)[[*range(1, p.m + 1), 0]].T.reshape(-1, p.m + 1)
    nonzero = (S.A != 0).any(axis=1)
    if S.B is not None:
        nonzero |= (S.B != 0).any(axis=1)
    E, pivot, pivots = gauss_jordan_split(S[nonzero], column_order=order)
    # every variable column is ordered, so the rows past the pivot rows read
    # 0 = their constant, decided on the integers
    rest = E[len(pivots):, p.m]
    if any(rest.A) or rest.B is not None and any(rest.B):
        raise InconsistentConstraintsError(
            "the implied linear relations are inconsistent: "
            "the original SDP is infeasible"
        )
    # the pivot rows of the RREF, negated: v = const + sum_k coeffs_k y_k
    R = E[: len(pivots)].scaled(-1).divided(pivot).join()
    return ImplicitConstraintSet(
        eliminated=tuple(
            (
                names[c],
                AffineExpr(
                    const=R[r, p.m],
                    coeffs={names[k]: R[r, k] for k in range(p.m) if k != c},
                ),
            )
            for c, r in pivots.items()
        )
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
    objective = np.array([prob.objective_offset, *prob.objective], dtype=object)
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
        for i, value in zip(touched, new[:, -1].join()):
            b[i] = value
        parts.append(new[:, :-1])
    # the reduced pencil's split, from these integers alone: its rows in
    # pencil order, over their least common denominator
    reduced = qconcat(parts)[np.argsort(untouched + touched)]

    pencil = MatrixPencil.from_split(keep, reduced.reshape(-1, p.n, p.n))
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


def _restrict(prob: SdpProblem, U: QSplit) -> SdpProblem:
    """Every pencil matrix F replaced by U^T F U, one congruence of the
    split (`qcongruence`), whose result is the restricted pencil."""
    S = qconcat([qcongruence(U, prob.pencil.split)])
    return replace(prob, pencil=MatrixPencil.from_split(prob.var_names, S))


@dataclass(frozen=True)
class ReductionRound:
    """A round's certificate, relations and `substituted` problem, the
    columns of the face's integer basis U (`face`; none at the face {0})
    and `problem`: U^T F U of each F, or `substituted` at the face {0}."""

    certificate: ReducingCertificate
    constraints: ImplicitConstraintSet
    substituted: SdpProblem
    face: tuple
    problem: SdpProblem


def reduce_problem(
    prob: SdpProblem,
) -> tuple[SdpProblem, list[ReductionRound], StrictlyFeasible]:
    """Repeat diagnose -> derive -> substitute -> restrict until a search
    finds no certificate; return the final problem, the rounds and that
    search's verdict.

    Each round restricts the substituted pencil to the face orthogonal to
    the certificate's range vectors V (Borwein & Wolkowicz 1981): with U an
    integer basis of ker V^T, every pencil matrix F becomes U^T F U.  Once
    F(y) V = 0, F(y) >= 0 exactly when U^T F(y) U >= 0, so the feasible y,
    the objective and `lift_assignment` stay as they are.  A round lowers n
    by the certificate's rank, so there are at most n + 1 searches.  At the
    face {0} (a certificate of full rank) every feasible F(y) is zero: the
    loop ends with the substituted problem and an exact verdict.

    A ReductionError of any round is re-raised carrying the rounds
    completed and the failing round's certificate (see ReductionError).
    """
    rounds: list[ReductionRound] = []
    current, pending = prob, None
    try:
        while True:
            outcome = find_reducing_certificate(current)
            if isinstance(outcome, StrictlyFeasible):
                return current, rounds, outcome
            pending = outcome
            cons = derive_implicit_constraints(current, outcome.range_split)
            substituted = apply_constraints(current, cons)
            face = nullspace_split(outcome.range_split)
            if not face.shape[0]:
                rounds.append(ReductionRound(outcome, cons, substituted, (), substituted))
                detail = "every feasible F(y) is zero: the reduced problem has no conic constraint"
                return substituted, rounds, StrictlyFeasible(True, None, detail)
            U = primitive_rows(face).T
            current = _restrict(substituted, U)
            rounds.append(ReductionRound(outcome, cons, substituted, tuple(U.T.join()), current))
            pending = None
    except ReductionError as exc:
        exc.rounds, exc.certificate = rounds, pending
        raise
