"""Shared test utilities: random strictly feasible SDPs with known optima,
small exact problems that need reduction, exact products the tests use and
loop-based exact kernels."""

import decimal
import hashlib
import json
import math
from fractions import Fraction

import numpy as np

from strictfeas.bell import MU2_STAR
from strictfeas.exactnum import (
    QUAD_ONE,
    QUAD_ZERO,
    NonSymmetricError,
    PsdCheck,
    QSplit,
    as_quad,
    parse_scalar,
    psd_check_exact,
    qarray,
    qcongruence,
    qmatmul,
    qsign,
    qzeros,
    quad,
    split,
)
from strictfeas.model import (
    MatrixPencil,
    MissingVariableError,
    SdpProblem,
    UnknownVariableError,
    pencil_eval,
)


def decimal_sign(x) -> int:
    """The sign of a + b*sqrt5 by an independent 60-digit decimal evaluation."""
    with decimal.localcontext(decimal.Context(prec=60)):
        D = decimal.Decimal
        v = D(x.a.numerator) / x.a.denominator + D(x.b.numerator) / x.b.denominator * D(5).sqrt()
    return (v > 0) - (v < 0)


def qeye(n: int) -> np.ndarray:
    """The exact n x n identity."""
    out = qzeros(n)
    for i in range(n):
        out[i, i] = QUAD_ONE
    return out


def random_certified_sdp(rng: np.random.Generator, n: int, m: int):
    """A strictly feasible pencil SDP with a known optimum.

    Construction: pick a strictly complementary pair Z* = Q D_z Q^T,
    X* = Q D_x Q^T (D_z D_x = 0, D_z + D_x > 0), random symmetric terms with
    the first one positive definite, y* random, and set
    F0 = Z* - sum_k y*_k F_k,  b_k = -<F_k, X*>.
    Then every feasible y has <b, y> <= <F0, X*> (weak duality via X*), the
    bound is attained at y*, and y* + t e_1 is strictly feasible for t > 0
    because F_1 > 0.  Returns (problem, optimum, strictly_feasible_point).
    """
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    r = int(rng.integers(1, n))  # rank of X*
    dx = np.concatenate([rng.uniform(0.5, 2.0, size=r), np.zeros(n - r)])
    dz = np.concatenate([np.zeros(r), rng.uniform(0.5, 2.0, size=n - r)])
    Xstar = (Q * dx) @ Q.T
    Zstar = (Q * dz) @ Q.T

    terms = []
    B = rng.standard_normal((n, n))
    terms.append(B @ B.T + n * np.eye(n))  # positive definite
    for _ in range(m - 1):
        S = rng.standard_normal((n, n))
        terms.append(0.5 * (S + S.T))
    ystar = rng.uniform(-1.0, 1.0, size=m)

    F0 = Zstar - sum(yk * Fk for yk, Fk in zip(ystar, terms))
    b = tuple(-float(np.tensordot(Fk, Xstar, axes=2)) for Fk in terms)
    optimum = float(np.tensordot(F0, Xstar, axes=2))

    pencil = MatrixPencil(
        n=n,
        scalar="double",
        f0=0.5 * (F0 + F0.T),
        var_names=tuple(f"y{k}" for k in range(m)),
        terms=tuple(0.5 * (T + T.T) for T in terms),
    )
    prob = SdpProblem(pencil=pencil, objective=b, name=f"random-certified-{n}x{m}")
    interior = dict(zip(pencil.var_names, ystar))
    interior["y0"] = float(interior["y0"]) + 0.25
    return prob, optimum, interior


# unimodular congruence hiding the chain below (det 1, integer inverse
# [[0, 0, -1], [-1, 2, 1], [0, 1, 1]])
PLANTED_U = np.array([[1, -1, 2], [1, 0, 1], [-1, 0, 0]])


def planted_chain_problem() -> SdpProblem:
    """A face of singularity degree 2, hidden by a unimodular congruence.

    Before the congruence the slack is [[0, 0, a], [0, a, b], [a, b, 1 + s]]:
    PSD forces a = 0 (row 0), and only then b = 0 (row 1), so reduction
    takes two rounds.  The objective, maximize -s, has optimum 1.
    """
    Fa = np.zeros((3, 3), dtype=int)
    Fa[0, 2] = Fa[2, 0] = Fa[1, 1] = 1
    Fb = np.zeros((3, 3), dtype=int)
    Fb[1, 2] = Fb[2, 1] = 1
    Fs = np.zeros((3, 3), dtype=int)
    Fs[2, 2] = 1
    hide = lambda M: qarray((PLANTED_U.T @ M @ PLANTED_U).tolist())  # noqa: E731
    pencil = MatrixPencil(
        n=3,
        scalar="exact",
        f0=hide(Fs),
        var_names=("a", "b", "s"),
        terms=(hide(Fa), hide(Fb), hide(Fs)),
    )
    return SdpProblem(
        pencil=pencil, objective=(quad(0), quad(0), quad(-1)), name="planted-chain"
    )


def pinned_offset_problem() -> SdpProblem:
    """diag(y1 - 1, 1 - y1, 1 - y2), maximize y1 + y2; the optimum is 2.

    The pencil pins y1 = 1, so reduction moves the constant 1 of the
    objective into objective_offset.
    """
    pencil = MatrixPencil.from_upper(
        3,
        "exact",
        [(0, 0, -1), (1, 1, 1), (2, 2, 1)],
        [("y1", [(0, 0, 1), (1, 1, -1)]), ("y2", [(2, 2, -1)])],
    )
    return SdpProblem(pencil=pencil, objective=(quad(1), quad(1)), name="pinned-offset")


def pinned_objective_problem() -> SdpProblem:
    """[[0, mu - 1/2], [mu - 1/2, a]], maximize mu; the optimum is 1/2.

    The certificate e1 e1^T implies mu = 1/2, which fixes the objective's
    only variable: reduction eliminates it into objective_offset.
    """
    pencil = MatrixPencil.from_upper(
        2,
        "exact",
        [(0, 1, Fraction(-1, 2))],
        [("mu", [(0, 1, 1)]), ("a", [(1, 1, 1)])],
    )
    return SdpProblem(pencil=pencil, objective=(quad(1), quad(0)), name="pinned-objective")


# the golden ratio (1 + sqrt5)/2, the Q(sqrt5) coefficient of planted_chain
GOLDEN = quad("1/2", "1/2")


def _unimodular(rng: np.random.Generator, n: int, ops: int) -> tuple:
    """Integer U with det 1, a product of random row additions, and its
    integer inverse."""
    U = np.eye(n, dtype=np.int64)
    Uinv = np.eye(n, dtype=np.int64)
    for _ in range(ops):
        i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
        t = int(rng.choice((-1, 1)))
        U[i, :] += t * U[j, :]  # U <- (I + t e_i e_j^T) U
        Uinv[:, j] -= t * Uinv[:, i]  # Uinv <- Uinv (I - t e_i e_j^T)
    return U, Uinv


def planted_chain(
    rng: np.random.Generator, n: int, d: int, sqrt5: bool = False
) -> SdpProblem:
    """A hidden face chain of singularity degree d (n >= d + 1).

    Before the congruence, S[k, d] = a_{k+1} for k < d and
    S[k+1, k+1] = a_{k+1} for k + 1 < d, and every entry of the trailing
    block (rows d..n-1) is a variable of its own, with constant I.  PSD
    forces a1 = 0 (row 0), then a2 = 0 (row 1), and so on: d rounds.  With
    sqrt5 the coefficient of a_{k+1} at S[k, d] is the golden ratio, so the
    data lie in Q(sqrt5).  The objective, maximize -s{d}_{d}, never touches
    the chain.  S' = U^T S U with a random unimodular U hides the chain;
    for d = 2 this is the planted-reduce benchmark problem.
    """
    U, _ = _unimodular(rng, n, ops=2 * n)
    block = [(i, j) for i in range(d, n) for j in range(i, n)]
    names = [f"a{k + 1}" for k in range(d)] + [f"s{i}_{j}" for i, j in block]
    # the stack (F0, F_1, ..., F_m) as integers over den: the golden ratio
    # is (1 + sqrt5)/2
    den = 2 if sqrt5 else 1
    A = np.zeros((len(names) + 1, n, n), dtype=object)
    B = np.zeros_like(A)
    A[0, d:, d:] = den * np.eye(n - d, dtype=int)
    for k in range(d):
        A[1 + k, k, d] = A[1 + k, d, k] = B[1 + k, k, d] = B[1 + k, d, k] = 1
        if k + 1 < d:
            A[1 + k, k + 1, k + 1] = den
    for t, (i, j) in enumerate(block, 1 + d):
        A[t, i, j] = A[t, j, i] = den
    f0, *terms = qcongruence(U, QSplit(A, B if sqrt5 else None, den)).join()
    objective = [quad(0)] * len(terms)
    objective[names.index(f"s{d}_{d}")] = quad(-1)
    pencil = MatrixPencil(
        n=n,
        scalar="exact",
        f0=f0,
        var_names=tuple(names),
        terms=tuple(terms),
    )
    return SdpProblem(
        pencil=pencil,
        objective=tuple(objective),
        name=f"planted-chain-{d}-{n}" + ("-sqrt5" if sqrt5 else ""),
    )


def interior_problem(rng: np.random.Generator, n: int, m: int, rank: int):
    """A strictly feasible exact SDP with a known integer optimum.

    X* = P Dx P^T and Z* = P^-T Dz P^-1 for a unimodular P and complementary
    positive integer diagonals, so <X*, Z*> = 0 and rank X* + rank Z* = n:
    a strictly complementary pair.  F_1 = B B^T + n I is positive definite,
    F0 = Z* - sum_k y*_k F_k and b_k = -<F_k, X*>.  Weak duality bounds every
    feasible <b, y> by <F0, X*>, the integer point y* attains it, and
    y* + t e_1 is strictly feasible for t > 0.  Returns (problem, optimum).
    """
    P, Pinv = _unimodular(rng, n, ops=n)
    dx = np.concatenate([rng.integers(1, 4, size=rank), np.zeros(n - rank, np.int64)])
    dz = np.concatenate([np.zeros(rank, np.int64), rng.integers(1, 4, size=n - rank)])
    Xstar = P @ np.diag(dx) @ P.T
    Zstar = Pinv.T @ np.diag(dz) @ Pinv
    B = rng.integers(-2, 3, size=(n, n))
    terms = [B @ B.T + n * np.eye(n, dtype=np.int64)]
    for _ in range(m - 1):
        S = rng.integers(-2, 3, size=(n, n))
        terms.append(S + S.T)
    ystar = rng.integers(-2, 3, size=m)
    F0 = Zstar - sum(int(yk) * Fk for yk, Fk in zip(ystar, terms))
    pencil = MatrixPencil(
        n=n,
        scalar="exact",
        f0=qarray(F0.tolist()),
        var_names=tuple(f"y{k}" for k in range(m)),
        terms=tuple(qarray(T.tolist()) for T in terms),
    )
    objective = tuple(quad(-int(np.sum(T * Xstar))) for T in terms)
    prob = SdpProblem(pencil=pencil, objective=objective, name=f"interior-{n}x{m}-{rank}")
    return prob, int(np.sum(F0 * Xstar))


def golden_face_problem() -> SdpProblem:
    """An irrational face, hidden by a Q(sqrt5) congruence.

    Before the congruence the slack is
    [[0, a, b], [a, 1 + s11, s12], [b, s12, 1 + s22]]: PSD forces a = b = 0
    (row 0).  U is unit lower triangular with U[1, 0] = phi, the golden
    ratio, and U[2, 1] = 1, so the face U^{-1} e0 = (1, -phi, phi) has no
    basis vector inside Q^3: only the Q(sqrt5) rungs round it.
    The objective, maximize -s22, has optimum 1.
    """
    U = np.array(
        [[quad(1), quad(0), quad(0)], [GOLDEN, quad(1), quad(0)], [quad(0), quad(1), quad(1)]],
        dtype=object,
    )

    def hide(entries):
        M = np.zeros((3, 3), dtype=object)
        M[...] = QUAD_ZERO
        for i, j in entries:
            M[i, j] = M[j, i] = quad(1)
        return U.T @ M @ U

    names = ("a", "b", "s12", "s11", "s22")
    pencil = MatrixPencil(
        n=3,
        scalar="exact",
        f0=hide([(1, 1), (2, 2)]),
        var_names=names,
        terms=tuple(hide([e]) for e in [(0, 1), (0, 2), (1, 2), (1, 1), (2, 2)]),
    )
    objective = (quad(0),) * 4 + (quad(-1),)
    return SdpProblem(pencil=pencil, objective=objective, name="golden-face")


# ---------------------------------------------------------------------------
# the reduced Bell problems' optima, entered by hand from the source paper:
# reference answers for the certificates that `facial.certify_optimum`
# computes, never an input of the program


def problem1_optimal_point() -> dict:
    """A feasible assignment of the reduced problem 1 attaining mu = 0."""
    return {
        "mu": quad(0),
        "a01": quad(Fraction(1, 3)),
        "b01": quad(Fraction(1, 6)),
        "c0,01": quad(Fraction(1, 6)),
    }


def problem1_bound_matrix() -> np.ndarray:
    """Exact dual matrix certifying mu <= 0 for the reduced problem 1."""
    rows = [
        [1, -1, -1, 0, -1, 1, 1, 0, 0],
        [-1, 4, 1, 0, 1, -4, -4, 0, 3],
        [-1, 1, 1, 0, 1, -1, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [-1, 1, 1, 0, 1, -1, -1, 0, 0],
        [1, -4, -1, 0, -1, 4, 4, 0, -3],
        [1, -4, -1, 0, -1, 4, 4, 0, -3],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 3, 0, 0, 0, -3, -3, 0, 3],
    ]
    return qarray(rows) * quad(Fraction(1, 2))


def problem2_optimal_point() -> dict:
    """The feasible assignment of the reduced problem 2 at its optimum."""
    return {"mu": MU2_STAR}


def problem2_bound_matrix() -> np.ndarray:
    """Exact dual matrix certifying mu <= 5*sqrt5 - 11 for the reduced problem 2.

    X = v v^T with v in the kernel of the pencil at 5*sqrt5 - 11, so
    <F0, X> + mu* <F_mu, X> = 0, and <F_mu, X> = -(100 + 48 sqrt5)/19 < 0.
    """
    v = qarray([[0, "1+sqrt5", 2, "-1-sqrt5", -2, 0, 0, 0, 0]])
    return v.T * v


def assert_witness_proves(pencil: MatrixPencil, detail: str) -> dict:
    """Re-prove the witness an exact StrictlyFeasible detail names: F(y) at
    the y it states is positive definite, by `pencil_eval` and
    `psd_check_exact`.  Returns that y."""
    if detail == "F0 is positive definite, so y = 0 is a strictly feasible point":
        assert pencil.m == 0, detail
        y = {}
    else:
        prefix = "F(y) is positive definite at "
        assert detail.startswith(prefix), detail
        pairs = (part.split(" = ") for part in detail[len(prefix):].split(", "))
        y = {name: parse_scalar(value) for name, value in pairs}
        assert sorted(y) == sorted(pencil.var_names), detail
    check = psd_check_exact(pencil_eval(pencil, y))
    assert check.is_psd and check.rank == pencil.n, detail
    return y


def mat_vec(M, v):
    """Exact M v."""
    return qmatmul(M, v)


def quadratic_form(M, v):
    """Exact v^T M v."""
    return qmatmul(v, M, v)


# ---------------------------------------------------------------------------
# exact products as plain loops of QuadExt arithmetic: the reference that
# the integer-split kernels of exactnum are checked against


def reference_frob_inner(A, B):
    """sum_ij A_ij B_ij, one QuadExt product at a time."""
    total = QUAD_ZERO
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            total = total + as_quad(A[i, j]) * as_quad(B[i, j])
    return total


def reference_primitive_integer_vector(v):
    """v scaled to integer entries with content 1 and a positive lead entry,
    one QuadExt product and division at a time."""
    vals = [as_quad(x) for x in v]
    denoms = [f.denominator for x in vals for f in (x.a, x.b)]
    scale = Fraction(math.lcm(*denoms)) if denoms else Fraction(1)
    scaled = [x * scale for x in vals]
    numerators = [abs(int(f)) for x in scaled for f in (x.a, x.b) if f != 0]
    if numerators:
        g = math.gcd(*numerators)
        if g > 1:
            scaled = [x / g for x in scaled]
    lead = next((x for x in scaled if bool(x)), None)
    if lead is not None and qsign(lead) < 0:
        scaled = [-x for x in scaled]
    out = np.empty(len(scaled), dtype=object)
    out[:] = scaled
    return out


def reference_mat_vec(M, v):
    """M v, one QuadExt product at a time."""
    n, m = M.shape
    out = np.empty(n, dtype=object)
    for i in range(n):
        acc = QUAD_ZERO
        for j in range(m):
            acc = acc + as_quad(M[i, j]) * as_quad(v[j])
        out[i] = acc
    return out


def _joined(X):
    return X.join() if isinstance(X, QSplit) else np.asarray(X, dtype=object)


def reference_matmul(X, Y):
    """X @ Y by triple loops over QuadExt, with the shapes of numpy's matmul
    for vectors, matrices and stacks of matrices (k, n, m).  A split operand
    (QSplit) is joined to its QuadExt entries first."""
    X, Y = _joined(X), _joined(Y)
    if Y.ndim == 1:
        return reference_matmul(X, Y[:, None])[..., 0][()]
    if X.ndim == 1:
        return reference_matmul(X[None, :], Y)[..., 0, :]
    if X.ndim == 3 or Y.ndim == 3:
        k = len(X) if X.ndim == 3 else len(Y)
        out = np.empty((k, X.shape[-2], Y.shape[-1]), dtype=object)
        for t in range(k):
            out[t] = reference_matmul(X[t] if X.ndim == 3 else X, Y[t] if Y.ndim == 3 else Y)
        return out
    out = np.empty((X.shape[0], Y.shape[1]), dtype=object)
    for i in range(X.shape[0]):
        for j in range(Y.shape[1]):
            acc = QUAD_ZERO
            for t in range(X.shape[1]):
                acc = acc + as_quad(X[i, t]) * as_quad(Y[t, j])
            out[i, j] = acc
    return out


def reference_qmatmul(X, Y, *more):
    """The chain X @ Y @ ... of `reference_matmul`s."""
    out = reference_matmul(X, Y)
    for Z in more:
        out = reference_matmul(out, Z)
    return out


def reference_split_matmul(X, Y):
    """`QSplit.__matmul__` by way of `reference_matmul`: the split of the
    loop product of the joined operands."""
    return split(reference_matmul(X, Y))


def reference_chart_matrices(coords, n):
    """The float chart's matrices built one coordinate vector at a time:
    the sqrt2 weights divided out and the upper triangle mirrored."""
    iu = np.triu_indices(n)
    w = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))

    def to_matrix(c):
        M = np.zeros((n, n))
        M[iu] = c / w
        return M + np.triu(M, 1).T

    return [to_matrix(c) for c in coords]


def reference_chart_margin_problem(prob):
    """The margin SDP posed over an orthonormal float chart of the trace-one
    slice {X: <F0, X> = <F_i, X> = 0, tr X = 1}, or None when the slice
    looks traceless: max t s.t. X0 + sum_k z_k B_k - t I >= 0, variables
    z1..zk and slack_margin.  Its optimum t* is the search's margin, which
    `facial.build_alternative_problem` reaches from the dual side.

    The SVD nullspace N of the sqrt2-weighted constraint rows is an
    orthonormal basis of the orthogonal slice; with tau = N^T t for the trace
    functional t, X0 = N tau / |tau|^2 is its minimum-norm trace-one point
    and one QR gives an orthonormal basis B of the traceless directions.
    """
    from strictfeas.exactnum import to_float
    from strictfeas.facial import TRACE_FLOOR

    p = prob.pencil
    iu = np.triu_indices(p.n)
    diag = iu[0] == iu[1]
    w = np.where(diag, 1.0, np.sqrt(2.0))
    K = to_float(p.split)[:, iu[0], iu[1]] * w
    _, s, Vt = np.linalg.svd(K)
    rank = int(np.sum(s > max(K.shape) * np.finfo(float).eps * s[0]))
    N = Vt[rank:].T
    tau = N.T @ diag.astype(float)
    norm = float(np.linalg.norm(tau))
    if norm < TRACE_FLOOR:
        return None
    Qtau, _ = np.linalg.qr(tau[:, None], mode="complete")
    coords = np.vstack([N @ tau / norm**2, (N @ Qtau[:, 1:]).T])
    X0, *B = reference_chart_matrices(coords, p.n)
    pencil = MatrixPencil(
        n=p.n,
        scalar="double",
        f0=X0,
        var_names=(*(f"z{k+1}" for k in range(len(B))), "slack_margin"),
        terms=(*B, -np.eye(p.n)),
    )
    return SdpProblem(
        pencil=pencil,
        objective=(*(0.0 for _ in B), 1.0),
        name=f"{prob.name or 'problem'}-chart-margin",
    )


def span_margin_problem(prob):
    """The search's margin SDP posed over the pencil's span, whichever side
    the search itself takes (`facial._span_margin_problem`)."""
    from strictfeas import facial

    _, V, traces, *_ = facial._span_svd(prob.pencil)
    return facial._span_margin_problem(prob, V, traces)


def slice_margin_problem(prob):
    """The search's margin SDP posed over the trace-one slice of the span's
    complement, whichever side the search itself takes
    (`facial._slice_margin_problem`)."""
    from strictfeas import facial

    return facial._slice_margin_problem(prob, facial._span_svd(prob.pencil)[5])


def reference_constraint_rows(mats, pairs):
    """<Q, M> as a functional of the upper-triangle entries (i, j) in pairs
    of a symmetric M, one row per matrix Q, one QuadExt product at a time."""
    return np.array(
        [[Q[i, j] * (QUAD_ONE if i == j else quad(2)) for i, j in pairs] for Q in mats],
        dtype=object,
    )


# ---------------------------------------------------------------------------
# eliminations and substitutions as plain loops of QuadExt arithmetic: the
# reference that the fraction-free kernels of exactnum, the one-product
# pencil evaluation and the one-product substitution are checked against


def reference_rref_exact(M, column_order=None):
    """Gauss-Jordan over Q(sqrt5), one QuadExt operation at a time."""
    R = np.array([[as_quad(x) for x in row] for row in M], dtype=object)
    rows, cols = R.shape
    order = list(column_order) if column_order is not None else list(range(cols))
    pivots = {}
    r = 0
    for c in order:
        if r >= rows:
            break
        pivot_row = next((i for i in range(r, rows) if bool(R[i, c])), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            R[[r, pivot_row]] = R[[pivot_row, r]]
        inv = R[r, c].inverse()
        for j in range(cols):
            R[r, j] = R[r, j] * inv
        for i in range(rows):
            if i != r and bool(R[i, c]):
                f = R[i, c]
                for j in range(cols):
                    R[i, j] = R[i, j] - f * R[r, j]
        pivots[c] = r
        r += 1
    return R, pivots


def reference_bases(M):
    """(nullspace basis, row-space basis) of an exact matrix as lists of
    QuadExt vectors, read off `reference_rref_exact` the way the library
    reads its RREF: a nullspace vector per non-pivot column f, 1 at f and
    minus the pivot rows' entries at f at the pivot columns; the row space
    the nonzero RREF rows.  A matrix without rows has no pivots."""
    rows, cols = M.shape
    R, pivots = reference_rref_exact(M) if rows else (np.empty((0, cols), dtype=object), {})
    null = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [QUAD_ZERO] * cols
        v[f] = QUAD_ONE
        for c, r in pivots.items():
            v[c] = -R[r, f]
        null.append(v)
    return null, [list(R[r]) for r in sorted(pivots.values())]


def reduction_digest(problems) -> str:
    """sha256 of everything `reduce_problem` hands out on each problem, in
    canonical JSON: per round the certificate (X, range vectors, note), the
    relations, the face and the restricted pencil's split, then the final
    verdict, or the error and the rounds before it."""
    from dataclasses import asdict

    from strictfeas.exactnum import format_scalar
    from strictfeas.facial import ReductionError, reduce_problem

    def split_doc(S):
        return [S.A.tolist(), None if S.B is None else S.B.tolist(), S.d]

    docs = []
    for prob in problems:
        try:
            _, rounds, verdict = reduce_problem(prob)
            end = asdict(verdict)
        except ReductionError as exc:
            rounds, end = exc.rounds, f"{type(exc).__name__}: {exc}"
        docs.append(
            {
                "rounds": [
                    {
                        "certificate": r.certificate.as_dict(),
                        "constraints": r.constraints.as_dict(),
                        "face": [[format_scalar(x) for x in u] for u in r.face],
                        "restricted": split_doc(r.problem.pencil.split),
                    }
                    for r in rounds
                ],
                "verdict": end,
            }
        )
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def reference_psd_check_exact(M):
    """Pivoted symmetric elimination over Q(sqrt5), with the witness rules of
    `exactnum.psd_check_exact` and its count of positive pivots, one QuadExt
    operation at a time."""
    n, m = M.shape
    if n != m:
        raise NonSymmetricError("matrix is not square")
    if any(M[i, j] != M[j, i] for i in range(n) for j in range(i + 1, n)):
        raise NonSymmetricError("matrix is not symmetric")
    A = np.array([[as_quad(x) for x in row] for row in M], dtype=object)
    # current quadratic form = T M T^T
    T = qeye(n)
    rank = 0
    for k in range(n):
        pivot = A[k, k]
        s = qsign(pivot)
        if s < 0:
            return PsdCheck(False, k, tuple(T[k]), rank)
        if s == 0:
            bad = next((j for j in range(k + 1, n) if bool(A[k, j])), None)
            if bad is None:
                continue
            d = A[bad, bad]
            sd = qsign(d)
            if sd < 0:
                return PsdCheck(False, k, tuple(T[bad]), rank)
            t = -A[k, bad] if sd == 0 else -A[k, bad] / d
            return PsdCheck(False, k, tuple(T[k, j] + t * T[bad, j] for j in range(n)), rank)
        factors = {i: A[i, k] / pivot for i in range(k + 1, n) if bool(A[i, k])}
        row_k = [A[k, j] for j in range(n)]
        for i, f in factors.items():
            for j in range(k + 1, n):
                A[i, j] = A[i, j] - f * row_k[j]
            for j in range(n):
                T[i, j] = T[i, j] - f * T[k, j]
        for i in factors:
            A[i, k] = QUAD_ZERO
            A[k, i] = QUAD_ZERO
        rank += 1
    return PsdCheck(True, rank=rank)


def reference_pencil_eval(pencil, y):
    """F0 + sum_i y_i F_i of an exact pencil, one term at a time."""
    missing = [v for v in pencil.var_names if v not in y]
    if missing:
        raise MissingVariableError(f"missing assignment for {missing}")
    out = np.array(pencil.f0, dtype=object)
    for name, term in zip(pencil.var_names, pencil.terms):
        c = y[name]
        c = parse_scalar(c) if isinstance(c, str) else as_quad(c)
        if c is NotImplemented:
            raise TypeError(f"assignment for {name} is not an exact scalar")
        if bool(c):
            out = out + c * term
    return out


def reference_apply_constraints(prob, cons):
    """`facial.apply_constraints`, substituting one eliminated variable and
    one matrix at a time."""
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
    term_of = dict(zip(names, p.terms))
    b_of = dict(zip(names, prob.objective))
    f0 = np.array(p.f0, dtype=object)
    new_terms = {v: np.array(term_of[v], dtype=object) for v in keep}
    offset = as_quad(prob.objective_offset)
    new_b = {v: as_quad(b_of[v]) for v in keep}
    for v, expr in eliminated.items():
        T = term_of[v]
        bv = as_quad(b_of[v])
        if bool(expr.const):
            f0 = f0 + expr.const * T
        offset = offset + bv * expr.const
        for w, c in expr.coeffs.items():
            new_terms[w] = new_terms[w] + c * T
            new_b[w] = new_b[w] + bv * c
    pencil = MatrixPencil(
        n=p.n,
        scalar="exact",
        f0=f0,
        var_names=tuple(keep),
        terms=tuple(new_terms[v] for v in keep),
    )
    base = prob.name or "problem"
    base = base[: -len("-raw")] if base.endswith("-raw") else base
    new_name = base if base.endswith("-reduced") else base + "-reduced"
    return SdpProblem(
        pencil=pencil,
        objective=tuple(new_b[v] for v in keep),
        name=new_name,
        note=prob.note,
        objective_offset=offset,
    )
