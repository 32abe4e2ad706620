"""Shared test utilities: random strictly feasible SDPs with known optima,
and small exact problems that need reduction."""

import numpy as np

from strictfeas.exactnum import qarray, quad
from strictfeas.model import MatrixPencil, SdpProblem


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
