"""Seeded inputs, one pass and the reference check of each workload.

Why each workload exists:

* ``bell-reproduce`` is the paper's own traffic: ``strictfeas reproduce all``
  run in process through ``cli.main``.  It mixes the numeric and the exact
  layers and is the only workload that reaches ``certify`` and ``cli``.  Its
  reference answers are the relations and optima hand-transcribed in
  ``bell``, which every CLI claim is checked against.
* ``interior-diagnose`` holds strictly feasible exact pencils (n = 9, m = 8).
  A pass is one raw solve and one certificate search, whose margin solve
  finds no certificate; the only exact work is the slice chart.  A solver change shows here, and an exactnum
  change should barely move it.
* ``planted-reduce`` holds pencils with a planted face of singularity degree
  2 (Sturm, SIAM J. Optim. 2000), hidden by a unimodular congruence.
  ``reduce_problem`` needs two rounds plus a termination search, so this
  workload is exact-heavy and the only one on the multi-round loop.

Reference answers come from the constructions below, never from strictfeas.
Problems are built with the package's public types only, because those are
the program's input format.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from strictfeas import cli, facial, model, solver
from strictfeas.exactnum import qarray, quad


INTERIOR_N = 9
INTERIOR_M = 8
# every rank 1..n-1 of the primal optimum X* equally often, so every seed
# gives a cycle of the same composition
INTERIOR_RANKS = tuple(range(1, INTERIOR_N))
INTERIOR_REPEATS = 4
# chain rows 0 and 1 plus a free trailing block of size n - 2
PLANTED_SIZES = (8, 9) * 16
PLANTED_OPS = 2
OBJECTIVE_RTOL = 1e-6


@dataclass(frozen=True)
class Outcome:
    """Class of one pass: "ok", "wrong" (an answer that disagrees with the
    reference) or "error" (no answer: an exception or a non-optimal status)."""

    kind: str
    detail: str = ""

    @property
    def label(self) -> str:
        return self.kind if self.kind == "ok" else f"{self.kind}:{self.detail}"


def _unimodular(rng: np.random.Generator, n: int, ops: int):
    """Integer U with det 1 and its integer inverse, from row additions."""
    U = np.eye(n, dtype=np.int64)
    Uinv = np.eye(n, dtype=np.int64)
    for _ in range(ops):
        i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
        s = int(rng.choice((-1, 1)))
        U[i, :] += s * U[j, :]  # U <- (I + s e_i e_j^T) U
        Uinv[:, j] -= s * Uinv[:, i]  # Uinv <- Uinv (I - s e_i e_j^T)
    if not np.array_equal(U @ Uinv, np.eye(n, dtype=np.int64)):
        raise AssertionError("unimodular construction lost its inverse")
    return U, Uinv


def _exact_problem(name, f0, terms, var_names, objective) -> model.SdpProblem:
    pencil = model.MatrixPencil(
        n=f0.shape[0],
        scalar="exact",
        f0=qarray(f0.tolist()),
        var_names=tuple(var_names),
        terms=tuple(qarray(T.tolist()) for T in terms),
    )
    return model.SdpProblem(
        pencil=pencil, objective=tuple(quad(int(b)) for b in objective), name=name
    )


@dataclass(frozen=True)
class InteriorCase:
    problem: model.SdpProblem
    optimum: int  # <F0, X*>, exact by construction


def interior_case(rng: np.random.Generator, n: int, m: int, rank: int, k: int):
    """Exact-integer port of the strictly complementary construction.

    X* = P Dx P^T and Z* = P^-T Dz P^-1 with complementary positive integer
    diagonals, so <X*, Z*> = 0 and rank X* + rank Z* = n.  F_1 = B B^T + n I
    is positive definite, F0 = Z* - sum_k y*_k F_k and b_k = -<F_k, X*>.
    Weak duality bounds every feasible <b, y> by <F0, X*>, y* attains it, and
    y* + t e_1 is strictly feasible for t > 0.
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
    objective = [-int(np.sum(Fk * Xstar)) for Fk in terms]
    optimum = int(np.sum(F0 * Xstar))
    problem = _exact_problem(
        f"interior-{k}", F0, terms, [f"y{i}" for i in range(m)], objective
    )
    return InteriorCase(problem=problem, optimum=optimum)


def planted_problem(rng: np.random.Generator, n: int, k: int) -> model.SdpProblem:
    """Face chain S[0,2] = a, S[1,1] = a, S[1,2] = b, then a free block.

    Before the congruence, row 0 of the slack is zero except S[0,2] = a,
    row 1 is zero except S[1,1] = a and S[1,2] = b, and every entry of the
    trailing block (rows 2..n-1) is a variable of its own.  PSD forces a = 0
    (row 0), and only then b = 0 (row 1): singularity degree 2.  Nothing else
    is implied, so the third certificate search only finds the two zero rows
    again.  S' = U^T S U with a random unimodular U hides the chain.
    """
    U, _ = _unimodular(rng, n, ops=PLANTED_OPS * n)
    Fa = np.zeros((n, n), dtype=np.int64)
    Fa[0, 2] = Fa[2, 0] = Fa[1, 1] = 1
    Fb = np.zeros((n, n), dtype=np.int64)
    Fb[1, 2] = Fb[2, 1] = 1
    terms, names = [Fa, Fb], ["a", "b"]
    for i in range(2, n):
        for j in range(i, n):
            E = np.zeros((n, n), dtype=np.int64)
            E[i, j] = E[j, i] = 1
            terms.append(E)
            names.append(f"s{i}_{j}")
    F0 = np.zeros((n, n), dtype=np.int64)
    F0[2:, 2:] = np.eye(n - 2, dtype=np.int64)
    # maximize -s2_2: a single-variable objective the chain never touches
    objective = [0, 0, -1] + [0] * (len(terms) - 3)
    hide = lambda M: U.T @ M @ U  # noqa: E731
    return _exact_problem(
        f"planted-{k}", hide(F0), [hide(T) for T in terms], names, objective
    )


def build_inputs(workload: str, seed: int) -> list:
    """The workload's problems; bell-reproduce has fixed, bundled inputs."""
    rng = np.random.default_rng(seed)
    if workload == "bell-reproduce":
        return ["all"]
    if workload == "interior-diagnose":
        return [
            interior_case(rng, INTERIOR_N, INTERIOR_M, r, k)
            for k, r in enumerate(INTERIOR_RANKS * INTERIOR_REPEATS)
        ]
    if workload == "planted-reduce":
        return [planted_problem(rng, n, k) for k, n in enumerate(PLANTED_SIZES)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pass takes one input through the workload's pipeline.  Every call goes
# through a module attribute, so the tracer can wrap it from outside.


def _bell_one(target: str) -> Outcome:
    """`strictfeas reproduce <target>` in process: exit 0 and every claim PASS."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["reproduce", target])
    verdicts = [
        line[1:5] for line in out.getvalue().splitlines() if line[:6] in ("[PASS]", "[FAIL]")
    ]
    if "FAIL" in verdicts:
        return Outcome("wrong", "a claim failed")
    if code == 0 and verdicts:
        return Outcome("ok")
    if verdicts:
        return Outcome("wrong", f"exit code {code} with every claim PASS")
    # cli.main reports a caught exception as "error: <Type>: <message>"
    parts = err.getvalue().split(":", 2)
    return Outcome("error", parts[1].strip() if len(parts) == 3 else f"exit code {code}")


def _interior_one(case: InteriorCase) -> Outcome:
    res = solver.solve_sdp(model.to_double(case.problem))
    if res.status.tag is not model.StatusTag.OPTIMAL:
        # an honest non-optimal status claims nothing: a failure, not a
        # wrong answer
        return Outcome("error", res.status.tag.value)
    err = abs(res.objective_dual - case.optimum)
    if err > OBJECTIVE_RTOL * max(1.0, abs(case.optimum)):
        return Outcome("wrong", f"objective off by {err:.3e}")
    verdict = facial.find_reducing_certificate(case.problem)
    if not isinstance(verdict, facial.StrictlyFeasible):
        return Outcome("wrong", "reducing certificate for a strictly feasible pencil")
    return Outcome("ok")


def _planted_one(problem: model.SdpProblem) -> Outcome:
    _, rounds, _ = facial.reduce_problem(problem)
    if len(rounds) != 2:
        return Outcome("wrong", f"{len(rounds)} rounds")
    for rnd, var in zip(rounds, ("a", "b")):
        elim = rnd.constraints.eliminated
        if len(elim) != 1 or elim[0][0] != var or bool(elim[0][1].const) or elim[0][1].coeffs:
            return Outcome("wrong", f"round eliminated {rnd.constraints.eliminated_names}")
    return Outcome("ok")


PIPELINES = {
    "bell-reproduce": _bell_one,
    "interior-diagnose": _interior_one,
    "planted-reduce": _planted_one,
}


def run_pass(workload: str, case) -> Outcome:
    """One input through the workload's pipeline, classified."""
    try:
        return PIPELINES[workload](case)
    except Exception as exc:  # a failing problem is counted, not fatal
        return Outcome("error", type(exc).__name__)
