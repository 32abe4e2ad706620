"""Bell-scenario frontend: Collins-Gisin tables, behavior lines, moment pencils.

Covers the 2-party / 2-setting / 2-outcome scenario only.  The 9x9 Almost
Quantum moment pencil is generated by word reduction over the operator basis
(1, A0, A1, B0, B1, A0B0, A0B1, A1B0, A1B1).  The bundled problems carry
the source paper's reference data, which `reproduce` checks its answers
against, and known optima that it proves from the reduced solves:

* problem 1: the line from a local point L to the PR box P; its maximal
  Almost Quantum parameter is exactly 0.
* problem 2: the line from a Hardy-type point H to the PR box; its maximal
  Almost Quantum parameter is exactly 5*sqrt5 - 11 (`MU2_STAR`).

All tables and pencils are exact (QuadExt entries); downcast explicitly for
the numeric solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exactnum import QUAD_ONE, QuadExt, as_quad, qarray, qsign, quad
from .model import MatrixPencil, SdpProblem


class ParameterOutOfRangeError(ValueError):
    pass


@dataclass(frozen=True)
class CollinsGisinTable:
    """3x3 table ((1, pB0, pB1), (pA0, p00, p01), (pA1, p10, p11)), exact."""

    entries: np.ndarray

    def __post_init__(self):
        M = self.entries
        if M.shape != (3, 3):
            raise ValueError("Collins-Gisin table must be 3x3")
        if M[0, 0] != QUAD_ONE:
            raise ValueError("entry (0,0) must be 1")
        for i in range(3):
            for j in range(3):
                if (i, j) == (0, 0):
                    continue
                v = as_quad(M[i, j])
                if qsign(v) < 0 or qsign(v - 1) > 0:
                    raise ValueError(f"entry ({i},{j}) outside [0,1]")
        # a read-only copy: the caller's array stays the caller's
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "entries", M)

    @staticmethod
    def from_rows(rows) -> "CollinsGisinTable":
        return CollinsGisinTable(qarray(rows))

    def pA(self, x: int) -> QuadExt:
        return self.entries[1 + x, 0]

    def pB(self, y: int) -> QuadExt:
        return self.entries[0, 1 + y]

    def p(self, x: int, y: int) -> QuadExt:
        return self.entries[1 + x, 1 + y]

    def full_distribution(self) -> dict:
        """All sixteen p(a,b|x,y), derived by no-signaling bookkeeping."""
        out = {}
        for x in (0, 1):
            for y in (0, 1):
                joint = self.p(x, y)
                out[(0, 0, x, y)] = joint
                out[(0, 1, x, y)] = self.pA(x) - joint
                out[(1, 0, x, y)] = self.pB(y) - joint
                out[(1, 1, x, y)] = QUAD_ONE - self.pA(x) - self.pB(y) + joint
        return out

    def is_valid_behavior(self) -> bool:
        return all(qsign(v) >= 0 for v in self.full_distribution().values())


class BuiltinPoints(NamedTuple):
    P: CollinsGisinTable
    L: CollinsGisinTable
    H: CollinsGisinTable
    alpha: QuadExt


ALPHA = quad(Fraction(9, 38), Fraction(-1, 38))  # (9 - sqrt5)/38
MU2_STAR = quad(-11, 5)  # 5*sqrt5 - 11, the optimum of problem 2


_HALF = Fraction(1, 2)


def _pr_box() -> CollinsGisinTable:
    return CollinsGisinTable.from_rows(
        [[1, _HALF, _HALF], [_HALF, _HALF, _HALF], [_HALF, _HALF, 0]]
    )


def _local_point() -> CollinsGisinTable:
    third = Fraction(1, 3)
    return CollinsGisinTable.from_rows(
        [[1, _HALF, _HALF], [_HALF, third, third], [Fraction(2, 3), _HALF, Fraction(1, 6)]]
    )


def _hardy_point() -> CollinsGisinTable:
    return CollinsGisinTable.from_rows(
        [[1, ALPHA, 2 * ALPHA], [ALPHA, 0, ALPHA], [2 * ALPHA, ALPHA, 0]]
    )


def builtin_points() -> BuiltinPoints:
    """The PR box P, the local point L, and the Hardy-line point H."""
    return BuiltinPoints(P=_pr_box(), L=_local_point(), H=_hardy_point(), alpha=ALPHA)


@dataclass(frozen=True)
class BehaviorLine:
    """The segment mu * P + (1 - mu) * Q between two behaviors."""

    endpoint_P: CollinsGisinTable
    endpoint_Q: CollinsGisinTable
    name: str = ""


def line1() -> BehaviorLine:
    """From the local point L to the PR box P: `builtin_points`' P and L,
    built alone."""
    return BehaviorLine(endpoint_P=_pr_box(), endpoint_Q=_local_point(), name="problem1")


def line2() -> BehaviorLine:
    """From the Hardy-line point H to the PR box P: `builtin_points`' P and
    H, built alone."""
    return BehaviorLine(endpoint_P=_pr_box(), endpoint_Q=_hardy_point(), name="problem2")


def line_behavior(line: BehaviorLine, mu) -> CollinsGisinTable:
    """Exact entrywise convex combination at parameter mu in [0,1]."""
    mu = as_quad(mu)
    if qsign(mu) < 0 or qsign(mu - 1) > 0:
        raise ParameterOutOfRangeError("mu must lie in [0,1]")
    P, Q = line.endpoint_P.entries, line.endpoint_Q.entries
    return CollinsGisinTable(mu * P + (1 - mu) * Q)


# ---------------------------------------------------------------------------
# moment words
#
# A word is (alice, bob) with each part a tuple of settings; projectors are
# idempotent and the parties commute, so u^dagger v reduces to such a pair.
# Adjoint symmetry of the (real, symmetric) moment matrix identifies a word
# with its dagger: both parts reversed together; single-party reversals stay
# distinct, which keeps c01,01 and c01,10 separate variables.

BASIS: tuple[tuple[tuple, tuple], ...] = (
    ((), ()),
    ((0,), ()),
    ((1,), ()),
    ((), (0,)),
    ((), (1,)),
    ((0,), (0,)),
    ((0,), (1,)),
    ((1,), (0,)),
    ((1,), (1,)),
)


def _reduce_word(letters: tuple) -> tuple:
    out: list = []
    for a in letters:
        if not out or out[-1] != a:
            out.append(a)
    return tuple(out)


def word_product(left: tuple[tuple, tuple], right: tuple[tuple, tuple]) -> tuple:
    """Reduced word of left^dagger * right."""
    alice = _reduce_word(tuple(reversed(left[0])) + right[0])
    bob = _reduce_word(tuple(reversed(left[1])) + right[1])
    return alice, bob


def canonical_word(word: tuple[tuple, tuple]) -> tuple:
    dagger = (tuple(reversed(word[0])), tuple(reversed(word[1])))
    return min(word, dagger)


def moment_name(word: tuple[tuple, tuple]) -> str:
    alice, bob = word
    atxt = "".join(str(x) for x in alice)
    btxt = "".join(str(y) for y in bob)
    if not bob:
        return f"a{atxt}"
    if not alice:
        return f"b{btxt}"
    return f"c{atxt},{btxt}"


def _known_value(word, table: CollinsGisinTable) -> QuadExt:
    alice, bob = word
    if not alice and not bob:
        return QUAD_ONE
    if not bob:
        return table.pA(alice[0])
    if not alice:
        return table.pB(bob[0])
    return table.p(alice[0], bob[0])


def almost_quantum_pencil(line: BehaviorLine) -> SdpProblem:
    """Maximize mu s.t. the 9x9 moment matrix of mu*P + (1-mu)*Q is PSD.

    Known entries are affine in mu (read off the endpoint tables); each
    remaining reduced word is one free variable.  Variables are ordered by
    first appearance scanning the upper triangle, with mu first.
    """
    n = len(BASIS)
    upper = {}
    names = ["mu"]
    for i in range(n):
        for j in range(i, n):
            word = canonical_word(word_product(BASIS[i], BASIS[j]))
            alice, bob = word
            if len(alice) <= 1 and len(bob) <= 1:
                vp = _known_value(word, line.endpoint_P)
                vq = _known_value(word, line.endpoint_Q)
                upper[i, j] = (vq, {"mu": vp - vq})
            else:
                name = moment_name(word)
                if name not in names:
                    names.append(name)
                upper[i, j] = (0, {name: 1})
    return _affine_problem(
        n,
        names,
        upper,
        f"{line.name or 'line'}-raw",
        {"mu": 1},
        note="maximize mu over the Almost Quantum moment pencil",
    )


# ---------------------------------------------------------------------------
# the level-1 toy problem with forced-zero Bob marginals


def chsh_toy_pencil() -> SdpProblem:
    """5x5 level-1 CHSH maximization with pB(0) = pB(1) = 0 substituted.

    Objective: -pA0 + p00 + p01 + p10 - p11 (the -pB0 term of the CHSH
    functional is identically zero under the constraint and is omitted, as in
    the displayed matrix problem).
    """
    entries = {
        (0, 1): "pA0",
        (0, 2): "pA1",
        (1, 1): "pA0",
        (1, 2): "a01",
        (1, 3): "p00",
        (1, 4): "p01",
        (2, 2): "pA1",
        (2, 3): "p10",
        (2, 4): "p11",
        (3, 4): "b01",
    }
    upper = {(0, 0): (1, {}), **{ij: (0, {v: 1}) for ij, v in entries.items()}}
    return _affine_problem(
        5,
        ["pA0", "pA1", "a01", "p00", "p01", "p10", "p11", "b01"],
        upper,
        "chsh-toy-raw",
        {"pA0": -1, "p00": 1, "p01": 1, "p10": 1, "p11": -1},
        note="level-1 CHSH with zero Bob marginals",
    )


# ---------------------------------------------------------------------------
# the exact pencil builder, and the hand-entered reduced problems (golden
# copies, transcribed entry by entry)


def _affine_problem(
    n: int, names: list[str], upper: dict, name: str, objective: dict, note: str = ""
) -> SdpProblem:
    """The exact problem of the upper-triangle entries {(i, j): (const,
    {var: coeff})} over the variables `names`, maximizing the sum of
    objective[var] * var (absent variables have coefficient 0)."""
    f0, terms = [], {v: [] for v in names}
    for (i, j), (const, coeffs) in upper.items():
        f0.append((i, j, const))
        for v, c in coeffs.items():
            terms[v].append((i, j, c))
    pencil = MatrixPencil.from_upper(n, "exact", f0, [(v, terms[v]) for v in names])
    return SdpProblem(
        pencil=pencil,
        objective=tuple(objective.get(v, 0) for v in names),
        name=name,
        note=note,
    )


def problem1_simplified() -> SdpProblem:
    """The reduced problem-1 pencil in (mu, a01, b01, c0,01), entered literally."""
    s = Fraction(1, 6)
    half = Fraction(1, 2)
    K = (Fraction(1, 3), {"mu": s})  # (mu + 2)/6
    R = (s, {"mu": -s})  # (1 - mu)/6
    D = (Fraction(2, 3), {"mu": -s})  # (4 - mu)/6
    E = (-s, {"a01": 1, "mu": s})  # a01 - (1 - mu)/6
    A = (0, {"a01": 1})
    B = (0, {"b01": 1})
    C0 = (0, {"c0,01": 1})
    H = (half, {})
    upper = {
        (0, 0): (1, {}), (0, 1): H, (0, 2): D, (0, 3): H, (0, 4): H,
        (0, 5): K, (0, 6): K, (0, 7): H, (0, 8): R,
        (1, 1): H, (1, 2): A, (1, 3): K, (1, 4): K, (1, 5): K, (1, 6): K,
        (1, 7): K, (1, 8): E,
        (2, 2): D, (2, 3): H, (2, 4): R, (2, 5): K, (2, 6): E, (2, 7): H,
        (2, 8): R,
        (3, 3): H, (3, 4): B, (3, 5): K, (3, 6): C0, (3, 7): H, (3, 8): B,
        (4, 4): H, (4, 5): C0, (4, 6): K, (4, 7): B, (4, 8): R,
        (5, 5): K, (5, 6): C0, (5, 7): K, (5, 8): C0,
        (6, 6): K, (6, 7): C0, (6, 8): E,
        (7, 7): H, (7, 8): B,
        (8, 8): R,
    }
    return _affine_problem(
        9, ["mu", "a01", "b01", "c0,01"], upper, "problem1-simplified", {"mu": 1}
    )


def problem2_simplified() -> SdpProblem:
    """The reduced problem-2 pencil in mu alone, entered literally."""
    half = Fraction(1, 2)
    K1 = (ALPHA, {"mu": half - ALPHA})  # mu/2 + alpha (1 - mu)
    K2 = (2 * ALPHA, {"mu": half - 2 * ALPHA})  # mu/2 + 2 alpha (1 - mu)
    Hm = (0, {"mu": half})  # mu/2
    Z = (0, {})
    upper = {
        (0, 0): (1, {}), (0, 1): K1, (0, 2): K2, (0, 3): K1, (0, 4): K2,
        (0, 5): Hm, (0, 6): K1, (0, 7): K1, (0, 8): Z,
        (1, 1): K1, (1, 2): Z, (1, 3): Hm, (1, 4): K1, (1, 5): Hm,
        (1, 6): K1, (1, 7): Hm, (1, 8): Z,
        (2, 2): K2, (2, 3): K1, (2, 4): Z, (2, 5): Hm, (2, 6): Z,
        (2, 7): K1, (2, 8): Z,
        (3, 3): K1, (3, 4): Z, (3, 5): Hm, (3, 6): Hm, (3, 7): K1, (3, 8): Z,
        (4, 4): K2, (4, 5): Hm, (4, 6): K1, (4, 7): Z, (4, 8): Z,
        (5, 5): Hm, (5, 6): Hm, (5, 7): Hm, (5, 8): Z,
        (6, 6): K1, (6, 7): Hm, (6, 8): Z,
        (7, 7): K1, (7, 8): Z,
        (8, 8): Z,
    }
    return _affine_problem(9, ["mu"], upper, "problem2-simplified", {"mu": 1})


def chsh_toy_simplified() -> SdpProblem:
    """The reduced toy: objective -pA0, last two rows identically zero."""
    upper = {
        (0, 0): (1, {}),
        (0, 1): (0, {"pA0": 1}),
        (0, 2): (0, {"pA1": 1}),
        (1, 1): (0, {"pA0": 1}),
        (1, 2): (0, {"a01": 1}),
        (2, 2): (0, {"pA1": 1}),
    }
    return _affine_problem(
        5, ["pA0", "pA1", "a01"], upper, "chsh-toy-simplified", {"pA0": -1}
    )


# ---------------------------------------------------------------------------
# known analytical reference data for the bundled problems


def line1_null_vectors() -> list[np.ndarray]:
    """Exact null directions shared by every feasible slack of problem 1."""
    return [
        qarray([[1, 0, -1, 0, -1, 0, 0, 0, 1]])[0],
        qarray([[0, 0, 0, 1, 0, 0, 0, -1, 0]])[0],
    ]


def line2_null_vectors() -> list[np.ndarray]:
    return [
        qarray([[0, 0, 0, 0, 0, 0, 0, 0, 1]])[0],
        qarray([[0, 0, 0, 1, 0, 0, 0, -1, 0]])[0],
        qarray([[0, 1, 0, 0, 0, 0, -1, 0, 0]])[0],
    ]


def toy_null_vectors() -> list[np.ndarray]:
    return [
        qarray([[0, 0, 0, 1, 0]])[0],
        qarray([[0, 0, 0, 0, 1]])[0],
    ]


def line1_expected_relations() -> dict:
    """The five implied relations of problem 1: var -> (const, coeffs)."""
    s = Fraction(1, 6)
    return {
        "c1,01": (quad(0), {"b01": quad(1)}),
        "c01,01": (quad(0), {"c0,01": quad(1)}),
        "c01,10": (quad(0), {"c0,01": quad(1)}),
        "c01,0": (quad(Fraction(1, 3)), {"mu": quad(s)}),
        "c01,1": (quad(-s), {"a01": quad(1), "mu": quad(s)}),
    }


def line2_expected_relations() -> dict:
    half = Fraction(1, 2)
    zero: dict = {}
    return {
        "a01": (quad(0), dict(zero)),
        "b01": (quad(0), dict(zero)),
        "c01,1": (quad(0), dict(zero)),
        "c1,01": (quad(0), dict(zero)),
        "c01,01": (quad(0), dict(zero)),
        "c01,0": (quad(0), {"mu": quad(half)}),
        "c0,01": (quad(0), {"mu": quad(half)}),
        "c01,10": (quad(0), {"mu": quad(half)}),
    }


def toy_expected_relations() -> dict:
    return {v: (quad(0), {}) for v in ("p00", "p01", "p10", "p11", "b01")}
