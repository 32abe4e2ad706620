"""Linear matrix pencils and small dense SDPs in pencil (dual) form.

An SDP here is ``maximize <b, y>  s.t.  F0 + sum_i y_i F_i >= 0``: the dual
form.  Its primal is ``minimize <F0, X>  s.t.  <F_i, X> = -b_i, X >= 0``,
whose values `pencil_pairing` gives exactly.
One data model carries both numeric (float64) and exact (QuadExt) entries,
tagged by ``scalar``; exact -> double conversion is explicit and lossy.
An exact pencil is split into integers once: `MatrixPencil.split` holds the
integer split of its stack (F0, F_1, ..., F_m), carried with the pencil,
and every pencil-wide exact operation (validation, evaluation, the pairing
with X, the downcast, the products of `facial`) reads it, not the
Fractions.  Two kinds of pencil are born split, their matrices joined from
the split on first read only: one built from upper-triangle entries
(`MatrixPencil.from_upper`: the bundled problems and every exact JSON
file), whose split is assembled in one pass over the entries, and one
built from its split alone (`MatrixPencil.from_split`: every pencil the
reduction loop derives).  A pencil given QuadExt matrices through the
constructor (`to_exact`'s, say) is split on first use.  The restricted
split comes from `exactnum.qcongruence`, which multiplies in int64 when a
bound from its operands' largest integers proves that every entry and
partial sum fits, and on Python ints otherwise.

Problems are immutable after construction and safe for concurrent reads:
a derived pencil's first join is the one every reader gets.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exactnum import (
    QSplit,
    as_quad,
    format_scalar,
    frob_inner,  # noqa: F401  (perfbench/spans.py times it here)
    qarray,
    split,
    to_float,
    to_quad,
)


class StatusTag(str, Enum):
    OPTIMAL = "Optimal"
    NUMERICAL_TROUBLE = "NumericalTrouble"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_UNBOUNDED_SUSPECTED = "DualUnboundedSuspected"
    ITERATION_LIMIT = "IterationLimit"
    # a strictly feasible y whose objective beats the caller's cut: a lower
    # bound on the maximum, not an optimum
    OBJECTIVE_CUT_REACHED = "ObjectiveCutReached"


@dataclass(frozen=True)
class SolveStatus:
    tag: StatusTag
    message: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.tag is StatusTag.OPTIMAL


class MissingVariableError(KeyError):
    pass


class UnknownVariableError(KeyError):
    pass


def _freeze(M: np.ndarray) -> np.ndarray:
    M = M.copy()
    M.setflags(write=False)
    return M


def _freeze_split(s: QSplit) -> QSplit:
    return QSplit(_freeze(s.A), None if s.B is None else _freeze(s.B), s.d)


@dataclass(frozen=True)
class MatrixPencil:
    """Affine symmetric-matrix family F0 + sum_i y_i F_i.

    Matrices are stored as full symmetric arrays; constructors take the upper
    triangle only, which keeps transcription single-entry.  `scalar` is
    "exact" (object arrays of QuadExt) or "double" (float64).  An exact
    pencil made by `from_upper` or `from_split` holds only its integer split
    at first: `f0` and `terms` are joined from it on first read, read-only,
    and the same arrays whichever caller reads first.
    """

    n: int
    scalar: str
    f0: np.ndarray
    var_names: tuple[str, ...]
    terms: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("pencil dimension must be >= 1")
        if self.scalar not in ("exact", "double"):
            raise ValueError(f"unknown scalar kind {self.scalar!r}")
        object.__setattr__(self, "f0", _freeze(self.f0))
        object.__setattr__(self, "terms", tuple(_freeze(t) for t in self.terms))

    @property
    def m(self) -> int:
        return len(self.var_names)

    @functools.cached_property
    def split(self) -> QSplit:
        """Integer split of the stack (F0, F_1, ..., F_m), of shape (m+1, n, n).

        Exact pencils only.  A pencil given its matrices through the
        constructor makes it on first use, never at construction, and then
        keeps it (read-only, like the matrices); `from_upper` and
        `from_split` pencils are born with it.
        """
        if self.scalar != "exact":
            raise ValueError("only an exact pencil has an integer split")
        return _freeze_split(split(np.stack([self.f0, *self.terms])))

    @staticmethod
    def from_split(var_names: Sequence[str], split: QSplit) -> "MatrixPencil":
        """The exact pencil whose stack (F0, F_1, ..., F_m) has the integer
        split `split`, of shape (m+1, n, n).  The split becomes the pencil's
        `split` as it is, its arrays made read-only in place, so it is never
        split again; `f0` and `terms` are joined from it on first read."""
        if split.shape[0] != len(var_names) + 1:
            raise ValueError("the split must stack F0 and one matrix per variable")
        for X in (split.A, split.B):
            if X is not None:
                X.setflags(write=False)
        pencil = object.__new__(MatrixPencil)
        vars(pencil).update(
            n=split.shape[1], scalar="exact", var_names=tuple(var_names), split=split
        )
        if pencil.n < 1:
            raise ValueError("pencil dimension must be >= 1")
        return pencil

    def __getattr__(self, name: str):
        # only a `from_split` pencil lacks its matrices: they are joined from
        # the split on first read, and the first join stored is the one every
        # reader gets
        state = vars(self)
        if name not in ("f0", "terms") or "split" not in state:
            raise AttributeError(name)
        J = state["split"].join()
        J.setflags(write=False)
        state["f0"], state["terms"] = state.setdefault("_joined", (J[0], tuple(J[1:])))
        return state[name]

    def term(self, name: str) -> np.ndarray:
        try:
            return self.terms[self.var_names.index(name)]
        except ValueError:
            raise UnknownVariableError(name) from None

    @staticmethod
    def from_upper(
        n: int,
        scalar: str,
        f0_entries: Iterable[tuple[int, int, object]],
        var_entries: Sequence[tuple[str, Iterable[tuple[int, int, object]]]],
    ) -> "MatrixPencil":
        """Build from 0-based upper-triangle (i, j, value) triples; each
        (i, j) at most once per matrix (ValueError on a repeat, which would
        otherwise overwrite the earlier value).

        An exact pencil is born split: its stack's integer split is made in
        one pass over the entries (`_upper_split`) and the pencil is
        `from_split`'s, its matrices joined on first read."""
        names = tuple(name for name, _ in var_entries)
        matrices = [f0_entries, *(e for _, e in var_entries)]
        if scalar == "exact":
            return MatrixPencil.from_split(names, _upper_split(n, matrices))

        def build(entries):
            M = np.zeros((n, n))
            for i, j, v in _checked_upper(n, entries):
                M[i, j] = M[j, i] = float(v)
            return M

        f0, *terms = map(build, matrices)
        return MatrixPencil(n=n, scalar=scalar, f0=f0, var_names=names, terms=tuple(terms))


def _checked_upper(n: int, entries: Iterable[tuple[int, int, object]]):
    """The (i, j, value) triples of one matrix, each checked to lie in the
    upper triangle of an n x n matrix and to come only once (ValueError)."""
    placed = set()
    for i, j, v in entries:
        if not (0 <= i <= j < n):
            raise ValueError(f"entry ({i},{j}) outside upper triangle of n={n}")
        if (i, j) in placed:
            raise ValueError(f"duplicate entry ({i},{j})")
        placed.add((i, j))
        yield i, j, v


def _upper_split(n: int, matrices: Sequence[Iterable[tuple[int, int, object]]]) -> QSplit:
    """The integer split of the stack of symmetric n x n matrices given by
    their upper-triangle (i, j, value) entries, with no QuadExt matrix made:
    the split `split` makes of the joined stack, over the least common
    denominator of the values and with B None when they are all rational.
    A value is an exact scalar (`to_quad`): TypeError for a float,
    ValueError for a malformed string."""
    where, a, b = [], [], []
    for k, entries in enumerate(matrices):
        for i, j, v in _checked_upper(n, entries):
            # ints and Fractions are their own rational part, no QuadExt made
            if type(v) is int or type(v) is Fraction:
                x, y = v, 0
            else:
                q = to_quad(v)
                x, y = q.a, q.b
            where.append((k, i, j))
            a.append(x)
            b.append(y)
    d = math.lcm(*{x.denominator for x in a}, *{y.denominator for y in b})
    k, i, j = np.array(where, dtype=np.intp).reshape(-1, 3).T

    def scaled(parts) -> np.ndarray:
        X = np.zeros((len(matrices), n, n), dtype=object)
        X[k, i, j] = X[k, j, i] = [x.numerator * (d // x.denominator) for x in parts]
        return X

    return QSplit(scaled(a), scaled(b) if any(b) else None, d)


@dataclass(frozen=True)
class SdpProblem:
    """A pencil and an objective vector over its variables, in pencil form.

    The objective and its offset are coerced once, to the pencil's scalars:
    `to_quad` for an exact pencil (a float is a TypeError), float for a
    double one."""

    pencil: MatrixPencil
    objective: tuple
    name: str = ""
    note: str = ""
    objective_offset: object = 0

    def __post_init__(self):
        if len(self.objective) != self.pencil.m:
            raise ValueError("objective length must match the number of pencil terms")
        coerce = float if self.pencil.scalar == "double" else to_quad
        object.__setattr__(self, "objective", tuple(map(coerce, self.objective)))
        object.__setattr__(self, "objective_offset", coerce(self.objective_offset))

    @property
    def var_names(self) -> tuple[str, ...]:
        return self.pencil.var_names


def _require_assignment(pencil: MatrixPencil, y: Mapping[str, object]) -> None:
    missing = [v for v in pencil.var_names if v not in y]
    if missing:
        raise MissingVariableError(f"missing assignment for {missing}")


def pencil_eval(pencil: MatrixPencil, y: Mapping[str, object]) -> np.ndarray:
    """Evaluate F0 + sum_i y_i F_i; exact when the pencil is exact: then it
    is `eval_split`, joined."""
    if pencil.scalar == "exact":
        return eval_split(pencil, y).join()
    _require_assignment(pencil, y)
    out = pencil.f0.copy()
    for name, term in zip(pencil.var_names, pencil.terms):
        out = out + float(y[name]) * term
    return out


def eval_split(pencil: MatrixPencil, y: Mapping[str, object]) -> QSplit:
    """The split of F0 + sum_i y_i F_i for an exact pencil: one product of
    (1, y_1, ..., y_m) with the pencil's split, flattened.
    MissingVariableError when a variable has no value, TypeError when a
    value is not an exact scalar (`to_quad`)."""
    _require_assignment(pencil, y)
    # `split` reads Fractions as they are, with no QuadExt made of them
    coeffs = [Fraction(1)]
    for name in pencil.var_names:
        x = y[name]
        try:
            coeffs.append(x if type(x) is Fraction else to_quad(x))
        except TypeError:
            raise TypeError(f"assignment for {name} is not an exact scalar") from None
    stack = pencil.split.reshape(pencil.m + 1, -1)
    return (split(coeffs) @ stack).reshape(pencil.n, pencil.n)


def pairing_split(pencil: MatrixPencil, X) -> QSplit:
    """The split of (<F0, X>, <F_1, X>, ..., <F_m, X>) for an exact n x n
    matrix X or its split: one product of the pencil's split, flattened,
    with vec(X).  ValueError when X is not n x n."""
    X = split(X)
    if X.shape != (pencil.n, pencil.n):
        raise ValueError(f"X has shape {X.shape}, expected {(pencil.n, pencil.n)}")
    return pencil.split.reshape(pencil.m + 1, -1) @ X.reshape(-1)


def pencil_pairing(pencil: MatrixPencil, X) -> np.ndarray:
    """The adjoint of `pencil_eval`: `pairing_split`, joined."""
    return pairing_split(pencil, X).join()


def validate(prob: SdpProblem) -> list[str]:
    """Structural checks; an empty list means the problem is well formed.

    A pencil of square matrices is checked as one (m+1, n, n) stack equal to
    its transpose: a double pencil's floats, also finite, and an exact
    one's integer split, so a born-split pencil joins no matrix for it.
    Only when that fails are the matrices checked one by one, to word each
    violation; an exact matrix with an entry `split` cannot read is NotExact.
    """
    return checked_stack(prob)[0]


def checked_stack(prob: SdpProblem) -> tuple[list[str], np.ndarray | None]:
    """The violations `validate` reports, and the float stack
    (F0, F_1, ..., F_m) it checked: a new (m+1, n, n) array for a double
    pencil of square matrices, None for any other pencil."""
    p = prob.pencil
    names = p.var_names
    violations = [f"DuplicateVariable: {v}" for k, v in enumerate(names) if names.index(v) < k]
    S, stacks = None, []
    if p.scalar == "double":
        if all(M.shape == (p.n, p.n) for M in (p.f0, *p.terms)):
            S = np.stack([p.f0, *p.terms])
            stacks = [S] if np.isfinite(S).all() else []
    else:
        try:
            X = p.split
        except (TypeError, ValueError):  # an entry it cannot read, or unstackable matrices
            X = None
        if X is not None and X.shape[1:] == (p.n, p.n):
            # over one d, entries agree exactly when both their integers do
            stacks = [Y for Y in (X.A, X.B) if Y is not None]
    if not (stacks and all(np.array_equal(Y, Y.transpose(0, 2, 1)) for Y in stacks)):
        for name, M in zip(("F0", *names), (p.f0, *p.terms)):
            if M.shape != (p.n, p.n):
                violations.append(
                    f"DimensionMismatch: {name} has shape {M.shape}, expected {(p.n, p.n)}"
                )
            elif p.scalar == "double":
                if not np.all(np.isfinite(M)):
                    violations.append(f"NonFinite: {name} contains NaN or infinity")
                if not np.array_equal(M, M.T):
                    violations.append(f"NotSymmetric: {name}")
            else:
                try:
                    X = split(M)
                except TypeError:
                    violations.append(f"NotExact: {name}")
                    continue
                off = [np.triu(Y != Y.T, 1) for Y in (X.A, X.B) if Y is not None]
                bad = np.argwhere(np.any(off, axis=0))  # row-major order
                if len(bad):
                    violations.append(f"NotSymmetric: {name} at {tuple(map(int, bad[0]))}")
    if p.scalar == "double":
        if not np.all(np.isfinite(np.asarray(prob.objective, dtype=float))):
            violations.append("NonFinite: objective contains NaN or infinity")
        if not np.isfinite(float(prob.objective_offset)):
            violations.append("NonFinite: offset is NaN or infinity")
    return violations, S


def to_double(prob: SdpProblem) -> SdpProblem:
    """Explicit lossy downcast of an exact problem to float64 scalars."""
    p = prob.pencil
    if p.scalar == "double":
        return prob
    F = to_float(p.split)
    pencil = MatrixPencil(
        n=p.n, scalar="double", f0=F[0], var_names=p.var_names, terms=tuple(F[1:])
    )
    return replace(prob, pencil=pencil)


def to_exact(prob: SdpProblem) -> SdpProblem:
    """Exact upcast of a double problem; doubles are dyadic rationals."""
    p = prob.pencil
    if p.scalar == "exact":
        return prob

    def conv(M):
        return qarray([[Fraction(float(x)) for x in row] for row in M])

    pencil = MatrixPencil(
        n=p.n,
        scalar="exact",
        f0=conv(p.f0),
        var_names=p.var_names,
        terms=tuple(conv(t) for t in p.terms),
    )
    return replace(
        prob,
        pencil=pencil,
        objective=tuple(map(Fraction, prob.objective)),
        objective_offset=Fraction(prob.objective_offset),
    )


# ---------------------------------------------------------------------------
# JSON problem files
#
# { "name": str, "n": int, "scalar": "double"|"exact",
#   "F0": [[i, j, value-string], ...],
#   "vars": [ {"name": str, "b": value-string, "F": [[i,j,value-string],...]},
#             ... ],
#   "offset": value-string, "note": str }
# with 1-based upper-triangle indices (i <= j) and exact value strings per
# the exactnum grammar (a reader also takes a JSON integer there, and a
# number in a double file).  "n", i and j must be JSON integers.  "offset"
# is the constant added to <b, y>; it is optional, defaults to 0 and is
# written only when nonzero.  "note" is free text, optional and written
# only when nonempty.


def _value_to_str(v, scalar: str) -> str:
    if scalar == "double":
        return repr(float(v))
    return format_scalar(v)


def _value_from_json(v, scalar: str, where: str):
    """A file value: for an exact problem a grammar string or a JSON integer,
    for a double one a number or a numeric string; ValueError naming the
    field `where` for anything else (a bool, null or list, say)."""
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise ValueError(f"{where}: {v!r} is not a scalar value")
    if scalar == "double":
        try:
            return float(v)
        except (ValueError, OverflowError):
            raise ValueError(f"{where}: {v!r} is not a number") from None
    if isinstance(v, float):
        raise ValueError(f"{where}: exact value {v!r} must be a string or an integer")
    try:
        return to_quad(v)
    except ValueError:
        raise ValueError(f"{where}: malformed exact scalar {v!r}") from None


def matrix_entries(M: np.ndarray, scalar: str) -> list:
    """The nonzero upper-triangle entries of M as 1-based [i, j, value-string]."""
    n = M.shape[0]
    out = []
    for i in range(n):
        for j in range(i, n):
            v = M[i, j]
            nonzero = (v != 0.0) if scalar == "double" else bool(as_quad(v))
            if nonzero:
                out.append([i + 1, j + 1, _value_to_str(v, scalar)])
    return out


def problem_to_json(prob: SdpProblem) -> dict:
    p = prob.pencil
    doc = {
        "name": prob.name,
        "n": p.n,
        "scalar": p.scalar,
        "F0": matrix_entries(p.f0, p.scalar),
        "vars": [
            {
                "name": name,
                "b": _value_to_str(b, p.scalar),
                "F": matrix_entries(term, p.scalar),
            }
            for name, b, term in zip(p.var_names, prob.objective, p.terms)
        ],
    }
    if bool(prob.objective_offset):
        doc["offset"] = _value_to_str(prob.objective_offset, p.scalar)
    if prob.note:
        doc["note"] = prob.note
    return doc


def _is_integer(v) -> bool:
    """A JSON integer: an int that is not a bool (so not 2.0, "2" or true)."""
    return isinstance(v, int) and not isinstance(v, bool)


def problem_from_json(doc: dict) -> SdpProblem:
    try:
        n = doc["n"]
        scalar = doc["scalar"]
        name = doc.get("name", "")
        note = doc.get("note", "")
        raw_f0 = doc["F0"]
        raw_vars = doc["vars"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"problem file missing field: {exc}") from exc
    if not _is_integer(n):
        raise ValueError(f"n must be an integer, not {n!r}")
    if scalar not in ("double", "exact"):
        raise ValueError(f"unknown scalar kind {scalar!r}")
    for field, text in (("name", name), ("note", note)):
        if not isinstance(text, str):
            raise ValueError(f"{field} must be a string")

    def listed(raw, where):
        if not isinstance(raw, list):
            raise ValueError(f"{where} must be a list")
        return raw

    def entries(raw, where):
        out = []
        placed = set()
        for k, item in enumerate(listed(raw, where)):
            if not (
                isinstance(item, list) and len(item) == 3 and all(map(_is_integer, item[:2]))
            ):
                raise ValueError(f"{where}[{k}]: expected [i, j, value] with integer i, j")
            i, j, v = item
            if not (1 <= i <= j <= n):
                raise ValueError(
                    f"{where}[{k}]: index ({i},{j}) outside 1-based upper triangle"
                )
            # a later entry would silently overwrite an earlier one
            if (i, j) in placed:
                raise ValueError(f"{where}[{k}]: duplicate entry ({i},{j})")
            placed.add((i, j))
            out.append((i - 1, j - 1, _value_from_json(v, scalar, f"{where}[{k}]")))
        return out

    seen = set()
    var_entries = []
    objective = []
    for k, rv in enumerate(listed(raw_vars, "vars")):
        if not isinstance(rv, dict):
            raise ValueError(f"vars[{k}] must be an object")
        vname = rv.get("name")
        if not vname or not isinstance(vname, str):
            raise ValueError(f"vars[{k}]: missing variable name")
        if vname in seen:
            raise ValueError(f"vars[{k}]: duplicate variable name {vname!r}")
        seen.add(vname)
        var_entries.append((vname, entries(rv.get("F", []), f"vars[{k}].F")))
        objective.append(_value_from_json(rv.get("b", "0"), scalar, f"vars[{k}].b"))

    offset = _value_from_json(doc["offset"], scalar, "offset") if "offset" in doc else 0
    pencil = MatrixPencil.from_upper(n, scalar, entries(raw_f0, "F0"), var_entries)
    return SdpProblem(
        pencil=pencil,
        objective=tuple(objective),
        name=name,
        note=note,
        objective_offset=offset,
    )


def problem_to_json_str(prob: SdpProblem) -> str:
    """Canonical serialization: fixed key order, 2-space indent, newline end."""
    return json.dumps(problem_to_json(prob), indent=2) + "\n"
