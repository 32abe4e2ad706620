"""Linear matrix pencils and small dense SDPs in pencil (dual) form.

An SDP here is ``maximize <b, y>  s.t.  F0 + sum_i y_i F_i >= 0``: the dual
form.  Its primal is ``minimize <F0, X>  s.t.  <F_i, X> = -b_i, X >= 0``,
whose values `pencil_pairing` gives exactly.
One data model carries both numeric (float64) and exact (QuadExt) entries,
tagged by ``scalar``; exact -> double conversion is explicit and lossy.
An exact pencil is split into integers once: `MatrixPencil.split` holds the
integer split of its stack (F0, F_1, ..., F_m), made on first use and then
carried, and every pencil-wide exact operation (evaluation, the pairing
with a matrix X, the downcast, the products of `facial`) reads it instead
of the Fractions.

Problems are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exactnum import (
    QUAD_ONE,
    QSplit,
    as_quad,
    format_scalar,
    frob_inner,  # noqa: F401  (perfbench/spans.py times it here)
    parse_scalar,
    qarray,
    qmatmul,
    quad,
    qzeros,
    split,
    to_float,
)


class StatusTag(str, Enum):
    OPTIMAL = "Optimal"
    NUMERICAL_TROUBLE = "NumericalTrouble"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_UNBOUNDED_SUSPECTED = "DualUnboundedSuspected"
    ITERATION_LIMIT = "IterationLimit"


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
    "exact" (object arrays of QuadExt) or "double" (float64).
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

        Exact pencils only.  It is made on first use, never at construction,
        and then kept (read-only, like the matrices).
        """
        if self.scalar != "exact":
            raise ValueError("only an exact pencil has an integer split")
        return _freeze_split(split(np.stack([self.f0, *self.terms])))

    @staticmethod
    def from_stack(mats: Sequence[np.ndarray], var_names: Sequence[str], split: QSplit):
        """The exact pencil of the matrices `mats` (F0, F_1, ..., F_m), whose
        stack's integer split is already known: it becomes the pencil's
        `split` as it is, so these Fractions are never split again."""
        pencil = MatrixPencil(
            n=len(mats[0]),
            scalar="exact",
            f0=mats[0],
            var_names=tuple(var_names),
            terms=tuple(mats[1:]),
        )
        pencil.__dict__["split"] = _freeze_split(split)
        return pencil

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
        """Build from 0-based upper-triangle (i, j, value) triples."""

        def build(entries):
            if scalar == "exact":
                M = qzeros(n)
                coerce = lambda v: parse_scalar(v) if isinstance(v, str) else as_quad(v)
            else:
                M = np.zeros((n, n))
                coerce = float
            for i, j, v in entries:
                if not (0 <= i <= j < n):
                    raise ValueError(f"entry ({i},{j}) outside upper triangle of n={n}")
                M[i, j] = coerce(v)
                M[j, i] = M[i, j]
            return M

        names = tuple(name for name, _ in var_entries)
        return MatrixPencil(
            n=n,
            scalar=scalar,
            f0=build(f0_entries),
            var_names=names,
            terms=tuple(build(e) for _, e in var_entries),
        )


@dataclass(frozen=True)
class SdpProblem:
    """A pencil and an objective vector over its variables, in pencil form."""

    pencil: MatrixPencil
    objective: tuple
    name: str = ""
    note: str = ""
    objective_offset: object = 0

    def __post_init__(self):
        if len(self.objective) != self.pencil.m:
            raise ValueError("objective length must match the number of pencil terms")
        object.__setattr__(self, "objective", tuple(self.objective))

    @property
    def var_names(self) -> tuple[str, ...]:
        return self.pencil.var_names


def pencil_eval(pencil: MatrixPencil, y: Mapping[str, object]) -> np.ndarray:
    """Evaluate F0 + sum_i y_i F_i; exact when the pencil is exact."""
    missing = [v for v in pencil.var_names if v not in y]
    if missing:
        raise MissingVariableError(f"missing assignment for {missing}")
    if pencil.scalar == "double":
        out = pencil.f0.copy()
        for name, term in zip(pencil.var_names, pencil.terms):
            out = out + float(y[name]) * term
        return out
    coeffs = [QUAD_ONE]
    for name in pencil.var_names:
        c = y[name]
        c = parse_scalar(c) if isinstance(c, str) else as_quad(c)
        if c is NotImplemented:
            raise TypeError(f"assignment for {name} is not an exact scalar")
        coeffs.append(c)
    # one product: (1, y_1, ..., y_m) times the flattened stack (F0, F_1, ...)
    stack = pencil.split.reshape(pencil.m + 1, -1)
    return qmatmul(coeffs, stack).reshape(pencil.n, pencil.n)


def pencil_pairing(pencil: MatrixPencil, X) -> np.ndarray:
    """(<F0, X>, <F_1, X>, ..., <F_m, X>) for an exact n x n matrix X or its
    split, the adjoint of `pencil_eval`: one product of the pencil's split,
    flattened, with vec(X).  ValueError when X is not n x n."""
    X = split(X)
    if X.shape != (pencil.n, pencil.n):
        raise ValueError(f"X has shape {X.shape}, expected {(pencil.n, pencil.n)}")
    return (pencil.split.reshape(pencil.m + 1, -1) @ X.reshape(-1)).join()


def validate(prob: SdpProblem) -> list[str]:
    """Structural checks; an empty list means the problem is well formed.

    A double pencil of square matrices is checked as one (m+1, n, n) stack,
    finite and equal to its transpose; only when that fails are the
    matrices checked one by one, to word each violation.
    """
    violations: list[str] = []
    p = prob.pencil
    mats = [("F0", p.f0)] + list(zip(p.var_names, p.terms))
    seen = set()
    for name in p.var_names:
        if name in seen:
            violations.append(f"DuplicateVariable: {name}")
        seen.add(name)
    clean = False
    if p.scalar == "double" and all(M.shape == (p.n, p.n) for _, M in mats):
        S = np.stack([M for _, M in mats])
        clean = bool(np.isfinite(S).all()) and np.array_equal(S, S.transpose(0, 2, 1))
    if not clean:
        for name, M in mats:
            if M.shape != (p.n, p.n):
                violations.append(
                    f"DimensionMismatch: {name} has shape {M.shape}, expected {(p.n, p.n)}"
                )
                continue
            if p.scalar == "double":
                if not np.all(np.isfinite(M)):
                    violations.append(f"NonFinite: {name} contains NaN or infinity")
                if not np.array_equal(M, M.T):
                    violations.append(f"NotSymmetric: {name}")
            else:
                bad = next(
                    (
                        (i, j)
                        for i in range(p.n)
                        for j in range(i + 1, p.n)
                        if M[i, j] != M[j, i]
                    ),
                    None,
                )
                if bad:
                    violations.append(f"NotSymmetric: {name} at {bad}")
    if p.scalar == "double":
        if not np.all(np.isfinite(np.asarray(prob.objective, dtype=float))):
            violations.append("NonFinite: objective contains NaN or infinity")
        if not np.isfinite(float(prob.objective_offset)):
            violations.append("NonFinite: offset is NaN or infinity")
    return violations


def to_double(prob: SdpProblem) -> SdpProblem:
    """Explicit lossy downcast of an exact problem to float64 scalars."""
    p = prob.pencil
    if p.scalar == "double":
        return prob
    F = to_float(p.split)
    pencil = MatrixPencil(
        n=p.n, scalar="double", f0=F[0], var_names=p.var_names, terms=tuple(F[1:])
    )
    return replace(
        prob,
        pencil=pencil,
        objective=tuple(float(b) for b in prob.objective),
        objective_offset=float(prob.objective_offset),
    )


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
        objective=tuple(quad(Fraction(float(b))) for b in prob.objective),
        objective_offset=quad(Fraction(float(prob.objective_offset))),
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
    if isinstance(v, int):
        return as_quad(v)
    try:
        return parse_scalar(v)
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
