"""Exact arithmetic over Q and Q(sqrt5), plus exact symmetric linear algebra.

Scalars are either :class:`fractions.Fraction` (rationals) or :class:`QuadExt`
(numbers of the form a + b*sqrt(5) with rational a, b).  Exact matrices are
numpy object arrays whose entries are QuadExt; see :func:`qarray`.  Everything
here is immutable and side-effect free, so values can be shared freely, and
they are: :func:`qarray` and :meth:`QSplit.join` build each distinct entry
once and put that one QuadExt wherever the value repeats.

Exact products (:func:`qmatmul`, :func:`frob_inner`) write each operand
once as a :class:`QSplit` (A + B*sqrt5)/d, with A and B object arrays of
Python ints and d a common denominator, and numpy's object matmul
multiplies the integers.  :func:`to_float` reads a split too: A/d and B/d
are correctly rounded integer divisions.  Reading Fractions is the costly
part, so a split is kept and passed where an exact array goes (an
elimination works on a copy); an exact pencil keeps the split of its stack
(`model.MatrixPencil.split`).  :func:`qcongruence`, the one congruence
U^T F_k U (a face's conditions, a pencil restricted to a face), multiplies
in int64 where a bound from its operands proves that nothing overflows.

Eliminations run on the split without fractions: each step is the Bareiss
update (p X - c r)/prev over Z[sqrt5] (d drops out), whose entries are
minors of the input (Sylvester's identity), so the division by the previous
pivot, by its conjugate and integer norm, is exact; a remainder raises
AssertionError.  :func:`gauss_jordan_split` returns the integer state of
the fraction-free Gauss-Jordan form, and :func:`nullspace_split` (the
kernel, for a square matrix) and :func:`row_space_split` each return a
basis as one split, one vector per row, divided once by the last pivot
(:meth:`QSplit.divided`).  :func:`psd_check_exact`, the one exact
definiteness test, is a fraction-free LDL^T signed on the integers that
tracks rows for a witness only for a matrix that fails.

QuadExt entries are made only by a join (:meth:`QSplit.join`), where a
result leaves: :func:`qmatmul`, a PSD witness, and :func:`rref_exact`,
:func:`nullspace_exact`, :func:`row_space_basis_exact` and
:func:`kernel_basis_exact`, the joins of the split forms.

:func:`lll_reduce` is an integral LLL reduction on Python ints, in any
dimension; :func:`reconstruct_quadext` reads a float's Q(sqrt5) value off
the integer relation it finds, with no float and no multiprecision package.

The exact scalar string grammar is ``p/q`` for rationals and
``p/q+r/s*sqrt5`` for extension elements (signs inline, either term may be
omitted, no whitespace, locale independent).
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np


#: tolerance used by the float -> exact reconstruction helpers
RECONSTRUCT_TOL = 1e-6

SQRT5 = math.sqrt(5.0)


class NonFiniteError(ValueError):
    """Raised when a reconstruction input is NaN or infinite."""


class NonSymmetricError(ValueError):
    """Raised when a matrix claimed symmetric is not."""


_FRACTION_ZERO = Fraction(0)


def _fraction(x) -> Fraction:
    # the exact types first: an ABC isinstance check costs more than the
    # Fraction it guards, and most parts are plain ints (0 above all)
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x) if x else _FRACTION_ZERO
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


class QuadExt:
    """Exact element a + b*sqrt(5) of Q(sqrt5).

    Ring and field operations are exact; comparisons use :func:`qsign` and
    never go through floating point.  Rationals embed with b = 0.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _fraction(a))
        object.__setattr__(self, "b", _fraction(b))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QuadExt is immutable")

    # -- basic predicates -------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = as_quad(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_quad(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __pos__(self):
        return self

    def __abs__(self):
        return self if qsign(self) >= 0 else -self

    def __mul__(self, other):
        other = as_quad(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # (a + b*sqrt5)^-1 = (a - b*sqrt5) / (a^2 - 5 b^2); the norm only
        # vanishes at 0 because sqrt5 is irrational.
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt5)")
        return QuadExt(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        other = as_quad(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_quad(other) * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, (int, np.integer)):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadExt(1)
        base = self
        n = int(exponent)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons ------------------------------------------------------
    def __eq__(self, other):
        other = as_quad(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __lt__(self, other):
        return qsign(self - as_quad(other)) < 0

    def __le__(self, other):
        return qsign(self - as_quad(other)) <= 0

    def __gt__(self, other):
        return qsign(self - as_quad(other)) > 0

    def __ge__(self, other):
        return qsign(self - as_quad(other)) >= 0

    # -- conversion -------------------------------------------------------
    def __float__(self) -> float:
        return float(self.a) + float(self.b) * SQRT5

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r})"


QUAD_ZERO = QuadExt(0)
QUAD_ONE = QuadExt(1)


def as_quad(x):
    """Coerce ints, Fractions and QuadExt to QuadExt; NotImplemented otherwise."""
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, np.integer, Fraction)):
        return QuadExt(x)
    return NotImplemented


def to_quad(x) -> QuadExt:
    """An exact scalar as QuadExt: a QuadExt as it is, a string by the
    grammar of :func:`parse_scalar`, an int or Fraction embedded.  TypeError
    for anything else (a float, say); ValueError for a malformed string."""
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    return QuadExt(x)


def quad(a=0, b=0) -> QuadExt:
    """Build a + b*sqrt5 from ints, Fractions or fraction strings."""
    return QuadExt(a, b)


def qsign(x) -> int:
    """Exact sign of a + b*sqrt5 in {-1, 0, +1}, no floating point."""
    x = as_quad(x)
    if x is NotImplemented:
        raise TypeError("qsign expects an exact scalar")
    return _sign(x.a, x.b)


def _sign(a, b) -> int:
    """`qsign` of a + b*sqrt5 for rational a and b, with no QuadExt made:
    case analysis on the signs of a and b; the mixed-sign cases compare
    a^2 against 5 b^2, which decides because sqrt5 is irrational."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # opposite signs: |a| vs sqrt5 |b|
    cmp = a * a - 5 * b * b
    if cmp == 0:
        # would force a = b = 0, handled above
        raise AssertionError("a^2 = 5 b^2 with nonzero parts is impossible")
    return sa if cmp > 0 else sb


# ---------------------------------------------------------------------------
# scalar string grammar


# an unsigned p or p/q; a denominator of zeros ("1/0", "1/00") is malformed
_RATIONAL_RE = r"\d+(?:/0*[1-9]\d*)?"
_SCALAR_RE = re.compile(
    rf"^(?P<a>[+-]?{_RATIONAL_RE})?(?P<b>(?:[+-]|^)(?:{_RATIONAL_RE}\*)?sqrt5)?$"
)


def parse_scalar(text: str) -> QuadExt:
    """Parse the exact grammar 'p/q', 'p/q+r/s*sqrt5', '-sqrt5', ...

    Whitespace is rejected; parsing never consults the locale.
    """
    if not isinstance(text, str) or text != text.strip() or " " in text:
        raise ValueError(f"malformed exact scalar {text!r}")
    m = _SCALAR_RE.match(text)
    if not m or (m.group("a") is None and m.group("b") is None):
        raise ValueError(f"malformed exact scalar {text!r}")
    a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
    b = Fraction(0)
    if m.group("b"):
        bt = m.group("b")
        sign = 1
        if bt.startswith("-"):
            sign, bt = -1, bt[1:]
        elif bt.startswith("+"):
            bt = bt[1:]
        bt = bt[: -len("sqrt5")].rstrip("*")
        b = sign * (Fraction(bt) if bt else Fraction(1))
    return QuadExt(a, b)


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_scalar(x) -> str:
    """Canonical string for an exact scalar, inverse of :func:`parse_scalar`."""
    x = as_quad(x)
    if x is NotImplemented:
        raise TypeError("format_scalar expects an exact scalar")
    if x.b == 0:
        return _format_fraction(x.a)
    bpart = f"{_format_fraction(abs(x.b))}*sqrt5"
    bpart = ("-" if x.b < 0 else "+") + bpart
    if x.a == 0:
        return bpart if bpart.startswith("-") else bpart[1:]
    return _format_fraction(x.a) + bpart


# ---------------------------------------------------------------------------
# exact matrices (numpy object arrays of QuadExt)


def _shared(keys: list, make, shape) -> np.ndarray:
    """Object array of `shape` holding make(k) for each key k of the flat
    list `keys`.  make runs once per distinct key, and every entry with that
    key holds the one result: exact arrays repeat few values (mostly 0)."""
    value = {k: make(k) for k in set(keys)}
    out = np.empty(len(keys), dtype=object)
    out[:] = [value[k] for k in keys]
    return out.reshape(shape)


def qarray(rows) -> np.ndarray:
    """Object ndarray of QuadExt from nested ints/Fractions/QuadExt/strings.

    Each distinct entry is converted once (:func:`to_quad`), and equal
    entries share the one QuadExt.  Entries count as equal only with equal
    types too, so a float next to an equal exact value still raises
    TypeError.
    """
    data = np.asarray(rows, dtype=object)
    flat = data.ravel().tolist()
    return _shared(list(zip(map(type, flat), flat)), lambda k: to_quad(k[1]), data.shape)


def qzeros(n: int) -> np.ndarray:
    out = np.empty((n, n), dtype=object)
    out[...] = QUAD_ZERO
    return out


def to_float(M) -> np.ndarray:
    """Lossy downcast of an exact array, or of its split, to float64.

    From the integer split: A/d and B/d are Python int true divisions,
    correctly rounded like float(Fraction), so each entry is bit for bit
    float(QuadExt) = float(a) + float(b)*sqrt5, whatever d is.
    """
    X = split(M)
    out = (X.A / X.d).astype(float)
    return out if X.B is None else out + (X.B / X.d).astype(float) * SQRT5


# ---------------------------------------------------------------------------
# exact products over an integer split


_numerator = operator.attrgetter("numerator")
_denominator = operator.attrgetter("denominator")


@dataclass(frozen=True, eq=False)
class QSplit:
    """An exact array written once as X = (A + B*sqrt5)/d, entrywise.

    A and B are object arrays of Python ints, which never overflow, and d is
    a positive int; B None stands for 0 (`split` gives None exactly when X
    is rational), so a rational product costs one integer matmul, not four.
    :func:`split` makes one, `@` multiplies two without leaving the
    integers, and :meth:`join` turns one back into QuadExt entries.
    Indexing and reshaping act on A and B alike.
    """

    A: np.ndarray
    B: np.ndarray | None
    d: int

    @property
    def shape(self) -> tuple:
        return self.A.shape

    def _map(self, f) -> "QSplit":
        return QSplit(f(self.A), None if self.B is None else f(self.B), self.d)

    def __getitem__(self, key) -> "QSplit":
        return self._map(operator.itemgetter(key))

    def reshape(self, *shape) -> "QSplit":
        return self._map(lambda X: X.reshape(*shape))

    @property
    def T(self) -> "QSplit":
        return self._map(np.transpose)

    def scaled(self, w) -> "QSplit":
        """Entrywise times the integers w (broadcast as in numpy)."""
        return self._map(lambda X: X * w)

    def __matmul__(self, other: "QSplit") -> "QSplit":
        # (A1 + B1 s)(A2 + B2 s) = A1 A2 + 5 B1 B2 + (A1 B2 + B1 A2) s, s = sqrt5
        A1, B1, A2, B2 = self.A, self.B, other.A, other.B
        A = A1 @ A2
        B = None if B2 is None else A1 @ B2
        if B1 is not None:
            B = B1 @ A2 if B is None else B + B1 @ A2
            if B2 is not None:
                A = A + 5 * (B1 @ B2)
        return QSplit(A, B, self.d * other.d)

    def join(self) -> np.ndarray:
        """Object array of the QuadExt entries (A + B*sqrt5)/d."""
        return _join(self.A, self.B, self.d)

    def divided(self, q) -> "QSplit":
        """The split of X/q for a nonzero q = qa + qb*sqrt5 in Z[sqrt5]: times
        the conjugate of q over d times the norm qa^2 - 5 qb^2, reduced as
        `split` would make it (`_reduced`; a negative norm flips the sign)."""
        A, B, norm = _times_conjugate(self.A, self.B, q)
        return _reduced(A, B, self.d * norm)


def split(X) -> QSplit:
    """The integer split of an exact array, over the least common
    denominator of its entries; a QSplit is returned as it is.  Fraction
    entries are read as they are, with no QuadExt made of them."""
    if isinstance(X, QSplit):
        return X
    X = np.asarray(X, dtype=object)
    a = X.ravel().tolist()
    b = []
    if not all(type(x) is Fraction for x in a):
        quads = list(map(as_quad, a))
        if any(q is NotImplemented for q in quads):
            raise TypeError("exact products expect exact entries")
        a = [q.a for q in quads]
        b = [q.b for q in quads]
    d = math.lcm(*set(map(_denominator, a)), *set(map(_denominator, b)))

    def scaled(parts) -> np.ndarray:
        if d == 1:
            ints = list(map(_numerator, parts))
        else:
            ints = [f.numerator * (d // f.denominator) for f in parts]
        return np.array(ints, dtype=object).reshape(X.shape)

    return QSplit(scaled(a), scaled(b) if any(map(_numerator, b)) else None, d)


def qconcat(parts, axis: int = 0) -> QSplit:
    """np.concatenate of exact arrays or splits, as one split.

    The parts are brought to a common denominator and the result is reduced
    by the gcd of d and every integer, so d is again the least common
    denominator of the entries: the same split `split` makes of the joined
    array.
    """
    parts = [split(x) for x in parts]
    d = math.lcm(*(x.d for x in parts))

    def over_d(X, x: QSplit) -> np.ndarray:
        if X is None:
            return np.zeros(x.shape, dtype=object)
        return X if x.d == d else X * (d // x.d)

    A = np.concatenate([over_d(x.A, x) for x in parts], axis)
    B = None
    if any(x.B is not None for x in parts):
        B = np.concatenate([over_d(x.B, x) for x in parts], axis)
    return _reduced(A, B, d)


def _reduced(A, B, d) -> QSplit:
    """(A + B*sqrt5)/d for a nonzero int d over the least common denominator
    of its entries, the split `split` makes of the joined array: d positive,
    B None when zero and the gcd of d and every integer taken out."""
    if d < 0:
        A, B, d = -A, None if B is None else -B, -d
    if B is not None and not any(B.flat):
        B = None
    # over d = 1 the integers have no common factor to take out
    g = math.gcd(d, *A.flat, *(() if B is None else B.flat)) if d > 1 else 1
    if g > 1:
        A, B, d = A // g, None if B is None else B // g, d // g
    return QSplit(A, B, d)


def _times_conjugate(A, B, q) -> tuple:
    """(A', B', N) with (A + B*sqrt5)/q = (A' + B'*sqrt5)/N, N the integer
    norm of q = qa + qb*sqrt5 (B None for 0)."""
    qa, qb = q
    if not qb:
        return A, B, qa
    B0 = 0 if B is None else B
    return A * qa - 5 * B0 * qb, B0 * qa - A * qb, qa * qa - 5 * qb * qb


def _join(A, B, d, q=(1, 0)) -> np.ndarray:
    """Object array of the QuadExt (A + B*sqrt5) / (d*q), entrywise.

    A and B (None for 0) are integer arrays, d is a nonzero int and q =
    qa + qb*sqrt5 a nonzero element of Z[sqrt5]; dividing by q multiplies
    by its conjugate and divides by its integer norm.
    """
    A, B, norm = _times_conjugate(A, B, q)
    A = np.asarray(A, dtype=object)
    B = np.zeros(A.shape, dtype=object) if B is None else np.asarray(B, dtype=object)
    d = d * norm
    pairs = list(zip(A.flat, B.flat))
    return _shared(pairs, lambda ab: QuadExt(Fraction(ab[0], d), Fraction(ab[1], d)), A.shape)


def qmatmul(X, Y, *more):
    """Exact product X @ Y (@ more...) over Q(sqrt5), with numpy's shapes.

    Operands are exact arrays (QuadExt, Fraction or int entries) or their
    splits: matrices, vectors or stacks of matrices such as (k, n, n), which
    broadcast as in numpy's matmul.  Each operand is split once (see
    `split`; a QSplit is used as it is) and the whole chain is multiplied by
    numpy's object matmul on Python ints; the result goes back to QuadExt
    entries only at the end.  A vector-times-vector product is a QuadExt.
    """
    out = functools.reduce(operator.matmul, map(split, (Y, *more)), split(X)).join()
    return out if out.ndim else out[()]


def frob_inner(A: np.ndarray, B: np.ndarray) -> QuadExt:
    """Exact Frobenius inner product sum_ij A_ij B_ij."""
    return qmatmul(np.ravel(A), np.ravel(B))


_INT64_MAX = int(np.iinfo(np.int64).max)


def _int64(S: QSplit) -> tuple[QSplit, int] | None:
    """S with int64 parts and the largest absolute integer in them, or None
    when an integer of S lies outside int64."""
    try:
        S = S._map(lambda X: X.astype(np.int64))
    except OverflowError:
        return None
    # Python ints, so that -(-2^63) does not wrap
    top = 0
    for X in (S.A, S.B):
        if X is not None and X.size:
            top = max(top, int(X.max()), -int(X.min()))
    return S, top


def qcongruence(U, F) -> QSplit:
    """The stack U^T F_k U of an exact (k, n, n) stack F and an exact (n, r)
    matrix U, either given as it is or as its split: `U.T @ F @ U` on the
    integer splits, over the product of their denominators.

    The integers are multiplied in int64 when a bound computed from the
    operands proves that every entry and partial sum fits, and as Python
    ints otherwise.  Every integer of U and F must fit, and with u and f
    the largest absolute ones, an entry or partial sum of a product X Y over
    the inner dimension n is at most c n x y, where c = 6 when both X and Y
    have a sqrt5 part (A1 A2 + 5 B1 B2) and 1 otherwise: so at most
    t = c n u f in U^T F and c' n t u in (U^T F) U.  int64 is taken when
    both are at most 2^63 - 1.
    """
    U, F = split(U), split(F)
    U64, F64 = _int64(U), _int64(F)
    if U64 is not None and F64 is not None:
        (U64, u), (F64, f) = U64, F64
        n = U.shape[0]
        t = (6 if U.B is not None and F.B is not None else 1) * n * u * f
        if max(t, (6 if U.B is not None else 1) * n * t * u) <= _INT64_MAX:
            return (U64.T @ F64 @ U64)._map(lambda X: X.astype(object))
    return U.T @ F @ U


# ---------------------------------------------------------------------------
# fraction-free elimination over the integer split


_divmod = np.frompyfunc(divmod, 2, 2)


def _divide_exact(A, B, q) -> tuple:
    """(A + B*sqrt5) / q for q = qa + qb*sqrt5 in Z[sqrt5], known to be exact.

    Multiplies by the conjugate of q and divides both parts by its integer
    norm.  Every division is a divmod, and a nonzero remainder (the quotient
    is not in Z[sqrt5], so q was not a minor of the input) raises
    AssertionError instead of flooring silently.
    """
    A, B, norm = _times_conjugate(A, B, q)
    if norm == 1:
        return A, B
    out = []
    for part in (A, B):
        if part is not None:
            part, rem = _divmod(part, norm)
            if any(rem.flat):
                raise AssertionError("fraction-free division left a remainder")
        out.append(part)
    return tuple(out)


def _bareiss_step(A, B, rows, cols: slice, r: int, c: int, prev: tuple) -> None:
    """One fraction-free elimination step on X = A + B*sqrt5, in place.

    For i in rows and j in cols, X[i, j] <- (p X[i, j] - X[i, c] X[r, j]) / prev
    with the pivot p = X[r, c] and prev the pivot of the previous step
    (Bareiss, Math. Comp. 1968).  Every entry this produces is a minor of
    the input (Sylvester's identity), so the division is exact in Z[sqrt5].
    A and B are object arrays of Python ints; B is None for a rational X.
    rows is a slice or an index list without r, and cols a slice, so the
    block X[rows, cols] is indexed as it is, with no index arrays built.
    """
    block = (rows, cols)
    pa, ca, ra = A[r, c], A[rows, c][:, None], A[r, cols]
    if B is None:
        A[block], _ = _divide_exact(pa * A[block] - ca * ra, None, prev)
        return
    pb, cb, rb = B[r, c], B[rows, c][:, None], B[r, cols]
    XA, XB = A[block], B[block]
    NA = pa * XA + 5 * pb * XB - ca * ra - 5 * cb * rb
    NB = pa * XB + pb * XA - ca * rb - cb * ra
    A[block], B[block] = _divide_exact(NA, NB, prev)


def _entry(A, B, i: int, j: int) -> tuple:
    return A[i, j], 0 if B is None else B[i, j]


def gauss_jordan_split(M, column_order: Sequence[int] | None = None) -> tuple:
    """Fraction-free Gauss-Jordan elimination of an exact matrix or its split
    (left as it is), pivots preferred in the optional column order:
    (E, p, pivots), with pivots mapping pivot column -> row.

    On the split M = (A + B*sqrt5)/d each pivot updates every other row by
    `_bareiss_step`, so every pivot row ends with the last pivot p = (pa, pb)
    at its pivot column.  E is that integer state, over 1: the RREF is E's r
    pivot rows divided by p (`E[:r].divided(p)`) and its other rows, the
    Schur complement of d*M, divided by d*p.
    """
    S = split(M)
    A, B = S.A, S.B
    if S is M:
        # the caller's split (perhaps a read-only pencil slice): eliminate on
        # a copy
        A, B = A.copy(), None if B is None else B.copy()
    rows, cols = A.shape
    order = list(column_order) if column_order is not None else list(range(cols))
    pivots: dict[int, int] = {}
    prev = (1, 0)
    r = 0
    for c in order:
        if r >= rows:
            break
        pivot_row = next((i for i in range(r, rows) if A[i, c] or B is not None and B[i, c]), None)
        if pivot_row is None:
            continue
        for X in (A, B):
            if X is not None:
                X[[r, pivot_row]] = X[[pivot_row, r]]
        others = [i for i in range(rows) if i != r]
        _bareiss_step(A, B, others, slice(None), r, c, prev)
        prev = _entry(A, B, r, c)
        pivots[c] = r
        r += 1
    return QSplit(A, B, 1), prev, pivots


def rref_exact(M: np.ndarray, column_order: Sequence[int] | None = None):
    """Exact reduced row-echelon form over Q(sqrt5) of an exact matrix or its
    split: (R, pivots), the join of `gauss_jordan_split`."""
    S = split(M)
    E, p, pivots = gauss_jordan_split(S, column_order)
    R = np.empty(E.shape, dtype=object)
    for rows, d in ((slice(len(pivots)), 1), (slice(len(pivots), None), S.d)):
        R[rows] = _join(E.A[rows], None if E.B is None else E.B[rows], d, p)
    return R, pivots


def nullspace_split(M) -> QSplit:
    """Exact basis of {v : Mv = 0} (M exact or a split) as one split, a
    vector per row: one per non-pivot column f, in order, 1 at f and 0 at
    the other non-pivot columns."""
    E, p, pivots = gauss_jordan_split(M)
    cols = E.shape[1]
    free = [c for c in range(cols) if c not in pivots]

    def times_p(X, pk):
        # p times the vectors: p at f, minus row r's entry at f at pivot c
        V = np.zeros((len(free), cols), dtype=object)
        V[range(len(free)), free] = pk
        V[:, list(pivots)] = -X[np.ix_(list(pivots.values()), free)].T
        return V

    B = None if E.B is None else times_p(E.B, p[1])
    return QSplit(times_p(E.A, p[0]), B, 1).divided(p)


def row_space_split(M) -> QSplit:
    """Exact basis of the row space (= range, for symmetric M) as one split:
    the nonzero rows of the RREF."""
    E, p, pivots = gauss_jordan_split(M)
    return E[: len(pivots)].divided(p)


def nullspace_exact(M: np.ndarray) -> list[np.ndarray]:
    """The rows of `nullspace_split`, as QuadExt vectors."""
    return list(nullspace_split(M).join())


def kernel_basis_exact(M: np.ndarray) -> list[np.ndarray]:
    """`nullspace_exact` of a square matrix: empty iff M is nonsingular."""
    n, m = M.shape
    if n != m:
        raise ValueError("kernel_basis_exact expects a square matrix")
    return nullspace_exact(M)


def row_space_basis_exact(M: np.ndarray) -> list[np.ndarray]:
    """The rows of `row_space_split`, as QuadExt vectors."""
    return list(row_space_split(M).join())


@dataclass(frozen=True)
class PsdCheck:
    """Outcome of the exact PSD decision.

    When not PSD, `bad_index` is the 0-based elimination step that failed and
    `witness` is an exact vector with witness^T M witness < 0.  `rank` counts
    the positive pivots eliminated; for a PSD matrix it is the rank, so M is
    positive definite iff it is PSD with rank n.
    """

    is_psd: bool
    bad_index: int | None = None
    witness: tuple | None = None
    rank: int = 0

    def __bool__(self) -> bool:
        return self.is_psd


def _ldl(A, B, n: int) -> tuple:
    """The pivoted fraction-free LDL^T of `psd_check_exact` on the integers
    X = A + B*sqrt5, in place, its pivots signed on the integers: step k
    eliminates column k of the n x n block from the rows below it (by
    `_bareiss_step`, on every column right of k, T's too if X carries it).
    Returns (k, rank, prev): k the first step that proves X not PSD (None
    if none does), rank the positive pivots (PsdCheck.rank), prev the last."""
    prev, rank = (1, 0), 0
    for k in range(n):
        s = _sign(*_entry(A, B, k, k))
        if s == 0 and not (any(A[k, k + 1 : n]) or B is not None and any(B[k, k + 1 : n])):
            continue
        if s <= 0:
            return k, rank, prev
        # one congruence step: the trailing block becomes the Schur complement
        _bareiss_step(A, B, slice(k + 1, n), slice(k + 1, None), k, k, prev)
        prev = _entry(A, B, k, k)
        rank += 1
    return None, rank, prev


def psd_check_exact(M: np.ndarray) -> PsdCheck:
    """Exact PSD decision by pivoted symmetric Gaussian elimination.

    At step k: a positive pivot eliminates its row/column; a zero pivot must
    have an all-zero remaining row (otherwise an indefinite 2x2 block gives a
    witness); a negative pivot yields its own witness direction.  Returns PSD
    iff M >= 0 exactly; M is positive definite iff it is PSD of rank n.

    The elimination, `_ldl`, runs on a copy of the integer split
    d*M = A + B*sqrt5.  Only a matrix that fails is eliminated a second
    time, next to the rows of T that track it: the current form is T M T^T.
    Each stored row is its fractional value times the last positive pivot,
    which is positive, so every sign is the sign of a stored entry;
    witnesses are divided back by that pivot.  M is an exact matrix or its
    split (left as it is), and symmetry is decided on the integers.
    """
    n, m = M.shape
    if n != m:
        raise NonSymmetricError("matrix is not square")
    S = split(M)
    A, B, d = S.A, S.B, S.d
    if not all(X is None or np.array_equal(X, X.T) for X in (A, B)):
        raise NonSymmetricError("matrix is not symmetric")
    k, rank, _ = _ldl(A.copy(), None if B is None else B.copy(), n)
    if k is None:
        return PsdCheck(True, rank=rank)
    # [A | T] with T = I; a rational M keeps a rational T, so B stays None
    eye = np.eye(n, dtype=int).astype(object)
    A = np.hstack([A, eye])
    B = None if B is None else np.hstack([B, eye * 0])
    k, rank, prev = _ldl(A, B, n)

    def row(i: int) -> np.ndarray:
        return _join(A[i, n:], None if B is None else B[i, n:], 1, prev)

    if _sign(*_entry(A, B, k, k)) < 0:
        return PsdCheck(False, k, tuple(row(k)), rank)
    # a zero pivot with a nonzero entry in its row
    bad = next(j for j in range(k + 1, n) if any(_entry(A, B, k, j)))
    sd = _sign(*_entry(A, B, bad, bad))
    if sd < 0:
        return PsdCheck(False, k, tuple(row(bad)), rank)
    # u = e_k + t e_bad has value 2 t A[k,bad] + t^2 A[bad,bad] < 0,
    # with A the form of M itself: stored entries are d * prev * A
    at_k, at_bad = (QuadExt(*_entry(A, B, i, bad)) for i in (k, bad))
    t = -at_k / (QuadExt(*prev) * d if sd == 0 else at_bad)
    Tk, Tbad = row(k), row(bad)
    return PsdCheck(False, k, tuple(Tk[j] + t * Tbad[j] for j in range(n)), rank)


def primitive_rows(S: QSplit, positive_lead: bool = False) -> QSplit:
    """Each row of the split S times the positive rational that makes it a
    primitive integer vector (the gcd of its integers, over both parts, is 1;
    a zero row stays zero), over d = 1.  With positive_lead a row whose first
    nonzero entry is negative is negated too."""
    B = np.zeros_like(S.A) if S.B is None else S.B
    g = []
    for a, b in zip(S.A.tolist(), B.tolist()):
        k = math.gcd(*a, *b) or 1
        lead = positive_lead and next((_sign(x, y) for x, y in zip(a, b) if x or y), 0)
        g.append(-k if lead < 0 else k)
    g = np.array(g, dtype=object).reshape(-1, 1)
    return QSplit(S.A // g, None if S.B is None else S.B // g, 1)


# ---------------------------------------------------------------------------
# integer lattice reduction


def lll_reduce(basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """An LLL-reduced basis (delta = 3/4) of the lattice spanned by the
    rows of `basis`, linearly independent integer vectors of any dimension.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7), on Python ints alone: d[i] is the Gram determinant
    of the first i rows and lam[k][j] = d[j+1] mu[k][j] a scaled
    Gram-Schmidt coefficient, both integers, so every division is exact.
    Raises ValueError when the rows are linearly dependent.
    """
    b = [[int(x) for x in row] for row in basis]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def size_reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k: int) -> None:
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        m = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, k_max + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k + 1]
        d[k] = B

    k, k_max = 0, -1
    while k < n:
        if k > k_max:
            # incremental Gram-Schmidt of the new row
            k_max = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("lll_reduce needs linearly independent rows")
                else:
                    d[k + 1] = u
        if k == 0:
            k = 1
            continue
        size_reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b


# ---------------------------------------------------------------------------
# float -> exact reconstruction


def reconstruct_rational(
    x: float, max_den: int = 10**6, tol: float = RECONSTRUCT_TOL
) -> Fraction | None:
    """Best bounded-denominator rational approximation of x, or None.

    Uses the continued-fraction convergents (via Fraction.limit_denominator)
    and accepts only when |x - p/q| <= tol (1e-6 by default).
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    if not math.isfinite(x):
        raise NonFiniteError(f"cannot reconstruct from {x!r}")
    cand = Fraction(x).limit_denominator(max_den)
    return cand if abs(x - float(cand)) <= tol else None


def _height(f: Fraction) -> int:
    return max(abs(f.numerator), f.denominator)


# scales W of the integer relation p x + q + r sqrt5 ~ 0, tried in turn
_RELATION_SCALES = (10**12, 10**9, 10**7)


def reconstruct_quadext(x: float, max_den: int = 10**6) -> QuadExt | None:
    """Small-height a + b*sqrt5 with |x - (a + b*sqrt5)| <= 1e-6, or None.

    0 when |x| <= 1e-6.  Otherwise the candidates are the rational fit of
    x (`reconstruct_rational`), which keeps a small-denominator answer for
    a noisy rational x, and an integer relation p x + q + r sqrt5 ~ 0 at
    each scale W of _RELATION_SCALES in turn, up to the first admissible
    one: the only source of a nonzero b.  The relation is the first row
    with p != 0 of the LLL-reduced basis (`lll_reduce`) of the rows
    (1, 0, 0, round(W x)), (0, 1, 0, W) and (0, 0, 1, floor(W sqrt5)), with
    x read exactly, so a short row (p, q, r, ~W (p x + q + r sqrt5)) is a
    small relation; it gives -q/p - (r/p) sqrt5.  A candidate is
    admissible when both parts have denominators at most max_den and it
    lies within 1e-6 of x; the admissible one of least height wins.
    """
    if not math.isfinite(x):
        raise NonFiniteError(f"cannot reconstruct from {x!r}")
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    if abs(x) <= RECONSTRUCT_TOL:
        # 0 is admissible and has the smallest height
        return QUAD_ZERO

    candidates: list[QuadExt] = []

    fit = reconstruct_rational(x, max_den)
    if fit is not None:
        candidates.append(QuadExt(fit))

    def admissible(q: QuadExt) -> bool:
        return (
            q.a.denominator <= max_den
            and q.b.denominator <= max_den
            and abs(x - float(q)) <= RECONSTRUCT_TOL
        )

    exact = Fraction(x)
    for w in _RELATION_SCALES:
        rows = [[1, 0, 0, round(w * exact)], [0, 1, 0, w], [0, 0, 1, math.isqrt(5 * w * w)]]
        # the lattice holds (1, 0, 0, .), so some basis row has p != 0
        p, q, r, _ = next(row for row in lll_reduce(rows) if row[0])
        cand = QuadExt(Fraction(-q, p), Fraction(-r, p))
        candidates.append(cand)
        if admissible(cand):
            break

    verified = [q for q in candidates if admissible(q)]
    if not verified:
        return None
    return min(
        verified,
        key=lambda q: (
            max(_height(q.a), _height(q.b)),
            _height(q.b),
            _height(q.a),
        ),
    )
