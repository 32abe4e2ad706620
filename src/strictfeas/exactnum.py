"""Exact arithmetic over Q and Q(sqrt5), plus exact symmetric linear algebra.

Scalars are either :class:`fractions.Fraction` (rationals) or :class:`QuadExt`
(numbers of the form a + b*sqrt(5) with rational a, b).  Exact matrices are
numpy object arrays whose entries are QuadExt; see :func:`qarray`.  Everything
here is immutable and side-effect free, so values can be shared freely.

Exact products (:func:`qmatmul`, and through it :func:`frob_inner`) do not
multiply QuadExt entry by entry: each operand is written once as a
:class:`QSplit` (A + B*sqrt5)/d, with A and B object arrays of Python ints
and d a common denominator, and numpy's object matmul multiplies the
integer parts.  Only the result becomes
QuadExt again.  :func:`to_float` reads the same split: A/d and B/d are
correctly rounded integer divisions.  Reading the Fractions is the costly
part, so a split can be kept and passed where an exact array goes:
`qmatmul`, `to_float`, the eliminations and `psd_check_exact` take one as it
is (an elimination works on a copy), and an exact pencil keeps the split of
its whole stack (`model.MatrixPencil.split`), made once.

Eliminations work over the same split without fractions.  On A + B*sqrt5
(d scales every row alike, so it drops out) each step is the Bareiss update
(p X - c r)/prev, done as numpy object-array outer products over Z[sqrt5]:
every entry it produces is a minor of the input (Sylvester's identity), so
the division by the previous pivot is exact, and it is done by multiplying
with the conjugate and dividing by the integer norm.  A division that
leaves a remainder raises AssertionError.  :func:`rref_exact` is the
fraction-free Gauss-Jordan form and divides once at the end;
:func:`psd_check_exact` is a fraction-free LDL^T that signs its pivots
with :func:`qsign` and divides only a witness back.

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

import mpmath
import numpy as np


#: tolerance used by the float -> exact reconstruction helpers
RECONSTRUCT_TOL = 1e-6

SQRT5 = math.sqrt(5.0)


class NonFiniteError(ValueError):
    """Raised when a reconstruction input is NaN or infinite."""


class NonSymmetricError(ValueError):
    """Raised when a matrix claimed symmetric is not."""


def _fraction(x) -> Fraction:
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
    @property
    def is_rational(self) -> bool:
        return self.b == 0

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

    def decimal(self, dps: int = 50) -> mpmath.mpf:
        """Evaluate to a decimal with `dps` digits, for display; signs are
        decided exactly by `qsign`, not from this value."""
        with mpmath.workdps(dps):
            value = (
                mpmath.mpf(self.a.numerator) / self.a.denominator
                + mpmath.mpf(self.b.numerator) / self.b.denominator * mpmath.sqrt(5)
            )
            return +value

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


def quad(a=0, b=0) -> QuadExt:
    """Build a + b*sqrt5 from ints, Fractions or fraction strings."""
    return QuadExt(a, b)


def qsign(x) -> int:
    """Exact sign of a + b*sqrt5 in {-1, 0, +1}, no floating point.

    Case analysis on the signs of a and b; the mixed-sign cases compare
    a^2 against 5 b^2, which decides because sqrt5 is irrational.
    """
    x = as_quad(x)
    if x is NotImplemented:
        raise TypeError("qsign expects an exact scalar")
    sa = (x.a > 0) - (x.a < 0)
    sb = (x.b > 0) - (x.b < 0)
    if sb == 0:
        return sa
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # opposite signs: |a| vs sqrt5 |b|
    cmp = x.a * x.a - 5 * x.b * x.b
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


def qarray(rows) -> np.ndarray:
    """Object ndarray of QuadExt from nested ints/Fractions/QuadExt/strings."""

    def conv(x):
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, str):
            return parse_scalar(x)
        return QuadExt(x)

    data = np.asarray(rows, dtype=object)
    out = np.empty(data.shape, dtype=object)
    for idx in np.ndindex(data.shape):
        out[idx] = conv(data[idx])
    return out


def qzeros(n: int, m: int | None = None) -> np.ndarray:
    out = np.empty((n, n if m is None else m), dtype=object)
    out[...] = QUAD_ZERO
    return out


def qeye(n: int) -> np.ndarray:
    out = qzeros(n)
    for i in range(n):
        out[i, i] = QUAD_ONE
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
        B = B if any(B.flat) else None
    g = math.gcd(d, *A.flat, *(() if B is None else B.flat))
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
    # results repeat few values (mostly 0): build each QuadExt once
    value = {ab: QuadExt(Fraction(ab[0], d), Fraction(ab[1], d)) for ab in set(pairs)}
    out = np.empty(A.size, dtype=object)
    out[:] = [value[ab] for ab in pairs]
    return out.reshape(A.shape)


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


def _bareiss_step(A, B, rows, cols, r: int, c: int, prev: tuple) -> None:
    """One fraction-free elimination step on X = A + B*sqrt5, in place.

    For i in rows and j in cols, X[i, j] <- (p X[i, j] - X[i, c] X[r, j]) / prev
    with the pivot p = X[r, c] and prev the pivot of the previous step
    (Bareiss, Math. Comp. 1968).  Every entry this produces is a minor of
    the input (Sylvester's identity), so the division is exact in Z[sqrt5].
    A and B are object arrays of Python ints; B is None for a rational X.
    """
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    block = np.ix_(rows, cols)
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


def rref_exact(M: np.ndarray, column_order: Sequence[int] | None = None):
    """Exact reduced row-echelon form over Q(sqrt5).

    Returns (R, pivots) where pivots maps pivot column -> row.  The optional
    column order controls which columns are preferred as pivots.  M is an
    exact matrix or its split; a split operand is left as it is.

    Fraction-free Gauss-Jordan on the integer split M = (A + B*sqrt5)/d:
    each pivot updates every other row by `_bareiss_step`, so all entries
    stay in Z[sqrt5] and every pivot row ends with the last pivot p at its
    pivot column.  One division at the end gives the unique RREF: pivot rows
    by p, the remaining rows (the Schur complement of d*M) by d*p.
    """
    S = split(M)
    A, B, d = S.A, S.B, S.d
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
        pivot_row = next((i for i in range(r, rows) if any(_entry(A, B, i, c))), None)
        if pivot_row is None:
            continue
        for X in (A, B):
            if X is not None:
                X[[r, pivot_row]] = X[[pivot_row, r]]
        others = [i for i in range(rows) if i != r]
        _bareiss_step(A, B, others, range(cols), r, c, prev)
        prev = _entry(A, B, r, c)
        pivots[c] = r
        r += 1
    R = np.empty((rows, cols), dtype=object)
    R[:r] = _join(A[:r], None if B is None else B[:r], 1, prev)
    R[r:] = _join(A[r:], None if B is None else B[r:], d, prev)
    return R, pivots


def nullspace_exact(M: np.ndarray) -> list[np.ndarray]:
    """Exact basis of {v : Mv = 0} for a rectangular exact matrix."""
    rows, cols = M.shape
    R, pivots = rref_exact(M)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.empty(cols, dtype=object)
        v[...] = QUAD_ZERO
        v[f] = QUAD_ONE
        for c, r in pivots.items():
            v[c] = -R[r, f]
        basis.append(v)
    return basis


def kernel_basis_exact(M: np.ndarray) -> list[np.ndarray]:
    """Exact kernel basis of a square matrix; empty iff M is nonsingular."""
    n, m = M.shape
    if n != m:
        raise ValueError("kernel_basis_exact expects a square matrix")
    return nullspace_exact(M)


def row_space_basis_exact(M: np.ndarray) -> list[np.ndarray]:
    """Exact basis of the row space (= range, for symmetric M)."""
    R, pivots = rref_exact(M)
    return [np.array(R[r], dtype=object) for r in sorted(pivots.values())]


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


def psd_check_exact(M: np.ndarray) -> PsdCheck:
    """Exact PSD decision by pivoted symmetric Gaussian elimination.

    At step k: a positive pivot eliminates its row/column; a zero pivot must
    have an all-zero remaining row (otherwise an indefinite 2x2 block gives a
    witness); a negative pivot yields its own witness direction.  Returns PSD
    iff M >= 0 exactly.

    The elimination is fraction-free (an LDL^T by `_bareiss_step`) on the
    integer split d*M = A + B*sqrt5, next to the rows of T that track it:
    the current form is T M T^T.  Each stored row is its fractional value
    times the last positive pivot, which is positive, so every sign is the
    sign of a stored entry; witnesses are divided back by that pivot.  M is
    an exact matrix or its split, and symmetry is decided on the integers.
    Each positive pivot counts towards `PsdCheck.rank`.
    """
    n, m = M.shape
    if n != m:
        raise NonSymmetricError("matrix is not square")
    S = split(M)
    A, B, d = S.A, S.B, S.d
    if not all(X is None or np.array_equal(X, X.T) for X in (A, B)):
        raise NonSymmetricError("matrix is not symmetric")
    # [A | T] with T = I; a rational M keeps a rational T, so B stays None
    eye = np.eye(n, dtype=int).astype(object)
    A = np.hstack([A, eye])
    B = None if B is None else np.hstack([B, eye * 0])
    prev = (1, 0)
    rank = 0

    def row(i: int) -> np.ndarray:
        return _join(A[i, n:], None if B is None else B[i, n:], 1, prev)

    def value(i: int, j: int) -> QuadExt:
        return QuadExt(*_entry(A, B, i, j))

    for k in range(n):
        s = qsign(value(k, k))
        if s < 0:
            return PsdCheck(False, k, tuple(row(k)), rank)
        if s == 0:
            bad = next((j for j in range(k + 1, n) if any(_entry(A, B, k, j))), None)
            if bad is None:
                continue
            sd = qsign(value(bad, bad))
            if sd < 0:
                return PsdCheck(False, k, tuple(row(bad)), rank)
            # u = e_k + t e_bad has value 2 t A[k,bad] + t^2 A[bad,bad] < 0,
            # with A the form of M itself: stored entries are d * prev * A
            t = -value(k, bad) / (QuadExt(*prev) * d if sd == 0 else value(bad, bad))
            Tk, Tbad = row(k), row(bad)
            return PsdCheck(False, k, tuple(Tk[j] + t * Tbad[j] for j in range(n)), rank)
        # one congruence step: the trailing block becomes the Schur complement
        _bareiss_step(A, B, range(k + 1, n), range(k + 1, 2 * n), k, k, prev)
        prev = _entry(A, B, k, k)
        rank += 1
    return PsdCheck(True, rank=rank)


def primitive_integer_vector(v: Sequence) -> np.ndarray:
    """Rescale an exact vector to primitive form.

    The result is an integer multiple of v with coefficient content 1 (gcd of
    all integer coefficients, over both the rational and sqrt5 parts) and a
    positive leading entry.  On the integer split d*v = A + B*sqrt5 that is
    (A + B*sqrt5)/g, with g the gcd of A and B signed like the lead entry.
    """
    S = split(list(v))
    B = np.zeros_like(S.A) if S.B is None else S.B
    g = math.gcd(*S.A.tolist(), *B.tolist()) or 1
    lead = next((QuadExt(a, b) for a, b in zip(S.A, B) if a or b), None)
    if lead is not None and qsign(lead) < 0:
        g = -g
    return _join(S.A, S.B, g)


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


def _convergents(x: float, max_den: int, max_terms: int = 30) -> list[Fraction]:
    """Continued-fraction convergents of x with denominator <= max_den."""
    out: list[Fraction] = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    value = x
    for _ in range(max_terms):
        a = math.floor(value)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_den:
            break
        out.append(Fraction(p1, q1))
        frac = value - a
        if frac < 1e-15:
            break
        value = 1.0 / frac
    return out


def _height(f: Fraction) -> int:
    return max(abs(f.numerator), f.denominator)


# PSLQ relations between (x, 1, sqrt5), tried at these tolerances in turn
_PSLQ_TOLS = ("1e-12", "1e-9", "1e-7")


class QuadCandidates:
    """The Q(sqrt5) reconstruction of one float, for any max_den.

    `reconstruct_quadext(x, max_den)` is `QuadCandidates(x).best(max_den)`.
    The PSLQ relations, the costly candidates, depend on max_den only
    through their maxcoeff, max(max_den, 10**6); each is computed once per
    object, so snapping one value at several denominator bounds runs PSLQ at
    most once per tolerance.
    """

    __slots__ = ("x", "_relations")

    def __init__(self, x: float):
        if not math.isfinite(x):
            raise NonFiniteError(f"cannot reconstruct from {x!r}")
        self.x = x
        self._relations: dict = {}

    def _relation(self, maxcoeff: int, tol: str):
        key = (maxcoeff, tol)
        if key not in self._relations:
            with mpmath.workdps(40):
                self._relations[key] = mpmath.pslq(
                    [mpmath.mpf(self.x), mpmath.mpf(1), mpmath.sqrt(5)],
                    tol=mpmath.mpf(tol),
                    maxcoeff=maxcoeff,
                    maxsteps=10000,
                )
        return self._relations[key]

    def best(self, max_den: int) -> QuadExt | None:
        """Small-height a + b*sqrt5 within 1e-6 of x, or None (see
        `reconstruct_quadext`)."""
        if max_den < 1:
            raise ValueError("max_den must be >= 1")
        x = self.x
        if abs(x) <= RECONSTRUCT_TOL:
            # 0 is admissible and has the smallest height; PSLQ would reject
            # an exact zero, and at its working precision treats a tiny x as
            # one
            return QUAD_ZERO

        candidates: list[QuadExt] = []

        r = reconstruct_rational(x, max_den)
        if r is not None:
            candidates.append(QuadExt(r))

        for a in [Fraction(0)] + _convergents(x, max_den):
            b = Fraction((x - float(a)) / SQRT5).limit_denominator(max_den)
            candidates.append(QuadExt(a, b))

        def admissible(q: QuadExt) -> bool:
            return (
                q.a.denominator <= max_den
                and q.b.denominator <= max_den
                and abs(x - float(q)) <= RECONSTRUCT_TOL
            )

        for tol in _PSLQ_TOLS:
            rel = self._relation(max(max_den, 10**6), tol)
            if rel and rel[0] != 0:
                cand = QuadExt(Fraction(-rel[1], rel[0]), Fraction(-rel[2], rel[0]))
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


def reconstruct_quadext(x: float, max_den: int = 10**6) -> QuadExt | None:
    """Small-height a + b*sqrt5 with |x - (a + b*sqrt5)| <= 1e-6, or None.

    Candidates come from three generators: a plain rational reconstruction,
    pairs (a, b) with a among the convergents of x and b reconstructed from
    (x - a)/sqrt5, and a PSLQ integer relation between (x, 1, sqrt5).  The
    verified candidate of smallest height wins.
    """
    return QuadCandidates(x).best(max_den)
