"""Exact arithmetic: field axioms, sign oracle, PSD decisions, reconstruction."""

import math
import random
import re
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strictfeas import exactnum
from strictfeas.exactnum import (
    NonFiniteError,
    NonSymmetricError,
    QSplit,
    QuadExt,
    as_quad,
    format_scalar,
    frob_inner,
    gauss_jordan_split,
    kernel_basis_exact,
    lll_reduce,
    nullspace_exact,
    nullspace_split,
    parse_scalar,
    primitive_rows,
    psd_check_exact,
    qarray,
    qconcat,
    qcongruence,
    qmatmul,
    qsign,
    quad,
    qzeros,
    reconstruct_quadext,
    reconstruct_rational,
    row_space_basis_exact,
    row_space_split,
    rref_exact,
    split,
    to_float,
)
from strictfeas.model import MatrixPencil

from helpers import (
    decimal_sign,
    mat_vec,
    qeye,
    quadratic_form,
    reference_frob_inner,
    reference_mat_vec,
    reference_matmul,
    reference_primitive_integer_vector,
    reference_psd_check_exact,
    reference_bases,
    reference_qmatmul,
    reference_rref_exact,
)

MU2_STAR = quad(-11, 5)  # 5*sqrt5 - 11
ALPHA = quad(Fraction(9, 38), Fraction(-1, 38))  # (9 - sqrt5)/38


fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=30),
)
quads_st = st.builds(QuadExt, fractions_st, fractions_st)


class TestQuadExt:
    @given(quads_st, quads_st, quads_st)
    @settings(max_examples=200, deadline=None)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y * z) == (x * y) * z

    @given(quads_st)
    @settings(max_examples=200, deadline=None)
    def test_field_inverse(self, x):
        if bool(x):
            assert x * x.inverse() == quad(1)
            assert x / x == quad(1)
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()

    def test_rational_embedding(self):
        assert quad(Fraction(1, 3)) + Fraction(2, 3) == quad(1)
        assert quad(2) * 3 == quad(6)

    def test_powers(self):
        s = quad(0, 1)
        assert s**2 == quad(5)
        assert s**-2 == quad(Fraction(1, 5))
        assert (quad(1, 1) ** 3) == quad(1, 1) * quad(1, 1) * quad(1, 1)

    def test_ordering_via_sign(self):
        assert quad(2) < quad(0, 1) < quad(Fraction(9, 4))
        assert MU2_STAR > 0
        assert abs(quad(-3)) == quad(3)


class TestQsign:
    def test_zero(self):
        assert qsign(quad(0, 0)) == 0

    def test_mu2_star_positive(self):
        # 5*sqrt5 - 11 ~ 0.1803 > 0
        assert qsign(MU2_STAR) == +1

    def test_alpha_positive_matches_decimal_oracle(self):
        # alpha ~ 0.1780, checked against a 60-digit evaluation
        assert decimal_sign(ALPHA) == +1
        assert qsign(ALPHA) == +1

    def test_matches_decimal_oracle_on_1000_samples(self):
        rng = random.Random(20240901)
        for _ in range(1000):
            x = QuadExt(
                Fraction(rng.randint(-60, 60), rng.randint(1, 40)),
                Fraction(rng.randint(-60, 60), rng.randint(1, 40)),
            )
            assert qsign(x) == decimal_sign(x)


class TestPsdCheck:
    def test_identity(self):
        assert psd_check_exact(qeye(3)).is_psd

    def test_diag_zero_minus_one(self):
        res = psd_check_exact(qarray([[0, 0], [0, -1]]))
        assert not res.is_psd
        assert res.bad_index == 1  # second diagonal entry
        assert qsign(quadratic_form(qarray([[0, 0], [0, -1]]), res.witness)) < 0

    def test_zero_pivot_nonzero_row(self):
        M = qarray([[0, 1], [1, 0]])
        res = psd_check_exact(M)
        assert not res.is_psd
        assert qsign(quadratic_form(M, res.witness)) < 0

    def test_non_symmetric_rejected(self):
        with pytest.raises(NonSymmetricError):
            psd_check_exact(qarray([[1, 2], [3, 1]]))

    def test_gram_matrices_psd_and_witnesses_exact(self):
        rng = random.Random(7)
        for trial in range(120):
            n = rng.randint(1, 5)
            G = qarray(
                [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            M = qzeros(n)
            for i in range(n):
                for j in range(n):
                    M[i, j] = sum((G[k, i] * G[k, j] for k in range(n)), quad(0))
            assert psd_check_exact(M).is_psd

    def test_indefinite_detected_with_witness(self):
        rng = random.Random(99)
        found = 0
        for trial in range(200):
            n = rng.randint(2, 5)
            M = qzeros(n)
            for i in range(n):
                for j in range(i, n):
                    M[i, j] = M[j, i] = quad(
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    )
            v = [rng.randint(-3, 3) for _ in range(n)]
            if qsign(quadratic_form(M, [quad(x) for x in v])) < 0:
                found += 1
                res = psd_check_exact(M)
                assert not res.is_psd
                assert qsign(quadratic_form(M, res.witness)) < 0
        assert found > 50  # the sample really exercised the negative branch


@st.composite
def integer_symmetric(draw):
    """(kind, M): a symmetric integer matrix, an object array of Python ints,
    that is positive definite, singular PSD, indefinite (a negative diagonal
    entry) or has a zero leading pivot; n = 1 is drawn too."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["definite", "singular", "indefinite", "zero-lead"]))
    k = n - 1 if kind == "singular" else n
    B = np.array(draw(st.lists(st.integers(-4, 4), min_size=n * k, max_size=n * k)))
    B = B.reshape(n, k).astype(np.int64)
    M = B @ B.T
    if kind != "singular":
        M = M + np.eye(n, dtype=np.int64)
    if kind == "indefinite":
        i = draw(st.integers(0, n - 1))
        M[i, i] = -draw(st.integers(1, 4))
    if kind == "zero-lead":
        M[0, 0] = 0
    return kind, M.astype(object)


class TestDefiniteness:
    """The exact PSD decision decides definiteness: PSD of rank n."""

    @given(integer_symmetric())
    @example(("definite", np.array([[3]], dtype=object)))
    @example(("zero-lead", np.array([[0]], dtype=object)))
    @example(("indefinite", np.array([[-2]], dtype=object)))
    @settings(max_examples=200, deadline=None)
    def test_positive_definite_exactly_when_drawn_definite(self, drawn):
        kind, M = drawn
        before = M.copy()
        check = psd_check_exact(QSplit(M, None, 1))
        assert (check.is_psd and check.rank == len(M)) == (kind == "definite")
        assert np.array_equal(M, before)


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert kernel_basis_exact(qeye(4)) == []

    def test_zero_matrix_full_kernel(self):
        basis = kernel_basis_exact(qzeros(2))
        assert len(basis) == 2

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 5)
            M = qarray(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            for v in kernel_basis_exact(M):
                assert all(not bool(x) for x in mat_vec(M, v))

    def test_rank_one_kernel_dim(self):
        v = qarray([[1, 2, 3]])
        M = qzeros(3)
        for i in range(3):
            for j in range(3):
                M[i, j] = v[0, i] * v[0, j]
        assert len(kernel_basis_exact(M)) == 2


class TestReconstruction:
    def test_third(self):
        assert reconstruct_rational(0.33333333, 100) == Fraction(1, 3)

    def test_half(self):
        assert reconstruct_rational(0.5, 10) == Fraction(1, 2)

    def test_sixth(self):
        assert reconstruct_rational(0.16666667, 100) == Fraction(1, 6)

    def test_no_match(self):
        assert reconstruct_rational(0.123456789, 3) is None

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            reconstruct_rational(float("nan"), 10)
        with pytest.raises(NonFiniteError):
            reconstruct_quadext(float("inf"), 10)

    def test_round_trip_random_rationals(self):
        rng = random.Random(42)
        for _ in range(300):
            q = rng.randint(1, 10**4)
            p = rng.randint(-10**4, 10**4)
            f = Fraction(p, q)
            assert reconstruct_rational(float(f), q) == f

    def test_rational_tolerance_argument(self):
        assert reconstruct_rational(0.3334, 100) is None
        assert reconstruct_rational(0.3334, 100, tol=1e-3) == Fraction(1, 3)

    def test_quadext_exact_zero(self):
        # zero reconstructs like any float within tolerance of it
        assert reconstruct_quadext(0.0, 100) == quad(0)
        assert reconstruct_quadext(-0.0, 100) == quad(0)
        assert reconstruct_quadext(1e-20, 100) == quad(0)

    def test_quadext_tiny_values_are_zero(self):
        # at the largest height bound too, and down to the smallest subnormal
        for x in (1e-100, -1e-100, 5e-324):
            assert reconstruct_quadext(x, 10**6) == quad(0)

    def test_quadext_mu2_star(self):
        assert reconstruct_quadext(0.1803398875, 100) == MU2_STAR

    def test_quadext_plain_rational(self):
        assert reconstruct_quadext(0.25, 10) == quad(Fraction(1, 4))

    def test_quadext_alpha(self):
        # 0.1779982111 is the 10-digit decimal of (9 - sqrt5)/38:
        # float(ALPHA) -> 0.17799821111...
        assert float(ALPHA) == pytest.approx(0.1779982111, abs=5e-11)
        assert reconstruct_quadext(0.1779982111, 100) == ALPHA

    def test_quadext_round_trip(self):
        rng = random.Random(5)
        for _ in range(60):
            x = QuadExt(
                Fraction(rng.randint(-20, 20), rng.randint(1, 30)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 30)),
            )
            assert reconstruct_quadext(float(x), 1000) == x

    def test_quadext_recovery_under_noise(self):
        # values off by up to `noise`: a floor on how many come back exactly,
        # per noise level (the relation by lll_reduce recovers these counts;
        # the PSLQ relation it replaced recovered 300, 290, 209 and 99)
        recovered = []
        for noise in (0.0, 1e-9, 1e-8, 1e-7):
            rng = random.Random(7)
            hits = 0
            for _ in range(300):
                x = QuadExt(
                    Fraction(rng.randint(-20, 20), rng.randint(1, 30)),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 30)),
                )
                hits += reconstruct_quadext(float(x) + rng.uniform(-noise, noise), 100) == x
            recovered.append(hits)
        assert all(got >= floor for got, floor in zip(recovered, (300, 296, 265, 221))), recovered


def _gram_schmidt(rows):
    """Squared norms B_i of the Gram-Schmidt vectors of `rows` and the
    coefficients mu[i][j], j < i, in Fractions."""
    star, mu = [], [[Fraction(0)] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j, w in enumerate(star):
            mu[i][j] = sum(a * b for a, b in zip(row, w)) / sum(b * b for b in w)
            v = [a - mu[i][j] * b for a, b in zip(v, w)]
        star.append(v)
    return [sum(b * b for b in w) for w in star], mu


def _gram_det(rows) -> Fraction:
    norms, _ = _gram_schmidt(rows)
    return math.prod(norms, start=Fraction(1))


def _coordinates(rows, basis):
    """Each of `rows` in the coordinates of the independent `basis`, in
    Fractions: the solution c of c G = row basis^T, with G the Gram matrix."""
    n = len(basis)
    G = [[Fraction(sum(a * b for a, b in zip(u, v))) for v in basis] for u in basis]
    out = []
    for row in rows:
        rhs = [Fraction(sum(a * b for a, b in zip(row, u))) for u in basis]
        M = [G[i][:] + [rhs[i]] for i in range(n)]
        for c in range(n):
            p = next(r for r in range(c, n) if M[r][c])
            M[c], M[p] = M[p], M[c]
            M[c] = [x / M[c][c] for x in M[c]]
            for r in range(n):
                if r != c and M[r][c]:
                    M[r] = [x - M[r][c] * y for x, y in zip(M[r], M[c])]
        out.append([M[i][n] for i in range(n)])
    return out


class TestLll:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_bases_are_reduced_and_span_the_same_lattice(self, n):
        rng = random.Random(1000 + n)
        for trial in range(3):
            dim = n + trial
            basis = [[rng.randint(-60, 60) for _ in range(dim)] for _ in range(n)]
            if _gram_det(basis) == 0:
                continue
            reduced = lll_reduce(basis)
            assert all(type(x) is int for row in reduced for x in row)
            # size reduced, and the Lovasz condition at delta = 3/4
            norms, mu = _gram_schmidt(reduced)
            assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
            assert all(
                norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
                for k in range(1, n)
            )
            # the same lattice: integer coordinates in the input basis, and
            # the same covolume
            coords = _coordinates(reduced, basis)
            assert all(c.denominator == 1 for row in coords for c in row)
            assert _gram_det(reduced) == _gram_det(basis)

    def test_finds_a_short_vector_of_a_skewed_basis(self):
        # a short lattice vector (a, b, c, 10^6 (5a + 3b - 2c)) is a small
        # solution of 5a + 3b - 2c = 0, such as (1, -1, 1)
        w = 10**6
        rows = [[1, 0, 0, 5 * w], [0, 1, 0, 3 * w], [0, 0, 1, -2 * w]]
        first = lll_reduce(rows)[0]
        assert first[3] == 0 and max(map(abs, first[:3])) <= 2

    def test_dependent_rows_are_rejected(self):
        with pytest.raises(ValueError):
            lll_reduce([[1, 2, 3], [2, 4, 6]])

    def test_empty_and_single_row(self):
        assert lll_reduce([]) == []
        assert lll_reduce([[0, -3, 4]]) == [[0, -3, 4]]


class TestScalarStrings:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2", quad(Fraction(1, 2))),
            ("-11+5*sqrt5", MU2_STAR),
            ("9/38-1/38*sqrt5", ALPHA),
            ("sqrt5", quad(0, 1)),
            ("-sqrt5", quad(0, -1)),
            ("0", quad(0)),
            ("7", quad(7)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_scalar(text) == value

    @given(quads_st)
    @settings(max_examples=200, deadline=None)
    def test_format_parse_round_trip(self, x):
        assert parse_scalar(format_scalar(x)) == x

    @pytest.mark.parametrize(
        "bad", ["1 /2", "2sqrt5", "sqrt5*2", "1/2+", "", "a", "1/0", "1/0*sqrt5", "1/2-3/00*sqrt5"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(f'malformed exact scalar {bad!r}')}$"):
            parse_scalar(bad)


class TestQarray:
    @pytest.mark.parametrize(
        "entry,value",
        [
            (3, QuadExt(3)),
            (0, QuadExt(0)),
            (np.int64(-4), QuadExt(-4)),
            (Fraction(1, 2), QuadExt(Fraction(1, 2))),
            ("1/2", QuadExt(Fraction(1, 2))),
            ("2+sqrt5", QuadExt(2, 1)),
            (QuadExt(-1, 3), QuadExt(-1, 3)),
            (True, QuadExt(1)),
            (False, QuadExt(0)),
        ],
    )
    def test_entries_are_the_per_entry_quadext(self, entry, value):
        out = qarray([[entry, entry], [0, entry]])
        for x in (out[0, 0], out[0, 1], out[1, 1]):
            assert x == value
            assert type(x) is QuadExt
            assert type(x.a) is Fraction and type(x.b) is Fraction
        assert out[1, 0] == QuadExt(0)

    def test_mixed_input_types(self):
        rows = [[1, np.int64(1), Fraction(1), "1", QuadExt(1), True, "1+sqrt5"]]
        out = qarray(rows)
        assert list(out[0]) == [QuadExt(1)] * 6 + [QuadExt(1, 1)]

    @pytest.mark.parametrize(
        "rows",
        [[[Fraction(1, 2), 0.5]], [[1, 1.0]], [[0.5, Fraction(1, 2)]], [[1.0, 1]], [[0.0]]],
    )
    def test_float_next_to_an_equal_exact_entry_rejected(self, rows):
        with pytest.raises(TypeError, match="float"):
            qarray(rows)

    def test_equal_entries_are_one_object(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(-2, 3, size=(6, 7)).tolist()
        out = qarray(rows)
        distinct = {x for row in rows for x in row}
        assert len({id(x) for x in out.flat}) == len(distinct)
        strings = qarray([["1/2", "sqrt5", "1/2"], ["sqrt5", "0", "1/2"]])
        assert len({id(x) for x in strings.flat}) == 3
        assert strings[0, 0] is strings[0, 2] is strings[1, 2]

    @pytest.mark.parametrize("shape", [(), (0,), (4,), (2, 3), (2, 3, 4), (3, 0, 2)])
    def test_shape_is_kept(self, shape):
        # an integer array as it is: nested lists lose the dimensions after a 0
        rows = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape) % 3
        out = qarray(rows)
        assert out.shape == shape and out.dtype == object
        assert all(x == QuadExt(int(v)) for x, v in zip(out.flat, rows.flat))

    def test_to_quad(self):
        q = QuadExt(2, 1)
        assert exactnum.to_quad(q) is q
        assert exactnum.to_quad("2+sqrt5") == q
        assert exactnum.to_quad(Fraction(1, 3)) == QuadExt(Fraction(1, 3))
        assert exactnum.to_quad(np.int64(7)) == QuadExt(7)
        with pytest.raises(TypeError, match="float"):
            exactnum.to_quad(0.5)
        with pytest.raises(TypeError):
            exactnum.to_quad(None)
        with pytest.raises(ValueError, match="malformed"):
            exactnum.to_quad("1 / 2")


class TestVectors:
    def test_primitive_scaling(self):
        v = qarray([[Fraction(-2, 3), Fraction(4, 3), 0]])[0]
        out = primitive_rows(split([v]), positive_lead=True).join()[0]
        assert list(out) == [quad(1), quad(-2), quad(0)]

    def test_primitive_sign_follows_the_lead_entry_over_sqrt5(self):
        # 4 - 2 sqrt5 < 0 although its rational part is positive
        v = [quad(0), quad(Fraction(4, 3), Fraction(-2, 3)), quad(1)]
        out = primitive_rows(split([v]), positive_lead=True).join()[0]
        assert list(out) == [quad(0), quad(-4, 2), quad(-3)]

    def test_frobenius_inner(self):
        A = qeye(2)
        B = qarray([[2, 1], [1, 3]])
        assert frob_inner(A, B) == quad(5)


# entries for the product kernels: small and huge numerators (beyond 2**63,
# where a fixed-width integer would wrap), mixed denominators, nonzero sqrt5
# parts, and plain ints and Fractions among the QuadExt
huge_fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=1, max_value=2**70),
)
entries_st = st.one_of(
    quads_st,
    st.builds(QuadExt, huge_fractions_st, huge_fractions_st),
    st.builds(QuadExt, fractions_st),
    fractions_st,
    st.integers(min_value=-3, max_value=3),
)
dims_st = st.integers(min_value=0, max_value=3)


def exact_arrays(*shape):
    size = int(np.prod(shape))

    def build(entries):
        out = np.empty(size, dtype=object)
        out[:] = entries
        return out.reshape(shape)

    return st.lists(entries_st, min_size=size, max_size=size).map(build)


def assert_same(got, want):
    """Equal exact values, returned as QuadExt (a scalar or an object array)."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == object
        assert got.shape == want.shape
        assert all(isinstance(x, QuadExt) for x in got.flat)
        assert all(g == w for g, w in zip(got.flat, want.flat))
    else:
        assert isinstance(got, QuadExt) and got == want


def rows_st(entries):
    """One to three rows of the same length, 0 to 5, of exact entries."""
    return st.integers(0, 5).flatmap(
        lambda k: st.lists(st.lists(entries, min_size=k, max_size=k), min_size=1, max_size=3)
    )


class TestPrimitiveRows:
    """`primitive_rows` with a positive lead, row by row against the QuadExt
    loop of `reference_primitive_integer_vector`."""

    @staticmethod
    def assert_rows_match(rows):
        got = primitive_rows(split(np.array(rows, dtype=object)), positive_lead=True)
        assert got.d == 1
        for g, v in zip(got.join(), rows, strict=True):
            assert_same(g, reference_primitive_integer_vector(v))

    @given(rows_st(fractions_st))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_over_q(self, rows):
        self.assert_rows_match(rows)

    @given(rows_st(entries_st))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_over_sqrt5(self, rows):
        self.assert_rows_match(rows)


class TestExactProducts:
    @given(st.data(), dims_st, dims_st, dims_st)
    @settings(max_examples=50, deadline=None)
    def test_qmatmul_matches_triple_loop(self, data, n, k, m):
        X = data.draw(exact_arrays(n, k))
        Y = data.draw(exact_arrays(k, m))
        assert_same(qmatmul(X, Y), reference_matmul(X, Y))

    @given(st.data(), st.integers(min_value=1, max_value=3), dims_st, dims_st)
    @settings(max_examples=50, deadline=None)
    def test_stacked_congruence(self, data, k, n, r):
        S = data.draw(exact_arrays(k, n, n))
        W = data.draw(exact_arrays(n, r))
        assert_same(qmatmul(W.T, S, W), reference_qmatmul(W.T, S, W))
        assert_same(qmatmul(S, W), reference_matmul(S, W))

    @given(st.data(), dims_st, dims_st)
    @settings(max_examples=50, deadline=None)
    def test_vectors(self, data, n, k):
        M = data.draw(exact_arrays(n, k))
        v = data.draw(exact_arrays(k))
        w = data.draw(exact_arrays(k))
        assert_same(qmatmul(M, v), reference_matmul(M, v))
        assert_same(mat_vec(M, v), reference_mat_vec(M, v))
        assert_same(mat_vec(M, list(v)), reference_mat_vec(M, v))
        assert_same(qmatmul(v, w), reference_matmul(v, w))
        u = data.draw(exact_arrays(n))
        assert_same(qmatmul(u, M, v), reference_qmatmul(u, M, v))

    @given(st.data(), dims_st, dims_st)
    @settings(max_examples=50, deadline=None)
    def test_frob_inner_matches_double_loop(self, data, n, m):
        A = data.draw(exact_arrays(n, m))
        B = data.draw(exact_arrays(n, m))
        assert_same(frob_inner(A, B), reference_frob_inner(A, B))

    def test_no_overflow_beyond_64_bits(self):
        big = quad(2**63 + 1, Fraction(-(2**64), 3))
        X = qarray([[big, 1], [2, big]])
        got = qmatmul(X, X)
        assert_same(got, reference_matmul(X, X))
        assert got[0, 0] == big * big + 2
        assert frob_inner(X, X) == 2 * big * big + 5

    @pytest.mark.parametrize(
        "xshape, yshape, shape",
        [((2, 0), (0, 3), (2, 3)), ((0, 2), (2, 0), (0, 0)), ((3, 0, 0), (0, 2), (3, 0, 2))],
    )
    def test_zero_size_shapes(self, xshape, yshape, shape):
        got = qmatmul(np.empty(xshape, dtype=object), np.empty(yshape, dtype=object))
        assert got.shape == shape
        assert all(isinstance(x, QuadExt) and not x for x in got.flat)

    def test_empty_inner_products_are_zero(self):
        empty = np.empty(0, dtype=object)
        assert_same(qmatmul(empty, empty), quad(0))
        assert_same(frob_inner(qzeros(0), qzeros(0)), quad(0))
        assert_same(mat_vec(np.empty((2, 0), dtype=object), []), qarray([0, 0]))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            qmatmul(np.eye(2), qeye(2))


INT64_MAX = 2**63 - 1


def congruence_and_dtypes(U, F):
    """qcongruence(U, F), and the dtypes of the integer parts it multiplied."""
    seen = set()
    matmul = QSplit.__matmul__

    def spy(self, other):
        seen.add(self.A.dtype)
        return matmul(self, other)

    with mock.patch.object(QSplit, "__matmul__", spy):
        got = qcongruence(U, F)
    return got, seen


def assert_python_product(got: QSplit, U, F):
    """got is the split U^T F U that the Python-int product gives, on
    Python ints."""
    U, F = split(U), split(F)
    want = U.T @ F @ U
    assert got.shape == want.shape and got.d == want.d
    assert (got.B is None) == (want.B is None)
    for g, w in ((got.A, want.A), (got.B, want.B)):
        if w is not None:
            assert g.dtype == object and all(type(x) is int for x in g.flat)
            assert np.array_equal(g, w)


def random_quads(rng, shape, sqrt5):
    """Exact entries with numerators up to 2^8 and denominators up to 4."""

    def part():
        return Fraction(rng.randint(-(2**8), 2**8), rng.randint(1, 4))

    out = np.empty(shape, dtype=object)
    out.flat[:] = [QuadExt(part(), part() if sqrt5 else 0) for _ in range(out.size)]
    return out


class TestCongruence:
    """The stacked congruence U^T F_k U, in int64 when a bound from the
    operands allows it and on Python ints otherwise, is the Python-int
    product either way."""

    @given(st.data(), st.integers(min_value=1, max_value=3), dims_st, dims_st)
    @settings(max_examples=50, deadline=None)
    def test_matches_the_python_product(self, data, k, n, r):
        F = data.draw(exact_arrays(k, n, n))
        U = data.draw(exact_arrays(n, r))
        assert_python_product(qcongruence(U, F), U, F)
        assert_python_product(qcongruence(split(U), split(F)), U, F)

    @pytest.mark.parametrize("sqrt5", [False, True], ids=["rational", "sqrt5"])
    def test_random_stacks_run_in_int64(self, sqrt5):
        rng = random.Random(28)
        for _ in range(30):
            n, k = rng.randint(1, 9), rng.randint(1, 5)
            F = random_quads(rng, (k, n, n), sqrt5)
            U = random_quads(rng, (n, rng.randint(1, n)), sqrt5 and rng.random() < 0.5)
            got, dtypes = congruence_and_dtypes(U, F)
            assert dtypes == {np.dtype(np.int64)}
            assert_python_product(got, U, F)
            assert_same(got.join(), reference_qmatmul(U.T, F, U))

    @pytest.mark.parametrize("entry", [2**63, -(2**63) - 1, 2**100])
    def test_an_entry_beyond_int64_falls_back(self, entry):
        F = qarray([[[entry, 1], [1, 2]]])
        U = qarray([[1], [1]])
        for X, Y in ((U, F), (qarray([[entry], [1]]), qarray([[[1, 2], [2, 3]]]))):
            got, dtypes = congruence_and_dtypes(X, Y)
            assert dtypes == {np.dtype(object)}
            assert_python_product(got, X, Y)

    def test_a_zero_operand_next_to_huge_entries_falls_back(self):
        huge = 2**64
        F = qarray([[[1, huge], [huge, huge]], [[0, 0], [0, 0]]])
        # U^T F U is 0, and [[1]] and 0: small products of huge entries
        for U in (qarray([[0], [0]]), qarray([[1], [0]])):
            got, dtypes = congruence_and_dtypes(U, F)
            assert dtypes == {np.dtype(object)}
            assert_python_product(got, U, F)
        U, zero = qarray([[huge], [1]]), qarray([[[0, 0], [0, 0]]])
        got, dtypes = congruence_and_dtypes(U, zero)
        assert dtypes == {np.dtype(object)}
        assert_python_product(got, U, zero)

    def test_the_bound_at_the_edge_of_int64(self):
        # rational, n = 1: the bound is u f u = 2^63 - 1, which fits
        got, dtypes = congruence_and_dtypes(qarray([[1]]), qarray([[[INT64_MAX]]]))
        assert dtypes == {np.dtype(np.int64)} and got.A[0, 0, 0] == INT64_MAX
        # n = 2: U^T F = 2 * 2^62 = 2^63 in every entry, one past int64
        F, U = qarray([[[2**62] * 2] * 2]), qarray([[1], [1]])
        got, dtypes = congruence_and_dtypes(U, F)
        assert dtypes == {np.dtype(object)} and got.A[0, 0, 0] == 2**64
        assert_python_product(got, U, F)

    def test_the_sqrt5_bound_at_the_edge_of_int64(self):
        # with sqrt5 parts in U and F the bound is 6 u f and then 36 u f u
        U = qarray([[QuadExt(1, 1)]])
        f = INT64_MAX // 36
        for value, dtype in ((f, np.int64), (f + 1, object)):
            F = qarray([[[QuadExt(value, value)]]])
            got, dtypes = congruence_and_dtypes(U, F)
            assert dtypes == {np.dtype(dtype)}
            # (1 + sqrt5)^2 (1 + sqrt5) = 16 + 8 sqrt5
            assert (got.A[0, 0, 0], got.B[0, 0, 0]) == (16 * value, 8 * value)


# matrices for the eliminations: low rank (a product U V with a short inner
# dimension, so pivots are skipped and rows stay unpivoted) or arbitrary
dims1_st = st.integers(min_value=1, max_value=4)


@st.composite
def elimination_matrices(draw):
    rows, cols = draw(dims1_st), draw(dims1_st)
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=2))
        return reference_matmul(draw(exact_arrays(rows, k)), draw(exact_arrays(k, cols)))
    return draw(exact_arrays(rows, cols))


@st.composite
def gram_matrices(draw):
    n = draw(dims1_st)
    G = draw(exact_arrays(draw(st.integers(min_value=0, max_value=n)), n))
    return reference_matmul(G.T, G)


@st.composite
def field_gram_matrices(draw, entries):
    """G^T G with G's entries drawn from `entries` (one field), of any rank."""
    n = draw(dims1_st)
    size = draw(st.integers(min_value=0, max_value=n)) * n
    G = np.empty(size, dtype=object)
    G[:] = draw(st.lists(entries, min_size=size, max_size=size))
    G = G.reshape(-1, n)
    return reference_matmul(G.T, G)


@st.composite
def symmetric_matrices(draw):
    n = draw(dims1_st)
    M = draw(exact_arrays(n, n))
    for i in range(n):
        for j in range(i):
            M[i, j] = M[j, i]
    return M


@st.composite
def zero_pivot_matrices(draw, sign):
    """L (D + S) L^T with a positive diagonal D of size k, then a zero pivot
    whose row meets a diagonal entry c of the given sign first: S = [[0, a],
    [a, c]] (plus a free trailing entry).  L is unit lower triangular with an
    identity trailing block, so after k positive steps the trailing block is
    S itself."""
    k = draw(st.integers(min_value=0, max_value=2))
    tail = draw(st.integers(min_value=0, max_value=1))
    n = k + 2 + tail
    nonzero = entries_st.filter(bool)
    M = qzeros(n)
    for i in range(k):
        x = as_quad(draw(nonzero))
        M[i, i] = x * x
    a, x = draw(nonzero), as_quad(draw(nonzero))
    M[k, k + 1] = M[k + 1, k] = as_quad(a)
    M[k + 1, k + 1] = sign * (x * x)
    if tail:
        M[k, n - 1] = M[n - 1, k] = as_quad(draw(entries_st))
        M[k + 1, n - 1] = M[n - 1, k + 1] = as_quad(draw(entries_st))
        M[n - 1, n - 1] = as_quad(draw(entries_st))
    L = qeye(n)
    for i in range(n):
        for j in range(min(i, k)):
            L[i, j] = as_quad(draw(entries_st))
    return reference_qmatmul(L, M, L.T)


def assert_same_rref(got, want):
    (R, pivots), (R0, pivots0) = got, want
    assert_same(R, R0)
    assert list(pivots.items()) == list(pivots0.items())


def assert_same_check(got, want):
    # equal verdict, step and witness, entry by entry and in exact repr
    assert got == want
    assert repr(got) == repr(want)
    assert got.witness is None or all(isinstance(x, QuadExt) for x in got.witness)


class TestFractionFree:
    """The fraction-free eliminations against the QuadExt loop references."""

    @given(st.data(), elimination_matrices())
    @settings(max_examples=80, deadline=None)
    def test_rref_matches_reference(self, data, M):
        cols = M.shape[1]
        order = data.draw(st.permutations(range(cols)))
        order = order[: data.draw(st.integers(min_value=0, max_value=cols))]
        assert_same_rref(rref_exact(M), reference_rref_exact(M))
        assert_same_rref(rref_exact(M, order), reference_rref_exact(M, order))

    @given(elimination_matrices())
    @settings(max_examples=60, deadline=None)
    def test_bases_match_reference(self, M):
        fast = (nullspace_exact(M), row_space_basis_exact(M))
        for got, want in zip(fast, reference_bases(M)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same(g, qarray(w))

    @given(gram_matrices())
    @settings(max_examples=60, deadline=None)
    def test_psd_check_on_gram_matrices(self, M):
        got = psd_check_exact(M)
        assert got.is_psd
        assert_same_check(got, reference_psd_check_exact(M))

    @pytest.mark.parametrize(
        "entries", [fractions_st, quads_st], ids=["rational", "sqrt5"]
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_psd_rank_is_the_rank(self, entries, data):
        # the positive pivots of a PSD matrix count its rank
        M = data.draw(field_gram_matrices(entries))
        n = M.shape[0]
        got = psd_check_exact(M)
        assert got.is_psd
        assert got.rank == n - len(kernel_basis_exact(M))

    @given(symmetric_matrices())
    @settings(max_examples=80, deadline=None)
    def test_psd_check_on_symmetric_matrices(self, M):
        got = psd_check_exact(M)
        assert_same_check(got, reference_psd_check_exact(M))
        if not got.is_psd:
            assert qsign(quadratic_form(M, got.witness)) < 0

    @pytest.mark.parametrize("sign", [-1, 0, 1], ids=["negative", "zero", "positive"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_psd_check_zero_pivot_with_nonzero_row(self, sign, data):
        M = data.draw(zero_pivot_matrices(sign))
        got = psd_check_exact(M)
        assert not got.is_psd
        assert qsign(quadratic_form(M, got.witness)) < 0
        assert_same_check(got, reference_psd_check_exact(M))

    def test_psd_check_skips_zero_rows(self):
        M = qarray([[0, 0, 0], [0, "2+sqrt5", 1], [0, 1, "1/3"]])
        assert_same_check(psd_check_exact(M), reference_psd_check_exact(M))
        assert psd_check_exact(M).is_psd

    def test_inexact_step_raises(self):
        # a divisor that is no minor of the input: (1*2 - 1*1)/3 is not an
        # integer, and 1/(1 + sqrt5) is not in Z[sqrt5]
        for prev, B in (((3, 0), None), ((1, 1), np.zeros((2, 2), dtype=object))):
            A = np.array([[1, 1], [1, 2]], dtype=object)
            with pytest.raises(AssertionError, match="remainder"):
                exactnum._bareiss_step(A, B, [1], slice(1, 2), 0, 0, prev)


@st.composite
def field_matrices(draw, entries):
    """Matrices over one field, of 0 to 4 rows and columns: arbitrary, of
    rank at most 2 (a product U V), or with an all-zero row."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def matrix(r, c):
        M = np.empty(r * c, dtype=object)
        M[:] = [as_quad(x) for x in draw(st.lists(entries, min_size=r * c, max_size=r * c))]
        return M.reshape(r, c)

    kind = draw(st.sampled_from(["any", "low-rank", "zero-row"]))
    if kind == "low-rank":
        k = draw(st.integers(0, 2))
        return reference_matmul(matrix(rows, k), matrix(k, cols))
    M = matrix(rows, cols)
    if kind == "zero-row" and rows:
        M[draw(st.integers(0, rows - 1))] = quad(0)
    return M


# Q(sqrt5) matrices whose last pivot p = pa + pb*sqrt5 has a negative norm
# pa^2 - 5 pb^2: dividing by p multiplies by its conjugate and divides by
# that norm, so the sign moves into the integers
NEGATIVE_NORM_PIVOTS = [
    [["1+2*sqrt5", 3]],
    [[1, 1, 2], [1, "3*sqrt5", 0]],
    [[1, 1], [1, "3*sqrt5"]],
    [["1+2*sqrt5", 3], ["2+4*sqrt5", 6]],
]


class TestSplitBases:
    """`nullspace_split` and `row_space_split` against the bases read off
    `reference_rref_exact`, value for value, each one split over a positive
    least common denominator (the split `split` makes of the joined
    vectors); `nullspace_exact`, `row_space_basis_exact` and
    `kernel_basis_exact` are their joins."""

    @staticmethod
    def assert_basis(S, want, cols):
        assert isinstance(S, QSplit) and S.shape == (len(want), cols) and S.d > 0
        assert_same(S.join(), qarray(want) if want else np.empty((0, cols), dtype=object))
        canonical = split(S.join())
        assert canonical.d == S.d and np.array_equal(canonical.A, S.A)
        assert (canonical.B is None) == (S.B is None)
        assert S.B is None or np.array_equal(canonical.B, S.B)

    def check(self, M):
        null, rows = reference_bases(M)
        cols = M.shape[1]
        self.assert_basis(nullspace_split(M), null, cols)
        self.assert_basis(row_space_split(M), rows, cols)
        for got, want in ((nullspace_exact(M), null), (row_space_basis_exact(M), rows)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same(g, qarray(w))
        if M.shape[0] == cols:
            got = kernel_basis_exact(M)
            assert len(got) == len(null)
            for g, w in zip(got, null):
                assert_same(g, qarray(w))

    @pytest.mark.parametrize("entries", [fractions_st, quads_st], ids=["Q", "Q(sqrt5)"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bases_match_reference(self, entries, data):
        self.check(data.draw(field_matrices(entries)))

    @pytest.mark.parametrize(
        "shape", [(0, 0), (0, 3), (3, 0), (1, 3), (2, 2)], ids=["empty", "no-row", "no-column", "one-row", "square"]
    )
    def test_zero_and_empty_matrices(self, shape):
        self.check(np.full(shape, quad(0), dtype=object))

    @pytest.mark.parametrize("rows", NEGATIVE_NORM_PIVOTS, ids=range(len(NEGATIVE_NORM_PIVOTS)))
    def test_last_pivot_with_a_negative_norm(self, rows):
        M = qarray(rows)
        _, (pa, pb), _ = gauss_jordan_split(M)
        assert pb and pa * pa - 5 * pb * pb < 0
        self.check(M)


class TestSplitOperands:
    """The eliminations and the PSD check take a split where they take an
    exact matrix, with the same results, and leave it as it was."""

    @staticmethod
    def parts(S):
        return [X.copy() for X in (S.A, S.B) if X is not None]

    @given(elimination_matrices())
    @settings(max_examples=60, deadline=None)
    def test_eliminations_leave_the_split(self, M):
        S = split(M)
        before = self.parts(S)
        assert_same_rref(rref_exact(S), rref_exact(M))
        for basis in (nullspace_exact, row_space_basis_exact):
            got, want = basis(S), basis(M)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same(g, w)
        assert all(np.array_equal(a, b) for a, b in zip(self.parts(S), before))

    @given(symmetric_matrices())
    @settings(max_examples=60, deadline=None)
    def test_psd_check_on_a_split(self, M):
        S = split(M)
        before = self.parts(S)
        assert_same_check(psd_check_exact(S), psd_check_exact(M))
        assert all(np.array_equal(a, b) for a, b in zip(self.parts(S), before))

    def test_non_symmetric_split_rejected(self):
        with pytest.raises(NonSymmetricError):
            psd_check_exact(split(qarray([[1, "sqrt5"], [0, 1]])))

    @staticmethod
    def frozen_pencil():
        return MatrixPencil.from_upper(
            3,
            "exact",
            [(0, 0, 2), (0, 1, "1/2"), (1, 1, "sqrt5")],
            [("y", [(0, 2, 2), (2, 2, -1)]), ("z", [(1, 2, "1/3")])],
        )

    def test_frozen_pencil_slices(self):
        # a pencil's split is read-only; eliminating on one of its slices
        # used to write into it
        pencil = self.frozen_pencil()
        S = pencil.split
        before = self.parts(S)
        for k, Q in enumerate((pencil.f0, *pencil.terms)):
            assert not S[k].A.flags.writeable
            assert_same_rref(rref_exact(S[k]), rref_exact(Q))
            assert len(nullspace_exact(S[k])) == len(nullspace_exact(Q))
            assert len(row_space_basis_exact(S[k])) == len(row_space_basis_exact(Q))
        assert all(np.array_equal(a, b) for a, b in zip(self.parts(S), before))

    def test_psd_check_on_frozen_pencil_slices(self):
        # F0 is PSD and each term is not, so both the single pass and the
        # witness pass run on a read-only slice
        pencil = self.frozen_pencil()
        S = pencil.split
        before = self.parts(S)
        verdicts = []
        for k, Q in enumerate((pencil.f0, *pencil.terms)):
            assert not S[k].A.flags.writeable
            got = psd_check_exact(S[k])
            assert_same_check(got, psd_check_exact(Q))
            verdicts.append(got.is_psd)
        assert verdicts == [True, False, False]
        assert all(np.array_equal(a, b) for a, b in zip(self.parts(S), before))


class TestToFloat:
    @given(st.data(), dims_st, dims_st)
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_entrywise_float(self, data, n, m):
        for shape in ((n, m), (n,)):
            M = data.draw(exact_arrays(*shape))
            got = to_float(M)
            want = np.array([float(as_quad(x)) for x in M.flat]).reshape(shape)
            assert got.dtype == np.float64 and got.shape == shape
            assert got.tobytes() == want.tobytes()


def assert_canonical_split(got: QSplit, values: np.ndarray):
    """got is the split of values over the least common denominator."""
    flat = [as_quad(x) for x in values.flat]
    lcm = math.lcm(*(f.denominator for x in flat for f in (x.a, x.b)))
    assert got.shape == values.shape and got.d == lcm
    assert (got.B is None) == all(x.b == 0 for x in flat)
    assert all(isinstance(a, int) for a in got.A.flat)
    assert_same(got.join(), values if values.size else qarray(values))


class TestSplit:
    """The integer split as a value: made once, used as an operand as it is."""

    @given(st.data(), dims_st, dims_st, dims_st)
    @settings(max_examples=60, deadline=None)
    def test_join_gives_back_the_entries(self, data, k, n, m):
        X = data.draw(exact_arrays(k, n, m))
        S = split(X)
        assert_canonical_split(S, X)
        assert split(S) is S

    @given(st.data(), dims_st, dims_st, dims_st)
    @settings(max_examples=50, deadline=None)
    def test_split_operands(self, data, n, k, m):
        X = data.draw(exact_arrays(n, k))
        Y = data.draw(exact_arrays(k, m))
        v = data.draw(exact_arrays(m))
        want = reference_qmatmul(X, Y, v)
        for ops in ((split(X), Y, v), (X, split(Y), split(v)), (split(X), split(Y), split(v))):
            assert_same(qmatmul(*ops), want)
        assert_same((split(X) @ split(Y)).join(), reference_matmul(X, Y))
        assert to_float(split(X)).tobytes() == to_float(X).tobytes()

    @given(st.data(), st.integers(min_value=1, max_value=3), dims_st)
    @settings(max_examples=50, deadline=None)
    def test_indexing_reshaping_scaling(self, data, k, n):
        X = data.draw(exact_arrays(k, n, n))
        S = split(X)
        iu = np.triu_indices(n)
        w = np.where(iu[0] == iu[1], 1, 2)
        assert_same(S[:, iu[0], iu[1]].scaled(w).join(), X[:, iu[0], iu[1]] * w)
        assert_same(S[[k - 1, 0]].join(), X[[k - 1, 0]])
        assert_same(S.reshape(k, -1).join(), X.reshape(k, -1))

    @given(st.data(), dims_st, dims_st, dims_st, st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_concatenation_is_the_split_of_the_joined_array(self, data, n, k, m, axis):
        shapes = [(n, k), (m, k)] if axis == 0 else [(k, n), (k, m)]
        X, Y = (data.draw(exact_arrays(*shape)) for shape in shapes)
        # a product's split is not over its least common denominator
        P = split(X) @ split(np.ones((X.shape[1], X.shape[1]), dtype=int) * QuadExt(1, 2) / 6)
        got = qconcat([P, split(Y) if k % 2 else Y], axis)
        want = np.concatenate([P.join(), Y], axis)
        assert_canonical_split(got, want)
        fresh = split(want)
        assert got.d == fresh.d and np.array_equal(got.A, fresh.A)
        assert (got.B is None and fresh.B is None) or np.array_equal(got.B, fresh.B)
