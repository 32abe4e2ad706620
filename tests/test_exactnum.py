"""Exact arithmetic: field axioms, sign oracle, PSD decisions, reconstruction."""

import math
import random
import re
from unittest import mock
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictfeas import exactnum
from strictfeas.exactnum import (
    NonFiniteError,
    NonSymmetricError,
    QSplit,
    QuadCandidates,
    QuadExt,
    as_quad,
    format_scalar,
    frob_inner,
    kernel_basis_exact,
    nullspace_exact,
    parse_scalar,
    primitive_integer_vector,
    psd_check_exact,
    qarray,
    qconcat,
    qeye,
    qmatmul,
    qsign,
    quad,
    qzeros,
    reconstruct_quadext,
    reconstruct_rational,
    row_space_basis_exact,
    rref_exact,
    split,
    to_float,
)
from strictfeas.model import MatrixPencil

from helpers import (
    mat_vec,
    quadratic_form,
    reference_frob_inner,
    reference_mat_vec,
    reference_matmul,
    reference_primitive_integer_vector,
    reference_psd_check_exact,
    reference_qmatmul,
    reference_rref_exact,
)

MU2_STAR = quad(-11, 5)  # 5*sqrt5 - 11
ALPHA = quad(Fraction(9, 38), Fraction(-1, 38))  # (9 - sqrt5)/38


def decimal_sign(x: QuadExt) -> int:
    """Independent 50-digit decimal sign oracle."""
    with mpmath.workdps(50):
        v = (
            mpmath.mpf(x.a.numerator) / x.a.denominator
            + mpmath.mpf(x.b.numerator) / x.b.denominator * mpmath.sqrt(5)
        )
        return int(mpmath.sign(v))


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
        assert quad(Fraction(1, 2)).is_rational
        assert not ALPHA.is_rational

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
        # alpha ~ 0.1780, checked against a 50-digit evaluation
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
        # PSLQ rejects a vector with an exact zero; zero itself must still
        # reconstruct, like any float within tolerance of it
        assert reconstruct_quadext(0.0, 100) == quad(0)
        assert reconstruct_quadext(-0.0, 100) == quad(0)
        assert reconstruct_quadext(1e-20, 100) == quad(0)

    def test_quadext_tiny_values_are_zero(self):
        # below mpmath's working precision PSLQ sees a zero entry and raises
        for x in (1e-100, -1e-100, 5e-324):
            assert reconstruct_quadext(x, 10**6) == quad(0)

    def test_quadext_mu2_star(self):
        assert reconstruct_quadext(0.1803398875, 100) == MU2_STAR

    def test_quadext_plain_rational(self):
        assert reconstruct_quadext(0.25, 10) == quad(Fraction(1, 4))

    def test_quadext_alpha(self):
        # 0.1779982111 is the 10-digit decimal of (9 - sqrt5)/38, computed
        # with the 50-digit oracle: float(ALPHA.decimal(50)) -> 0.17799821111...
        assert float(ALPHA.decimal(50)) == pytest.approx(0.1779982111, abs=5e-11)
        assert reconstruct_quadext(0.1779982111, 100) == ALPHA

    @given(
        st.one_of(
            quads_st.map(float),
            st.floats(min_value=-3, max_value=3),
            st.sampled_from([0.0, -0.0, 1e-7, -2e-6, 5e-324]),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_candidates_serve_every_bound(self, x):
        # one QuadCandidates, its PSLQ relations reused, against a fresh
        # reconstruction at each bound
        cands = QuadCandidates(x)
        for den in (100, 10**4, 10**6, 10**7, 100):
            assert repr(cands.best(den)) == repr(reconstruct_quadext(x, den))

    def test_quadext_round_trip(self):
        rng = random.Random(5)
        for _ in range(60):
            x = QuadExt(
                Fraction(rng.randint(-20, 20), rng.randint(1, 30)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 30)),
            )
            got = reconstruct_quadext(float(x), 1000)
            assert got is not None
            assert abs(float(got) - float(x)) <= 1e-6


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


class TestVectors:
    def test_primitive_scaling(self):
        v = qarray([[Fraction(-2, 3), Fraction(4, 3), 0]])[0]
        out = primitive_integer_vector(v)
        assert list(out) == [quad(1), quad(-2), quad(0)]

    def test_primitive_sign_follows_the_lead_entry_over_sqrt5(self):
        # 4 - 2 sqrt5 < 0 although its rational part is positive
        v = [quad(0), quad(Fraction(4, 3), Fraction(-2, 3)), quad(1)]
        assert list(primitive_integer_vector(v)) == [quad(0), quad(-4, 2), quad(-3)]

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


class TestPrimitiveVector:
    """The integer-split primitive_integer_vector against its QuadExt loop."""

    @given(st.lists(fractions_st, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_over_q(self, v):
        assert_same(primitive_integer_vector(v), reference_primitive_integer_vector(v))

    @given(st.lists(entries_st, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_over_sqrt5(self, v):
        assert_same(primitive_integer_vector(v), reference_primitive_integer_vector(v))


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
        with mock.patch.object(exactnum, "rref_exact", reference_rref_exact):
            slow = (nullspace_exact(M), row_space_basis_exact(M))
        for got, want in zip(fast, slow):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same(g, w)

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
                exactnum._bareiss_step(A, B, [1], [1], 0, 0, prev)


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

    def test_frozen_pencil_slices(self):
        # a pencil's split is read-only; eliminating on one of its slices
        # used to write into it
        pencil = MatrixPencil.from_upper(
            3,
            "exact",
            [(0, 0, 2), (0, 1, "1/2"), (1, 1, "sqrt5")],
            [("y", [(0, 2, 2), (2, 2, -1)]), ("z", [(1, 2, "1/3")])],
        )
        S = pencil.split
        before = self.parts(S)
        for k, Q in enumerate((pencil.f0, *pencil.terms)):
            assert not S[k].A.flags.writeable
            assert_same_rref(rref_exact(S[k]), rref_exact(Q))
            assert len(nullspace_exact(S[k])) == len(nullspace_exact(Q))
            assert len(row_space_basis_exact(S[k])) == len(row_space_basis_exact(Q))
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
