"""Pencil evaluation, the pairing with X (the primal reading), validation,
JSON round trips."""

import json
import random
import sys
import threading
from fractions import Fraction

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictfeas.exactnum import (
    QuadExt,
    format_scalar,
    frob_inner,
    qarray,
    quad,
    split,
    to_float,
    to_quad,
)
from strictfeas.model import (
    MatrixPencil,
    MissingVariableError,
    SdpProblem,
    pencil_eval,
    pencil_pairing,
    problem_from_json,
    problem_to_json,
    problem_to_json_str,
    to_double,
    to_exact,
    validate,
)

from helpers import GOLDEN, reference_pencil_eval


def small_exact_problem():
    pencil = MatrixPencil.from_upper(
        2,
        "exact",
        [(0, 0, 1), (1, 1, 1)],
        [("y1", [(0, 0, -1), (1, 1, 1)]), ("y2", [(0, 1, "1/2")])],
    )
    return SdpProblem(pencil=pencil, objective=(quad(1), quad(0)), name="tiny")


def random_exact_pencil(rng, n=3, m=2):
    def entries():
        return [
            (i, j, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for i in range(n)
            for j in range(i, n)
        ]

    return MatrixPencil.from_upper(
        n, "exact", entries(), [(f"v{k}", entries()) for k in range(m)]
    )


class TestPencilEval:
    def test_constant_pencil(self):
        pencil = MatrixPencil.from_upper(
            2, "exact", [(0, 0, 2)], [("y", [])]
        )
        out = pencil_eval(pencil, {"y": 7})
        assert out[0, 0] == quad(2) and not bool(out[1, 0])

    def test_missing_variable(self):
        prob = small_exact_problem()
        with pytest.raises(MissingVariableError):
            pencil_eval(prob.pencil, {"y1": 0})

    def test_exact_evaluation(self):
        prob = small_exact_problem()
        out = pencil_eval(prob.pencil, {"y1": Fraction(1, 3), "y2": 2})
        assert out[0, 0] == quad(Fraction(2, 3))
        assert out[0, 1] == quad(1)
        assert out[1, 1] == quad(Fraction(4, 3))

    def test_string_coefficients_are_parsed(self):
        prob = small_exact_problem()
        out = pencil_eval(prob.pencil, {"y1": "1/3", "y2": "-2+sqrt5"})
        assert out[0, 0] == quad(Fraction(2, 3))
        assert out[0, 1] == quad(-1, Fraction(1, 2))
        with pytest.raises(ValueError, match="malformed"):
            pencil_eval(prob.pencil, {"y1": "1 / 3", "y2": 0})

    def test_zero_denominator_is_malformed(self):
        prob = small_exact_problem()
        with pytest.raises(ValueError, match="malformed exact scalar '1/0'"):
            pencil_eval(prob.pencil, {"y1": "1/0", "y2": 0})
        with pytest.raises(ValueError, match="malformed exact scalar '1/0'"):
            MatrixPencil.from_upper(2, "exact", [(0, 0, "1/0")], [])

    def test_inexact_coefficient_rejected(self):
        prob = small_exact_problem()
        with pytest.raises(TypeError, match="y2 is not an exact scalar"):
            pencil_eval(prob.pencil, {"y1": 1, "y2": 0.5})

    def test_double_pencil_stays_float(self):
        # the solver's slack path: float64 in, float64 out, no exact work
        prob = to_double(small_exact_problem())
        out = pencil_eval(prob.pencil, {"y1": 0.25, "y2": 3})
        assert out.dtype == np.float64
        assert out.tobytes() == np.array([[0.75, 1.5], [1.5, 1.25]]).tobytes()

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_term_by_term_evaluation(self, seed, m):
        rng = random.Random(seed)
        pencil = random_exact_pencil(rng, n=rng.randint(1, 4), m=m)
        if rng.random() < 0.5:
            # Q(sqrt5) data
            pencil = replace(pencil, terms=tuple(GOLDEN * t for t in pencil.terms))
        kinds = [
            lambda: rng.randint(-3, 3),
            lambda: Fraction(rng.randint(-2**80, 2**80), rng.randint(1, 2**40)),
            lambda: quad(Fraction(rng.randint(-5, 5), 3), rng.randint(-2, 2)),
            lambda: format_scalar(quad(rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 7))),
            lambda: 0,
        ]
        y = {v: rng.choice(kinds)() for v in pencil.var_names}
        got, want = pencil_eval(pencil, y), reference_pencil_eval(pencil, y)
        assert got.shape == want.shape == (pencil.n, pencil.n)
        assert all(isinstance(x, QuadExt) for x in got.flat)
        assert all(g == w for g, w in zip(got.flat, want.flat))

    def test_affine_in_y(self):
        rng = random.Random(11)
        pencil = random_exact_pencil(rng)
        for _ in range(20):
            y1 = {v: Fraction(rng.randint(-3, 3), 2) for v in pencil.var_names}
            y2 = {v: Fraction(rng.randint(-3, 3), 2) for v in pencil.var_names}
            lhs = pencil_eval(pencil, y1) + pencil_eval(pencil, y2)
            zero = {v: 0 for v in pencil.var_names}
            rhs = pencil_eval(pencil, zero) + pencil_eval(
                pencil, {v: y1[v] + y2[v] for v in pencil.var_names}
            )
            assert all(
                lhs[i, j] == rhs[i, j] for i in range(pencil.n) for j in range(pencil.n)
            )

    def test_weak_duality_identity(self):
        # <X, pencil(y)> = <X, F0> + sum_i y_i <X, F_i>, exactly
        rng = random.Random(12)
        pencil = random_exact_pencil(rng)
        for _ in range(20):
            y = {v: Fraction(rng.randint(-3, 3), 3) for v in pencil.var_names}
            X = qarray(
                [[rng.randint(-3, 3) for _ in range(pencil.n)] for _ in range(pencil.n)]
            )
            X = X + X.T
            lhs = frob_inner(X, pencil_eval(pencil, y))
            rhs = frob_inner(X, pencil.f0)
            for name, term in zip(pencil.var_names, pencil.terms):
                rhs = rhs + quad(y[name]) * frob_inner(X, term)
            assert lhs == rhs


class TestDualize:
    """The primal reading: minimize <F0, X> s.t. <F_i, X> = -b_i, X >= 0."""

    def test_primal_candidate_checking(self):
        prob = small_exact_problem()
        X = qarray([[1, 0], [0, 1]])
        # objective <F0, X> and residuals <F_i, X> + b_i
        f0_inner, *inner = pencil_pairing(prob.pencil, X)
        assert f0_inner == quad(2)
        res = [ip + b for ip, b in zip(inner, prob.objective)]
        assert res[0] == quad(1)  # <diag(-1,1), I> + 1 = 0 + 1
        assert res[1] == quad(0)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_pairing_is_the_per_matrix_inner_product(self, seed, m):
        rng = random.Random(seed)
        pencil = random_exact_pencil(rng, n=rng.randint(1, 4), m=m)
        if rng.random() < 0.5:
            # Q(sqrt5) data
            pencil = replace(pencil, f0=GOLDEN * pencil.f0)
        entries = [
            lambda: rng.randint(-3, 3),
            lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            lambda: quad(Fraction(rng.randint(-5, 5), 3), rng.randint(-2, 2)),
        ]
        X = qarray([[rng.choice(entries)() for _ in range(pencil.n)] for _ in range(pencil.n)])
        want = [frob_inner(Q, X) for Q in (pencil.f0, *pencil.terms)]
        for operand in (X, split(X)):
            got = pencil_pairing(pencil, operand)
            assert len(got) == pencil.m + 1
            assert all(isinstance(g, QuadExt) and g == w for g, w in zip(got, want))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4,), (1, 1)])
    def test_pairing_rejects_a_wrong_shape(self, shape):
        X = qarray(np.ones(shape, dtype=int).tolist())
        with pytest.raises(ValueError, match=r"X has shape .*, expected \(2, 2\)"):
            pencil_pairing(small_exact_problem().pencil, X)
        with pytest.raises(ValueError, match="expected"):
            pencil_pairing(small_exact_problem().pencil, split(X))


class TestValidate:
    def test_well_formed(self):
        assert validate(small_exact_problem()) == []

    def test_dimension_mismatch(self):
        pencil = MatrixPencil(
            n=3,
            scalar="double",
            f0=np.zeros((3, 3)),
            var_names=("y",),
            terms=(np.zeros((2, 2)),),
        )
        prob = SdpProblem(pencil=pencil, objective=(1.0,))
        assert any(v.startswith("DimensionMismatch") for v in validate(prob))

    def test_not_symmetric(self):
        M = np.zeros((2, 2))
        M[0, 1] = 1.0
        pencil = MatrixPencil(
            n=2, scalar="double", f0=np.zeros((2, 2)), var_names=("y",), terms=(M,)
        )
        prob = SdpProblem(pencil=pencil, objective=(1.0,))
        assert any(v.startswith("NotSymmetric") for v in validate(prob))

    def test_non_finite(self):
        M = np.zeros((2, 2))
        M[0, 0] = float("nan")
        pencil = MatrixPencil(
            n=2, scalar="double", f0=M, var_names=(), terms=()
        )
        prob = SdpProblem(pencil=pencil, objective=())
        assert any(v.startswith("NonFinite") for v in validate(prob))

    def test_non_finite_objective_and_offset(self):
        pencil = MatrixPencil(
            n=1, scalar="double", f0=np.eye(1), var_names=("y",), terms=(np.eye(1),)
        )
        prob = SdpProblem(
            pencil=pencil, objective=(float("inf"),), objective_offset=float("nan")
        )
        assert [v for v in validate(prob) if v.startswith("NonFinite")] == [
            "NonFinite: objective contains NaN or infinity",
            "NonFinite: offset is NaN or infinity",
        ]

    @staticmethod
    def double_problem(*terms):
        names = tuple(f"y{k + 1}" for k in range(len(terms)))
        pencil = MatrixPencil(
            n=3, scalar="double", f0=np.eye(3), var_names=names, terms=terms
        )
        return SdpProblem(pencil=pencil, objective=(1.0,) * len(terms))

    def test_stacked_check_passes_a_clean_pencil(self):
        rng = np.random.default_rng(0)
        terms = [S + S.T for S in rng.standard_normal((4, 3, 3))]
        assert validate(self.double_problem(*terms)) == []

    def test_nan_in_one_term_is_worded_per_matrix(self):
        # NaN != NaN, so the term also fails its symmetry test, as it did
        # when every matrix was checked on its own
        bad = np.eye(3)
        bad[1, 1] = float("nan")
        prob = self.double_problem(np.eye(3), bad, np.zeros((3, 3)))
        assert validate(prob) == ["NonFinite: y2 contains NaN or infinity", "NotSymmetric: y2"]

    def test_one_asymmetric_term_is_worded_per_matrix(self):
        bad = np.zeros((3, 3))
        bad[0, 2] = 1.0
        prob = self.double_problem(np.eye(3), np.eye(3), bad)
        assert validate(prob) == ["NotSymmetric: y3"]

    def test_duplicate_variables(self):
        pencil = MatrixPencil.from_upper(
            2, "double", [], [("y", [(0, 0, 1)]), ("y", [(1, 1, 1)])]
        )
        prob = SdpProblem(pencil=pencil, objective=(1.0, 1.0))
        assert any(v.startswith("DuplicateVariable") for v in validate(prob))


class TestObjectiveScalars:
    """The objective and its offset take the pencil's scalars once, when the
    problem is made."""

    def test_exact_objective_coerced_to_quadext(self):
        pencil = MatrixPencil.from_upper(1, "exact", [], [("a", [(0, 0, 1)]), ("b", [])])
        prob = SdpProblem(pencil=pencil, objective=("1/2", 0), objective_offset=Fraction(3))
        assert prob.objective == (quad(Fraction(1, 2)), quad(0))
        assert all(type(b) is QuadExt for b in prob.objective)
        assert type(prob.objective_offset) is QuadExt and prob.objective_offset == quad(3)

    @pytest.mark.parametrize(
        "objective, offset", [((0.0, 1), 0), ((0, 1), 0.5)], ids=["objective", "offset"]
    )
    def test_float_in_exact_problem_rejected(self, objective, offset):
        pencil = MatrixPencil.from_upper(1, "exact", [], [("a", [(0, 0, 1)]), ("b", [])])
        with pytest.raises(TypeError):
            SdpProblem(pencil=pencil, objective=objective, objective_offset=offset)

    def test_double_objective_coerced_to_float(self):
        pencil = MatrixPencil.from_upper(1, "double", [], [("a", [(0, 0, 1)])])
        prob = SdpProblem(pencil=pencil, objective=(quad(2),), objective_offset=1)
        assert prob.objective == (2.0,) and type(prob.objective[0]) is float
        assert type(prob.objective_offset) is float


class TestFromUpper:
    @pytest.mark.parametrize("scalar", ["exact", "double"])
    def test_repeated_f0_entry_rejected(self, scalar):
        # a later entry used to overwrite an earlier one: F0 = diag(2, 0)
        with pytest.raises(ValueError, match=r"^duplicate entry \(0,0\)$"):
            MatrixPencil.from_upper(2, scalar, [(0, 0, 1), (0, 0, 2)], [])

    @pytest.mark.parametrize("scalar", ["exact", "double"])
    def test_repeated_variable_entry_rejected(self, scalar):
        entries = [(0, 1, 1), (1, 1, 3), (0, 1, 1)]
        with pytest.raises(ValueError, match=r"^duplicate entry \(0,1\)$"):
            MatrixPencil.from_upper(2, scalar, [(0, 0, 1)], [("y", entries)])

    def test_same_entry_in_different_matrices_accepted(self):
        pencil = MatrixPencil.from_upper(
            2, "exact", [(0, 1, 1)], [("y1", [(0, 1, 2)]), ("y2", [(0, 1, "sqrt5")])]
        )
        assert [M[1, 0] for M in (pencil.f0, *pencil.terms)] == [1, 2, quad(0, 1)]

    def test_inexact_exact_entry_rejected(self):
        with pytest.raises(TypeError):
            MatrixPencil.from_upper(2, "exact", [(0, 0, 0.5)], [])

    @pytest.mark.parametrize("scalar", ["exact", "double"])
    @pytest.mark.parametrize("where", ["f0", "term"])
    @pytest.mark.parametrize("ij", [(1, 0), (0, 2), (-1, 0)])
    def test_entry_outside_the_upper_triangle_rejected(self, scalar, where, ij):
        bad = [(0, 0, 1), (*ij, 1)]
        f0, term = (bad, []) if where == "f0" else ([(0, 0, 1)], bad)
        message = rf"^entry \({ij[0]},{ij[1]}\) outside upper triangle of n=2$"
        with pytest.raises(ValueError, match=message):
            MatrixPencil.from_upper(2, scalar, f0, [("y", term)])

    @pytest.mark.parametrize(
        "value, error",
        [(0.5, TypeError), (None, TypeError), ("1/2 ", ValueError), ("1/0", ValueError)],
    )
    def test_non_exact_term_entry_rejected(self, value, error):
        # after valid entries, in the last matrix of the stack
        with pytest.raises(error):
            MatrixPencil.from_upper(
                2,
                "exact",
                [(0, 0, 1)],
                [("y1", [(0, 1, "sqrt5")]), ("y2", [(0, 0, 1), (1, 1, value)])],
            )


_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _upper_entries(draw, n: int, sqrt5: bool) -> list:
    """Upper-triangle (i, j, value) triples of one n x n matrix, each cell at
    most once, explicit zeros among them; a value is an int, a Fraction, a
    QuadExt or a grammar string, whichever can carry it."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    out = []
    for i, j in draw(st.lists(st.sampled_from(cells), unique=True)):
        a = draw(_RATIONALS)
        b = draw(_RATIONALS) if sqrt5 and draw(st.booleans()) else Fraction(0)
        forms = [quad(a, b), format_scalar(quad(a, b))]
        if not b:
            forms.append(a)
            if a.denominator == 1:
                forms.append(int(a))
        out.append((i, j, draw(st.sampled_from(forms))))
    return out


@st.composite
def _upper_pencils(draw) -> tuple:
    """(n, F0's entries, [(name, F_k's entries), ...]), over Q or Q(sqrt5)."""
    n, m, sqrt5 = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.booleans())
    f0 = draw(_upper_entries(n, sqrt5))
    return n, f0, [(f"v{k}", draw(_upper_entries(n, sqrt5))) for k in range(m)]


def entry_by_entry(n: int, entries) -> np.ndarray:
    """The QuadExt matrix of upper-triangle triples, placed one by one."""
    M = np.empty((n, n), dtype=object)
    M[...] = quad(0)
    for i, j, v in entries:
        M[i, j] = M[j, i] = to_quad(v)
    return M


class TestBornSplit:
    """`from_upper` builds an exact pencil's integer split straight from its
    entries: the pencil is born split, its matrices joined on first read."""

    @given(_upper_pencils())
    @settings(max_examples=150, deadline=None)
    def test_split_is_the_split_of_the_joined_stack(self, drawn):
        n, f0, var_entries = drawn
        pencil = MatrixPencil.from_upper(n, "exact", f0, var_entries)
        assert "f0" not in vars(pencil) and "terms" not in vars(pencil)
        S = pencil.split
        assert pencil.var_names == tuple(v for v, _ in var_entries)
        fresh = split(np.stack([pencil.f0, *pencil.terms]))
        assert S.shape == fresh.shape == (len(var_entries) + 1, n, n)
        assert S.d == fresh.d and np.array_equal(S.A, fresh.A)
        assert (S.B is None) == (fresh.B is None)
        assert S.B is None or np.array_equal(S.B, fresh.B)
        assert all(type(x) is int for X in (S.A, S.B) if X is not None for x in X.flat)
        assert all(not X.flags.writeable for X in (S.A, S.B) if X is not None)

    @given(_upper_pencils())
    @settings(max_examples=150, deadline=None)
    def test_joined_entries_are_the_entry_by_entry_build(self, drawn):
        n, f0, var_entries = drawn
        pencil = MatrixPencil.from_upper(n, "exact", f0, var_entries)
        want = [entry_by_entry(n, f0), *(entry_by_entry(n, e) for _, e in var_entries)]
        got = [pencil.f0, *pencil.terms]
        assert len(got) == len(want)
        for G, W in zip(got, want):
            assert G.shape == (n, n)
            assert all(type(g) is QuadExt and g == w for g, w in zip(G.flat, W.flat))
        rational = all(not x.b for W in want for x in W.flat)
        assert (pencil.split.B is None) == rational


def looped_violations(names, mats, n: int) -> list:
    """The symmetry check of exact matrices one entry pair at a time: the
    first (i, j), i < j in row-major order, with M[i, j] != M[j, i]."""
    out = []
    for name, M in zip(names, mats):
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
        bad = next((ij for ij in pairs if M[ij] != M[ij[::-1]]), None)
        if bad:
            out.append(f"NotSymmetric: {name} at {bad}")
    return out


def exact_problem(n: int, f0, terms) -> SdpProblem:
    names = tuple(f"y{k + 1}" for k in range(len(terms)))
    pencil = MatrixPencil(n=n, scalar="exact", f0=f0, var_names=names, terms=tuple(terms))
    return SdpProblem(pencil=pencil, objective=(0,) * len(terms))


class TestValidateOnTheSplit:
    """An exact pencil is validated on its integer split: one comparison of
    the stack with its transpose, matrix by matrix only to word a failure."""

    @given(_upper_pencils().filter(lambda drawn: drawn[0] > 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_changed_mirror_entry_is_worded_as_by_the_loop(self, drawn, data):
        n, f0, var_entries = drawn
        mats = [entry_by_entry(n, e) for e in (f0, *(e for _, e in var_entries))]
        cells = st.tuples(st.integers(0, len(mats) - 1), st.integers(0, n - 1), st.integers(0, n - 1))
        sqrt5 = data.draw(st.booleans())
        for k, i, j in data.draw(st.lists(cells.filter(lambda c: c[1] != c[2]), min_size=1, max_size=3)):
            b = data.draw(_RATIONALS) if sqrt5 else 0
            mats[k][i, j] = quad(data.draw(_RATIONALS), b)
        prob = exact_problem(n, mats[0], mats[1:])
        want = looped_violations(("F0", *prob.var_names), mats, n)
        assert validate(prob) == want
        born = MatrixPencil.from_upper(n, "exact", f0, var_entries)
        assert validate(SdpProblem(pencil=born, objective=(0,) * born.m)) == []
        assert "f0" not in vars(born) and "terms" not in vars(born)

    def test_first_pair_is_taken_in_row_major_order(self):
        # (0, 3) comes before (1, 2) by rows, after it by columns
        M = np.full((4, 4), quad(1), dtype=object)
        M[3, 0], M[2, 1] = quad(0, 1), quad(2)
        prob = exact_problem(4, np.full((4, 4), quad(0), dtype=object), [M])
        assert validate(prob) == looped_violations(("F0", "y1"), [prob.pencil.f0, M], 4)
        assert validate(prob) == ["NotSymmetric: y1 at (0, 3)"]

    def test_asymmetric_split_is_worded_per_matrix(self):
        S = split(qarray([[[1, 0], [0, 1]], [[0, quad(0, 1)], [quad(1, 1), 2]]]))
        pencil = MatrixPencil.from_split(("y",), S)
        prob = SdpProblem(pencil=pencil, objective=(0,))
        assert validate(prob) == ["NotSymmetric: y at (0, 1)"]

    @pytest.mark.parametrize(
        "shapes", [[(2, 2), (3, 3)], [(3, 3), (3, 3)], [(2, 3), (2, 3)], [(2, 2), (4,)]]
    )
    def test_mis_shaped_matrix_is_a_dimension_mismatch(self, shapes):
        mats = [np.full(s, quad(1), dtype=object) for s in shapes]
        prob = exact_problem(2, mats[0], mats[1:])
        want = [
            f"DimensionMismatch: {name} has shape {s}, expected (2, 2)"
            for name, s in zip(("F0", "y1"), shapes)
            if s != (2, 2)
        ]
        assert validate(prob) == want

    @pytest.mark.parametrize("value", [0.5, np.float64(0.5), "1/2", None])
    def test_unreadable_entry_is_not_exact(self, value):
        f0 = qarray([[1, 2], [0, 1]])
        term = qarray([[1, 0], [0, 1]])
        term[1, 1] = value
        prob = exact_problem(2, f0, [term])
        assert validate(prob) == ["NotSymmetric: F0 at (0, 1)", "NotExact: y1"]


class TestJson:
    def test_round_trip_exact(self):
        prob = small_exact_problem()
        doc = problem_to_json(prob)
        back = problem_from_json(doc)
        assert validate(back) == []
        assert problem_to_json_str(back) == problem_to_json_str(prob)

    def test_canonical_bytes_stable(self):
        prob = small_exact_problem()
        text = problem_to_json_str(prob)
        again = problem_to_json_str(problem_from_json(json.loads(text)))
        assert again == text

    def test_duplicate_variable_rejected(self):
        doc = problem_to_json(small_exact_problem())
        doc["vars"].append(dict(doc["vars"][0]))
        with pytest.raises(ValueError, match="duplicate"):
            problem_from_json(doc)

    def test_duplicate_f0_entry_rejected(self):
        doc = {"n": 2, "scalar": "exact", "F0": [[1, 1, "1"], [1, 1, "2"]], "vars": []}
        with pytest.raises(ValueError, match=r"^F0\[1\]: duplicate entry \(1,1\)$"):
            problem_from_json(doc)

    def test_duplicate_variable_entry_rejected(self):
        doc = problem_to_json(small_exact_problem())
        F = doc["vars"][0]["F"]
        F.append(list(F[0]))
        i, j = F[0][:2]
        with pytest.raises(ValueError, match=rf"^vars\[0\]\.F\[{len(F) - 1}\]: duplicate entry \({i},{j}\)$"):
            problem_from_json(doc)

    def test_bad_index_rejected(self):
        doc = problem_to_json(small_exact_problem())
        doc["F0"].append([2, 1, "1"])
        with pytest.raises(ValueError, match="upper triangle"):
            problem_from_json(doc)

    def test_offset_round_trip(self):
        prob = replace(small_exact_problem(), objective_offset=quad(Fraction(3, 2), 1))
        doc = problem_to_json(prob)
        assert doc["offset"] == "3/2+1*sqrt5"
        assert problem_from_json(doc).objective_offset == quad(Fraction(3, 2), 1)
        back = problem_from_json(problem_to_json(to_double(prob)))
        assert back.objective_offset == float(quad(Fraction(3, 2), 1))

    def test_offset_optional(self):
        doc = problem_to_json(small_exact_problem())
        assert "offset" not in doc
        assert problem_from_json(doc).objective_offset == 0

    def test_note_round_trip(self):
        prob = replace(small_exact_problem(), note="face chain, degree 2")
        doc = problem_to_json(prob)
        assert doc["note"] == "face chain, degree 2"
        assert problem_from_json(doc).note == "face chain, degree 2"
        assert "note" not in problem_to_json(small_exact_problem())
        assert problem_from_json(problem_to_json(small_exact_problem())).note == ""

    def test_non_string_note_rejected(self):
        doc = problem_to_json(small_exact_problem())
        doc["note"] = 3
        with pytest.raises(ValueError, match="note"):
            problem_from_json(doc)

    def test_double_round_trip(self):
        prob = to_double(small_exact_problem())
        back = problem_from_json(problem_to_json(prob))
        assert np.allclose(back.pencil.f0, prob.pencil.f0)
        assert back.objective == prob.objective


class TestDowncast:
    def test_exact_to_double(self):
        prob = small_exact_problem()
        d = to_double(prob)
        assert d.pencil.scalar == "double"
        assert d.pencil.f0.dtype == np.float64
        assert d.objective == (1.0, 0.0)

    def test_double_to_exact_is_exact_and_keeps_metadata(self):
        prob = replace(
            to_double(small_exact_problem()), objective_offset=0.1, note="kept"
        )
        e = to_exact(prob)
        assert e.pencil.scalar == "exact"
        assert e.pencil.f0[0, 0] == quad(1)
        assert e.pencil.term("y2")[0, 1] == quad(Fraction(1, 2))
        assert e.objective == (quad(1), quad(0))
        # 0.1 is a dyadic rational, carried over exactly
        assert e.objective_offset == quad(Fraction(0.1))
        assert (e.name, e.note) == (prob.name, "kept")
        assert to_exact(e) is e


def drawn_pencil(seed: int, m: int) -> MatrixPencil:
    """A random exact pencil of n <= 4, over Q(sqrt5) half the time."""
    rng = random.Random(seed)
    pencil = random_exact_pencil(rng, n=rng.randint(1, 4), m=m)
    if rng.random() < 0.5:
        pencil = replace(pencil, terms=tuple(GOLDEN * t for t in pencil.terms))
    return pencil


def from_split_of(pencil: MatrixPencil) -> MatrixPencil:
    """The pencil built again by `from_split`, from a fresh split of its stack."""
    return MatrixPencil.from_split(pencil.var_names, split(np.stack([pencil.f0, *pencil.terms])))


class TestPencilSplit:
    """An exact pencil's stack is split once and kept: on first use when the
    constructor is given QuadExt matrices; a pencil built from its split
    joins its matrices on first read."""

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_join_gives_back_the_stack(self, seed, m):
        # the constructor given QuadExt matrices splits them on first use
        drawn = drawn_pencil(seed, m)
        pencil = MatrixPencil(drawn.n, "exact", drawn.f0, drawn.var_names, drawn.terms)
        assert "split" not in vars(pencil)
        S = pencil.split
        assert pencil.split is S
        stack = np.stack([pencil.f0, *pencil.terms])
        assert S.shape == stack.shape == (pencil.m + 1, pencil.n, pencil.n)
        assert all(g == w for g, w in zip(S.join().flat, stack.flat))
        fresh = split(stack)
        assert S.d == fresh.d and np.array_equal(S.A, fresh.A)
        assert (S.B is None) == (fresh.B is None)
        assert not S.A.flags.writeable

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_from_split_joins_its_split_on_first_read(self, seed, m):
        eager = drawn_pencil(seed, m)
        S = split(np.stack([eager.f0, *eager.terms]))
        pencil = MatrixPencil.from_split(eager.var_names, S)
        assert pencil.split is S
        assert all(X is None or not X.flags.writeable for X in (S.A, S.B))
        assert (pencil.n, pencil.scalar, pencil.var_names) == (eager.n, "exact", eager.var_names)
        assert "f0" not in vars(pencil) and "terms" not in vars(pencil)
        f0, terms = pencil.f0, pencil.terms
        J = S.join()
        assert len(terms) == m
        for got, want in zip((f0, *terms), J):
            assert got.shape == (eager.n, eager.n)
            assert all(g == w for g, w in zip(got.flat, want.flat))
            assert not got.flags.writeable
        # read once and kept; the split is never made again
        assert pencil.f0 is f0 and pencil.terms is terms and pencil.split is S

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_from_split_agrees_with_an_eager_pencil(self, seed, m):
        eager = drawn_pencil(seed, m)
        objective = tuple(quad(k) for k in range(m))

        def problem(pencil):
            return SdpProblem(pencil=pencil, objective=objective, name="p")

        # a fresh pencil for each reader, so that each read is the first
        copied = replace(from_split_of(eager))
        assert "split" not in vars(copied)
        for got, want in zip((copied.f0, *copied.terms), (eager.f0, *eager.terms)):
            assert all(g == w for g, w in zip(got.flat, want.flat))
        assert problem_to_json(problem(from_split_of(eager))) == problem_to_json(problem(eager))
        got, want = to_double(problem(from_split_of(eager))).pencil, to_double(problem(eager)).pencil
        assert [M.tobytes() for M in (got.f0, *got.terms)] == [
            M.tobytes() for M in (want.f0, *want.terms)
        ]
        y = {v: quad(k - 1, k % 2) for k, v in enumerate(eager.var_names)}
        value = pencil_eval(from_split_of(eager), y)
        assert all(g == w for g, w in zip(value.flat, pencil_eval(eager, y).flat))

    def test_concurrent_first_reads_get_the_same_matrices(self):
        # more readers than cores, switching threads as often as the
        # interpreter allows: a second join stored over the first would hand
        # some reader other arrays
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(20):
                pencil = from_split_of(drawn_pencil(seed, 3))
                barrier = threading.Barrier(8, timeout=10)
                read = []

                def reader():
                    barrier.wait()
                    read.append((pencil.f0, pencil.terms))

                threads = [threading.Thread(target=reader) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads) and len(read) == 8
                assert all(f0 is pencil.f0 and terms is pencil.terms for f0, terms in read)
        finally:
            sys.setswitchinterval(interval)

    def test_from_split_checks_its_stack(self):
        S = small_exact_problem().pencil.split
        with pytest.raises(ValueError, match="one matrix per variable"):
            MatrixPencil.from_split(("y1",), S)
        pencil = MatrixPencil.from_split(("y1", "y2"), S)
        assert not hasattr(pencil, "f1")
        assert pencil.term("y2")[0, 1] == quad("1/2")

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_to_double_is_the_per_matrix_downcast(self, seed, m):
        eager = drawn_pencil(seed, m)
        for pencil in (eager, from_split_of(eager)):
            got = to_double(SdpProblem(pencil=pencil, objective=(quad(1),) * m)).pencil
            assert got.f0.tobytes() == to_float(eager.f0).tobytes()
            assert len(got.terms) == m
            for g, t in zip(got.terms, eager.terms):
                assert g.dtype == np.float64 and g.tobytes() == to_float(t).tobytes()

    def test_double_pencil_has_no_split(self):
        with pytest.raises(ValueError, match="exact"):
            to_double(small_exact_problem()).pencil.split
