"""Pencil evaluation, the pairing with X (the primal reading), validation,
JSON round trips."""

import json
import random
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


class TestPencilSplit:
    """An exact pencil's stack is split once, on first use, and kept."""

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_join_gives_back_the_stack(self, seed, m):
        rng = random.Random(seed)
        pencil = random_exact_pencil(rng, n=rng.randint(1, 4), m=m)
        if rng.random() < 0.5:
            # Q(sqrt5) data
            pencil = replace(pencil, terms=tuple(GOLDEN * t for t in pencil.terms))
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
    def test_to_double_is_the_per_matrix_downcast(self, seed, m):
        rng = random.Random(seed)
        pencil = random_exact_pencil(rng, n=rng.randint(1, 4), m=m)
        if rng.random() < 0.5:
            pencil = replace(pencil, terms=tuple(GOLDEN * t for t in pencil.terms))
        prob = SdpProblem(pencil=pencil, objective=(quad(1),) * m)
        got = to_double(prob).pencil
        assert got.f0.tobytes() == to_float(pencil.f0).tobytes()
        assert len(got.terms) == m
        for g, t in zip(got.terms, pencil.terms):
            assert g.dtype == np.float64 and g.tobytes() == to_float(t).tobytes()

    def test_double_pencil_has_no_split(self):
        with pytest.raises(ValueError, match="exact"):
            to_double(small_exact_problem()).pencil.split
