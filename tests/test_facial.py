"""Diagnosis, certificate extraction, constraint derivation, substitution."""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictfeas.bell import (
    almost_quantum_pencil,
    chsh_toy_pencil,
    chsh_toy_simplified,
    line1,
    line1_expected_relations,
    line1_null_vectors,
    line2,
    line2_expected_relations,
    line2_null_vectors,
    problem1_simplified,
    problem2_simplified,
    toy_expected_relations,
    toy_null_vectors,
)
from strictfeas.exactnum import (
    QSplit,
    QuadExt,
    as_quad,
    kernel_basis_exact,
    nullspace_exact,
    primitive_integer_vector,
    qarray,
    quad,
    qzeros,
    reconstruct_quadext,
    reconstruct_rational,
    row_space_basis_exact,
    rref_exact,
    split,
    to_float,
)
from strictfeas import certify, cli, exactnum, facial, model, solver
from strictfeas.facial import (
    AffineExpr,
    ImplicitConstraintSet,
    InconsistentConstraintsError,
    ReducingCertificate,
    RoundingFailedError,
    SolverFailedError,
    ROUNDING_LADDER,
    StrictlyFeasible,
    _affine_solve_exact,
    _chart_matrices,
    _face_split_certificate,
    _float_slice_chart,
    _is_projector,
    _round_face,
    _Snaps,
    _symmetric_split,
    _upper_functionals,
    apply_constraints,
    build_alternative_problem,
    derive_implicit_constraints,
    find_reducing_certificate,
    lift_assignment,
    reduce_problem,
    verify_certificate_matrix,
)
from strictfeas.model import MatrixPencil, SdpProblem, pencil_eval, problem_to_json_str

from helpers import (
    mat_vec,
    PLANTED_U,
    golden_face_problem,
    planted_chain,
    planted_chain_problem,
    problem1_optimal_point,
    reference_apply_constraints,
    reference_chart_matrices,
    reference_constraint_rows,
    reference_qmatmul,
    reference_split_matmul,
)


def span_canonical(vectors):
    """Canonical RREF matrix of the span; equal spans give equal canons."""
    M = np.array([[as_quad(x) for x in v] for v in vectors], dtype=object)
    R, pivots = rref_exact(M)
    rows = sorted(pivots.values())
    return tuple(tuple(R[r]) for r in rows)


def assert_same_span(got, want):
    assert span_canonical(got) == span_canonical(want)


def relations_as_dict(cons):
    return {
        v: (e.const, dict(e.coeffs)) for v, e in cons.eliminated
    }


def expected_as_dict(raw):
    return {v: (c, dict(co)) for v, (c, co) in raw.items()}


def identity_pencil_problem():
    # strictly feasible: the pencil at y = 0 is the identity
    pencil = MatrixPencil.from_upper(
        2, "exact", [(0, 0, 1), (1, 1, 1)], [("y", [(0, 0, 1), (1, 1, -1)])]
    )
    return SdpProblem(pencil=pencil, objective=(quad(1),), name="identity-pencil")


class TestAlternativeProblem:
    def test_toy_alternative_contains_basis_solutions(self):
        toy = chsh_toy_pencil()
        for idx in (3, 4):
            X = qzeros(5)
            X[idx, idx] = quad(1)
            assert verify_certificate_matrix(toy, X) == []

    def test_strictly_feasible_encodes_infeasible_alternative(self):
        alt = build_alternative_problem(identity_pencil_problem())
        assert "infeasible" in alt.note
        assert alt.pencil.m == 0

    def test_problem1_alternative_solutions_supported_on_span(self):
        prob = almost_quantum_pencil(line1())
        v1, v2 = line1_null_vectors()
        X = qzeros(9)
        for v, w in ((v1, quad(Fraction(1, 8))), (v2, quad(Fraction(1, 4)))):
            for i in range(9):
                for j in range(9):
                    X[i, j] = X[i, j] + w * v[i] * v[j]
        assert verify_certificate_matrix(prob, X) == []
        alt = build_alternative_problem(prob)
        assert alt.pencil.m > 0
        assert all(not bool(b) for b in alt.objective)

    def test_alternative_problem_is_the_search_chart(self):
        prob = almost_quantum_pencil(line2())
        alt = build_alternative_problem(prob)
        X0, B = _float_slice_chart(prob)
        assert alt.pencil.scalar == "double"
        assert np.array_equal(alt.pencil.f0, X0)
        assert len(alt.pencil.terms) == len(B)
        assert all(np.array_equal(T, Bk) for T, Bk in zip(alt.pencil.terms, B))


class TestFindCertificate:
    def test_problem1_span(self):
        cert = find_reducing_certificate(almost_quantum_pencil(line1()))
        assert isinstance(cert, ReducingCertificate)
        assert_same_span(cert.range_vectors, line1_null_vectors())
        # each range vector lies in range(X) = ker(X)^perp, exactly
        for v in cert.range_vectors:
            for k in kernel_basis_exact(cert.X):
                dot = sum((as_quad(a) * as_quad(b) for a, b in zip(v, k)), quad(0))
                assert not bool(dot)

    def test_problem2_span(self):
        cert = find_reducing_certificate(almost_quantum_pencil(line2()))
        assert isinstance(cert, ReducingCertificate)
        assert_same_span(cert.range_vectors, line2_null_vectors())

    def test_toy_span(self):
        cert = find_reducing_certificate(chsh_toy_pencil())
        assert_same_span(cert.range_vectors, toy_null_vectors())

    def test_strictly_feasible_identity_pencil(self):
        out = find_reducing_certificate(identity_pencil_problem())
        assert isinstance(out, StrictlyFeasible)
        assert out.exact

    def test_empty_slice_is_exact_verdict(self):
        # no nonzero symmetric 2x2 matrix is orthogonal to I, diag(1, -1)
        # and the off-diagonal unit
        pencil = MatrixPencil.from_upper(
            2,
            "exact",
            [(0, 0, 1), (1, 1, 1)],
            [("y1", [(0, 0, 1), (1, 1, -1)]), ("y2", [(0, 1, 1)])],
        )
        prob = SdpProblem(pencil=pencil, objective=(quad(0), quad(0)), name="empty")
        out = find_reducing_certificate(prob)
        assert isinstance(out, StrictlyFeasible)
        assert out.exact
        assert "no nonzero symmetric matrix" in out.detail
        assert out.detail.endswith("; F(y) is positive definite at y1 = 0, y2 = 0")

    def test_traceless_slice_is_exact_verdict(self):
        # f0 = I and no variables: the orthogonal slice is tr X = 0
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 0, 1), (1, 1, 1)], [])
        prob = SdpProblem(pencil=pencil, objective=(), name="traceless")
        out = find_reducing_certificate(prob)
        assert isinstance(out, StrictlyFeasible)
        assert out.exact
        assert "traceless" in out.detail
        assert out.detail.endswith("; F0 is positive definite")

    def test_ill_conditioned_chart_with_definite_f0_is_exact_verdict(self):
        # diag(1, 1 + 1e-10) with no variables: the slice's trace functional
        # is ~1e-10 in floats, but I is not a multiple of f0, so there is no
        # exact traceless verdict; f0 is positive definite, so y = 0 proves
        # strict feasibility exactly
        pencil = MatrixPencil.from_upper(
            2, "exact", [(0, 0, 1), (1, 1, Fraction(10**10 + 1, 10**10))], []
        )
        prob = SdpProblem(pencil=pencil, objective=(), name="near-identity")
        out = find_reducing_certificate(prob)
        assert out == StrictlyFeasible(
            exact=True,
            tolerance=None,
            detail="F0 is positive definite, so y = 0 is a strictly feasible point",
        )

    def test_ill_conditioned_traceless_chart_raises(self):
        # the same near-identity matrix as the one variable's term, F0 = 0:
        # the chart looks traceless, I is not in the span, and y = 0 is no
        # witness, so there is no exact verdict to give
        pencil = MatrixPencil.from_upper(
            2, "exact", [], [("y", [(0, 0, 1), (1, 1, Fraction(10**10 + 1, 10**10))])]
        )
        prob = SdpProblem(pencil=pencil, objective=(quad(0),), name="near-identity-term")
        with pytest.raises(SolverFailedError, match="not positive definite"):
            find_reducing_certificate(prob)

    def test_traceless_verdict_names_its_witness(self):
        # I = 0 * F0 + F_1 with F0 the off-diagonal unit: c0 = 0, so the
        # witness is y = t with t = 1 + max row sum of |F0| = 2
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 1, 1)], [("y", [(0, 0, 1), (1, 1, 1)])])
        out = find_reducing_certificate(
            SdpProblem(pencil=pencil, objective=(quad(0),), name="offdiag-f0")
        )
        assert out.exact
        assert out.detail.endswith("; F(y) is positive definite at y = 2")
        # F0 = -I with dependent terms I and 2I: c0 shifts to 1
        pencil = MatrixPencil.from_upper(
            2,
            "exact",
            [(0, 0, -1), (1, 1, -1)],
            [("y", [(0, 0, 1), (1, 1, 1)]), ("z", [(0, 0, 2), (1, 1, 2)])],
        )
        out = find_reducing_certificate(
            SdpProblem(pencil=pencil, objective=(quad(0), quad(0)), name="shifted")
        )
        assert out.exact
        assert out.detail.endswith("; F(y) is positive definite at y = 2, z = 0")

    @pytest.mark.parametrize(
        "f0, terms",
        [
            # infeasible: y - 1 >= 0 and -y - 1 >= 0
            ([(0, 0, -1), (1, 1, -1)], [("y", [(0, 0, 1), (1, 1, -1)])]),
            # infeasible: F0 = -I, no variables
            ([(0, 0, -1), (1, 1, -1)], []),
            # infeasible: the (1, 1) entry is -2 whatever y is
            ([(0, 0, -1), (1, 1, -2)], [("y", [(0, 0, 1)])]),
            # strictly feasible for y > 1, but no cheap witness: y = 0 fails
            ([(0, 0, -1), (1, 1, -1)], [("y", [(0, 0, 1), (1, 1, 2)])]),
        ],
    )
    def test_traceless_pencil_without_witness_gets_no_exact_proof(self, f0, terms):
        # I is in the span of the pencil matrices only with a negative F0
        # coefficient: that proves the homogenized pencil strictly feasible,
        # not this one
        pencil = MatrixPencil.from_upper(2, "exact", f0, terms)
        prob = SdpProblem(pencil=pencil, objective=tuple(quad(0) for _ in terms))
        with pytest.raises(SolverFailedError, match="no witness y"):
            find_reducing_certificate(prob)

    def test_irrational_face_rounds_over_sqrt5(self):
        prob = golden_face_problem()
        cert = find_reducing_certificate(prob)
        assert cert.note == "face-projector rounding at max_den=100 over Q(sqrt5); rank 1"
        assert verify_certificate_matrix(prob, cert.X) == []
        assert_same_span(cert.range_vectors, [[quad(2), quad(-1, -1), quad(1, 1)]])

    def test_numeric_strictly_feasible_verdict(self):
        # the orthogonal slice holds trace-one matrices but none PSD:
        # X orthogonal to diag(3, 1) means X = a diag(1, -3) + s offdiag,
        # always indefinite when nonzero
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 0, 3), (1, 1, 1)], [])
        prob = SdpProblem(pencil=pencil, objective=(), name="indefinite-slice")
        out = find_reducing_certificate(prob)
        assert isinstance(out, StrictlyFeasible)
        assert not out.exact
        assert out.tolerance is not None

    def test_rank_steps_down_past_spurious_eigenvalue(self):
        # a margin iterate ~sqrt(gap) off the face: the rank-1 certificate
        # plus a 1e-4 eigenvalue that the rank cutoff counts; no rank-2
        # projector rounds, so the search must step down to rank 1
        prob = planted_chain_problem()
        face = [int(x) for x in np.rint(np.linalg.inv(PLANTED_U)[:, 0])]
        u = np.array(face, dtype=float) / np.linalg.norm(face)
        w = np.random.default_rng(7).standard_normal(3)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        Xnum = np.outer(u, u) + 1e-4 * np.outer(w, w)
        cert, reason = _face_split_certificate(prob, Xnum)
        assert reason is None
        assert cert.rank == 1
        assert verify_certificate_matrix(prob, cert.X) == []
        assert_same_span(cert.range_vectors, [face])

    def test_certificates_are_exactly_verified(self):
        for prob in (chsh_toy_pencil(), almost_quantum_pencil(line1())):
            cert = find_reducing_certificate(prob)
            assert verify_certificate_matrix(prob, cert.X) == []
            tr = sum((as_quad(cert.X[i, i]) for i in range(prob.pencil.n)), quad(0))
            assert tr == quad(1)


class TestFloatSliceChart:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: almost_quantum_pencil(line1()),
            lambda: almost_quantum_pencil(line2()),
            chsh_toy_pencil,
        ],
        ids=["line1", "line2", "toy"],
    )
    def test_chart_is_orthonormal_trace_one_slice(self, make):
        prob = make()
        p = prob.pencil
        X0, B = _float_slice_chart(prob)
        assert np.trace(X0) == pytest.approx(1.0, abs=1e-12)
        gram = np.array([[np.sum(a * b) for b in B] for a in B])
        assert np.abs(gram - np.eye(len(B))).max() < 1e-12
        for Q in (p.f0, *p.terms):
            Qf = to_float(Q)
            for M in (X0, *B):
                assert abs(np.sum(Qf * M)) < 1e-12
        for Bk in B:
            assert abs(np.trace(Bk)) < 1e-12
        pairs = list(zip(*np.triu_indices(p.n)))
        # the functionals of the pencil's split are the constraint rows of
        # the pencil matrices themselves
        K = _upper_functionals(p.split).join()
        assert np.array_equal(K, reference_constraint_rows((p.f0, *p.terms), pairs))
        assert len(B) == len(nullspace_exact(K)) - 1


    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_chart_stack_is_the_per_vector_build(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        k = data.draw(st.integers(min_value=1, max_value=4))
        entry = st.one_of(
            st.floats(min_value=-2, max_value=2),
            st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 9.9e-14, -1.1e-13, 5e-324]),
        )
        size = n * (n + 1) // 2
        coords = np.array(
            data.draw(st.lists(st.lists(entry, min_size=size, max_size=size), min_size=k, max_size=k))
        )
        got = _chart_matrices(coords, n)
        want = np.stack(reference_chart_matrices(coords, n))
        assert got.shape == (k, n, n)
        assert got.tobytes() == want.tobytes()


# floats at and around each rational rung's zero bound 1/(2 den), with
# either sign, next to signed zeros and generic and near-rational values
_ZERO_BOUNDS = sorted({1 / (2 * den) for den, extension, _ in ROUNDING_LADDER if not extension})
snap_floats = st.one_of(
    st.sampled_from(
        [
            s * v
            for h in _ZERO_BOUNDS
            for v in (h, math.nextafter(h, 0), math.nextafter(h, 1), 0.999 * h, 1.001 * h)
            for s in (1, -1)
        ]
        + [0.0, -0.0, 1e-7, -1e-7, 5e-324]
        + [s * tol for _, _, tol in ROUNDING_LADDER for s in (1, -1)]
    ),
    st.floats(min_value=-2, max_value=2),
    st.tuples(
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=-1e-5, max_value=1e-5),
    ).map(lambda t: t[0] / t[1] + t[2]),
    st.sampled_from([(1 + 5**0.5) / 2, 5**0.5 - 2, 0.1803398875, -0.1779982111]),
)


class TestSnaps:
    """The once-per-entry snapper of the rounding ladder against the
    reconstruction it replaces, rung by rung."""

    @given(st.lists(snap_floats, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_snaps_equal_reconstruction_rung_by_rung(self, xs):
        snaps = _Snaps(np.array(xs))
        for den, extension, tol in ROUNDING_LADDER:
            want = [
                reconstruct_quadext(x, den) if extension else reconstruct_rational(x, den, tol)
                for x in xs
            ]
            want = None if any(w is None for w in want) else want
            assert repr(snaps.at(den, extension, tol)) == repr(want)

    @pytest.mark.parametrize("den", [1, 2, 3, 100, 10**4, 10**6])
    def test_rational_snaps_at_the_zero_bound(self, den):
        # a few ulps either side of 1/(2 den), where the float test of the
        # zero path and the exact bound can disagree, under tolerances both
        # tighter and looser than the bound
        xs = []
        for direction in (0.0, math.inf):
            x = 1 / (2 * den)
            for _ in range(4):
                xs += [x, -x]
                x = math.nextafter(x, direction)
        for tol in (1.0, 1 / den, 1e-3, 1e-6):
            snaps = _Snaps(xs)
            want = [reconstruct_rational(x, den, tol) for x in xs]
            for k, x in enumerate(xs):
                assert repr(_Snaps([x]).at(den, False, tol)) == repr(
                    None if want[k] is None else [want[k]]
                )
            assert repr(snaps.at(den, False, tol)) == repr(
                None if None in want else want
            )

    def test_zero_snap_rejected_by_tolerance(self):
        # 0.004 < 1/200 snaps to 0 at max_den 100, but lies further than 1e-3
        # from it
        assert reconstruct_rational(0.004, 100, 1e-3) is None
        assert _Snaps([0.5, 0.004]).at(100, False, 1e-3) is None
        assert _Snaps([0.5, -0.0009]).at(100, False, 1e-3) == [Fraction(1, 2), Fraction(0)]

    def test_signed_zeros(self):
        for den, extension, tol in ROUNDING_LADDER:
            got = _Snaps([0.0, -0.0]).at(den, extension, tol)
            assert repr(got) == repr([Fraction(0)] * 2 if not extension else [quad(0)] * 2)


class TestProjectorSplit:
    """The rounded projector, split from its snapped upper triangle and
    tested for P @ P == P on the integers."""

    @pytest.mark.parametrize(
        "coords,n,projector",
        [
            # diag(1, 0) and the rank-one projector onto (1, 1)
            ([Fraction(1), Fraction(0), Fraction(0)], 2, True),
            ([Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)], 2, True),
            ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)], 2, False),
            # onto (1, phi): entries (1, phi, phi^2)/(1 + phi^2), in Q(sqrt5)
            ([quad("1/2", "-1/10"), quad(0, "1/5"), quad("1/2", "1/10")], 2, True),
            ([quad("1/2", "-1/10"), quad(0, "1/5"), quad("1/2", "1/9")], 2, False),
            ([quad(1), quad(0), quad(0, 1)], 2, False),
        ],
    )
    def test_projector_test(self, coords, n, projector):
        P = _symmetric_split(coords, n)
        full = P.join()
        pairs = zip(*np.triu_indices(n))
        assert all(full[i, j] == full[j, i] == as_quad(c) for (i, j), c in zip(pairs, coords))
        assert _is_projector(P) is projector
        assert np.array_equal(reference_qmatmul(full, full), full) is projector

    @given(st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3)]), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_projector_test_matches_quadext_products(self, coords):
        P = _symmetric_split(coords, 3)
        full = P.join()
        assert _is_projector(P) is np.array_equal(reference_qmatmul(full, full), full)


class TestRangeReuse:
    """Range vectors taken from the face basis W equal the row-space pass
    over X that they replace."""

    @pytest.mark.parametrize(
        "make",
        [
            planted_chain_problem,
            golden_face_problem,
            lambda: planted_chain(np.random.default_rng(4), 4, 2),
            lambda: planted_chain(np.random.default_rng(4), 4, 2, sqrt5=True),
            lambda: planted_chain(np.random.default_rng(8), 8, 2),
            lambda: planted_chain(np.random.default_rng(8), 8, 2, sqrt5=True),
            lambda: almost_quantum_pencil(line1()),
            lambda: almost_quantum_pencil(line2()),
        ],
        ids=["chain", "golden", "n4", "n4-sqrt5", "n8", "n8-sqrt5", "line1", "line2"],
    )
    def test_every_certificate_of_a_reduction(self, make, monkeypatch):
        certs = []
        search = facial.find_reducing_certificate

        def spy(prob):
            out = search(prob)
            certs.append(out)
            return out

        monkeypatch.setattr(facial, "find_reducing_certificate", spy)
        reduce_problem(make())
        certs = [c for c in certs if isinstance(c, ReducingCertificate)]
        assert certs
        for cert in certs:
            want = [primitive_integer_vector(v) for v in row_space_basis_exact(cert.X)]
            assert repr(list(cert.range_vectors)) == repr(want)

    def test_singular_face_coordinates_take_the_row_space_pass(self):
        # the face span(e0, e1) rounds exactly, but X = diag(1, 0, 0) gives
        # M = diag(1, 0): range(X) is smaller than the face, so the range
        # vectors come from X itself
        pencil = MatrixPencil.from_upper(3, "exact", [(2, 2, 1)], [])
        prob = SdpProblem(pencil=pencil, objective=())
        cert, reason = _round_face(prob, np.diag([1.0, 0.0, 0.0]), np.eye(3)[:, :2])
        assert reason is None
        assert cert.rank == 1
        assert [list(v) for v in cert.range_vectors] == [[quad(1), quad(0), quad(0)]]
        assert cert.note == "face-projector rounding at max_den=100; rank 1"


def certificate_digest(certs) -> str:
    """sha256 of the certificates' report form, canonical JSON."""
    doc = json.dumps([c.as_dict() for c in certs], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


class TestPinnedCertificates:
    """Certificates stay byte-identical across refactors of the rounding:
    the digests of their report form are pinned."""

    @pytest.mark.parametrize(
        "make, digest",
        [
            (lambda: almost_quantum_pencil(line1()),
             "ce321ebcb74b23c8ea75c019c33ec476276682800374f16cc82f47cdfadd2371"),
            (lambda: almost_quantum_pencil(line2()),
             "7e25097bd96b5bd31ca94317d1ef37c73abe7a467e297a09414946bd221cba7f"),
            (chsh_toy_pencil,
             "93a0b3ce8235df69b9e1b4c79278fbea4347ac445c6a8486e0d8a561870194da"),
        ],
        ids=["line1", "line2", "toy"],
    )
    def test_bundled_raw_problems(self, make, digest):
        assert certificate_digest([find_reducing_certificate(make())]) == digest

    @pytest.mark.parametrize("sqrt5", [False, True], ids=["Q", "Q(sqrt5)"])
    @pytest.mark.parametrize(
        "n, digest",
        [
            (4, "5fa2e4104557dca61991fe2017fc22a542c02982f24dfcf090698a1cfeced3da"),
            (8, "f0fdc5458dd92c57e53f2f758b4df447546cfc18e86b30fe489d49bb2cb01e77"),
        ],
        ids=["n4", "n8"],
    )
    def test_planted_chains_of_degree_two(self, n, digest, sqrt5):
        _, rounds, _ = reduce_problem(planted_chain(np.random.default_rng(n), n, 2, sqrt5))
        assert certificate_digest([r.certificate for r in rounds]) == digest


class TestAffineSolve:
    def test_particular_and_homogeneous(self):
        K = qarray([[1, 2], [2, 4]])
        particular, homogeneous = _affine_solve_exact(K, [quad(1), quad(2)])
        assert list(particular) == [quad(1), quad(0)]
        assert [list(h) for h in homogeneous] == [[quad(-2), quad(1)]]

    def test_unique_solution_has_no_homogeneous_part(self):
        particular, homogeneous = _affine_solve_exact(qarray([[2]]), [quad(3)])
        assert list(particular) == [quad(Fraction(3, 2))]
        assert homogeneous == []

    @pytest.mark.parametrize(
        "K, rhs",
        [([[1, 2], [2, 4]], [1, 3]), ([[1], [0]], [0, 1])],
        ids=["rank-deficient", "no-free-column"],
    )
    def test_inconsistent_is_none(self, K, rhs):
        assert _affine_solve_exact(qarray(K), [quad(r) for r in rhs]) is None


class TestNullVectors:
    def test_rank_one_projector(self):
        X = qzeros(5)
        X[3, 3] = quad(1)
        cert = ReducingCertificate(X=X, range_vectors=())
        vecs = [primitive_integer_vector(v) for v in row_space_basis_exact(cert.X)]
        assert len(vecs) == 1
        assert list(vecs[0]) == [quad(0), quad(0), quad(0), quad(1), quad(0)]

    def test_vectors_are_primitive(self):
        cert = find_reducing_certificate(almost_quantum_pencil(line1()))
        for v in cert.range_vectors:
            entries = [x for x in v]
            assert all(x.is_rational and x.a.denominator == 1 for x in entries)
            lead = next(x for x in entries if bool(x))
            assert lead > 0


class TestDeriveConstraints:
    def test_problem1_relations_match(self):
        prob = almost_quantum_pencil(line1())
        cons = derive_implicit_constraints(prob, line1_null_vectors())
        assert relations_as_dict(cons) == expected_as_dict(line1_expected_relations())

    def test_problem2_relations_match(self):
        prob = almost_quantum_pencil(line2())
        cons = derive_implicit_constraints(prob, line2_null_vectors())
        assert relations_as_dict(cons) == expected_as_dict(line2_expected_relations())

    def test_toy_relations_match(self):
        cons = derive_implicit_constraints(chsh_toy_pencil(), toy_null_vectors())
        assert relations_as_dict(cons) == expected_as_dict(toy_expected_relations())

    def test_objective_variable_never_eliminated(self):
        prob = almost_quantum_pencil(line2())
        cons = derive_implicit_constraints(prob, line2_null_vectors())
        assert "mu" not in cons.eliminated_names

    def test_inconsistent_constraints_detected(self):
        pencil = MatrixPencil.from_upper(1, "exact", [(0, 0, 1)], [])
        prob = SdpProblem(pencil=pencil, objective=(), name="bad")
        with pytest.raises(InconsistentConstraintsError):
            derive_implicit_constraints(prob, [qarray([[1]])[0]])


class TestApplyConstraints:
    def test_problem1_reduction_matches_golden(self):
        raw = almost_quantum_pencil(line1())
        cons = derive_implicit_constraints(raw, line1_null_vectors())
        assert_problems_equal(apply_constraints(raw, cons), problem1_simplified())

    def test_problem2_reduction_matches_golden(self):
        raw = almost_quantum_pencil(line2())
        cons = derive_implicit_constraints(raw, line2_null_vectors())
        assert_problems_equal(apply_constraints(raw, cons), problem2_simplified())

    def test_toy_reduction_matches_golden(self):
        raw = chsh_toy_pencil()
        cons = derive_implicit_constraints(raw, toy_null_vectors())
        assert_problems_equal(apply_constraints(raw, cons), chsh_toy_simplified())

    def test_empty_constraint_set_is_identity(self):
        raw = chsh_toy_pencil()
        empty = derive_implicit_constraints(raw, [])
        assert apply_constraints(raw, empty) is raw

    def test_substitution_correctness_random_lifts(self):
        rng = random.Random(2024)
        raw = almost_quantum_pencil(line1())
        cons = derive_implicit_constraints(raw, line1_null_vectors())
        reduced = apply_constraints(raw, cons)
        for _ in range(100):
            partial = {
                v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for v in reduced.var_names
            }
            full = lift_assignment(cons, partial)
            A = pencil_eval(reduced.pencil, partial)
            Bm = pencil_eval(raw.pencil, full)
            assert all(A[i, j] == Bm[i, j] for i in range(9) for j in range(9))


def random_relations(prob, rng):
    """Eliminate about half the variables by random affine expressions in the
    rest, with rational and Q(sqrt5) constants and coefficients."""
    names = list(prob.var_names)
    gone = set(rng.sample(names, max(1, len(names) // 2)))
    keep = [v for v in names if v not in gone]

    def scalar():
        a = Fraction(rng.randint(-2**80, 2**80), rng.randint(1, 9))
        return quad(a, Fraction(rng.randint(-3, 3), 2)) if rng.random() < 0.5 else quad(a)

    eliminated = tuple(
        (v, AffineExpr(const=scalar(), coeffs={w: scalar() for w in keep if rng.random() < 0.6}))
        for v in names
        if v in gone
    )
    return ImplicitConstraintSet(equations=(), eliminated=eliminated)


def assert_same_problem(got, want):
    assert problem_to_json_str(got) == problem_to_json_str(want)
    assert (got.name, got.note) == (want.name, want.note)
    assert got.objective_offset == want.objective_offset
    mats = [got.pencil.f0, *got.pencil.terms, np.array(got.objective, dtype=object)]
    assert all(isinstance(x, QuadExt) for M in mats for x in M.flat)
    assert_problems_equal(got, want)


class TestSubstitutionProduct:
    """`apply_constraints` as one product, against substitution one variable
    and one matrix at a time."""

    @pytest.mark.parametrize(
        "line, vectors",
        [(line1, line1_null_vectors), (line2, line2_null_vectors)],
        ids=["line1", "line2"],
    )
    def test_bell_lines(self, line, vectors):
        raw = almost_quantum_pencil(line())
        cons = derive_implicit_constraints(raw, vectors())
        assert_same_problem(apply_constraints(raw, cons), reference_apply_constraints(raw, cons))
        rng = random.Random(line().name)
        cons = random_relations(raw, rng)
        assert_same_problem(apply_constraints(raw, cons), reference_apply_constraints(raw, cons))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: planted_chain(np.random.default_rng(4), 4, 2),
            lambda: planted_chain(np.random.default_rng(4), 4, 2, sqrt5=True),
            lambda: planted_chain(np.random.default_rng(8), 8, 2),
            lambda: planted_chain(np.random.default_rng(8), 8, 2, sqrt5=True),
            golden_face_problem,
        ],
        ids=["n4-rational", "n4-sqrt5", "n8-rational", "n8-sqrt5", "golden-face"],
    )
    def test_planted_and_golden(self, make):
        prob = make()
        # the relation the reduction finds, v = 0, touches no kept row
        trivial = ((prob.var_names[0], AffineExpr(const=quad(0), coeffs={})),)
        cons = ImplicitConstraintSet(equations=(), eliminated=trivial)
        assert_same_problem(apply_constraints(prob, cons), reference_apply_constraints(prob, cons))
        rng = random.Random(prob.name)
        for _ in range(3):
            cons = random_relations(prob, rng)
            got = apply_constraints(prob, cons)
            assert_same_problem(got, reference_apply_constraints(prob, cons))
            if got.var_names:
                # a second round substitutes into a reduced problem, with its offset
                again = random_relations(got, rng)
                assert_same_problem(
                    apply_constraints(got, again), reference_apply_constraints(got, again)
                )

    def test_relation_on_an_eliminated_variable_is_rejected(self):
        # as in the reference: an expression may only use kept variables
        prob = planted_chain_problem()
        cons = ImplicitConstraintSet(
            equations=(),
            eliminated=(
                ("a", AffineExpr(const=quad(0), coeffs={"b": quad(1)})),
                ("b", AffineExpr(const=quad(1), coeffs={})),
            ),
        )
        with pytest.raises(KeyError):
            reference_apply_constraints(prob, cons)
        with pytest.raises(KeyError):
            apply_constraints(prob, cons)


class TestSoundness:
    def test_feasible_slack_annihilates_range_vectors(self):
        # at the known optimum of problem 1, the slack of the raw pencil
        # kills both certificate directions exactly
        raw = almost_quantum_pencil(line1())
        cons = derive_implicit_constraints(raw, line1_null_vectors())
        full = lift_assignment(cons, problem1_optimal_point())
        slack = pencil_eval(raw.pencil, full)
        for v in line1_null_vectors():
            assert all(not bool(x) for x in mat_vec(slack, v))

    def test_diagnosis_idempotent_on_reduced_problems(self):
        for prob in (problem1_simplified(), problem2_simplified(), chsh_toy_simplified()):
            out = find_reducing_certificate(prob)
            if isinstance(out, StrictlyFeasible):
                continue
            cons = derive_implicit_constraints(prob, out.range_vectors)
            assert cons.eliminated == ()

    def test_reduce_problem_two_rounds_on_planted_chain(self):
        raw = planted_chain_problem()
        final, rounds, _ = reduce_problem(raw)
        assert [r.constraints.eliminated_names for r in rounds] == [("a",), ("b",)]
        searched = [raw] + [r.problem for r in rounds[:-1]]
        for prob, r in zip(searched, rounds):
            ((_, expr),) = r.constraints.eliminated
            assert not bool(expr.const) and not expr.coeffs
            assert verify_certificate_matrix(prob, r.certificate.X) == []
        assert final.var_names == ("s",)
        # the suffix marks a reduced problem once, however many rounds ran
        assert [r.problem.name for r in rounds] == ["planted-chain-reduced"] * 2
        assert final.name == "planted-chain-reduced"

    @pytest.mark.parametrize("sqrt5", [False, True], ids=["rational", "sqrt5"])
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_reduce_problem_planted_degree_two(self, n, sqrt5):
        prob = planted_chain(np.random.default_rng(100 + n), n, 2, sqrt5)
        _, rounds, _ = reduce_problem(prob)
        assert [r.constraints.eliminated_names for r in rounds] == [("a1",), ("a2",)]
        for r in rounds:
            ((_, expr),) = r.constraints.eliminated
            assert not bool(expr.const) and not expr.coeffs

    @pytest.mark.xfail(strict=True, raises=RoundingFailedError)
    def test_reduce_problem_planted_degree_three(self):
        # the first margin iterate sits ~gap^(1/4) off the face, so no
        # projector of any rank rounds
        prob = planted_chain(np.random.default_rng(104), 4, 3)
        _, rounds, _ = reduce_problem(prob)
        assert [r.constraints.eliminated_names for r in rounds] == [
            ("a1",), ("a2",), ("a3",)
        ]

    def test_reduce_problem_golden_face(self):
        final, rounds, _ = reduce_problem(golden_face_problem())
        assert [r.constraints.eliminated_names for r in rounds] == [("b", "a")]
        for _, expr in rounds[0].constraints.eliminated:
            assert not bool(expr.const) and not expr.coeffs
        assert final.var_names == ("s12", "s11", "s22")

    def test_reduce_problem_loop_terminates(self):
        final, rounds, verdict = reduce_problem(chsh_toy_pencil())
        assert len(rounds) == 1
        assert final.var_names == ("pA0", "pA1", "a01")


class TestInfeasibleSide:
    """Infeasible pencils, whose verdicts are wrong today: both tests flip
    once infeasible input gets an exact Infeasible verdict."""

    @pytest.mark.xfail(strict=True, reason="the numeric branch calls it strictly feasible")
    def test_strongly_infeasible_pencil_is_never_strictly_feasible(self):
        # F0 = -diag(1, 2, 3), F_y = diag(1, -1, 1) + (E12 + E21)/3: the
        # Farkas matrix X = diag(0, 1, 1) has <F_y, X> = 0 and <F0, X> = -5
        pencil = MatrixPencil.from_upper(
            3,
            "exact",
            [(0, 0, -1), (1, 1, -2), (2, 2, -3)],
            [("y", [(0, 0, 1), (1, 1, -1), (2, 2, 1), (0, 1, Fraction(1, 3))])],
        )
        prob = SdpProblem(pencil=pencil, objective=(quad(0),), name="farkas")
        X = qarray([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert list(model.pencil_pairing(pencil, X)) == [quad(-5), quad(0)]
        assert not isinstance(find_reducing_certificate(prob), StrictlyFeasible)

    @pytest.mark.xfail(strict=True, raises=InconsistentConstraintsError)
    def test_weakly_infeasible_pencil_reduces_to_a_verdict(self):
        # F(y) = [[y, 1], [1, 0]]: the certificate e2 e2^T implies 1 = 0, an
        # exact proof of infeasibility that is raised as an error today
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 1, 1)], [("y", [(0, 0, 1)])])
        prob = SdpProblem(pencil=pencil, objective=(quad(1),), name="weakly-infeasible")
        reduce_problem(prob)


class TestExactProductSites:
    """The stacked exact products of facial, at their edges and against the
    loop-based products they replace."""

    def test_pencil_without_variables(self):
        # the stacked pencil is F0 alone
        pencil = MatrixPencil.from_upper(2, "exact", [(0, 0, 1)], [])
        prob = SdpProblem(pencil=pencil, objective=())
        assert verify_certificate_matrix(prob, qarray([[0, 0], [0, 1]])) == []
        assert verify_certificate_matrix(prob, qarray([[1, 0], [0, 1]])) == [
            "<F0, X> = 1 != 0"
        ]
        cons = derive_implicit_constraints(prob, [qarray([0, 1])])
        assert cons == ImplicitConstraintSet(equations=(), eliminated=())
        with pytest.raises(InconsistentConstraintsError, match="inconsistent"):
            derive_implicit_constraints(prob, [qarray([1, 0])])

    def test_verify_reports_a_wrong_shape_or_asymmetry(self):
        toy = chsh_toy_pencil()
        assert verify_certificate_matrix(toy, qarray([[1, 0], [0, 1]])) == [
            "X has shape (2, 2), expected (5, 5)"
        ]
        X = qzeros(5)
        X[3, 4] = quad(1)
        assert verify_certificate_matrix(toy, X) == ["X is not symmetric"]
        # a float X is a problem too, not a TypeError from its split
        assert verify_certificate_matrix(toy, np.eye(5)) == ["X has a non-exact entry"]

    def test_no_range_vectors(self):
        cons = derive_implicit_constraints(planted_chain_problem(), [])
        assert cons == ImplicitConstraintSet(equations=(), eliminated=())

    def test_verify_reports_every_nonzero_inner_product(self):
        prob = planted_chain_problem()
        problems = verify_certificate_matrix(prob, qarray(np.eye(3, dtype=int).tolist()))
        # <Q, I> = tr Q, in pencil order, for F0 and every term
        traces = [
            (label, sum(Q[i, i] for i in range(3)))
            for label, Q in zip(
                ("F0", "F_a", "F_b", "F_s"), (prob.pencil.f0, *prob.pencil.terms)
            )
        ]
        assert problems == [f"<{label}, X> = {t} != 0" for label, t in traces if t]
        assert len(problems) >= 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda: planted_chain(np.random.default_rng(4), 4, 2),
            lambda: planted_chain(np.random.default_rng(4), 4, 2, sqrt5=True),
            lambda: planted_chain(np.random.default_rng(8), 8, 2),
            lambda: planted_chain(np.random.default_rng(8), 8, 2, sqrt5=True),
            golden_face_problem,
        ],
        ids=["n4-rational", "n4-sqrt5", "n8-rational", "n8-sqrt5", "golden-face"],
    )
    def test_reduction_equals_loop_products(self, make, monkeypatch):
        prob = make()

        def outcome():
            final, rounds, verdict = reduce_problem(prob)
            X = rounds[0].certificate.X
            return (
                [(r.certificate.as_dict(), r.constraints.as_dict()) for r in rounds],
                problem_to_json_str(final),
                verdict,
                verify_certificate_matrix(prob, X + X),
                verify_certificate_matrix(prob, qarray(np.eye(prob.pencil.n, dtype=int).tolist())),
            )

        fast = outcome()
        # every pencil product (congruence, verification, derivation,
        # substitution) is a product of splits
        monkeypatch.setattr(QSplit, "__matmul__", reference_split_matmul)
        assert outcome() == fast


def assert_split_handed_on(pencil):
    """The pencil carries its stack's split, made without reading its
    Fractions, and equal by value to a fresh split over the same least
    common denominator."""
    assert "split" in vars(pencil)
    S, fresh = pencil.split, split(np.stack([pencil.f0, *pencil.terms]))
    assert S.shape == fresh.shape and S.d == fresh.d
    assert all(g == w for g, w in zip(S.join().flat, fresh.join().flat))


class TestSplitCarried:
    """A pencil is split once; a reduced pencil gets its split handed on."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: planted_chain(np.random.default_rng(4), 4, 2),
            lambda: planted_chain(np.random.default_rng(4), 4, 2, sqrt5=True),
            lambda: planted_chain(np.random.default_rng(8), 8, 2),
            lambda: planted_chain(np.random.default_rng(8), 8, 2, sqrt5=True),
            golden_face_problem,
        ],
        ids=["n4-rational", "n4-sqrt5", "n8-rational", "n8-sqrt5", "golden-face"],
    )
    def test_reduction_hands_on_the_split(self, make):
        prob = make()
        _, rounds, _ = reduce_problem(prob)
        assert rounds
        for r in rounds:
            assert_split_handed_on(r.problem.pencil)
        # relations that touch kept rows, with sqrt5 parts and denominators
        rng = random.Random(prob.name)
        for _ in range(2):
            assert_split_handed_on(apply_constraints(prob, random_relations(prob, rng)).pencil)

    @pytest.mark.parametrize(
        "line, vectors",
        [(line1, line1_null_vectors), (line2, line2_null_vectors)],
        ids=["line1", "line2"],
    )
    def test_bell_reductions_hand_on_the_split(self, line, vectors):
        raw = almost_quantum_pencil(line())
        cons = derive_implicit_constraints(raw, vectors())
        assert_split_handed_on(apply_constraints(raw, cons).pencil)

    def test_each_pencil_is_split_at_most_once(self, monkeypatch):
        prob = planted_chain(np.random.default_rng(8), 8, 2)
        seen = []

        def recording(X, real=exactnum.split):
            seen.append(X)
            return real(X)

        for module in (exactnum, model, facial, certify, solver, cli):
            if hasattr(module, "split"):
                monkeypatch.setattr(module, "split", recording)
        _, rounds, _ = reduce_problem(prob)
        assert len(rounds) == 2

        def splits_of(pencil):
            # the stack, or any one of its matrices, split from its Fractions
            mats = (pencil.f0, *pencil.terms)
            shape = (len(mats), pencil.n, pencil.n)
            return sum(
                any(X is M for M in mats)
                or (np.shape(X) == shape and np.array_equal(X, np.stack(mats)))
                for X in seen
                if not isinstance(X, QSplit)
            )

        assert splits_of(prob.pencil) == 1
        for r in rounds:
            assert "split" in vars(r.problem.pencil)
            assert splits_of(r.problem.pencil) == 0


class TestSerialization:
    def test_certificate_dict(self):
        cert = find_reducing_certificate(chsh_toy_pencil())
        doc = cert.as_dict()
        assert doc["n"] == 5
        assert len(doc["range_vectors"]) == 2

    def test_constraints_dict(self):
        cons = derive_implicit_constraints(chsh_toy_pencil(), toy_null_vectors())
        doc = cons.as_dict()
        assert len(doc["eliminated"]) == 5
        assert all(e["coeffs"] == {} and e["const"] == "0" for _, e in doc["eliminated"])


def assert_problems_equal(a, b):
    pa, pb = a.pencil, b.pencil
    assert pa.n == pb.n
    assert pa.var_names == pb.var_names
    for i in range(pa.n):
        for j in range(pa.n):
            assert pa.f0[i, j] == pb.f0[i, j], f"F0 at ({i},{j})"
    for name, ta, tb in zip(pa.var_names, pa.terms, pb.terms):
        for i in range(pa.n):
            for j in range(pa.n):
                assert ta[i, j] == tb[i, j], f"{name} at ({i},{j})"
    assert tuple(a.objective) == tuple(b.objective)
