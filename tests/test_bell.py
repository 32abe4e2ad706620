"""Tables, lines and moment pencils, golden-tested against literal transcripts."""

from fractions import Fraction

import numpy as np
import pytest

from strictfeas.bell import (
    ALPHA,
    BehaviorLine,
    CollinsGisinTable,
    ParameterOutOfRangeError,
    almost_quantum_pencil,
    builtin_points,
    chsh_toy_pencil,
    chsh_toy_simplified,
    line1,
    line2,
    line_behavior,
    problem1_simplified,
    problem2_simplified,
)
from strictfeas.exactnum import quad
from strictfeas.model import pencil_eval, validate

HALF = Fraction(1, 2)
SIXTH = Fraction(1, 6)

# entry tokens -> (const, {var: coeff}) for the problem-1 raw matrix
P1_TOKENS = {
    "1": (quad(1), {}),
    "1/2": (quad(HALF), {}),
    "D": (quad(Fraction(2, 3)), {"mu": quad(-SIXTH)}),  # (4 - mu)/6
    "K": (quad(Fraction(1, 3)), {"mu": quad(SIXTH)}),  # (mu + 2)/6
    "R": (quad(SIXTH), {"mu": quad(-SIXTH)}),  # (1 - mu)/6
}

# upper triangle of the problem-1 raw moment matrix, row by row
P1_RAW = [
    ["1", "1/2", "D", "1/2", "1/2", "K", "K", "1/2", "R"],
    ["1/2", "a01", "K", "K", "K", "K", "c01,0", "c01,1"],
    ["D", "1/2", "R", "c01,0", "c01,1", "1/2", "R"],
    ["1/2", "b01", "K", "c0,01", "1/2", "c1,01"],
    ["1/2", "c0,01", "K", "c1,01", "R"],
    ["K", "c0,01", "c01,0", "c01,01"],
    ["K", "c01,10", "c01,1"],
    ["1/2", "c1,01"],
    ["R"],
]

P2_TOKENS = {
    "1": (quad(1), {}),
    "0": (quad(0), {}),
    "K1": (ALPHA, {"mu": quad(HALF) - ALPHA}),  # mu/2 + alpha (1 - mu)
    "K2": (2 * ALPHA, {"mu": quad(HALF) - 2 * ALPHA}),
    "Hm": (quad(0), {"mu": quad(HALF)}),  # mu/2
}

P2_RAW = [
    ["1", "K1", "K2", "K1", "K2", "Hm", "K1", "K1", "0"],
    ["K1", "a01", "Hm", "K1", "Hm", "K1", "c01,0", "c01,1"],
    ["K2", "K1", "0", "c01,0", "c01,1", "K1", "0"],
    ["K1", "b01", "Hm", "c0,01", "K1", "c1,01"],
    ["K2", "c0,01", "K1", "c1,01", "0"],
    ["Hm", "c0,01", "c01,0", "c01,01"],
    ["K1", "c01,10", "c01,1"],
    ["K1", "c1,01"],
    ["0"],
]

TOY_TOKENS = {"1": (quad(1), {}), "0": (quad(0), {})}
TOY_RAW = [
    ["1", "pA0", "pA1", "0", "0"],
    ["pA0", "a01", "p00", "p01"],
    ["pA1", "p10", "p11"],
    ["0", "b01"],
    ["0"],
]


def entry_form(prob, i, j):
    """(const, {var: coeff}) of pencil entry (i, j), zero coefficients dropped."""
    const = prob.pencil.f0[i, j]
    coeffs = {}
    for name, term in zip(prob.pencil.var_names, prob.pencil.terms):
        if bool(term[i, j]):
            coeffs[name] = term[i, j]
    return const, coeffs


def assert_matches_golden(prob, golden_rows, tokens):
    n = prob.pencil.n
    for i in range(n):
        for off, token in enumerate(golden_rows[i]):
            j = i + off
            got = entry_form(prob, i, j)
            if token in tokens:
                want = tokens[token]
            else:  # a bare variable
                want = (quad(0), {token: quad(1)})
            assert got == want, f"entry ({i+1},{j+1}): got {got}, want {token}"


class TestBuiltinPoints:
    def test_pr_box_entries(self):
        pts = builtin_points()
        assert pts.P.p(1, 1) == quad(0)
        assert pts.P.p(0, 0) == quad(HALF)

    def test_local_point_marginal(self):
        assert builtin_points().L.pA(1) == quad(Fraction(2, 3))

    def test_hardy_point_alpha(self):
        pts = builtin_points()
        assert pts.H.p(0, 1) == ALPHA
        assert pts.alpha == quad(Fraction(9, 38), Fraction(-1, 38))

    def test_all_points_are_valid_behaviors(self):
        pts = builtin_points()
        for t in (pts.P, pts.L, pts.H):
            assert t.is_valid_behavior()

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            CollinsGisinTable.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError):
            CollinsGisinTable.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]])


class TestLines:
    def test_endpoints(self):
        l1 = line1()
        assert line_behavior(l1, 0).entries.tolist() == l1.endpoint_Q.entries.tolist()
        assert line_behavior(l1, 1).entries.tolist() == l1.endpoint_P.entries.tolist()

    def test_line1_alice_marginal(self):
        # pA(1) along problem 1 is (4 - mu)/6
        t = line_behavior(line1(), Fraction(1, 3))
        assert t.pA(1) == quad(Fraction(4, 1) - Fraction(1, 3)) / 6

    def test_line2_bob_marginal(self):
        # pB(1) along problem 2 is mu/2 + 2 alpha (1 - mu)
        mu = Fraction(1, 5)
        t = line_behavior(line2(), mu)
        assert t.pB(1) == quad(mu, 0) / 2 + 2 * ALPHA * (quad(1) - quad(mu))

    def test_affinity(self):
        l1 = line1()
        m1, m2 = Fraction(1, 5), Fraction(2, 5)
        lhs = line_behavior(l1, m1).entries + line_behavior(l1, m2).entries
        rhs = line_behavior(l1, 0).entries + line_behavior(l1, m1 + m2).entries
        assert all(lhs[i, j] == rhs[i, j] for i in range(3) for j in range(3))

    def test_out_of_range(self):
        with pytest.raises(ParameterOutOfRangeError):
            line_behavior(line1(), Fraction(3, 2))


class TestMomentPencils:
    def test_problem1_matches_golden(self):
        assert_matches_golden(almost_quantum_pencil(line1()), P1_RAW, P1_TOKENS)

    def test_problem2_matches_golden(self):
        assert_matches_golden(almost_quantum_pencil(line2()), P2_RAW, P2_TOKENS)

    def test_toy_matches_golden(self):
        assert_matches_golden(chsh_toy_pencil(), TOY_RAW, TOY_TOKENS)

    def test_variable_file_order(self):
        prob = almost_quantum_pencil(line1())
        assert prob.var_names == (
            "mu", "a01", "c01,0", "c01,1", "b01", "c0,01", "c1,01", "c01,01", "c01,10",
        )

    def test_simplified_goldens_validate(self):
        for prob in (problem1_simplified(), problem2_simplified(), chsh_toy_simplified()):
            assert validate(prob) == []

    def test_degenerate_line_has_no_mu_dependence(self):
        pts = builtin_points()
        line = BehaviorLine(endpoint_P=pts.P, endpoint_Q=pts.P, name="degenerate")
        prob = almost_quantum_pencil(line)
        assert not np.any([bool(x) for x in prob.pencil.term("mu").ravel()])

    def test_marginal_consistency(self):
        # diagonal moments repeat the table marginals: (Ax,Ax) = pA(x), etc.
        prob = almost_quantum_pencil(line2())
        mu = Fraction(1, 7)
        M = pencil_eval(
            prob.pencil,
            {v: 0 if v != "mu" else mu for v in prob.var_names},
        )
        t = line_behavior(line2(), mu)
        assert M[1, 1] == t.pA(0) and M[2, 2] == t.pA(1)
        assert M[3, 3] == t.pB(0) and M[4, 4] == t.pB(1)
        for x in (0, 1):
            for y in (0, 1):
                assert M[1 + x, 3 + y] == t.p(x, y)

    def test_repeated_entries_share_expressions(self):
        # (1, A0B0) and (A0, B0) carry the same reduced word
        prob = almost_quantum_pencil(line1())
        assert entry_form(prob, 0, 5) == entry_form(prob, 1, 3)

    def test_toy_objective(self):
        prob = chsh_toy_pencil()
        got = dict(zip(prob.var_names, prob.objective))
        assert got["pA0"] == quad(-1)
        assert got["p11"] == quad(-1)
        assert got["p00"] == got["p01"] == got["p10"] == quad(1)
        assert not bool(got["a01"]) and not bool(got["b01"])


class TestKnownPoints:
    def test_problem1_point_gives_psd_like_matrix_diag(self):
        from strictfeas.bell import problem1_optimal_point

        prob = problem1_simplified()
        M = pencil_eval(prob.pencil, problem1_optimal_point())
        assert M[0, 0] == quad(1)
        assert M[1, 2] == quad(Fraction(1, 3))  # a01

    def test_problem2_diag_zero_row(self):
        prob = problem2_simplified()
        M = pencil_eval(prob.pencil, {"mu": Fraction(1, 10)})
        assert all(not bool(M[8, j]) for j in range(9))

    def test_toy_primal_reading_minimizes_corner_entry(self):
        # the primal counterpart of the toy minimizes <F0, X> = X[0,0]
        from strictfeas.exactnum import qzeros
        from strictfeas.model import pencil_pairing

        X = qzeros(5)
        X[0, 0] = quad(7)
        X[2, 2] = quad(3)  # does not enter the objective
        assert pencil_pairing(chsh_toy_pencil().pencil, X)[0] == quad(7)

    def test_toy_at_zero_assignment(self):
        # all variables zero leaves only the normalization corner, which is PSD
        from strictfeas.exactnum import psd_check_exact, quad

        prob = chsh_toy_pencil()
        M = pencil_eval(prob.pencil, {v: 0 for v in prob.var_names})
        assert M[0, 0] == quad(1)
        assert all(
            not bool(M[i, j]) for i in range(5) for j in range(5) if (i, j) != (0, 0)
        )
        assert psd_check_exact(M).is_psd
