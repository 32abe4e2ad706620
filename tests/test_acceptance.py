"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; "exact" means zero tolerance over Q(sqrt5).
"""

import random
import time
from fractions import Fraction

import numpy as np

from strictfeas import bell, certify
from strictfeas.cli import main
from strictfeas.exactnum import (
    QuadExt,
    as_quad,
    psd_check_exact,
    qsign,
    quad,
    qzeros,
    reconstruct_quadext,
    reconstruct_rational,
    rref_exact,
)
from strictfeas.facial import (
    ReducingCertificate,
    apply_constraints,
    certify_optimum,
    derive_implicit_constraints,
    find_reducing_certificate,
    reduce_problem,
)
from strictfeas.model import StatusTag, to_double
from strictfeas.solver import solve_sdp

from helpers import (
    decimal_sign,
    problem1_optimal_point,
    problem2_bound_matrix,
    quadratic_form,
    random_certified_sdp,
)


def report(num: int, description: str, ok: bool, elapsed: float | None = None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}{stamp}")
    assert ok, f"criterion {num} failed: {description}"


def span_canonical(vectors):
    M = np.array([[as_quad(x) for x in v] for v in vectors], dtype=object)
    R, pivots = rref_exact(M)
    return tuple(tuple(R[r]) for r in sorted(pivots.values()))


def problems_equal(a, b) -> bool:
    pa, pb = a.pencil, b.pencil
    if pa.n != pb.n or pa.var_names != pb.var_names:
        return False
    for ma, mb in [(pa.f0, pb.f0), *zip(pa.terms, pb.terms)]:
        for i in range(pa.n):
            for j in range(pa.n):
                if ma[i, j] != mb[i, j]:
                    return False
    return tuple(a.objective) == tuple(b.objective)


def test_criterion_1_problem1_optimum_certified_exactly():
    # the timed budget covers the reduced solve and its exact rounding; the
    # end-to-end reproduction is asserted untimed
    t0 = time.perf_counter()
    prob = bell.problem1_simplified()
    point, feas, bound = certify_optimum(prob, solve_sdp(to_double(prob)))
    elapsed = time.perf_counter() - t0
    ok = (
        feas.feasible
        and point == problem1_optimal_point()
        and certify.verify_primal_point(prob, point).feasible
        and bound.certified_bound == quad(0)
        and elapsed < 1.0
    )
    ok = ok and main(["reproduce", "problem1"]) == 0
    report(1, "problem 1 optimum is exactly 0 (feasible point + dual certificate)", ok, elapsed)


def test_criterion_2_problem2_optimum():
    t0 = time.perf_counter()
    prob = bell.problem2_simplified()
    mu_star = certify.MU2_STAR
    from strictfeas.model import pencil_eval

    at_star = psd_check_exact(pencil_eval(prob.pencil, {"mu": mu_star}))
    just_above = psd_check_exact(
        pencil_eval(prob.pencil, {"mu": mu_star + quad(Fraction(1, 1000))})
    )
    res = solve_sdp(to_double(prob))
    point, feas, bound = certify_optimum(prob, res)
    # the reference dual matrix of the source paper certifies the same bound
    reference = certify.verify_bound_certificate(prob, problem2_bound_matrix())
    elapsed = time.perf_counter() - t0
    ok = (
        at_star.is_psd
        and not just_above.is_psd
        and feas.feasible
        and point == {"mu": mu_star}
        and bound.certified_bound == mu_star
        and reference.certified_bound == mu_star
        and res.status.tag is StatusTag.OPTIMAL
        and abs(res.objective_dual - 0.1803398875) <= 1e-6
        and elapsed < 1.0
    )
    report(2, "problem 2: exact PSD at 5*sqrt5-11, exact failure at +1/1000, "
              "dual certificate of mu <= 5*sqrt5-11 rounded from the solve, "
              "numeric solve within 1e-6",
           ok, elapsed)


def test_criterion_3_null_vector_recovery():
    budgets_ok = True
    spans_ok = True
    elapsed_total = 0.0
    for build, expected in (
        (lambda: bell.almost_quantum_pencil(bell.line1()), bell.line1_null_vectors()),
        (lambda: bell.almost_quantum_pencil(bell.line2()), bell.line2_null_vectors()),
    ):
        t0 = time.perf_counter()
        cert = find_reducing_certificate(build())
        elapsed = time.perf_counter() - t0
        elapsed_total += elapsed
        budgets_ok = budgets_ok and elapsed < 5.0
        spans_ok = spans_ok and isinstance(cert, ReducingCertificate)
        spans_ok = spans_ok and span_canonical(cert.range_vectors) == span_canonical(expected)
    report(3, "diagnosis recovers the exact certificate ranges for both problems",
           spans_ok and budgets_ok, elapsed_total)


def test_criterion_4_constraint_derivation():
    ok = True
    for build, vectors, expected in (
        (lambda: bell.almost_quantum_pencil(bell.line1()), bell.line1_null_vectors(),
         bell.line1_expected_relations()),
        (lambda: bell.almost_quantum_pencil(bell.line2()), bell.line2_null_vectors(),
         bell.line2_expected_relations()),
        (bell.chsh_toy_pencil, bell.toy_null_vectors(), bell.toy_expected_relations()),
    ):
        cons = derive_implicit_constraints(build(), vectors)
        got = {v: (e.const, dict(e.coeffs)) for v, e in cons.eliminated}
        want = {v: (c, dict(co)) for v, (c, co) in expected.items()}
        ok = ok and got == want
    report(4, "implicit constraint sets match the known relations symbol for symbol", ok)


def test_criterion_5_reduction_fidelity():
    ok = True
    for build, vectors, golden in (
        (lambda: bell.almost_quantum_pencil(bell.line1()), bell.line1_null_vectors(),
         bell.problem1_simplified()),
        (lambda: bell.almost_quantum_pencil(bell.line2()), bell.line2_null_vectors(),
         bell.problem2_simplified()),
        (bell.chsh_toy_pencil, bell.toy_null_vectors(), bell.chsh_toy_simplified()),
    ):
        raw = build()
        reduced = apply_constraints(raw, derive_implicit_constraints(raw, vectors))
        ok = ok and problems_equal(reduced, golden)
    report(5, "substitution reproduces all three hand-entered reduced pencils exactly", ok)


def test_criterion_6_failure_mode_reproduction():
    t0 = time.perf_counter()
    certified = {
        "problem1": 0.0,
        "problem2": float(certify.MU2_STAR),
        "chsh-toy": 0.0,
    }
    raws = {
        "problem1": bell.almost_quantum_pencil(bell.line1()),
        "problem2": bell.almost_quantum_pencil(bell.line2()),
        "chsh-toy": bell.chsh_toy_pencil(),
    }
    reduceds = {
        "problem1": bell.problem1_simplified(),
        "problem2": bell.problem2_simplified(),
        "chsh-toy": bell.chsh_toy_simplified(),
    }
    ok = True
    for key in raws:
        res = solve_sdp(to_double(raws[key]))
        signature = (
            res.status.tag is not StatusTag.OPTIMAL
            or res.diagnostics.max_abs_variable > 1e6
            or abs(res.objective_dual - certified[key]) > 1e-6
        )
        ok = ok and signature
        res = solve_sdp(to_double(reduceds[key]))
        ok = ok and res.status.tag is StatusTag.OPTIMAL
        ok = ok and abs(res.objective_dual - certified[key]) <= 1e-6
        ok = ok and res.diagnostics.max_abs_variable < 1e3
        # the problem `reproduce` solves: the reduction loop's final, on its face
        final, _, _ = reduce_problem(raws[key])
        res = solve_sdp(to_double(final))
        ok = ok and res.status.tag is StatusTag.OPTIMAL
        ok = ok and abs(res.objective_dual - certified[key]) <= 1e-6
        ok = ok and res.diagnostics.max_abs_variable < 1e3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(6, "raw problems trigger the trouble signature; reduced ones solve cleanly",
           ok, elapsed)


def test_criterion_7_solver_baseline():
    rng = np.random.default_rng(424242)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        m = min(m, n * (n + 1) // 2 - 1)
        prob, optimum, _ = random_certified_sdp(rng, n, max(m, 1))
        res = solve_sdp(prob)
        ok = ok and res.status.tag is StatusTag.OPTIMAL
        ok = ok and abs(res.objective_dual - optimum) <= 1e-6
    report(7, "20 random certified strictly feasible SDPs solve to 1e-6", ok)


def test_criterion_8_exactnum_property_suite():
    rnd = random.Random(20240815)

    def rq():
        return QuadExt(
            Fraction(rnd.randint(-40, 40), rnd.randint(1, 20)),
            Fraction(rnd.randint(-40, 40), rnd.randint(1, 20)),
        )

    ok = True
    # field axioms
    for _ in range(200):
        x, y, z = rq(), rq(), rq()
        ok = ok and (x + y) * z == x * z + y * z
        if bool(x):
            ok = ok and x * x.inverse() == quad(1)
    # sign agreement with a 60-digit decimal oracle
    for _ in range(1000):
        x = rq()
        ok = ok and qsign(x) == decimal_sign(x)
    # 500 PSD decisions: Gram matrices must pass, witnessed indefinite must fail
    for trial in range(500):
        n = rnd.randint(1, 4)
        if trial % 2 == 0:
            G = [[Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
            M = qzeros(n)
            for i in range(n):
                for j in range(n):
                    M[i, j] = sum(
                        (quad(G[k][i]) * quad(G[k][j]) for k in range(n)), quad(0)
                    )
            ok = ok and psd_check_exact(M).is_psd
        else:
            M = qzeros(n)
            for i in range(n):
                for j in range(i, n):
                    M[i, j] = M[j, i] = quad(Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)))
            v = [quad(rnd.randint(-3, 3)) for _ in range(n)]
            if qsign(quadratic_form(M, v)) < 0:
                res = psd_check_exact(M)
                ok = ok and not res.is_psd
                ok = ok and qsign(quadratic_form(M, res.witness)) < 0
    # reconstruction round trips
    for _ in range(200):
        q = rnd.randint(1, 10**4)
        p = rnd.randint(-10**4, 10**4)
        ok = ok and reconstruct_rational(float(Fraction(p, q)), q) == Fraction(p, q)
    ok = ok and reconstruct_quadext(0.1803398875, 100) == quad(-11, 5)
    ok = ok and reconstruct_quadext(0.25, 10) == quad(Fraction(1, 4))
    report(8, "exact arithmetic property suite (axioms, sign oracle, PSD, rounding)", ok)


def test_criterion_9_eigenvalue_formula():
    verdict = certify.check_eigenvalue_formula(bell.problem2_simplified())
    report(9, "closed-form eigenvalue branch confirmed at all four samples (1e-10)",
           verdict.confirmed)
