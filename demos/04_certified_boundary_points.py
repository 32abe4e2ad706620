"""Exact optima for the two bundled Almost Quantum problems.

Both problems maximize the line parameter mu under membership of the 9x9
Almost Quantum moment matrix.  Numerically the raw formulations misbehave;
after the implicit-constraint substitution, the optima are not just stable
but provable: mu1* = 0 and mu2* = 5*sqrt5 - 11, each by a feasible point at
the optimum and a weak-duality dual matrix, checked with zero tolerance.
"""

from strictfeas import (
    MU2_STAR,
    check_eigenvalue_formula,
    find_reducing_certificate,
    format_scalar,
    solve_sdp,
    to_double,
    verify_bound_certificate,
    verify_primal_point,
)
from strictfeas.bell import (
    almost_quantum_pencil,
    builtin_points,
    line1,
    line2,
    problem1_bound_matrix,
    problem1_optimal_point,
    problem1_simplified,
    problem2_bound_matrix,
    problem2_optimal_point,
    problem2_simplified,
)

pts = builtin_points()
print("Collins-Gisin tables: PR box P, local point L, Hardy-line point H")
print("alpha =", format_scalar(pts.alpha), "~", float(pts.alpha))

# ---- problem 1: the line from L to the PR box --------------------------
print("\n== problem 1 ==")
raw = almost_quantum_pencil(line1())
res = solve_sdp(to_double(raw))
print(f"raw solve: {res.status.tag.value} (objective {res.objective_dual:.2e})")

reduced = problem1_simplified()
point = problem1_optimal_point()
print("known point feasible (exact)?", verify_primal_point(reduced, point).feasible)
bound = verify_bound_certificate(reduced, problem1_bound_matrix(), "mu")
print("certified upper bound on mu:", format_scalar(bound.certified_bound))
print("=> the optimum is exactly 0")

# ---- problem 2: the line from H to the PR box --------------------------
print("\n== problem 2 ==")
reduced2 = problem2_simplified()
point2 = problem2_optimal_point()
print("known point feasible (exact)?", verify_primal_point(reduced2, point2).feasible)
bound2 = verify_bound_certificate(reduced2, problem2_bound_matrix(), "mu")
print("certified upper bound on mu:", format_scalar(bound2.certified_bound))
print("=> the optimum is exactly 5*sqrt5 - 11")
print("closed-form eigenvalue branch:", check_eigenvalue_formula(reduced2).confirmed)
res = solve_sdp(to_double(reduced2))
print(f"numeric solve of the reduced pencil: {res.objective_dual:.10f}")
print(f"exact value 5*sqrt5 - 11           : {float(MU2_STAR):.10f}")

# the diagnosis that produced the reduction, for the record
cert = find_reducing_certificate(almost_quantum_pencil(line2()))
print(f"\ncertificate rank for the raw problem-2 pencil: {cert.rank}")
