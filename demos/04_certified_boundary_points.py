"""Exact optima for the two bundled Almost Quantum problems.

Both problems maximize the line parameter mu under membership of the 9x9
Almost Quantum moment matrix.  Numerically the raw formulations misbehave;
after the implicit-constraint substitution the reduced problems are strictly
feasible, so their numeric solves can be rounded into exact proofs:
mu1* = 0 and mu2* = 5*sqrt5 - 11, each by a feasible point at the optimum
and a weak-duality dual matrix, checked with zero tolerance.
"""

from strictfeas import (
    MU2_STAR,
    apply_constraints,
    certify_optimum,
    check_eigenvalue_formula,
    derive_implicit_constraints,
    find_reducing_certificate,
    format_scalar,
    solve_sdp,
    to_double,
    verify_bound_certificate,
    verify_primal_point,
)
from strictfeas.bell import almost_quantum_pencil, builtin_points, line1, line2

pts = builtin_points()
print("Collins-Gisin tables: PR box P, local point L, Hardy-line point H")
print("alpha =", format_scalar(pts.alpha), "~", float(pts.alpha))

for k, line in enumerate((line1(), line2()), 1):
    print(f"\n== problem {k} ==")
    raw = almost_quantum_pencil(line)
    res = solve_sdp(to_double(raw))
    print(f"raw solve: {res.status.tag.value} (objective {res.objective_dual:.2e})")

    cert = find_reducing_certificate(raw)
    reduced = apply_constraints(raw, derive_implicit_constraints(raw, cert.range_vectors))
    print(f"reducing certificate of rank {cert.rank}; {len(reduced.var_names)} variables remain")

    res = solve_sdp(to_double(reduced))
    print(f"numeric solve of the reduced pencil: {res.objective_dual:.10f}")
    point, _, bound = certify_optimum(reduced, res)
    print("rounded point:", ", ".join(f"{v} = {format_scalar(x)}" for v, x in point.items()))
    # both halves of the proof stand on their own: anyone can re-check them
    print("  exactly feasible?", verify_primal_point(reduced, point).feasible)
    again = verify_bound_certificate(reduced, bound.X)
    print("certified upper bound on mu:", format_scalar(again.certified_bound))
    print(f"=> the optimum is exactly {format_scalar(bound.certified_bound)}")

print("\nexact value 5*sqrt5 - 11:", f"{float(MU2_STAR):.10f}")
print("closed-form eigenvalue branch:", check_eigenvalue_formula(reduced).confirmed)
