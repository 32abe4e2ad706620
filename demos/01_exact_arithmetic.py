"""Tour of the exact scalar and matrix layer.

Everything in strictfeas that certifies a result runs over Q or Q(sqrt5)
with no floating point: signs, PSD decisions, kernels.  Floats only appear
when a numerical solver hands us candidates to round.
"""

from fractions import Fraction

from strictfeas import (
    format_scalar,
    kernel_basis_exact,
    parse_scalar,
    psd_check_exact,
    qarray,
    qsign,
    quad,
    reconstruct_quadext,
    reconstruct_rational,
)

# numbers of the form a + b*sqrt5, with exact rational a, b
alpha = quad(Fraction(9, 38), Fraction(-1, 38))  # (9 - sqrt5)/38
mu2 = quad(-11, 5)  # 5*sqrt5 - 11

print("alpha =", alpha, "~", float(alpha))
print("mu2*  =", mu2, "~", float(mu2))
print("sign(mu2*) decided without floats:", qsign(mu2))
print("exact product:", format_scalar(alpha * mu2))

# the string grammar round-trips exactly
assert parse_scalar(format_scalar(alpha)) == alpha

# exact PSD decisions come with witnesses
M = qarray([[1, 2], [2, 1]])
check = psd_check_exact(M)
print("\n[[1,2],[2,1]] PSD?", check.is_psd)
print("witness direction with negative value:", [format_scalar(x) for x in check.witness])

# kernels are computed exactly too
K = qarray([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
for v in kernel_basis_exact(K):
    print("kernel vector:", [format_scalar(x) for x in v])

# floats round back to exact candidates through continued fractions and an
# integer relation found by lattice reduction
print("\n0.16666667 ->", reconstruct_rational(0.16666667, 100))
print("0.1803398875 ->", reconstruct_quadext(0.1803398875, 100))
