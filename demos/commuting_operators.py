"""Commuting rational differential operators from marked points.

For distinct rational points P_1..P_N and a one-variable seed operator T,
the closed-form operators

    H_k = sum_i [prod_{(i',k'): i'=i or k'=k} (z_i' - P_k')
                 / prod_{i' != i} (z_i - z_i')] * T_{z_i}

commute exactly, their symbols reproduce the classical determinant family,
and the cofactor construction from the basis 1/(z - P_i) recovers them up to
an explicit constant per index.
"""

from fractions import Fraction

from commfam.exact import RatFunc
from commfam import weyl

T = weyl.RatDiffOp.partial(1, 1, 2)  # second derivative
points = [Fraction(0), Fraction(1), Fraction(-2)]
spec = weyl.OpFamilySpec(points, T)

print(f"== closed-form family, N = {spec.N}, T = d^2/dz^2, P = {points} ==")
hs = weyl.rational_hamiltonians(spec)
print("H_1 as 'multi-index | numerator | denominator' lines:")
print(weyl.RatDiffOp.to_text(hs[0]))
print()
print("pairwise commutators vanish:", weyl.check_commute(hs).status)

print()
print("== symbols against the classical determinant family ==")
for record in weyl.check_symbol_matches_classical(hs, spec):
    print(f"  {record.name}: {record.status}")

print()
print("== the cofactor construction from f_i = 1/(z - P_i) ==")
one = RatFunc.const(1, 1)
z = RatFunc.var(1, 0)
fs = [one / (z - RatFunc.const(1, p)) for p in points]
from_basis = weyl.hamiltonians_from_basis(fs, T)
for k in range(1, spec.N + 1):
    c_k = weyl.basis_match_constant(points, k)
    same = from_basis[k - 1].scale(c_k) == hs[k - 1]
    print(f"  c_{k} = {c_k}: c_{k} * H_{k}(cofactor) == H_{k}(closed form): {same}")
