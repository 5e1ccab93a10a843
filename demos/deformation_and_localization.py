"""First-order quantization two ways: dual numbers and hbar-localization.

The eps-product f.g = fg + eps {f, g} turns Poisson data into an associative
algebra where the determinant family already commutes on the nose; adjoining
a formal inverse X to a lift f of a function makes the localized product rule
concrete at a finite hbar truncation.
"""

import random

from commfam.exact import RatFunc
from commfam import poisson, quantize

rng = random.Random(11)

print("== dual numbers: soul of a commutator is twice the bracket ==")
n = 1
x = RatFunc.var(2 * n, 0)
xi = RatFunc.var(2 * n, 1)
a = quantize.DualNum.classical(x * x * xi)
b = quantize.DualNum.classical(xi * xi + x)
comm = quantize.dual_commutator(a, b)
print("body of a.b - b.a:", "0" if comm.body.is_zero else "nonzero")
print("soul equals 2 {a, b}:",
      comm.soul == poisson.poisson_bracket(a.body, b.body) * 2)

print()
print("== the determinant family inside the eps-algebra ==")
one = RatFunc.const(2, 1)
fx = RatFunc.var(2, 0)
fxi = RatFunc.var(2, 1)
fs = [one, fx + fxi * fxi, fx * fxi]
records = quantize.dual_commuting_family(fs, poisson.classical_hamiltonians(fs))
for record in records:
    print(f"  {record.name}: {record.status}")

print()
print("== hbar-localization at f = z^2 + 1, truncation M = 4 ==")
z = RatFunc.var(1, 0)
f = quantize.HElem.function(z * z + RatFunc.const(1, 1), 4)
X = quantize.LocalSeries.x_power(f)
F = quantize.LocalSeries.from_helem(f, f)
one_series = quantize.LocalSeries.one(f)
print("X f = 1 mod hbar^4:",
      quantize.series_equal(quantize.localize_product(X, F), one_series))
print("f X = 1 mod hbar^4:",
      quantize.series_equal(quantize.localize_product(F, X), one_series))

u = quantize.random_series(f, rng)
v = quantize.random_series(f, rng)
w = quantize.random_series(f, rng)
lhs = quantize.localize_product(quantize.localize_product(u, v), w)
rhs = quantize.localize_product(u, quantize.localize_product(v, w))
print("associativity on a random triple:", quantize.series_equal(lhs, rhs))

print()
print("== the X D = D X + hbar X^2 identity (f = z, D = hbar d/dz) ==")
print(quantize.check_x_derivative_identity(4).status,
      "(cross-checked against explicit 1/z operator arithmetic)")

print()
print("== commutators degenerate to the canonical bracket ==")
a = quantize.random_helem(rng, 5)
b = quantize.random_helem(rng, 5)
print(quantize.check_degeneration(a, b).status,
      "(hbar-linear part of [A, B] = bracket of the classical shadows)")
