"""Classical side: hyperplanes through points and Poisson-commuting ratios.

The determinant ratios h_i = Delta_i / Delta_0 cut out the hyperplane
through g affine points; lifted to functions on a symplectic power, the same
ratios Poisson-commute.  Everything below is exact rational arithmetic.
"""

import random

from commfam.exact import RatFunc
from commfam import poisson

rng = random.Random(7)

print("== the hyperplane through g points ==")
g = 3
points = [[rng.randint(-5, 5) for _ in range(g)] for _ in range(g)]
hs = poisson.hyperplane_coefficients(points)
print("points:", [[str(c) for c in p] for p in points])
print("h =", [str(h) for h in hs])
record = poisson.check_hyperplane_incidence(points, hs)
print("every point satisfies 1 + sum (-1)^i h_i x_i = 0:", record.status)

print()
print("== Poisson-commuting determinant ratios ==")
one = RatFunc.const(2, 1)
x = RatFunc.var(2, 0)
xi = RatFunc.var(2, 1)
family = [one, x + xi * xi, x * xi, x * x]
hams = poisson.classical_hamiltonians(family)
print(f"family of {len(family)} functions of (x, xi) -> {len(hams)} Hamiltonians")
print("H_1 =", hams[0].to_text(["x1", "xi1", "x2", "xi2", "x3", "xi3"])[:70], "...")
print("pairwise {H_i, H_j} = 0:", poisson.check_poisson_commute(hams).status)

print()
print("== the alternating-form identities behind the commutation ==")
for arity, count in ((2, 4), (3, 5), (4, 6)):
    form = poisson.random_decomposable(rng, 6, arity)
    vectors = [poisson.random_vector(rng, 6) for _ in range(count)]
    record = poisson.check_grassmann(form, vectors)
    print(f"arity {arity} on random rational vectors: {record.status}")

print()
print("== the cone bracket on the projective line ==")
z = RatFunc.var(1, 0)
w1 = poisson.ConeDifferential(z * z + RatFunc.const(1, 1), 2)
w2 = poisson.ConeDifferential(z, -1)
alphas = [poisson.ConeDifferential(RatFunc.const(1, 1), 1),
          poisson.ConeDifferential(z + RatFunc.const(1, 3), 1)]
b1 = poisson.cone_bracket(w1, w2, alphas[0])
b2 = poisson.cone_bracket(w1, w2, alphas[1])
print("bracket of a 2-differential and a (-1)-differential has weight",
      b1.weight)
print("independent of the reference 1-form:", (b1 - b2).is_zero)
lhs = poisson.cone_to_symplectic(b1)
rhs = poisson.poisson_bracket(poisson.cone_to_symplectic(w1),
                              poisson.cone_to_symplectic(w2))
print("matches the canonical (z, xi) bracket under f (dz)^i <-> f xi^-i:",
      lhs == rhs)
