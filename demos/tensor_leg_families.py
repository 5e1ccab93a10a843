"""Tensor-leg matrix families and their commuting Hamiltonians.

Walks through the noncommutative construction at desk scale: place 2x2
rational matrices on the legs of a tensor square, antisymmetrise, and watch
the quotients H_i = Delta_0^{-1} Delta_i commute exactly.
"""

import random

from commfam.exact import QMatrix, Singular, mat_inverse
from commfam import ncfam

rng = random.Random(2024)

print("== the antisymmetrised bracket ==")
E11 = QMatrix.from_rows([[1, 0], [0, 0]])
E22 = QMatrix.from_rows([[0, 0], [0, 1]])
br = ncfam.bracket([E11, E22])
print("[E11, E22] as a 4x4 matrix:")
print(br)
print("swapping the entries negates it:",
      ncfam.bracket([E22, E11]) == -br)

print()
print("== a caution about the matrix stand-in ==")
print("With one matrix per row placed on *every* leg, the bracket maps each")
print("power v (x) v into the 1-dimensional antisymmetric subspace, so the")
print("4x4 bracket of two 2x2 matrices is singular no matter the entries:")
f = ncfam.random_matrix(rng, 2)
g = ncfam.random_matrix(rng, 2)
try:
    mat_inverse(ncfam.bracket([f, g]))
    print("  ... inverse found?! (should not happen)")
except Singular as exc:
    print(f"  inverse attempt: Singular ({exc})")
print("Rows that vary across legs avoid the collapse; that is the shape all")
print("of the commutation checks below use.")

print()
print("== commuting Hamiltonians from a per-leg family ==")
outcome = ncfam.sample_family(rng, n=3, d=2)
fam = outcome.family
print(f"sampled a 4x3 array of 2x2 matrices (resampled {outcome.resamples}x)")
hs = ncfam.hamiltonians(outcome.minors, outcome.inv0)
record = ncfam.check_pairwise_commute(hs)
print("pairwise commutators of H_1, H_2, H_3 vanish:", record.status)

print()
print("== the identities behind the commutation ==")
rows = [list(fam.entries[i]) for i in (1, 2, 3)]
rests = ncfam.rest_brackets(rows)
quotients = [rest * outcome.inv0 for rest in rests]
print("alternating one-leg sum equals (-1)^n:",
      ncfam.check_identity_2a(rows, quotients).status)
print("same sum on an interior leg vanishes:",
      ncfam.check_identity_2b(rows, quotients, 1).status)
print("Laplace expansion of the bracket:",
      ncfam.check_laplace_expansion(rows, outcome.minors[0], rests).status)
print("Delta_i Delta_0^-1 Delta_j symmetric in (i, j):",
      ncfam.check_main_id(outcome.minors, outcome.inv0).status)
