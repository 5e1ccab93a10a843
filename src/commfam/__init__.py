"""commfam: exact verification of commuting Hamiltonian families.

The library builds the determinant-quotient families H_i = Delta_0^{-1}
Delta_i in three regimes -- matrix tensor legs, rational functions on a
symplectic power, and rational differential operators -- and decides every
stated identity with zero numerical tolerance.
"""

__version__ = "0.1.0"

from .exact import (MPoly, QMatrix, Rat, RatFunc, Singular, det, kron,
                    mat_inverse, rank)

__all__ = [
    "__version__",
    "MPoly", "QMatrix", "Rat", "RatFunc", "Singular",
    "det", "kron", "mat_inverse", "rank",
]
