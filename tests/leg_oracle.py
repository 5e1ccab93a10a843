"""A d x d matrix placed on one tensor leg as a dense d^n x d^n matrix.

The reference for ``exact.mul_on_leg``, which contracts over the leg's index
alone: here the factor is embedded as the Kronecker chain
I_{d^(leg-1)} (x) b (x) I_{d^(n-leg)} and multiplied as a full matrix.
"""

from functools import reduce

from commfam.exact import QMatrix, kron


def leg_embed(b: QMatrix, leg: int, n: int) -> QMatrix:
    """Place the d x d matrix ``b`` on tensor leg ``leg`` of n legs:
    I_{d^(leg-1)} (x) b (x) I_{d^(n-leg)}."""
    if not 1 <= leg <= n:
        raise ValueError(f"leg {leg} out of range 1..{n}")
    if b.rows != b.cols:
        raise ValueError("leg matrices must be square")
    eye = QMatrix.identity(b.rows)
    return reduce(kron, [b if j == leg else eye for j in range(1, n + 1)])
