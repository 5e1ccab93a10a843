"""Which product kernel ``exact._dict_mul`` takes, observed and predicted.

``routed_mul`` runs the product with the three kernels wrapped and reports
the one that ran; ``expected_kernel`` restates the routing rule in plain
Python (pair count, coefficient bound, box of product exponents), so a test
can pin both the route and the result.
"""

import math

import pytest

from commfam import exact
from commfam.exact import (_NP_BOX_PAIR_CUTOFF, _NP_BOX_RATIO, _NP_COEF_BOUND,
                           _NP_PAIR_CUTOFF, _SHIFT, _unpack)

KERNELS = ("_dict_mul_py", "_dict_mul_sort", "_dict_mul_box")


def routed_mul(a, b, nvars):
    """``exact._dict_mul(a, b, nvars)`` and the name of the kernel it took."""
    taken = []
    with pytest.MonkeyPatch.context() as m:
        for name in KERNELS:
            kernel = getattr(exact, name)
            m.setattr(exact, name,
                      lambda *args, k=kernel, n=name: taken.append(n) or k(*args))
        out = exact._dict_mul(a, b, nvars)
    assert len(taken) == 1
    return out, taken[0]


def box_cells(a, b, nvars):
    """Cells of the box spanned by the exponents of every term pair."""
    cells = 1
    for i in range(nvars):
        ea = [_unpack(k, nvars)[i] for k in a]
        eb = [_unpack(k, nvars)[i] for k in b]
        cells *= max(ea) + max(eb) - min(ea) - min(eb) + 1
    return cells


def expected_kernel(a, b, nvars):
    pairs = len(a) * len(b)
    if pairs < _NP_PAIR_CUTOFF or _SHIFT * nvars > 62:
        return "_dict_mul_py"
    # a coefficient outside int64 has |v| >= 2**63 and fails the bound too
    bound = math.prod(max(abs(v) for v in d.values()) for d in (a, b))
    if bound * min(len(a), len(b)) >= _NP_COEF_BOUND:
        return "_dict_mul_py"
    if pairs >= _NP_BOX_PAIR_CUTOFF and box_cells(a, b, nvars) <= _NP_BOX_RATIO * pairs:
        return "_dict_mul_box"
    return "_dict_mul_sort"


def nonzero(terms):
    return {k: v for k, v in terms.items() if v}
