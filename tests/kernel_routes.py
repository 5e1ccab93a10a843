"""Which route the product kernel ``exact._dot_kernel`` takes, observed and
predicted.

The kernel sums m * a * b over (m, a, b) triples of int multipliers and
primitive parts; ``*`` is its one-product case with m = 1, and ``exact.dot``
its many-product case.  ``routed_dot`` runs a sum with the three routes
wrapped and reports the one that ran; ``expected_route`` restates the routing
rule in plain Python (total pair count, joint coefficient bound, union box of
the products' exponents), so a test can pin both the route and the result.
"""

import pytest

from commfam import exact
from commfam.exact import (_NP_BOX_PAIR_CUTOFF, _NP_BOX_RATIO, _NP_COEF_BOUND,
                           _NP_PAIR_CUTOFF, _SHIFT, _unpack)

ROUTES = ("_dot_py", "_dot_sort", "_dot_box")


def routed_dot(products, nvars):
    """``exact._dot_kernel(nvars, products)`` and the name of the route it took."""
    taken = []
    with pytest.MonkeyPatch.context() as m:
        for name in ROUTES:
            route = getattr(exact, name)
            m.setattr(exact, name,
                      lambda *args, r=route, n=name: taken.append(n) or r(*args))
        out = exact._dot_kernel(nvars, products)
    assert len(taken) == 1
    return out, taken[0]


def routed_mul(a, b, nvars):
    """The product ``a * b`` of two primitive parts and the route it took."""
    return routed_dot([(1, a, b)], nvars)


def python_dot(products):
    """The Python route's sum, with its zero sums dropped."""
    return nonzero(exact._dot_py(products))


def box_cells(products, nvars):
    """Cells of the box spanned by the exponents of every term pair of every
    product."""
    cells = 1
    for i in range(nvars):
        lo = min(min(_unpack(k, nvars)[i] for k in a) + min(_unpack(k, nvars)[i] for k in b)
                 for _, a, b in products)
        hi = max(max(_unpack(k, nvars)[i] for k in a) + max(_unpack(k, nvars)[i] for k in b)
                 for _, a, b in products)
        cells *= hi - lo + 1
    return cells


def expected_route(products, nvars):
    pairs = sum(len(a) * len(b) for _, a, b in products)
    if pairs < _NP_PAIR_CUTOFF or _SHIFT * nvars > 62:
        return "_dot_py"
    # a coefficient outside int64 has |v| >= 2**63 and fails the bound too
    bound = sum(abs(m) * max(abs(v) for v in a.values()) * max(abs(v) for v in b.values())
                * min(len(a), len(b)) for m, a, b in products)
    if bound >= _NP_COEF_BOUND:
        return "_dot_py"
    if pairs >= _NP_BOX_PAIR_CUTOFF and box_cells(products, nvars) <= _NP_BOX_RATIO * pairs:
        return "_dot_box"
    return "_dot_sort"


def nonzero(terms):
    return {k: v for k, v in terms.items() if v}
