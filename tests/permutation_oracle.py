"""The k!-term permutation expansion: the reference for ``exact.signed_minors``.

Every bijection is enumerated with ``itertools.permutations`` and signed by
counting inversions, so nothing here shares logic with the subset kernel.
"""

import itertools
import operator


def perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def signed_sum(a, rows, mul=operator.mul, one=None):
    """sum_s sign(s) a[s(0)][0] * a[s(1)][1] * ... over bijections s from
    the columns onto ``rows``, factors multiplied left to right in column
    order, the sign relative to increasing row order.  ``one`` is the value
    for no columns."""
    rows = sorted(rows)
    k = len(rows)
    if k == 0:
        return one
    total = None
    for perm in itertools.permutations(range(k)):
        term = a[rows[perm[0]]][0]
        for c in range(1, k):
            term = mul(term, a[rows[perm[c]]][c])
        if perm_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return total


def det_by_rows(m, mul, one, zero):
    """Determinant of the square array ``m`` as the removed per-module
    expansions computed it: one product per permutation, started from
    ``one``, in row order, summed onto ``zero``."""
    k = len(m)
    total = zero
    for perm in itertools.permutations(range(k)):
        term = one
        for t in range(k):
            term = mul(term, m[t][perm[t]])
        total = total + (term if perm_sign(perm) > 0 else -term)
    return total
