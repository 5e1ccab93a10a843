"""Gauss-Jordan rank over ``Fraction`` rows: the reference for ``exact.rank``.

Each pivot row is divided by its pivot and cleared from every other row in
``Fraction`` arithmetic, so nothing here shares logic with the fraction-free
elimination on integer numerators that it checks.
"""

from fractions import Fraction


def fraction_rank(rows) -> int:
    """Rank of a list of equal-length rows of rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    cols = len(a[0]) if a else 0
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r
