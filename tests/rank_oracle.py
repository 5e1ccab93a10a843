"""Gauss-Jordan over ``Fraction`` rows: the reference for ``exact.rank`` and
the elimination ``exact._eliminate`` behind it.

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


def fraction_pivot_rows(rows, width):
    """Gauss-Jordan on the first ``width`` columns with the pivot rule of
    ``exact._eliminate``: column k takes the first row, in input order, not
    yet used as a pivot whose entry there is nonzero, and is skipped if
    there is none.  Returns the pivot rows, each divided by its pivot, in
    pivot order and restricted to the columns past ``width``, and the
    skipped columns."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots, skipped = [], []
    for col in range(width):
        pivot = next((i for i in range(len(a)) if i not in pivots and a[i][col]), None)
        if pivot is None:
            skipped.append(col)
            continue
        a[pivot] = [x / a[pivot][col] for x in a[pivot]]
        for i in range(len(a)):
            if i != pivot and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[pivot])]
        pivots.append(pivot)
    return [a[i][width:] for i in pivots], skipped
