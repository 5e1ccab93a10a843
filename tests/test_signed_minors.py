"""The signed-bijection kernel ``exact.signed_minors`` against the k!-term
permutation expansion, for every entry type the program feeds it."""

import math
import operator
import random
from fractions import Fraction

import pytest

from commfam.exact import (MPoly, QMatrix, Rat, RatFunc, det, kron,
                           maximal_minors, signed_minors)
from commfam.quantize import DualNum, dual_mul
from permutation_oracle import signed_sum


def rand_rat(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def rand_mpoly(rng):
    return MPoly.from_terms(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                                Fraction(rng.randint(-5, 5)) for _ in range(3)})


def rand_ratfunc(rng):
    den = MPoly.from_terms(1, {(1,): Fraction(1), (0,): Fraction(rng.randint(1, 3))})
    num = MPoly.from_terms(1, {(rng.randint(0, 2),): Fraction(rng.randint(-4, 4)),
                               (0,): Fraction(1)})
    return RatFunc(num, den if rng.random() < 0.5 else MPoly.one(1))


def rand_dual(rng):
    # one symplectic leg for every entry: dual_mul does not commute here,
    # so the kernel must multiply in column order exactly as the oracle does
    def part():
        return RatFunc(rand_mpoly(rng))
    return DualNum(part(), part())


def rand_qmatrix(rng):
    # column vectors keep the Kronecker products of five factors at 32 x 1,
    # and a (x) b != b (x) a still pins the column order
    return QMatrix(2, 1, [Rat(rng.randint(-3, 3)) for _ in range(2)])


# entry type -> (random entry, product, empty product, largest k checked)
ENTRIES = {
    "Fraction": (rand_rat, operator.mul, Rat(1), 5),
    "MPoly": (rand_mpoly, operator.mul, MPoly.one(2), 5),
    "RatFunc": (rand_ratfunc, operator.mul, RatFunc.const(1, 1), 5),
    "DualNum": (rand_dual, dual_mul, DualNum.classical(RatFunc.const(2, 1)), 5),
    "QMatrix-kron": (rand_qmatrix, kron, QMatrix.identity(1), 5),
}


def subsets(m, k):
    return [mask for mask in range(1 << m) if mask.bit_count() == k]


def rows_of(mask):
    return [r for r in range(mask.bit_length()) if mask >> r & 1]


@pytest.mark.parametrize("name", ENTRIES)
def test_kernel_matches_permutation_expansion(name):
    draw, mul, one, kmax = ENTRIES[name]
    rng = random.Random(sum(map(ord, name)))
    shapes = [(k, k) for k in range(kmax + 1)] + [(k + 1, k) for k in range(kmax + 1)]
    if name == "Fraction":
        shapes += [(6, 5), (6, 2), (5, 3), (3, 4)]
    for m, k in shapes:
        a = [[draw(rng) for _ in range(k)] for _ in range(m)]
        got = signed_minors(a, mul, one)
        assert sorted(got) == subsets(m, k), (m, k)
        for mask, value in got.items():
            assert value == signed_sum(a, rows_of(mask), mul, one), (name, m, k, mask)


@pytest.mark.parametrize("name", ENTRIES)
def test_maximal_minors_omit_one_row_each(name):
    draw, mul, one, kmax = ENTRIES[name]
    rng = random.Random(len(name))
    for k in range(min(kmax, 3) + 1):
        a = [[draw(rng) for _ in range(k)] for _ in range(k + 1)]
        want = [signed_sum(a, [r for r in range(k + 1) if r != i], mul, one)
                for i in range(k + 1)]
        assert maximal_minors(a, mul, one) == want, (name, k)


def test_first_column_enters_without_a_product():
    # column c > 0 extends each c-subset of m rows by each unused row
    for m, k in [(1, 1), (3, 3), (4, 3), (5, 5), (6, 2)]:
        calls = []

        def mul(x, y):
            calls.append(None)
            return x * y

        signed_minors([[Rat(1)] * k for _ in range(m)], mul)
        assert len(calls) == sum(math.comb(m, c) * (m - c) for c in range(1, k))


def test_empty_and_wide_arrays():
    assert signed_minors([]) == {0: 1}
    assert signed_minors([[], []], one="one") == {0: "one"}
    assert signed_minors([[Rat(1), Rat(2)]]) == {}  # more columns than rows
    assert maximal_minors([]) == []
    assert maximal_minors([[]], one=Rat(7)) == [Rat(7)]
    with pytest.raises(ValueError, match="ragged"):
        signed_minors([[Rat(1)], [Rat(1), Rat(2)]])
    with pytest.raises(ValueError, match=r"\(k\+1\) x k"):
        maximal_minors([[Rat(1)], [Rat(2)], [Rat(3)]])


def det_by_row_toggle(m):
    """The subset expansion ``det`` used before the shared kernel: rows in
    increasing order, the sign alternating over the unused rows."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    current = {0: Fraction(1)}
    for col in range(n):
        nxt = {}
        for mask, value in current.items():
            sign_toggle = 1
            for r in range(n):
                bit = 1 << r
                if mask & bit:
                    continue
                term = value * m[r, col] if sign_toggle > 0 else -(value * m[r, col])
                nxt[mask | bit] = nxt[mask | bit] + term if mask | bit in nxt else term
                sign_toggle = -sign_toggle
        current = nxt
    return current[(1 << n) - 1]


def test_det_matches_its_old_expansion():
    rng = random.Random(83)
    for n in range(0, 7):
        for _ in range(4):
            m = QMatrix(n, n, [rand_rat(rng) for _ in range(n * n)])
            assert det(m) == det_by_row_toggle(m)
    with pytest.raises(ValueError, match="non-square"):
        det(QMatrix(2, 3, [Rat(0)] * 6))
