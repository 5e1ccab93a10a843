"""Cross-check of the exact tower against sympy (test-only; skipped when
sympy is missing): kernel determinants of integer and ``MPoly`` matrices,
``MPoly``/``RatFunc`` arithmetic on both sides of the numpy pair cutoff, and
``RatFunc`` arithmetic over repeated linear denominator factors."""

import itertools
import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from commfam.exact import _NP_PAIR_CUTOFF, MPoly, QMatrix, RatFunc, det, signed_minors

XS = sympy.symbols("x0:3")


def to_sympy(p):
    if isinstance(p, RatFunc):
        return to_sympy(p.num) / to_sympy(p.den)
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[x ** e for x, e in zip(XS, exps)])
                       for exps, c in p.terms()])


def same_poly(a, expr):
    return sympy.Poly(to_sympy(a), *XS) == sympy.Poly(expr, *XS)


def rand_poly(rng, terms=4, degree=3, bound=9):
    """``terms`` distinct monomials with nonzero coefficients."""
    monomials = rng.sample(list(itertools.product(range(degree + 1), repeat=3)), terms)
    return MPoly.from_terms(3, {m: Fraction(rng.choice([-1, 1]) * rng.randint(1, bound),
                                            rng.randint(1, 3)) for m in monomials})


def test_integer_determinants():
    rng = random.Random(91)
    for n in range(0, 7):
        for _ in range(3):
            rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            want = sympy.Matrix(n, n, [x for row in rows for x in row]).det()
            assert det(QMatrix.from_rows(rows) if n else QMatrix(0, 0, [])) == int(want)


def test_polynomial_determinants():
    rng = random.Random(92)
    for n in range(1, 5):
        rows = [[rand_poly(rng, terms=2, degree=2) for _ in range(n)] for _ in range(n)]
        got = signed_minors(rows)[(1 << n) - 1]
        want = sympy.Matrix([[to_sympy(p) for p in row] for row in rows]).det(method="berkowitz")
        assert same_poly(got, sympy.expand(want)), n


# 4 x 4 term pairs take the Python product, 26 x 26 the numpy one
@pytest.mark.parametrize("terms", [4, math.isqrt(_NP_PAIR_CUTOFF) + 4])
def test_mpoly_ring_operations(terms):
    rng = random.Random(93 + terms)
    for _ in range(5):
        a, b = rand_poly(rng, terms, degree=6), rand_poly(rng, terms, degree=6)
        sa, sb = to_sympy(a), to_sympy(b)
        assert same_poly(a + b, sa + sb)
        assert same_poly(a - b, sa - sb)
        assert same_poly(a * b, sympy.expand(sa * sb))


def test_ratfunc_field_operations():
    rng = random.Random(94)
    for _ in range(6):
        a = RatFunc(rand_poly(rng), rand_poly(rng, terms=2) + MPoly.one(3))
        b = RatFunc(rand_poly(rng), rand_poly(rng, terms=2) + MPoly.one(3))
        if a.is_zero or b.is_zero:
            continue
        sa, sb = to_sympy(a), to_sympy(b)
        for got, want in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
                          (a / b, sa / sb)):
            assert sympy.cancel(to_sympy(got) - want) == 0


def factored(rng):
    """A random numerator divided in turn by one to three linear factors
    z_i - z_j or z_i - c drawn from a small pool, so that factors repeat
    within one function and across functions."""
    z = [RatFunc.var(3, i) for i in range(3)]
    pool = [z[0] - z[1], z[2] - z[0], z[1] - z[2], z[0] - RatFunc.const(3, Fraction(1, 2)),
            z[1] + RatFunc.const(3, 2)]
    f = RatFunc(rand_poly(rng, terms=2, degree=2))
    for _ in range(rng.randint(1, 3)):
        f = f / rng.choice(pool)
    return f


def stored_product(f):
    """The product of the stored factors, each to its exponent."""
    out = MPoly.one(f.nvars)
    for p, e in f._factors.items():
        out = out * p.poly ** e
    return out


def test_factored_ratfunc_operations():
    rng = random.Random(95)
    shorter = 0
    for _ in range(6):
        a, b = factored(rng), factored(rng)
        sa, sb = to_sympy(a), to_sympy(b)
        perm = rng.sample(range(3), 3)
        renamed = {XS[i]: XS[perm[i]] for i in range(3)}
        cases = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (a / b, sa / sb),
                 (a.embed(3, perm), sa.subs(renamed, simultaneous=True))]
        cases += [(a.partial(i), sympy.diff(sa, XS[i])) for i in range(3)]
        for got, want in cases:
            assert sympy.cancel(to_sympy(got) - want) == 0
            assert got.den == stored_product(got)
        # the linear factors are distinct primes, so a sum's denominator is
        # their lcm: it is shorter than the product whenever a factor is shared
        lcm = sympy.lcm(to_sympy(a.den), to_sympy(b.den))
        degree = (a + b).den.total_degree()
        assert degree == sympy.Poly(lcm, *XS).total_degree()
        shorter += degree < a.den.total_degree() + b.den.total_degree()
    assert shorter
