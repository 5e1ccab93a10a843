"""Cross-check of the exact tower against sympy (test-only; skipped when
sympy is missing): kernel determinants of integer and ``MPoly`` matrices,
``MPoly``/``RatFunc`` arithmetic on both sides of the numpy pair cutoff,
``RatFunc`` arithmetic over repeated linear denominator factors, and the
canonical Poisson bracket on both of its routes, which it takes by
factor-map equality; and the word-size primes of the residue route."""

import itertools
import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from commfam import exact, poisson
from commfam.exact import (_NP_BOX_PAIR_CUTOFF, _NP_PAIR_CUTOFF, MPoly, QMatrix, RatFunc, det,
                           signed_minors)
from commfam.poisson import ConeDifferential, cone_to_symplectic, poisson_bracket

XS = sympy.symbols("x0:4")


def to_sympy(p):
    if isinstance(p, RatFunc):
        return to_sympy(p.num) / to_sympy(p.den)
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[x ** e for x, e in zip(XS, exps)])
                       for exps, c in p.terms()])


def same_poly(a, expr):
    return sympy.Poly(to_sympy(a), *XS) == sympy.Poly(expr, *XS)


def rand_poly(rng, terms=4, degree=3, bound=9, nvars=3):
    """``terms`` distinct monomials with nonzero coefficients."""
    monomials = rng.sample(list(itertools.product(range(degree + 1), repeat=nvars)), terms)
    return MPoly.from_terms(nvars, {m: Fraction(rng.choice([-1, 1]) * rng.randint(1, bound),
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


# ---------------------------------------------------------------------------
# The canonical bracket in (x_1, xi_1, x_2, xi_2) = (x0, x1, x2, x3).


def sympy_bracket(sf, sg, n):
    return sum(sympy.diff(sf, XS[2 * j]) * sympy.diff(sg, XS[2 * j + 1])
               - sympy.diff(sf, XS[2 * j + 1]) * sympy.diff(sg, XS[2 * j])
               for j in range(n))


def symplectic_operand(rng):
    """A numerator over one or two factors x_j - c or x_2 - x_1, drawn so
    that they repeat, times xi_j^-k as ``cone_to_symplectic`` makes it."""
    v = [RatFunc.var(4, i) for i in range(4)]
    pool = [v[0] - Fraction(1, 2), v[0] + 2, v[2] - 3, v[2] - v[0]]
    f = RatFunc(rand_poly(rng, terms=2, degree=2, nvars=4))
    for _ in range(rng.randint(1, 2)):
        f = f / rng.choice(pool)
    return f * v[rng.choice([1, 3])] ** -rng.randint(1, 2)


def cone_operand(rng):
    """``cone_to_symplectic`` of f(z) (dz)^i, f over repeated factors z - c."""
    z = RatFunc.var(1, 0)
    f = RatFunc(rand_poly(rng, terms=2, degree=2, nvars=1))
    for _ in range(rng.randint(0, 2)):
        f = f / (z - rng.choice([-1, 2]))
    return cone_to_symplectic(ConeDifferential(f, rng.randint(-1, 2)))


def shared_pair(rng):
    """Two numerators over one denominator, or two polynomials."""
    den = MPoly.one(4)
    if rng.random() < 0.75:
        den = rand_poly(rng, terms=2, degree=1, nvars=4) + MPoly.one(4)
    return (RatFunc(rand_poly(rng, terms=2, degree=2, nvars=4), den),
            RatFunc(rand_poly(rng, terms=2, degree=2, nvars=4), den))


def split_pair(rng):
    """a / (p q) by two divisions and b / (p q) by one division by the
    expanded product: equal denominators held as different factor maps."""
    v = [RatFunc.var(4, i) for i in range(4)]
    p, q = v[0] + 2, v[2] - v[1] * 3
    a = RatFunc(rand_poly(rng, terms=2, degree=2, nvars=4))
    b = RatFunc(rand_poly(rng, terms=2, degree=2, nvars=4))
    return a / p / q, b / (p * q)


def ring_poly(p, ring):
    return ring({exps: sympy.QQ(c.numerator, c.denominator) for exps, c in p.terms()})


def assert_bracket_over_c4(f, g, got):
    """{a/c, b/c} c^4 by the quotient rule d(a/c) = (c da - a dc) / c^2, in
    sympy's sparse polynomial ring: ``sympy.cancel`` on a bracket of this
    size takes tens of seconds."""
    ring, *xs = sympy.ring("x0:4", sympy.QQ)
    a, b, c = ring_poly(f.num, ring), ring_poly(g.num, ring), ring_poly(f.den, ring)

    def quotient(p, x):
        return c * p.diff(x) - p * c.diff(x)
    num = sum((quotient(a, xs[2 * j]) * quotient(b, xs[2 * j + 1])
               - quotient(a, xs[2 * j + 1]) * quotient(b, xs[2 * j]) for j in range(2)),
              ring(0))
    assert ring_poly(got.num, ring) * c ** 4 == num * ring_poly(got.den, ring)


def test_poisson_bracket_matches_sympy_on_both_routes(monkeypatch):
    rng = random.Random(96)
    pairs = [(symplectic_operand(rng), symplectic_operand(rng)) for _ in range(6)]
    pairs += [(cone_operand(rng), cone_operand(rng)) for _ in range(6)]
    pairs += [shared_pair(rng) for _ in range(6)]
    f, g = split_pair(rng)
    assert f.den == g.den and not f.same_den(g)
    pairs.append((f, g))
    routes = {True: 0, False: 0}
    for f, g in pairs:
        routes[f.same_den(g)] += 1
        # cross-multiplied: a gcd on the difference costs several times more
        num, den = sympy.fraction(sympy.cancel(sympy_bracket(to_sympy(f), to_sympy(g),
                                                             f.nvars // 2)))
        got = poisson_bracket(f, g)
        assert sympy.expand(to_sympy(got.num) * den - num * to_sympy(got.den)) == 0
    assert routes[True] >= 6 and routes[False] >= 6
    # 20-term numerators over one 5-term c: the c^3 numerator, one dot, sums
    # at least _NP_BOX_PAIR_CUTOFF term pairs and takes the box route
    den = rand_poly(rng, terms=4, degree=1, nvars=4) + MPoly.one(4)
    f, g = (RatFunc(rand_poly(rng, terms=20, degree=3, nvars=4), den) for _ in range(2))
    sums, boxed = [], []
    dot, box = poisson.dot, exact._dot_box

    def counted_dot(products):
        products = list(products)
        sums.append(sum(u.term_count * v.term_count for _, u, v in products))
        return dot(products)
    monkeypatch.setattr(poisson, "dot", counted_dot)
    monkeypatch.setattr(exact, "_dot_box", lambda exps, *args: boxed.append(
        sum(len(ea) * len(eb) for ea, _, eb, _ in exps)) or box(exps, *args))
    got = poisson_bracket(f, g)
    monkeypatch.undo()
    assert f.same_den(g) and sums[-1] >= _NP_BOX_PAIR_CUTOFF and boxed[-1] == sums[-1]
    assert_bracket_over_c4(f, g, got)


def assert_no_monomial_factor_divides(f):
    """No factor x_i left in the map divides every numerator term."""
    for p in f._factors:
        if len(p) == 1:
            ((exps, _),) = p.poly.terms()
            i = exps.index(1)
            assert not all(e[i] for e, _ in f.num.terms()), (f, i)


def test_results_keep_no_monomial_factor_dividing_the_numerator():
    rng = random.Random(97)
    v = [RatFunc.var(4, i) for i in range(4)]
    # d/dx_1 of (x_1 xi_1 + 1) / xi_1^2 is xi_1 / xi_1^2 until the factor
    # xi_1 cancels
    fs = [(v[0] * v[1] + 1) * v[1] ** -2]
    fs += [symplectic_operand(rng) for _ in range(6)]
    fs += [cone_operand(rng).embed(4, [2, 3]) for _ in range(4)]
    for f in fs:
        results = [-f, f * 3, f * Fraction(-1, 2), f * 0, f ** 2, f ** 3,
                   f.embed(4, [2, 3, 0, 1]), f.embed(4, [1, 0, 3, 2])]
        results += [f.partial(i) for i in range(4)]
        results += [f.partial(i).partial(j) for i in range(4) for j in range(4)]
        for got in results:
            assert_no_monomial_factor_divides(got)


def test_residue_primes_are_sympys_primes_below_2_28():
    # the Miller-Rabin test and the descending walk against sympy's own
    limit = exact._PRIME_LIMIT
    assert all(exact._is_prime(m) == sympy.isprime(m) for m in range(limit - 3000, limit))
    p = limit
    for k in range(80):
        p = sympy.prevprime(p)
        assert exact._prime(k) == p
