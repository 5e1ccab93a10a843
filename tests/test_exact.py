"""Exact arithmetic tower: rationals, polynomials, fractions, matrices."""

import random
from fractions import Fraction

import pytest

from commfam.exact import (MPoly, QMatrix, Rat, RatFunc, Singular, det, kron,
                           mat_inverse, partial_derivative, rank,
                           ratfunc_equal)
from commfam.exact import _dict_mul_np, _dict_mul_py


def rand_rat(rng, bound=40):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_poly(rng, nvars, degree=3, terms=5, bound=9):
    data = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, degree) for _ in range(nvars))
        data[exps] = data.get(exps, 0) + Fraction(rng.randint(-bound, bound))
    return MPoly.from_terms(nvars, data)


def rand_ratfunc(rng, nvars):
    num = rand_poly(rng, nvars)
    den = MPoly.zero(nvars)
    while den.is_zero:
        den = rand_poly(rng, nvars, degree=2, terms=3)
    return RatFunc(num, den)


def test_rat_is_normalised_fraction():
    assert Rat is Fraction
    r = Rat(6, -4)
    assert (r.numerator, r.denominator) == (-3, 2)
    assert Rat(0, 7) == Rat(0, 1)


def test_rat_field_axioms_randomised():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (rand_rat(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a != 0:
            assert a * (1 / a) == 1


def test_mpoly_basic_arithmetic():
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert p.evaluate([Fraction(3), Fraction(2)]) == 5
    assert MPoly.zero(2).is_zero
    assert (p - p).is_zero


def test_mpoly_term_view_and_validation():
    p = MPoly.from_terms(2, {(2, 1): Fraction(1, 2), (0, 0): -2})
    assert dict(p.terms()) == {(2, 1): Fraction(1, 2), (0, 0): Fraction(-2)}
    assert p.term_count == 2
    assert p.total_degree() == 3
    with pytest.raises(ValueError):
        MPoly.from_terms(2, {(1,): 1})
    with pytest.raises(ValueError):
        MPoly.from_terms(1, {(-1,): 1})


def test_mpoly_partial_derivative():
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    # d/dx (x^2 y) = 2 x y
    assert (x * x * y).partial(0) == 2 * x * y
    assert (x * x * y).partial(1) == x * x
    assert MPoly.const(2, 5).partial(0).is_zero


def test_mpoly_embed_relabels_variables():
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    p = x * x + y
    q = p.embed(4, [2, 0])
    z2 = MPoly.var(4, 2)
    z0 = MPoly.var(4, 0)
    assert q == z2 * z2 + z0


def test_mpoly_text_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(rng, 3)
        assert MPoly.from_text(p.to_text(), 3) == p


def test_dict_mul_kernels_agree():
    rng = random.Random(17)
    for _ in range(20):
        a = {rng.randrange(1 << 30): rng.randint(-50, 50) for _ in range(30)}
        b = {rng.randrange(1 << 30): rng.randint(-50, 50) for _ in range(25)}
        py = {k: v for k, v in _dict_mul_py(a, b).items() if v}
        np_ = {k: v for k, v in _dict_mul_np(a, b).items() if v}
        assert py == np_


def test_ratfunc_equality_by_cross_multiplication():
    x = MPoly.var(1, 0)
    one = MPoly.one(1)
    # x/1 vs x^2/x
    assert ratfunc_equal(RatFunc(x), RatFunc(x * x, x))
    # (x^2 - 1)/(x - 1) vs (x + 1)/1
    assert ratfunc_equal(RatFunc(x * x - one, x - one), RatFunc(x + one))
    xy = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    assert not ratfunc_equal(RatFunc(xy + y, y), RatFunc(xy, y))


def test_ratfunc_partial_derivative_examples():
    x1 = MPoly.var(1, 0)
    inv_x = RatFunc(MPoly.one(1), x1)
    # d/dx (1/x) = -1/x^2
    assert partial_derivative(inv_x, 0) == RatFunc(-MPoly.one(1), x1 * x1)
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    f = RatFunc(x + y, x - y)
    want = RatFunc(-2 * y, (x - y) * (x - y))
    assert partial_derivative(f, 0) == want


def test_ratfunc_field_axioms_randomised():
    rng = random.Random(23)
    for _ in range(25):
        a, b, c = (rand_ratfunc(rng, 2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * (RatFunc.const(2, 1) / a) == RatFunc.const(2, 1)
        assert (a - a).is_zero


def test_ratfunc_leibniz_rule_randomised():
    rng = random.Random(31)
    for _ in range(25):
        f = rand_ratfunc(rng, 2)
        g = rand_ratfunc(rng, 2)
        for var in (0, 1):
            lhs = (f * g).partial(var)
            rhs = f.partial(var) * g + f * g.partial(var)
            assert ratfunc_equal(lhs, rhs)


def test_ratfunc_negative_power_and_monomial_cancel():
    xi = RatFunc.var(2, 1)
    p = xi ** (-3)
    assert p * xi ** 3 == RatFunc.const(2, 1)
    with pytest.raises(ZeroDivisionError):
        RatFunc.const(2, 0) ** (-1)


def test_matrix_inverse_identity_and_unipotent():
    eye = QMatrix.identity(4)
    assert mat_inverse(eye) == eye
    m = QMatrix.from_rows([[1, 1], [0, 1]])
    assert mat_inverse(m) == QMatrix.from_rows([[1, -1], [0, 1]])


def test_matrix_inverse_random_8x8_with_det_oracle():
    rng = random.Random(41)
    found = 0
    while found < 3:
        m = QMatrix(8, 8, [Rat(rng.randint(-9, 9)) for _ in range(64)])
        if det(m) == 0:
            with pytest.raises(Singular):
                mat_inverse(m)
            continue
        inv = mat_inverse(m)
        assert (m * inv).is_identity()
        assert (inv * m).is_identity()
        found += 1


def test_singular_iff_determinant_zero():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = QMatrix(n, n, [Rat(rng.randint(-3, 3)) for _ in range(n * n)])
        d = det(m)
        if d == 0:
            with pytest.raises(Singular):
                mat_inverse(m)
        else:
            assert (m * mat_inverse(m)).is_identity()


def test_det_matches_leibniz_small():
    rng = random.Random(47)
    for _ in range(30):
        a, b, c, d_ = (Rat(rng.randint(-5, 5)) for _ in range(4))
        m = QMatrix.from_rows([[a, b], [c, d_]])
        assert det(m) == a * d_ - b * c
    m3 = QMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert det(m3) == -3


def test_matrix_inverse_with_ratfunc_entries():
    x = MPoly.var(1, 0)
    one = MPoly.one(1)
    m = QMatrix(2, 2, [RatFunc(x), RatFunc(one),
                       RatFunc(one), RatFunc(x)])
    inv = mat_inverse(m)
    prod = m * inv
    assert prod[0, 0] == RatFunc(one) and prod[1, 1] == RatFunc(one)
    assert prod[0, 1].is_zero and prod[1, 0].is_zero


def test_kron_shapes_and_mixed_product():
    rng = random.Random(53)
    a = QMatrix(2, 2, [Rat(rng.randint(-4, 4)) for _ in range(4)])
    b = QMatrix(2, 2, [Rat(rng.randint(-4, 4)) for _ in range(4)])
    c = QMatrix(2, 2, [Rat(rng.randint(-4, 4)) for _ in range(4)])
    d_ = QMatrix(2, 2, [Rat(rng.randint(-4, 4)) for _ in range(4)])
    # (a (x) b)(c (x) d) = ac (x) bd
    assert kron(a, b) * kron(c, d_) == kron(a * c, b * d_)
    assert kron(a, b).rows == 4


def test_rank():
    m = QMatrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert rank(QMatrix.identity(3)) == 3
    assert rank(QMatrix.zeros(2, 3)) == 0


# ---------------------------------------------------------------------------
# Differential tests of the integer kernels behind Rat matrices, against plain
# Fraction loops and the det oracle.


def rat_matrix(rng, rows, cols, zero_rows=(), den=1):
    data = [Fraction(rng.randint(-9, 9), rng.randint(1, den))
            for _ in range(rows * cols)]
    for i in zero_rows:
        data[i * cols:(i + 1) * cols] = [Fraction(0)] * cols
    return QMatrix(rows, cols, data)


def fraction_mul(a, b):
    return [sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0))
            for i in range(a.rows) for j in range(b.cols)]


def fraction_kron(a, b):
    return [a[i, j] * b[k, l]
            for i in range(a.rows) for k in range(b.rows)
            for j in range(a.cols) for l in range(b.cols)]


def adjugate_inverse(m):
    """m^-1 = adj(m) / det(m), every cofactor by the det oracle."""
    n = m.rows
    d = det(m)

    def minor(skip_row, skip_col):
        return QMatrix(n - 1, n - 1, [m[i, j] for i in range(n) if i != skip_row
                                      for j in range(n) if j != skip_col])

    return [(-1) ** (i + j) * det(minor(j, i)) / d
            for i in range(n) for j in range(n)]


def first_dependent_column(m):
    return next(k for k in range(m.cols)
                if rank(QMatrix(m.rows, k + 1, [m[i, j] for i in range(m.rows)
                                                for j in range(k + 1)])) <= k)


def test_inner_dimension_zero_gives_zero_matrix():
    assert QMatrix(2, 0, []) * QMatrix(0, 2, []) == QMatrix.zeros(2, 2)
    assert QMatrix(0, 0, []) * QMatrix(0, 3, []) == QMatrix.zeros(0, 3)


def test_rat_kernels_match_fraction_loops():
    rng = random.Random(59)
    dims = (0, 1, 3)
    for n in dims:
        for m in dims:
            for p in dims:
                for den in (1, 12):
                    a = rat_matrix(rng, n, m, den=den)
                    b = rat_matrix(rng, m, p, zero_rows=[0] if m else (), den=den)
                    assert (a * b).data == fraction_mul(a, b)
                    assert (a * b).rows == n and (a * b).cols == p
                    k = kron(a, b)
                    assert (k.rows, k.cols) == (n * m, m * p)
                    assert k.data == fraction_kron(a, b)


def test_rat_inverse_matches_adjugate_oracle():
    rng = random.Random(61)
    assert mat_inverse(QMatrix(0, 0, [])) == QMatrix(0, 0, [])
    assert mat_inverse(QMatrix.from_rows([["-3/7"]])) == QMatrix.from_rows([["-7/3"]])
    assert mat_inverse(QMatrix.from_rows([[0, 2], [3, 0]])) == \
        QMatrix.from_rows([[0, "1/3"], ["1/2", 0]])
    checked = 0
    while checked < 20:
        n = rng.randint(1, 5)
        m = rat_matrix(rng, n, n, den=rng.choice((1, 30)))
        if det(m) == 0:
            continue
        assert mat_inverse(m).data == adjugate_inverse(m)
        checked += 1


def test_rat_inverse_singular_names_first_dependent_column():
    rng = random.Random(67)
    with pytest.raises(Singular, match="no nonzero pivot in column 0$"):
        mat_inverse(QMatrix.zeros(1, 1))
    with pytest.raises(Singular, match="no nonzero pivot in column 1$"):
        mat_inverse(rat_matrix(rng, 3, 3, zero_rows=[1, 2], den=5))
    for _ in range(60):
        n = rng.randint(2, 5)
        m = rat_matrix(rng, n, n, den=rng.choice((1, 7)))
        k = rng.randrange(n)
        coef = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
        data = list(m.data)
        for i in range(n):
            data[i * n + k] = sum((c * m[i, j] for j, c in enumerate(coef)),
                                  Fraction(0))
        if rng.random() < 0.3:
            row = rng.randrange(n)
            data[row * n:(row + 1) * n] = [Fraction(0)] * n
        m = QMatrix(n, n, data)
        want = first_dependent_column(m)
        assert want <= k
        with pytest.raises(Singular, match=f"no nonzero pivot in column {want}$"):
            mat_inverse(m)
