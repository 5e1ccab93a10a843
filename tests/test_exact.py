"""Exact arithmetic tower: rationals, polynomials, fractions, matrices."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from commfam import exact
from commfam.cli import run_scenario, scenario_from_config
from commfam.exact import (MPoly, QMatrix, Rat, RatFunc, Singular, collect, det,
                           dot, kron, mat_inverse, rank)
from commfam.exact import (_MAX_EXP, _NP_BOX_PAIR_CUTOFF, _NP_BOX_RATIO,
                           _NP_COEF_BOUND, _NP_PAIR_CUTOFF, _common_monomial_key,
                           _pack, _unpack)
from kernel_routes import box_cells, expected_route, nonzero, python_dot, routed_dot, routed_mul
from rank_oracle import fraction_rank


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


def test_mpoly_embed_keeps_the_normal_form():
    # a decreasing var_map changes which key is largest: embed re-signs
    x0, x1 = MPoly.var(2, 0), MPoly.var(2, 1)
    swapped = (x0 - x1).embed(2, [1, 0])
    assert swapped == x1 - x0
    assert swapped._coeffs[max(swapped._coeffs)] > 0
    assert RatFunc(x0 - x1, x0 + 1).embed(2, [1, 0]) == RatFunc(x1 - x0, x1 + 1)


@pytest.mark.parametrize("nvars, var_map", [(2, [5]), (2, [2]), (2, [-1])])
def test_mpoly_embed_rejects_out_of_range_targets(nvars, var_map):
    # an exponent packed into a field no variable reads would print as 1
    # yet be unequal to MPoly.one(2)
    with pytest.raises(ValueError, match="var_map"):
        MPoly.var(1, 0).embed(nvars, var_map)


def py_mul(a, b):
    """``a * b`` of two primitive parts by the Python route, zero sums dropped."""
    return python_dot([(1, a, b)])


def arrays(terms):
    """Packed keys and coefficients as the numpy routes take them."""
    return (np.fromiter(terms.keys(), dtype=np.int64, count=len(terms)),
            np.fromiter(terms.values(), dtype=np.int64, count=len(terms)))


def box_mul(a, b, nvars):
    """``exact._dot_box`` on the box that ``a`` and ``b`` span."""
    shifts = np.arange(0, 10 * nvars, 10)
    (ka, va), (kb, vb) = arrays(a), arrays(b)
    ea, eb = (ka[:, None] >> shifts) & _MAX_EXP, (kb[:, None] >> shifts) & _MAX_EXP
    alo, blo = ea.min(axis=0), eb.min(axis=0)
    widths = ea.max(axis=0) - alo + eb.max(axis=0) - blo + 1
    return exact._dot_box([(ea, va, eb, vb)], alo + blo, widths, shifts)


def test_dict_mul_kernels_agree():
    rng = random.Random(17)
    for _ in range(20):
        a = {rng.randrange(1 << 30): rng.randint(-50, 50) for _ in range(30)}
        b = {rng.randrange(1 << 30): rng.randint(-50, 50) for _ in range(25)}
        assert exact._dot_sort([(*arrays(a), *arrays(b))]) == py_mul(a, b)
        # the same terms folded into a small box: 3 variables, exponents below 8
        a, b = ({k & _pack([7, 7, 7]): v for k, v in d.items()} for d in (a, b))
        py = py_mul(a, b)
        for out in (exact._dot_sort([(*arrays(a), *arrays(b))]), box_mul(a, b, 3)):
            assert out == py and list(out) == sorted(out)


def rand_keys(rng, nvars, count):
    keys = set()
    while len(keys) < count:
        keys.add(_pack([rng.randint(0, _MAX_EXP // 2) for _ in range(nvars)]))
    return list(keys)


@pytest.mark.parametrize("nvars", [6, 7])
def test_dict_mul_kernels_agree_across_the_cutoff(nvars):
    # 6 variables pack into 60 bits and may take numpy; 7 need 70 bits and
    # must stay in Python however many pairs there are
    rng = random.Random(nvars)
    wide = -(-_NP_PAIR_CUTOFF // 20)  # 20 * wide >= cutoff > 20 * (wide - 1)
    for la, lb in [(1, 3), (20, wide - 1), (20, wide), (40, wide)]:
        for _ in range(3):
            a = {k: rng.randint(-50, 50) or 1 for k in rand_keys(rng, nvars, la)}
            b = {k: rng.randint(-50, 50) or 1 for k in rand_keys(rng, nvars, lb)}
            out, route = routed_mul(a, b, nvars)
            big = la * lb >= _NP_PAIR_CUTOFF and nvars == 6
            assert route == ("_dot_sort" if big else "_dot_py")
            assert nonzero(out) == py_mul(a, b)


def test_dict_mul_np_drops_cancelled_terms():
    # (1 - x)(1 + x + ... + x^(n-1)) = 1 - x^n: every collided key cancels
    n = _NP_PAIR_CUTOFF
    a = {0: 1, 1: -1}
    b = {k: 1 for k in range(n)}
    out, route = routed_mul(a, b, 1)
    assert route == "_dot_sort"
    assert out == {0: 1, n: -1} == py_mul(a, b)


@pytest.mark.parametrize("offset,m,ca,cb", [
    (-1, 3, 715827883, 2147483647),
    (0, 4, 1 << 29, 1 << 31),
    (1, 5, 5581 * 8681, 49477 * 384773),
], ids=["bound-1", "bound", "bound+1"])
def test_dict_mul_coefficient_bound(offset, m, ca, cb):
    assert m * ca * cb == _NP_COEF_BOUND + offset
    # a has m terms, so m products meet on every inner key: the worst sum
    a = {k: -ca for k in range(m)}
    b = {k: cb for k in range(-(-_NP_PAIR_CUTOFF // m) + m)}
    out, route = routed_mul(a, b, 1)
    assert route == ("_dot_sort" if offset < 0 else "_dot_py")
    assert out == py_mul(a, b)
    assert min(out.values()) == -m * ca * cb


def common_monomial_oracle(poly):
    exps = [e for e, _ in poly.terms()]
    return tuple(min(column) for column in zip(*exps))


@pytest.mark.parametrize("nvars", [1, 3, 6, 7, 8])
def test_common_monomial_key_matches_per_term_loop(nvars):
    # at 7 and 8 variables packed keys exceed int64
    rng = random.Random(nvars)
    for terms in (1, 4, 40):
        for _ in range(10):
            shift = [rng.choice([0, 1, 5, 900]) for _ in range(nvars)]
            data = {}
            for _ in range(terms):
                exps = tuple(s + rng.randint(0, 3) for s in shift)
                data[exps] = rng.randint(1, 9)
            poly = MPoly.from_terms(nvars, data)
            key = _common_monomial_key(poly)
            assert _unpack(key, nvars) == common_monomial_oracle(poly)


def test_build_normal_form_is_independent_of_term_order():
    rng = random.Random(23)
    for nvars in (1, 3, 7):
        for terms in (3, 12, 30):  # at 3 variables 30 x 30 takes numpy
            items = [(tuple(rng.randint(0, 4) for _ in range(nvars)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                     for _ in range(terms)]
            shuffled = items[:]
            rng.shuffle(shuffled)
            p = MPoly.from_terms(nvars, items)
            q = MPoly.from_terms(nvars, shuffled)
            assert (p.content, p._coeffs) == (q.content, q._coeffs)
            b = rand_poly(rng, nvars, terms=terms)
            pb, bp = p * b, b * p
            assert (pb.content, pb._coeffs) == (bp.content, bp._coeffs)
            for poly in (p, pb):
                if not poly.is_zero:
                    assert math.gcd(*poly._coeffs.values()) == 1
                    assert poly._coeffs[max(poly._coeffs)] > 0


def power(nvars, i, e):
    """The monomial z_i^e in ``nvars`` variables."""
    return MPoly.from_terms(nvars, {tuple(e if t == i else 0 for t in range(nvars)): 1})


def test_exponent_packing_boundaries():
    assert power(3, 2, _MAX_EXP).total_degree() == _MAX_EXP
    with pytest.raises(ValueError):
        MPoly.from_terms(2, {(0, _MAX_EXP + 1): 1})
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    assert power(2, 0, 512) * power(2, 0, 511) == power(2, 0, _MAX_EXP)
    assert power(2, 0, _MAX_EXP) * y == MPoly.from_terms(2, {(_MAX_EXP, 1): 1})
    with pytest.raises(OverflowError):
        power(2, 0, _MAX_EXP) * x
    with pytest.raises(OverflowError):
        (power(2, 1, 512) + x) ** 2


def test_loose_exponent_bound_never_raises_falsely():
    # the difference is 1, but its carried bound is still 600
    x = MPoly.var(1, 0)
    x600 = power(1, 0, 600)
    one = (x600 + 1) - x600
    assert one == MPoly.one(1)
    assert one * x600 == x600
    assert (one * x) * x600 == x * x600
    # bounds that add past the limit on different variables do not raise
    assert power(2, 0, 600) * power(2, 1, 600) == MPoly.from_terms(2, {(600, 600): 1})


def test_chained_products_raise_at_exactly_1024():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    p = power(2, 0, 300) * power(2, 0, 300) * (power(2, 0, 300) + y)
    top = p * power(2, 0, _MAX_EXP - 900)
    assert top.coeff((_MAX_EXP, 0)) == 1
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        p * power(2, 0, _MAX_EXP - 899)
    chain = x
    for _ in range(_MAX_EXP - 1):
        chain = chain * x
    assert chain == power(2, 0, _MAX_EXP)
    with pytest.raises(OverflowError):
        chain * (x + y)


def test_dot_raises_where_a_product_leaves_the_packing_range():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    top = power(2, 0, _MAX_EXP)
    assert dot([(1, top, y), (-1, y, top)]).is_zero
    with pytest.raises(OverflowError):
        dot([(1, top, y), (1, top, x)])
    # a zero sign or a zero operand drops its product
    assert dot([(0, top, x), (1, top, MPoly.zero(2)), (1, top, y)]) == top * y


def test_dot_refuses_what_it_cannot_sum():
    x = MPoly.var(2, 0)
    with pytest.raises(ValueError, match="at least one"):
        dot([])
    with pytest.raises(ValueError, match="variable-count"):
        dot([(1, x, x), (1, x, MPoly.var(3, 0))])
    with pytest.raises(TypeError, match="float"):
        dot([(0.5, x, x)])


@pytest.mark.parametrize("nvars", [1, 4, 7])
def test_monomial_shift_matches_the_product_kernel(nvars):
    rng = random.Random(31 + nvars)
    for _ in range(20):
        exps = tuple(rng.randint(0, 5) for _ in range(nvars))
        m = MPoly.from_terms(nvars, {exps: Fraction(rng.randint(-9, 9) or 1,
                                                    rng.randint(1, 5))})
        p = rand_poly(rng, nvars, terms=rng.randint(1, 12))
        if p.is_zero:
            continue
        want = MPoly._build(nvars, py_mul(m._coeffs, p._coeffs),
                            m.content * p.content, _MAX_EXP)
        for got in (m * p, p * m):
            assert (got.content, got._coeffs) == (want.content, want._coeffs)


def test_no_numpy_array_is_built_below_the_cutoff(monkeypatch):
    calls = []
    original = np.fromiter
    monkeypatch.setattr(np, "fromiter", lambda *args, **kw: calls.append(1) or original(*args, **kw))
    a = MPoly.from_terms(1, {(k,): k + 1 for k in range(20)})
    below = MPoly.from_terms(1, {(k,): 1 for k in range(-(-_NP_PAIR_CUTOFF // 20) - 1)})
    at = MPoly.from_terms(1, {(k,): 1 for k in range(-(-_NP_PAIR_CUTOFF // 20))})
    a * below
    assert not calls
    a * at
    assert calls


@pytest.mark.parametrize("offset,m,ca,cb", [
    (-1, 3, 715827883, 2147483647),
    (0, 4, 1 << 29, 1 << 31),
    (1, 5, 5581 * 8681, 49477 * 384773),
], ids=["bound-1", "bound", "bound+1"])
def test_dict_mul_coefficient_bound_in_the_box(offset, m, ca, cb):
    # the worst cell of test_dict_mul_coefficient_bound, with enough pairs
    # for the box route: b runs along x in two rows, y^0 and y^1
    a = {k: -ca for k in range(m)}
    count = -(-_NP_BOX_PAIR_CUTOFF // m) + m
    row = -(-count // 2)
    b = {_pack([k % row, k // row]): cb for k in range(count)}
    out, route = routed_mul(a, b, 2)
    assert route == ("_dot_box" if offset < 0 else "_dot_py")
    assert out == py_mul(a, b)
    assert min(out.values()) == -m * ca * cb


@pytest.mark.parametrize("pairs", [_NP_PAIR_CUTOFF, _NP_BOX_PAIR_CUTOFF])
@pytest.mark.parametrize("coeff", [1 << 63, -(1 << 63) - 1, -(1 << 63)],
                         ids=["2^63", "-2^63-1", "-2^63"])
def test_coefficients_beyond_the_int64_bound_take_the_python_loop(coeff, pairs):
    # 2**63 and -2**63-1 do not convert to int64; -2**63 does, but has no
    # int64 negation, so a bound taken in int64 would wrap and let numpy
    # overflow
    a = {k: 1 for k in range(20)}
    a[5] = coeff
    b = {k: 1 for k in range(pairs // 20)}
    out, route = routed_mul(a, b, 1)
    assert route == "_dot_py"
    # the key 12 meets a[0..12]: twelve ones and the coefficient
    assert out[12] == coeff + 12
    assert nonzero(out) == py_mul(a, b)


def line(nvars, la, lb):
    """``a`` and ``b`` with ``la`` and ``lb`` terms along variable 0 and fixed
    nonzero exponents elsewhere: a box of la + lb - 1 cells."""
    a = {_pack([i] + [1] * (nvars - 1)): i - 20 for i in range(la)}
    b = {_pack([j] + [2] * (nvars - 1)): (-1) ** j * (j + 1) for j in range(lb)}
    return a, b


def spread(nvars, la, lb, w0, w1):
    """``a`` and ``b`` (at least two variables) whose product box is ``w0``
    cells wide in variable 0, ``w1`` >= ``lb`` in variable 1, one elsewhere."""
    pad = [0] * (nvars - 2)
    a = {_pack([i, 0, *pad]): i - 20 for i in range(la)}
    b_exps = [[0, j, *pad] for j in range(lb - 1)] + [[w0 - la, w1 - 1, *pad]]
    b = {_pack(e): (-1) ** j * (j + 1) for j, e in enumerate(b_exps)}
    return a, b


def top_at_max_exp(a, b, nvars):
    """``b`` raised in the last variable so that the product reaches _MAX_EXP there."""
    top = sum(max(_unpack(k, nvars)[-1] for k in d) for d in (a, b))
    lift = (_MAX_EXP - top) << (10 * (nvars - 1))
    return {k + lift: v for k, v in b.items()}


def assert_route(a, b, nvars, route):
    return assert_sum_route([(1, a, b)], nvars, route)


def assert_sum_route(products, nvars, route):
    assert expected_route(products, nvars) == route
    out, taken = routed_dot(products, nvars)
    assert taken == route
    assert out == python_dot(products)
    assert route == "_dot_py" or list(out) == sorted(out)
    return out


@pytest.mark.parametrize("nvars", [1, 3, 6])
def test_box_kernel_from_the_box_pair_cutoff(nvars):
    # 49 x 102 = 4998 pairs sort, 50 x 100 = 5000 pairs take the box
    assert _NP_BOX_PAIR_CUTOFF == 5000
    assert_route(*line(nvars, 49, 102), nvars, "_dot_sort")
    assert_route(*line(nvars, 50, 100), nvars, "_dot_box")


@pytest.mark.parametrize("nvars", [3, 6])
def test_box_kernel_up_to_the_box_ratio(nvars):
    # 5000 pairs: a box of 100 x 100 cells is exactly the ratio threshold,
    # 73 x 137 = 10001 cells one more
    assert _NP_BOX_RATIO * 5000 == 100 * 100 == 73 * 137 - 1
    at, beyond = spread(nvars, 50, 100, 100, 100), spread(nvars, 50, 100, 73, 137)
    assert box_cells([(1, *at)], nvars) == 10000 and box_cells([(1, *beyond)], nvars) == 10001
    assert_route(*at, nvars, "_dot_box")
    assert_route(*beyond, nvars, "_dot_sort")


@pytest.mark.parametrize("nvars", [1, 3, 6])
def test_box_kernel_with_the_top_field_at_max_exp(nvars):
    # at one variable the top field is the variable the terms run along
    a, b = line(nvars, 50, 100)
    b = top_at_max_exp(a, b, nvars)
    out = assert_route(a, b, nvars, "_dot_box")
    assert max(_unpack(k, nvars)[-1] for k in out) == _MAX_EXP


@pytest.mark.parametrize("nvars", [3, 6])
def test_box_kernel_drops_cancelled_cells(nvars):
    # sum_{i<50} x^i (1 - y) times sum_{j<100} y^j = sum_{i<50} x^i (1 - y^100):
    # every cell with 0 < deg_y < 100 cancels.  (A product of nonzero
    # polynomials is never zero, so some cells always survive.)
    pad = [0] * (nvars - 2)
    a = {_pack([i, dy, *pad]): 1 - 2 * dy for i in range(50) for dy in (0, 1)}
    b = {_pack([0, j, *pad]): 1 for j in range(100)}
    out = assert_route(a, b, nvars, "_dot_box")
    assert out == {_pack([i, dy, *pad]): 1 - 2 * (dy > 0)
                   for i in range(50) for dy in (0, 100)}


def halves(a, b, multipliers=(1, -3)):
    """``a`` times each half of ``b``'s terms: one sum, two products."""
    items = list(b.items())
    cut = len(items) // 2
    return [(m, a, dict(part)) for m, part in zip(multipliers, (items[:cut], items[cut:]))]


def test_sums_take_numpy_from_the_pair_cutoff_on_their_total():
    # 20 x 12 + 20 x 12 = 480 pairs stay in Python, 20 x 13 + 20 x 12 = 500
    # take numpy, though each product alone is below the cutoff
    a = {k: k - 7 for k in range(20)}
    small, large = ({k: 1 + k % 3 for k in range(w)} for w in (12, 13))
    assert 20 * 13 + 20 * 12 == _NP_PAIR_CUTOFF
    assert_sum_route([(1, a, small), (-2, a, small)], 1, "_dot_py")
    assert_sum_route([(1, a, large), (-2, a, small)], 1, "_dot_sort")


@pytest.mark.parametrize("nvars", [1, 3, 6])
def test_sums_take_the_box_from_the_box_pair_cutoff_on_their_total(nvars):
    # 49 x 51 + 49 x 51 = 4998 pairs sort, 50 x 50 + 50 x 50 = 5000 take the box
    assert_sum_route(halves(*line(nvars, 49, 102)), nvars, "_dot_sort")
    assert_sum_route(halves(*line(nvars, 50, 100)), nvars, "_dot_box")


@pytest.mark.parametrize("nvars", [3, 6])
def test_sums_take_the_box_up_to_the_ratio_on_the_union_box(nvars):
    # each half spans a smaller box than the whole, and neither holds both
    # the lowest and the highest corner; the rule reads the union
    for (a, b), route in ((spread(nvars, 50, 100, 100, 100), "_dot_box"),
                          (spread(nvars, 50, 100, 73, 137), "_dot_sort")):
        products = halves(a, b)
        assert box_cells(products, nvars) == box_cells([(1, a, b)], nvars)
        assert max(box_cells([p], nvars) for p in products) < box_cells(products, nvars)
        for ordered in (products, products[::-1]):
            assert_sum_route(ordered, nvars, route)


@pytest.mark.parametrize("offset,multipliers,ca,cb", [
    (-1, (1, 2), 715827883, 2147483647),
    (0, (1, 3), 1 << 29, 1 << 31),
    (1, (2, 3), 5581 * 8681, 49477 * 384773),
], ids=["bound-1", "bound", "bound+1"])
def test_sums_take_python_at_the_joint_coefficient_bound(offset, multipliers, ca, cb):
    # each product alone is below the bound; the cell sums of the whole
    # reach -sum(multipliers) * ca * cb, the joint bound plus offset
    assert sum(multipliers) * ca * cb == _NP_COEF_BOUND + offset
    assert all(m * ca * cb < _NP_COEF_BOUND for m in multipliers)
    b = {k: cb for k in range(_NP_PAIR_CUTOFF)}
    products = [(m, {0: -ca}, b) for m in multipliers]
    out = assert_sum_route(products, 1, "_dot_sort" if offset < 0 else "_dot_py")
    assert set(out.values()) == {-sum(multipliers) * ca * cb}


def test_ratfunc_equality_by_cross_multiplication():
    x = MPoly.var(1, 0)
    one = MPoly.one(1)
    # x/1 vs x^2/x
    assert RatFunc(x) == RatFunc(x * x, x)
    # (x^2 - 1)/(x - 1) vs (x + 1)/1
    assert RatFunc(x * x - one, x - one) == RatFunc(x + one)
    xy = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    assert RatFunc(xy + y, y) != RatFunc(xy, y)


def test_ratfunc_denominator_with_an_int_content_divides_exactly():
    # x / (2x + 2): the denominator's content 2 is an int, and it moves into
    # the numerator as the Rat 1/2, never as the float 1 / 2
    x = MPoly.var(1, 0)
    one = MPoly.one(1)
    f = RatFunc(x, 2 * x + 2)
    assert f.num == MPoly.from_terms(1, {(1,): Fraction(1, 2)})
    assert f.num.content == Fraction(1, 2) and f.den == x + one
    assert [f.evaluate([t]) for t in range(4)] == [Fraction(t, 2 * t + 2) for t in range(4)]


@pytest.mark.parametrize("c", [3, -1])
def test_division_by_a_numerator_with_an_int_content_is_exact(c):
    # f / g with g = c (x^2 + 1): c is the content of g's numerator, an int
    x = MPoly.var(1, 0)
    one = MPoly.one(1)
    f = RatFunc(x + one, x)
    g = RatFunc(c * (x * x + one))
    assert type(g.num.content) is int and g.num.content == c
    q = f / g
    # hand-worked: ((x + 1) / x) / (c (x^2 + 1)) = (x + 1) / (c x (x^2 + 1))
    assert q == RatFunc(x + one, c * x * (x * x + one))
    assert q.den == x * (x * x + one)
    assert q.num == (x + one) * Fraction(1, c)
    assert [q.evaluate([t]) for t in range(1, 5)] == [
        Fraction(t + 1, c * t * (t * t + 1)) for t in range(1, 5)]
    # dividing by -1 forms no Rat at all
    assert type(q.num.content) is (int if c == -1 else Fraction)


def test_ratfunc_partial_derivative_examples():
    x1 = MPoly.var(1, 0)
    inv_x = RatFunc(MPoly.one(1), x1)
    # d/dx (1/x) = -1/x^2
    assert inv_x.partial(0) == RatFunc(-MPoly.one(1), x1 * x1)
    x = MPoly.var(2, 0)
    y = MPoly.var(2, 1)
    f = RatFunc(x + y, x - y)
    want = RatFunc(-2 * y, (x - y) * (x - y))
    assert f.partial(0) == want


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
            assert lhs == rhs


def test_ratfunc_negative_power_and_monomial_cancel():
    xi = RatFunc.var(2, 1)
    p = xi ** (-3)
    assert p * xi ** 3 == RatFunc.const(2, 1)
    with pytest.raises(ZeroDivisionError):
        RatFunc.const(2, 0) ** (-1)


# one seed-1 request of each kind of the rational-ops and small-algebra
# benchmark workloads, at their benchmark sizes
ALGEBRA_REQUESTS = [
    ("weyl-rational", {"N": 3, "T": "d2", "symbols": 1}),
    ("weyl-rational", {"N": 3, "T": "z*d1+1", "symbols": 1}),
    ("poisson-classical", {"n": 3}),
    ("hbar-localization", {"f": "x^2+1", "M": 5}),
    ("dual-number", {"n": 2}),
    ("grassmann", {"arity": 4}),
    ("weyl-basis", {"N": 3}),
    ("cone-p1", {}),
    ("hyperplane", {"g": 4}),
]


def test_no_request_forms_a_fraction_content_with_denominator_one(monkeypatch):
    """Every content an MPoly is built with, in whole requests, is an int or
    a Rat with denominator > 1: a Fraction(n, 1) content would mean that
    some path does Fraction arithmetic on integers again."""
    contents = []
    init = MPoly.__init__

    def recording_init(self, nvars, content, *args, **kwargs):
        contents.append(content)
        init(self, nvars, content, *args, **kwargs)

    monkeypatch.setattr(MPoly, "__init__", recording_init)
    for kind, params in ALGEBRA_REQUESTS:
        config = {"kind": kind, "seed": 1, "trials": 1, **params}
        assert run_scenario(scenario_from_config(config)).all_passed()
    assert len(contents) > 1000
    assert {type(c) for c in contents} == {int, Fraction}
    assert [c for c in contents if type(c) is Fraction and c.denominator == 1] == []


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
        assert m * inv == QMatrix.identity(8) == inv * m
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
            assert m * mat_inverse(m) == QMatrix.identity(n)


def test_det_matches_leibniz_small():
    rng = random.Random(47)
    for _ in range(30):
        a, b, c, d_ = (Rat(rng.randint(-5, 5)) for _ in range(4))
        m = QMatrix.from_rows([[a, b], [c, d_]])
        assert det(m) == a * d_ - b * c
        # entries with denominators: det divides the numerators' det once
        a, b, c, d_ = (Rat(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4))
        m = QMatrix.from_rows([[a, b], [c, d_]])
        assert det(m) == a * d_ - b * c
    m3 = QMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert det(m3) == -3 and type(det(m3)) is Fraction
    (a, b, c), (d_, e, f), (g, h, i) = rows = [[Rat(1, 2), 2, Rat(-3, 4)],
                                              [4, Rat(5, 3), 6], [7, Rat(8, 5), Rat(10, 7)]]
    want = a * (e * i - f * h) - b * (d_ * i - f * g) + c * (d_ * h - e * g)
    assert det(QMatrix.from_rows(rows)) == want


@pytest.mark.parametrize("bad", [RatFunc(MPoly.var(1, 0)), MPoly.var(1, 0), 0.5, "3/2"],
                         ids=["RatFunc", "MPoly", "float", "str"])
def test_qmatrix_refuses_entries_outside_q(bad):
    with pytest.raises(TypeError, match="QMatrix entries are int or Rat"):
        QMatrix(2, 2, [Rat(1), Rat(0), Rat(0), bad])
    with pytest.raises(TypeError, match="QMatrix entries are int or Rat"):
        QMatrix.from_rows([[bad, 1]])
    with pytest.raises(TypeError, match="QMatrix scalars are int or Rat"):
        QMatrix.identity(2).scale(bad)
    # polynomial coefficients keep the same rule, a float included
    want = f"MPoly coefficients are int or Rat, got {type(bad).__name__}"
    for build in (lambda: MPoly.from_terms(1, {(1,): bad}), lambda: MPoly.const(1, bad),
                  lambda: RatFunc.const(1, bad)):
        with pytest.raises(TypeError, match=want):
            build()


def test_qmatrix_int_bool_and_rat_entries_build_the_same_matrix():
    want = QMatrix(2, 3, [Rat(1), Rat(0), Rat(-4), Rat(1), Rat(0), Rat(3, 2)])
    for m in (QMatrix(2, 3, [1, 0, -4, True, False, Rat(3, 2)]),
              QMatrix.from_rows([[True, False, -4], [1, 0, Rat(3, 2)]])):
        assert m == want and m.data == want.data
        assert all(type(e) is Fraction for e in m.data)
    assert QMatrix.identity(2).scale(True) == QMatrix.identity(2)


def test_qmatrix_entry_reads_do_not_alias():
    m = QMatrix(2, 2, [Rat(2, 4), 3, Rat(-6, 9), 0])
    same = QMatrix(2, 2, [Rat(1, 2), 3, Rat(-2, 3), 0])
    d = m.data
    d[0] = 99
    d[3] = Rat(5)
    first = m.row(0)
    first[1] = 7
    assert m == same
    data = m.data
    for i in range(2):
        row = m.row(i)
        for j in range(2):
            entry = m[i, j]
            assert entry == same[i, j] == row[j] == data[i * 2 + j]
            for e in (entry, row[j], data[i * 2 + j]):
                assert type(e) is Fraction and math.gcd(e.numerator, e.denominator) == 1
    assert data == [Rat(1, 2), 3, Rat(-2, 3), 0]


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
    for shape in [(0, 0), (0, 4), (4, 0)]:
        assert rank(QMatrix(*shape, [])) == 0
    # the first pivot is in the last row; rows without an entry in a pivot
    # column must still be scaled, or a later exact division goes wrong
    sparse = [[0, -1, 0], [0, -2, -6], [0, 0, 0], [7, 0, 0]]
    assert rank(QMatrix.from_rows(sparse)) == fraction_rank(sparse) == 3


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
                if fraction_rank([m.row(i)[:k + 1] for i in range(m.rows)]) <= k)


def test_inner_dimension_zero_gives_zero_matrix():
    for n, p in [(2, 2), (0, 3), (3, 0), (1, 1)]:
        empty = QMatrix(n, 0, []) * QMatrix(0, p, [])
        assert empty == QMatrix.zeros(n, p)
        assert all(type(e.numerator) is int for e in empty.data)


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


def test_qmatrix_product_stays_exact_past_int64():
    # an int64 matmul overflows on 2^70 and wraps (-2^63)^2 to 0; a float one
    # drops the +1 next to 2^140; either breaks the equality with the Fraction
    # loops or the int type of the entries
    big = 2 ** 70
    cases = [([[-2 ** 63]], [[-2 ** 63]]),
             ([[big, -big], [-2 ** 63, 1]], [[-2 ** 63, big + 1], [big, -1]]),
             ([[big, Rat(-big, 3)], [Rat(1, 2), -2 ** 63]], [[big + 1], [-3]])]
    for a, b in cases:
        a, b = QMatrix.from_rows(a), QMatrix.from_rows(b)
        product = a * b
        assert product.data == fraction_mul(a, b)
        assert all(type(e.numerator) is int and type(e.denominator) is int
                   for e in product.data)


def test_rat_inverse_matches_adjugate_oracle():
    rng = random.Random(61)
    assert mat_inverse(QMatrix(0, 0, [])) == QMatrix(0, 0, [])
    assert mat_inverse(QMatrix.from_rows([[Rat(-3, 7)]])) == QMatrix.from_rows([[Rat(-7, 3)]])
    assert mat_inverse(QMatrix.from_rows([[0, 2], [3, 0]])) == \
        QMatrix.from_rows([[0, Rat(1, 3)], [Rat(1, 2), 0]])
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


class Word:
    """A sum that remembers the order of its summands."""

    def __init__(self, text):
        self.text = text

    def __add__(self, other):
        return Word(self.text + other.text)

    @property
    def is_zero(self):
        return not self.text


def test_collect_keeps_first_appearance_and_drops_zero_sums():
    out = collect([("b", Word("1")), ("z", Word("")), ("a", Word("x")),
                   ("b", Word("2")), ("c", Word("")), ("b", Word("3"))])
    assert list(out) == ["b", "a"]
    assert [w.text for w in out.values()] == ["123", "x"]
    x = RatFunc.var(1, 0)
    one = RatFunc.const(1, 1)
    out = collect([(2, x), (0, one), (1, x), (2, -x), (0, one)])
    assert list(out) == [0, 1]
    assert out[0] == RatFunc.const(1, 2) and out[1] == x
