"""Dual-number quantization and truncated hbar-localization."""

import random
from fractions import Fraction

import pytest

from commfam.exact import RatFunc, maximal_minors
from commfam.poisson import classical_hamiltonians, poisson_bracket
from commfam import quantize
from commfam.quantize import (DualNum, HElem, LocalSeries, TruncationMismatch,
                              ZeroBody, _neg_binomial, check_degeneration,
                              check_lift_independence,
                              check_localization_axioms,
                              check_x_derivative_identity,
                              dual_commuting_family, dual_inverse, dual_mul,
                              h_ad, h_inverse, localize_product, random_helem)
from commfam.weyl import RatDiffOp
from permutation_oracle import det_by_rows


def x_elem(n=1):
    return RatFunc.var(2 * n, 0)


def xi_elem(n=1):
    return RatFunc.var(2 * n, 1)


def rand_dual(rng, n=1, degree=2, bound=4):
    import commfam.cli as cli
    body = cli._random_poly_2vars(rng, degree, bound).embed(2 * n, [0, 1])
    soul = cli._random_poly_2vars(rng, degree, bound).embed(2 * n, [0, 1])
    return DualNum(body, soul)


def test_dual_mul_canonical_pair():
    a = DualNum.classical(x_elem())
    b = DualNum.classical(xi_elem())
    ab = dual_mul(a, b)
    ba = dual_mul(b, a)
    assert ab.body == x_elem() * xi_elem()
    assert ab.soul == RatFunc.const(2, 1)
    assert ba.soul == RatFunc.const(2, -1)


def test_dual_mul_unital_and_associative():
    rng = random.Random(3)
    one = DualNum.classical(RatFunc.const(2, 1))
    for _ in range(12):
        a = rand_dual(rng)
        b = rand_dual(rng)
        c = rand_dual(rng)
        assert (dual_mul(a, one) - a).is_zero
        assert (dual_mul(one, a) - a).is_zero
        lhs = dual_mul(dual_mul(a, b), c)
        rhs = dual_mul(a, dual_mul(b, c))
        assert (lhs - rhs).is_zero


def test_dual_inverse_frozen_and_two_sided():
    a = DualNum(x_elem(), RatFunc.const(2, 0))
    inv = dual_inverse(a)
    assert inv.body == RatFunc.const(2, 1) / x_elem()
    assert inv.soul.is_zero
    b = DualNum(x_elem(), xi_elem())
    binv = dual_inverse(b)
    assert binv.body == RatFunc.const(2, 1) / x_elem()
    assert binv.soul == -(xi_elem() / (x_elem() * x_elem()))
    one = DualNum.classical(RatFunc.const(2, 1))
    assert (dual_mul(b, binv) - one).is_zero
    assert (dual_mul(binv, b) - one).is_zero


def test_dual_inverse_zero_body():
    with pytest.raises(ZeroBody):
        dual_inverse(DualNum(RatFunc.const(2, 0), xi_elem()))


def test_dual_num_rejects_body_and_soul_in_different_variables():
    with pytest.raises(ValueError, match="different symplectic powers"):
        DualNum(x_elem(1), xi_elem(2))


@pytest.mark.parametrize("make", [
    lambda: RatDiffOp.zero(1),
    lambda: HElem.one(3),
    lambda: LocalSeries.one(HElem.function(RatFunc.var(1, 0), 3)),
], ids=["RatDiffOp", "HElem", "LocalSeries"])
def test_sparse_sums_are_unhashable(make):
    # value equality up to representation: no field hash may stand in for it
    value = make()
    assert type(value).__hash__ is None
    with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
        hash(value)


def test_sparse_sum_equality_compares_keys_and_coefficients():
    z = RatFunc.var(1, 0)
    a = HElem.build(3, [((0, 0), z), ((1, 2), RatFunc.const(1, 2))])
    assert a == HElem.build(3, [((1, 2), RatFunc.const(1, 2)), ((0, 0), z)])
    assert a != HElem.build(3, [((0, 0), z), ((1, 2), RatFunc.const(1, 3))])
    assert a != HElem.build(3, [((0, 0), z), ((1, 3), RatFunc.const(1, 2))])
    assert a != HElem.function(z, 3)
    assert HElem.zero(3) == HElem.zero(3)
    assert HElem.one(1) != RatDiffOp.identity(1)
    with pytest.raises(TruncationMismatch):
        _ = a == HElem.function(z, 4)
    with pytest.raises(ValueError, match="variable counts differ"):
        _ = RatDiffOp.identity(1) == RatDiffOp.identity(2)


def test_soul_factor_identity():
    # for body-only elements: soul(a.b - b.a) = 2 {a, b}
    rng = random.Random(5)
    for _ in range(10):
        a = rand_dual(rng)
        b = rand_dual(rng)
        ca = DualNum.classical(a.body)
        cb = DualNum.classical(b.body)
        comm = dual_mul(ca, cb) - dual_mul(cb, ca)
        assert comm.body.is_zero
        assert comm.soul == poisson_bracket(a.body, b.body) * 2


def test_dual_commuting_family_refuses_one_hamiltonian():
    # a single H_1 has nothing to commute with
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    with pytest.raises(ValueError, match="at least three"):
        dual_commuting_family([one, x], [x])


def test_dual_minors_match_permutation_expansion(monkeypatch):
    """The minors dual_commuting_family builds with the shared kernel equal
    the per-minor dual-product permutation expansion it used before."""
    seen = []

    def recording(a, mul):
        seen.append((a, maximal_minors(a, mul)))
        return seen[-1][1]

    monkeypatch.setattr(quantize, "maximal_minors", recording)
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    xi = RatFunc.var(2, 1)
    for fs in ([one, x, xi], [one, x, xi, x * xi + x * x]):
        records = dual_commuting_family(fs, classical_hamiltonians(fs))
        assert all(r.status == "pass" for r in records)
        lifts, minors = seen.pop()
        n = len(fs) - 1
        assert minors == [det_by_rows([lifts[r] for r in range(n + 1) if r != skip],
                                      dual_mul,
                                      DualNum.classical(RatFunc.const(2 * n, 1)),
                                      DualNum.classical(RatFunc.const(2 * n, 0)))
                          for skip in range(n + 1)]


def test_dual_commuting_family_linear():
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    xi = RatFunc.var(2, 1)
    records = dual_commuting_family([one, x, xi], classical_hamiltonians([one, x, xi]))
    assert all(r.status == "pass" for r in records)
    names = {r.name for r in records}
    assert any("soul-vs-bracket" in n for n in names)


def test_dual_soul_check_reads_the_classical_family_it_is_given():
    """A classical list that disagrees with the dual family fails the soul
    record of that pair, while the dual commutator still vanishes."""
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    xi = RatFunc.var(2, 1)
    fs = [one, x, xi]
    h1, h2 = classical_hamiltonians(fs)
    records = {r.name: r for r in dual_commuting_family(fs, [h1, h2 + RatFunc.var(4, 0)])}
    assert records["dual-commutator-12"].status == "pass"
    assert records["dual-soul-vs-bracket-12"].status == "fail"


def test_dual_commuting_family_random_quadratic():
    import commfam.cli as cli
    from commfam.poisson import DependentFamily, ZeroDelta0
    rng = random.Random(7)
    drawn = None
    while drawn is None:
        cand = [cli._random_poly_2vars(rng, 2, 4) for _ in range(3)]
        try:
            drawn = cand, classical_hamiltonians(cand)
        except (DependentFamily, ZeroDelta0):
            continue
    records = dual_commuting_family(*drawn)
    assert all(r.status == "pass" for r in records)


def test_helem_rees_invariants():
    with pytest.raises(ValueError):
        HElem(3, {(2, 1): RatFunc.const(1, 1)})  # power < order
    with pytest.raises(ValueError):
        HElem(2, {(1, 3): RatFunc.const(1, 1)})  # beyond the truncation
    elem = HElem.build(2, [((0, 3), RatFunc.const(1, 1))])
    assert elem.is_zero  # dropped by truncation


def test_helem_build_truncates_before_collecting():
    z = RatFunc.var(1, 0)
    one = RatFunc.const(1, 1)
    elem = HElem.build(2, [((0, 3), z), ((1, 2), one), ((0, 0), z), ((1, 3), -one),
                           ((0, 0), -z), ((0, 1), z)])
    assert list(elem.coeffs) == [(1, 2), (0, 1)]
    assert elem.coeffs[(1, 2)] == one and elem.coeffs[(0, 1)] == z


def test_helem_product_leibniz():
    # D o z = z D + hbar for D = hbar d/dz
    trunc = 4
    D = HElem.hbar_derivative(trunc)
    z = HElem.function(RatFunc.var(1, 0), trunc)
    prod = D * z
    want = HElem.build(trunc, [((1, 1), RatFunc.var(1, 0)),
                               ((0, 1), RatFunc.const(1, 1))])
    assert prod == want
    assert h_ad(z, D) == HElem.build(trunc, [((0, 1), RatFunc.const(1, -1))])


def test_h_ad_of_functions_forms_no_product(monkeypatch):
    # ad(f)(g) for two functions has only i = 0 Leibniz terms, which cancel
    z = RatFunc.var(1, 0)
    f = HElem.function(z * z + RatFunc.const(1, 1), 4)
    g = HElem.function(RatFunc.const(1, 1) / (z - RatFunc.const(1, 2)), 4)
    products = []
    mul = RatFunc.__mul__
    monkeypatch.setattr(RatFunc, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert h_ad(f, g).is_zero
    assert not products


def test_helem_inverse_two_sided():
    trunc = 5
    z = RatFunc.var(1, 0)
    one = HElem.one(trunc)
    for body in (z, z * z + RatFunc.const(1, 1)):
        f = HElem.function(body, trunc)
        # with an hbar-correction carrying a derivative
        f = f + HElem.build(trunc, [((1, 2), z)])
        inv = h_inverse(f)
        assert f * inv == one
        assert inv * f == one
    with pytest.raises(ZeroBody):
        h_inverse(HElem.build(3, [((1, 1), RatFunc.const(1, 1))]))


def test_neg_binomial_values():
    # C(-n, a) = (-1)^a C(n+a-1, a)
    assert [_neg_binomial(1, a) for a in range(4)] == [1, -1, 1, -1]
    assert [_neg_binomial(2, a) for a in range(4)] == [1, -2, 3, -4]
    assert [_neg_binomial(0, a) for a in range(3)] == [1, 0, 0]


def test_localize_product_central_collapse():
    # multiplication operators commute with f, so the alpha-sum collapses
    trunc = 4
    z = RatFunc.var(1, 0)
    f = HElem.function(z, trunc)
    a = HElem.function(z * z + RatFunc.const(1, 2), trunc)
    b = HElem.function(z + RatFunc.const(1, 1), trunc)
    u = LocalSeries.build(f, [(1, a)])
    v = LocalSeries.build(f, [(2, b)])
    prod = localize_product(u, v)
    assert set(prod.coeffs) == {3}
    assert prod.coeffs[3] == a * b


def localize_product_per_n(u, v):
    """The product rule with ad(f)^alpha(b) recomputed for every X-power n
    of u, as before the chains were shared: the oracle for the product."""
    items = []
    for n, a in u.coeffs.items():
        for m, b in v.coeffs.items():
            if n == 0:
                items.append((m, a * b))
                continue
            adb, alpha = b, 0
            while not adb.is_zero:
                binom = _neg_binomial(n, alpha)
                if binom:
                    items.append((n + m + alpha, (a * adb).scale(binom)))
                adb = h_ad(u.f, adb)
                alpha += 1
    return LocalSeries.build(u.f, items)


def test_localize_product_takes_each_ad_chain_once(monkeypatch):
    # the chain b, ad(f) b, ad(f)^2 b, ... depends on b alone, so the h_ad
    # calls do not grow with the X-powers of u, and X^0 alone needs none
    trunc = 4
    z = RatFunc.var(1, 0)
    f = HElem.function(z * z + RatFunc.const(1, 1), trunc)
    a = HElem.function(z + RatFunc.const(1, 2), trunc)
    b = HElem.hbar_derivative(trunc) + HElem.function(z, trunc)
    v = LocalSeries.build(f, [(0, b), (1, b * b)])
    calls = []
    ad = quantize.h_ad
    counts = []
    for powers in ([0], [1], [0, 1, 2, 3]):
        u = LocalSeries.build(f, [(n, a) for n in powers])
        want = localize_product_per_n(u, v)
        monkeypatch.setattr(quantize, "h_ad", lambda f, b: calls.append(1) or ad(f, b))
        calls.clear()
        got = localize_product(u, v)
        counts.append(len(calls))
        monkeypatch.undo()
        # the same items in the same order give the same stored coefficients
        assert list(got.coeffs) == list(want.coeffs)
        assert all(got.coeffs[k] == c for k, c in want.coeffs.items())
    assert counts[0] == 0 and 0 < counts[1] == counts[2]


def test_localize_product_guard_stops_an_ad_chain_that_never_vanishes(monkeypatch):
    trunc = 3
    f = HElem.function(RatFunc.var(1, 0), trunc)
    calls = []
    monkeypatch.setattr(quantize, "h_ad", lambda f, b: calls.append(1) or b)
    with pytest.raises(RuntimeError, match="failed to terminate"):
        localize_product(LocalSeries.x_power(f), LocalSeries.one(f))
    # alpha = 0 .. cap are kept, and ad(f)^(cap + 1) b raises
    assert len(calls) == 2 * trunc + 16 + 1


def test_x_derivative_identity():
    for trunc in (3, 4, 5):
        assert check_x_derivative_identity(trunc).status == "pass"


def test_localization_axioms():
    rng = random.Random(11)
    z = RatFunc.var(1, 0)
    for body, trunc in ((z, 3), (z * z + RatFunc.const(1, 1), 4)):
        f = HElem.function(body, trunc)
        for _ in range(3):  # three random triples
            records = check_localization_axioms(f, rng)
            assert all(r.status == "pass" for r in records)


def test_localization_rejects_zero_body():
    ghost = HElem.build(3, [((1, 1), RatFunc.const(1, 1))])  # no hbar^0 part
    with pytest.raises(ZeroBody):
        LocalSeries.x_power(ghost)


def test_localize_product_mismatch():
    z = RatFunc.var(1, 0)
    f3 = HElem.function(z, 3)
    f4 = HElem.function(z, 4)
    with pytest.raises(TruncationMismatch):
        localize_product(LocalSeries.x_power(f3), LocalSeries.x_power(f4))
    g3 = HElem.function(z + RatFunc.const(1, 1), 3)
    with pytest.raises(TruncationMismatch):
        localize_product(LocalSeries.x_power(f3), LocalSeries.x_power(g3))


def test_series_coefficients_share_the_truncation_of_f():
    z = RatFunc.var(1, 0)
    with pytest.raises(TruncationMismatch):
        LocalSeries.from_helem(HElem.one(3), HElem.function(z, 4))
    assert LocalSeries.one(HElem.function(z, 4)).trunc == 4


def test_series_scale_multiplies_every_coefficient():
    f = HElem.function(RatFunc.var(1, 0), 3)
    u = quantize.random_series(f, random.Random(5))
    assert not u.is_zero
    assert u.scale(3).coeffs == (u + u + u).coeffs
    assert u.scale(Fraction(-1, 2)).scale(-2).coeffs == u.coeffs
    assert u.scale(0).is_zero


def test_series_record_evaluates_the_difference_once(monkeypatch):
    f = HElem.function(RatFunc.var(1, 0), 4)
    one = LocalSeries.one(f)
    other = LocalSeries.from_helem(HElem.one(4) + HElem.hbar(4) * HElem.hbar(4), f)
    calls = []
    evaluate = LocalSeries.evaluate
    monkeypatch.setattr(LocalSeries, "evaluate",
                        lambda self: calls.append(1) or evaluate(self))
    record = quantize._series_record("r", "anchor", one, other)
    assert record.status == "fail"
    assert record.witness == "difference starts at hbar^2"
    assert len(calls) == 1
    assert quantize._series_record("r", "anchor", other, other).status == "pass"


def test_series_equality_is_equality_in_the_localization():
    # X f = 1 in the localization, though the product is stored at X^1
    z = RatFunc.var(1, 0)
    f = HElem.function(z * z + RatFunc.const(1, 1), 4)
    prod = localize_product(LocalSeries.x_power(f), LocalSeries.from_helem(f, f))
    assert set(prod.coeffs) == {1}
    assert prod == LocalSeries.one(f)
    assert quantize.series_equal(prod, LocalSeries.one(f))
    assert prod != LocalSeries.x_power(f)
    with pytest.raises(TypeError):
        hash(prod)


def test_series_evaluation_is_multiplicative():
    # the X -> f^{-1} substitution respects the localized product
    rng = random.Random(13)
    z = RatFunc.var(1, 0)
    f = HElem.function(z * z + RatFunc.const(1, 1), 4)
    for _ in range(4):
        u = quantize.random_series(f, rng)
        v = quantize.random_series(f, rng)
        prod = localize_product(u, v)
        assert prod.evaluate() == u.evaluate() * v.evaluate()


def test_lift_independence_spot_check():
    rng = random.Random(17)
    z = RatFunc.var(1, 0)
    for body in (z, z * z + RatFunc.const(1, 1)):
        f = HElem.function(body, 4)
        g = random_helem(rng, 4)
        assert check_lift_independence(f, g).status == "pass"


def test_degeneration_reproduces_bracket():
    rng = random.Random(19)
    for _ in range(6):
        a = random_helem(rng, 5)
        b = random_helem(rng, 5)
        assert check_degeneration(a, b).status == "pass"
    # concrete pair: [hbar d, z] = hbar, shadows (xi, z)
    D = HElem.hbar_derivative(4)
    z = HElem.function(RatFunc.var(1, 0), 4)
    assert check_degeneration(D, z).status == "pass"
