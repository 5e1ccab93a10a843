"""Rational differential operators: composition, symbols, both families."""

import operator
import random
from fractions import Fraction

import pytest

from commfam.exact import MPoly, RatFunc
from commfam.poisson import poisson_bracket
from commfam.weyl import (OpFamilySpec, RatDiffOp, ZeroOperator, ZeroPhi,
                          basis_match_constant, check_basis_matches_closed_form,
                          check_commute, check_symbol_matches_classical,
                          _leg_sum, do_commutator, do_compose,
                          hamiltonians_from_basis, rational_hamiltonians, symbol)
from permutation_oracle import det_by_rows


def d_op(order=1):
    return RatDiffOp.partial(1, 1, order)


def z_op():
    return RatDiffOp.multiplication(RatFunc.var(1, 0))


def rand_1var_op(rng, max_order=2, bound=4):
    coeffs = {}
    for k in range(max_order + 1):
        if rng.random() < 0.7:
            poly = MPoly.from_terms(1, [((e,), Fraction(rng.randint(-bound, bound)))
                                        for e in range(3)])
            if not poly.is_zero:
                coeffs[(k,)] = RatFunc(poly)
    if not coeffs:
        coeffs[(1,)] = RatFunc.const(1, 1)
    return RatDiffOp(1, coeffs)


def test_compose_canonical_commutation():
    # d o z = z d + 1
    got = do_compose(d_op(), z_op())
    want = RatDiffOp.build(1, [((1,), RatFunc.var(1, 0)),
                               ((0,), RatFunc.const(1, 1))])
    assert got == want


def test_compose_multiplication_operators():
    f = RatDiffOp.multiplication(RatFunc.var(1, 0) + RatFunc.const(1, 2))
    g = RatDiffOp.multiplication(RatFunc.var(1, 0) ** 2)
    prod = do_compose(f, g)
    assert prod.order() == 0
    assert prod.coeffs[(0,)] == (RatFunc.var(1, 0) + RatFunc.const(1, 2)) * (
        RatFunc.var(1, 0) ** 2)


def test_compose_euler_operator_square():
    # (z d)^2 = z^2 d^2 + z d
    zd = do_compose(z_op(), d_op())
    got = do_compose(zd, zd)
    z = RatFunc.var(1, 0)
    want = RatDiffOp.build(1, [((2,), z * z), ((1,), z)])
    assert got == want


def test_compose_matches_operator_action():
    # independent oracle: acting on functions is functorial in composition
    rng = random.Random(3)
    for _ in range(8):
        a = rand_1var_op(rng)
        b = rand_1var_op(rng)
        num = MPoly.from_terms(1, [((e,), Fraction(rng.randint(-3, 3)))
                                   for e in range(4)])
        if num.is_zero:
            num = MPoly.one(1)
        den = MPoly.from_terms(1, {(1,): Fraction(1), (0,): Fraction(1)})
        f = RatFunc(num, den)
        assert do_compose(a, b).apply(f) == a.apply(b.apply(f))


def test_compose_associative():
    rng = random.Random(5)
    for _ in range(6):
        a, b, c = (rand_1var_op(rng) for _ in range(3))
        assert do_compose(do_compose(a, b), c) == do_compose(a, do_compose(b, c))


def test_commutator_examples():
    assert do_commutator(d_op(), z_op()) == RatDiffOp.identity(1)
    a = do_compose(z_op(), d_op())
    assert do_commutator(a, a).is_zero
    # [z d, z] = z
    assert do_commutator(a, z_op()) == z_op()


def test_commutator_of_multiplications_forms_no_product(monkeypatch):
    # [f, g] has only gamma = 0 Leibniz terms, f g and g f, which cancel
    z = RatFunc.var(2, 0)
    f = RatDiffOp.multiplication(z * z + RatFunc.var(2, 1))
    g = RatDiffOp.multiplication(RatFunc.const(2, 1) / (z - RatFunc.const(2, 3)))
    products = []
    mul = RatFunc.__mul__
    monkeypatch.setattr(RatFunc, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert do_commutator(f, g).is_zero
    assert not products


def test_symbol_examples_and_errors():
    zd1 = do_compose(z_op(), d_op()) + RatDiffOp.identity(1)
    sym = symbol(zd1)
    # z1 xi1 in the interleaved (z, xi) layout
    want = RatFunc.var(2, 0) * RatFunc.var(2, 1)
    assert sym == want
    f = RatDiffOp.multiplication(RatFunc.var(1, 0) ** 2)
    assert symbol(f) == RatFunc.var(2, 0) ** 2
    with pytest.raises(ZeroOperator):
        symbol(RatDiffOp.zero(1))


def test_symbol_multiplicative_on_top_degree():
    rng = random.Random(7)
    tried = 0
    while tried < 6:
        a = rand_1var_op(rng)
        b = rand_1var_op(rng)
        prod_sym = symbol(a) * symbol(b)
        if prod_sym.is_zero:
            continue
        assert symbol(do_compose(a, b)) == prod_sym
        tried += 1


def test_rational_hamiltonians_single_point():
    spec = OpFamilySpec([Fraction(3)], d_op(2))
    (h,) = rational_hamiltonians(spec)
    z = RatFunc.var(1, 0)
    want = do_compose(RatDiffOp.multiplication(z - RatFunc.const(1, 3)), d_op(2))
    assert h == want
    assert check_commute([h]).status == "pass"


def test_rational_hamiltonians_frozen_two_points():
    # P = (0, 1), T = d: the displayed coefficients, then exact commutation
    spec = OpFamilySpec([Fraction(0), Fraction(1)], d_op())
    h1, h2 = rational_hamiltonians(spec)
    z1 = RatFunc.var(2, 0)
    z2 = RatFunc.var(2, 1)
    one = RatFunc.const(2, 1)
    q11 = z1 * (z1 - one) * z2 / (z1 - z2)
    q21 = z2 * (z2 - one) * z1 / (z2 - z1)
    assert h1.coeffs[(1, 0)] == q11
    assert h1.coeffs[(0, 1)] == q21
    q12 = z1 * (z1 - one) * (z2 - one) / (z1 - z2)
    q22 = z2 * (z2 - one) * (z1 - one) / (z2 - z1)
    assert h2.coeffs[(1, 0)] == q12
    assert h2.coeffs[(0, 1)] == q22
    assert do_commutator(h1, h2).is_zero


@pytest.mark.parametrize("N,order", [(2, 1), (2, 2), (3, 1)])
def test_rational_hamiltonians_commute_random_points(N, order):
    rng = random.Random(100 * N + order)
    points = set()
    while len(points) < N:
        points.add(Fraction(rng.randint(-6, 6)))
    spec = OpFamilySpec(sorted(points), d_op(order))
    hs = rational_hamiltonians(spec)
    assert check_commute(hs).status == "pass"


def test_hamiltonians_from_basis_single_function():
    z = RatFunc.var(1, 0)
    one = RatFunc.const(1, 1)
    f1 = one / (z - RatFunc.const(1, 2))
    (h,) = hamiltonians_from_basis([f1], d_op())
    want = do_compose(RatDiffOp.multiplication(one / f1), d_op())
    assert h == want


@pytest.mark.parametrize("points", [(0, 1), (2, 5), (-1, 3)])
def test_basis_matches_closed_form_constant(points):
    spec = OpFamilySpec([Fraction(p) for p in points], d_op())
    records = check_basis_matches_closed_form(spec)
    assert all(r.status == "pass" for r in records)
    # the relating constants are fixed by the points
    z = RatFunc.var(1, 0)
    one = RatFunc.const(1, 1)
    fs = [one / (z - RatFunc.const(1, p)) for p in spec.points]
    from_basis = hamiltonians_from_basis(fs, spec.T)
    closed = rational_hamiltonians(spec)
    for k in range(1, spec.N + 1):
        c = basis_match_constant(spec.points, k)
        assert from_basis[k - 1].scale(c) == closed[k - 1]


def old_hamiltonians_from_basis(fs, T):
    """The cofactor family as built before the shared kernel: every minor
    by its own permutation expansion."""
    N = len(fs)
    table = [[f.embed(N, [j]) for j in range(N)] for f in fs]

    def minor(rows, cols):
        return det_by_rows([[table[r][c] for c in cols] for r in rows], operator.mul,
                           RatFunc.const(N, 1), RatFunc.const(N, 0))

    phi = minor(range(N), range(N))
    lifted = [T.lift_to_leg(j, N) for j in range(1, N + 1)]
    out = []
    for i in range(N):
        h = RatDiffOp.zero(N)
        for j in range(N):
            coeff = minor([r for r in range(N) if r != i],
                          [c for c in range(N) if c != j]) / phi
            if j % 2 == 1:
                coeff = -coeff
            if not coeff.is_zero:
                h = h + do_compose(RatDiffOp.multiplication(coeff), lifted[j])
        out.append(h)
    return out


def test_leg_sum_matches_composition_with_multiplications():
    # the reference: sum_j of q_j composed with T lifted to leg j
    rng = random.Random(41)
    euler = do_compose(z_op(), d_op()) + RatDiffOp.multiplication(
        RatFunc.const(1, Fraction(-3, 2)))
    for T in (d_op(), d_op(2), euler):
        for N in (1, 2, 3):
            zs = [RatFunc.var(N, k) for k in range(N)]
            qs = [sum((v * rng.randint(-3, 3) for v in zs), RatFunc.const(N, rng.randint(1, 3)))
                  / (rng.choice(zs) - RatFunc.const(N, rng.randint(-3, 3)))
                  for _ in range(N)]
            for zero_leg in (None, rng.randrange(N)):
                if zero_leg is not None:
                    qs[zero_leg] = RatFunc.const(N, 0)
                want = RatDiffOp.zero(N)
                for j, q in enumerate(qs, start=1):
                    want = want + do_compose(RatDiffOp.multiplication(q),
                                             T.lift_to_leg(j, N))
                assert _leg_sum(qs, T) == want, (T, N, zero_leg)


def test_hamiltonians_from_basis_match_permutation_expansion():
    rng = random.Random(37)
    z = RatFunc.var(1, 0)
    one = RatFunc.const(1, 1)
    for N in (1, 2, 3):  # random functions and seeds
        fs = [(z ** rng.randint(0, 2) + RatFunc.const(1, rng.randint(-3, 3)))
              / (z - RatFunc.const(1, rng.randint(-3, 3))) for _ in range(N)]
        T = rand_1var_op(rng, max_order=1)
        if T.is_zero:
            T = d_op()
        assert hamiltonians_from_basis(fs, T) == old_hamiltonians_from_basis(fs, T), N
    fs = [one / (z - RatFunc.const(1, p)) for p in (-2, 1, 3)]
    assert hamiltonians_from_basis(fs, d_op(2)) == old_hamiltonians_from_basis(fs, d_op(2))


def test_hamiltonians_from_basis_zero_phi():
    z = RatFunc.var(1, 0)
    one = RatFunc.const(1, 1)
    f = one / (z - RatFunc.const(1, 1))
    with pytest.raises(ZeroPhi):
        hamiltonians_from_basis([f, f], d_op())


def test_principal_symbol():
    T = do_compose(z_op(), d_op()) + RatDiffOp.identity(1)
    sigma = symbol(T)
    assert sigma == RatFunc.var(2, 0) * RatFunc.var(2, 1)


def test_symbol_matches_classical_single_point():
    spec = OpFamilySpec([Fraction(1)], d_op(2))
    hs = rational_hamiltonians(spec)
    records = check_symbol_matches_classical(hs, spec)
    assert all(r.status == "pass" for r in records)
    # symbol(H_1) = (z - P) xi^2 directly
    z = RatFunc.var(2, 0)
    xi = RatFunc.var(2, 1)
    assert symbol(hs[0]) == (z - RatFunc.const(2, 1)) * xi * xi


def test_symbol_matches_classical_two_points_and_bracket():
    spec = OpFamilySpec([Fraction(0), Fraction(1)], d_op())
    hs = rational_hamiltonians(spec)
    records = check_symbol_matches_classical(hs, spec)
    assert all(r.status == "pass" for r in records)
    syms = [symbol(h) for h in hs]
    br = poisson_bracket(syms[0], syms[1])
    assert br.is_zero


def test_symbol_matches_classical_inhomogeneous_seed():
    z = RatFunc.var(1, 0)
    T = do_compose(RatDiffOp.multiplication(z), d_op()) + RatDiffOp.multiplication(
        RatFunc.const(1, Fraction(1, 2)))
    spec = OpFamilySpec([Fraction(2), Fraction(-1)], T)
    hs = rational_hamiltonians(spec)
    assert check_commute(hs).status == "pass"
    records = check_symbol_matches_classical(hs, spec)
    assert all(r.status == "pass" for r in records)


def test_op_family_spec_validation():
    with pytest.raises(ValueError):
        OpFamilySpec([Fraction(1), Fraction(1)], d_op())
    with pytest.raises(ValueError):
        OpFamilySpec([Fraction(1)], RatDiffOp.partial(2, 1))
    # N is the number of points, stored as Rat whatever form they come in
    spec = OpFamilySpec([0, "1/2", Fraction(3)], d_op())
    assert spec.N == 3 and spec.points == (0, Fraction(1, 2), 3)
    assert all(type(p) is Fraction for p in spec.points)
