"""Canonical brackets, determinant Hamiltonians, Grassmann identities,
hyperplanes, and the cone bracket on the line."""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from commfam.exact import MPoly, RatFunc
from commfam.poisson import (ConeDifferential, DependentFamily, WedgeForm,
                             ZeroAlpha, ZeroDelta0,
                             check_alpha_independence,
                             check_cone_vs_canonical, check_grassmann,
                             check_hyperplane_incidence,
                             check_poisson_commute, classical_hamiltonians,
                             cone_bracket, cone_to_symplectic,
                             hyperplane_coefficients, nabla, poisson_bracket,
                             random_decomposable, random_vector)
from permutation_oracle import det_by_rows


def rand_poly_elem(rng, n, degree=2, bound=5):
    terms = {}
    for _ in range(4):
        exps = tuple(rng.randint(0, degree) for _ in range(2 * n))
        terms[exps] = terms.get(exps, 0) + Fraction(rng.randint(-bound, bound))
    poly = MPoly.from_terms(2 * n, terms)
    if poly.is_zero:
        poly = MPoly.one(2 * n)
    return RatFunc(poly)


def rand_ratfunc_elem(rng, n):
    num = rand_poly_elem(rng, n).num
    den = MPoly.zero(2 * n)
    while den.is_zero:
        den = rand_poly_elem(rng, n, degree=1).num
    return RatFunc(num, den)


def test_canonical_pairs():
    x1 = RatFunc.var(4, 0)
    xi1 = RatFunc.var(4, 1)
    x2 = RatFunc.var(4, 2)
    assert poisson_bracket(x1, xi1) == RatFunc.const(4, 1)
    assert poisson_bracket(x1, x2).is_zero
    assert poisson_bracket(x1, x1).is_zero


@pytest.mark.parametrize("nf, ng", [(3, 3), (2, 4)])
def test_bracket_rejects_odd_or_unequal_variable_counts(nf, ng):
    with pytest.raises(ValueError, match=f"got {nf} and {ng}"):
        poisson_bracket(RatFunc.var(nf, 0), RatFunc.var(ng, 1))


def test_bracket_of_constants_in_zero_variables_is_zero():
    # n = 0 legs: the kernel's sum over j is empty
    br = poisson_bracket(RatFunc.const(0, 2), RatFunc.const(0, Fraction(1, 3)))
    assert br.is_zero and br.nvars == 0


def test_fraction_extension_laws():
    rng = random.Random(3)
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    xi = RatFunc.var(2, 1)
    # {1/x, xi} = -{x, xi}/x^2 = -1/x^2
    lhs = poisson_bracket(one / x, xi)
    assert lhs == -(one / (x * x))
    for _ in range(10):
        f = rand_poly_elem(rng, 2)
        g = rand_poly_elem(rng, 2)
        if f.is_zero or g.is_zero:
            continue
        br = poisson_bracket(f, g)
        one2 = RatFunc.const(4, 1)
        assert poisson_bracket(one2 / f, g) == -(br / (f * f))
        assert poisson_bracket(one2 / f, one2 / g) == br / (f * f * g * g)


def test_bracket_antisymmetry_leibniz_jacobi():
    rng = random.Random(5)
    for _ in range(6):
        f = rand_ratfunc_elem(rng, 2)
        g = rand_ratfunc_elem(rng, 2)
        h = rand_poly_elem(rng, 2)
        assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero
        lhs = poisson_bracket(f, g * h)
        rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        assert lhs == rhs
        jac = (poisson_bracket(f, poisson_bracket(g, h))
               + poisson_bracket(g, poisson_bracket(h, f))
               + poisson_bracket(h, poisson_bracket(f, g)))
        assert jac.is_zero


def test_classical_hamiltonians_frozen_linear_family():
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    xi = RatFunc.var(2, 1)
    hs = classical_hamiltonians([one, x, xi])
    names = ["x1", "xi1", "x2", "xi2"]
    x1 = MPoly.var(4, 0)
    xi1 = MPoly.var(4, 1)
    x2 = MPoly.var(4, 2)
    xi2 = MPoly.var(4, 3)
    delta0 = x1 * xi2 - x2 * xi1
    assert hs[0] == RatFunc(xi2 - xi1, delta0)
    assert hs[1] == RatFunc(x2 - x1, delta0)
    assert check_poisson_commute(hs).status == "pass"


def test_classical_hamiltonians_quadratic_family():
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    hs = classical_hamiltonians([one, x, x * x])
    x1 = MPoly.var(4, 0)
    x2 = MPoly.var(4, 2)
    # Delta_0 = x1 x2^2 - x2 x1^2 = x1 x2 (x2 - x1)
    assert hs[0].den == x1 * x2 * (x2 - x1) or hs[0].den == -(
        x1 * x2 * (x2 - x1))
    assert check_poisson_commute(hs).status == "pass"


def test_classical_hamiltonians_errors():
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    with pytest.raises(DependentFamily):
        classical_hamiltonians([one, x, x])
    # Delta_0 = 0 forces a dependence among f_1..f_n (alternant of an
    # independent family cannot vanish identically), so the dependence
    # check fires first on any such input
    with pytest.raises(DependentFamily):
        classical_hamiltonians([one, x, x * 3])


def test_independence_is_decided_over_the_lcm_of_the_denominators():
    # 1/x - 1/(x+1) = 1/(x(x+1)); the lcm x^2 (x+1) of the second family is
    # not the product of its denominators
    one = RatFunc.const(2, 1)
    x = RatFunc.var(2, 0)
    with pytest.raises(DependentFamily):
        classical_hamiltonians([one / x, one / (x + one), one / (x * (x + one))])
    with pytest.raises(DependentFamily):
        classical_hamiltonians([one / (x * x), one / (x * (x + one)),
                                (x + x + one) / (x * x * (x + one))])
    hs = classical_hamiltonians([one / x, one / (x * x), one / (x + one)])
    assert check_poisson_commute(hs).status == "pass"


def test_classical_hamiltonians_commute_random():
    rng = random.Random(7)
    import commfam.cli as cli
    for n in (2, 3):
        done = 0
        trial = 0
        while done < 2:
            trial += 1
            fs = [cli._random_poly_2vars(rng, 2, 5) for _ in range(n + 1)]
            try:
                hs = classical_hamiltonians(fs)
            except (DependentFamily, ZeroDelta0):
                continue
            assert check_poisson_commute(hs).status == "pass"
            done += 1


def old_classical_hamiltonians(fs):
    """The permutation expansion classical_hamiltonians used before the
    shared kernel, one minor at a time."""
    n = len(fs) - 1
    nv = 2 * n
    if all(f.is_polynomial() for f in fs):
        emb = [[f.num.embed(nv, [2 * j, 2 * j + 1]) for j in range(n)] for f in fs]
        one, zero = MPoly.one(nv), MPoly.zero(nv)
    else:
        emb = [[f.embed(nv, [2 * j, 2 * j + 1]) for j in range(n)] for f in fs]
        one, zero = RatFunc.const(nv, 1), RatFunc.const(nv, 0)
    minors = [det_by_rows([emb[r] for r in range(n + 1) if r != skip],
                          operator.mul, one, zero) for skip in range(n + 1)]
    return [RatFunc(m) / RatFunc(minors[0]) if isinstance(m, MPoly) else m / minors[0]
            for m in minors[1:]]


def test_classical_hamiltonians_match_permutation_expansion():
    import commfam.cli as cli
    rng = random.Random(29)
    x = RatFunc.var(2, 0)
    # rational minors at n = 3 reach ~50k terms, too many to cross-multiply
    for n, rational in [(1, False), (2, False), (3, False), (1, True), (2, True)]:
        fs = [cli._random_poly_2vars(rng, 2, 5) for _ in range(n + 1)]
        if rational:
            fs = [f / (x + RatFunc.const(2, i + 1)) for i, f in enumerate(fs)]
        hs = classical_hamiltonians(fs)
        assert hs == old_classical_hamiltonians(fs), (n, rational)


def test_check_poisson_commute_witness():
    x1 = RatFunc.var(2, 0)
    xi1 = RatFunc.var(2, 1)
    assert check_poisson_commute([x1, x1 * x1]).status == "pass"
    record = check_poisson_commute([x1, xi1])
    assert record.status == "fail"
    assert "1" in record.witness


def test_grassmann_frozen_arity2():
    # L = e1 ^ e2 on (a,b,c,d) = (e1,e2,e1,e2): 1*1 - 0*0 + 1*(-1) = 0
    form = WedgeForm(2, 2, {(0, 1): Fraction(1)})
    e1 = [Fraction(1), Fraction(0)]
    e2 = [Fraction(0), Fraction(1)]
    assert form(e1, e2) == 1
    assert check_grassmann(form, [e1, e2, e1, e2]).status == "pass"


def test_grassmann_arity3_low_rank_any_form():
    # if b, c, b', c' span rank < 3, every term has an a-free zero factor,
    # so the identity holds for arbitrary (not only decomposable) forms
    rng = random.Random(11)
    for _ in range(20):
        coeffs = {}
        for idx in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            c = Fraction(rng.randint(-4, 4))
            if c:
                coeffs[idx] = c
        if not coeffs:
            continue
        form = WedgeForm(4, 3, coeffs)
        u = random_vector(rng, 4)
        v = random_vector(rng, 4)
        span = [u, v,
                [a + b for a, b in zip(u, v)],
                [a - b for a, b in zip(u, v)]]
        a = random_vector(rng, 4)
        assert check_grassmann(form, [a] + span).status == "pass"


def test_grassmann_randomised_decomposable():
    rng = random.Random(13)
    counts = {2: 4, 3: 5, 4: 6}
    for arity in (2, 3, 4):
        for _ in range(30):
            dim = rng.randint(arity, 6)
            form = random_decomposable(rng, dim, arity)
            vectors = [random_vector(rng, dim) for _ in range(counts[arity])]
            assert check_grassmann(form, vectors).status == "pass"


def test_grassmann_record_is_named_by_arity():
    rng = random.Random(17)
    for arity in (2, 3, 4):
        form = random_decomposable(rng, 6, arity)
        vectors = [random_vector(rng, 6) for _ in range(arity + 2)]
        record = check_grassmann(form, vectors)
        assert (record.name, record.status) == (f"grassmann-{arity}", "pass")


def test_wedge_form_matches_permutation_expansion():
    """from_covectors and evaluation against the per-tuple permutation
    determinants they used before the shared kernel."""
    def small_det(rows):
        return det_by_rows(rows, operator.mul, Fraction(1), Fraction(0))

    rng = random.Random(19)
    for arity in (1, 2, 3, 4):
        for dim in range(arity, 7):
            ws = [random_vector(rng, dim, 3) for _ in range(arity)]
            form = WedgeForm.from_covectors(ws)
            # integer covectors give integer minors
            assert all(type(c) is int for c in form.coeffs.values())
            want = {}
            for idx in itertools.combinations(range(dim), arity):
                minor = small_det([[w[i] for i in idx] for w in ws])
                if minor != 0:
                    want[idx] = minor
            assert form.coeffs == want
            vectors = [random_vector(rng, dim, 3) for _ in range(arity)]
            assert type(form(*vectors)) is int
            assert form(*vectors) == sum(
                c * small_det([[v[i] for i in idx] for v in vectors])
                for idx, c in form.coeffs.items())


def test_wedge_form_validation():
    with pytest.raises(ValueError):
        WedgeForm(3, 2, {(1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        WedgeForm(2, 2, {(0, 1): Fraction(0)})


def test_hyperplane_single_point():
    hs = hyperplane_coefficients([[Fraction(5)]])
    assert hs == [Fraction(1, 5)]
    assert check_hyperplane_incidence([[Fraction(5)]], hs).status == "pass"


def test_hyperplane_frozen_two_points():
    points = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    hs = hyperplane_coefficients(points)
    # pinned by the incidence identity: 1 - h1 x1 + h2 x2 = 0 at both points
    assert hs == [Fraction(1), Fraction(-1)]
    assert check_hyperplane_incidence(points, hs).status == "pass"


def test_hyperplane_matches_permutation_expansion():
    rng = random.Random(23)
    for g in range(1, 6):
        ints = [[rng.randint(-5, 5) for _ in range(g)] for _ in range(g)]
        for points in (ints, [[Fraction(x) for x in p] for p in ints]):
            rows = [[Fraction(1)] * g] + [[Fraction(p[a]) for p in points] for a in range(g)]
            minors = [det_by_rows([rows[r] for r in range(g + 1) if r != skip],
                                  operator.mul, Fraction(1), Fraction(0))
                      for skip in range(g + 1)]
            if minors[0] == 0:
                with pytest.raises(ZeroDelta0):
                    hyperplane_coefficients(points)
                continue
            hs = hyperplane_coefficients(points)
            assert hs == [m / minors[0] for m in minors[1:]]
            # the one division forms each h_i, whatever the points' type
            assert all(type(h) is Fraction for h in hs)


def test_hyperplane_degenerate_points():
    with pytest.raises(ZeroDelta0):
        hyperplane_coefficients([[Fraction(1), Fraction(1)],
                                 [Fraction(2), Fraction(2)]])


def test_hyperplane_incidence_random_general_position():
    rng = random.Random(17)
    done = 0
    while done < 5:
        points = [[Fraction(rng.randint(-9, 9)) for _ in range(3)]
                  for _ in range(3)]
        try:
            hs = hyperplane_coefficients(points)
        except ZeroDelta0:
            continue
        assert check_hyperplane_incidence(points, hs).status == "pass"
        done += 1


def test_nabla_examples():
    z = RatFunc.var(1, 0)
    one = RatFunc.const(1, 1)
    dz = ConeDifferential(one, 1)
    zdz = ConeDifferential(z, 1)
    # alpha = dz: the connection is plain differentiation of the coefficient
    out = nabla(dz, zdz)
    assert out.weight == 2 and out.f == one
    f = RatFunc(MPoly.from_terms(1, {(3,): Fraction(2), (0,): Fraction(1)}))
    w = ConeDifferential(f, 4)
    assert nabla(dz, w).f == f.partial(0)
    # alpha = z dz kills z dz itself: z * (z/z)' = 0
    assert nabla(zdz, zdz).f.is_zero
    with pytest.raises(ZeroAlpha):
        nabla(ConeDifferential(RatFunc.const(1, 0), 1), w)
    with pytest.raises(ValueError):
        nabla(w, zdz)


def test_nabla_cancels_alpha_factor():
    # alpha = z^2+1 stays one denominator factor with its exponent, so
    # alpha^i d(w / alpha^i) keeps z^2+1 once, never (z^2+1)^(2i)
    z = RatFunc.var(1, 0)
    alpha = ConeDifferential(z * z + 1, 1)
    f = RatFunc(MPoly.from_terms(1, {(3,): Fraction(2), (1,): Fraction(-1),
                                     (0,): Fraction(5)}))
    for i in (1, 2, 3):
        assert nabla(alpha, ConeDifferential(f, i)).f.den == (z * z + 1).num, i


def test_nabla_matches_literal_definition():
    rng = random.Random(29)
    z = RatFunc.var(1, 0)
    alphas = [RatFunc.const(1, 1), z + RatFunc.const(1, 3), z * z + 1,
              (z - 2) / (z * z + z + 1)]

    def rand_poly(degree):
        poly = MPoly.from_terms(1, {(e,): Fraction(rng.randint(-4, 4))
                                    for e in range(degree + 1)})
        return MPoly.one(1) if poly.is_zero else poly

    for a in alphas:
        for i in range(-2, 4):
            for _ in range(3):
                f = RatFunc(rand_poly(3), rand_poly(2))
                # the reference: alpha^i d(w / alpha^i), literally
                want = (a ** i) * (f / a ** i).partial(0)
                got = nabla(ConeDifferential(a, 1), ConeDifferential(f, i))
                assert got.weight == i + 1 and got.f == want, (a, i)


def test_cone_bracket_frozen_and_alpha_independent():
    z = RatFunc.var(1, 0)
    one = RatFunc.const(1, 1)
    dz = ConeDifferential(one, 1)
    zdz = ConeDifferential(z, 1)
    br = cone_bracket(zdz, dz, dz)
    assert br.weight == 3 and br.f == -one
    br2 = cone_bracket(zdz, dz, zdz)
    assert (br - br2).is_zero
    assert cone_bracket(zdz, zdz, dz).is_zero
    record = check_alpha_independence([br, br2])
    assert record.status == "pass"


def test_cone_bracket_randomised_properties():
    rng = random.Random(19)
    z = RatFunc.var(1, 0)
    alphas = [ConeDifferential(RatFunc.const(1, 1), 1),
              ConeDifferential(z + RatFunc.const(1, 2), 1)]

    def rand_diff():
        num = MPoly.from_terms(1, [((e,), Fraction(rng.randint(-4, 4)))
                                   for e in range(3)])
        if num.is_zero:
            num = MPoly.one(1)
        return ConeDifferential(RatFunc(num), rng.randint(-2, 3))

    for _ in range(10):
        w1, w2, w3 = rand_diff(), rand_diff(), rand_diff()
        brackets = [cone_bracket(w1, w2, alpha) for alpha in alphas]
        assert check_alpha_independence(brackets).status == "pass"
        assert (cone_bracket(w1, w2, alphas[0])
                + cone_bracket(w2, w1, alphas[0])).is_zero
        jac = (cone_bracket(w1, cone_bracket(w2, w3, alphas[0]), alphas[0])
               + cone_bracket(w2, cone_bracket(w3, w1, alphas[0]), alphas[0])
               + cone_bracket(w3, cone_bracket(w1, w2, alphas[0]), alphas[0]))
        assert jac.is_zero


def test_cone_bracket_matches_canonical_bracket():
    # f(z)(dz)^i <-> f(x) xi^(-i); the identification is exact, no extra sign
    rng = random.Random(23)
    z = RatFunc.var(1, 0)
    alpha = ConeDifferential(z * z + RatFunc.const(1, 1), 1)
    for _ in range(10):
        num1 = MPoly.from_terms(1, [((e,), Fraction(rng.randint(-3, 3)))
                                    for e in range(3)])
        num2 = MPoly.from_terms(1, [((e,), Fraction(rng.randint(-3, 3)))
                                    for e in range(3)])
        if num1.is_zero or num2.is_zero:
            continue
        w1 = ConeDifferential(RatFunc(num1), rng.randint(-2, 2))
        w2 = ConeDifferential(RatFunc(num2), rng.randint(-2, 2))
        lhs = cone_to_symplectic(cone_bracket(w1, w2, alpha))
        s1 = cone_to_symplectic(w1)
        s2 = cone_to_symplectic(w2)
        assert lhs == poisson_bracket(s1, s2)


def test_cone_checks_fail_on_wrong_brackets():
    z = RatFunc.var(1, 0)
    one = RatFunc.const(1, 1)
    w1 = ConeDifferential(z * z + one, 2)
    w2 = ConeDifferential(one / (z + one), -1)
    dz = ConeDifferential(one, 1)
    bracket = cone_bracket(w1, w2, dz)
    assert check_cone_vs_canonical(bracket, w1, w2).status == "pass"
    # the bracket with the weight factors i and i' swapped
    i, i2 = w1.weight, w2.weight
    swapped = ConeDifferential(w1.f * nabla(dz, w2).f * i2 - w2.f * nabla(dz, w1).f * i,
                               i + i2 + 1)
    record = check_cone_vs_canonical(swapped, w1, w2)
    assert record.status == "fail" and record.witness
    record = check_alpha_independence([bracket, bracket + ConeDifferential(one, bracket.weight)])
    assert record.status == "fail" and "brackets differ" in record.witness
    with pytest.raises(ValueError, match="at least two"):
        check_alpha_independence([bracket])
