"""Property tests of the ``MPoly``/``RatFunc`` ring axioms at the guards of
the product kernel: products on both sides of the numpy pair cutoff,
exponents near the packing limit, coefficients near the numpy int64 bound,
and small exponents whose products fill the dense exponent box.  ``dot``,
the kernel's many-product case, is checked against the sum of its products
at the same guards, the joint int64 bound of a sum included.
The ``QMatrix`` integer form (numerators over one denominator) is checked
against plain ``Fraction`` loops, and its fraction-free elimination, the one
behind ``rank`` and ``mat_inverse``, against a ``Fraction`` Gauss-Jordan.  The Leibniz commutators of ``weyl`` and
``quantize``, which skip the terms that cancel, are checked against the
difference of the two compositions.  ``rat_dot``, the fused ``RatFunc`` sum
of products, is checked against the products formed one by one and summed
by ``+``, and so are the Leibniz coefficient sums that ``collect_products``
forms with it.  ``dual_commutator`` is checked against the difference of
the two dual products, and ``bracket_sum`` over signed pairs against the
sum of its brackets taken one by one, on both bracket routes.  Polynomials
built from ``int`` data carry ``int`` contents, and ``Rat`` contents have
denominators > 1, through every constructor and operation.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from commfam import exact
from commfam.exact import (_MAX_EXP, _NP_COEF_BOUND, _NP_PAIR_CUTOFF, _SHIFT, MPoly,
                           QMatrix, RatFunc, Singular, _common_monomial_key, _eliminate,
                           _leibniz, collect, dot, kron, mat_inverse, rank, rat_dot)
from commfam.poisson import bracket_sum, poisson_bracket
from commfam.quantize import DualNum, HElem, dual_commutator, dual_mul, h_ad
from commfam.weyl import RatDiffOp, do_commutator, do_compose
from kernel_routes import ROUTES, expected_route, nonzero, python_dot, routed_mul
from rank_oracle import fraction_pivot_rows, fraction_rank

# Fixed examples and no example database: every run checks the same inputs.
FIXED = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# Three factors of exponent <= _MAX_EXP // 3 multiply without overflow.
EXP = st.one_of(st.integers(0, 3), st.integers(_MAX_EXP // 3 - 3, _MAX_EXP // 3))


@st.composite
def polys(draw, nvars, sizes=(3, 20, 40), bits=(4, 27, 31), exp=EXP):
    """Term counts whose products fall on both sides of the pair cutoff, and
    coefficient sizes that fall on both sides of the int64 bound."""
    size = draw(st.sampled_from(sizes))
    bound = 1 << draw(st.sampled_from(bits))
    terms = draw(st.dictionaries(st.tuples(*[exp] * nvars),
                                 st.integers(-bound, bound),
                                 min_size=size, max_size=size))
    content = draw(st.fractions(min_value=-10, max_value=10, max_denominator=6))
    return MPoly.from_terms(nvars, terms) * content


def box_polys(nvars):
    """80 or 100 terms with exponents below 16 (2 variables) or 3 (6
    variables): 6400-10000 pairs in a box of at most 961 or 15625 cells, so
    most products take the box kernel and the rest the sort.  Coefficients
    stay small, so products of products stay in numpy as well."""
    exp = st.integers(0, 15 if nvars == 2 else 2)
    return polys(nvars, sizes=(80, 100), bits=(4,), exp=exp)


def assert_ring_axioms(nvars, a, b, c):
    ab = a * b
    # commutativity holds on the stored normal form, not only as equality
    assert (ab.content, ab._coeffs) == ((b * a).content, (b * a)._coeffs)
    assert ab * c == a * (b * c)
    assert a * (b + c) == ab + a * c
    assert (a - b) + b == a
    assert (a - a).is_zero and (a * MPoly.one(nvars)) == a


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_mpoly_ring_axioms(nvars, data):
    assert_ring_axioms(nvars, *(data.draw(polys(nvars)) for _ in range(3)))


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_mpoly_ring_axioms_in_the_box(nvars, data):
    assert_ring_axioms(nvars, *(data.draw(box_polys(nvars)) for _ in range(3)))


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_embed_is_a_ring_map_onto_the_normal_form(nvars, data):
    a, b = (data.draw(polys(nvars)) for _ in range(2))
    target = nvars + data.draw(st.integers(0, 1))
    var_map = data.draw(st.permutations(range(target)))[:nvars]
    ea, eb = a.embed(target, var_map), b.embed(target, var_map)
    # == compares the stored normal forms, so a wrong sign would show
    assert (a * b).embed(target, var_map) == ea * eb
    assert (a + b).embed(target, var_map) == ea + eb
    for poly in (ea, eb):
        assert poly.is_zero or poly._coeffs[max(poly._coeffs)] > 0


def assert_routed_product(nvars, a, b):
    if a.is_zero or b.is_zero:
        return
    out, route = routed_mul(a._coeffs, b._coeffs, nvars)
    assert route == expected_route([(1, a._coeffs, b._coeffs)], nvars)
    assert nonzero(out) == python_dot([(1, a._coeffs, b._coeffs)])


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_dict_mul_matches_python_kernel(nvars, data):
    assert_routed_product(nvars, *(data.draw(polys(nvars)) for _ in range(2)))


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_dict_mul_matches_python_kernel_in_the_box(nvars, data):
    assert_routed_product(nvars, *(data.draw(box_polys(nvars)) for _ in range(2)))


def traced_dot(products):
    """``dot(products)``, the (m, a, b) triples it handed the kernel (None
    when it called none) and the route the kernel took."""
    seen, taken = [], []
    with pytest.MonkeyPatch.context() as m:
        kernel = exact._dot_kernel
        m.setattr(exact, "_dot_kernel",
                  lambda nvars, triples: seen.append(triples) or kernel(nvars, triples))
        for name in ROUTES:
            route = getattr(exact, name)
            m.setattr(exact, name, lambda *args, r=route, n=name: taken.append(n) or r(*args))
        out = dot(products)
    assert len(seen) == len(taken) <= 1
    return out, seen[0] if seen else None, taken[0] if taken else None


def summed(nvars, products):
    """sign * u * v summed by ``*`` and ``+``, one product at a time."""
    total = MPoly.zero(nvars)
    for sign, u, v in products:
        total = total + u * v * sign
    return total


def assert_dot_is_the_sum(nvars, products):
    out, triples, route = traced_dot(products)
    want = summed(nvars, products)
    # == compares the stored normal forms
    assert out == want and out._ebound >= max(out._var_maxima(), default=0)
    if triples is not None:
        assert route == expected_route(triples, nvars)
    return route


@st.composite
def sums(draw, nvars, operands):
    """One to four (sign, u, v) triples of nonzero values, in which one sign
    or one operand may then be replaced by zero."""
    operands = operands.filter(lambda p: not p.is_zero)
    products = [[draw(st.sampled_from([1, -1, 2, Fraction(-3, 4)])), draw(operands),
                 draw(operands)] for _ in range(draw(st.integers(1, 4)))]
    spot = draw(st.sampled_from([None, 0, 1, 2]))
    if spot is not None:
        products[draw(st.integers(0, len(products) - 1))][spot] = (
            0 if spot == 0 else MPoly.zero(nvars))
    return [tuple(p) for p in products]


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_dot_is_the_sum_of_its_products(nvars, data):
    assert_dot_is_the_sum(nvars, data.draw(sums(nvars, polys(nvars))))


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_dot_is_the_sum_of_its_products_in_the_box(nvars, data):
    assert_dot_is_the_sum(nvars, data.draw(sums(nvars, box_polys(nvars))))


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_one_pair_dot_is_the_product(nvars, data):
    u, v = (data.draw(polys(nvars)) for _ in range(2))
    for sign in (1, -1):
        out = dot([(sign, u, v)])
        want = u * v * sign
        assert (out.content, out._coeffs) == (want.content, want._coeffs)


def kernel_bound(m, a, b):
    """The share of the kernel's coefficient bound that one product takes."""
    return (abs(m) * max(map(abs, a.values())) * max(map(abs, b.values()))
            * min(len(a), len(b)))


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_dot_takes_python_at_the_joint_int64_bound(nvars, data):
    # Integer operands, so each kernel multiplier is sign * u.content *
    # v.content, and each share is at most 2^27 * 2^27 * 40 < 2^60.  Each sign
    # is as large as keeps its product alone below the bound, so any two
    # products reach it together.
    terms = st.dictionaries(st.tuples(*[EXP] * nvars),
                            st.integers(-(1 << 27), 1 << 27).filter(bool),
                            min_size=20, max_size=40)
    products = []
    for _ in range(data.draw(st.integers(2, 3))):
        u, v = (MPoly.from_terms(nvars, data.draw(terms)) for _ in range(2))
        share = kernel_bound(u.content * v.content, u._coeffs, v._coeffs)
        sign = data.draw(st.sampled_from([1, -1])) * ((_NP_COEF_BOUND - 1) // share)
        products.append((sign, u, v))
    out, triples, route = traced_dot(products)
    shares = [kernel_bound(*t) for t in triples]
    assert max(shares) < _NP_COEF_BOUND <= sum(shares)
    assert sum(len(a) * len(b) for _, a, b in triples) >= _NP_PAIR_CUTOFF
    assert route == expected_route(triples, nvars) == "_dot_py"
    assert out == summed(nvars, products)


STEPS = ("+", "-", "neg", "*", "scale", "**", "partial", "embed", "dot")


@st.composite
def built_polys(draw, scalars, divisions=False):
    """Every polynomial of a short program in 2 variables: two ``from_terms``
    and a ``const`` of drawn scalars, both ``var``, ``one`` and ``zero``,
    then steps that each apply one operation to polynomials built before;
    with ``divisions``, a step may also take the numerator of a ``RatFunc``
    quotient.  Products stay at most 64 term pairs and total degree 32."""
    nvars = 2
    terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), scalars,
                            min_size=1, max_size=5)
    pool = [MPoly.from_terms(nvars, draw(terms)), MPoly.from_terms(nvars, draw(terms)),
            MPoly.const(nvars, draw(scalars)), MPoly.var(nvars, 0), MPoly.var(nvars, 1),
            MPoly.one(nvars), MPoly.zero(nvars)]
    steps = STEPS + (("over", "divide") if divisions else ())
    for _ in range(draw(st.integers(4, 12))):
        step = draw(st.sampled_from(steps))
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        pairs = a.term_count * max(a.term_count, b.term_count)
        degree = a.total_degree() + max(a.total_degree(), b.total_degree())
        if step in ("*", "**", "dot") and (pairs > 64 or degree > 32):
            step = "+"
        if step in ("over", "divide") and b.is_zero:
            step = "-"
        pool.append({
            "+": lambda: a + b,
            "-": lambda: a - b,
            "neg": lambda: -a,
            "*": lambda: a * b,
            "scale": lambda: a * draw(scalars),
            "**": lambda: a ** draw(st.integers(0, 2)),
            "partial": lambda: a.partial(draw(st.integers(0, nvars - 1))),
            "embed": lambda: a.embed(nvars, [1, 0]),
            "dot": lambda: dot([(draw(scalars), a, b), (draw(scalars), a, a)]),
            "over": lambda: RatFunc(a, b).num,
            "divide": lambda: (RatFunc(a) / RatFunc(b)).num,
        }[step]())
    return pool


@FIXED
@given(pool=built_polys(st.integers(-6, 6)))
def test_int_data_builds_int_contents(pool):
    assert [p.content for p in pool if type(p.content) is not int] == []


RAT_DATA = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))


@FIXED
@given(pool=built_polys(RAT_DATA, divisions=True))
def test_rat_contents_have_denominators_above_one(pool):
    assert [p.content for p in pool
            if not (type(p.content) is int
                    or type(p.content) is Fraction and p.content.denominator > 1)] == []


@pytest.mark.parametrize("n", [-4, 3])
def test_equality_agrees_across_int_and_rat_input(n):
    nvars = 2
    assert MPoly.const(nvars, n) == MPoly.const(nvars, Fraction(n))
    assert type(MPoly.const(nvars, Fraction(n)).content) is int
    rat = MPoly.from_terms(nvars, {(1, 0): Fraction(6, 3), (0, 2): Fraction(n)})
    ints = MPoly.from_terms(nvars, {(1, 0): 2, (0, 2): n})
    assert rat == ints
    assert (rat.content, rat._coeffs) == (ints.content, ints._coeffs)
    assert type(rat.content) is int


@FIXED
@given(data=st.data())
def test_ratfunc_field_axioms(data):
    # equality cross-multiplies products of two factors: four in all
    small = polys(3, sizes=(1, 3, 6), bits=(4,), exp=st.integers(0, _MAX_EXP // 4))
    a, b, c, d = (data.draw(small) for _ in range(4))
    if b.is_zero or d.is_zero:
        return
    f, g = RatFunc(a, b), RatFunc(c, d)
    assert f + g == RatFunc(a * d + c * b, b * d)
    assert f * g == g * f
    if not a.is_zero:
        assert f * RatFunc(b, a) == 1


# Entries over denominators 1, 6 and 35, of both signs: the lcm of a matrix's
# denominators ranges over 1..210, and sums and products cancel part of it.
RATS = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 6, 35]))
DIM = st.integers(0, 3)


@st.composite
def entry_lists(draw, rows, cols):
    return draw(st.lists(RATS, min_size=rows * cols, max_size=rows * cols))


def assert_canonical(m):
    assert m._den > 0 and math.gcd(m._den, *m._nums) == 1


def fraction_inverse(entries, n):
    """Gauss-Jordan on Fraction rows; None when singular."""
    a = [entries[i * n:(i + 1) * n] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    return [x for row in a for x in row[n:]]


@FIXED
@given(data=st.data())
def test_qmatrix_entrywise_ops_match_fraction_loops(data):
    r, c = data.draw(DIM), data.draw(DIM)
    x, y = data.draw(entry_lists(r, c)), data.draw(entry_lists(r, c))
    k = data.draw(RATS)
    a, b = QMatrix(r, c, x), QMatrix(r, c, y)
    cases = [(a + b, [u + v for u, v in zip(x, y)]),
             (a - b, [u - v for u, v in zip(x, y)]),
             (-a, [-u for u in x]),
             (a.scale(k), [u * k for u in x])]
    for got, want in cases:
        assert_canonical(got)
        assert got.data == want
    assert a.scale(Fraction(1, 3)).scale(3) == a
    assert (a.scale(Fraction(1, 6)) == a) == (not any(x))
    assert (a + b) - b == a
    assert a - a == QMatrix.zeros(r, c)


@FIXED
@given(data=st.data())
def test_qmatrix_products_match_fraction_loops(data):
    n, m, p, q = (data.draw(DIM) for _ in range(4))
    x, y = data.draw(entry_lists(n, m)), data.draw(entry_lists(m, p))
    z = data.draw(entry_lists(p, q))
    a, b, c = QMatrix(n, m, x), QMatrix(m, p, y), QMatrix(p, q, z)
    prod = a * b
    assert_canonical(prod)
    assert prod.data == [sum((x[i * m + k] * y[k * p + j] for k in range(m)), Fraction(0))
                         for i in range(n) for j in range(p)]
    assert (a * b) * c == a * (b * c)
    kr = kron(a, c)
    assert_canonical(kr)
    assert kr.data == [x[i * m + j] * z[k * q + l] for i in range(n) for k in range(p)
                       for j in range(m) for l in range(q)]


@FIXED
@given(data=st.data())
def test_qmatrix_inverse_matches_fraction_gauss_jordan(data):
    n = data.draw(st.integers(1, 4))
    x = data.draw(entry_lists(n, n))
    want = fraction_inverse(x, n)
    a = QMatrix(n, n, x)
    if want is None:
        with pytest.raises(Singular):
            mat_inverse(a)
        return
    inv = mat_inverse(a)
    assert_canonical(inv)
    assert inv.data == want
    assert a * inv == QMatrix.identity(n) == inv * a


def test_qmatrix_inverse_with_negative_last_pivot_has_positive_denominator():
    # numerators [[35, 0], [0, -6]] over 210: no row swap, last pivot -210
    inv = mat_inverse(QMatrix.from_rows([[Fraction(1, 6), 0], [0, Fraction(-1, 35)]]))
    assert_canonical(inv)
    assert inv.data == [6, 0, 0, -35]


@FIXED
@given(data=st.data())
def test_qmatrix_first_nonzero_is_a_reduced_rat(data):
    r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    x = data.draw(entry_lists(r, c))
    spot = QMatrix(r, c, x).first_nonzero()
    k = next((k for k, u in enumerate(x) if u), None)
    if k is None:
        assert spot is None
        return
    i, j, v = spot
    assert (i, j) == divmod(k, c) and v == x[k]
    assert type(v) is Fraction and math.gcd(v.numerator, v.denominator) == 1


@st.composite
def rank_rows(draw):
    """Wide, tall and empty Rat matrices as row lists; a row may be zero,
    sparse, a repeat or a multiple of an earlier row, or a combination of
    two."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = []
    for _ in range(r):
        kind = draw(st.sampled_from(["own", "zero", "sparse", "repeat", "multiple",
                                     "combination"]))
        if kind == "zero":
            rows.append([Fraction(0)] * c)
        elif kind == "sparse":
            rows.append(draw(st.lists(st.one_of(st.just(Fraction(0)), RATS),
                                      min_size=c, max_size=c)))
        elif kind == "own" or not rows:
            rows.append(draw(st.lists(RATS, min_size=c, max_size=c)))
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(RATS.filter(bool))
            if kind == "repeat":
                rows.append(list(u))
            elif kind == "multiple":
                rows.append([k * x for x in u])
            else:
                rows.append([k * x + y for x, y in zip(u, v)])
    return r, c, rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shape_rows=rank_rows())
def test_rank_matches_fraction_gauss_jordan(shape_rows):
    r, c, rows = shape_rows
    m = QMatrix(r, c, [x for row in rows for x in row])
    want = fraction_rank(rows)
    assert rank(m) == want
    transpose = QMatrix(c, r, [rows[i][j] for j in range(c) for i in range(r)])
    assert rank(transpose) == want


@st.composite
def deficient_products(draw):
    """Integer rows of A B, A being r x k and B k x c with k < min(r, c), so
    the rank is at most k; entries reach past 2^80, and zeros in A and B
    put zeros in pivot columns.  A zero column or a repeat of an earlier
    column is inserted at a drawn place, so a column with no pivot may come
    before a later pivot."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(r, c) - 1))
    entry = st.one_of(st.just(0), st.integers(-9, 9),
                      st.integers(1 << 40, 1 << 41).map(lambda x: x * (-1) ** x))
    a = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(r)]
    b = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(k)]
    rows = [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(c)] for row in a]
    at = draw(st.integers(0, c))
    source = draw(st.integers(0, at - 1)) if at and draw(st.booleans()) else None
    return [row[:at] + [0 if source is None else row[source]] + row[at:] for row in rows]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=deficient_products(), data=st.data())
def test_eliminate_matches_fraction_gauss_jordan(rows, data):
    cols = len(rows[0])
    assert rank(QMatrix.from_rows(rows)) == fraction_rank(rows)
    # every pivot row over the last pivot is that pivot's reduced row: the
    # floor divisions of the fraction-free steps were all exact
    width = data.draw(st.integers(0, cols))
    pivots, skipped, last = _eliminate([list(row) for row in rows], width)
    want, want_skipped = fraction_pivot_rows(rows, width)
    assert skipped == want_skipped
    assert [[Fraction(x, last) for x in row] for row in pivots] == want


# Leibniz commutators against the difference of the two compositions.  Each
# coefficient is a small polynomial over one of a few denominators, so the
# derivatives D^gamma g raise factor exponents as well as differentiate
# numerators.
LEIBNIZ = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def leibniz_coefficients(draw, nvars):
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars),
                                 st.integers(-3, 3), min_size=1, max_size=3))
    num = MPoly.from_terms(nvars, terms)
    j = draw(st.integers(0, nvars - 1))
    den = draw(st.sampled_from([MPoly.one(nvars), MPoly.var(nvars, j) + 1,
                                MPoly.var(nvars, j) * MPoly.var(nvars, 0) - 2,
                                MPoly.var(nvars, j) ** 2]))
    return RatFunc(num, den)


@st.composite
def rat_diff_ops(draw, nvars):
    alphas = draw(st.lists(st.tuples(*[st.integers(0, 2)] * nvars), max_size=3))
    return RatDiffOp.build(nvars, [(alpha, draw(leibniz_coefficients(nvars)))
                                   for alpha in alphas])


@st.composite
def helems(draw, trunc):
    # (order k, hbar power m) with k <= m <= trunc, as the Rees condition asks
    keys = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda kd: (kd[0], min(kd[0] + kd[1], trunc))), max_size=4))
    return HElem.build(trunc, [(key, draw(leibniz_coefficients(1))) for key in keys])


@LEIBNIZ
@given(data=st.data())
def test_do_commutator_is_the_difference_of_the_compositions(data):
    nvars = data.draw(st.integers(1, 3))
    a, b = data.draw(rat_diff_ops(nvars)), data.draw(rat_diff_ops(nvars))
    assert do_commutator(a, b) == do_compose(a, b) - do_compose(b, a)


@LEIBNIZ
@given(data=st.data())
def test_h_ad_is_the_difference_of_the_products(data):
    trunc = data.draw(st.integers(2, 5))
    f, b = data.draw(helems(trunc)), data.draw(helems(trunc))
    assert h_ad(f, b) == f * b - b * f


def pairwise(items):
    """The Leibniz sums as formed before ``rat_dot``: each (key, (scale, f, g))
    term built as the product f * g * scale, and the terms of each key summed
    pairwise by ``collect``."""
    return collect((key, f * g * scale) for key, (scale, f, g) in items)


@LEIBNIZ
@given(data=st.data())
def test_operator_leibniz_sums_match_the_pairwise_route(data):
    nvars = data.draw(st.integers(1, 3))
    a, b = data.draw(rat_diff_ops(nvars)), data.draw(rat_diff_ops(nvars))
    assert do_compose(a, b) == RatDiffOp(nvars, pairwise(_leibniz(a.coeffs, b.coeffs)))
    assert do_commutator(a, b) == RatDiffOp(nvars, pairwise(
        _leibniz(a.coeffs, b.coeffs, commutator=True)))


@LEIBNIZ
@given(data=st.data())
def test_helem_leibniz_sums_match_the_pairwise_route(data):
    trunc = data.draw(st.integers(2, 5))
    f, b = data.draw(helems(trunc)), data.draw(helems(trunc))
    assert f * b == HElem(trunc, pairwise(_leibniz(f.coeffs, b.coeffs, trunc)))
    assert h_ad(f, b) == HElem(trunc, pairwise(
        _leibniz(f.coeffs, b.coeffs, trunc, commutator=True)))


# Fused RatFunc sums.  Every denominator is a product of powers of four
# factors in three variables: the monomials x and y, which ``_reduce``
# cancels, and x + 1 and x z - 2.  The exponent vectors below give factor
# maps that are equal, disjoint ((1,0,0,0) and (0,1,0,1)) and nested
# ((1,0,1,0) in (2,0,1,0)); numerators carry a monomial factor so that
# ``_reduce`` fires on products and sums.
X, Y, Z = (MPoly.var(3, i) for i in range(3))
FACTORS = [X, Y, X + 1, X * Z - 2]
MAPS = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 1, 0), (2, 0, 1, 0), (0, 1, 0, 1),
        (0, 2, 0, 0), (1, 1, 1, 1)]
# 1, -1, binomials C(n, k) and their negatives, and a fraction
SCALES = [1, -1, 2, -3, 6, 10, Fraction(-3, 4)]


@st.composite
def factored(draw):
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3),
                                 min_size=1, max_size=3))
    num = MPoly.from_terms(3, terms) * draw(st.sampled_from([MPoly.one(3), X, X * Y, Y ** 2]))
    f = RatFunc(num)
    for p, e in zip(FACTORS, draw(st.sampled_from(MAPS))):
        for _ in range(e):
            f = f / RatFunc(p)
    return f


@st.composite
def fused_sums(draw):
    """One to five (scale, f, g) triples; then, maybe, the negated triples
    of a prefix with f and g swapped, so part or all of the sum cancels."""
    triples = [(draw(st.sampled_from(SCALES)), draw(factored()), draw(factored()))
               for _ in range(draw(st.integers(1, 5)))]
    cancel = draw(st.integers(0, len(triples)))
    return triples + [(-s, g, f) for s, f, g in triples[:cancel]]


def assert_reduced(r):
    """No factor x_i of the map divides every numerator term (``_reduce``)."""
    if r.is_zero:
        assert not r._factors
        return
    common = _common_monomial_key(r.num)
    for p in r._factors:
        if len(p) == 1:
            assert not (common >> (p.span.bit_length() - 1)) & ((1 << _SHIFT) - 1)


@LEIBNIZ
@given(triples=fused_sums())
def test_rat_dot_is_the_sum_of_its_products(triples):
    out = rat_dot(triples)
    products = [f * g * s for s, f, g in triples]
    want = sum(products[1:], products[0])
    assert out == want and out.is_zero == want.is_zero
    assert_reduced(out)


def test_rat_dot_of_a_sum_that_cancels_is_zero_without_factors():
    f = RatFunc(X + 1, (X * Z - 2) * Y)
    g = RatFunc(Y, X ** 2)
    out = rat_dot([(3, f, g), (-1, g, f), (-2, f, g)])
    assert out.is_zero and not out._factors
    with pytest.raises(ValueError):
        rat_dot([])


# Dual-number commutators and the bracket kernel, on n = 1 and n = 2 legs of
# the symplectic space (x_1, xi_1, ..., x_n, xi_n).  Denominators are
# products of powers of three non-monomial factors, so that factor maps stay
# as drawn; bodies over one map take the bracket's numerator route, bodies
# over two maps its RatFunc route.
def symplectic_factors(n):
    v = [MPoly.var(2 * n, i) for i in range(2 * n)]
    return [v[0] + 1, v[0] * v[1] - 2, v[-1] + v[-2] - 3]


SYMPLECTIC_MAPS = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 1, 0), (1, 1, 1)]


@st.composite
def symplectic_functions(draw, n, factor_map=None):
    """A nonzero numerator of 1 to 4 terms over ``factor_map`` (exponents
    of ``symplectic_factors(n)``), drawn when not given."""
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * (2 * n)),
                                 st.integers(-3, 3).filter(bool), min_size=1, max_size=4))
    den = MPoly.one(2 * n)
    for p, e in zip(symplectic_factors(n), factor_map or draw(st.sampled_from(SYMPLECTIC_MAPS))):
        den = den * p ** e
    return RatFunc(MPoly.from_terms(2 * n, terms), den)


@st.composite
def dual_pairs(draw, n, same_map):
    """Two dual numbers with nonzero souls over maps of their own; the bodies
    share one factor map when ``same_map``."""
    body_map = draw(st.sampled_from(SYMPLECTIC_MAPS))
    a, b = (DualNum(draw(symplectic_functions(n, body_map if same_map else None)),
                    draw(symplectic_functions(n))) for _ in range(2))
    return a, b


def dual_difference(a, b):
    """The commutator as formed before ``dual_commutator``: two products."""
    return dual_mul(a, b) - dual_mul(b, a)


@LEIBNIZ
@given(data=st.data())
def test_dual_commutator_is_the_difference_of_the_products(data):
    # nonzero souls, bodies over one factor map: the numerator route
    a, b = data.draw(dual_pairs(data.draw(st.integers(1, 2)), same_map=True))
    assert a.body.same_den(b.body) and not (a.soul.is_zero or b.soul.is_zero)
    assert dual_commutator(a, b) == dual_difference(a, b)


@LEIBNIZ
@given(data=st.data())
def test_dual_commutator_over_distinct_factor_maps(data):
    # bodies over two factor maps: the RatFunc route of the bracket
    a, b = data.draw(dual_pairs(data.draw(st.integers(1, 2)), same_map=False))
    assume(not a.body.same_den(b.body))
    assert dual_commutator(a, b) == dual_difference(a, b)


@LEIBNIZ
@given(data=st.data())
def test_dual_commutator_on_one_leg_where_it_is_nonzero(data):
    # one symplectic leg: the bodies' bracket need not vanish, so neither
    # does the commutator, and a kernel that lost a term would show
    a, b = data.draw(dual_pairs(1, same_map=data.draw(st.booleans())))
    want = dual_difference(a, b)
    assume(not want.is_zero)
    got = dual_commutator(a, b)
    assert got == want and not got.is_zero


@st.composite
def signed_pairs(draw, same_map):
    """One to four (scale, f, g) pairs drawn from a pool of three functions,
    so an operand enters several pairs and may meet itself; the pool shares
    one factor map when ``same_map``."""
    n = draw(st.integers(1, 2))
    factor_map = draw(st.sampled_from(SYMPLECTIC_MAPS)) if same_map else None
    pool = [draw(symplectic_functions(n, factor_map)) for _ in range(3)]
    index = st.integers(0, 2)
    return [(draw(st.sampled_from([1, -1, 2, Fraction(-3, 4)])), pool[draw(index)],
             pool[draw(index)]) for _ in range(draw(st.integers(1, 4)))]


@pytest.mark.parametrize("same_map", [True, False], ids=["one-map", "mixed-maps"])
@LEIBNIZ
@given(data=st.data())
def test_bracket_sum_is_the_sum_of_its_brackets(same_map, data):
    pairs = data.draw(signed_pairs(same_map))
    brackets = [poisson_bracket(f, g) * s for s, f, g in pairs]
    assert bracket_sum(pairs) == sum(brackets[1:], brackets[0])
