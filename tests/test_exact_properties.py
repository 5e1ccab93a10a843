"""Property tests of the ``MPoly``/``RatFunc`` ring axioms at the guards of
the product kernels: products on both sides of the numpy pair cutoff,
exponents near the packing limit and coefficients near the numpy int64 bound.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from commfam import exact
from commfam.exact import _MAX_EXP, MPoly, RatFunc

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


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_mpoly_ring_axioms(nvars, data):
    a, b, c = (data.draw(polys(nvars)) for _ in range(3))
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


@pytest.mark.parametrize("nvars", [2, 6])
@FIXED
@given(data=st.data())
def test_dict_mul_matches_python_kernel(nvars, data):
    a, b = (data.draw(polys(nvars)) for _ in range(2))
    if a.is_zero or b.is_zero:
        return
    out = exact._dict_mul(a._coeffs, b._coeffs, nvars,
                          a._max_abs_coeff(), b._max_abs_coeff())
    reference = exact._dict_mul_py(a._coeffs, b._coeffs)
    assert {k: v for k, v in out.items() if v} == {k: v for k, v in reference.items() if v}


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
