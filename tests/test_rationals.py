"""Field axioms and normalization of the exact complex scalar."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from crjets import GaussianRational, I, rational_sqrt
from crjets.rationals import as_gaussian, merged, multiple, scaled

from oracles import assert_normalized


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


fracs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(GaussianRational, fracs, fracs)


def test_normalization_is_canonical():
    a = GaussianRational(Fraction(2, 4), Fraction(-6, 4))
    b = GaussianRational(Fraction(1, 2), Fraction(-3, 2))
    assert a == b
    assert hash(a) == hash(b)


def test_basic_values():
    assert I * I == gr(-1)
    assert (gr(1) + I).conjugate() == gr(1) - I
    assert gr(3, 4) * gr(3, 4).conjugate() == gr(25)


def test_division_and_inverse():
    x = gr(3, -2)
    assert x * (gr(1) / x) == gr(1)
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_mixed_coercion():
    # ints and Fractions must participate from either side
    assert 2 * I == I + I
    assert Fraction(1, 2) + gr(1, 1) == gr(Fraction(3, 2), 1)
    assert 1 - I == gr(1, -1)
    assert 6 / gr(0, 2) == gr(0, -3)


@pytest.mark.parametrize(
    "x",
    [0, 1, -7, 2**70, -(2**70), True, False, Fraction(-3, 4), Fraction(6, -8), Fraction(5), Fraction(-(2**65), 3)],
)
def test_coercion_matches_the_constructor(x):
    built, coerced = GaussianRational(x), as_gaussian(x)
    assert built == coerced
    assert (built.a, built.b, built.d) == (coerced.a, coerced.b, coerced.d)
    assert type(coerced.a) is int and type(coerced.d) is int
    assert coerced.d > 0


def test_predicates():
    assert gr(0).is_zero()
    assert not gr(0, 1).is_zero()
    assert gr(5).is_real()
    assert not I.is_real()
    assert bool(I) and not bool(gr(0))


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_conjugation_is_involutive_and_multiplicative(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).is_real()


@given(scalars, scalars)
def test_conjugation_distributes(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(scalars)
def test_field_inverse(a):
    if not a.is_zero():
        assert a * (1 / a) == GaussianRational(1)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(4)) == 2
    assert rational_sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_string_forms():
    assert str(gr(1, -1)) == "1-1i"
    assert str(gr(0, Fraction(1, 2))) == "1/2i"
    assert str(gr(Fraction(-2, 3))) == "-2/3"


def test_parse_rejects_garbage():
    # literals are read by crjets.io; the constructor takes no strings at all
    for text in ("not a number", "1/2", "3"):
        with pytest.raises(TypeError):
            GaussianRational(text)


def test_refused_scalars():
    with pytest.raises(ZeroDivisionError):
        GaussianRational.normalize(1, 0, 0)
    with pytest.raises(TypeError, match="^expected an exact scalar, got float$"):
        as_gaussian(1.5)


BIG = 1 << 1000
# Parts with a numerator or a denominator of at least 1000 bits, and parts
# whose denominators share the factors 2, 3 and 5.
wide_parts = st.one_of(
    fracs,
    st.builds(Fraction, st.integers(-4 * BIG, 4 * BIG), st.sampled_from([1, 2, 6, 30, 3 * BIG])),
    st.builds(Fraction, st.integers(-30, 30), st.integers(BIG, 4 * BIG)),
)
wide_scalars = st.builds(GaussianRational, wide_parts, wide_parts)
axis_scalars = st.one_of(
    st.sampled_from([GaussianRational(1), GaussianRational(-1), I, -I]),
    st.builds(GaussianRational, wide_parts),
    st.builds(lambda q: GaussianRational(0, q), wide_parts),
)
maps = st.dictionaries(st.integers(0, 20), wide_scalars.filter(bool), max_size=8)


def exact(c):
    return c.real, c.imag


def product(x, v):
    return (x.real * v.real - x.imag * v.imag, x.real * v.imag + x.imag * v.real)


@given(maps, st.one_of(axis_scalars, wide_scalars))
@example({0: gr(Fraction(2, 3), Fraction(4, 3)), 1: gr(Fraction(1, 2))}, gr(Fraction(1, 2)))
@example({0: gr(Fraction(2, 3), Fraction(4, 3)), 1: gr(Fraction(1, 2))}, gr(0, 6))
@example({0: gr(4, 2), 1: gr(Fraction(1, 6))}, gr(Fraction(-3, 2)))
@settings(max_examples=80, deadline=None)
def test_scaled_is_the_product_in_lowest_terms(values, v):
    got = scaled(values, v)
    want = {k: product(c, v) for k, c in values.items() if not v.is_zero()}
    assert {k: exact(c) for k, c in got.items()} == want
    assert_normalized(got)


@given(wide_scalars.filter(bool), st.one_of(st.integers(1, 6), st.integers(BIG, 2 * BIG)))
@example(gr(Fraction(1, 6), Fraction(5, 6)), 3)
@example(gr(Fraction(1, 3 * BIG)), 2 * BIG)
def test_multiple_is_the_product_in_lowest_terms(c, e):
    got = multiple(c, e)
    assert exact(got) == (e * c.real, e * c.imag)
    assert_normalized({0: got})
    assert multiple(c, 1) is c


@given(maps, maps, st.booleans(), st.data())
@example({0: gr(Fraction(1, 6), Fraction(5, 6))}, {0: gr(Fraction(1, 6), Fraction(-5, 6))}, False, None)
@example({0: gr(Fraction(1, 6))}, {0: gr(Fraction(1, 6))}, True, None)
@settings(max_examples=80, deadline=None)
def test_merged_is_the_sum_in_lowest_terms(values, other, negate, data):
    # Some keys of other repeat, negate or share the denominator of values'.
    if data is not None:
        for k, c in values.items():
            kind = data.draw(st.sampled_from(("same", "negated", "denominator", "keep")))
            if kind == "same":
                other[k] = c
            elif kind == "negated":
                other[k] = -c
            elif kind == "denominator":
                n = data.draw(st.integers(-4 * BIG, 4 * BIG))
                if n:
                    other[k] = GaussianRational(Fraction(n, c.d), Fraction(1, c.d))
    got = merged(values, other, negate)
    sign = -1 if negate else 1
    want = {k: exact(c) for k, c in values.items()}
    for k, c in other.items():
        re, im = want.get(k, (Fraction(0), Fraction(0)))
        want[k] = (re + sign * c.real, im + sign * c.imag)
    assert {k: exact(c) for k, c in got.items()} == {k: c for k, c in want.items() if any(c)}
    assert_normalized(got)
