"""Field axioms and normalization of the exact complex scalar."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crjets import GaussianRational, I, rational_sqrt
from crjets.rationals import as_gaussian


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
