"""Jet arithmetic against the naive oracle, plus the strictness contract."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from crjets import Alphabet, GaussianRational, I, Jet, compose, compose_many, generators, jet_sqrt
from crjets.alphabet import SMALL_LIMIT
from crjets.errors import (
    AlphabetMismatchError,
    NonUnitConstantError,
    NotDivisibleError,
    OrderMismatchError,
    PreconditionError,
)

from oracles import (
    ONE,
    ZERO,
    jet_to_poly,
    padd,
    pcompose,
    pconj,
    pderive,
    pmul,
    poly_to_jet,
    ptruncate,
)

XY = Alphabet(("x", "y"), None)
ZZB = Alphabet(("z", "zb"), {"z": "zb"})
# More variables than the 6-bit packing holds: codes use 16-bit fields.
WIDE = Alphabet(tuple(f"v{i}" for i in range(SMALL_LIMIT + 3)), None)

fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
coefs = st.tuples(fracs, fracs)


@st.composite
def polys(draw, order=5, width=2, min_degree=0):
    n = draw(st.integers(0, 5))
    p = {}
    for _ in range(n):
        exps = []
        room = order
        for _ in range(width):
            e = draw(st.integers(0, room))
            exps.append(e)
            room -= e
        if sum(exps) < min_degree:
            continue
        c = draw(coefs)
        if c != ZERO:
            p[tuple(exps)] = c
    return p


def test_constructor_validates():
    with pytest.raises(PreconditionError):
        Jet(XY, -1, {})
    x = Jet.variable(XY, 3, "x")
    with pytest.raises(PreconditionError):
        Jet.variable(XY, 3, "q")


def test_coefficient_beyond_order_raises():
    x = Jet.variable(XY, 2, "x")
    assert x.coefficient({"x": 1}) == GaussianRational(1)
    assert x.coefficient({"y": 2}).is_zero()
    with pytest.raises(PreconditionError):
        x.coefficient({"x": 3})


def test_strict_alphabet_and_order():
    x = Jet.variable(XY, 3, "x")
    z = Jet.variable(ZZB, 3, "z")
    with pytest.raises(AlphabetMismatchError):
        x + z
    with pytest.raises(OrderMismatchError):
        x * x.truncate(2)


def test_truncate_only_lowers():
    x = Jet.variable(XY, 4, "x")
    assert x.truncate(2).order == 2
    with pytest.raises(PreconditionError):
        x.truncate(5)
    # with_order is the explicit, caller-asserted promotion
    assert x.with_order(6).order == 6


@given(polys(), polys())
def test_addition_matches_oracle(p, q):
    jp, jq = poly_to_jet(p, XY, 5), poly_to_jet(q, XY, 5)
    assert jet_to_poly(jp + jq) == padd(p, q)


@st.composite
def products(draw):
    """(alphabet, order, p, q): operands of one truncated product."""
    alphabet = draw(st.sampled_from([XY, WIDE]))
    order = draw(st.integers(1, 5))
    width = alphabet.nvars
    return alphabet, order, draw(polys(order, width)), draw(polys(order, width))


MINUS_ONE = (Fraction(-1), Fraction(0))


def wide_monomial(*indices):
    exps = [0] * WIDE.nvars
    for i in indices:
        exps[i] += 1
    return tuple(exps)


@given(products())
# an empty operand
@example((XY, 5, {}, {(0, 0): ONE, (1, 0): ONE}))
# (1 + x)(1 - x): the x terms cancel and x^2 lies past the cap
@example((XY, 1, {(0, 0): ONE, (1, 0): ONE}, {(0, 0): ONE, (1, 0): MINUS_ONE}))
# every product monomial lies past the cap
@example((XY, 1, {(1, 0): ONE}, {(0, 1): ONE}))
# exponents spread over the last fields of the 16-bit packing
@example(
    (
        WIDE,
        5,
        {wide_monomial(0, 11): ONE, wide_monomial(10, 11, 11): (Fraction(2), Fraction(-3, 4))},
        {wide_monomial(11): MINUS_ONE, wide_monomial(3, 9): (Fraction(0), Fraction(1, 7))},
    )
)
@settings(max_examples=60)
def test_multiplication_matches_oracle(case):
    alphabet, order, p, q = case
    jp, jq = poly_to_jet(p, alphabet, order), poly_to_jet(q, alphabet, order)
    assert jet_to_poly(jp * jq) == pmul(p, q, order)


@given(polys(), polys(), polys())
@settings(max_examples=40)
def test_ring_properties(p, q, r):
    a, b, c = (poly_to_jet(v, XY, 5) for v in (p, q, r))
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(polys())
def test_derive_matches_oracle(p):
    jp = poly_to_jet(p, XY, 5)
    d = jp.derive("x")
    assert d.order == 4
    assert jet_to_poly(d) == ptruncate(pderive(p, 0), 4)


def test_divide_by_coordinate():
    x, y = Jet.variable(XY, 4, "x"), Jet.variable(XY, 4, "y")
    f = x * x * y + x * y
    g = f.divide_by_coordinate("x")
    assert g == (x * y + y).truncate(3)
    with pytest.raises(NotDivisibleError) as err:
        (f + y).divide_by_coordinate("x")
    assert "y" in str(err.value)


@given(polys(min_degree=1), polys(min_degree=1))
@settings(max_examples=40)
def test_compose_matches_oracle(pin1, pin2):
    outer_poly = {(2, 0): ONE, (1, 1): (Fraction(3), Fraction(0)), (0, 1): (Fraction(0), Fraction(1))}
    outer = poly_to_jet(outer_poly, XY, 5)
    g1, g2 = poly_to_jet(pin1, XY, 5), poly_to_jet(pin2, XY, 5)
    got = compose(outer, {"x": g1, "y": g2})
    want = pcompose(outer_poly, [jet_to_poly(g1), jet_to_poly(g2)], 5, 2)
    assert jet_to_poly(got) == want


def test_compose_rejects_nonzero_constant():
    x, y = Jet.variable(XY, 4, "x"), Jet.variable(XY, 4, "y")
    with pytest.raises(PreconditionError):
        compose(x, {"x": y + 1, "y": y})
    # explicit opt-in for frozen parameters
    got = compose_many([x], {"x": y + 1, "y": y}, allow_constant=("x",))
    assert got[0] == y + 1


@given(polys(width=2))
def test_conjugation_matches_oracle(p):
    jp = poly_to_jet(p, ZZB, 5)
    assert jet_to_poly(jp.conjugate()) == pconj(p, [1, 0])
    assert jp.conjugate().conjugate() == jp


@given(polys(width=2), polys(width=2))
@settings(max_examples=40)
def test_conjugation_is_a_ring_map(p, q):
    a, b = poly_to_jet(p, ZZB, 5), poly_to_jet(q, ZZB, 5)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(polys(width=2))
def test_real_imag_decomposition(p):
    a = poly_to_jet(p, ZZB, 5)
    re, im = a.real_part(), a.imag_part()
    assert re.is_real() and im.is_real()
    assert re + im * I == a


def test_unit_inverse():
    x = Jet.variable(XY, 6, "x")
    f = 1 + x + x * x * 3
    assert f * f.unit_inverse() == Jet.constant(XY, 6, 1)
    with pytest.raises(NonUnitConstantError):
        x.unit_inverse()


def test_jet_sqrt_squares_back():
    x, y = Jet.variable(XY, 6, "x"), Jet.variable(XY, 6, "y")
    a = 1 + x + y * y * Fraction(1, 3) + x * y * x
    r = jet_sqrt(a)
    assert r * r == a
    assert r.constant_term() == GaussianRational(1)
    with pytest.raises(NonUnitConstantError):
        jet_sqrt(a * 4)  # constant 4 is a unit but not 1; no silent rescale


def test_geometric_series_identity():
    # (1 - x)^-1 = 1 + x + ... + x^K exactly at order K
    x = Jet.variable(XY, 7, "x")
    inv = (1 - x).unit_inverse()
    expect = sum((x ** k for k in range(1, 8)), Jet.constant(XY, 7, 1))
    assert inv == expect


def test_pow_matches_repeated_multiplication():
    x, y = Jet.variable(XY, 6, "x"), Jet.variable(XY, 6, "y")
    f = x + y * y - 1
    assert f ** 5 == f * f * f * f * f
    assert f ** 0 == Jet.constant(XY, 6, 1)


def test_rename_and_embed():
    x = Jet.variable(XY, 4, "x")
    target = Alphabet(("u", "y", "x"), None)
    g = (x * x + x).rename({"x": "u"}, target)
    u = Jet.variable(target, 4, "u")
    assert g == u * u + u
    back = g.rename({"u": "x"}, XY)
    assert back == x * x + x
    with pytest.raises(PreconditionError):
        (x * x).rename({}, Alphabet(("y",), None))


def test_evaluate_is_exact():
    x, y = Jet.variable(XY, 3, "x"), Jet.variable(XY, 3, "y")
    f = x * x + y * 2 - 1
    v = f.evaluate({"x": GaussianRational(Fraction(1, 2)), "y": I})
    assert v == GaussianRational(Fraction(-3, 4), 2)


def test_monomials_come_out_graded():
    x, y = Jet.variable(XY, 4, "x"), Jet.variable(XY, 4, "y")
    f = y + x * x * y + x * 2
    degs = [sum(vec) for vec, _ in f.monomials()]
    assert degs == sorted(degs)


def test_valuation_and_homogeneous_part():
    x, y = Jet.variable(XY, 5, "x"), Jet.variable(XY, 5, "y")
    f = x * y + x * x * x
    assert f.valuation() == 2
    assert f.homogeneous_part(2) == x * y
    assert Jet.zero(XY, 5).valuation() is None
