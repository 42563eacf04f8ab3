"""Jet arithmetic and its product kernel against the naive oracle, plus the strictness contract."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import crjets._kernels
from crjets import Alphabet, GaussianRational, I, Jet, compose_many, jet_sqrt
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
    assert_normalized,
    jet_to_poly,
    padd,
    pcompose,
    pconj,
    pderive,
    pinverse,
    pmul,
    point_args,
    psqrt,
    poly_to_jet,
    prename,
    pscale,
    ptruncate,
)

XY = Alphabet(("x", "y"), None)
XYZ = Alphabet(("x", "y", "z"), None)
ZZB = Alphabet(("z", "zb"), {"z": "zb"})
# Conjugate pairs side by side with a real variable between them.
INTERLEAVED = Alphabet(("p", "pb", "r", "q", "qb"), {"p": "pb", "q": "qb"})
# More variables than the 6-bit packing holds: codes use 16-bit fields.
WIDE = Alphabet(tuple(f"v{i}" for i in range(SMALL_LIMIT + 3)), None)
WIDE_CONJ = Alphabet(
    tuple(f"c{i}" for i in range(SMALL_LIMIT + 2)), {"c0": "c10", "c3": "c4", "c9": "c1"}
)

# The values of st.fractions(-9, 9, max_denominator=6), drawn faster.
fracs = st.integers(1, 6).flatmap(lambda d: st.integers(-9 * d, 9 * d).map(lambda n: Fraction(n, d)))
coefs = st.tuples(fracs, fracs)
BIG = 1 << 1000
# Parts with a numerator or a denominator of at least 1000 bits.
big_fracs = st.one_of(
    st.builds(lambda n, sign, d: Fraction(sign * n, d), st.integers(BIG, 4 * BIG), st.sampled_from([1, -1]), st.integers(1, 30)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(BIG, 4 * BIG)),
)
wide_coefs = st.tuples(st.one_of(fracs, big_fracs), st.one_of(fracs, big_fracs))


@st.composite
def polys(draw, order=5, width=2, min_degree=0, coefficients=coefs):
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
        c = draw(coefficients)
        if c != ZERO:
            p[tuple(exps)] = c
    return p


def test_constructor_validates():
    with pytest.raises(PreconditionError):
        Jet(XY, -1, {})
    x = Jet.variable(XY, 3, "x")
    with pytest.raises(PreconditionError):
        Jet.variable(XY, 3, "q")


def test_constructor_refuses_a_term_above_its_order():
    with pytest.raises(PreconditionError, match="^term of degree 3 exceeds declared order 2$"):
        Jet(XY, 2, {XY.encode((2, 1)): GaussianRational(1)})
    with pytest.raises(PreconditionError, match="^order must be at least 1 to carry a variable$"):
        Jet.variable(XY, 0, "x")


def test_negative_powers_are_refused():
    x = Jet.variable(XY, 3, "x")
    with pytest.raises(PreconditionError, match="^negative jet powers go through unit_inverse$"):
        x ** -1


def test_equal_jets_hash_equal():
    x = Jet.variable(XY, 3, "x")
    y = Jet.variable(XY, 3, "y")
    assert (x + y) * 2 == x * 2 + y * 2
    assert hash((x + y) * 2) == hash(x * 2 + y * 2)


def test_scalar_sums():
    x = Jet.variable(XY, 3, "x")
    assert (x + 0) is x
    assert 0 not in ((x + 2) + (-2)).terms
    assert (x + 2) + (-2) == x
    assert (x + 2).constant_term() == GaussianRational(2)


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
        x + x.truncate(2)
    # a product derives its order from the factors' orders and valuations
    assert (x * x.truncate(2)).order == 3


def test_truncate_only_lowers():
    x = Jet.variable(XY, 4, "x")
    assert x.truncate(2).order == 2
    with pytest.raises(PreconditionError):
        x.truncate(5)


@st.composite
def products(draw):
    """(alphabet, order, cap, p, q): operands of one order and a kernel cap <= order."""
    alphabet = draw(st.sampled_from([XY, WIDE]))
    order = draw(st.integers(1, 5))
    cap = draw(st.integers(0, order))
    p = draw(polys(order, alphabet.nvars, coefficients=wide_coefs))
    q = draw(polys(order, alphabet.nvars, coefficients=wide_coefs))
    return alphabet, order, cap, p, q


MINUS_ONE = (Fraction(-1), Fraction(0))
HALF = (Fraction(1, 2), Fraction(0))
MINUS_HALF_I = (Fraction(0), Fraction(-1, 2))
HUGE = (Fraction(3 * BIG + 1, 7), Fraction(-1, 2 * BIG + 3))


def wide_monomial(*indices):
    exps = [0] * WIDE.nvars
    for i in indices:
        exps[i] += 1
    return tuple(exps)


@given(products())
# an empty operand
@example((XY, 5, 5, {}, {(0, 0): ONE, (1, 0): ONE}))
# (1 + x)(1 - x): the x terms cancel and x^2 lies past the cap
@example((XY, 1, 1, {(0, 0): ONE, (1, 0): ONE}, {(0, 0): ONE, (1, 0): MINUS_ONE}))
# every product monomial lies past the cap
@example((XY, 1, 1, {(1, 0): ONE}, {(0, 1): ONE}))
# both valuations are 2 and the kernel's cap is 1: no product term survives
@example((XY, 5, 1, {(2, 0): ONE, (1, 1): HUGE}, {(0, 2): HUGE, (3, 0): ONE}))
# the same on the 16-bit packing, where the bisect bound shifts by deg_shift
@example((WIDE, 5, 2, {wide_monomial(11, 11, 11): HUGE}, {wide_monomial(10, 10, 10): ONE, wide_monomial(0, 1, 11): HUGE}))
# mixed denominators: -(2 + 2i)/12 and then (1 + i)/6 meet at x*y and
# merge to zero, and the constant 3/2 * 2/3 comes out as 1
@example(
    (
        XY,
        2,
        2,
        {(0, 0): (Fraction(3, 2), Fraction(0)), (1, 0): (Fraction(1, 2), Fraction(1, 2)), (0, 1): (Fraction(-1, 4), Fraction(-1, 4))},
        {(0, 0): (Fraction(2, 3), Fraction(0)), (0, 1): (Fraction(1, 3), Fraction(0)), (1, 0): (Fraction(2, 3), Fraction(0))},
    )
)
# exponents spread over the last fields of the 16-bit packing
@example(
    (
        WIDE,
        5,
        4,
        {wide_monomial(0, 11): ONE, wide_monomial(10, 11, 11): (Fraction(2), Fraction(-3, 4))},
        {wide_monomial(11): MINUS_ONE, wide_monomial(3, 9): (Fraction(0), Fraction(1, 7))},
    )
)
# v11^2 * v10^3 has degree exactly the cap
@example(
    (
        WIDE,
        5,
        5,
        {wide_monomial(11, 11): HUGE, wide_monomial(0, 11, 11): ONE},
        {wide_monomial(10, 10, 10): (Fraction(1, 3), Fraction(1, 6)), wide_monomial(10, 10, 10, 11): ONE},
    )
)
@settings(max_examples=60, deadline=None)
def test_multiplication_matches_oracle(case):
    """Jet * Jet at the operands' order, and the kernel's mul_terms at a cap up to it."""
    alphabet, order, cap, p, q = case
    jp, jq = poly_to_jet(p, alphabet, order), poly_to_jet(q, alphabet, order)
    product = jp * jq
    assert jet_to_poly(product) == pmul(p, q, order)
    assert_normalized(product.terms)
    # the constructor refuses a term past the cap
    low = crjets._kernels.mul_terms(jp.terms, jq.terms, alphabet.deg_shift, cap)
    assert jet_to_poly(Jet(alphabet, cap, low)) == pmul(p, q, cap)
    assert_normalized(low)


@st.composite
def accumulations(draw):
    """(alphabet, cap, seed, p, q, r, s): a seed of degree <= cap and two products."""
    alphabet = draw(st.sampled_from([XY, WIDE]))
    cap = draw(st.integers(0, 5))
    seed = draw(polys(cap, alphabet.nvars, coefficients=wide_coefs))
    operands = tuple(draw(polys(5, alphabet.nvars, coefficients=wide_coefs)) for _ in range(4))
    return (alphabet, cap, seed) + operands


@given(accumulations())
# a cap below every operand's valuation leaves the seed as it was
@example((XY, 1, {(0, 1): HUGE}, {(2, 0): ONE}, {(1, 1): HUGE}, {(0, 3): ONE}, {(2, 1): ONE}))
@settings(max_examples=60, deadline=None)
def test_mul_into_accumulates_raw_products(case):
    """A seed and two products summed raw in one accumulator, finished once."""
    alphabet, cap, seed, p, q, r, s = case
    acc = {c: [v.a, v.b, v.d] for c, v in poly_to_jet(seed, alphabet, cap).terms.items()}
    for outer, inner in ((p, q), (r, s)):
        a = crjets._kernels.unpack(poly_to_jet(outer, alphabet, 5).terms)
        b = crjets._kernels.unpack(poly_to_jet(inner, alphabet, 5).terms)
        crjets._kernels.mul_into(acc, a, b, alphabet.deg_shift, cap)
    got = crjets._kernels.finish(acc)
    assert jet_to_poly(Jet(alphabet, cap, got)) == padd(padd(seed, pmul(p, q, cap)), pmul(r, s, cap))
    assert_normalized(got)
    assert_raw_form_of(crjets._kernels.finish_unpacked(acc), got)


def test_unpack_sorts_by_code():
    p = {wide_monomial(3): ONE, wide_monomial(): HUGE, wide_monomial(0, 1): ONE, wide_monomial(11): ONE}
    terms = poly_to_jet(p, WIDE, 5).terms
    got = crjets._kernels.unpack(terms)
    assert [t[0] for t in got] == sorted(terms)
    assert [GaussianRational.normalize(*t[1:]) for t in got] == [terms[t[0]] for t in got]


def test_finish_normalizes_once_and_drops_zeros():
    got = crjets._kernels.finish({5: [2, 4, -6], 7: [0, 0, 35], 9: [6, 0, 4]})
    assert got == {5: GaussianRational(Fraction(-1, 3), Fraction(-2, 3)), 9: GaussianRational(Fraction(3, 2))}
    assert_normalized(got)


@st.composite
def raw_accumulators(draw):
    """Raw [a, b, d] accumulators in any code order: positive denominators
    that differ between entries, common factors, entries that cancelled to
    zero and entries past 1000 bits."""
    wide = st.integers(-(2**1100), 2**1100)
    parts = st.one_of(st.integers(-40, 40), wide)
    denominators = st.one_of(st.integers(1, 60), st.integers(1, 2**1100))
    acc = {}
    for code in draw(st.lists(st.integers(0, 2**24), max_size=12, unique=True)):
        factor = draw(st.integers(1, 12))
        if draw(st.integers(0, 4)):
            a, b = draw(parts), draw(parts)
        else:
            a = b = 0
        acc[code] = [a * factor, b * factor, draw(denominators) * factor]
    return acc


def assert_raw_form_of(raw, finished):
    """raw is code-sorted, free of zeros, and holds finished's monomials,
    each an exact but possibly unreduced (code, a, b, d) with d > 0."""
    assert [t[0] for t in raw] == sorted(finished)
    for c, a, b, d in raw:
        assert d > 0
        assert GaussianRational.normalize(a, b, d) == finished[c]


@given(raw_accumulators())
@example({9: [3 * 2**1001, 6, 9], 2: [0, 0, 7], 5: [4, -8, 12], 1: [-(2**1100), 2**1099, 2**1050]})
def test_finish_unpacked_is_unpack_of_finish(acc):
    """The kernel form of an accumulator has finish's values: code-sorted,
    zeros dropped, each term equal as a rational to finish's, left
    unreduced."""
    got = crjets._kernels.finish_unpacked(acc)
    assert_raw_form_of(got, crjets._kernels.finish(acc))
    assert [t[0] for t in got] == sorted(c for c, (a, b, _) in acc.items() if a or b)


@given(polys(), polys(), polys())
@settings(max_examples=40)
def test_ring_properties(p, q, r):
    a, b, c = (poly_to_jet(v, XY, 5) for v in (p, q, r))
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


# Scalars of every class Jet * v tells apart: units, integers, real and
# imaginary rationals (parts of 1000 bits included) and off-axis values.
I_COEF = (Fraction(0), Fraction(1))
big_ints = st.one_of(st.integers(-30, 30), st.integers(BIG, 4 * BIG), st.integers(-4 * BIG, -BIG))
axis_parts = st.one_of(fracs, big_fracs, big_ints.map(Fraction))
scalar_values = st.one_of(
    st.sampled_from([ONE, MINUS_ONE, I_COEF, (Fraction(0), Fraction(-1))]),
    big_ints.map(lambda n: (Fraction(n), Fraction(0))),
    axis_parts.map(lambda q: (q, Fraction(0))),
    axis_parts.map(lambda q: (Fraction(0), q)),
    wide_coefs.filter(lambda c: c[0] and c[1]),
)
# (2 + 4i)/3 and 1/2: a common factor with 2 in the numerators, and with
# 3 or 6 in the denominator.
SHARED = {(0, 0): (Fraction(2, 3), Fraction(4, 3)), (1, 0): HALF, (2, 1): (Fraction(3, 2), Fraction(0)), (0, 2): HUGE}


@given(polys(coefficients=wide_coefs), scalar_values, st.booleans())
# gcd(r, D) > 1: 2 against the denominators 2 and 3 * 2
@example(SHARED, (Fraction(2), Fraction(0)), False)
@example(SHARED, (Fraction(0), Fraction(6)), False)
# gcd(a, b, delta) > 1: 1/2 and -i/2 against the numerators 2 + 4i
@example(SHARED, HALF, False)
@example(SHARED, MINUS_HALF_I, False)
# both at once, and an int and a Fraction scalar
@example(SHARED, (Fraction(-9, 4), Fraction(0)), True)
@example(SHARED, (Fraction(0), Fraction(3 * BIG, 2)), False)
@example(SHARED, (Fraction(2, 3), Fraction(-1, 2)), False)
@settings(max_examples=80, deadline=None)
def test_scaling_matches_oracle(p, v, plain):
    """Jet * v for every class of v, as a GaussianRational or, on the real
    axis, as the int or Fraction it is."""
    jp = poly_to_jet(p, XY, 5)
    scalar = GaussianRational(*v)
    if plain and not v[1]:
        scalar = v[0].numerator if v[0].denominator == 1 else v[0]
    got = jp * scalar
    assert got.order == 5
    assert jet_to_poly(got) == pscale(p, v)
    assert_normalized(got.terms)
    assert got == scalar * jp


# Denominators that share factors with the exponents 2..5.
shared_denominators = st.sampled_from([1, 2, 3, 4, 5, 6, 12, 60, 120, 3 * BIG, 5 * BIG + 10])
derive_parts = st.builds(
    Fraction, st.one_of(st.integers(-50, 50), st.integers(BIG, 4 * BIG)), shared_denominators
)


@st.composite
def derivatives(draw):
    """(alphabet, variable index, p) with exponents up to 5 in that variable."""
    alphabet = draw(st.sampled_from([XY, WIDE]))
    index = draw(st.integers(0, alphabet.nvars - 1))
    p = draw(polys(5, alphabet.nvars, coefficients=st.tuples(derive_parts, derive_parts)))
    for e in draw(st.lists(st.integers(1, 5), max_size=5)):
        exps = [0] * alphabet.nvars
        exps[index] = e
        p[tuple(exps)] = draw(st.tuples(derive_parts, derive_parts))
    return alphabet, index, {m: c for m, c in p.items() if c != ZERO}


@given(derivatives())
# e = 2..5 on the denominators 2, 3, 4, 5 and 6: each shares a factor with e
@example((XY, 0, {(1, 0): HALF, (2, 0): HALF, (3, 2): (Fraction(1, 3), Fraction(2, 3)), (4, 0): (Fraction(0), Fraction(3, 4)), (5, 0): (Fraction(1, 5), Fraction(7, 6))}))
@settings(max_examples=60, deadline=None)
def test_derive_matches_oracle(case):
    """derive at exponents 1..5 against the oracle, in lowest terms; an
    exponent of 1 keeps the coefficient object."""
    alphabet, index, p = case
    jp = poly_to_jet(p, alphabet, 5)
    name = alphabet.names[index]
    d = jp.derive(name)
    assert d.order == 4
    assert jet_to_poly(d) == ptruncate(pderive(p, index), 4)
    assert_normalized(d.terms)
    shift = alphabet.shifts[index]
    for code, c in jp.terms.items():
        if (code >> shift) & alphabet.mask == 1:
            assert d.terms[code - (1 << shift) - (1 << alphabet.deg_shift)] is c


@st.composite
def summands(draw):
    """(p, q) over XY: q's terms on p's monomials repeat p's coefficient,
    negate it, share its denominator or are arbitrary; more terms follow."""
    p = draw(polys(coefficients=wide_coefs))
    q = {}
    for m, c in p.items():
        kind = draw(st.sampled_from(("same", "negated", "denominator", "any", "none")))
        if kind == "same":
            q[m] = c
        elif kind == "negated":
            q[m] = (-c[0], -c[1])
        elif kind == "denominator":
            d = GaussianRational(*c).d
            q[m] = (Fraction(draw(big_ints), d), Fraction(draw(big_ints), d))
        elif kind == "any":
            q[m] = draw(wide_coefs)
    q.update(draw(polys(coefficients=wide_coefs)))
    return p, {m: c for m, c in q.items() if c != ZERO}


@given(summands())
# equal denominators 6: (1 + 5i)/6 + (1 - 5i)/6 = 1/3, and a sum that cancels
@example(({(0, 0): (Fraction(1, 6), Fraction(5, 6)), (1, 0): HUGE}, {(0, 0): (Fraction(1, 6), Fraction(-5, 6)), (1, 0): (-HUGE[0], -HUGE[1])}))
# unequal denominators: 1/6 + 1/3 = 1/2
@example(({(0, 1): (Fraction(1, 6), Fraction(0))}, {(0, 1): (Fraction(1, 3), Fraction(0))}))
@settings(max_examples=80, deadline=None)
def test_addition_matches_oracle(case):
    """+ and - against the oracle, in lowest terms, on equal and unequal
    denominators and on sums that cancel."""
    p, q = case
    jp, jq = poly_to_jet(p, XY, 5), poly_to_jet(q, XY, 5)
    total, difference = jp + jq, jp - jq
    assert jet_to_poly(total) == padd(p, q)
    assert jet_to_poly(difference) == padd(p, pscale(q, MINUS_ONE))
    assert_normalized(total.terms)
    assert_normalized(difference.terms)
    assert (jp - jp).terms == {}


def test_divide_by_coordinate():
    x, y = Jet.variable(XY, 4, "x"), Jet.variable(XY, 4, "y")
    f = x * x * y + x * y
    g = f.divide_by_coordinate("x")
    assert g == (x * y + y).truncate(3)
    with pytest.raises(NotDivisibleError) as err:
        (f + y).divide_by_coordinate("x")
    assert "y" in str(err.value)
    with pytest.raises(NotDivisibleError, match=r"^monomial x\^2\*y\^3 lacks a factor of 'z'$"):
        Jet.from_terms(XYZ, 5, {(2, 3, 0): 1}).divide_by_coordinate("z")
    with pytest.raises(NotDivisibleError, match="^monomial 1 lacks a factor of 'x'$"):
        (f + 1).divide_by_coordinate("x")


def test_derive_and_divide_refuse_order_zero_and_unknown_variables():
    constant = Jet.constant(XY, 0, 3)
    with pytest.raises(PreconditionError, match="^cannot derive an order-0 jet$"):
        constant.derive("x")
    with pytest.raises(
        PreconditionError, match="^cannot divide an order-0 jet by a coordinate$"
    ):
        constant.divide_by_coordinate("x")
    x = Jet.variable(XY, 3, "x")
    for method in (x.derive, x.divide_by_coordinate, lambda name: x.at_zero([name], XY)):
        with pytest.raises(PreconditionError, match="^unknown variable 'q'$"):
            method("q")
    # the order is checked before the name
    with pytest.raises(PreconditionError, match="^cannot derive an order-0 jet$"):
        constant.derive("q")


@given(polys(min_degree=1), polys(min_degree=1))
@settings(max_examples=40)
def test_compose_matches_oracle(pin1, pin2):
    outer_poly = {(2, 0): ONE, (1, 1): (Fraction(3), Fraction(0)), (0, 1): (Fraction(0), Fraction(1))}
    outer = poly_to_jet(outer_poly, XY, 5)
    g1, g2 = poly_to_jet(pin1, XY, 5), poly_to_jet(pin2, XY, 5)
    (got,) = compose_many([outer], {"x": g1, "y": g2})
    want = pcompose(outer_poly, [jet_to_poly(g1), jet_to_poly(g2)], 5, 2)
    assert jet_to_poly(got) == want


def test_compose_rejects_nonzero_constant():
    x, y = Jet.variable(XY, 4, "x"), Jet.variable(XY, 4, "y")
    with pytest.raises(PreconditionError, match="^substitution for 'x' has constant term 1;"):
        compose_many([x], {"x": y + 1, "y": y})
    # Off the support too: in a full assignment it would make mu = 0.
    with pytest.raises(PreconditionError, match="^substitution for 'y' has constant term 2;"):
        compose_many([x], {"x": y, "y": y + 2}, order=6)
    with pytest.raises(PreconditionError, match="^substitution for 'y' is not a jet;"):
        compose_many([x], {"x": y, "y": 0})


def test_compose_many_refuses_mixed_alphabets_and_unknown_names():
    x, y = Jet.variable(XY, 4, "x"), Jet.variable(XY, 4, "y")
    z = Jet.variable(ZZB, 4, "z")
    with pytest.raises(AlphabetMismatchError, match="^outer jets must share one alphabet$"):
        compose_many([x, z], {"x": y})
    with pytest.raises(PreconditionError, match="^assignment names unknown variable 'q'$"):
        compose_many([x], {"q": y})
    with pytest.raises(AlphabetMismatchError, match="^substituted jets must share one alphabet$"):
        compose_many([x * y], {"x": y, "y": z})
    with pytest.raises(PreconditionError, match="^an empty assignment needs an explicit target alphabet$"):
        compose_many([x], {})


# compose_many's grouped evaluation: x and y are often mapped by monomials
# with coefficient 1 (code arithmetic), u by a general substitute (U^b).
XYU = Alphabet(("x", "y", "u"), None)
TWO = (Fraction(2), Fraction(0))
X, Y, YY = (1, 0), (0, 1), (0, 2)
U_ARG = {X: ONE, (1, 1): (Fraction(-1, 2), Fraction(1))}


@st.composite
def substitutes(draw, order, coefficients=coefs):
    """A substitute over XY: a coefficient-1 monomial, a monomial with
    another coefficient, or a polynomial without constant term."""
    kind = draw(st.sampled_from(("monomial", "scaled", "poly")))
    if kind in ("monomial", "scaled"):
        degree = draw(st.integers(1, order + 1))
        i = draw(st.integers(0, degree))
        coef = ONE if kind == "monomial" else draw(coefficients.filter(lambda c: c != ZERO))
        return {(i, degree - i): coef}
    return draw(polys(order, 2, min_degree=1, coefficients=coefficients))


@st.composite
def compositions(draw, coefficients=coefs):
    """(outers over XYU, substitutes over XY for x, y, u, order, cap)."""
    order = draw(st.integers(1, 5))
    args = [draw(substitutes(order, coefficients)) for _ in XYU.names]
    outers = draw(st.lists(polys(order, 3, coefficients=coefficients), min_size=1, max_size=3))
    cap = draw(st.one_of(st.none(), st.integers(0, order)))
    return outers, args, order, cap


@given(compositions())
# identity on x and y, as for the parameters of implicit_solve
@example(([{(1, 0, 0): ONE, (1, 1, 1): TWO, (0, 0, 2): ONE, (3, 1, 0): ONE}], [{X: ONE}, {Y: ONE}, U_ARG], 5, None))
# a renaming: x and y swapped
@example(([{(2, 1, 0): ONE, (1, 0, 1): TWO, (0, 0, 1): ONE}], [{Y: ONE}, {X: ONE}, U_ARG], 4, None))
# x and y both become x: x*y^2 - x^2*y and u*x - u*y cancel, u^2 stays
@example(([{(1, 2, 0): ONE, (2, 1, 0): MINUS_ONE, (1, 0, 1): ONE, (0, 1, 1): MINUS_ONE, (0, 0, 2): ONE}], [{X: ONE}, {X: ONE}, U_ARG], 4, None))
# x -> y^2, a monomial of degree 2
@example(([{(2, 0, 0): ONE, (1, 1, 1): ONE, (1, 0, 0): TWO}], [{YY: ONE}, {X: ONE}, U_ARG], 5, None))
# x -> 2x, a monomial whose coefficient is not 1
@example(([{(2, 0, 0): ONE, (1, 1, 0): ONE, (1, 0, 1): ONE}], [{X: TWO}, {Y: ONE}, U_ARG], 4, None))
# x -> y^3 at order 4: x^2 lies past the order, x*u does not
@example(([{(2, 0, 0): ONE, (1, 0, 1): ONE, (1, 0, 0): TWO}], [{(0, 3): ONE}, {X: ONE}, {X: ONE, Y: ONE}], 4, None))
# several outers sharing one assignment and U^b = u^2
@example(([{(1, 0, 2): ONE}, {(0, 1, 2): TWO}, {(0, 0, 2): ONE, (1, 0, 0): ONE}], [{X: ONE}, {Y: ONE}, U_ARG], 5, 4))
# an empty outer
@example(([{}, {(1, 0, 1): ONE}], [{X: ONE}, {Y: ONE}, U_ARG], 3, None))
@settings(max_examples=80, deadline=None)
def test_compose_many_matches_oracle(case):
    assert_composes_as_the_oracle(*case)


@given(compositions(wide_coefs))
# one outer, by Horner's rule: the partial sums of u = x/2 + y/2 hold
# 2/4 on x*y unreduced, and HUGE's parts share factors with them
@example(([{(0, 0, 3): HUGE, (1, 0, 1): TWO, (0, 0, 2): TWO}], [{X: ONE}, {Y: ONE}, {X: HALF, Y: HALF}], 4, None))
# several outers sharing the unreduced powers u^2 and u^3
@example(([{(0, 0, 2): TWO}, {(0, 0, 3): HUGE, (0, 1, 1): ONE}], [{X: ONE}, {Y: ONE}, {X: HALF, Y: HUGE}], 4, None))
@settings(max_examples=40, deadline=None)
def test_compose_many_matches_oracle_on_wide_coefficients(case):
    """Intermediate powers and partial sums stay unreduced inside
    compose_many; the results are still exact and normalized."""
    assert_composes_as_the_oracle(*case)


def assert_composes_as_the_oracle(outer_polys, args, order, cap):
    outers = [poly_to_jet(p, XYU, order) for p in outer_polys]
    subs = [poly_to_jet(a, XY, order) for a in args]
    got = compose_many(outers, dict(zip(XYU.names, subs)), alphabet=XY, order=cap)
    result_order = order if cap is None else cap
    arg_polys = [jet_to_poly(g) for g in subs]
    assert [g.order for g in got] == [result_order] * len(outers)
    assert [jet_to_poly(g) for g in got] == [
        pcompose(jet_to_poly(o), arg_polys, result_order, 2) for o in outers
    ]
    for g in got:
        assert_normalized(g.terms)


def test_cancelling_groups_leave_no_zero_term():
    # x -> x + y and u -> x - y are grouped, y -> y is a monomial; the
    # groups x^2, u^2 and x (with P_x = -4y) and P_0 = 4y^2 meet on x^2,
    # x*y and y^2 and cancel there exactly.
    x, y, u = (Jet.variable(XYU, 4, n) for n in XYU.names)
    tx, ty = Jet.variable(XY, 4, "x"), Jet.variable(XY, 4, "y")
    third = GaussianRational(Fraction(1, 3), Fraction(-1, 6))
    base = x * x - u * u - x * y * 4
    outers = [(base + y * y * 4) * third, base * third]
    assignment = {"x": tx + ty, "y": ty, "u": tx - ty}
    got = compose_many(outers, assignment)
    assert got[0].terms == {}
    assert got[1].terms == {XY.encode((0, 2)): third * -4}
    args = [jet_to_poly(assignment[n]) for n in XYU.names]
    assert [jet_to_poly(g) for g in got] == [pcompose(jet_to_poly(o), args, 4, 2) for o in outers]
    assert_normalized(got[1].terms)


def count_kernel_calls(monkeypatch):
    """Record each product by the kernel entry point it came through.

    mul_terms runs its product through mul_into, which is not counted a
    second time.
    """
    calls = []
    nested = []
    real_terms = crjets._kernels.mul_terms
    real_into = crjets._kernels.mul_into

    def mul_terms(a, b, deg_shift, cap):
        calls.append("mul_terms")
        nested.append(True)
        try:
            return real_terms(a, b, deg_shift, cap)
        finally:
            nested.pop()

    def mul_into(acc, a, b, deg_shift, cap):
        if not nested:
            calls.append("mul_into")
        return real_into(acc, a, b, deg_shift, cap)

    monkeypatch.setattr(crjets._kernels, "mul_terms", mul_terms)
    monkeypatch.setattr(crjets._kernels, "mul_into", mul_into)
    return calls


def test_monomial_substitutes_need_no_product(monkeypatch):
    x, y, u = (Jet.variable(XYU, 5, n) for n in XYU.names)
    tx, ty = Jet.variable(XY, 5, "x"), Jet.variable(XY, 5, "y")
    outer = x * x * y + y * 3 + u * u * x
    assignment = {"x": ty, "y": tx * tx, "u": tx}
    calls = count_kernel_calls(monkeypatch)
    got = compose_many([outer], assignment)
    assert calls == []
    monkeypatch.undo()
    assert got == [tx * tx * ty * ty + tx * tx * 3 + tx * tx * ty]


def test_power_products_are_shared_across_outers(monkeypatch):
    x, y, u = (Jet.variable(XYU, 6, n) for n in XYU.names)
    tx, ty = Jet.variable(XY, 6, "x"), Jet.variable(XY, 6, "y")
    arg = tx + ty * tx
    outers = [u * u * x, u * u * u * y, u * u * x * x + u * u * u]
    calls = count_kernel_calls(monkeypatch)
    built = []
    real_finish = crjets._kernels.finish_unpacked

    def finish_unpacked(acc):
        calls.append("finish_unpacked")
        built.append(real_finish(acc))
        return built[-1]

    monkeypatch.setattr(crjets._kernels, "finish_unpacked", finish_unpacked)
    got = compose_many(outers, {"x": tx, "y": ty, "u": arg})
    # u^2 and u^3 are built once each, by one fused product into a fresh
    # accumulator, and each is followed by one fused product P_b * U^b per
    # outer that has the group
    assert calls == ["mul_into", "finish_unpacked", "mul_into", "mul_into"] * 2
    monkeypatch.undo()
    square, cube = arg * arg, arg * arg * arg
    assert built == [crjets._kernels.unpack(square.terms), crjets._kernels.unpack(cube.terms)]
    assert got == [square * tx, cube * ty, square * tx * tx + cube]


def test_one_outer_is_evaluated_by_horners_rule(monkeypatch):
    x, y, u = (Jet.variable(XYU, 6, n) for n in XYU.names)
    tx, ty = Jet.variable(XY, 6, "x"), Jet.variable(XY, 6, "y")
    arg = tx + ty * tx
    outer = u * u * u * y + u * u * x + x
    calls = count_kernel_calls(monkeypatch)
    built = []
    real_finish = crjets._kernels.finish_unpacked

    def finish_unpacked(acc):
        calls.append("finish_unpacked")
        built.append(real_finish(acc))
        return built[-1]

    monkeypatch.setattr(crjets._kernels, "finish_unpacked", finish_unpacked)
    (got,) = compose_many([outer], {"x": tx, "y": ty, "u": arg})
    # u^3 y + u^2 x + x = x + u (u (u y + x)): the partial sums y, u y + x
    # and u (u y + x) are each finished once, each of the three Horner steps
    # is one fused product, and the last one goes into the result; no
    # power of u is built
    assert calls == ["finish_unpacked", "mul_into"] * 3
    monkeypatch.undo()
    inner = tx + arg * ty
    unpack = crjets._kernels.unpack
    assert built == [unpack(ty.terms), unpack(inner.terms), unpack((arg * inner).terms)]
    assert got == arg * arg * arg * ty + arg * arg * tx + tx


@given(polys(width=2), polys(width=5), polys(width=SMALL_LIMIT + 2))
def test_conjugation_matches_oracle(p, q, r):
    for poly, alpha in ((p, ZZB), (q, INTERLEAVED), (r, WIDE_CONJ)):
        jp = poly_to_jet(poly, alpha, 5)
        swap = [alpha.index[alpha.conj_map[n]] for n in alpha.names]
        assert jet_to_poly(jp.conjugate()) == pconj(poly, swap)
        assert jp.conjugate().conjugate() == jp


@given(polys(width=2), polys(width=5), polys(width=SMALL_LIMIT + 2), st.integers(0, 10))
def test_is_real_matches_the_conjugate(p, q, r, k):
    for poly, alpha in ((p, ZZB), (q, INTERLEAVED), (r, WIDE_CONJ)):
        jp = poly_to_jet(poly, alpha, 5)
        real = jp + jp.conjugate()
        codes = sorted(real.terms)
        cases = [jp, real, real * I, real + jp * I, jp - jp.conjugate()]
        if codes:
            # one term dropped, or its coefficient conjugated or negated
            c = codes[k % len(codes)]
            v = real.terms[c]
            for change in (None, v.conjugate() + I, -v):
                terms = dict(real.terms)
                if change is None:
                    del terms[c]
                else:
                    terms[c] = change
                cases.append(Jet(alpha, 5, terms))
        for jet in cases:
            assert jet.is_real() == (jet.terms == jet.conjugate().terms)
        assert real.is_real()


@given(polys(width=2), polys(width=5), polys(width=SMALL_LIMIT + 2), st.integers(0, 10))
def test_real_and_imag_parts_match_the_conjugate(p, q, r, k):
    """(f + conj f) / 2 and (f - conj f) / 2i, with the conjugate, sum and
    scaling taken from the oracle."""
    for poly, alpha in ((p, ZZB), (q, INTERLEAVED), (r, WIDE_CONJ)):
        jp = poly_to_jet(poly, alpha, 5)
        real = jp + jp.conjugate()
        cases = [jp, real, real * I, jp * GaussianRational(Fraction(1, 3), 2), jp - jp.conjugate()]
        if jp.terms:
            # one term alone, so that its partner is missing unless self-conjugate
            c = sorted(jp.terms)[k % len(jp.terms)]
            cases.append(Jet(alpha, 5, {c: jp.terms[c]}))
        swap = [alpha.index[alpha.conj_map[n]] for n in alpha.names]
        for jet in cases:
            f = jet_to_poly(jet)
            conj = pconj(f, swap)
            re, im = jet.real_part(), jet.imag_part()
            assert jet_to_poly(re) == pscale(padd(f, conj), HALF)
            assert jet_to_poly(im) == pscale(padd(f, pscale(conj, MINUS_ONE)), MINUS_HALF_I)
            assert re.order == im.order == jet.order
            assert_normalized(re.terms)
            assert_normalized(im.terms)


def test_is_real_needs_a_conjugation():
    x = Jet.variable(XY, 3, "x")
    with pytest.raises(PreconditionError) as conj:
        x.conjugate()
    messages = {str(conj.value)}
    for method in (x.is_real, x.real_part, x.imag_part):
        with pytest.raises(PreconditionError) as exc:
            method()
        messages.add(str(exc.value))
    assert messages == {"alphabet ('x', 'y') carries no conjugation"}


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


@st.composite
def units(draw, constant=None):
    """(alphabet, order, p) with order 0..7 and a nonzero constant term,
    ``constant`` when given."""
    alphabet = draw(st.sampled_from([XY, WIDE]))
    order = draw(st.integers(0, 7))
    p = draw(polys(order, alphabet.nvars, min_degree=1, coefficients=wide_coefs))
    p[(0,) * alphabet.nvars] = constant or draw(wide_coefs.filter(lambda c: c != ZERO))
    return alphabet, order, p


def assert_layered(got, order, expected):
    """The series result has the input's order, equals the oracle and
    stores every coefficient normalized: no zero term, so no zero layer."""
    assert got.order == order
    assert jet_to_poly(got) == expected
    assert_normalized(got.terms)


@given(units())
# every layer of a reaches y_6, the j = k term of each convolution included
@example((XY, 6, {(0, 0): (Fraction(2), Fraction(-1)), (1, 0): ONE, (1, 1): HUGE, (0, 3): (Fraction(0), Fraction(1, 3))}))
@example((XY, 2, {(0, 0): ONE, (0, 1): ONE}))
# the layers of 1/(1 + x^2) at odd degrees are zero and stored as nothing
@example((WIDE, 7, {(0,) * WIDE.nvars: ONE, wide_monomial(3, 3): ONE}))
@settings(max_examples=40, deadline=None)
def test_unit_inverse_matches_the_geometric_series(case):
    alphabet, order, p = case
    assert_layered(poly_to_jet(p, alphabet, order).unit_inverse(), order, pinverse(p, order))


@given(units(ONE))
# sqrt(1 + x) = 1 + x/2 - x^2/8 + x^3/16 - 5x^4/128 + ...: y_2 is the
# middle square alone, y_3 the symmetric pair y_1 y_2 counted twice
@example((XY, 5, {(0, 0): ONE, (1, 0): ONE}))
@example((WIDE, 7, {(0,) * WIDE.nvars: ONE, wide_monomial(0): HUGE, wide_monomial(1, 11): MINUS_HALF_I}))
@settings(max_examples=40, deadline=None)
def test_jet_sqrt_matches_the_degreewise_correction(case):
    alphabet, order, p = case
    assert_layered(jet_sqrt(poly_to_jet(p, alphabet, order)), order, psqrt(p, order))


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


@given(polys(width=3))
def test_rename_and_embed(p):
    x, y = Jet.variable(XY, 4, "x"), Jet.variable(XY, 4, "y")
    target = Alphabet(("u", "y", "x"), None)
    g = (x * x + x).rename({"x": "u"}, target)
    u = Jet.variable(target, 4, "u")
    assert g == u * u + u
    back = g.rename({"u": "x"}, XY)
    assert back == x * x + x
    with pytest.raises(PreconditionError, match="'x' has no image"):
        (x * x).rename({}, Alphabet(("y",), None))
    with pytest.raises(PreconditionError, match="carries no conjugation"):
        x.conjugate()

    # Two variables merged into one: every term cancels.
    merged = (x * x - x * y + y - x).rename({"y": "x"}, Alphabet(("x",), None))
    assert merged.is_zero() and merged.order == 4

    # From 6-bit fields to 16-bit fields and back, against the oracle.
    f = poly_to_jet(p, XYZ, 5)
    dest = [7, 0, 11]
    to_wide = {n: f"v{j}" for n, j in zip(XYZ.names, dest)}
    wide = f.rename(to_wide, WIDE)
    assert jet_to_poly(wide) == prename(jet_to_poly(f), dest, WIDE.nvars)
    assert wide.rename({v: n for n, v in to_wide.items()}, XYZ) == f
    merged = f.rename({"y": "x", "z": "y"}, XY)
    assert jet_to_poly(merged) == prename(jet_to_poly(f), [0, 0, 1], 2)


@st.composite
def restrictions(draw):
    """(jet, names, target): a jet over XYZ or WIDE, some of its variables
    to set to zero, and as target the jet's own alphabet or the narrower
    one of the variables left free."""
    alpha = draw(st.sampled_from((XYZ, WIDE)))
    order = draw(st.integers(0, 5))
    jet = poly_to_jet(draw(polys(order, alpha.nvars)), alpha, order)
    names = draw(st.lists(st.sampled_from(alpha.names), unique=True, max_size=4))
    free = tuple(n for n in alpha.names if n not in names)
    target = Alphabet(free, None) if free and draw(st.booleans()) else alpha
    return jet, names, target


@given(restrictions())
# x and y set to zero, over the alphabet of z alone.
@example((poly_to_jet({(1, 0, 1): ONE, (0, 2, 1): TWO, (0, 0, 2): ONE}, XYZ, 3),
          ["x", "y"], Alphabet(("z",), None)))
@settings(max_examples=100, deadline=None)
def test_restriction_matches_oracle(case):
    jet, names, target = case
    got = jet.at_zero(names, target)
    assert got.alphabet == target and got.order == jet.order
    args = point_args(jet.alphabet.names, dict.fromkeys(names, ZERO), target.names)
    assert jet_to_poly(got) == pcompose(jet_to_poly(jet), args, jet.order, target.nvars)
    assert_normalized(got.terms)


def test_monomials_come_out_graded():
    x, y = Jet.variable(XY, 4, "x"), Jet.variable(XY, 4, "y")
    f = y + x * x * y + x * 2
    degs = [sum(vec) for vec, _ in f.monomials()]
    assert degs == sorted(degs)


def test_valuation():
    x, y = Jet.variable(XY, 5, "x"), Jet.variable(XY, 5, "y")
    f = x * y + x * x * x
    assert f.valuation() == 2
    assert Jet.zero(XY, 5).valuation() == 6



# Derived orders. Each input is known to its order and its unknown terms
# lie past it; appending any such terms must leave every coefficient of
# the result through its derived order unchanged.


@st.composite
def monomial(draw, degree, width):
    """An exponent vector of the given total degree."""
    exps = []
    for _ in range(width - 1):
        e = draw(st.integers(0, degree))
        exps.append(e)
        degree -= e
    return (*exps, degree)


# Integer coefficients: the order rules do not look at their size.
nonzero_coefs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any).map(
    lambda c: (Fraction(c[0]), Fraction(c[1]))
)


@st.composite
def past(draw, order, width):
    """One to three nonzero terms of degree order + 1 or order + 2: terms
    that the jet of that order does not know."""
    degrees = st.sampled_from((order + 1, order + 1, order + 1, order + 2))
    return {
        draw(monomial(draw(degrees), width)): draw(nonzero_coefs)
        for _ in range(draw(st.integers(1, 3)))
    }


@st.composite
def factors(draw, width, lowest=0):
    """(order, known terms of a drawn valuation, terms past the order);
    the known part is zero when the valuation passes the order."""
    order = draw(st.integers(lowest, 5))
    low = draw(st.one_of(st.just(lowest), st.integers(lowest, order + 1)))
    known = draw(polys(order, width, min_degree=low + 1, coefficients=nonzero_coefs))
    if low <= order:
        known[draw(monomial(low, width))] = draw(nonzero_coefs)
    return order, known, draw(past(order, width))


@st.composite
def reliable_compositions(draw):
    """Outers over XYU, their substitutes over XY (a jet, a zero jet, or no
    assignment at all), and a requested order."""
    outers = [draw(factors(3)) for _ in range(draw(st.integers(1, 2)))]
    used = {i for _, known, _ in outers for m in known for i, e in enumerate(m) if e}
    subs = []
    for i in range(len(XYU.names)):
        kind = draw(st.sampled_from(("jet", "jet", "jet", "unassigned")))
        if kind == "unassigned" and i in used:
            kind = "jet"
        subs.append((kind, *draw(factors(2, lowest=1))))
    return outers, subs, draw(st.integers(1, 10))


@given(reliable_compositions())
@settings(max_examples=100, deadline=None)
def test_composition_order_is_reliable(case):
    outers, subs, cap = case
    jets = [poly_to_jet(known, XYU, n) for n, known, _ in outers]
    assignment = {
        name: poly_to_jet(known, XY, m)
        for name, (kind, m, known, _) in zip(XYU.names, subs)
        if kind == "jet"
    }
    got = compose_many(jets, assignment, alphabet=XY, order=cap)
    least = min(j.order for j in [*jets, *assignment.values()])
    order = got[0].order
    assert min(least, cap) <= order <= cap
    # An unassigned variable stands for an unknown substitute of valuation >= 1.
    true_args = [padd(known, extra) for _, _, known, extra in subs]
    for (_, known, extra), g in zip(outers, got):
        assert g.order == order
        assert jet_to_poly(g) == pcompose(padd(known, extra), true_args, order, 2)


@given(factors(2), factors(2))
@settings(max_examples=100, deadline=None)
def test_product_order_is_reliable(a, b):
    (oa, ka, ea), (ob, kb, eb) = a, b
    got = poly_to_jet(ka, XY, oa) * poly_to_jet(kb, XY, ob)
    assert min(oa, ob) <= got.order <= max(oa, ob)
    assert jet_to_poly(got) == pmul(padd(ka, ea), padd(kb, eb), got.order)


def test_composition_refuses_an_order_past_the_target_packing_limit():
    # y maps to its namesake and keeps the outer's order 31, which a
    # one-variable alphabet cannot pack.
    wide = Alphabet(("y",) + tuple(f"x{i}" for i in range(9)), None)
    y = Jet.variable(wide, 31, "y")
    with pytest.raises(PreconditionError, match="^order 31 exceeds 30, the packing limit"):
        compose_many([y], {}, alphabet=Alphabet(("y",), None))


XYW = Alphabet(("x", "y", "w"), None)


@st.composite
def partial_assignments(draw):
    """Outers over XYU, substitutes over XYW for u and for some of x and
    y, and a requested order or none."""
    outers = [
        poly_to_jet(known, XYU, order)
        for order, known, _ in (draw(factors(3)) for _ in range(draw(st.integers(1, 2))))
    ]
    assignment = {}
    for name in XYU.names:
        if name == "u" or draw(st.booleans()):
            order, known, _ = draw(factors(3, lowest=1))
            assignment[name] = poly_to_jet(known, XYW, order)
    return outers, assignment, draw(st.one_of(st.none(), st.integers(1, 10)))


@given(partial_assignments())
@settings(max_examples=100, deadline=None)
def test_left_out_variables_map_to_their_namesakes(case):
    outers, assignment, cap = case
    # An identity is exact: at the requested order, or at an order no
    # less than the least participating one, it changes nothing.
    at = cap if cap is not None else max(j.order for j in [*outers, *assignment.values()])
    explicit = {name: Jet.variable(XYW, at, name) for name in ("x", "y")}
    explicit.update(assignment)
    got = compose_many(outers, assignment, alphabet=XYW, order=cap)
    want = compose_many(outers, explicit, alphabet=XYW, order=cap)
    assert [(g.order, g.terms) for g in got] == [(w.order, w.terms) for w in want]
    # u has no namesake in XYW.
    if any("u" in o.support() for o in outers):
        del assignment["u"]
        with pytest.raises(PreconditionError, match=r"^assignment misses support variables \['u'\]$"):
            compose_many(outers, assignment, alphabet=XYW, order=cap)


@st.composite
def single_outer_compositions(draw):
    """(alphabet, order, two outers, substitutes) over XYZ or WIDE. The
    jets use one to five of the alphabet's variables; one to three of
    these get substitutes of valuation 1 or 2 (zero where 2 passes the
    order), and the others map to their namesakes."""
    alpha = draw(st.sampled_from((XYZ, WIDE)))
    order = draw(st.integers(1, 6))
    used = draw(st.lists(st.sampled_from(range(alpha.nvars)), min_size=1, max_size=5, unique=True))
    grouped = used[: draw(st.integers(1, min(3, len(used))))]

    def embed(poly):
        out = {}
        for m, c in poly.items():
            vec = [0] * alpha.nvars
            for i, e in zip(used, m):
                vec[i] = e
            out[tuple(vec)] = c
        return out

    outers = [embed(draw(polys(order, len(used)))) for _ in range(2)]
    subs = {}
    for i in grouped:
        mu = draw(st.sampled_from((1, 2)))
        sub = draw(polys(order, len(used), min_degree=mu))
        if mu <= order:
            sub[draw(monomial(mu, len(used)))] = draw(nonzero_coefs)
        subs[alpha.names[i]] = embed(sub)
    return alpha, order, outers, subs


@given(single_outer_compositions())
# x^2 + 2z at order 5, x -> y^2 + 2y^3 of valuation 2: the last step
# multiplies U by the partial sum U, which is needed to degree 5 - 2 = 3.
@example((XYZ, 5, [{(2, 0, 0): ONE, (0, 0, 1): TWO}, {(0, 0, 1): ONE}],
          {"x": {(0, 2, 0): ONE, (0, 3, 0): TWO}}))
@settings(max_examples=60, deadline=None)
def test_horner_matches_shared_powers_and_oracle(case):
    alpha, order, (outer, second), subs = case
    o, o2 = (poly_to_jet(p, alpha, order) for p in (outer, second))
    assignment = {n: poly_to_jet(p, alpha, order) for n, p in subs.items()}
    (alone,) = compose_many([o], assignment)
    shared = compose_many([o, o2], assignment)[0]
    assert alone == shared
    args = [
        subs.get(n, {tuple(int(j == i) for j in range(alpha.nvars)): ONE})
        for i, n in enumerate(alpha.names)
    ]
    assert jet_to_poly(alone) == pcompose(outer, args, order, alpha.nvars)
    assert_normalized(alone.terms)
