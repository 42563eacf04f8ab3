"""Jet arithmetic and its product kernel against the naive oracle, plus the strictness contract."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import crjets._kernels
from crjets import Alphabet, GaussianRational, I, Jet, compose, compose_many, jet_sqrt
from crjets.alphabet import SMALL_LIMIT
from crjets.errors import (
    AlphabetMismatchError,
    InvariantError,
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
    pmul,
    poly_to_jet,
    prename,
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

fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
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
    """(alphabet, order, cap, p, q): operands of one order and a kernel cap <= order."""
    alphabet = draw(st.sampled_from([XY, WIDE]))
    order = draw(st.integers(1, 5))
    cap = draw(st.integers(0, order))
    p = draw(polys(order, alphabet.nvars, coefficients=wide_coefs))
    q = draw(polys(order, alphabet.nvars, coefficients=wide_coefs))
    return alphabet, order, cap, p, q


MINUS_ONE = (Fraction(-1), Fraction(0))
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
        crjets._kernels.mul_into(acc, a, b, [t[0] for t in b], alphabet.deg_shift, cap)
    got = crjets._kernels.finish(acc)
    assert jet_to_poly(Jet(alphabet, cap, got)) == padd(padd(seed, pmul(p, q, cap)), pmul(r, s, cap))
    assert_normalized(got)


def test_unpack_sorts_by_code():
    p = {wide_monomial(3): ONE, wide_monomial(): HUGE, wide_monomial(0, 1): ONE, wide_monomial(11): ONE}
    terms = poly_to_jet(p, WIDE, 5).terms
    got = crjets._kernels.unpack(terms)
    assert [t[0] for t in got] == sorted(terms)
    assert [GaussianRational.from_normalized(*t[1:]) for t in got] == [terms[t[0]] for t in got]


def test_finish_normalizes_once_and_drops_zeros():
    got = crjets._kernels.finish({5: [2, 4, -6], 7: [0, 0, 35], 9: [6, 0, 4]})
    assert got == {5: GaussianRational(Fraction(-1, 3), Fraction(-2, 3)), 9: GaussianRational(Fraction(3, 2))}
    assert_normalized(got)


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


# compose_many's grouped evaluation: x and y are often mapped by monomials
# with coefficient 1 (code arithmetic), u by a general substitute (U^b).
XYU = Alphabet(("x", "y", "u"), None)
TWO = (Fraction(2), Fraction(0))
X, Y, YY = (1, 0), (0, 1), (0, 2)
U_ARG = {X: ONE, (1, 1): (Fraction(-1, 2), Fraction(1))}


@st.composite
def substitutes(draw, order):
    """A substitute over XY: a coefficient-1 monomial, a monomial with
    another coefficient, a polynomial, or a polynomial with a constant."""
    kind = draw(st.sampled_from(("monomial", "scaled", "poly", "shifted")))
    if kind in ("monomial", "scaled"):
        degree = draw(st.integers(1, order + 1))
        i = draw(st.integers(0, degree))
        coef = ONE if kind == "monomial" else draw(coefs.filter(lambda c: c != ZERO))
        return {(i, degree - i): coef}
    p = draw(polys(order, 2, min_degree=1))
    if kind == "shifted":
        p[(0, 0)] = draw(coefs.filter(lambda c: c != ZERO))
    return p


@st.composite
def compositions(draw):
    """(outers over XYU, substitutes over XY for x, y, u, order, cap)."""
    order = draw(st.integers(1, 5))
    args = [draw(substitutes(order)) for _ in XYU.names]
    outers = draw(st.lists(polys(order, 3), min_size=1, max_size=3))
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
# u -> 1 + x, a constant shift
@example(([{(0, 0, 3): ONE, (1, 0, 2): TWO, (0, 1, 0): ONE}], [{X: ONE}, {Y: ONE}, {(0, 0): ONE, X: ONE}], 4, None))
# several outers sharing one assignment and U^b = u^2
@example(([{(1, 0, 2): ONE}, {(0, 1, 2): TWO}, {(0, 0, 2): ONE, (1, 0, 0): ONE}], [{X: ONE}, {Y: ONE}, U_ARG], 5, 4))
# an empty outer
@example(([{}, {(1, 0, 1): ONE}], [{X: ONE}, {Y: ONE}, U_ARG], 3, None))
@settings(max_examples=80, deadline=None)
def test_compose_many_matches_oracle(case):
    outer_polys, args, order, cap = case
    outers = [poly_to_jet(p, XYU, order) for p in outer_polys]
    subs = [poly_to_jet(a, XY, order) for a in args]
    allow = [n for n, g in zip(XYU.names, subs) if not g.constant_term().is_zero()]
    got = compose_many(
        outers, dict(zip(XYU.names, subs)), allow_constant=allow, alphabet=XY, order=cap
    )
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

    def mul_into(acc, a, b, bcodes, deg_shift, cap):
        if not nested:
            calls.append("mul_into")
        return real_into(acc, a, b, bcodes, deg_shift, cap)

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
    got = compose_many(outers, {"x": tx, "y": ty, "u": arg})
    # u^2 and u^3 once each, each followed by one fused product P_b * U^b
    # per outer that has the group
    assert calls == ["mul_terms", "mul_into", "mul_into"] * 2
    monkeypatch.undo()
    cube = arg * arg * arg
    assert got == [arg * arg * tx, cube * ty, arg * arg * tx * tx + cube]


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
    for poly, alpha in ((p, ZZB), (q, INTERLEAVED), (r, WIDE_CONJ)):
        jp = poly_to_jet(poly, alpha, 5)
        real = jp + jp.conjugate()
        cases = [jp, real, real * I, jp * GaussianRational(Fraction(1, 3), 2), jp - jp.conjugate()]
        if jp.terms:
            # one term alone, so that its partner is missing unless self-conjugate
            c = sorted(jp.terms)[k % len(jp.terms)]
            cases.append(Jet(alpha, 5, {c: jp.terms[c]}))
        for jet in cases:
            conj = jet.conjugate()
            assert jet.real_part() == (jet + conj) * Fraction(1, 2)
            assert jet.imag_part() == (jet - conj) * GaussianRational(0, Fraction(-1, 2))


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


def test_promote_checks_the_valuation():
    x, y = Jet.variable(XY, 3, "x"), Jet.variable(XY, 3, "y")
    f = x * y + x * x * y
    assert f.promote(5, min_valuation=2) == f.with_order(5)
    assert Jet.zero(XY, 3).promote(6, min_valuation=4).order == 6
    with pytest.raises(InvariantError) as err:
        (f + x).promote(5, min_valuation=2)
    assert "degree 1" in str(err.value)
    with pytest.raises(OrderMismatchError):
        f.promote(2, min_valuation=0)
