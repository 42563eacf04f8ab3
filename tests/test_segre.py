"""Complexification, section Hessians by two routes, the rigid test,
and the one-variable profile equation."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from crjets import (
    Alphabet,
    ConjugateElimination,
    GaussianRational,
    Jet,
    OdeUnsolvableError,
    compose_many,
    complexify,
    conjugate_elimination,
    generators,
    make_germ,
    ode_right_side,
    phi_determinant,
    phi_elimination,
    rigid_phi_test,
    standard_alphabet,
)
from crjets.errors import DegenerateFormError, InvariantError, PreconditionError, recording

from germ_corpus import random_central, random_height, random_rigid_central
from oracles import (
    ONE,
    ZERO,
    jet_to_poly,
    pcompose,
    point_args,
    poly_to_jet,
    previous_complexify,
    previous_conjugate_elimination,
    previous_phi_determinant,
)


def central(phi_builder, nu=1, order=6):
    a = standard_alphabet(nu, 0)
    g = generators(a, order)
    return make_germ(nu, 0, phi_builder(g))


def test_quadric_complexification():
    germ = central(lambda g: g["z1"] * g["zb1"])
    ch = complexify(germ)
    b = ch.rho.alphabet
    z, zb, wb = (Jet.variable(b, 6, n) for n in ("z1", "zb1", "wb"))
    assert ch.rho == wb + z * zb * GaussianRational(0, 2)


def test_complexify_preconditions():
    a = standard_alphabet(1, 1)
    g = generators(a, 4)
    with pytest.raises(PreconditionError):
        complexify(make_germ(1, 1, g["z1"] * g["zb1"] + g["t1"] ** 2))
    b = standard_alphabet(0, 0)
    s = Jet.variable(b, 4, "s")
    with pytest.raises(PreconditionError):
        complexify(make_germ(0, 0, s * s))


def test_phi_routes_vanish_on_quadrics():
    for build, nu in (
        (lambda g: g["z1"] * g["zb1"], 1),
        (lambda g: g["z1"] * g["zb1"] - g["z2"] * g["zb2"], 2),
    ):
        ch = complexify(central(build, nu=nu, order=8))
        elim = conjugate_elimination(ch)
        a = phi_elimination(ch, elim)
        b = phi_determinant(ch, elim)
        for i in range(nu):
            for j in range(nu):
                assert a.entries[i][j].is_zero()
                assert b.entries[i][j].is_zero()


def test_phi_routes_agree_on_random_central_germs():
    rng = random.Random(12)
    for _ in range(5):
        germ = random_central(rng, nu=1, order=6)
        ch = complexify(germ)
        elim = conjugate_elimination(ch)
        first = phi_elimination(ch, elim)
        second = phi_determinant(ch, elim)
        assert first.entries == second.entries
        assert first.route != second.route


def assert_same_jet(got, expected):
    """Equal alphabet and order, then equal homogeneous parts degree by degree."""
    assert (got.alphabet, got.order) == (expected.alphabet, expected.order)
    for k in range(expected.order + 1):
        assert got.homogeneous_part(k) == expected.homogeneous_part(k), k


@st.composite
def section_germs(draw):
    """random_central with nu in 1..3 and order 4..7 (nu + order <= 8 keeps
    an example well under a second), or a random_rigid_central."""
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return random_rigid_central(random.Random(seed), order=draw(st.integers(4, 7)))
    nu = draw(st.integers(1, 3))
    order = draw(st.integers(4, 8 - nu))
    return random_central(random.Random(seed), nu=nu, order=order)


@settings(max_examples=25, deadline=None)
@given(section_germs())
@example(random_central(random.Random(41), nu=3, order=5))
@example(random_central(random.Random(42), nu=2, order=6))
@example(random_central(random.Random(43), nu=1, order=7))
@example(random_rigid_central(random.Random(44), order=7))
@example(random_central(random.Random(45), nu=2, order=3))
@example(random_central(random.Random(46), nu=1, order=2))
@example(random_central(random.Random(47), nu=2, order=2))
def test_routes_match_the_previous_elimination_and_determinant(germ):
    """The graph solved for s, the nu-equation elimination and the
    implicit differentiation of F composed from sigma's derivatives equal
    the graph solved for w, the nu + 1 equation elimination and the
    bordered determinant of F of tests/oracles.py exactly. At nu >= 2 the
    off-diagonal entries check that each cross term pairs wp_i with F_zjw.

    The elimination is computed at the Hessian's order (at least 1) and
    equals the oracle's order-(N - 1) elimination truncated there; the
    oracle determinant is fed the untruncated one, so equal Hessians show
    that the dropped layer never reached them."""
    ch = complexify(germ)
    assert_same_jet(ch.rho, previous_complexify(germ))
    elim = conjugate_elimination(ch)
    zb, wb = previous_conjugate_elimination(ch)
    order = max(germ.order - 2, 1)
    assert elim.wb.order == order
    assert len(elim.zb) == len(zb) == germ.nu
    for got, expected in zip(elim.zb + (elim.wb,), zb + (wb,)):
        assert_same_jet(got, expected.truncate(order))
    expected = previous_phi_determinant(ch, zb, wb)
    for hessian in (phi_determinant(ch, elim), phi_elimination(ch, elim)):
        assert hessian.order == germ.order - 2
        for row, expected_row in zip(hessian.entries, expected):
            for entry, expected_entry in zip(row, expected_row):
                assert_same_jet(entry, expected_entry)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(3, 6))
@example(42, 2, 6)
def test_graph_satisfies_the_reality_identity(seed, nu, order):
    """rho(z, zb, rhob(zb, z, w)) = w exactly. complexify derives this
    identity from the reality of sigma and the solver's certificate
    instead of recomputing it, so the test keeps it checked."""
    rho = complexify(random_central(random.Random(seed), nu=nu, order=order)).rho
    big = rho.alphabet
    (round_trip,) = compose_many([rho], {"wb": rho.conjugate()}, alphabet=big, order=order)
    assert round_trip == Jet.variable(big, order, "w")


def cubed_z1(jet):
    z1 = Jet.variable(jet.alphabet, jet.order, "z1")
    return jet + z1 * z1 * z1


@pytest.mark.parametrize("corrupted", ["wb", "zb1", "zb2"])
def test_corrupted_elimination_fails_the_defining_function_identity(corrupted):
    """The substituted defining function must vanish; a z1^3 term added to
    wb or to one zb breaks it, and the determinant route says so."""
    ch = complexify(random_central(random.Random(5), nu=2, order=6))
    elim = conjugate_elimination(ch)
    if corrupted == "wb":
        bad = ConjugateElimination(elim.zb, cubed_z1(elim.wb))
    else:
        k = int(corrupted[2:]) - 1
        zb = tuple(cubed_z1(v) if j == k else v for j, v in enumerate(elim.zb))
        bad = ConjugateElimination(zb, elim.wb)
    phi_determinant(ch, elim)
    with pytest.raises(InvariantError, match="defining-function identity"):
        phi_determinant(ch, bad)


def test_phi_entries_are_symmetric_for_two_variables():
    rng = random.Random(31)
    germ = random_central(rng, nu=2, order=5)
    ch = complexify(germ)
    h = phi_elimination(ch, conjugate_elimination(ch))
    assert h.entries[0][1] == h.entries[1][0]


def test_degenerate_z_block_is_rejected():
    germ = central(lambda g: (g["z1"] * g["zb1"]) ** 2)
    with pytest.raises(DegenerateFormError):
        conjugate_elimination(complexify(germ))


def test_w_offenders_fire_on_non_rigid_data():
    # sigma = z zb - s^2/4 is the straightened quadric-with-parameter;
    # its Hessian genuinely depends on w
    germ = central(lambda g: g["z1"] * g["zb1"] - g["s"] ** 2 * Fraction(1, 4))
    ch = complexify(germ)
    h = phi_determinant(ch, conjugate_elimination(ch))
    offenders = h.w_offenders()
    assert offenders
    alpha = h.entries[0][0].alphabet
    assert all(vec[alpha.index["w"]] > 0 for _, _, vec, _ in offenders)


def test_rigid_test_on_rigid_germ_with_parameters():
    a = standard_alphabet(1, 1)
    g = generators(a, 6)
    phi = g["z1"] * g["zb1"] + g["t1"] ** 2 + g["z1"] * g["zb1"] * g["t1"]
    with recording() as record:
        report = rigid_phi_test(make_germ(1, 1, phi))
    assert report.consistent and not report.offenders
    assert ("certified_section_hessian", "routes agree", True) in record
    assert "not a proof" in report.note


def test_rigid_test_requires_rigidity():
    a = standard_alphabet(1, 0)
    g = generators(a, 5)
    with pytest.raises(PreconditionError):
        rigid_phi_test(make_germ(1, 0, g["z1"] * g["zb1"] + g["s"] * g["s"]))


def test_rigid_family_is_always_w_free():
    rng = random.Random(63)
    for _ in range(5):
        with recording() as record:
            report = rigid_phi_test(random_rigid_central(rng, order=6))
        assert report.consistent and ("certified_section_hessian", "routes agree", True) in record


# ---------------------------------------------------------------------------
# profile equation
# ---------------------------------------------------------------------------

XA = Alphabet(("x",), None)


def height(coeffs, order):
    """h(x) = sum coeffs[k] x^k from a {degree: coefficient} dict."""
    x = Jet.variable(XA, order, "x")
    h = Jet.zero(XA, order)
    for k, c in coeffs.items():
        h = h + x ** k * c
    return h


def test_flat_paraboloid_gives_identity_profile():
    h = height({2: Fraction(1, 2)}, 8)
    psi = ode_right_side(h)
    u = Jet.variable(psi.alphabet, psi.order, "u")
    assert psi == u


def test_known_quartic_profile():
    # h = x^2/2 + x^4: x^2 h'' = x^2 + 12 x^4, x h' = x^2 + 4 x^4
    # matching gives psi = u + 8u^2 - 64u^3 + 640u^4 at order 4
    h = height({2: Fraction(1, 2), 4: Fraction(1)}, 8)
    psi = ode_right_side(h)
    u = Jet.variable(psi.alphabet, psi.order, "u")
    assert psi == u + u ** 2 * 8 - u ** 3 * 64 + u ** 4 * 640


def test_odd_obstruction_is_located():
    h = height({2: Fraction(1, 2), 3: Fraction(1)}, 8)
    with pytest.raises(OdeUnsolvableError) as err:
        ode_right_side(h)
    assert err.value.degree == 3


def test_profile_preconditions():
    with pytest.raises(PreconditionError):
        ode_right_side(height({3: Fraction(1)}, 6))  # no curvature
    with pytest.raises(PreconditionError):
        ode_right_side(height({1: Fraction(1), 2: Fraction(1)}, 6))  # linear term


def test_profile_residual_on_random_even_heights():
    rng = random.Random(8)
    for _ in range(6):
        h = random_height(rng, order=8)
        psi = ode_right_side(h)
        x = Jet.variable(XA, 8, "x")
        lhs = x * x * h.derive("x").derive("x")
        inner = x * h.derive("x")
        (rhs,) = compose_many([psi], {"u": inner}, alphabet=XA, order=8)
        assert lhs.order == inner.order == rhs.order == h.order == 8
        assert lhs == rhs


def test_section_satisfies_the_profile_equation():
    """Ties the Segre section of sigma = H(z zb) to the profile of the
    height h(x) = H(x^2).

    With S(z) = rho(z, 1, 0) = 2i H(z) and psi the profile of h, a direct
    substitution gives z^2 S'' = (i/2) psi(-i z S') - (z S')/2. The oracle
    evaluates rho at the frozen parameters, which is exact here since rho
    is the polynomial wb + 2i sigma.
    """
    zonly = Alphabet(("z1",), None)
    rng = random.Random(17)
    for _ in range(4):
        c = [
            Fraction(rng.randint(1, 3), rng.randint(1, 3)) * rng.choice([-1, 1]),
            Fraction(rng.randint(1, 3), rng.randint(1, 3)) * rng.choice([-1, 1]),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        ]
        order = 6
        a = standard_alphabet(1, 0)
        u = Jet.variable(a, order, "z1") * Jet.variable(a, order, "zb1")
        sigma = u * c[0] + u * u * c[1] + u * u * u * c[2]
        germ = make_germ(1, 0, sigma)
        h = height({2: c[0], 4: c[1], 6: c[2]}, 2 * order)
        psi = ode_right_side(h)  # order = `order`

        rho = complexify(germ).rho
        args = point_args(rho.alphabet.names, {"zb1": ONE, "w": ZERO, "wb": ZERO}, zonly.names)
        section = poly_to_jet(pcompose(jet_to_poly(rho), args, order, zonly.nvars), zonly, order)
        zj = Jet.variable(section.alphabet, order - 2, "z1")
        lhs = zj * zj * section.derive("z1").derive("z1")
        sprime = (Jet.variable(section.alphabet, order - 1, "z1") * section.derive("z1")).truncate(order - 2)
        rhs = compose_many(
            [psi.truncate(order - 2)],
            {"u": sprime * GaussianRational(0, -1)},
            alphabet=section.alphabet,
            order=order - 2,
        )[0] * GaussianRational(0, Fraction(1, 2)) - sprime * Fraction(1, 2)
        assert lhs == rhs
