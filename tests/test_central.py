"""Critical manifold extraction, straightening, Morse splitting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crjets import (
    GaussianRational,
    Jet,
    central_manifold,
    compose_many,
    generators,
    is_straightened,
    levi_form,
    make_germ,
    morse_normalize,
    standard_alphabet,
    straighten,
    t_hessian,
)
from crjets.errors import DegenerateFormError, PreconditionError
from crjets.linalg import hermitian_signature

from germ_corpus import random_germ, sparse_real_germ
from oracles import cmatinv, cmatmul


def germ_zzb_t2_st(order=6):
    a = standard_alphabet(1, 1)
    g = generators(a, order)
    return make_germ(1, 1, g["z1"] * g["zb1"] + g["t1"] * g["t1"] + g["s"] * g["t1"])


def test_graph_and_restriction_known_case():
    germ = germ_zzb_t2_st()
    m = central_manifold(germ)
    a = m.core.phi.alphabet
    s = Jet.variable(a, germ.order, "s")
    z, zb = Jet.variable(a, germ.order, "z1"), Jet.variable(a, germ.order, "zb1")
    assert len(m.graph) == 1
    assert m.graph[0] == (s * Fraction(-1, 2)).truncate(germ.order - 1)
    assert m.core.phi == z * zb - s * s * Fraction(1, 4)


def test_straighten_kills_t_linear_terms():
    germ = germ_zzb_t2_st()
    assert not is_straightened(germ)
    _, flat = straighten(germ)
    assert is_straightened(flat)
    g = generators(flat.alphabet, flat.order)
    assert flat.phi == g["z1"] * g["zb1"] + g["t1"] ** 2 - g["s"] ** 2 * Fraction(1, 4)


@pytest.mark.parametrize("nu, nprime", [(1, 1), (1, 3), (2, 2), (5, 2)])
def test_straightened_reads_the_t_fields(nu, nprime):
    """is_straightened against the t-degree of each decoded monomial, on
    6-bit and (nu = 5) 16-bit fields; t1*t2 and s*t1 have t-degree 2 and 1."""
    rng = random.Random(31 * nu + nprime)
    a = standard_alphabet(nu, nprime)
    t_set = {f"t{l}" for l in range(1, nprime + 1)}

    def reference(germ):
        return all(
            sum(e for n, e in zip(a.names, vec) if n in t_set) != 1
            for vec, _ in germ.phi.monomials()
        )

    g = generators(a, 4)
    for phi in (g["z1"] * g["zb1"] + g["t1"] * g[f"t{nprime}"], g["z1"] * g["zb1"] + g["s"] * g["t1"]):
        germ = make_germ(nu, nprime, phi)
        assert is_straightened(germ) == reference(germ)
    for _ in range(10):
        germ = sparse_real_germ(rng, nu, nprime, 4, count=8)
        assert is_straightened(germ) == reference(germ)
        flat = straighten(germ)[1]
        assert is_straightened(flat) and reference(flat)


def test_central_of_parameterless_germ_is_itself():
    a = standard_alphabet(1, 0)
    g = generators(a, 5)
    germ = make_germ(1, 0, g["z1"] * g["zb1"])
    m = central_manifold(germ)
    assert m.graph == () and m.core == germ
    assert straighten(germ) == (m, germ)


def test_degenerate_hessian_rejected():
    a = standard_alphabet(1, 2)
    g = generators(a, 5)
    germ = make_germ(1, 2, g["z1"] * g["zb1"] + g["t1"] * g["t1"])
    with pytest.raises(DegenerateFormError):
        central_manifold(germ)


def test_morse_requires_straightened_input():
    with pytest.raises(PreconditionError):
        morse_normalize(germ_zzb_t2_st())


def test_morse_with_cubic_correction():
    # phi = z zb + t^2 + t^3: V = t sqrt(1 + t), c = 1
    a = standard_alphabet(1, 1)
    g = generators(a, 6)
    germ = make_germ(1, 1, g["z1"] * g["zb1"] + g["t1"] ** 2 + g["t1"] ** 3)
    form = morse_normalize(germ)
    assert form.quad_coeffs == (Fraction(1),)
    v = form.maps[0]
    # V is reliable to order 5 with valuation 1: t1^2 at V derives order 6.
    assert compose_many([g["t1"] ** 2], {"t1": v}, order=6)[0] == (g["t1"] ** 2 + g["t1"] ** 3)
    core = generators(standard_alphabet(1, 0), 6)
    assert form.base == core["z1"] * core["zb1"]


def test_morse_normalize_refuses_a_singular_t_hessian():
    # Straightened (no t-linear term), but t1 enters only cubically.
    g = generators(standard_alphabet(1, 1), 6)
    germ = make_germ(1, 1, g["z1"] * g["zb1"] + g["t1"] * g["t1"] * g["t1"])
    assert is_straightened(germ)
    with pytest.raises(DegenerateFormError, match="^constant t-Hessian is singular$"):
        morse_normalize(germ)


def test_morse_indefinite_cross_term():
    # t-part t1 t2 diagonalizes to opposite signs
    a = standard_alphabet(1, 2)
    g = generators(a, 6)
    germ = make_germ(1, 2, g["z1"] * g["zb1"] + g["t1"] * g["t2"])
    form = morse_normalize(germ)
    assert form.signature == 1
    assert sorted(c > 0 for c in form.quad_coeffs) == [False, True]
    assert form.reconstruct() == germ.phi


def test_reconstruction_and_signature_on_random_germs():
    rng = random.Random(2024)
    for _ in range(6):
        germ = random_germ(rng, nu=1, nprime=2, order=5)
        _, flat = straighten(germ)
        form = morse_normalize(flat)
        assert form.reconstruct() == flat.phi
        h = [[GaussianRational(x) for x in row] for row in t_hessian(flat)]
        pos, neg, null = hermitian_signature(h)
        assert null == 0
        assert form.signature == pos


def test_graph_gradient_residual_on_random_germs():
    rng = random.Random(77)
    for _ in range(6):
        germ = random_germ(rng, nu=1, nprime=1, order=5)
        m, flat = straighten(germ)
        full = germ.alphabet
        assignment = {
            name: Jet.variable(full, germ.order - 1, name) for name in full.names
        }
        for name, g in zip(germ.t_names(), m.graph):
            assignment[name] = g.rename({}, full)
        for name in germ.t_names():
            assert compose_many([germ.phi.derive(name)], assignment)[0].is_zero()
        # straightened germ has no t-linear part: gradient vanishes at t = 0
        for name in flat.t_names():
            d = flat.phi.derive(name)
            for vec, _ in d.monomials():
                tdeg = sum(
                    vec[flat.alphabet.index[t]] for t in flat.t_names()
                )
                assert tdeg >= 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3), st.integers(2, 7), st.integers(0, 2**32))
def test_sigma_read_off_the_straightened_germ_equals_the_composition(nu, nprime, order, seed):
    germ = sparse_real_germ(random.Random(seed), nu, nprime, order)
    manifold, flat = straighten(germ)
    assert manifold == central_manifold(germ)
    assert manifold.core.alphabet == standard_alphabet(nu, 0)
    assert manifold.core.order == order
    assert is_straightened(flat)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(3, 6), st.integers(0, 2**32))
def test_central_levi_is_the_schur_complement(nu, nprime, order, seed):
    """The Levi matrix of the central germ is A - B D^-1 C, where
    [[A, B], [C, D]] is the full Levi matrix and D its t-block: the
    critical graph eliminates t from the quadratic part. The block
    product runs on the oracle's arithmetic."""
    germ = random_germ(random.Random(seed), nu=nu, nprime=nprime, order=order)
    full = [[(c.real, c.imag) for c in row] for row in levi_form(germ).matrix]
    top, bottom = full[:nu], full[nu:]
    a, b = [r[:nu] for r in top], [r[nu:] for r in top]
    c, d = [r[:nu] for r in bottom], [r[nu:] for r in bottom]
    correction = cmatmul(b, cmatmul(cmatinv(d), c))
    schur = [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rc)] for ra, rc in zip(a, correction)]
    central = levi_form(central_manifold(germ).core).matrix
    assert [[(v.real, v.imag) for v in row] for row in central] == schur
