"""Central equivalences, multiplier extraction, split normal-form lifts."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crjets import (
    GaussianRational,
    Jet,
    compose_many,
    equivalence_alphabet,
    extract_multiplier,
    generators,
    jet_sqrt,
    lift_equivalence,
    make_equivalence,
    make_germ,
    model_germ,
    standard_alphabet,
    verify_lift,
)
from crjets import equivalence
from crjets.equivalence import split_core
from crjets.errors import PreconditionError

from germ_corpus import random_central

K = 6


def quadric_core(sign=1):
    a = standard_alphabet(1, 0)
    g = generators(a, K)
    return make_germ(1, 0, g["z1"] * g["zb1"] * sign)


def scaling_map(c_z, c_eta):
    ea = equivalence_alphabet(1)
    return (
        (Jet.variable(ea, K, "z1") * c_z,),
        Jet.variable(ea, K, "eta") * c_eta,
    )


def test_identity_lifts_to_identity():
    core = quadric_core()
    z_maps, w_map = scaling_map(1, 1)
    eq = make_equivalence(core, core, z_maps, w_map)
    mult = extract_multiplier(eq)
    assert mult == Jet.constant(mult.alphabet, mult.order, 1)
    model = model_germ(core, [Fraction(1)])
    lift = lift_equivalence(eq, [Fraction(1)])
    assert lift.scale == 1
    assert lift.t_maps[0] == Jet.variable(model.alphabet, K - 1, "t1")
    assert verify_lift(lift).ok


def test_quadric_scaling_lift():
    core = quadric_core()
    eq = make_equivalence(core, core, *scaling_map(2, 4))
    mult = extract_multiplier(eq)
    assert mult == Jet.constant(mult.alphabet, mult.order, 4)
    model = model_germ(core, [Fraction(1)])
    lift = lift_equivalence(eq, [Fraction(1)])
    assert lift.scale == 2
    t1 = Jet.variable(model.alphabet, K - 1, "t1")
    assert lift.t_maps[0] == t1 * 2
    assert verify_lift(lift).ok


def test_multiplier_consistency_on_the_lift():
    """Sum c T^2 must reproduce (sum c t^2) times the pulled-back multiplier."""
    core = quadric_core()
    eq = make_equivalence(core, core, *scaling_map(2, 4))
    model = model_germ(core, [Fraction(1)])
    lift = lift_equivalence(eq, [Fraction(1)])
    mult = extract_multiplier(eq)

    full = model.alphabet
    sub = {name: Jet.variable(full, K, name) for name in mult.alphabet.names if name != "v"}
    sub["v"] = model.phi  # evaluate the multiplier on the surface
    # The multiplier is reliable to order K - 1 only, and so is its pull
    # back; times t1^2, of valuation 2, the product derives order K.
    (pulled,) = compose_many([mult], sub, alphabet=full, order=K)
    assert pulled.order == K - 1
    t1 = Jet.variable(full, K, "t1")
    # T = t_maps[0] is reliable to K - 1 with valuation 1: t1^2 at T derives K.
    (lhs,) = compose_many([t1 * t1], {"t1": lift.t_maps[0]}, order=K)
    assert lhs.order == K
    assert lhs == t1 * t1 * pulled


def test_automorphism_changes_multiplier_but_lift_still_verifies():
    # compose the scaling with the target automorphism z -> 3z, eta -> 9 eta
    core = quadric_core()
    eq = make_equivalence(core, core, *scaling_map(6, 36))
    mult = extract_multiplier(eq)
    assert mult == Jet.constant(mult.alphabet, mult.order, 36)
    lift = lift_equivalence(eq, [Fraction(1)])
    assert lift.scale == 6
    assert verify_lift(lift).ok


def test_nonconstant_multiplier():
    """g(eta) = eta + eta^2 against the quadric target forces the source
    sigma = z zb / (1 + 2s) and multiplier 1 + 2s."""
    a = standard_alphabet(1, 0)
    g = generators(a, K)
    sigma = g["z1"] * g["zb1"] * (1 + g["s"] * 2).unit_inverse()
    source = make_germ(1, 0, sigma)
    target = quadric_core()

    ea = equivalence_alphabet(1)
    eta = Jet.variable(ea, K, "eta")
    eq = make_equivalence(source, target, (Jet.variable(ea, K, "z1"),), eta + eta * eta)
    mult = extract_multiplier(eq)
    s_m = Jet.variable(mult.alphabet, mult.order, "s")
    assert mult == 1 + s_m * 2

    model_src = model_germ(source, [Fraction(1)])
    lift = lift_equivalence(eq, [Fraction(1)])
    assert lift.source == model_src
    assert lift.target == model_germ(target, [Fraction(1)])
    assert lift.scale == 1
    full = model_src.alphabet
    expected = Jet.variable(full, K - 1, "t1") * jet_sqrt(
        1 + Jet.variable(full, K - 1, "s") * 2
    )
    assert lift.t_maps[0] == expected
    assert verify_lift(lift).ok


def test_extract_multiplier_divides_the_stored_defect(monkeypatch):
    """make_equivalence composes the defect once, at v + sigma_1, and
    refuses a v-free part; extract_multiplier divides the stored jet by v
    and shifts it back with one composition and no defining pullback."""
    a = standard_alphabet(1, 0)
    g = generators(a, K)
    source = make_germ(1, 0, g["z1"] * g["zb1"] * (1 + g["s"] * 2).unit_inverse())
    ea = equivalence_alphabet(1)
    eta = Jet.variable(ea, K, "eta")
    eq = make_equivalence(source, quadric_core(), (Jet.variable(ea, K, "z1"),), eta + eta * eta)
    assert eq.defect.alphabet.names == ("z1", "zb1", "s", "v")
    assert eq.defect.order == K
    assert eq.defect.at_zero(["v"], eq.defect.alphabet).is_zero()

    calls = []
    for name in ("compose_many", "defining_pullback"):
        real = getattr(equivalence, name)
        monkeypatch.setattr(equivalence, name, lambda *args, real=real, name=name, **kwargs: (
            calls.append(name) or real(*args, **kwargs)))
    mult = extract_multiplier(eq)
    assert calls == ["compose_many"]
    assert mult == 1 + Jet.variable(mult.alphabet, K - 1, "s") * 2


def test_corrupted_lift_fails_verification():
    core = quadric_core()
    eq = make_equivalence(core, core, *scaling_map(2, 4))
    model = model_germ(core, [Fraction(1)])
    lift = lift_equivalence(eq, [Fraction(1)])
    t1 = Jet.variable(model.alphabet, K - 1, "t1")
    s = Jet.variable(model.alphabet, K - 1, "s")
    bad = dataclasses.replace(lift, t_maps=(t1 * 2 + s * s,))
    verdict = verify_lift(bad)
    assert not verdict.ok
    assert not verdict.defining_identity


def test_non_square_multiplier_is_refused():
    core = quadric_core()
    eq = make_equivalence(core, core, *scaling_map(GaussianRational(1, 1), 2))
    with pytest.raises(PreconditionError) as err:
        lift_equivalence(eq, [Fraction(1)])
    assert "square" in str(err.value)


def test_indefinite_core_refused():
    core = quadric_core(sign=-1)
    eq = make_equivalence(core, core, *scaling_map(1, 1))
    with pytest.raises(PreconditionError):
        lift_equivalence(eq, [Fraction(1)])


def test_make_equivalence_rejects_non_maps():
    core = quadric_core()
    with pytest.raises(PreconditionError):
        make_equivalence(core, core, *scaling_map(2, 1))  # identity fails: 4 sigma != sigma
    with pytest.raises(PreconditionError):
        make_equivalence(core, core, *scaling_map(0, 1))  # not invertible


def test_split_core_round_trip():
    core = quadric_core()
    model = model_germ(core, [Fraction(3), Fraction(-1, 2)])
    assert split_core(model) == (core, [Fraction(3), Fraction(-1, 2)])

    a = model.alphabet
    g = generators(a, K)
    damaged = make_germ(1, 2, model.phi + g["t1"] ** 2 * g["s"])
    with pytest.raises(PreconditionError):
        split_core(damaged)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 2),
    st.lists(
        st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 5)), max_size=2
    ),
    st.integers(0, 2**32),
)
def test_split_core_reads_back_model_germ(nu, coeffs, seed):
    core = random_central(random.Random(seed), nu=nu, order=4, degmax=3)
    assert split_core(model_germ(core, coeffs)) == (core, coeffs)
