"""External lifts: block relation and definiteness transport."""

import random
from fractions import Fraction

from crjets import (
    GaussianRational,
    Jet,
    external_lift,
    generators,
    levi_form,
    lift_levi_relation,
    make_germ,
    predicted_external_levi,
    standard_alphabet,
)

from germ_corpus import random_definite_germ, random_germ


def mizohata(order=6):
    a = standard_alphabet(0, 1)
    g = generators(a, order)
    return make_germ(0, 1, g["t1"] * g["t1"])


def test_mizohata_lift_values():
    ext = external_lift(mizohata())
    assert ext.lift.nu == 1 and ext.lift.nprime == 0
    assert ext.chart == (("z1", "t1"),)
    b = ext.lift.alphabet
    z, zb = Jet.variable(b, 6, "z1"), Jet.variable(b, 6, "zb1")
    # t = Im z, so phi lifts to -(z - zb)^2 / 4
    assert ext.lift.phi == (z - zb) ** 2 * Fraction(-1, 4)
    form = levi_form(ext.lift)
    assert form.matrix == ((GaussianRational(Fraction(1, 2)),),)


def test_block_prediction_on_mizohata():
    germ = mizohata()
    assert predicted_external_levi(germ) == ((GaussianRational(Fraction(1, 2)),),)
    assert lift_levi_relation(external_lift(germ))


def test_block_relation_on_random_germs():
    rng = random.Random(4)
    for _ in range(5):
        germ = random_germ(rng, nu=1, nprime=2, order=5)
        assert lift_levi_relation(external_lift(germ))


def test_definite_source_gives_definite_lift():
    rng = random.Random(15)
    for _ in range(4):
        germ = random_definite_germ(rng, nu=1, nprime=1, order=5)
        assert levi_form(germ).positive_definite
        ext = external_lift(germ)
        assert levi_form(ext.lift).positive_definite


def test_parameterless_lift_is_the_germ_itself():
    a = standard_alphabet(1, 0)
    g = generators(a, 5)
    germ = make_germ(1, 0, g["z1"] * g["zb1"])
    ext = external_lift(germ)
    assert ext.chart == ()
    assert ext.lift.phi == germ.phi
