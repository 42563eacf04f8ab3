"""Reported orders are honest: a jet reported for a germ G of order N is
exact at its reliable order, so terms of G past N cannot move it.

Each case takes G and G' = G plus the real part of random terms of
degrees N + 1 .. N + K, at order N + K, and compares what levi (the
characteristic covector), phi (the section Hessian entries), central
(the critical graph, the restricted and the straightened phi), normalize
(the base and the square maps), external (the lift) and lift (the t
components) report for both, the
second truncated to the first's reliable order, which is checked to be
the one the command reports. ode's right side is compared the same way
on a height and its extension by even terms.
"""

import random

import pytest

from crjets import (
    I,
    Jet,
    characteristic_covector,
    compose_many,
    equivalence_alphabet,
    external_lift,
    implicit_solve,
    lift_equivalence,
    make_equivalence,
    make_germ,
    morse_normalize,
    ode_right_side,
    standard_alphabet,
    straighten,
)
from crjets.equivalence import multiplier_alphabet
from crjets.errors import DegenerateFormError
from crjets.germs import defining_pullback
from crjets.segre import certified_section_hessian

from germ_corpus import (
    rand_fraction,
    rand_scalar,
    random_central,
    random_definite_germ,
    random_germ,
    random_height,
)


def extended(germ, rng, k, count=4):
    """The germ at order N + k with the real part of ``count`` random terms
    of degrees N + 1 .. N + k added."""
    alphabet, order = germ.alphabet, germ.order
    extra = {}
    for _ in range(count):
        exps = [0] * alphabet.nvars
        for _ in range(rng.randint(order + 1, order + k)):
            exps[rng.randrange(alphabet.nvars)] += 1
        extra[alphabet.encode(exps)] = rand_scalar(rng)
    phi = Jet(alphabet, order + k, germ.phi.terms) + Jet(alphabet, order + k, extra).real_part()
    return make_germ(germ.nu, germ.nprime, phi)


def case(seed):
    """(rng, nu, nprime, N, K) of one case: nu, nprime <= 2, N = 3..6, K = 1..3."""
    rng = random.Random(seed)
    return rng, rng.randint(1, 2), rng.randint(0, 2), rng.randint(3, 6), rng.randint(1, 3)


def assert_honest(low, high):
    """Equal jets at the first's order, the second truncated to it."""
    assert len(low) == len(high)
    for a, b in zip(low, high):
        assert b.order > a.order
        assert b.truncate(a.order) == a


def assert_phi_honest(germ, high):
    hessian, extended_hessian = certified_section_hessian(germ), certified_section_hessian(high)
    assert hessian.order == germ.order - 2
    assert_honest(sum(hessian.entries, ()), sum(extended_hessian.entries, ()))


CASES = range(40)


@pytest.mark.parametrize("seed", CASES)
def test_levi_covector_is_honest(seed):
    """levi's covector at N - 1: its holomorphic coefficients and those of
    its imaginary part in the real basis."""
    rng, nu, nprime, n, k = case(seed)
    germ = random_germ(rng, nu, nprime, n)
    low, high = (
        [*cov.holomorphic.values(), *cov.imaginary_real_basis.values()]
        for cov in map(characteristic_covector, (germ, extended(germ, rng, k)))
    )
    assert [j.order for j in low] == [n - 1] * len(low)
    assert_honest(low, high)


@pytest.mark.parametrize("seed", CASES)
def test_section_hessian_entries_are_honest(seed):
    rng, nu, nprime, n, k = case(seed)
    while True:
        germ = random_germ(rng, nu, nprime, n) if nprime else random_central(rng, nu, n)
        try:
            certified_section_hessian(germ)
        except DegenerateFormError:
            continue
        break
    assert_phi_honest(germ, extended(germ, rng, k))


# The order-2 and order-3 examples of tests/test_segre.py, where the
# Hessian has order 0 and 1 and the elimination order 1.
@pytest.mark.parametrize("seed, nu, order", [(45, 2, 3), (46, 1, 2), (47, 2, 2)])
def test_low_order_section_hessian_entries_are_honest(seed, nu, order):
    germ = random_central(random.Random(seed), nu=nu, order=order)
    assert_phi_honest(germ, extended(germ, random.Random(seed), 3))


@pytest.mark.parametrize("seed", CASES)
def test_central_reports_are_honest(seed):
    """central's graph at N - 1, and its restricted and straightened phi
    at N."""
    rng, nu, nprime, n, k = case(seed)
    germ = random_germ(rng, nu, max(nprime, 1), n)
    reports = []
    for g in (germ, extended(germ, rng, k)):
        manifold, flat = straighten(g)
        reports.append((manifold.graph, (manifold.core.phi, flat.phi)))
    (graph, phis), (high_graph, high_phis) = reports
    assert [j.order for j in graph] == [n - 1] * len(graph)
    assert [j.order for j in phis] == [n, n]
    assert_honest(graph, high_graph)
    assert_honest(phis, high_phis)


@pytest.mark.parametrize("seed", CASES)
def test_square_maps_are_honest(seed):
    """normalize's square maps at N - 1 and its base at N."""
    rng, nu, nprime, n, k = case(seed)
    germ = random_germ(rng, nu, max(nprime, 1), n)
    forms = [morse_normalize(straighten(g)[1]) for g in (germ, extended(germ, rng, k))]
    assert forms[0].maps[0].order == n - 1
    assert forms[0].base.order == n
    assert_honest(*(form.maps for form in forms))
    assert_honest(*((form.base,) for form in forms))


@pytest.mark.parametrize("seed", CASES)
def test_external_lift_is_honest(seed):
    rng, nu, nprime, n, k = case(seed)
    germ = random_germ(rng, nu, nprime, n)
    lifts = [external_lift(g).lift.phi for g in (germ, extended(germ, rng, k))]
    assert lifts[0].order == n
    assert_honest(*([lift] for lift in lifts))


@pytest.mark.parametrize("seed", CASES)
def test_ode_right_side_is_honest(seed):
    """A height of order N = 4..9 and its extension by real even terms of
    degrees N + 1 .. N + 4: the right side, at order N // 2, is forced by
    the height's terms through degree N. Odd terms would obstruct the
    profile equation, so none is added."""
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    height = random_height(rng, n)
    extra = {(d,): rand_fraction(rng, nonzero=True) for d in range(n + 1, n + 5) if d % 2 == 0}
    high = Jet(height.alphabet, n + 4, height.terms) + Jet.from_terms(height.alphabet, n + 4, extra)
    sides = [ode_right_side(h) for h in (height, high)]
    assert sides[0].order == n // 2
    assert_honest(*([side] for side in sides))


def source_core(target, z_maps, w_map):
    """The core sigma that (z_maps, w_map) sends into ``target``: the
    solution v of Im g(s + iv) = tau(f, conj f, Re g(s + iv))."""
    nu, order = target.nu, target.order
    big = multiplier_alphabet(nu)
    eta = Jet.variable(big, order, "s") + Jet.variable(big, order, "v") * I
    *fz, gw = compose_many([*z_maps, w_map], {"eta": eta}, alphabet=big, order=order)
    defect = gw.imag_part() - defining_pullback(target.phi, fz, gw, big, order)
    (sigma,) = implicit_solve([defect], ["v"], target=standard_alphabet(nu, 0))
    return make_germ(nu, 0, sigma)


@pytest.mark.parametrize("seed", CASES)
def test_lift_t_components_are_honest(seed):
    """A definite target core and its extension, the map z -> z,
    eta -> eta + a eta^2, and the source cores it forces: the lifts to the
    split normal forms with nprime random coefficients."""
    rng, nu, nprime, n, k = case(seed)
    target = random_definite_germ(rng, nu, 0, n)
    targets = (target, extended(target, rng, k))
    a = rand_fraction(rng)
    coeffs = [rand_fraction(rng, nonzero=True) for _ in range(max(nprime, 1))]
    lifts = []
    for tau in targets:
        hol = equivalence_alphabet(nu)
        z_maps = [Jet.variable(hol, tau.order, f"z{j}") for j in range(1, nu + 1)]
        eta = Jet.variable(hol, tau.order, "eta")
        w_map = eta + eta * eta * a
        source = source_core(tau, z_maps, w_map)
        lifts.append(lift_equivalence(make_equivalence(source, tau, z_maps, w_map), coeffs))
    low, high = lifts
    assert high.source.phi.truncate(n) == low.source.phi
    assert low.t_maps[0].order == n - 1
    assert_honest(low.t_maps, high.t_maps)
