"""Acceptance run: nine end-to-end checks with exact arithmetic throughout.

Every comparison below is exact equality of jets, matrices or rationals.
There are no tolerances anywhere. Three checks also carry wall-clock
budgets, asserted against perf_counter. Each check appends one PASS/FAIL
line to the terminal summary (see conftest).
"""

import dataclasses
import functools
import random
import time
from fractions import Fraction

import conftest

from crjets import (
    GaussianRational,
    Jet,
    complexify,
    compose_many,
    conjugate_elimination,
    equivalence_alphabet,
    external_lift,
    extract_multiplier,
    generators,
    hermitian_signature,
    levi_form,
    lift_equivalence,
    lift_levi_relation,
    implicit_solve,
    is_straightened,
    make_equivalence,
    make_germ,
    model_germ,
    morse_normalize,
    ode_right_side,
    phi_determinant,
    phi_elimination,
    predicted_external_levi,
    revert_series,
    rigid_phi_test,
    standard_alphabet,
    straighten,
    t_hessian,
    verify_lift,
)
from crjets.alphabet import Alphabet
from crjets.errors import recording

from germ_corpus import (
    random_central,
    random_definite_germ,
    random_germ,
    random_height,
    random_rigid_central,
)
from oracles import catalan


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.acceptance_lines.append(f"criterion {number}: FAIL  {label}")
                raise
            conftest.acceptance_lines.append(f"criterion {number}: PASS  {label}")

        return run

    return wrap


def quadric_germ(signs, order=8):
    nu = len(signs)
    g = generators(standard_alphabet(nu, 0), order)
    phi = Jet.constant(standard_alphabet(nu, 0), order, 0)
    for j, sign in enumerate(signs, start=1):
        phi = phi + g[f"z{j}"] * g[f"zb{j}"] * sign
    return make_germ(nu, 0, phi)


@functools.lru_cache(maxsize=1)
def germ_corpus_20():
    """Twenty pseudorandom germs with invertible parameter Hessians."""
    rng = random.Random(60201)
    out = []
    for i in range(20):
        nprime = 1 + i % 2
        out.append(random_germ(rng, nu=1, nprime=nprime, order=5))
    return tuple(out)


@criterion(1, "dual routes vanish on both model quadrics at order 8 in under 1s")
def test_criterion_1_quadric_vanishing():
    start = time.perf_counter()
    for signs in ((1,), (1, -1)):
        ch = complexify(quadric_germ(signs, order=8))
        elim = conjugate_elimination(ch)
        by_det = phi_determinant(ch, elim)
        by_elim = phi_elimination(ch, elim)
        assert by_det.route == "determinant"
        assert by_elim.route == "elimination"
        for row in by_det.entries:
            for entry in row:
                assert entry.is_zero()
        for row in by_elim.entries:
            for entry in row:
                assert entry.is_zero()
    assert time.perf_counter() - start < 1.0


@criterion(2, "both routes agree entrywise on 20 random central germs in under 30s")
def test_criterion_2_route_agreement():
    rng = random.Random(70002)
    start = time.perf_counter()
    for i in range(20):
        nu = 2 if i % 5 == 4 else 1
        germ = random_central(rng, nu=nu, order=6 if nu == 1 else 5, degmax=4)
        ch = complexify(germ)
        elim = conjugate_elimination(ch)
        by_det = phi_determinant(ch, elim)
        by_elim = phi_elimination(ch, elim)
        assert by_det.route != by_elim.route
        assert by_det.entries == by_elim.entries
        assert by_det.order == by_elim.order
    assert time.perf_counter() - start < 30.0


@criterion(3, "critical graph kills the parameter gradient on 20 germs in under 10s")
def test_criterion_3_central_residuals():
    start = time.perf_counter()
    for germ in germ_corpus_20():
        m, flat = straighten(germ)
        full = germ.alphabet
        order = germ.order - 1
        on_graph = {name: Jet.variable(full, order, name) for name in full.names}
        for name, graph_jet in zip(germ.t_names(), m.graph):
            on_graph[name] = graph_jet.rename({}, full)
        for name in germ.t_names():
            assert compose_many([germ.phi.derive(name)], on_graph)[0].is_zero()

        assert is_straightened(flat)
        at_zero = {name: Jet.variable(full, order, name) for name in full.names}
        for name in flat.t_names():
            at_zero[name] = Jet.constant(full, order, 0)
        for name in flat.t_names():
            assert compose_many([flat.phi.derive(name)], at_zero)[0].is_zero()
    assert time.perf_counter() - start < 10.0


@criterion(4, "Morse splitting reconstructs exactly with the Hessian signature")
def test_criterion_4_morse_reconstruction():
    for germ in germ_corpus_20():
        _, flat = straighten(germ)
        form = morse_normalize(flat)
        assert form.reconstruct() == flat.phi

        # independent signature: realified congruence of the parameter Hessian
        pos, neg, null = hermitian_signature(t_hessian(germ))
        assert null == 0
        assert form.signature == pos
        assert sum(1 for c in form.quad_coeffs if c < 0) == neg


@criterion(5, "external lift satisfies the exact block Levi relation")
def test_criterion_5_lift_levi():
    rng = random.Random(50005)
    for _ in range(10):
        germ = random_germ(rng, nu=1, nprime=2, order=5)
        ext = external_lift(germ)
        assert lift_levi_relation(ext)
        got = levi_form(ext.lift).matrix
        want = predicted_external_levi(germ)
        assert got == want
    for _ in range(4):
        germ = random_definite_germ(rng, nu=1, nprime=2, order=5)
        assert levi_form(germ).positive_definite
        assert levi_form(external_lift(germ).lift).positive_definite


@criterion(6, "rigid germs pass the parameter-independence test")
def test_criterion_6_rigid():
    rng = random.Random(41006)
    for _ in range(20):
        germ = random_rigid_central(rng, nu=1, order=6, degmax=3)
        with recording() as record:
            report = rigid_phi_test(germ)
        assert report.offenders == ()
        assert report.consistent
        assert ("certified_section_hessian", "routes agree", True) in record
    quadric = rigid_phi_test(quadric_germ((1,), order=8))
    assert quadric.consistent and quadric.offenders == ()


@criterion(7, "profile equation holds exactly for the flat and random heights")
def test_criterion_7_profile_equation():
    xa = Alphabet(("x",), None)
    x = Jet.variable(xa, 8, "x")
    flat = ode_right_side(x * x * Fraction(1, 2))
    u = Jet.variable(flat.alphabet, flat.order, "u")
    assert flat == u

    rng = random.Random(30007)
    for _ in range(10):
        h = random_height(rng, order=8)
        profile = ode_right_side(h)
        order = h.order
        xj = Jet.variable(h.alphabet, order, "x")
        lhs = xj * xj * h.derive("x").derive("x")
        inner = xj * h.derive("x")
        (rhs,) = compose_many([profile], {"u": inner}, alphabet=h.alphabet, order=order)
        assert lhs.order == inner.order == rhs.order == order
        assert lhs == rhs


@criterion(8, "equivalences lift exactly and a corrupted lift is caught")
def test_criterion_8_equivalence_lift():
    core = quadric_germ((1,), order=6)
    model = model_germ(core, [Fraction(1)])
    ea = equivalence_alphabet(1)
    z1 = Jet.variable(ea, 6, "z1")
    eta = Jet.variable(ea, 6, "eta")

    ident = make_equivalence(core, core, (z1,), eta)
    mult = extract_multiplier(ident)
    assert mult == Jet.constant(mult.alphabet, mult.order, 1)
    lift = lift_equivalence(ident, [Fraction(1)])
    assert lift.t_maps[0] == Jet.variable(model.alphabet, 5, "t1")
    assert verify_lift(lift).ok

    scaling = make_equivalence(core, core, (z1 * 2,), eta * 4)
    mult = extract_multiplier(scaling)
    assert mult == Jet.constant(mult.alphabet, mult.order, 4)
    lift = lift_equivalence(scaling, [Fraction(1)])
    assert lift.scale == 2
    assert lift.t_maps[0] == Jet.variable(model.alphabet, 5, "t1") * 2
    verdict = verify_lift(lift)
    assert verdict.ok

    bad = dataclasses.replace(
        lift, t_maps=(Jet.variable(model.alphabet, 5, "t1") * 3,)
    )
    assert not verify_lift(bad).ok


@criterion(9, "implicit solving reproduces the Catalan numbers and reversion round-trips")
def test_criterion_9_solver():
    st = Alphabet(("s", "t"), None)
    s, t = Jet.variable(st, 5, "s"), Jet.variable(st, 5, "t")
    sol = implicit_solve([t - s - t * t], ["t"])[0]
    expected = catalan(5)  # 1, 1, 2, 5, 14
    got = [sol.coefficient({"s": k}) for k in range(1, 6)]
    assert got == [GaussianRational(c) for c in expected]

    ta = Alphabet(("t",), None)
    f = Jet.variable(ta, 7, "t") + Jet.variable(ta, 7, "t") ** 2
    g = revert_series(f)
    ident = Jet.variable(ta, 7, "t")
    assert compose_many([f], {"t": g})[0] == ident
    assert compose_many([g], {"t": f})[0] == ident
