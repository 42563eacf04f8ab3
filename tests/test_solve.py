"""Implicit solving and series reversion against closed-form oracles and
the full-precision chord iteration of the test oracles."""

import builtins
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import crjets.solve
from crjets import (
    Alphabet,
    GaussianRational,
    Jet,
    complexify,
    compose_many,
    conjugate_elimination,
    implicit_solve,
    revert_series,
)
from crjets.errors import InvariantError, PreconditionError, SingularJacobianError

from germ_corpus import random_central
from oracles import ONE, ZERO, catalan, cmul, jet_to_poly, poly_to_jet, reference_solve

ST = Alphabet(("s", "t"), None)


def test_catalan_generating_series():
    """t = s + t^2 is solved by the Catalan generating function."""
    s, t = Jet.variable(ST, 5, "s"), Jet.variable(ST, 5, "t")
    sol = implicit_solve([t - s - t * t], ["t"])[0]
    cs = catalan(6)
    assert [sol.coefficient({"s": k}) for k in range(6)] == [
        GaussianRational(0 if k == 0 else cs[k - 1]) for k in range(6)
    ]


def test_catalan_against_recurrence_deep():
    order = 12
    a = Alphabet(("s", "t"), None)
    s, t = Jet.variable(a, order, "s"), Jet.variable(a, order, "t")
    sol = implicit_solve([t - s - t * t], ["t"])[0]
    cs = catalan(order)
    for k in range(1, order + 1):
        assert sol.coefficient({"s": k}) == GaussianRational(cs[k - 1])


def test_square_root_by_implicit_equation():
    # u^2 + 2u - s = 0  <=>  u = sqrt(1+s) - 1
    su = Alphabet(("s", "u"), None)
    s, u = Jet.variable(su, 4, "s"), Jet.variable(su, 4, "u")
    sol = implicit_solve([u * u + u * 2 - s], ["u"])[0]
    assert sol.coefficient({"s": 1}) == GaussianRational(Fraction(1, 2))
    assert sol.coefficient({"s": 2}) == GaussianRational(Fraction(-1, 8))
    assert sol.coefficient({"s": 3}) == GaussianRational(Fraction(1, 16))


def test_two_unknowns_coupled():
    a = Alphabet(("x", "u", "v"), None)
    x, u, v = (Jet.variable(a, 5, n) for n in ("x", "u", "v"))
    # u = x + v^2, v = x^2 + u*v
    sols = implicit_solve([u - x - v * v, v - x * x - u * v], ["u", "v"])
    su, sv = sols
    xs = Jet.variable(a.subalphabet(["x"]), 5, "x")
    r1, r2 = compose_many([u - x - v * v, v - x * x - u * v], {"x": xs, "u": su, "v": sv})
    assert r1.is_zero() and r2.is_zero()


def test_singular_jacobian_is_rejected():
    s, t = Jet.variable(ST, 4, "s"), Jet.variable(ST, 4, "t")
    with pytest.raises(SingularJacobianError):
        implicit_solve([t * t - s], ["t"])


def test_nonzero_constant_is_rejected():
    s, t = Jet.variable(ST, 4, "s"), Jet.variable(ST, 4, "t")
    with pytest.raises(PreconditionError):
        implicit_solve([t - s + 1], ["t"])


def test_implicit_solve_refuses_malformed_systems():
    s, t = Jet.variable(ST, 4, "s"), Jet.variable(ST, 4, "t")
    other = Jet.variable(Alphabet(("s", "u"), None), 4, "u")
    for equations, unknowns, message in (
        ([], [], "^no equations$"),
        ([t - s], ["t", "s"], "^1 equations for 2 unknowns$"),
        ([t - s, other], ["t", "u"], "^equations must share one alphabet$"),
        ([t - s], ["u"], "^unknown 'u' is not a variable of the system$"),
        ([t - s, t + s], ["t", "t"], "^unknown 't' listed twice$"),
    ):
        with pytest.raises(PreconditionError, match=message):
            implicit_solve(equations, unknowns)
    with pytest.raises(PreconditionError, match="^target alphabet lacks parameter 's'$"):
        implicit_solve([t - s], ["t"], target=Alphabet(("x",), None))


def test_revert_series_refuses_bad_input():
    with pytest.raises(PreconditionError, match="^revert_series expects a one-variable jet$"):
        revert_series(Jet.variable(ST, 4, "s"))
    t = Jet.variable(Alphabet(("t",), None), 4, "t")
    with pytest.raises(PreconditionError, match="^series to revert must vanish at 0$"):
        revert_series(t + 1)


def test_reversion_round_trip():
    a = Alphabet(("t",), None)
    t = Jet.variable(a, 7, "t")
    f = t + t * t
    g = revert_series(f)
    assert compose_many([f], {"t": g})[0] == t
    assert compose_many([g], {"t": f})[0] == t


def test_reversion_known_series():
    # inverse of t/(1-t) is t/(1+t)
    a = Alphabet(("t",), None)
    t = Jet.variable(a, 6, "t")
    f = t * (1 - t).unit_inverse()
    g = revert_series(f)
    assert g == t * (1 + t).unit_inverse()


def test_reversion_needs_unit_slope():
    a = Alphabet(("t",), None)
    t = Jet.variable(a, 5, "t")
    with pytest.raises((PreconditionError, SingularJacobianError)):
        revert_series(t * t)


# ---------------------------------------------------------------------------
# graded sweeps against the full-precision chord iteration
# ---------------------------------------------------------------------------


def assert_matches_reference(equations, unknowns):
    """implicit_solve equals the full-precision chord iteration exactly."""
    names = equations[0].alphabet.names
    order = min(eq.order for eq in equations)
    expected = reference_solve(
        [jet_to_poly(eq) for eq in equations],
        [names.index(u) for u in unknowns],
        len(names),
        order,
    )
    solved = implicit_solve(equations, unknowns)
    assert [jet_to_poly(sol) for sol in solved] == expected
    assert all(sol.order == order for sol in solved)


fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coefs = st.tuples(fracs, fracs)


@st.composite
def systems(draw):
    """1-2 unknowns, 1-2 parameters, order 1-6, invertible J0.

    Returns (variable names, unknowns, order, equations as oracle polys).
    """
    nunknowns = draw(st.integers(1, 2))
    nparams = draw(st.integers(1, 2))
    order = draw(st.integers(1, 6))
    names = draw(
        st.permutations(
            [f"u{k}" for k in range(nunknowns)] + [f"x{k}" for k in range(nparams)]
        )
    )
    unknowns = [n for n in names if n.startswith("u")]
    width = len(names)
    j0 = [[draw(coefs) for _ in unknowns] for _ in unknowns]
    if nunknowns == 1:
        det = j0[0][0]
    else:
        a, b = cmul(j0[0][0], j0[1][1]), cmul(j0[0][1], j0[1][0])
        det = (a[0] - b[0], a[1] - b[1])
    if det == ZERO:
        j0 = [[ONE if i == j else ZERO for j in range(nunknowns)] for i in range(nunknowns)]
    eqs = []
    for row in j0:
        eq = {}
        for u, c in zip(unknowns, row):
            eq[tuple(int(n == u) for n in names)] = c
        for n in names:
            if n.startswith("x"):
                eq[tuple(int(m == n) for m in names)] = draw(coefs)
        for _ in range(draw(st.integers(0, 5))):
            exps = [0] * width
            for _ in range(draw(st.integers(2, max(2, order)))):
                exps[draw(st.integers(0, width - 1))] += 1
            eq[tuple(exps)] = draw(coefs)
        eqs.append({m: c for m, c in eq.items() if c != ZERO and sum(m) <= order})
    return tuple(names), unknowns, order, eqs


MINUS_ONE = (Fraction(-1), Fraction(0))


@settings(max_examples=80, deadline=None)
@given(systems())
# polynomial solution u = x + x^2: the reference iteration stops after two sweeps
@example((("x0", "u0"), ["u0"], 5, [{(0, 1): ONE, (1, 0): MINUS_ONE, (2, 0): MINUS_ONE}]))
# the coupled system u = x + v^2, v = x^2 + u*v
@example(
    (
        ("x0", "u0", "u1"),
        ["u0", "u1"],
        5,
        [
            {(0, 1, 0): ONE, (1, 0, 0): MINUS_ONE, (0, 0, 2): MINUS_ONE},
            {(0, 0, 1): ONE, (2, 0, 0): MINUS_ONE, (0, 1, 1): MINUS_ONE},
        ],
    )
)
def test_graded_sweeps_match_full_precision_chord(system):
    names, unknowns, order, polys = system
    alphabet = Alphabet(names, None)
    assert_matches_reference([poly_to_jet(p, alphabet, order) for p in polys], unknowns)


def test_conjugate_elimination_system_matches_full_precision_chord(monkeypatch):
    """The nu=2 system that conjugate_elimination solves: the two slope
    equations, for the two stand-ins ab of zb."""
    calls = []

    def recording_solve(equations, unknowns, **kwargs):
        calls.append((list(equations), list(unknowns)))
        return implicit_solve(equations, unknowns, **kwargs)

    ch = complexify(random_central(random.Random(7), nu=2, order=4))
    monkeypatch.setattr("crjets.segre.implicit_solve", recording_solve)
    conjugate_elimination(ch)
    [(equations, unknowns)] = calls
    assert len(unknowns) == 2
    assert_matches_reference(equations, unknowns)


# ---------------------------------------------------------------------------
# the sweep certificates
# ---------------------------------------------------------------------------


def catalan_equation(order):
    s, t = Jet.variable(ST, order, "s"), Jet.variable(ST, order, "t")
    return t - s - t * t


def recording_compose(monkeypatch, corrupt_call=None, degree=None):
    """Replace solve.compose_many by one that records the order of each
    call and, on call number ``corrupt_call``, adds s^degree to the first
    residual. Returns the recorded orders."""
    real = crjets.solve.compose_many
    orders = []

    def compose_many(outers, assignment, **kwargs):
        out = real(outers, assignment, **kwargs)
        orders.append(kwargs["order"])
        if len(orders) == corrupt_call:
            r = out[0]
            out[0] = r + Jet.variable(r.alphabet, r.order, "s") ** degree
        return out

    monkeypatch.setattr(crjets.solve, "compose_many", compose_many)
    return orders


def test_sweeps_are_graded_and_no_composition_follows(monkeypatch):
    orders = recording_compose(monkeypatch)
    implicit_solve([catalan_equation(5)], ["t"])
    assert orders == [1, 2, 3, 4, 5]


def test_term_below_the_swept_degree_is_an_invariant_error(monkeypatch):
    recording_compose(monkeypatch, corrupt_call=3, degree=2)
    with pytest.raises(InvariantError, match="sweep 3.*degree 2"):
        implicit_solve([catalan_equation(5)], ["t"])


def test_corrupted_last_correction_is_an_invariant_error(monkeypatch):
    """t = s^5 has a nonzero residual only at the last sweep, so a doubled
    J0^{-1} passes every valuation certificate and fails J0 delta = r."""
    orders = recording_compose(monkeypatch)
    real = crjets.solve.invert_matrix
    monkeypatch.setattr(
        crjets.solve, "invert_matrix", lambda a: [[c * 2 for c in row] for row in real(a)]
    )
    s, t = Jet.variable(ST, 5, "s"), Jet.variable(ST, 5, "t")
    with pytest.raises(InvariantError, match="last correction solves J0 delta = r"):
        implicit_solve([t - s**5], ["t"])
    assert orders == [1, 2, 3, 4, 5]


def one_sweep_short(monkeypatch):
    """The sweep loop, solve's one range with a start, ends one degree
    below the working order."""
    def short(*bounds):
        if len(bounds) == 2:
            bounds = (bounds[0], bounds[1] - 1)
        return builtins.range(*bounds)
    monkeypatch.setattr(crjets.solve, "range", short, raising=False)


def test_a_sweep_loop_short_of_the_working_order_is_an_invariant_error(monkeypatch):
    one_sweep_short(monkeypatch)
    with pytest.raises(InvariantError, match="reached degree 4, not the working order 5"):
        implicit_solve([catalan_equation(5)], ["t"])


def test_the_top_layer_of_the_last_sweep_is_left_to_the_caller(monkeypatch):
    """A degree-5 term added to the last sweep's residual passes the
    solver's certificates and moves only the solution's degree-5 layer:
    the caller's composition at the solution is what sees it."""
    clean = implicit_solve([catalan_equation(5)], ["t"])[0]
    recording_compose(monkeypatch, corrupt_call=5, degree=5)
    (moved,) = implicit_solve([catalan_equation(5)], ["t"])
    assert moved.truncate(4) == clean.truncate(4)
    assert moved != clean
