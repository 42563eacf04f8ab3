"""Implicit function solving and series reversion over exact jets.

The workhorse is a chord iteration with graded precision. The Jacobian
with respect to the unknowns is inverted once at the origin. Sweep k
(k = 1 .. order) composes the equations truncated to order k at the
current guesses; since the guesses are exact below degree k, the
residual has valuation at least k, and its degree-k part is J0 times the
degree-k error of the guesses. Subtracting J0^{-1} times that part makes
the guesses exact through degree k. The valuation is checked: a graded
residual with a term below degree k raises InvariantError naming the
sweep and the degree. Two more certificates close the solve without a
product: the last correction solves J0 delta = r, and the last swept
degree is the working order. No composition follows the sweeps. The one
layer these premises leave unchecked, the degree-N layer of the last
sweep's own composition, is certified by each caller where it reads the
solution: revert_series composes its equation at the reversion.
"""

from __future__ import annotations

from typing import Sequence

from .alphabet import Alphabet
from .errors import PreconditionError, SingularJacobianError, certify
from .jets import Jet, compose_many
from .linalg import invert_matrix
from .rationals import GaussianRational, merged, scaled


def implicit_solve(
    equations: Sequence[Jet],
    unknowns: Sequence[str],
    *,
    target: Alphabet | None = None,
) -> list[Jet]:
    """Solve F(x, u) = 0 for u(x) with u(0) = 0.

    ``equations`` are jets over one alphabet containing both the
    parameters x and the ``unknowns`` u. Each equation must vanish at the
    origin and the Jacobian dF/du at the origin must be invertible. The
    returned jets live over ``target`` (default: the parameter
    subalphabet, in source order) and have zero constant term.

    The working order N is the least equation order. Sweep k = 1 .. N
    composes the equations truncated to order k at the guesses, which
    compose_many truncates to order k itself, and raises InvariantError
    if a residual has a term below degree k; the degree-k residual r,
    mapped through J0^{-1}, is the correction delta of the guesses, which
    stay at order N. That is N compositions, at orders 1 .. N, and no
    other.

    The guesses then solve the equations at order N, by a valuation
    argument over certified premises. Sweep N certifies that r has
    valuation at least N, so delta is homogeneous of degree N. The
    Jacobian dF/du along the guesses differs from J0 by terms of
    valuation at least 1, and delta squared has valuation 2N, so

        F(x, u - delta) = r - J0 delta   modulo degree N + 1.

    Two certificates, neither of which multiplies jets, make the right
    side zero: the last correction solves J0 delta = r, compared code by
    code for every equation (a wrong J0^{-1} or a fault in the
    coefficient-map arithmetic that forms delta from r fails it), and
    the sweeps reach the working order (a loop bound off by one fails
    it). What the premises leave unchecked is r itself: a wrong degree-N
    layer in the last sweep's composition moves the solution's degree-N
    layer and passes both. Each caller certifies that layer where it
    reads the solution.
    """
    if not equations:
        raise PreconditionError("no equations")
    if len(equations) != len(unknowns):
        raise PreconditionError(
            f"{len(equations)} equations for {len(unknowns)} unknowns"
        )
    src = equations[0].alphabet
    for eq in equations:
        if eq.alphabet != src:
            raise PreconditionError("equations must share one alphabet")
    seen = set()
    for u in unknowns:
        if u not in src.index:
            raise PreconditionError(f"unknown {u!r} is not a variable of the system")
        if u in seen:
            raise PreconditionError(f"unknown {u!r} listed twice")
        seen.add(u)

    work_order = min(eq.order for eq in equations)
    eqs = [eq.truncate(work_order) for eq in equations]

    for i, eq in enumerate(eqs):
        if not eq.constant_term().is_zero():
            raise PreconditionError(
                f"equation {i} does not vanish at the origin: constant {eq.constant_term()}"
            )

    params = [n for n in src.names if n not in seen]
    if target is None:
        target = src.subalphabet(params)
    else:
        for n in params:
            if n not in target.index:
                raise PreconditionError(
                    f"target alphabet lacks parameter {n!r}"
                )

    j0 = [
        [eq.coefficient({u: 1}) for u in unknowns]
        for eq in eqs
    ]
    try:
        j0_inv = invert_matrix(j0)
    except SingularJacobianError:
        raise SingularJacobianError(
            "Jacobian with respect to the unknowns is singular at the origin"
        ) from None

    guesses = [Jet.zero(target, work_order) for _ in unknowns]
    for k in range(1, work_order + 1):
        residuals = compose_many(
            [eq.truncate(k) for eq in eqs], dict(zip(unknowns, guesses)), alphabet=target, order=k
        )
        for i, r in enumerate(residuals):
            low = r.valuation()
            certify(low >= k, "implicit_solve", "sweep residual valuation",
                    f"chord sweep {k}: residual of equation {i} has a term of "
                    f"degree {low}, below the swept degree {k}")
        rs = [r.terms for r in residuals]
        deltas = [_combination(row, rs) for row in j0_inv]
        # The sweep certificate shows each delta homogeneous of degree k: a
        # polynomial, exact at the working order, and _combination drops
        # zeros, so the terms need no check of the constructor.
        guesses = [g - Jet._raw(target, work_order, d) for g, d in zip(guesses, deltas)]

    # The loop runs at least once: an order-0 system has J0 = 0, refused above.
    certify(k == work_order, "implicit_solve", "sweeps reach the working order",
            f"the last sweep reached degree {k}, not the working order {work_order}")
    certify(all(_combination(row, deltas) == r for row, r in zip(j0, rs)),
            "implicit_solve", "last correction solves J0 delta = r",
            "the last correction does not solve J0 delta = r; "
            "J0^{-1} or the arithmetic forming the correction is corrupted")
    return guesses


def _combination(row: Sequence[GaussianRational], maps: Sequence[dict]) -> dict:
    """sum_j row[j] * maps[j] over coefficient maps (code to nonzero
    coefficient), a map of the same kind, formed by the coefficient-map
    functions."""
    out: dict = {}
    for c, terms in zip(row, maps):
        out = merged(out, scaled(terms, c))
    return out


def revert_series(f: Jet) -> Jet:
    """Compositional inverse of a one-variable jet with f(0)=0, f'(0) != 0.

    The result g lives over the same alphabet and letter and satisfies
    g(f(x)) = x and f(g(x)) = x to the jet order. The solver leaves the
    top layer of its last sweep to the caller, so the equation
    f(g(x)) - x is composed at the solution and must vanish exactly.
    """
    alpha = f.alphabet
    if alpha.nvars != 1:
        raise PreconditionError("revert_series expects a one-variable jet")
    name = alpha.names[0]
    if not f.constant_term().is_zero():
        raise PreconditionError("series to revert must vanish at 0")
    if f.coefficient({name: 1}).is_zero():
        raise SingularJacobianError("series to revert has zero linear coefficient")

    out = "out_" + name
    pair = Alphabet((out, name))
    # F(out, name) = f(name) - out, unknown name, parameter out.
    lifted = f.rename({}, pair)
    equation = lifted - Jet.variable(pair, f.order, out)
    sol = implicit_solve([equation], [name])[0]
    (residual,) = compose_many([equation], {name: sol})
    certify(residual.is_zero(), "revert_series", "series composed with its reversion is x",
            "f(g(x)) - x is not zero at the jet order")
    return sol.rename({out: name}, alpha)
