"""Implicit function solving and series reversion over exact jets.

The workhorse is a chord iteration with graded precision. The Jacobian
with respect to the unknowns is inverted once at the origin. Sweep k
(k = 1 .. order) composes the equations truncated to order k at the
current guesses; since the guesses are exact below degree k, the
residual has valuation at least k, and its degree-k part is J0 times the
degree-k error of the guesses. Subtracting J0^{-1} times that part makes
the guesses exact through degree k. The valuation is checked: a graded
residual with a term below degree k raises InvariantError naming the
sweep and the degree. After the last sweep one composition at the full
order recomputes the residual, which must vanish identically; anything
else is a bug, not noise, since all arithmetic is exact.
"""

from __future__ import annotations

from typing import Sequence

from .alphabet import Alphabet
from .errors import InvariantError, PreconditionError, SingularJacobianError
from .jets import Jet, compose_many
from .linalg import invert_matrix


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
    subalphabet, in source order) and have zero constant term. They
    satisfy the equations identically at the working order.

    The working order N is the least equation order. Sweep k = 1 .. N
    composes the equations truncated to order k at the guesses truncated
    to order k and raises InvariantError if a residual has a term below
    degree k; the degree-k residual, mapped through J0^{-1}, corrects the
    guesses, which stay at order N. One
    composition at order N then certifies the result: every residual
    must be exactly zero, or InvariantError is raised. That is N + 1
    compositions, N of them below full order.
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

    guesses: list[Jet] = [Jet.zero(target, work_order) for _ in unknowns]
    for k in range(1, work_order + 1):
        assignment: dict[str, Jet] = {n: Jet.variable(target, k, n) for n in params}
        assignment.update((u, g.truncate(k)) for u, g in zip(unknowns, guesses))
        residuals = compose_many(
            [eq.truncate(k) for eq in eqs], assignment, alphabet=target, order=k
        )
        for i, r in enumerate(residuals):
            low = r.valuation()
            if low is not None and low < k:
                raise InvariantError(
                    f"chord sweep {k}: residual of equation {i} has a term of "
                    f"degree {low}, below the swept degree {k}"
                )
        for j in range(len(unknowns)):
            delta = Jet.zero(target, k)
            for i, r in enumerate(residuals):
                c = j0_inv[j][i]
                if not c.is_zero():
                    delta = delta + r * c
            # Every term of delta has degree exactly k: it is exact data at
            # any order, so raising it to the working order asserts nothing.
            guesses[j] = guesses[j] - delta.promote(work_order, min_valuation=k)

    assignment = {n: Jet.variable(target, work_order, n) for n in params}
    assignment.update(zip(unknowns, guesses))
    residuals = compose_many(eqs, assignment, alphabet=target, order=work_order)
    if not all(r.is_zero() for r in residuals):
        raise InvariantError(
            "chord iteration failed to reach an exactly zero residual; "
            "this indicates corrupted coefficient arithmetic"
        )
    return guesses


def revert_series(f: Jet) -> Jet:
    """Compositional inverse of a one-variable jet with f(0)=0, f'(0) != 0.

    The result g lives over the same alphabet and letter and satisfies
    g(f(x)) = x and f(g(x)) = x to the jet order.
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
    return sol.rename({out: name}, alpha)
