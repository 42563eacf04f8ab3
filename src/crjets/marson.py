"""External lift: trading every real parameter for a complex direction.

A germ phi(z, zb, s, t) with nprime real parameters lifts to a germ in
nu + nprime complex variables and no parameters by substituting, for
each t_l, the imaginary part of a fresh complex variable:

    t_l  ->  (z_{nu+l} - zb_{nu+l}) * (-i/2).

The source manifold sits inside the lifted one as the slice where the
new variables are purely imaginary, and the lift gains exactly nprime
independent first integrals. Both facts are certified here by exact
computation: the re-substitution z_{nu+l} -> i t_l recovers phi, and
the pulled-back first integrals have full-rank linear parts.

The Levi matrix of the lift is computed honestly from the lifted germ;
its block relation to the source Levi matrix (mixed blocks scaled by
+-i/2, parameter block by 1/4) is forced by the substitution alone, so
a dedicated checker recomputes both sides and compares them entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import certify
from .germs import (
    LeviForm,
    StructureGerm,
    first_integrals,
    levi_form,
    make_germ,
    standard_alphabet,
)
from .jets import Jet, compose_many
from .linalg import rank
from .rationals import HALF_I, I, MINUS_HALF_I, MINUS_I, GaussianRational


@dataclass(frozen=True)
class ExternalLift:
    source: StructureGerm
    lift: StructureGerm
    chart: tuple[tuple[str, str], ...]
    """Pairs (new complex variable, source parameter it absorbs)."""


def external_lift(germ: StructureGerm) -> ExternalLift:
    """Build the lifted germ and certify the embedding invariants."""
    nu, npr, order = germ.nu, germ.nprime, germ.order
    big = standard_alphabet(nu + npr, 0)
    full = germ.alphabet

    chart = []
    absorb: dict[str, Jet] = {}
    for l in range(1, npr + 1):
        new = f"z{nu + l}"
        chart.append((new, f"t{l}"))
        absorb[f"t{l}"] = (
            Jet.variable(big, order, new) - Jet.variable(big, order, f"zb{nu + l}")
        ) * MINUS_HALF_I
    (phi_lift,) = compose_many([germ.phi], absorb, alphabet=big, order=order)
    lifted = make_germ(nu + npr, 0, phi_lift)

    # Every lift variable that the slice leaves out maps to its namesake.
    back: dict[str, Jet] = {}
    for l in range(1, npr + 1):
        tvar = Jet.variable(full, order, f"t{l}")
        back[f"z{nu + l}"] = tvar * I
        back[f"zb{nu + l}"] = tvar * MINUS_I
    (on_slice,) = compose_many([phi_lift], back, alphabet=full, order=order)
    certify(on_slice == germ.phi, "external_lift", "slice recovers phi",
            "re-substituting the slice did not recover phi")

    # The rank reads linear parts only, so the integrals are pulled at order 1.
    linear = [f.truncate(1) for f in first_integrals(lifted).values()]
    pulled = compose_many(linear, back, alphabet=full, order=1)
    linear_rows = [
        [jet.coefficient({var: 1}) for var in full.names] for jet in pulled
    ]
    expected = nu + npr + 1
    got = rank(linear_rows)
    certify(got == expected, "external_lift", "first integrals have full rank",
            f"pulled-back first integrals span rank {got}, expected {expected}")
    return ExternalLift(germ, lifted, tuple(chart))


def external_levi(ext: ExternalLift) -> LeviForm:
    """Levi data of the lifted germ, computed from the lift itself."""
    return levi_form(ext.lift)


def predicted_external_levi(germ: StructureGerm) -> list[list[GaussianRational]]:
    """Source Levi blocks rescaled by the lift substitution.

    With the source matrix [[A, B], [C, D]] (z-z, z-t, t-z, t-t blocks),
    the lift's matrix must be [[A, (i/2) B], [(-i/2) C, (1/4) D]].
    """
    nu, npr = germ.nu, germ.nprime
    source = levi_form(germ).rows()
    size = nu + npr
    out = [[None] * size for _ in range(size)]  # type: ignore[list-item]
    quarter = Fraction(1, 4)
    for i in range(size):
        for j in range(size):
            v = source[i][j]
            if i < nu and j < nu:
                out[i][j] = v
            elif i < nu <= j:
                out[i][j] = v * HALF_I
            elif j < nu <= i:
                out[i][j] = v * MINUS_HALF_I
            else:
                out[i][j] = v * quarter
    return out  # type: ignore[return-value]


def lift_levi_relation(ext: ExternalLift) -> bool:
    """Exact entrywise comparison of the honest and the predicted Levi
    matrices of the lift."""
    honest = external_levi(ext).rows()
    predicted = predicted_external_levi(ext.source)
    return honest == predicted
