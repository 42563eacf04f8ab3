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

The lifted germ is not validated again. phi was validated where it was
read or built (io.germ_from_json, germs.make_germ), and the chart
(z - zb) * (-i/2) is real with zero constant term, which compose_many
enforces; so phi of the chart is real, vanishes at the origin and, as
phi has no linear part, has none either.

The Levi matrix of the lift is read honestly from the lifted germ by
germs.levi_matrix; its block relation to the source Levi matrix (mixed
blocks scaled by +-i/2, parameter block by 1/4) is forced by the
substitution alone, so lift_levi_relation reads both matrices and
compares them entrywise. Neither side needs an inertia: the external
command computes one, the lift's signature, by germs.levi_form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import certify
from .germs import (
    LeviMatrix,
    StructureGerm,
    first_integrals,
    levi_matrix,
    standard_alphabet,
)
from .jets import Jet, compose_many
from .linalg import rank
from .rationals import HALF_I, I, MINUS_HALF_I, MINUS_I, ZERO


@dataclass(frozen=True)
class ExternalLift:
    source: StructureGerm
    lift: StructureGerm
    chart: tuple[tuple[str, str], ...]
    """Pairs (new complex variable, source parameter it absorbs)."""


def external_lift(germ: StructureGerm) -> ExternalLift:
    """Build the lifted germ, real and flat at 0 by construction (see the
    module docstring), and certify the embedding invariants."""
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
    lifted = StructureGerm(nu + npr, 0, phi_lift)

    # Every lift variable that the slice leaves out maps to its namesake.
    back: dict[str, Jet] = {}
    for l in range(1, npr + 1):
        tvar = Jet.variable(full, order, f"t{l}")
        back[f"z{nu + l}"] = tvar * I
        back[f"zb{nu + l}"] = tvar * MINUS_I
    (on_slice,) = compose_many([phi_lift], back, alphabet=full, order=order)
    certify(on_slice == germ.phi, "external_lift", "slice recovers phi",
            "re-substituting the slice did not recover phi")

    # The rank reads linear parts only, so the integrals are pulled at order 1,
    # and only over the degree-1 codes they use: other columns are zero.
    linear = [f.truncate(1) for f in first_integrals(lifted).values()]
    pulled = compose_many(linear, back, alphabet=full, order=1)
    codes = {c for jet in pulled for c in jet.terms if full.degree(c) == 1}
    linear_rows = [[jet.terms.get(c, ZERO) for c in codes] for jet in pulled]
    expected = nu + npr + 1
    got = rank(linear_rows)
    certify(got == expected, "external_lift", "first integrals have full rank",
            f"pulled-back first integrals span rank {got}, expected {expected}")
    return ExternalLift(germ, lifted, tuple(chart))


def predicted_external_levi(germ: StructureGerm) -> LeviMatrix:
    """Source Levi blocks rescaled by the lift substitution.

    With the source matrix [[A, B], [C, D]] (z-z, z-t, t-z, t-t blocks),
    the lift's matrix must be [[A, (i/2) B], [(-i/2) C, (1/4) D]].
    """
    nu = germ.nu
    quarter = Fraction(1, 4)
    return tuple(
        tuple(
            v if i < nu and j < nu
            else v * (HALF_I if i < nu else MINUS_HALF_I if j < nu else quarter)
            for j, v in enumerate(row)
        )
        for i, row in enumerate(levi_matrix(germ))
    )


def lift_levi_relation(ext: ExternalLift) -> bool:
    """Exact entrywise comparison of the lift's Levi matrix with the one
    predicted from the source; no inertia is computed."""
    return levi_matrix(ext.lift) == predicted_external_levi(ext.source)
