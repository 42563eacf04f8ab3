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
from typing import Sequence

from .alphabet import Alphabet
from .errors import PreconditionError, certify
from .germs import (
    LeviForm,
    StructureGerm,
    defining_pullback,
    first_integrals,
    is_solution,
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

    # One composition over the slice for phi and the pulled first integrals;
    # every lift variable that the slice leaves out maps to its namesake.
    back: dict[str, Jet] = {}
    for l in range(1, npr + 1):
        tvar = Jet.variable(full, order, f"t{l}")
        back[f"z{nu + l}"] = tvar * I
        back[f"zb{nu + l}"] = tvar * MINUS_I
    on_slice, *pulled = compose_many(
        [phi_lift, *first_integrals(lifted).values()], back, alphabet=full, order=order
    )
    certify(on_slice == germ.phi, "external_lift", "slice recovers phi",
            "re-substituting the slice did not recover phi")

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


def holomorphic_alphabet(nu: int) -> Alphabet:
    """(z_1..z_nu, w) with no conjugation: arguments of descendable maps."""
    return Alphabet(tuple(f"z{j}" for j in range(1, nu + 1)) + ("w",), None)


@dataclass(frozen=True)
class DescendedMap:
    """Source-manifold coordinates of a descended lift map.

    Real components in the order (x_1..x_nu, y_1..y_nu, s, t_1..t_nprime),
    plus the complex pullbacks they came from.
    """

    x: tuple[Jet, ...]
    y: tuple[Jet, ...]
    s: Jet
    t: tuple[Jet, ...]
    holomorphic_z: tuple[Jet, ...]
    holomorphic_w: Jet


def descend_map(
    ext: ExternalLift,
    shear: Sequence[Jet],
    core_map: Sequence[Jet],
    target: StructureGerm | None = None,
) -> DescendedMap:
    """Descend a lift map of split shape to the source manifold.

    ``core_map`` gives nu + 1 jets (new z components, then the new w
    component) and ``shear`` nprime jets, all over holomorphic_alphabet(nu)
    at the germ order, vanishing at 0. The map of the lift being descended
    sends the absorbed directions to themselves plus ``shear``; dependence
    on the absorbed variables is excluded by the argument alphabet itself.
    The new real parameters are t_l + Im shear_l along the source, the new
    (x, y, s) come from the core components. Every complex pullback must
    be annihilated by the source frame, and when ``target`` is given the
    pulled-back defining identity of the target is checked exactly.
    """
    germ = ext.source
    nu, npr, order = germ.nu, germ.nprime, germ.order
    hol = holomorphic_alphabet(nu)
    if len(core_map) != nu + 1:
        raise PreconditionError(f"core_map needs {nu + 1} components")
    if len(shear) != npr:
        raise PreconditionError(f"shear needs {npr} components")
    for jet in list(core_map) + list(shear):
        if jet.alphabet != hol:
            raise PreconditionError(
                "map components must live over the holomorphic (z, w) alphabet"
            )
        if jet.order != order:
            raise PreconditionError("map components must carry the germ order")
        if not jet.constant_term().is_zero():
            raise PreconditionError("map components must vanish at the origin")

    full = germ.alphabet
    along = {"w": Jet.variable(full, order, "s") + germ.phi * I}
    pulled = compose_many([*core_map, *shear], along, alphabet=full, order=order)
    pulled_core, pulled_shear = pulled[: nu + 1], pulled[nu + 1 :]
    certify(is_solution(germ, *pulled_core, *pulled_shear), "descend_map", "frame kills pullbacks",
            "pullback of a holomorphic map component is not annihilated by the frame")

    new_z = tuple(pulled_core[:nu])
    new_w = pulled_core[nu]
    new_t = tuple(
        Jet.variable(full, order, f"t{l}") + pulled_shear[l - 1].imag_part()
        for l in range(1, npr + 1)
    )

    if target is not None:
        if target.nu != nu or target.nprime != npr:
            raise PreconditionError("target germ has mismatched dimensions")
        if target.order < order:
            raise PreconditionError("target germ order is too low to verify against")
        rhs = defining_pullback(
            target.phi.truncate(order), new_z, new_w, full, order, new_t
        )
        if rhs != new_w.imag_part():
            raise PreconditionError(
                "map does not send the source structure into the target"
            )

    return DescendedMap(
        tuple(j.real_part() for j in new_z),
        tuple(j.imag_part() for j in new_z),
        new_w.real_part(),
        new_t,
        new_z,
        new_w,
    )
