"""Equivalences of core hypersurfaces and their lifts across parameters.

A central equivalence is a holomorphic-type map (z, w) -> (f(z, w),
g(z, w)), written in variables (z, eta), sending the hypersurface
Im w = sigma_1(z, zb, Re w) into Im w = sigma_2(...). Off the source
hypersurface the defining defect

    D(z, zb, s, v) = Im g(z, s + iv) - sigma_2(f, conj f, Re g)

vanishes on {v = sigma_1}; its quotient lambda by v - sigma_1 is the
multiplier of the equivalence. make_equivalence composes D once, at
v + sigma_1: since sigma_1 is real and composition commutes with
conjugation, composing the map at eta = s + i(v + sigma_1) gives D
shifted in v. It accepts the map only when the v-free part, D on the
source, is zero, so v divides E = D(v + sigma_1) exactly, and
extract_multiplier returns lambda = (E / v)(v - sigma_1).

For germs in split normal form sigma + sum_l c_l t_l^2, which
germs.model_germ builds and split_core reads back into its core and
coefficients, the same map lifts to the parameters when both sides carry
the same c_l: lift_equivalence takes the core map and those c_l, and
rescales each t_l with the square root of the pulled-back multiplier.
The multiplier's value at 0 must be a perfect rational square for the
lift to stay inside exact arithmetic; otherwise the lift is refused
rather than approximated. Verification of a lifted map recomputes
everything from scratch so corrupted maps always fail.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import Sequence

from .alphabet import Alphabet
from .errors import PreconditionError, certify
from .germs import (
    StructureGerm,
    at_t_zero,
    defining_pullback,
    is_solution,
    levi_form,
    make_germ,
    model_germ,
    standard_alphabet,
)
from .jets import Jet, compose_many, jet_sqrt
from .linalg import rank
from .rationals import I, rational_sqrt


def equivalence_alphabet(nu: int) -> Alphabet:
    """(z_1..z_nu, eta): the holomorphic arguments of a core map."""
    return Alphabet(tuple(f"z{j}" for j in range(1, nu + 1)) + ("eta",), None)


def multiplier_alphabet(nu: int) -> Alphabet:
    """(z, zb, s, v) with real s, v: where the multiplier lives."""
    names = (
        [f"z{j}" for j in range(1, nu + 1)]
        + [f"zb{j}" for j in range(1, nu + 1)]
        + ["s", "v"]
    )
    return Alphabet(names, {f"z{j}": f"zb{j}" for j in range(1, nu + 1)})


def _pull_back_map(
    z_maps: Sequence[Jet], w_map: Jet, eta: Jet, order: int
) -> tuple[list[Jet], Jet]:
    """Core map components with eta replaced by ``eta``, z kept, over
    the alphabet of ``eta``."""
    *pulled_z, pulled_w = compose_many(
        [*z_maps, w_map], {"eta": eta}, alphabet=eta.alphabet, order=order
    )
    return pulled_z, pulled_w


@dataclass(frozen=True)
class CentralEquivalence:
    """A validated core map; ``defect`` is D(v + sigma_1) over
    multiplier_alphabet(nu) at the germ order, divisible by v."""

    source: StructureGerm
    target: StructureGerm
    z_maps: tuple[Jet, ...]
    w_map: Jet
    defect: Jet

    @property
    def order(self) -> int:
        return self.source.order


def make_equivalence(
    source: StructureGerm,
    target: StructureGerm,
    z_maps: Sequence[Jet],
    w_map: Jet,
) -> CentralEquivalence:
    """Validate map data against both cores and wrap it with its defect.

    Checks: dimensions and orders agree, components vanish at 0, the
    joint linear part is invertible, and the defining identity holds
    exactly on the source at the jet order: the defect
    D(z, zb, s, v + sigma_1), composed once, has no v-free term.
    """
    if source.nprime != 0 or target.nprime != 0:
        raise PreconditionError("equivalence endpoints must be core germs")
    nu = source.nu
    if target.nu != nu:
        raise PreconditionError("source and target have different z dimensions")
    order = source.order
    if target.order != order:
        raise PreconditionError("source and target orders differ")
    if len(z_maps) != nu:
        raise PreconditionError(f"expected {nu} z components")
    hol = equivalence_alphabet(nu)
    components = list(z_maps) + [w_map]
    for jet in components:
        if jet.alphabet != hol:
            raise PreconditionError("map components must live over (z, eta)")
        if jet.order != order:
            raise PreconditionError("map components must carry the germ order")
        if not jet.constant_term().is_zero():
            raise PreconditionError("map components must vanish at the origin")
    linear = [
        [jet.coefficient({name: 1}) for name in hol.names] for jet in components
    ]
    if rank(linear) != nu + 1:
        raise PreconditionError("map is not invertible at the origin")

    big = multiplier_alphabet(nu)
    v = Jet.variable(big, order, "v") + source.phi.rename({}, big)
    fz, gw = _pull_back_map(z_maps, w_map, Jet.variable(big, order, "s") + v * I, order)
    defect = gw.imag_part() - defining_pullback(target.phi, fz, gw, big, order)
    if not defect.at_zero(["v"], big).is_zero():
        raise PreconditionError("map does not satisfy the defining identity at this order")
    return CentralEquivalence(source, target, tuple(z_maps), w_map, defect)


def extract_multiplier(eq: CentralEquivalence) -> Jet:
    """The exact quotient of the defining defect by v - sigma_1: the
    validated defect D(v + sigma_1) divided by v, shifted back to v.

    Returned over multiplier_alphabet(nu) one order below the germs. For
    the identity map this is the constant 1; for a linear scaling
    (z, w) -> (cz, |c|^2 w) of the quadric it is the constant |c|^2.
    """
    big = eq.defect.alphabet
    back = {"v": Jet.variable(big, eq.order, "v") - eq.source.phi.rename({}, big)}
    quotient = eq.defect.divide_by_coordinate("v")
    (multiplier,) = compose_many([quotient], back, alphabet=big, order=eq.order - 1)
    certify(multiplier.is_real(), "extract_multiplier", "multiplier is real",
            "multiplier of real defining data must be real")
    return multiplier


def split_core(model: StructureGerm) -> tuple[StructureGerm, list[Fraction]]:
    """The core sigma = phi(z, zb, s, 0) and the coefficients c_l of a
    germ in split normal form sigma + sum_l c_l t_l^2: each c_l is read as
    phi's t_l^2 coefficient, and the split is certified by rebuilding the
    form with model_germ and comparing it with phi."""
    core = make_germ(model.nu, 0, at_t_zero(model.phi, model.nu))
    coeffs: list[Fraction] = []
    for name in model.t_names():
        c = model.phi.coefficient({name: 2})
        if not c.is_real() or c.is_zero():
            raise PreconditionError(f"quadratic coefficient of {name} must be a nonzero rational")
        coeffs.append(c.real)
    if model_germ(core, coeffs).phi != model.phi:
        raise PreconditionError("germ is not in split normal form over the given core")
    return core, coeffs


@dataclass(frozen=True)
class LiftedEquivalence:
    equivalence: CentralEquivalence
    source: StructureGerm
    target: StructureGerm
    z_maps: tuple[Jet, ...]
    w_map: Jet
    t_maps: tuple[Jet, ...]
    scale: Fraction
    multiplier: Jet


def lift_equivalence(eq: CentralEquivalence, coeffs: Sequence[Fraction]) -> LiftedEquivalence:
    """Extend a core equivalence to the split normal forms
    model_germ(eq.source, coeffs) and model_germ(eq.target, coeffs).

    Both models carry the same quadratic coefficients by construction.
    Requires positive definite core Levi forms and a multiplier whose
    value at 0 is a perfect rational square. The t directions are rescaled
    by the square root of the pulled-back multiplier; everything else is
    the pullback of the core map.
    """
    if not levi_form(eq.source).positive_definite:
        raise PreconditionError("source core Levi form must be positive definite")
    if not levi_form(eq.target).positive_definite:
        raise PreconditionError("target core Levi form must be positive definite")

    multiplier = extract_multiplier(eq)
    head = multiplier.constant_term()
    if not head.is_real() or head.real <= 0:
        raise PreconditionError(f"multiplier value {head} at 0 is not positive")
    scale = rational_sqrt(head.real)
    if scale is None:
        raise PreconditionError(
            f"multiplier value {head.real} at 0 is not a perfect rational "
            "square; the lift leaves exact arithmetic"
        )

    source_model = model_germ(eq.source, coeffs)
    target_model = model_germ(eq.target, coeffs)
    order = eq.order
    full = source_model.alphabet
    w1 = Jet.variable(full, order, "s") + source_model.phi * I
    z_maps, w_map = _pull_back_map(eq.z_maps, eq.w_map, w1, order)

    (multiplier_full,) = compose_many(
        [multiplier], {"v": source_model.phi.truncate(order - 1)}, alphabet=full, order=order - 1
    )
    root = jet_sqrt(multiplier_full * (Fraction(1) / head.real))
    t_maps = []
    for l in range(1, source_model.nprime + 1):
        t_map = Jet.variable(full, order - 1, f"t{l}") * root * scale
        certify(t_map.is_real(), "lift_equivalence", "t components are real",
                "lifted t component of real data must be real")
        t_maps.append(t_map)
    return LiftedEquivalence(
        eq, source_model, target_model, tuple(z_maps), w_map, tuple(t_maps), scale, multiplier
    )


@dataclass(frozen=True)
class LiftVerification:
    defining_identity: bool
    components_are_solutions: bool
    restricts_to_core_map: bool
    t_maps_vanish_on_center: bool

    @property
    def ok(self) -> bool:
        return all(astuple(self))


def verify_lift(lift: LiftedEquivalence) -> LiftVerification:
    """Recompute every certification of a lifted equivalence from scratch.

    Nothing is read from cached flags, so altered map data fails here.
    The target is model_germ's split normal form, so its split shape is
    not read back.
    """
    eq = lift.equivalence
    src = lift.source
    order = src.order
    full = src.alphabet
    nu = src.nu

    total = defining_pullback(lift.target.phi, lift.z_maps, lift.w_map, full, order, lift.t_maps)
    defining = lift.w_map.imag_part() == total

    solutions = is_solution(src, *lift.z_maps, lift.w_map)

    central = standard_alphabet(nu, 0)
    z_restricted = [at_t_zero(jet, nu) for jet in lift.z_maps]
    w_restricted = at_t_zero(lift.w_map, nu)
    z_core, w_core = _pull_back_map(
        eq.z_maps, eq.w_map, Jet.variable(central, order, "s") + eq.source.phi * I, order
    )
    restricts = z_restricted == z_core and w_restricted == w_core

    vanish = all(at_t_zero(jet, nu).is_zero() for jet in lift.t_maps)
    return LiftVerification(defining, solutions, restricts, vanish)
