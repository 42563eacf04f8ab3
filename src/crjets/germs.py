"""Germs of hypersurface-type structures and their pointwise invariants.

A germ is determined by a real jet phi in variables
(z_1..z_nu, zb_1..zb_nu, s, t_1..t_nprime) with phi(0) = 0 and vanishing
differential at 0. The z variables are complex (zb their conjugates),
s and t are real. The associated objects computed here:

  * the split normal form sigma + sum_l c_l t_l^2 over a core germ
    sigma (model_germ), the germs that normalize certifies and that
    lift lifts between;
  * first integrals z_1..z_nu and w = s + i*phi;
  * the canonical frame of vector fields annihilating the first
    integrals, with exact unit inversion of 1 + i*phi_s;
  * the Levi matrix at the origin (levi_matrix, the one read of phi's
    quadratic part) and, where a signature is reported, its exact
    inertia (levi_form);
  * the characteristic covector and the real-basis decomposition of its
    imaginary part.

make_germ validates a phi: its alphabet, reality, vanishing at the
origin and vanishing differential. In the package it runs only where a
phi comes from outside, in io.germ_from_json, and it stays public for
library callers. Every germ built from a validated one is wrapped in
StructureGerm directly, since its construction keeps all four
properties: renaming, slicing at t = 0 and adding real t_l^2 terms
(model_germ, equivalence.split_core, straighten's core), and real
substitutions of zero constant term, which compose_many enforces
(central.central_manifold and central.straighten at a critical graph
certified real, marson.external_lift at the real chart
(z - zb) * (-i/2)). standard_alphabet returns one shared alphabet per
count (see the alphabet module), so for a jet built over it make_germ's
alphabet comparison is an identity test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .alphabet import INTERN_SIZE, Alphabet
from .errors import PreconditionError, certify
from .jets import Jet, compose_many
from .linalg import hermitian_signature
from .rationals import ZERO, GaussianRational, I, MINUS_I

@lru_cache(maxsize=INTERN_SIZE)
def standard_alphabet(nu: int, nprime: int) -> Alphabet:
    """Variables (z_1..z_nu, zb_1..zb_nu, s, t_1..t_nprime), z conjugate to zb.

    nu = 0 is allowed: purely real structures (s, t) still carry frames,
    Levi data and external lifts.
    """
    if nu < 0:
        raise PreconditionError("negative count of complex variables")
    if nprime < 0:
        raise PreconditionError("negative count of real parameters")
    names = (
        [f"z{j}" for j in range(1, nu + 1)]
        + [f"zb{j}" for j in range(1, nu + 1)]
        + ["s"]
        + [f"t{l}" for l in range(1, nprime + 1)]
    )
    conj = {f"z{j}": f"zb{j}" for j in range(1, nu + 1)}
    return Alphabet(names, conj)


@dataclass(frozen=True)
class StructureGerm:
    nu: int
    nprime: int
    phi: Jet

    @property
    def alphabet(self) -> Alphabet:
        return self.phi.alphabet

    @property
    def order(self) -> int:
        return self.phi.order

    def z_names(self) -> list[str]:
        return [f"z{j}" for j in range(1, self.nu + 1)]

    def zb_names(self) -> list[str]:
        return [f"zb{j}" for j in range(1, self.nu + 1)]

    def t_names(self) -> list[str]:
        return [f"t{l}" for l in range(1, self.nprime + 1)]


def make_germ(nu: int, nprime: int, phi: Jet) -> StructureGerm:
    """Validate and wrap a defining jet.

    Requirements: phi lives over standard_alphabet(nu, nprime), is real,
    vanishes at the origin and has no linear part.
    """
    expected = standard_alphabet(nu, nprime)
    if phi.alphabet != expected:
        raise PreconditionError(
            f"phi must live over {expected.names}, got {phi.alphabet.names}"
        )
    if not phi.is_real():
        raise PreconditionError("phi must be a real jet")
    if not phi.constant_term().is_zero():
        raise PreconditionError("phi must vanish at the origin")
    # A degree-1 code is one variable's unit field; variable 0 owns the
    # highest field, so the largest such code names the first variable.
    linear = [c for c in phi.terms if expected.degree(c) == 1]
    if linear:
        name = expected.names[expected.decode(max(linear)).index(1)]
        raise PreconditionError(
            f"phi must have vanishing differential at 0; linear term in {name!r}"
        )
    return StructureGerm(nu, nprime, phi)


def at_t_zero(jet: Jet, nu: int) -> Jet:
    """A jet over standard_alphabet(nu, nprime) at t = 0, over
    standard_alphabet(nu, 0), by Jet.at_zero: the terms free of t, with no
    coefficient arithmetic. Setting variables to zero drops terms only, so
    the order is kept and the slice is reliable."""
    central = standard_alphabet(nu, 0)
    return jet.at_zero([n for n in jet.alphabet.names if n not in central.index], central)


def model_germ(core: StructureGerm, coeffs: Sequence[Fraction]) -> StructureGerm:
    """The split normal form sigma + sum_l c_l t_l^2 over a core sigma, the
    one builder of that form. Each square is the single term t_l^2 with
    coefficient c_l, so no product is formed, and a core of order 1, which
    cannot carry it, is refused.

    The germ is built without make_germ: renaming the validated core into
    the larger standard alphabet keeps it real, zero at the origin and
    free of linear terms, and real t_l^2 terms break none of the three."""
    full = standard_alphabet(core.nu, len(coeffs))
    squares = {}
    for l, c in enumerate(coeffs, start=1):
        if c == 0:
            raise PreconditionError("normal-form quadratic coefficients must be nonzero")
        squares[full.encode_dict({f"t{l}": 2})] = GaussianRational(c)
    phi = core.phi.rename({}, full) + Jet(full, core.order, squares)
    return StructureGerm(core.nu, len(coeffs), phi)


def first_integrals(germ: StructureGerm) -> dict[str, Jet]:
    """The functions z_1..z_nu and w = s + i*phi, keyed by z names and 'w'."""
    order = germ.order
    alpha = germ.alphabet
    out = {name: Jet.variable(alpha, order, name) for name in germ.z_names()}
    out["w"] = Jet.variable(alpha, order, "s") + germ.phi * I
    return out


def defining_pullback(
    phi: Jet,
    z_maps: Sequence[Jet],
    w_map: Jet,
    target: Alphabet,
    order: int,
    t_maps: Sequence[Jet] = (),
) -> Jet:
    """phi(f, conj f, Re g, t-components) for a map with components
    z -> f, w -> g and t -> ``t_maps``.

    The map sends a structure into the one defined by phi exactly when
    this equals Im g; callers compare or subtract.
    """
    assignment: dict[str, Jet] = {}
    for j, f in enumerate(z_maps, start=1):
        assignment[f"z{j}"] = f
        assignment[f"zb{j}"] = f.conjugate()
    assignment["s"] = w_map.real_part()
    for l, t in enumerate(t_maps, start=1):
        assignment[f"t{l}"] = t
    return compose_many([phi], assignment, alphabet=target, order=order)[0]


@dataclass(frozen=True)
class VectorField:
    """The first-order operator d/d var + s_coefficient * d/ds.

    Applying the field to a jet of order k yields order
    min(k - 1, s_coefficient order).
    """

    var: str
    s_coefficient: Jet

    def apply(self, jet: Jet) -> Jet:
        order = min(jet.order - 1, self.s_coefficient.order)
        along_s = self.s_coefficient.truncate(order) * jet.derive("s").truncate(order)
        return jet.derive(self.var).truncate(order) + along_s


def frame(germ: StructureGerm) -> list[VectorField]:
    """The nu + nprime canonical fields annihilating the first integrals.

    Field j (j < nu) is d/d zb_j - i*phi_zb_j * (1 + i*phi_s)^{-1} * d/ds;
    field nu + l is d/d t_l - i*phi_t_l * (1 + i*phi_s)^{-1} * d/ds.
    Coefficients carry order one below the germ order.
    """
    order = germ.order - 1
    alpha = germ.alphabet
    phi_s = germ.phi.derive("s")
    unit = (Jet.constant(alpha, order, 1) + phi_s * I).unit_inverse()
    return [
        VectorField(name, germ.phi.derive(name) * MINUS_I * unit)
        for name in germ.zb_names() + germ.t_names()
    ]


def is_solution(germ: StructureGerm, *jets: Jet) -> bool:
    """True when every frame field annihilates every jet (at the shared
    order); the frame is built once for all of them."""
    fields = frame(germ)
    return all(field.apply(jet).is_zero() for jet in jets for field in fields)


LeviMatrix = tuple[tuple[GaussianRational, ...], ...]


@dataclass(frozen=True)
class LeviForm:
    matrix: LeviMatrix
    positive: int
    negative: int
    null: int

    @property
    def nondegenerate(self) -> bool:
        return self.null == 0

    @property
    def positive_definite(self) -> bool:
        return self.null == 0 and self.negative == 0


def levi_form(germ: StructureGerm) -> LeviForm:
    """The Levi matrix with its exact inertia, for the reports that give a
    signature; comparisons of Levi matrices read levi_matrix alone."""
    m = levi_matrix(germ)
    return LeviForm(m, *hermitian_signature(m))


def t_hessian(germ: StructureGerm) -> list[list[Fraction]]:
    """Constant Hessian of phi in the t variables alone, as rational numbers:
    the t-block of the Levi matrix, which the Hermitian check keeps real
    since its entries (l, r) and (r, l) are one coefficient."""
    if not germ.nprime:
        return []  # no t-block, and no reason to read the z-block of a wide germ
    return _t_block(levi_matrix(germ), germ.nu)


def _t_block(matrix: LeviMatrix, nu: int) -> list[list[Fraction]]:
    """The t-block of a Levi matrix read already, as rational numbers."""
    return [[x.real for x in row[nu:]] for row in matrix[nu:]]


def levi_matrix(germ: StructureGerm) -> LeviMatrix:
    """The Levi matrix read from the degree-2 terms of phi, each code
    decoded once; the one read of phi's quadratic part.

    Block layout, indices j,k over z variables and l,r over t variables:
    entry (j,k) is the z_j zb_k coefficient, entry (j, nu+r) the z_j t_r
    coefficient, entry (nu+l, k) the t_l zb_k coefficient, and the t-block
    is the t-Hessian: twice the t_l^2 coefficient on the diagonal, the
    t_l t_r coefficient off it. Reality of phi makes this Hermitian, and
    a matrix that is not raises InvariantError.
    """
    nu, npr = germ.nu, germ.nprime
    size = nu + npr
    m = [[ZERO] * size for _ in range(size)]
    if size:
        phi = germ.phi
        if phi.order < 2:
            raise PreconditionError(f"coefficient of degree 2 is beyond order {phi.order}")
        alpha = phi.alphabet
        # alphabet index -> Levi row (z_j, t_l) and Levi column (zb_k, t_r)
        t0 = 2 * nu + 1
        row_of = {j: j for j in range(nu)} | {t0 + l: nu + l for l in range(npr)}
        col_of = {nu + k: k for k in range(nu)} | {t0 + r: nu + r for r in range(npr)}
        for code, coeff in phi.terms.items():
            if alpha.degree(code) != 2:
                continue
            a, b = (i for i, e in enumerate(alpha.decode(code)) for _ in range(e))
            value = coeff * 2 if a == b else coeff
            for p, q in {(a, b), (b, a)}:
                if p in row_of and q in col_of:
                    m[row_of[p]][col_of[q]] = value
    certify(all(m[i][j] == m[j][i].conjugate() for i in range(size) for j in range(size)),
            "levi_matrix", "Levi matrix is Hermitian",
            "Levi matrix of a real jet failed to be Hermitian; coefficient extraction is corrupted")
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class CharacteristicCovector:
    """Covector annihilating the frame at every point, to the stored order.

    ``holomorphic`` gives coefficients in the basis (dz_1..dz_nu, dw);
    ``imaginary_real_basis`` the coefficients of the imaginary part in the
    real basis (dx_j, dy_j, ds, dt_l), where z_j = x_j + i*y_j.
    """

    holomorphic: dict[str, Jet]
    imaginary_real_basis: dict[str, Jet]


def characteristic_covector(germ: StructureGerm) -> CharacteristicCovector:
    """-2i * sum phi_z_j dz_j + (1 - i*phi_s) dw, with dw = ds + i*dphi.

    The imaginary part in the real basis is stated in closed form, every
    entry at order N - 1: the zero jet on dx_j, dy_j and ds, and phi_t_l
    on dt_l. Write a = -2i phi_z_j, c = 1 - i phi_s, P = phi_z_j +
    phi_zb_j and Q = phi_z_j - phi_zb_j. As phi is real, phi_zb_j is the
    conjugate of phi_z_j, so P is real, Q imaginary and a = -i(P + Q).
    Expanding dz_j = dx_j + i dy_j and dw = ds + i dphi gives
      dx_j: Im(a + icP) = -P + P = 0, since -iQ is real;
      dy_j: Im(ia - cQ) = Im(P + i phi_s Q) = 0;
      ds:   c(1 + i phi_s) = 1 + phi_s^2, which is real;
      dt_l: Im(ic phi_t_l) = Im(i phi_t_l + phi_s phi_t_l) = phi_t_l.
    """
    order = germ.order - 1
    alpha = germ.alphabet
    phi = germ.phi
    holo: dict[str, Jet] = {}
    for j, zname in enumerate(germ.z_names(), start=1):
        holo[f"dz{j}"] = phi.derive(zname) * GaussianRational(0, -2)
    holo["dw"] = Jet.constant(alpha, order, 1) + phi.derive("s") * MINUS_I

    zero = Jet.zero(alpha, order)
    imag = {f"d{x}{j}": zero for j in range(1, germ.nu + 1) for x in "xy"}
    imag["ds"] = zero
    for name in germ.t_names():
        imag[f"d{name}"] = phi.derive(name)
    return CharacteristicCovector(holo, imag)
