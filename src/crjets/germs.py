"""Germs of hypersurface-type structures and their pointwise invariants.

A germ is determined by a real jet phi in variables
(z_1..z_nu, zb_1..zb_nu, s, t_1..t_nprime) with phi(0) = 0 and vanishing
differential at 0. The z variables are complex (zb their conjugates),
s and t are real. The associated objects computed here:

  * first integrals z_1..z_nu and w = s + i*phi;
  * the canonical frame of vector fields annihilating the first
    integrals, with exact unit inversion of 1 + i*phi_s;
  * the Levi matrix at the origin with exact inertia;
  * the characteristic covector and the real-basis decomposition of its
    imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .alphabet import Alphabet
from .errors import InvariantError, PreconditionError
from .jets import Jet, compose
from .linalg import hermitian_signature
from .rationals import ZERO, GaussianRational, I, MINUS_I

DEFAULT_ORDER = 6


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
    for name in expected.names:
        if not phi.coefficient({name: 1}).is_zero():
            raise PreconditionError(
                f"phi must have vanishing differential at 0; linear term in {name!r}"
            )
    return StructureGerm(nu, nprime, phi)


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
    return compose(phi, assignment, alphabet=target, order=order)


class VectorField:
    """First-order operator sum(coefficients[name] * d/d name).

    Coefficient jets share one alphabet and order. Applying the field to
    a jet of order k yields order min(k - 1, coefficient order).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[str, Jet]):
        items = dict(coefficients)
        if not items:
            raise PreconditionError("vector field with no components")
        alphas = {jet.alphabet for jet in items.values()}
        if len(alphas) > 1:
            raise PreconditionError("vector field coefficients over mixed alphabets")
        orders = {jet.order for jet in items.values()}
        if len(orders) > 1:
            raise PreconditionError("vector field coefficients of mixed orders")
        self.coefficients = items

    def apply(self, jet: Jet) -> Jet:
        coeff_order = next(iter(self.coefficients.values())).order
        out_order = min(jet.order - 1, coeff_order)
        result = None
        for name, coeff in self.coefficients.items():
            term = coeff.truncate(out_order) * jet.derive(name).truncate(out_order)
            result = term if result is None else result + term
        return result


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
    one = Jet.constant(alpha, order, 1)
    fields = []
    for name in germ.zb_names() + germ.t_names():
        partial = germ.phi.derive(name)
        fields.append(
            VectorField({name: one, "s": partial * MINUS_I * unit})
        )
    return fields


def is_solution(germ: StructureGerm, jet: Jet) -> bool:
    """True when every frame field annihilates the jet (at the shared order)."""
    return all(field.apply(jet).is_zero() for field in frame(germ))


@dataclass(frozen=True)
class LeviForm:
    matrix: tuple[tuple[GaussianRational, ...], ...]
    positive: int
    negative: int
    null: int

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def nondegenerate(self) -> bool:
        return self.null == 0

    @property
    def definite(self) -> bool:
        return self.null == 0 and (self.positive == 0 or self.negative == 0)

    @property
    def positive_definite(self) -> bool:
        return self.null == 0 and self.negative == 0

    def rows(self) -> list[list[GaussianRational]]:
        return [list(r) for r in self.matrix]


def levi_form(germ: StructureGerm) -> LeviForm:
    """Levi matrix of the quadratic part of phi at the origin, with its
    exact inertia; the matrix is _levi_matrix's."""
    m = _levi_matrix(germ)
    pos, neg, null = hermitian_signature(m)
    return LeviForm(tuple(tuple(row) for row in m), pos, neg, null)


def t_hessian(germ: StructureGerm) -> list[list[Fraction]]:
    """Constant Hessian of phi in the t variables alone, as rational numbers:
    the t-block of the Levi matrix, which the Hermitian check keeps real
    since its entries (l, r) and (r, l) are one coefficient."""
    if not germ.nprime:
        return []  # no t-block, and no reason to read the z-block of a wide germ
    nu = germ.nu
    return [[x.real for x in row[nu:]] for row in _levi_matrix(germ)[nu:]]


def _levi_matrix(germ: StructureGerm) -> list[list[GaussianRational]]:
    """The Levi matrix read from the degree-2 terms of phi, each code
    decoded once.

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
    for i in range(size):
        for j in range(size):
            if m[i][j] != m[j][i].conjugate():
                raise InvariantError(
                    "Levi matrix of a real jet failed to be Hermitian; "
                    "coefficient extraction is corrupted"
                )
    return m


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
    """-2i * sum phi_z_j dz_j + (1 - i*phi_s) dw, with dw = ds + i*dphi."""
    order = germ.order - 1
    alpha = germ.alphabet
    phi = germ.phi
    phi_s = phi.derive("s")
    c = Jet.constant(alpha, order, 1) + phi_s * MINUS_I

    holo: dict[str, Jet] = {}
    for j, zname in enumerate(germ.z_names(), start=1):
        holo[f"dz{j}"] = phi.derive(zname) * GaussianRational(0, -2)
    holo["dw"] = c

    # Real-basis coefficients of the full covector; the imaginary parts
    # are what characterizes it as i times a real covector plus the
    # t-differential contribution.
    imag: dict[str, Jet] = {}
    for j in range(1, germ.nu + 1):
        a = holo[f"dz{j}"]
        phi_z = phi.derive(f"z{j}")
        phi_zb = phi.derive(f"zb{j}")
        dx_coeff = a + c * (phi_z + phi_zb) * I
        dy_coeff = a * I - c * (phi_z - phi_zb)
        imag[f"dx{j}"] = dx_coeff.imag_part()
        imag[f"dy{j}"] = dy_coeff.imag_part()
    ds_coeff = c * (Jet.constant(alpha, order, 1) + phi_s * I)
    imag["ds"] = ds_coeff.imag_part()
    for l in range(1, germ.nprime + 1):
        dt_coeff = c * phi.derive(f"t{l}") * I
        imag[f"dt{l}"] = dt_coeff.imag_part()
    return CharacteristicCovector(holo, imag)
