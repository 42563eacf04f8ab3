"""Complexified defining graph and the second-order section functions.

A core germ (no t variables) sigma(z, zb, s) defines the hypersurface
Im w = sigma(z, zb, Re w). Solving

    w - wb - 2i * sigma(z, zb, (w + wb)/2) = 0

for w gives the graph jet rho(z, zb, wb); the sections obtained by
freezing (zb, wb) at exact points form a family of holomorphic graphs.
Differentiating a section twice and eliminating the frozen parameters
through the first-order data produces, for Levi-nondegenerate cores, a
matrix of jets in (z, w, wp) that governs the second derivatives of
every section at once. Two independent constructions are implemented:

  * the bordered-determinant route works directly on the defining
    function and normalizes by a cube of its w-derivative;
  * the elimination route solves the incidence system for (zb, wb) as
    functions of (z, w, wp) and substitutes into the plain second
    derivative of the graph.

Besides the complexified defining function they start from, they share
only the parameter elimination and must agree entrywise;
certified_section_hessian runs both and compares them, so neither route
can quietly stand in for the other.

The rigidity test checks whether any of that matrix depends on w. A
monomial with positive w-exponent is a conclusive obstruction at the jet
level; absence of such monomials is evidence only up to the truncation
order, and reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .alphabet import Alphabet
from .central import central_manifold
from .errors import (
    DegenerateFormError,
    InvariantError,
    PreconditionError,
    SingularJacobianError,
)
from .germs import StructureGerm
from .jets import Jet, substitute
from .rationals import HALF, GaussianRational, as_gaussian
from .solve import implicit_solve


def segre_alphabet(nu: int) -> Alphabet:
    """(z_1..z_nu, zb_1..zb_nu, w, wb) with z/zb and w/wb conjugate pairs."""
    names = (
        [f"z{j}" for j in range(1, nu + 1)]
        + [f"zb{j}" for j in range(1, nu + 1)]
        + ["w", "wb"]
    )
    conj = {f"z{j}": f"zb{j}" for j in range(1, nu + 1)}
    conj["w"] = "wb"
    return Alphabet(names, conj)


def elimination_alphabet(nu: int) -> Alphabet:
    """(z, w, wp, ab, bb): holomorphic variables plus stand-ins for the
    frozen conjugate parameters. Carries no conjugation on purpose."""
    names = (
        [f"z{j}" for j in range(1, nu + 1)]
        + ["w"]
        + [f"wp{j}" for j in range(1, nu + 1)]
        + [f"ab{j}" for j in range(1, nu + 1)]
        + ["bb"]
    )
    return Alphabet(names, None)


def section_parameter_alphabet(nu: int) -> Alphabet:
    """(z_1..z_nu, w, wp_1..wp_nu): where the section functions live."""
    names = [f"z{j}" for j in range(1, nu + 1)] + ["w"] + [
        f"wp{j}" for j in range(1, nu + 1)
    ]
    return Alphabet(names, None)


def _stand_ins(nu: int) -> dict[str, str]:
    """Renaming of the frozen conjugate parameters (zb, wb) to their
    stand-ins (ab, bb) in the elimination alphabet."""
    renaming = {f"zb{j}": f"ab{j}" for j in range(1, nu + 1)}
    renaming["wb"] = "bb"
    return renaming


def _defining_function(core: StructureGerm, order: int) -> Jet:
    """w - wb - 2i * sigma(z, zb, (w + wb)/2) over segre_alphabet(nu)."""
    big = segre_alphabet(core.nu)
    w = Jet.variable(big, order, "w")
    wb = Jet.variable(big, order, "wb")
    sigma_big = substitute(core.phi, {"s": (w + wb) * HALF}, big, order)
    return w - wb - sigma_big * GaussianRational(0, 2)


@dataclass(frozen=True)
class ComplexifiedHypersurface:
    core: StructureGerm
    rho: Jet

    @property
    def nu(self) -> int:
        return self.core.nu

    @property
    def order(self) -> int:
        return self.rho.order


def complexify(core: StructureGerm) -> ComplexifiedHypersurface:
    """Solve the incidence relation for w and certify the reality identity."""
    if core.nprime != 0:
        raise PreconditionError(
            "complexification expects a core germ without t variables; "
            "extract the central manifold first"
        )
    if core.nu < 1:
        raise PreconditionError("complexification needs at least one complex variable")
    order = core.order
    equation = _defining_function(core, order)
    big = equation.alphabet
    graph = implicit_solve([equation], ["w"])[0]
    rho = graph.rename({}, big)

    if rho.coefficient({"wb": 1}) != as_gaussian(1):
        raise InvariantError("graph jet must start as wb plus higher terms")
    round_trip = substitute(rho, {"wb": rho.conjugate()}, big, order)
    if round_trip != Jet.variable(big, order, "w"):
        raise InvariantError(
            "reality identity failed: reflecting the graph through itself "
            "did not return w"
        )
    return ComplexifiedHypersurface(core, rho)


def segre_section(
    ch: ComplexifiedHypersurface,
    zb_values: tuple,
    wb_value,
) -> Jet:
    """The section z -> rho(z, zb0, wb0) at exact frozen parameters.

    For nonzero parameters this is exact arithmetic on the stored
    polynomial; it is not a statement about degrees beyond the jet order.
    """
    nu = ch.nu
    if len(zb_values) != nu:
        raise PreconditionError(f"expected {nu} conjugate coordinates")
    zonly = Alphabet(tuple(f"z{j}" for j in range(1, nu + 1)), None)
    frozen: dict[str, GaussianRational] = {
        f"zb{j}": as_gaussian(v) for j, v in enumerate(zb_values, start=1)
    }
    frozen["wb"] = as_gaussian(wb_value)
    return substitute(ch.rho, frozen, zonly, ch.order, allow_constant=frozen)


def segre_graph(ch: ComplexifiedHypersurface, z_point: tuple, w_point) -> Jet:
    """Section attached to a base point, with an exact incidence check.

    The base point (a, c) must satisfy the stored polynomial incidence
    c - conj(c) = 2i * sigma(a, conj(a), (c + conj(c))/2) exactly; the
    frozen parameters are then the conjugated coordinates.
    """
    nu = ch.nu
    if len(z_point) != nu:
        raise PreconditionError(f"expected {nu} complex coordinates")
    a = [as_gaussian(v) for v in z_point]
    c = as_gaussian(w_point)
    point: dict[str, GaussianRational] = {"s": (c + c.conjugate()) * HALF}
    for j, v in enumerate(a, start=1):
        point[f"z{j}"] = v
        point[f"zb{j}"] = v.conjugate()
    residual = c - c.conjugate() - ch.core.phi.evaluate(point) * GaussianRational(0, 2)
    if not residual.is_zero():
        raise PreconditionError(
            f"base point is not on the hypersurface: incidence residual {residual}"
        )
    return segre_section(ch, tuple(v.conjugate() for v in a), c.conjugate())


@dataclass(frozen=True)
class ConjugateElimination:
    """(zb, wb) expressed through (z, w, wp) along the incidence system."""

    zb: tuple[Jet, ...]
    wb: Jet


def conjugate_elimination(ch: ComplexifiedHypersurface) -> ConjugateElimination:
    """Invert the first-order section data for the frozen parameters.

    Solvability at the origin is exactly nondegeneracy of the z-block of
    the core's Levi form.
    """
    nu = ch.nu
    order = ch.order
    big5 = elimination_alphabet(nu)
    renaming = _stand_ins(nu)

    rho5 = ch.rho.rename(renaming, big5)
    equations = [rho5 - Jet.variable(big5, order, "w")]
    for j in range(1, nu + 1):
        d = ch.rho.derive(f"z{j}").rename(renaming, big5)
        equations.append(d - Jet.variable(big5, order - 1, f"wp{j}"))
    unknowns = [f"ab{j}" for j in range(1, nu + 1)] + ["bb"]
    try:
        solved = implicit_solve(
            equations, unknowns, target=section_parameter_alphabet(nu)
        )
    except SingularJacobianError:
        raise DegenerateFormError(
            "z-block of the Levi form is degenerate; the frozen parameters "
            "cannot be eliminated"
        ) from None
    return ConjugateElimination(tuple(solved[:nu]), solved[nu])


@dataclass(frozen=True)
class SectionHessian:
    """Symmetric matrix of jets in (z, w, wp) governing section second
    derivatives, tagged with the route that produced it."""

    entries: tuple[tuple[Jet, ...], ...]
    route: str
    order: int

    @property
    def nu(self) -> int:
        return len(self.entries)

    def same_entries(self, other: SectionHessian) -> bool:
        return self.entries == other.entries

    def w_offenders(self) -> list[tuple[int, int, tuple[int, ...], GaussianRational]]:
        """Monomials with positive w-exponent, as (row, col, exponents, coeff)."""
        out = []
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                if j < i:
                    continue
                alpha = entry.alphabet
                for vec, coeff in entry.monomials():
                    if vec[alpha.index["w"]] > 0:
                        out.append((i, j, vec, coeff))
        return out


def _substitute_elimination(
    jet4_or_5: Jet, elim: ConjugateElimination, nu: int, order: int
) -> Jet:
    """Replace the frozen-parameter stand-ins by their eliminated values."""
    eliminated = {f"ab{j}": zb.truncate(order) for j, zb in enumerate(elim.zb, start=1)}
    eliminated["bb"] = elim.wb.truncate(order)
    return substitute(jet4_or_5, eliminated, section_parameter_alphabet(nu), order)


def phi_elimination(
    ch: ComplexifiedHypersurface, elim: ConjugateElimination | None = None
) -> SectionHessian:
    """Section Hessian by direct substitution into the graph's second
    z-derivatives."""
    nu = ch.nu
    order = ch.order - 2
    if elim is None:
        elim = conjugate_elimination(ch)
    big5 = elimination_alphabet(nu)
    renaming = _stand_ins(nu)
    rows: list[list[Jet | None]] = [[None] * nu for _ in range(nu)]
    for i in range(1, nu + 1):
        for j in range(i, nu + 1):
            second = ch.rho.derive(f"z{i}").derive(f"z{j}").rename(renaming, big5)
            value = _substitute_elimination(second, elim, nu, order)
            rows[i - 1][j - 1] = value
            rows[j - 1][i - 1] = value
    return SectionHessian(
        tuple(tuple(row) for row in rows), "elimination", order  # type: ignore[arg-type]
    )


def phi_determinant(
    ch: ComplexifiedHypersurface, elim: ConjugateElimination | None = None
) -> SectionHessian:
    """Section Hessian by bordered determinants of a defining function.

    Uses the unsolved defining function (w - wb - 2i sigma_c) * (-i/2),
    never the graph jet, so past that defining function the only shared
    ingredient with the elimination route is the frozen-parameter
    elimination itself.
    """
    nu = ch.nu
    order = ch.order
    out_order = order - 2
    if elim is None:
        elim = conjugate_elimination(ch)

    defining = _defining_function(ch.core, order) * GaussianRational(0, Fraction(-1, 2))

    d_w = defining.derive("w").truncate(out_order)
    d_ww = defining.derive("w").derive("w")
    inv_w_cubed = d_w.unit_inverse() ** 3
    d_z = {j: defining.derive(f"z{j}") for j in range(1, nu + 1)}
    base = defining.truncate(out_order)

    big5 = elimination_alphabet(nu)
    renaming = _stand_ins(nu)

    rows: list[list[Jet | None]] = [[None] * nu for _ in range(nu)]
    for i in range(1, nu + 1):
        d_zi = d_z[i].truncate(out_order)
        d_zi_w = d_z[i].derive("w")
        for j in range(i, nu + 1):
            d_zj = d_z[j].truncate(out_order)
            d_zj_w = d_z[j].derive("w")
            d_zi_zj = d_z[i].derive(f"z{j}")
            bordered = (
                base * (d_zi_zj * d_ww - d_zi_w * d_zj_w)
                - d_zj * (d_zi * d_ww - d_zi_w * d_w)
                + d_w * (d_zi * d_zj_w - d_zi_zj * d_w)
            )
            hat = bordered * inv_w_cubed
            value = _substitute_elimination(
                hat.rename(renaming, big5), elim, nu, out_order
            )
            rows[i - 1][j - 1] = value
            rows[j - 1][i - 1] = value
    return SectionHessian(
        tuple(tuple(row) for row in rows), "determinant", out_order  # type: ignore[arg-type]
    )


@dataclass(frozen=True)
class RigidityReport:
    consistent: bool
    offenders: tuple[tuple[int, int, tuple[int, ...], GaussianRational], ...]
    order: int
    routes_agree: bool
    note: str


def certified_section_hessian(germ: StructureGerm) -> SectionHessian:
    """Section Hessian of the germ's central germ, by both routes on one
    elimination. A mismatch is an arithmetic invariant violation, not a
    property of the germ, and raises."""
    core = central_manifold(germ).central_germ() if germ.nprime else germ
    ch = complexify(core)
    elim = conjugate_elimination(ch)
    by_determinant = phi_determinant(ch, elim)
    by_elimination = phi_elimination(ch, elim)
    if not by_determinant.same_entries(by_elimination):
        raise InvariantError(
            "determinant and elimination routes disagree; coefficient "
            "arithmetic is corrupted"
        )
    return by_determinant


def rigid_phi_test(germ: StructureGerm) -> RigidityReport:
    """Test a rigid germ for w-dependence of the section Hessian.

    Requires phi independent of s. Offending monomials (positive
    w-exponent) of the certified section Hessian disprove rigid-analytic
    consistency at the jet level; their absence is evidence only up to
    the truncation order.
    """
    if not germ.phi.derive("s").is_zero():
        raise PreconditionError("germ is not rigid: phi depends on s")
    hessian = certified_section_hessian(germ)
    offenders = tuple(hessian.w_offenders())
    if offenders:
        note = "w-dependence found: conclusive obstruction at this jet order"
    else:
        note = (
            f"no w-dependence through order {hessian.order}: consistent "
            "with a rigid-analytic model, not a proof beyond this order"
        )
    return RigidityReport(not offenders, offenders, hessian.order, True, note)


class OdeUnsolvableError(PreconditionError):
    """The section profile equation has no series solution; carries the
    first total degree at which matching fails."""

    def __init__(self, message: str, degree: int):
        super().__init__(message)
        self.degree = degree


def ode_sides(height: Jet) -> tuple[Jet, Jet]:
    """x^2 h''(x) and x h'(x) for a one-variable height jet h, at its order."""
    order = height.order
    x = height.alphabet.names[0]
    xj = Jet.variable(height.alphabet, order, x)
    # Valuation-2 and valuation-1 factors make these promotions exact.
    lhs = xj * xj * height.derive(x).derive(x).with_order(order)
    inner = xj * height.derive(x).with_order(order)
    return lhs, inner


def ode_right_side(height: Jet) -> Jet:
    """Series g with x^2 h''(x) = g(x h'(x)) for a height jet h.

    h must satisfy h(0) = h'(0) = 0 and h''(0) != 0. The coefficients of
    g are forced degree by degree against even powers; the full residual
    is then checked at the order of h, and the first degree where it
    fails (odd obstructions included) is reported. The result lives in a
    single variable named 'u' at half the order of h.
    """
    alpha = height.alphabet
    if alpha.nvars != 1:
        raise PreconditionError("height must be a one-variable jet")
    x = alpha.names[0]
    if not height.constant_term().is_zero() or not height.coefficient({x: 1}).is_zero():
        raise PreconditionError("height must vanish to second order at 0")
    curvature = height.coefficient({x: 2}) * 2
    if curvature.is_zero():
        raise PreconditionError("height must have a nonzero second derivative at 0")

    order = height.order
    lhs, inner = ode_sides(height)

    half = order // 2
    u_alpha = Alphabet(("u",), None)
    coeffs: list[GaussianRational] = []
    powers = [Jet.constant(alpha, order, 1)]
    for _ in range(half):
        powers.append(powers[-1] * inner)
    running = Jet.zero(alpha, order)
    for k in range(1, half + 1):
        residual_coeff = lhs.coefficient({x: 2 * k}) - running.coefficient({x: 2 * k})
        lead = powers[k].coefficient({x: 2 * k})
        ck = residual_coeff / lead
        coeffs.append(ck)
        if not ck.is_zero():
            running = running + powers[k] * ck
    residual = lhs - running
    if not residual.is_zero():
        bad = residual.valuation()
        raise OdeUnsolvableError(
            f"profile equation obstructed: residual starts at degree {bad}",
            bad if bad is not None else -1,
        )
    g = Jet.zero(u_alpha, half)
    for k, ck in enumerate(coeffs, start=1):
        if not ck.is_zero():
            g = g + Jet.from_terms(u_alpha, half, {(k,): ck})
    return g
