"""Complexified defining graph and the second-order section functions.

A core germ (no t variables) sigma(z, zb, s) defines the hypersurface
Im w = sigma(z, zb, Re w). With s = (w + wb)/2 its complexified defining
function is

    F = w - wb - 2i * sigma(z, zb, s) = 2 (s - wb - i sigma(z, zb, s)),

so complexify solves s - i sigma(z, zb, s) = wb for s = S(z, zb, wb)
and takes the graph jet rho(z, zb, wb) = 2S - wb, the unique solution of
F = 0 for w. Since sigma is real, rho satisfies the reality identity
rho(z, zb, rhob(zb, z, w)) = w, where rhob is the conjugate jet;
complexify's docstring derives it from the solver's certificate. The
sections obtained by freezing (zb, wb) form a family of holomorphic
graphs. Differentiating a section twice and eliminating the
frozen parameters through the first-order data produces, for
Levi-nondegenerate cores, a matrix of jets in (z, w, wp) that governs the
second derivatives of every section at once.

The elimination solves the nu equations d rho/d z_j = wp_j for zb
alone. By the reality identity, wb = rhob(zb, z, w) satisfies the other
incidence equation rho(z, zb, wb) = w identically, so wb follows from
the solved zb by one substitution. That premise is checked where it is
used: the determinant route's "F vanishes at the elimination" fails when
the computed rhob is not the conjugate graph. For a germ of order N the
elimination is computed at order N - 2 (at least 1), the order of the
matrix: both constructions compose at that order, and composition
truncates every substitute to the result order, so a higher layer would
be computed and thrown away. Two independent constructions of the matrix
start from that elimination:

  * the determinant route substitutes the elimination into sigma and
    its derivatives and scales them into F and its derivatives. On the
    elimination the section has w_z = wp, so F_zi = -wp_i F_w, and the
    bordered determinant over F_w^3 of the classical formula reduces to
    implicit differentiation of F, divided by F_w once. The substituted F
    must vanish exactly, which certifies that the elimination lies on
    the incidence relation;
  * the elimination route substitutes it into the plain second
    derivative of the graph.

They share only the core sigma and the parameter elimination: the
determinant route never reads the graph jet. They must agree entrywise;
certified_section_hessian runs both and compares them, so neither route
can quietly stand in for the other.

The rigidity test checks whether any of that matrix depends on w. A
monomial with positive w-exponent is a conclusive obstruction at the jet
level; absence of such monomials is evidence only up to the truncation
order, and reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import Alphabet
from .central import central_manifold
from .errors import (
    DegenerateFormError,
    PreconditionError,
    SingularJacobianError,
    certify,
)
from .germs import StructureGerm
from .jets import Jet, compose_many
from .rationals import HALF, MINUS_HALF_I, MINUS_I, GaussianRational, I, as_gaussian
from .solve import implicit_solve

TWO_I = GaussianRational(0, 2)
MINUS_TWO_I = GaussianRational(0, -2)


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
    """(z, w, wp, ab): holomorphic variables plus stand-ins ab for the
    frozen conjugate parameters zb. Carries no conjugation on purpose."""
    names = (
        [f"z{j}" for j in range(1, nu + 1)]
        + ["w"]
        + [f"wp{j}" for j in range(1, nu + 1)]
        + [f"ab{j}" for j in range(1, nu + 1)]
    )
    return Alphabet(names, None)


def section_parameter_alphabet(nu: int) -> Alphabet:
    """(z_1..z_nu, w, wp_1..wp_nu): where the section functions live."""
    names = [f"z{j}" for j in range(1, nu + 1)] + ["w"] + [
        f"wp{j}" for j in range(1, nu + 1)
    ]
    return Alphabet(names, None)


@dataclass(frozen=True)
class ComplexifiedHypersurface:
    """The core germ and its graph jet rho over segre_alphabet(nu)."""

    core: StructureGerm
    rho: Jet

    @property
    def nu(self) -> int:
        return self.core.nu

    @property
    def order(self) -> int:
        return self.rho.order


def complexify(core: StructureGerm) -> ComplexifiedHypersurface:
    """Solve s - i sigma(z, zb, s) = wb for s = S(z, zb, wb) and take the
    graph jet rho = 2S - wb.

    The outer jet of the solve is sigma itself, so no power of
    s = (w + wb)/2 is expanded: rho is the solution of
    F(z, zb, w, wb) = w - wb - 2i sigma(z, zb, (w + wb)/2) = 0 for w,
    which is unique.

    The reality identity rho(z, zb, rhob(zb, z, w)) = w needs no
    certificate of its own, since certified premises imply it:

      * make_germ refuses a sigma that is not real, so sigma(zb, z, s)
        is the conjugate of sigma(z, zb, s);
      * the solver certifies S - i sigma(z, zb, S) = wb exactly, that is
        F(z, zb, rho, wb) = 0 at its order;
      * conjugation is a ring homomorphism that swaps z with zb and wb
        with w, and it fixes sigma, so the conjugate of that identity is
        rhob - w + 2i sigma(z, zb, (rhob + w)/2) = 0, that is
        F(z, zb, w, rhob) = 0 with rhob = rhob(zb, z, w);
      * F(z, zb, w, wb) = 0 has the unique solution w = rho(z, zb, wb),
        and at wb = rhob that gives w = rho(z, zb, rhob(zb, z, w)).

    The premise that the computed rhob is that conjugate is checked where
    the identity is used: conjugate_elimination substitutes rhob, and
    phi_determinant certifies that F vanishes at the result.
    """
    if core.nprime != 0:
        raise PreconditionError(
            "complexification expects a core germ without t variables; "
            "extract the central manifold first"
        )
    if core.nu < 1:
        raise PreconditionError("complexification needs at least one complex variable")
    order = core.order
    big = segre_alphabet(core.nu)
    solving = Alphabet(core.alphabet.names + ("wb",), None)
    equation = (
        Jet.variable(solving, order, "s")
        - core.phi.rename({}, solving) * I
        - Jet.variable(solving, order, "wb")
    )
    (half,) = implicit_solve([equation], ["s"], target=big)
    rho = half * 2 - Jet.variable(big, order, "wb")

    certify(rho.coefficient({"wb": 1}) == as_gaussian(1), "complexify", "graph starts as wb",
            "graph jet must start as wb plus higher terms")
    return ComplexifiedHypersurface(core, rho)


@dataclass(frozen=True)
class ConjugateElimination:
    """(zb, wb) expressed through (z, w, wp) along the incidence system."""

    zb: tuple[Jet, ...]
    wb: Jet


def conjugate_elimination(ch: ComplexifiedHypersurface) -> ConjugateElimination:
    """Invert the first-order section data for the frozen parameters.

    By the reality identity rho(z, zb, rhob(zb, z, w)) = w, which
    complexify derives from its certified premises, bb = rhob(ab, z, w)
    solves rho(z, ab, bb) = w with no arithmetic beyond a renaming. That
    premise is checked where it is used, by phi_determinant's "F vanishes
    at the elimination". The nu equations d rho/d z_j (z, ab, bb) = wp_j are
    composed at that bb and solved for ab alone, and wb is bb at the solved
    ab. The solver certifies its equations. Everything is computed at
    order - 2, the order of the section Hessian that both routes compose
    from the elimination: compose_many truncates each substitute to the
    result order, so a degree-(order - 1) layer would never reach it. The
    floor of 1 keeps w in the section alphabet of an order-2 germ, whose
    Hessian has order 0. Solvability at the origin is exactly
    nondegeneracy of the z-block of the core's Levi form.
    """
    nu = ch.nu
    order = max(ch.order - 2, 1)
    big4 = elimination_alphabet(nu)
    unknowns = [f"ab{j}" for j in range(1, nu + 1)]
    bb = ch.rho.conjugate().rename(
        {f"zb{j}": ab for j, ab in enumerate(unknowns, start=1)}, big4
    )
    at_bb: dict[str, Jet] = {"wb": bb}
    for j, ab in enumerate(unknowns, start=1):
        at_bb[f"zb{j}"] = Jet.variable(big4, order, ab)
    slopes = compose_many(
        [ch.rho.derive(f"z{j}") for j in range(1, nu + 1)], at_bb, alphabet=big4, order=order
    )
    equations = [
        d - Jet.variable(big4, order, f"wp{j}") for j, d in enumerate(slopes, start=1)
    ]
    section = section_parameter_alphabet(nu)
    try:
        solved = implicit_solve(equations, unknowns, target=section)
    except SingularJacobianError:
        raise DegenerateFormError(
            "z-block of the Levi form is degenerate; the frozen parameters "
            "cannot be eliminated"
        ) from None
    (wb,) = compose_many([bb], dict(zip(unknowns, solved)), alphabet=section, order=order)
    return ConjugateElimination(tuple(solved), wb)


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


def phi_elimination(ch: ComplexifiedHypersurface, elim: ConjugateElimination) -> SectionHessian:
    """Section Hessian by direct substitution of the elimination into the
    graph's second z-derivatives, in one composition; z and w stay."""
    nu = ch.nu
    order = ch.order - 2
    seconds = [ch.rho.derive(f"z{i + 1}").derive(f"z{j + 1}") for i, j in _upper_pairs(nu)]
    eliminated = {f"zb{j}": zb for j, zb in enumerate(elim.zb, start=1)}
    eliminated["wb"] = elim.wb
    values = compose_many(
        seconds, eliminated, alphabet=section_parameter_alphabet(nu), order=order
    )
    return _section_hessian(nu, values, "elimination", order)


def phi_determinant(ch: ComplexifiedHypersurface, elim: ConjugateElimination) -> SectionHessian:
    """Section Hessian by implicit differentiation of the defining function
    F = w - wb - 2i sigma(z, zb, (w + wb)/2).

    sigma and its derivatives sigma_s, sigma_ss, sigma_zis and sigma_zizj
    (i <= j) are substituted at zb = E.zb, s = (w + E.wb)/2 in one
    composition and scaled into F and its derivatives:

        F = w - E.wb - 2i sigma,   F_w = 1 - i sigma_s,
        F_ww = -(i/2) sigma_ss,    F_ziw = -i sigma_zis,
        F_zizj = -2i sigma_zizj.

    F vanishes on the graph w = rho(z, zb, wb) identically in (z, zb, wb).
    Differentiating twice in z and setting the frozen parameters to the
    elimination, where rho = w and rho_zi = wp_i, gives

        H_ij = -(F_zizj + wp_i F_zjw + wp_j F_ziw + wp_i wp_j F_ww) / F_w,

    with the products formed over the section alphabet, which equals
    forming them first because composition is a ring homomorphism. The
    elimination lies on the incidence relation, so the substituted F must
    be exactly zero: InvariantError is raised if it is not. The route
    reads the core sigma, never the graph jet, so the only ingredient it
    shares with the elimination route is the frozen-parameter elimination
    itself.
    """
    nu = ch.nu
    order = ch.order - 2
    section = section_parameter_alphabet(nu)
    sigma = ch.core.phi
    d_s = sigma.derive("s")
    d_z = [sigma.derive(f"z{j}") for j in range(1, nu + 1)]
    pairs = _upper_pairs(nu)
    # w and wp at the elimination's order, the Hessian's but at least 1,
    # so that w + E.wb adds equal orders and both exist where the Hessian
    # has order 0; a product with wp is truncated to the Hessian's order.
    w = Jet.variable(section, elim.wb.order, "w")
    wp = [Jet.variable(section, elim.wb.order, f"wp{j}") for j in range(1, nu + 1)]
    at_elimination = {f"zb{j}": zb for j, zb in enumerate(elim.zb, start=1)}
    at_elimination["s"] = (w + elim.wb) * HALF
    s, s_s, s_ss, *rest = compose_many(
        [sigma, d_s, d_s.derive("s")]
        + [d.derive("s") for d in d_z]
        + [d_z[i].derive(f"z{j + 1}") for i, j in pairs],
        at_elimination,
        alphabet=section,
        order=order,
    )
    f = (w - elim.wb).truncate(order) - s * TWO_I
    certify(f.is_zero(), "phi_determinant", "F vanishes at the elimination",
            "defining-function identity failed: F does not vanish at the "
            "eliminated frozen parameters")
    f_w = 1 - s_s * I
    f_ww = s_ss * MINUS_HALF_I
    f_zw = [d * MINUS_I for d in rest[:nu]]
    f_zz = [d * MINUS_TWO_I for d in rest[nu:]]
    minus_inv_w = -f_w.unit_inverse()
    values = [
        (
            f_zij
            + (wp[i] * f_zw[j] + wp[j] * f_zw[i] + wp[i] * wp[j] * f_ww).truncate(order)
        )
        * minus_inv_w
        for (i, j), f_zij in zip(pairs, f_zz)
    ]
    return _section_hessian(nu, values, "determinant", order)


def _upper_pairs(nu: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i <= j, of the upper triangle, row by row."""
    return [(i, j) for i in range(nu) for j in range(i, nu)]


def _section_hessian(nu: int, values: list[Jet], route: str, order: int) -> SectionHessian:
    """The symmetric matrix whose entries (i, j) and (j, i) are the value
    of the pair (i, j) of _upper_pairs(nu)."""
    rows: list[list[Jet | None]] = [[None] * nu for _ in range(nu)]
    for (i, j), value in zip(_upper_pairs(nu), values):
        rows[i][j] = rows[j][i] = value
    return SectionHessian(tuple(tuple(row) for row in rows), route, order)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RigidityReport:
    consistent: bool
    offenders: tuple[tuple[int, int, tuple[int, ...], GaussianRational], ...]
    order: int
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
    agree = by_determinant.entries == by_elimination.entries
    certify(agree, "certified_section_hessian", "routes agree",
            "determinant and elimination routes disagree; coefficient arithmetic is corrupted")
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
    return RigidityReport(not offenders, offenders, hessian.order, note)


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
    # The factors of valuation 2 and 1 keep both products at the order.
    lhs = xj * xj * height.derive(x).derive(x)
    inner = xj * height.derive(x)
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
    return Jet.from_terms(u_alpha, half, {(k,): ck for k, ck in enumerate(coeffs, start=1)})
