"""Central manifold extraction and Morse normalization of the t-part.

Given a germ phi(z, zb, s, t) whose t-Hessian at the origin is
invertible, the fiberwise critical point t = F(z, zb, s) of phi solves
d phi / d t = 0 and is the unique such graph through 0. Restricting phi
to the graph gives the core jet sigma(z, zb, s); moving the graph to
{t = 0} is the straightening substitution t -> t + F.

The graph is solved once per call, by one of two functions.
central_manifold composes sigma directly: the section Hessian (the phi
and rigid-check commands) needs only sigma, and this is about half the
work of a straightening. straighten composes phi(., t + F) and reads
sigma off it as its slice at t = 0, since phi(., t + F) at t = 0 is
phi(., F) (the central and normalize commands). Either returns the
central manifold as the graph and the core germ sigma.

Neither validates the germs it builds. phi was validated where it was
read or built (io.germ_from_json, germs.make_germ), the critical graph
is certified real ("critical graph is real"), and compose_many
substitutes only jets of zero constant term. So sigma and phi(., t + F)
are real and vanish at the origin, and phi's zero linear part leaves
them none: a term of degree d >= 2 of phi goes to terms of degree >= d.

The solver certifies its sweeps, not the top layer of the graph, so
each function certifies the critical-point identity where it reads the
graph. central_manifold composes the gradient at the graph and requires
it to vanish. straighten needs no composition of its own for it: the
t-linear part of phi(., t + F) is t * (d phi / d t)(., F) through the germ
order, so "no t-linear term" is the gradient identity at the graph's
order, read off the straightened germ it already composes.

For a straightened germ the difference R = phi - phi(.,0) has only
monomials of t-degree at least two, and a parameter Morse lemma splits
it as an exact finite sum of rational multiples of squares,

    phi = phi(.,0) + sum_l c_l * G_l^2,

with G_l jets vanishing at 0 with independent linear t-parts. The c_l
are produced by the square-completion pipeline itself, not copied from
the diagonalized Hessian, so comparing their signs against the Hessian
inertia is a genuine cross-check. The split is certified by composing
the split normal form germs.model_germ(phi(.,0), c) at t_l = G_l.

Order bookkeeping: the graph F, the Morse critical points and the maps
G_l are reliable one order below the germ. Substituting them at the
germ order derives the germ order back (jets.compose_many), since phi
and the remainders have no t-linear terms with constant coefficient;
the slices keep the order, since setting t = 0 drops terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .alphabet import Alphabet
from .errors import (
    DegenerateFormError,
    NotDivisibleError,
    PreconditionError,
    SingularJacobianError,
    certify,
)
from .germs import StructureGerm, at_t_zero, model_germ, standard_alphabet, t_hessian
from .jets import Jet, compose_many, jet_sqrt
from .linalg import invert_matrix, symmetric_diagonalize
from .rationals import as_gaussian
from .solve import implicit_solve


@dataclass(frozen=True)
class CentralManifold:
    graph: tuple[Jet, ...]
    core: StructureGerm
    """sigma as a germ with no t variables."""


def _gradient(germ: StructureGerm) -> list[Jet]:
    """d phi / d t_l for each t variable, one order below the germ."""
    return [germ.phi.derive(name) for name in germ.t_names()]


def _critical_graph(germ: StructureGerm) -> tuple[Jet, ...]:
    """The critical graph t = F(z, zb, s), solved from d phi / d t = 0 over
    the central alphabet and certified real; F is reliable one order
    below the germ. Its top layer is certified by the caller."""
    try:
        graph = implicit_solve(
            _gradient(germ), germ.t_names(), target=standard_alphabet(germ.nu, 0)
        )
    except SingularJacobianError:
        raise DegenerateFormError(
            "t-Hessian at the origin is singular; the critical graph is not isolated"
        ) from None
    certify(all(g.is_real() for g in graph), "critical_graph", "critical graph is real",
            "critical graph of a real jet came out non-real")
    return tuple(graph)


def central_manifold(germ: StructureGerm) -> CentralManifold:
    """Critical graph t = F(z, zb, s) and the restriction sigma = phi(., F),
    composed directly: about half the work of a straightening. The
    gradient is composed at the graph too, at the graph's order, and must
    vanish exactly. sigma is real and flat at 0 because phi is and the
    graph is real with zero constant term (see the module docstring), so
    the core is wrapped without validation."""
    if germ.nprime == 0:
        return CentralManifold((), germ)
    graph = _critical_graph(germ)
    on_graph = dict(zip(germ.t_names(), graph))
    central = standard_alphabet(germ.nu, 0)
    (sigma,) = compose_many([germ.phi], on_graph, alphabet=central, order=germ.order)
    gradient = compose_many(_gradient(germ), on_graph, alphabet=central)
    certify(all(d.is_zero() for d in gradient), "central_manifold",
            "gradient vanishes on the graph",
            "d phi / d t does not vanish on the solved critical graph")
    return CentralManifold(graph, StructureGerm(germ.nu, 0, sigma))


def straighten(germ: StructureGerm) -> tuple[CentralManifold, StructureGerm]:
    """The central manifold and phi(., t + F), which moves the critical
    graph to {t = 0}, from one solve.

    The straightened phi over the germ alphabet at the germ order has
    slice phi(., F) = sigma at t = 0: read off by at_t_zero, not composed
    again. phi(., t + F) is real and flat at 0, since phi is and t + F is
    a real substitution of zero constant term (see the module docstring),
    so both germs are wrapped without validation. The slice of such a
    germ is too, and its order is the germ order, as for the direct
    composition.

    Its t-linear part is t * (d phi / d t)(., F) through the germ order,
    so the straightened phi has no t-linear term exactly when the
    gradient vanishes on the graph at the graph's order: that is
    certified on the composition already made, with no product of its
    own.
    """
    if germ.nprime == 0:
        return CentralManifold((), germ), germ
    graph = _critical_graph(germ)
    order = germ.order
    full = germ.alphabet
    shift = {
        name: Jet.variable(full, order - 1, name) + g.rename({}, full)
        for name, g in zip(germ.t_names(), graph)
    }
    (phi_new,) = compose_many([germ.phi], shift, alphabet=full, order=order)
    flat = StructureGerm(germ.nu, germ.nprime, phi_new)
    certify(is_straightened(flat), "straighten", "straightened phi has no t-linear term",
            "phi(., t + F) has a t-linear term: the gradient does not vanish on the graph")
    core = StructureGerm(germ.nu, 0, at_t_zero(phi_new, germ.nu))
    return CentralManifold(graph, core), flat


def is_straightened(germ: StructureGerm) -> bool:
    """True when no monomial of phi has total t-degree exactly one, read
    from the t fields of each code."""
    alpha = germ.alphabet
    mask = alpha.mask
    shifts = [alpha.shifts[alpha.index[name]] for name in germ.t_names()]
    for code in germ.phi.terms:
        if sum((code >> s) & mask for s in shifts) == 1:
            return False
    return True


def _linear_t_change(
    matrix: list[list[Fraction]], t_names: list[str], full: Alphabet, order: int
) -> dict[str, Jet]:
    """The substitution t_l -> sum_k matrix[l][k] t_k, each substitute
    one jet built from its coefficients."""
    codes = [full.encode_dict({name: 1}) for name in t_names]
    return {name: Jet(full, order, {code: as_gaussian(c) for code, c in zip(codes, row)})
            for row, name in zip(matrix, t_names)}


@dataclass(frozen=True)
class MorseNormalForm:
    germ: StructureGerm
    base: Jet
    quad_coeffs: tuple[Fraction, ...]
    maps: tuple[Jet, ...]
    congruence: tuple[tuple[Fraction, ...], ...]

    @property
    def signature(self) -> int:
        """Number of positive squares."""
        return sum(1 for c in self.quad_coeffs if c > 0)

    def reconstruct(self) -> Jet:
        """base + sum c_l * G_l^2 over the germ alphabet at full order: the
        split normal form over base, composed at t_l = G_l."""
        germ = self.germ
        split = model_germ(StructureGerm(germ.nu, 0, self.base), self.quad_coeffs)
        at_maps = dict(zip(germ.t_names(), self.maps))
        (pulled,) = compose_many([split.phi], at_maps, alphabet=germ.alphabet, order=germ.order)
        return pulled


def morse_normalize(germ: StructureGerm) -> MorseNormalForm:
    """Split a straightened germ as phi(.,0) plus signed rational squares.

    Requires every monomial of phi to have t-degree 0 or >= 2 and the
    constant t-Hessian to be invertible. The returned maps G_l live over
    the germ alphabet one order down; reconstruct() must reproduce phi
    exactly, and this is verified before returning.

    The solve of each critical point c needs no composition of its own:
    remainder(t_l + c) has no t_l-linear term exactly when slope(c) = 0
    at the order of c, one below the germ, so "completed square divides
    by t^2" certifies that solve's top layer too.
    """
    order = germ.order
    full = germ.alphabet

    if not is_straightened(germ):
        raise PreconditionError(
            "germ is not straightened: phi has a monomial of t-degree one"
        )

    base = at_t_zero(germ.phi, germ.nu)
    congruence, diag = symmetric_diagonalize(t_hessian(germ))
    if any(d == 0 for d in diag):
        raise DegenerateFormError("constant t-Hessian is singular")

    remainder = germ.phi - base.rename({}, full)

    # Diagonalize the quadratic t-part: substitute t_l -> sum_k P[l][k] t_k.
    t_names = germ.t_names()
    (remainder,) = compose_many(
        [remainder], _linear_t_change(congruence, t_names, full, order), alphabet=full, order=order
    )

    squares: list[Jet] = []
    coeffs: list[Fraction] = []
    for tname in t_names:
        tvar = Jet.variable(full, order - 1, tname)
        slope = remainder.derive(tname)
        critical = implicit_solve([slope], [tname], target=full)[0]

        at_critical = {tname: tvar + critical}
        (shifted,) = compose_many([remainder], at_critical, alphabet=full, order=order)
        # remainder(t_l = c) is the t_l-free part of remainder(t_l + c).
        rest = shifted.at_zero([tname], full)

        doubly = shifted - rest
        try:
            quotient = doubly.divide_by_coordinate(tname).divide_by_coordinate(tname)
        except NotDivisibleError:
            quotient = None
        certify(quotient is not None, "morse_normalize", "completed square divides by t^2",
                "square completion left terms below quadratic t-degree; "
                "the critical point was not critical")

        linear = tvar - critical
        (factor,) = compose_many([quotient], {tname: linear}, alphabet=full, order=order - 2)

        c0 = factor.constant_term()
        certify(c0.is_real() and not c0.is_zero(), "morse_normalize", "coefficient is rational",
                "the square coefficient is not a nonzero rational")
        c = c0.real
        root = jet_sqrt(factor * (Fraction(1) / c))
        # root, reliable at order - 2, times a factor of valuation 1.
        squares.append(linear * root)
        coeffs.append(c)
        remainder = rest

    certify(remainder.is_zero(), "morse_normalize", "remainder vanishes",
            "Morse remainder after eliminating every t variable is nonzero")

    back = _linear_t_change(invert_matrix(congruence), t_names, full, order - 1)
    maps = tuple(compose_many(squares, back, alphabet=full, order=order - 1))

    form = MorseNormalForm(
        germ,
        base,
        tuple(coeffs),
        maps,
        tuple(tuple(row) for row in congruence),
    )
    certify(form.reconstruct() == germ.phi, "morse_normalize", "squares reconstruct phi",
            "Morse reconstruction failed to reproduce phi exactly")
    return form
