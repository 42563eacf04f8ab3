"""Seeded pseudorandom inputs for the property and acceptance suites.

Every generator takes a random.Random and is fully deterministic given
its seed. Rejection loops re-draw until the structural side conditions
(nondegenerate Levi block, invertible t-Hessian) hold, so callers always
receive admissible data.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from crjets import (
    GaussianRational,
    Jet,
    StructureGerm,
    levi_form,
    make_germ,
    standard_alphabet,
    t_hessian,
)
from crjets.linalg import rank


def rand_fraction(rng: random.Random, span: int = 3, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q or not nonzero:
            return q


def rand_scalar(rng: random.Random, span: int = 3) -> GaussianRational:
    return GaussianRational(rand_fraction(rng, span), rand_fraction(rng, span))


def _real_terms(
    rng: random.Random,
    nu: int,
    nprime: int,
    degmax: int,
    density: Fraction,
    order: int,
) -> dict[int, GaussianRational]:
    """Sparse real jet data of degrees 2..degmax over the standard alphabet.

    Reality is enforced pairwise: the monomial with (alpha, beta) z-exponents
    mirrors the one with (beta, alpha), coefficients conjugate to each other.
    """
    alphabet = standard_alphabet(nu, nprime)
    nreal = 1 + nprime
    terms: dict[int, GaussianRational] = {}
    ranges = [range(degmax + 1)] * (2 * nu + nreal)
    for vec in itertools.product(*ranges):
        deg = sum(vec)
        if deg < 2 or deg > min(degmax, order):
            continue
        alpha, beta = vec[:nu], vec[nu : 2 * nu]
        if alpha < beta:
            continue  # handled by its mirror
        if rng.random() > density:
            continue
        mirror = beta + alpha + vec[2 * nu :]
        if alpha == beta:
            coeff = GaussianRational(rand_fraction(rng))
            if coeff.is_zero():
                continue
            terms[alphabet.encode(vec)] = coeff
        else:
            coeff = rand_scalar(rng)
            if coeff.is_zero():
                continue
            terms[alphabet.encode(vec)] = coeff
            terms[alphabet.encode(mirror)] = coeff.conjugate()
    return terms


def random_central(
    rng: random.Random, nu: int = 1, order: int = 6, degmax: int = 4
) -> StructureGerm:
    """Central hypersurface germ (nprime = 0), Levi-nondegenerate."""
    alphabet = standard_alphabet(nu, 0)
    while True:
        terms = _real_terms(rng, nu, 0, degmax, Fraction(2, 5), order)
        # make the mixed quadratic block plausibly invertible
        for j in range(1, nu + 1):
            code = alphabet.encode_dict({f"z{j}": 1, f"zb{j}": 1})
            d = rand_fraction(rng, nonzero=True)
            terms[code] = GaussianRational(d if rng.random() < 0.8 else -d)
        germ = make_germ(nu, 0, Jet(alphabet, order, terms))
        if levi_form(germ).nondegenerate:
            return germ


def random_germ(
    rng: random.Random,
    nu: int = 1,
    nprime: int = 1,
    order: int = 6,
    degmax: int = 4,
) -> StructureGerm:
    """Full germ with invertible t-Hessian at the origin."""
    alphabet = standard_alphabet(nu, nprime)
    while True:
        terms = _real_terms(rng, nu, nprime, degmax, Fraction(1, 4), order)
        for l in range(1, nprime + 1):
            code = alphabet.encode_dict({f"t{l}": 2})
            terms[code] = GaussianRational(rand_fraction(rng, nonzero=True))
        germ = make_germ(nu, nprime, Jet(alphabet, order, terms))
        h = t_hessian(germ)
        if rank([[GaussianRational(x) for x in row] for row in h]) == nprime:
            return germ


def sparse_real_germ(
    rng: random.Random, nu: int, nprime: int, order: int, count: int = 6
) -> StructureGerm:
    """Real germ of order ``order`` with an invertible t-Hessian: the real
    part of ``count`` random terms of degrees 2..order with complex
    coefficients, plus a nonzero t_l^2 term for each l. Sparse, so wide
    alphabets stay cheap; a singular t-Hessian is drawn again."""
    alphabet = standard_alphabet(nu, nprime)
    while True:
        terms: dict[int, GaussianRational] = {}
        for _ in range(count):
            exps = [0] * alphabet.nvars
            for _ in range(rng.randint(2, order)):
                exps[rng.randrange(alphabet.nvars)] += 1
            code = alphabet.encode(exps)
            terms[code] = terms.get(code, GaussianRational(0)) + rand_scalar(rng)
        for l in range(1, nprime + 1):
            code = alphabet.encode_dict({f"t{l}": 2})
            terms[code] = terms.get(code, GaussianRational(0)) + rand_fraction(rng, nonzero=True)
        germ = make_germ(nu, nprime, Jet(alphabet, order, terms).real_part())
        h = t_hessian(germ)
        if rank([[GaussianRational(x) for x in row] for row in h]) == nprime:
            return germ


def random_definite_germ(
    rng: random.Random, nu: int = 1, nprime: int = 1, order: int = 6, degmax: int = 4
) -> StructureGerm:
    """Positive definite Levi form: identity blocks plus cubic-and-up noise."""
    alphabet = standard_alphabet(nu, nprime)
    terms = {
        code: coeff
        for code, coeff in _real_terms(
            rng, nu, nprime, degmax, Fraction(1, 4), order
        ).items()
        if alphabet.degree(code) >= 3
    }
    for j in range(1, nu + 1):
        terms[alphabet.encode_dict({f"z{j}": 1, f"zb{j}": 1})] = GaussianRational(1)
    for l in range(1, nprime + 1):
        terms[alphabet.encode_dict({f"t{l}": 2})] = GaussianRational(1)
    return make_germ(nu, nprime, Jet(alphabet, order, terms))


def random_fiber_map(
    rng: random.Random, germ: StructureGerm, s_free: bool = False
) -> tuple[Jet, ...]:
    """A real change of fiber coordinates t -> T(z, zb, s, t) at the germ's
    order, at least 3: T(0) = 0, an invertible rational linear part in t,
    and the real part of three random quadratic or cubic terms per
    component, free of s when ``s_free``. phi(., T) has the same critical
    values as phi."""
    alphabet = germ.phi.alphabet
    t_names = germ.t_names()
    while True:
        linear = [[rand_fraction(rng) for _ in t_names] for _ in t_names]
        if rank([[GaussianRational(x) for x in row] for row in linear]) == len(t_names):
            break
    names = [name for name in alphabet.names if not (s_free and name == "s")]
    fiber = []
    for row in linear:
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for _ in range(3):
            exps = [0] * alphabet.nvars
            for _ in range(rng.randint(2, 3)):
                exps[alphabet.index[rng.choice(names)]] += 1
            terms[tuple(exps)] = terms.get(tuple(exps), GaussianRational(0)) + rand_scalar(rng)
        for name, c in zip(t_names, row):
            terms[tuple(int(n == name) for n in alphabet.names)] = GaussianRational(c)
        fiber.append(Jet.from_terms(alphabet, germ.order, terms).real_part())
    return tuple(fiber)


def random_rigid_central(
    rng: random.Random, nu: int = 1, order: int = 6, degmax: int = 3
) -> StructureGerm:
    """sigma = H(z zbar) for random rational H with H'(0), H''(0) nonzero.

    One complex variable; the composite H(z zbar) is automatically real
    and s-independent.
    """
    assert nu == 1
    alphabet = standard_alphabet(1, 0)
    u = Jet.variable(alphabet, order, "z1") * Jet.variable(alphabet, order, "zb1")
    coeffs = [rand_fraction(rng, nonzero=True), rand_fraction(rng, nonzero=True)]
    coeffs += [rand_fraction(rng) for _ in range(degmax - 2)]
    sigma = Jet.zero(alphabet, order)
    upow = Jet.constant(alphabet, order, 1)
    for c in coeffs:
        upow = upow * u
        if c:
            sigma = sigma + upow * c
    return make_germ(1, 0, sigma)


def random_height(rng: random.Random, order: int = 8, span: int = 3) -> Jet:
    """Even height jet with nonzero curvature; always profile-admissible."""
    from crjets import Alphabet

    alphabet = Alphabet(("x",), None)
    terms = {alphabet.encode((2,)): GaussianRational(rand_fraction(rng, span, nonzero=True))}
    for k in range(4, order + 1, 2):
        c = rand_fraction(rng, span)
        if c:
            terms[alphabet.encode((k,))] = GaussianRational(c)
    return Jet(alphabet, order, terms)
