"""Independent oracles for the test suite.

A deliberately naive polynomial engine: exponent tuples mapped to
(re, im) pairs of Fractions, truncation by total degree, composition by
repeated multiplication. It shares no code with the package kernel
(no packed monomial codes, no shared coefficient class), so agreement
between the two is evidence, not tautology. Matrix inertia likewise
comes from the characteristic polynomial, not from a congruence. The
previous graph solve, section-Hessian routes and characteristic covector
at the end are the exception: they run on the package's jets and are the
reference for the rewritten code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

Coef = tuple[Fraction, Fraction]
Poly = dict[tuple[int, ...], Coef]

ZERO: Coef = (Fraction(0), Fraction(0))
ONE: Coef = (Fraction(1), Fraction(0))


def cadd(a: Coef, b: Coef) -> Coef:
    return (a[0] + b[0], a[1] + b[1])


def cmul(a: Coef, b: Coef) -> Coef:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cconj(a: Coef) -> Coef:
    return (a[0], -a[1])


def clean(p: Poly) -> Poly:
    return {m: c for m, c in p.items() if c != ZERO}


def padd(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        out[m] = cadd(out.get(m, ZERO), c)
    return clean(out)


def pscale(p: Poly, c: Coef) -> Poly:
    return clean({m: cmul(v, c) for m, v in p.items()})


def pmul(p: Poly, q: Poly, order: int) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        d1 = sum(m1)
        for m2, c2 in q.items():
            if d1 + sum(m2) > order:
                continue
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = cadd(out.get(m, ZERO), cmul(c1, c2))
    return clean(out)


def ptruncate(p: Poly, order: int) -> Poly:
    return {m: c for m, c in p.items() if sum(m) <= order}


def pderive(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for m, c in p.items():
        if m[i] == 0:
            continue
        lowered = tuple(e - 1 if k == i else e for k, e in enumerate(m))
        out[lowered] = cadd(out.get(lowered, ZERO), cmul(c, (Fraction(m[i]), Fraction(0))))
    return clean(out)


def ppow(p: Poly, n: int, order: int) -> Poly:
    out: Poly = {(0,) * _width(p): ONE} if n == 0 else dict(p)
    for _ in range(n - 1):
        out = pmul(out, p, order)
    return out


def _width(p: Poly) -> int:
    for m in p:
        return len(m)
    raise ValueError("cannot infer variable count of an empty polynomial")


def pcompose(outer: Poly, args: list[Poly], order: int, width_out: int) -> Poly:
    """Substitute args[i] for variable i of outer; args share width_out."""
    out: Poly = {}
    for m, c in outer.items():
        term: Poly = {(0,) * width_out: c}
        for i, e in enumerate(m):
            if e:
                term = pmul(term, ppow(args[i], e, order), order)
        out = padd(out, ptruncate(term, order))
    return ptruncate(out, order)


def point_args(names: list[str], point: dict[str, Coef], target_names: list[str]) -> list[Poly]:
    """pcompose arguments that set each variable in ``point`` to its
    constant and every other variable of ``names`` to its namesake among
    ``target_names``."""
    width = len(target_names)
    return [
        clean({(0,) * width: point[n]}) if n in point
        else {tuple(int(m == n) for m in target_names): ONE}
        for n in names
    ]


def pconj(p: Poly, swap: list[int]) -> Poly:
    """Complex conjugation: conjugate coefficients, permute variables by swap."""
    out: Poly = {}
    for m, c in p.items():
        pm = tuple(m[swap[i]] for i in range(len(m)))
        out[pm] = cconj(c)
    return clean(out)


def prename(p: Poly, dest: list[int], width_out: int) -> Poly:
    """Move variable i to variable dest[i] of width_out; merged exponents add."""
    out: Poly = {}
    for m, c in p.items():
        pm = [0] * width_out
        for i, e in enumerate(m):
            pm[dest[i]] += e
        key = tuple(pm)
        out[key] = cadd(out.get(key, ZERO), c)
    return clean(out)


def cinv(a: Coef) -> Coef:
    norm = a[0] * a[0] + a[1] * a[1]
    return (a[0] / norm, -a[1] / norm)


def pinverse(p: Poly, order: int) -> Poly:
    """1/p to ``order`` by the geometric series: p = c (1 - n) with n of
    valuation >= 1, so 1/p = c^-1 (1 + n + ... + n^order)."""
    const = (0,) * _width(p)
    c_inv = cinv(p[const])
    n = pscale({m: v for m, v in p.items() if m != const}, (-c_inv[0], -c_inv[1]))
    acc: Poly = {const: ONE}
    power: Poly = {const: ONE}
    for _ in range(order):
        power = pmul(power, n, order)
        acc = padd(acc, power)
    return pscale(acc, c_inv)


def psqrt(p: Poly, order: int) -> Poly:
    """The square root with constant term 1 of p, whose constant term is
    1, to ``order``: for k = 1 .. order, y += (p - y*y)_k / 2, each from a
    full square."""
    y: Poly = {(0,) * _width(p): ONE}
    for k in range(1, order + 1):
        r = padd(p, pscale(pmul(y, y, order), (Fraction(-1), Fraction(0))))
        y = padd(y, pscale({m: c for m, c in r.items() if sum(m) == k}, (Fraction(1, 2), Fraction(0))))
    return y


def cmatinv(m: list[list[Coef]]) -> list[list[Coef]]:
    """Gauss-Jordan inverse; ZeroDivisionError when m is singular."""
    n = len(m)
    rows = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != ZERO), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = cinv(rows[col][col])
        rows[col] = [cmul(v, inv) for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != ZERO:
                f = rows[r][col]
                rows[r] = [cadd(v, cmul((-f[0], -f[1]), p)) for v, p in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def cmatmul(a: list[list[Coef]], b: list[list[Coef]]) -> list[list[Coef]]:
    return [[reduce(cadd, map(cmul, row, col), ZERO) for col in zip(*b)] for row in a]


def charpoly(m: list[list[tuple[int, int]]]) -> list[tuple[int, int]]:
    """Coefficients c_0..c_n of det(x I - m) for a Gaussian-integer m,
    by Faddeev-LeVerrier: M_k = m M_{k-1} + c_{n-k+1} I and
    c_{n-k} = -tr(m M_k) / k, a division that is exact over the integers."""
    n = len(m)
    coeffs = [(0, 0)] * n + [(1, 0)]
    mk = [[(0, 0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [
            [cadd(_cdot(m[i], mk, j), coeffs[n - k + 1] if i == j else (0, 0)) for j in range(n)]
            for i in range(n)
        ]
        trace = (0, 0)
        for i in range(n):
            trace = cadd(trace, _cdot(m[i], mk, i))
        assert trace[0] % k == 0 and trace[1] % k == 0, "Faddeev-LeVerrier division is not exact"
        coeffs[n - k] = (-trace[0] // k, -trace[1] // k)
    return coeffs


def _cdot(row: list[tuple[int, int]], cols: list[list[tuple[int, int]]], j: int) -> tuple[int, int]:
    out = (0, 0)
    for a, col in zip(row, cols):
        out = cadd(out, cmul(a, col[j]))
    return out


def _sign_changes(values: list[int]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def hermitian_inertia(m: list[list[Coef]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a Hermitian matrix.

    Scaling by the common denominator keeps the inertia and makes the
    characteristic polynomial integral. It is real with only real
    roots, so Descartes' rule of signs counts the positive roots exactly,
    the negative ones from p(-x), and the zero ones from the lowest
    nonzero coefficient.
    """
    scale = lcm(*(x.denominator for row in m for c in row for x in c))
    coeffs = charpoly([[(int(re * scale), int(im * scale)) for re, im in row] for row in m])
    assert all(im == 0 for _, im in coeffs), "characteristic polynomial is not real"
    real = [re for re, _ in coeffs]
    zero = next(k for k, c in enumerate(real) if c != 0)
    pos = _sign_changes(real)
    neg = _sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(real)])
    return pos, neg, zero


def reference_solve(eqs: list[Poly], unknowns: list[int], width: int, order: int) -> list[Poly]:
    """Solve eqs(x, u) = 0 for u(x), u(0) = 0, by the full-precision chord
    iteration: J0 inverted once, every sweep composes at ``order`` and
    subtracts J0^{-1} times the whole residual, until it is exactly zero.

    ``unknowns`` are variable positions; the other positions are the
    parameters, and the solutions are polys over them in source order.
    """
    params = [i for i in range(width) if i not in unknowns]
    nparams = len(params)
    eqs = [ptruncate(e, order) for e in eqs]
    unit = [tuple(int(k == i) for k in range(width)) for i in range(width)]
    j0_inv = cmatinv([[e.get(unit[u], ZERO) for u in unknowns] for e in eqs])
    args: list[Poly] = [{} for _ in range(width)]
    for k, i in enumerate(params):
        args[i] = {tuple(int(j == k) for j in range(nparams)): ONE}
    guesses: list[Poly] = [{} for _ in unknowns]
    for _ in range(order + 1):
        for i, g in zip(unknowns, guesses):
            args[i] = g
        residuals = [pcompose(e, args, order, nparams) for e in eqs]
        if not any(residuals):
            return guesses
        for j in range(len(unknowns)):
            for i, r in enumerate(residuals):
                c = j0_inv[j][i]
                guesses[j] = padd(guesses[j], pscale(r, (-c[0], -c[1])))
    raise AssertionError("chord iteration failed to reach an exactly zero residual")


def catalan(count: int) -> list[int]:
    """c_0..c_{count-1} by the convolution recurrence."""
    cs = [1]
    for n in range(count - 1):
        cs.append(sum(cs[i] * cs[n - i] for i in range(n + 1)))
    return cs


# conversion shims; the computation above never uses the package

def jet_to_poly(jet) -> Poly:
    return {vec: (c.real, c.imag) for vec, c in jet.monomials()}


def assert_normalized(terms) -> None:
    """Every coefficient is (a + b*i)/d in lowest terms, d > 0, and nonzero."""
    for c in terms.values():
        assert c.d > 0 and gcd(c.a, c.b, c.d) == 1, (c.a, c.b, c.d)
        assert c.a or c.b


def poly_to_jet(p: Poly, alphabet, order: int):
    from crjets import GaussianRational, Jet

    terms = {}
    for m, (re, im) in p.items():
        if sum(m) <= order and (re, im) != (Fraction(0), Fraction(0)):
            terms[alphabet.encode(m)] = GaussianRational(re, im)
    return Jet(alphabet, order, terms)


# The section-Hessian routes as they were before complexify solved for s
# and the elimination solved nu equations: the graph from the defining
# function F = w - wb - 2i sigma(z, zb, (w + wb)/2) solved for w, (zb, wb)
# from all nu + 1 incidence equations, and bordered determinants of F
# multiplied over the Segre alphabet before substituting. The rewritten
# routes rest on the substitution s = (w + wb)/2, on the reality and
# homomorphism identities and on the slopes w_z = wp of the eliminated
# section instead, so equal results are evidence that those identities
# are applied right.


def previous_complexify(core):
    """The graph jet rho over the Segre alphabet: F = 0 solved for w."""
    from crjets import GaussianRational, Jet, implicit_solve
    from crjets.jets import compose_many
    from crjets.rationals import HALF
    from crjets.segre import segre_alphabet

    order = core.order
    big = segre_alphabet(core.nu)
    w, wb = Jet.variable(big, order, "w"), Jet.variable(big, order, "wb")
    (sigma,) = compose_many([core.phi], {"s": (w + wb) * HALF}, alphabet=big, order=order)
    (graph,) = implicit_solve([w - wb - sigma * GaussianRational(0, 2)], ["w"])
    return graph.rename({}, big)


def previous_conjugate_elimination(ch):
    """(zb, wb) solving rho(z, ab, bb) = w and d rho/d z_j = wp_j together."""
    from crjets import Alphabet, Jet, implicit_solve
    from crjets.segre import section_parameter_alphabet

    nu, order = ch.nu, ch.order
    zs = [f"z{j}" for j in range(1, nu + 1)]
    wps = [f"wp{j}" for j in range(1, nu + 1)]
    abs_ = [f"ab{j}" for j in range(1, nu + 1)]
    big5 = Alphabet(zs + ["w"] + wps + abs_ + ["bb"], None)
    renaming = {f"zb{j}": f"ab{j}" for j in range(1, nu + 1)}
    renaming["wb"] = "bb"
    equations = [ch.rho.rename(renaming, big5) - Jet.variable(big5, order, "w")]
    for j in range(1, nu + 1):
        d = ch.rho.derive(f"z{j}").rename(renaming, big5)
        equations.append(d - Jet.variable(big5, order - 1, f"wp{j}"))
    solved = implicit_solve(equations, abs_ + ["bb"], target=section_parameter_alphabet(nu))
    return tuple(solved[:nu]), solved[nu]


def previous_phi_determinant(ch, zb, wb):
    """Entries of the bordered-determinant route, multiplied over the Segre
    alphabet and then substituted at the eliminated (zb, wb)."""
    from crjets import GaussianRational, Jet
    from crjets.jets import compose_many
    from crjets.rationals import HALF
    from crjets.segre import section_parameter_alphabet

    nu, order = ch.nu, ch.order
    out = order - 2
    big = ch.rho.alphabet
    w, wbv = Jet.variable(big, order, "w"), Jet.variable(big, order, "wb")
    (sigma,) = compose_many([ch.core.phi], {"s": (w + wbv) * HALF}, alphabet=big, order=order)
    f = (w - wbv - sigma * GaussianRational(0, 2)) * GaussianRational(0, Fraction(-1, 2))
    d_w = f.derive("w").truncate(out)
    d_ww = f.derive("w").derive("w")
    inv_w_cubed = d_w.unit_inverse() ** 3
    d_z = {j: f.derive(f"z{j}") for j in range(1, nu + 1)}
    base = f.truncate(out)
    eliminated = {f"zb{j}": v.truncate(out) for j, v in enumerate(zb, start=1)}
    eliminated["wb"] = wb.truncate(out)
    rows = [[None] * nu for _ in range(nu)]
    for i in range(1, nu + 1):
        d_zi = d_z[i].truncate(out)
        d_zi_w = d_z[i].derive("w")
        for j in range(i, nu + 1):
            d_zj = d_z[j].truncate(out)
            d_zj_w = d_z[j].derive("w")
            d_zi_zj = d_z[i].derive(f"z{j}")
            bordered = (
                base * (d_zi_zj * d_ww - d_zi_w * d_zj_w)
                - d_zj * (d_zi * d_ww - d_zi_w * d_w)
                + d_w * (d_zi * d_zj_w - d_zi_zj * d_w)
            )
            (value,) = compose_many(
                [bordered * inv_w_cubed], eliminated, alphabet=section_parameter_alphabet(nu), order=out
            )
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = value
    return tuple(tuple(row) for row in rows)


# The characteristic covector as it was before its imaginary part was
# stated in closed form: every real-basis coefficient is built from the
# holomorphic one and its imaginary part taken.


def previous_characteristic_covector(germ):
    """CharacteristicCovector with the real-basis coefficients multiplied out."""
    from crjets import GaussianRational, Jet
    from crjets.germs import CharacteristicCovector
    from crjets.rationals import I, MINUS_I

    order = germ.order - 1
    alpha = germ.alphabet
    phi = germ.phi
    phi_s = phi.derive("s")
    c = Jet.constant(alpha, order, 1) + phi_s * MINUS_I
    holo = {}
    for j, zname in enumerate(germ.z_names(), start=1):
        holo[f"dz{j}"] = phi.derive(zname) * GaussianRational(0, -2)
    holo["dw"] = c
    imag = {}
    for j in range(1, germ.nu + 1):
        a = holo[f"dz{j}"]
        phi_z = phi.derive(f"z{j}")
        phi_zb = phi.derive(f"zb{j}")
        imag[f"dx{j}"] = (a + c * (phi_z + phi_zb) * I).imag_part()
        imag[f"dy{j}"] = (a * I - c * (phi_z - phi_zb)).imag_part()
    imag["ds"] = (c * (Jet.constant(alpha, order, 1) + phi_s * I)).imag_part()
    for l in range(1, germ.nprime + 1):
        imag[f"dt{l}"] = (c * phi.derive(f"t{l}") * I).imag_part()
    return CharacteristicCovector(holo, imag)


# Term-record parsing as it was before each record was read in one pass:
# the exponents are collected into a dict of nonzero entries, summed for
# the degree and packed by Alphabet.encode_dict, whose own checks refuse
# an exponent past the field width.


def previous_terms_from_json(records, alphabet, order, label):
    """io.terms_from_json record by record, with every check in its order:
    an order past the packing limit first, before any record."""
    from crjets import Jet
    from crjets.errors import ParseError, PreconditionError
    from crjets.io import scalar_from_json

    if order > alphabet.max_exponent:
        raise PreconditionError(
            f"order {order} exceeds {alphabet.max_exponent}, the packing limit for this alphabet"
        )
    if not isinstance(records, list):
        raise ParseError(f"{label}: expected a list of term records")
    seen = {}
    data = {}
    for k, record in enumerate(records):
        where = f"{label} term {k}"
        if not isinstance(record, dict):
            raise ParseError(f"{where}: expected an object")
        extra = set(record) - {"monomial", "coefficient"}
        if extra:
            raise ParseError(f"{where}: unexpected keys {sorted(extra)}")
        mono = record.get("monomial", {})
        if not isinstance(mono, dict):
            raise ParseError(f"{where}: monomial must map variables to exponents")
        exponents = {}
        for name, e in mono.items():
            if name not in alphabet.index:
                raise ParseError(
                    f"{where}: unknown variable {name!r}; expected one of {list(alphabet.names)}"
                )
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ParseError(f"{where}: exponent of {name!r} must be a nonnegative integer")
            if e:
                exponents[name] = e
        degree = sum(exponents.values())
        if degree > order:
            raise ParseError(f"{where}: total degree {degree} exceeds the order {order}")
        try:
            coeff = scalar_from_json(record.get("coefficient", "0"))
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
        try:
            code = alphabet.encode_dict(exponents)
        except PreconditionError as exc:
            raise ParseError(f"{where}: {exc}") from None
        if code in seen:
            raise ParseError(f"{where}: duplicate of term {seen[code]} with the same monomial")
        seen[code] = k
        if not coeff.is_zero():
            data[code] = coeff
    return Jet(alphabet, order, data)
