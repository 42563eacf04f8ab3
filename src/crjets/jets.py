"""Truncated multivariate formal power series (jets) over exact scalars.

A Jet stores the coefficients of a polynomial of total degree <= order in
the variables of an Alphabet, with Gaussian-rational coefficients. The
order is a reliability statement, not a degree bound: coefficients beyond
it are unknown, never assumed zero. Every operation states what it does to
the order:

  * + and - are strict: operands must agree on alphabet and order;
  * a product of orders a and b is reliable to
    min(max(a, b), a + val b, b + val a), which is a when a = b;
  * powers, unit_inverse and jet_sqrt keep the order;
  * derive and divide_by_coordinate lose one order;
  * compose_many keeps the least participating order unless asked for
    more, and then derives min((N + 1) mu - 1, min_v (m_v + val d_v f),
    2 min_v m_v + 1): N is the least outer order, m_v the order of the
    substitute u_v and mu >= 1 the least valuation of the substitutes of
    all outer variables.

A zero jet of order m counts as valuation m + 1. These rules are the
precision lemma of Caruso, Roe and Vaccon ("Tracking p-adic precision",
2014): orders are derived, and only the constructor states one outright.

Storage is a sparse dict from packed monomial code to coefficient; zero
coefficients are never stored. Term order for iteration and serialization
is the alphabet's graded order (ascending code), so equal jets print and
serialize identically. Codes move between variables only through
Alphabet.remap: rename maps each variable to one target variable,
conjugate remaps each code by the alphabet's involution and conjugates its
coefficient in the same pass, is_real compares each term with its partner
under the involution, real_part and imag_part are (f + conj f) / 2 and
(f - conj f) / 2i, at_zero moves what is left after setting variables to
zero by rename, and compose_many substitutes monomials the same way.
Jet.at_zero is the one restriction, to slices through the origin;
compose_many substitutes only jets without constant term.

Products go through the kernel (_kernels). Scaling, derivatives and sums
go through the coefficient-map functions of rationals (scaled, multiple,
merged), which take only the gcds that can be nontrivial: a scalar is
classified once per jet, a unit takes no gcd, a scalar on an axis two
gcds with its own numerator and denominator, an exponent e >= 2 one gcd
with e, and a sum over equal denominators normalizes over that
denominator.

Jet.unit_inverse and jet_sqrt solve a * y = 1 and y * y = a degree by
degree (Knuth, TAOCP Vol. 2, 4.7). The degree-k layer of either equation
is y_k times a unit plus products of layers below k, so y_k is exact
once they are. The operands are split once into unpacked homogeneous
layers; the product of a degree-j and a degree-(k - j) layer goes
through _kernels.mul_into at cap k, where all its pairs land, and each
layer is normalized once by finish. That costs the pairs of one product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from . import _kernels
from .alphabet import Alphabet
from .errors import (
    AlphabetMismatchError,
    NonUnitConstantError,
    NotDivisibleError,
    OrderMismatchError,
    PreconditionError,
)
from .rationals import (
    HALF,
    MINUS_HALF_I,
    ZERO,
    GaussianRational,
    as_gaussian,
    merged,
    multiple,
    scaled,
)

Scalar = int | Fraction | GaussianRational


class Jet:
    __slots__ = ("alphabet", "order", "terms")

    def __init__(self, alphabet: Alphabet, order: int, terms: Mapping[int, GaussianRational]):
        if order < 0:
            raise PreconditionError("jet order must be nonnegative")
        alphabet.check_order(order)
        clean = {}
        for code, coeff in terms.items():
            if alphabet.degree(code) > order:
                raise PreconditionError(
                    f"term of degree {alphabet.degree(code)} exceeds declared order {order}"
                )
            if not coeff.is_zero():
                clean[code] = coeff
        self.alphabet = alphabet
        self.order = order
        self.terms = clean

    @classmethod
    def _raw(cls, alphabet: Alphabet, order: int, terms: dict) -> Jet:
        """Internal constructor: terms already validated and zero-free."""
        self = object.__new__(cls)
        self.alphabet = alphabet
        self.order = order
        self.terms = terms
        return self

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, order: int) -> Jet:
        return cls(alphabet, order, {})

    @classmethod
    def constant(cls, alphabet: Alphabet, order: int, value: Scalar) -> Jet:
        v = as_gaussian(value)
        return cls(alphabet, order, {} if v.is_zero() else {0: v})

    @classmethod
    def variable(cls, alphabet: Alphabet, order: int, name: str) -> Jet:
        if name not in alphabet.index:
            raise PreconditionError(f"unknown variable {name!r}; alphabet has {alphabet.names}")
        if order < 1:
            raise PreconditionError("order must be at least 1 to carry a variable")
        code = alphabet.encode_dict({name: 1})
        return cls._raw(alphabet, order, {code: as_gaussian(1)})

    @classmethod
    def from_terms(
        cls, alphabet: Alphabet, order: int, data: Mapping[tuple[int, ...], Scalar]
    ) -> Jet:
        """Build from exponent vector -> coefficient data."""
        return cls(alphabet, order, {alphabet.encode(k): as_gaussian(v) for k, v in data.items()})

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> GaussianRational:
        return self.terms.get(0, ZERO)

    def coefficient(self, exponents: Mapping[str, int]) -> GaussianRational:
        code = self.alphabet.encode_dict(exponents)
        if self.alphabet.degree(code) > self.order:
            raise PreconditionError(
                f"coefficient of degree {self.alphabet.degree(code)} is beyond order {self.order}"
            )
        return self.terms.get(code, ZERO)

    def valuation(self) -> int:
        """Lowest total degree carrying a nonzero term; a zero jet of order
        m counts as m + 1."""
        return self.order + 1 if not self.terms else self.alphabet.degree(min(self.terms))

    def support(self) -> set[str]:
        """Variables appearing with a positive exponent."""
        # A field is nonzero in the OR of all codes iff some term uses it.
        used = 0
        for code in self.terms:
            used |= code
        alpha = self.alphabet
        return {n for n, s in zip(alpha.names, alpha.shifts) if (used >> s) & alpha.mask}

    def monomials(self) -> Iterator[tuple[tuple[int, ...], GaussianRational]]:
        """Terms in the canonical graded order."""
        decode = self.alphabet.decode
        for code in sorted(self.terms):
            yield decode(code), self.terms[code]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.order == other.order
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.order, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        body = self.to_text()
        return f"<Jet O({self.order}) {body}>"

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        names = self.alphabet.names
        parts = []
        for vec, coeff in self.monomials():
            mono = _monomial_text(names, vec)
            cs = str(coeff)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(cs if not mono else f"{cs}*{mono}")
        return " + ".join(parts)

    # ------------------------------------------------------------------
    # order management
    # ------------------------------------------------------------------

    def truncate(self, order: int) -> Jet:
        """Drop all terms of degree above ``order`` and lower the order."""
        if order > self.order:
            raise OrderMismatchError(f"cannot truncate order {self.order} jet up to {order}")
        if order == self.order:
            return self
        deg = self.alphabet.degree
        return Jet._raw(
            self.alphabet, order, {c: v for c, v in self.terms.items() if deg(c) <= order}
        )

    def _check_alphabet(self, other: Jet) -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(
                f"operands over {self.alphabet.names} and {other.alphabet.names}"
            )

    def _check_compatible(self, other: Jet) -> None:
        self._check_alphabet(other)
        if self.order != other.order:
            raise OrderMismatchError(
                f"operand orders {self.order} and {other.order} differ; truncate explicitly"
            )

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other: object) -> Jet:
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet._raw(self.alphabet, self.order, merged(self.terms, other.terms))
        if isinstance(other, (int, Fraction, GaussianRational)):
            v = as_gaussian(other)
            if v.is_zero():
                return self
            return Jet._raw(self.alphabet, self.order, merged(self.terms, {0: v}))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> Jet:
        return Jet._raw(self.alphabet, self.order, {c: -v for c, v in self.terms.items()})

    def __sub__(self, other: object) -> Jet:
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet._raw(self.alphabet, self.order, merged(self.terms, other.terms, True))
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self + (-as_gaussian(other))
        return NotImplemented

    def __rsub__(self, other: object) -> Jet:
        return (-self) + other

    def __mul__(self, other: object) -> Jet:
        if isinstance(other, Jet):
            self._check_alphabet(other)
            order = self.order
            if other.order != order:
                # The unknown part of each factor, times the other factor.
                order = min(
                    max(order, other.order),
                    order + other.valuation(),
                    other.order + self.valuation(),
                )
            terms = _kernels.mul_terms(self.terms, other.terms, self.alphabet.deg_shift, order)
            return Jet._raw(self.alphabet, order, terms)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Jet._raw(self.alphabet, self.order, scaled(self.terms, as_gaussian(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Jet:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise PreconditionError("negative jet powers go through unit_inverse")
        out = Jet.constant(self.alphabet, self.order, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------

    def derive(self, name: str) -> Jet:
        """Formal partial derivative; the result is reliable one order lower."""
        shift, mask, step = self._coordinate_step(name, "cannot derive an order-0 jet")
        terms = {}
        for code, coeff in self.terms.items():
            e = (code >> shift) & mask
            if e:
                terms[code - step] = multiple(coeff, e)
        return Jet._raw(self.alphabet, self.order - 1, terms)

    def divide_by_coordinate(self, name: str) -> Jet:
        """Exact division by a variable; the result is reliable one order lower."""
        shift, mask, step = self._coordinate_step(
            name, "cannot divide an order-0 jet by a coordinate"
        )
        terms = {}
        for code, coeff in self.terms.items():
            if not (code >> shift) & mask:
                alpha = self.alphabet
                mono = _monomial_text(alpha.names, alpha.decode(code)) or "1"
                raise NotDivisibleError(f"monomial {mono} lacks a factor of {name!r}")
            terms[code - step] = coeff
        return Jet._raw(self.alphabet, self.order - 1, terms)

    def _coordinate_step(self, name: str, order_zero: str) -> tuple[int, int, int]:
        """(shift, mask, step) of ``name``: its exponent in a code is
        (code >> shift) & mask, and code - step lowers it and the degree
        by one. An order-0 jet raises ``order_zero``, since the result
        would have order -1."""
        if self.order == 0:
            raise PreconditionError(order_zero)
        alpha = self.alphabet
        if name not in alpha.index:
            raise PreconditionError(f"unknown variable {name!r}")
        shift = alpha.shifts[alpha.index[name]]
        return shift, alpha.mask, (1 << shift) + (1 << alpha.deg_shift)

    # ------------------------------------------------------------------
    # conjugation and reality
    # ------------------------------------------------------------------

    def conjugate(self) -> Jet:
        """Coefficient conjugation combined with the alphabet involution.

        The involution is a bijection on codes, so no two terms merge and
        one pass remaps each code and conjugates its coefficient.
        """
        images = self._involution_images()
        remap = self.alphabet.remap
        return Jet._raw(
            self.alphabet,
            self.order,
            {remap(c, images): v.conjugate() for c, v in self.terms.items()},
        )

    def is_real(self) -> bool:
        """True when conjugation reproduces the jet exactly.

        The involution is a bijection on codes, so it suffices that every
        term's partner under it carries the conjugate coefficient; no
        conjugated jet is built.
        """
        images = self._involution_images()
        remap = self.alphabet.remap
        terms = self.terms
        for code, v in terms.items():
            w = terms.get(remap(code, images))
            if w is None or w.a != v.a or w.b != -v.b or w.d != v.d:
                return False
        return True

    def real_part(self) -> Jet:
        """(self + conj(self)) / 2."""
        return (self + self.conjugate()) * HALF

    def imag_part(self) -> Jet:
        """(self - conj(self)) / 2i."""
        return (self - self.conjugate()) * MINUS_HALF_I

    def _involution_images(self) -> list[tuple[int, int]]:
        """Alphabet.remap images of the involution on the support variables."""
        alpha = self.alphabet
        if alpha.conj_map is None:
            raise PreconditionError(f"alphabet {alpha.names} carries no conjugation")
        return self._images(alpha.conj_map, alpha)

    # ------------------------------------------------------------------
    # units
    # ------------------------------------------------------------------

    def unit_inverse(self) -> Jet:
        """Inverse of this jet a, whose constant term c must be nonzero,
        degree by degree: the degree-k layer of a * y = 1 reads
        c y_k + sum_{j=1..k} a_j y_{k-j} = 0, so y_0 = 1/c and y_k is the
        sum of the b_j y_{k-j} with b = -(a - c)/c. The pairs are those of
        the one product b * y (module docstring)."""
        c = self.constant_term()
        if c.is_zero():
            raise NonUnitConstantError("inverse of a jet with zero constant term")
        inv = c.inverse()
        b = _layers(scaled(self.terms, -inv), self.alphabet.deg_shift, self.order)
        return _by_degree(self.alphabet, self.order, inv,
                          lambda k, y: [(b[j], y[k - j]) for j in range(1, k + 1)])

    # ------------------------------------------------------------------
    # variable plumbing
    # ------------------------------------------------------------------

    def rename(self, mapping: Mapping[str, str], target: Alphabet) -> Jet:
        """Re-express over ``target``, renaming variables per ``mapping``.

        Variables outside the jet's support may be omitted. If two source
        variables map to one target name their exponents add.
        """
        images = self._images(mapping, target)
        remap = self.alphabet.remap
        terms: dict[int, GaussianRational] = {}
        for code, coeff in self.terms.items():
            new_code = remap(code, images)
            prev = terms.get(new_code)
            terms[new_code] = coeff if prev is None else prev + coeff
        # The constructor refuses an order above target.max_exponent, the
        # bound under which no exponent overflows a narrower target field.
        return Jet(target, self.order, terms)

    def at_zero(self, names: Iterable[str], target: Alphabet) -> Jet:
        """The jet with each variable of ``names`` set to zero, over
        ``target``, at the same order; the other variables map to their
        namesakes in ``target``.

        A term with a variable set to zero is dropped with no coefficient
        arithmetic. Over this jet's own alphabet the kept terms keep their
        codes; otherwise codes are moved by rename.
        """
        alpha = self.alphabet
        zeros = 0
        for name in names:
            if name not in alpha.index:
                raise PreconditionError(f"unknown variable {name!r}")
            zeros |= alpha.mask << alpha.shifts[alpha.index[name]]
        kept = Jet._raw(alpha, self.order, {c: v for c, v in self.terms.items() if not c & zeros})
        return kept if target == alpha else kept.rename({}, target)

    def _images(self, mapping: Mapping[str, str], target: Alphabet) -> list[tuple[int, int]]:
        """Alphabet.remap images sending each support variable to its
        ``mapping`` image (itself when unmapped) in ``target``."""
        alpha = self.alphabet
        support = self.support()
        one = 1 << target.deg_shift
        images = []
        for name, shift in zip(alpha.names, alpha.shifts):
            if name in support:
                j = target.index.get(mapping.get(name, name))
                if j is None:
                    raise PreconditionError(
                        f"support variable {name!r} has no image in the target alphabet"
                    )
                images.append((shift, (1 << target.shifts[j]) + one))
        return images


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------


def _monomial_text(names: Sequence[str], vec: Sequence[int]) -> str:
    """x*y^2 style text of an exponent vector; "" for the constant."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, vec) if e)


def generators(alphabet: Alphabet, order: int) -> dict[str, Jet]:
    """One degree-1 jet per variable."""
    return {name: Jet.variable(alphabet, order, name) for name in alphabet.names}


def compose_many(
    outers: Sequence[Jet],
    assignment: Mapping[str, Jet],
    *,
    alphabet: Alphabet | None = None,
    order: int | None = None,
) -> list[Jet]:
    """Substitute jets for variables in several jets sharing one assignment.

    Assigned jets live over one common target alphabet. A variable in the
    support of an outer jet that the assignment leaves out maps to the
    variable of the same name in the target, an exact identity, and is an
    error if the target has none. Every assigned jet must have zero
    constant term, so that each substitute has valuation at least 1;
    zeros are set by Jet.at_zero. The result order is the least
    participating order, the minimum of the outer orders, the assigned
    jet orders and ``order`` if given. An ``order`` above it gets the
    composition rule of the module docstring, capped at ``order``: an
    unassigned outer variable caps mu at 1. A result order past the
    target's packing limit raises.

    A left-out variable, or one whose substitute, truncated to the result
    order, is one non-constant monomial with coefficient exactly 1 (an
    identity, a renaming, x -> y^2), is substituted by Alphabet.remap, the
    loop that also renames and conjugates: its part of a term becomes e
    times the monomial's code, and the term is dropped when that part's
    degree passes the result order. The other variables U are grouped:
    each outer's terms are collected by their exponents b in U
    into one polynomial P_b over the target, and the result is
    sum_b P_b * U^b, accumulated in each outer's raw (a, b, d)
    accumulator, seeded with P_0, and normalized once per output
    monomial at the end. Every product is one _kernels.mul_into call,
    which takes the shorter operand as its outer loop, and an intermediate
    operand is kept in the kernel's unpacked form, exact but not reduced
    (_kernels.finish_unpacked), since it is never a result: only the
    results are normalized.

    One outer is evaluated by Horner's rule, nested over the grouped
    variables with the last one outermost: for that variable, with
    substitute U of valuation mu, acc = R_top, then acc = R_e + U * acc
    for e = top - 1, ..., 0, where R_e is the same evaluation over the
    other grouped variables. The partial sum of step e is multiplied by
    U^e, of valuation at least e * mu, so it and R_e are computed only
    to result_order - e * mu; no power U^b is built. Several outers
    share one table of powers instead: each U^b any of them needs is one
    fused product of two memoised shorter ones, and every P_b * U^b of
    each outer is multiplied into its accumulator. The number of outers
    selects the path: Horner's rule for all of them at once would repeat
    every product per outer. Prefer one call over several that share an
    assignment.
    """
    if not outers:
        return []
    src = outers[0].alphabet
    for o in outers:
        if o.alphabet != src:
            raise AlphabetMismatchError("outer jets must share one alphabet")

    least = min(o.order for o in outers)
    target = alphabet
    for name, value in assignment.items():
        if name not in src.index:
            raise PreconditionError(f"assignment names unknown variable {name!r}")
        if not isinstance(value, Jet):
            raise PreconditionError(f"substitution for {name!r} is not a jet; "
                                    "variables are set to zero by Jet.at_zero")
        if target is None:
            target = value.alphabet
        elif value.alphabet != target:
            raise AlphabetMismatchError("substituted jets must share one alphabet")
        const = value.constant_term()
        if not const.is_zero():
            raise PreconditionError(f"substitution for {name!r} has constant term {const}; "
                                    "variables are set to zero by Jet.at_zero")
        least = min(least, value.order)
    if target is None:
        raise PreconditionError("an empty assignment needs an explicit target alphabet")

    support: set[str] = set().union(*(o.support() for o in outers))
    missing = sorted(n for n in support - assignment.keys() if n not in target.index)
    if missing:
        raise PreconditionError(f"assignment misses support variables {missing}")
    result_order = least
    if order is not None:
        result_order = order
        if order > least:
            result_order = _reliable_order(outers, assignment, support, order)
    target.check_order(result_order)

    mask = src.mask
    deg_shift = target.deg_shift
    # Source fields of monomial substitutes and their target codes.
    monomial: list[tuple[int, int]] = []
    # Source fields of the other variables U. U^b is keyed by the source
    # code of b (its U fields, no degree field); the substitutes are the
    # products of length one, unpacked.
    grouped: list[int] = []
    products: dict[int, list[tuple[int, int, int, int]]] = {}
    group_mask = 0
    for name, shift in zip(src.names, src.shifts):
        if name not in support:
            continue
        v = assignment.get(name)
        if v is None:
            monomial.append((shift, target.encode_dict({name: 1})))
            continue
        terms = v.truncate(min(v.order, result_order)).terms
        if len(terms) == 1:
            ((code, c),) = terms.items()
            if code and c.a == 1 and c.b == 0 and c.d == 1:
                monomial.append((shift, code))
                continue
        grouped.append(shift)
        products[1 << shift] = _kernels.unpack(terms)
        group_mask |= mask << shift

    # Group every outer's terms by b first. Each outer's accumulator maps a
    # target code to a raw [a, b, d] sum, seeded with P_0.
    remap = src.remap
    accs: list[dict[int, list[int]]] = []
    grouped_polys: list[dict[int, dict[int, GaussianRational]]] = []
    for o in outers:
        groups: dict[int, dict[int, GaussianRational]] = {}
        for code, coeff in o.terms.items():
            # Past the result order the monomial part is dropped. The check
            # is exact: a field can carry only when the total degree passes
            # the order, and a carry only raises the degree field.
            mono = remap(code, monomial)
            if mono >> deg_shift > result_order:
                continue
            b = code & group_mask
            poly = groups.get(b)
            if poly is None:
                groups[b] = {mono: coeff}
            elif mono in poly:
                s = poly[mono] + coeff
                if s.a or s.b:
                    poly[mono] = s
                else:
                    del poly[mono]
            else:
                poly[mono] = coeff
        accs.append({c: [v.a, v.b, v.d] for c, v in groups.pop(0, {}).items()})
        grouped_polys.append(groups)

    if len(outers) == 1:
        _horner(accs[0], grouped_polys[0], len(grouped), result_order,
                grouped, products, mask, deg_shift)
        return [Jet._raw(target, result_order, _kernels.finish(accs[0]))]

    # A longer U^b is the product of two shorter ones: x^e = x^(e-1) * x,
    # and a product of several variables is the one without its last
    # variable times that variable's power.
    def halves(b: int) -> tuple[int, int] | None:
        for shift in reversed(grouped):
            e = (b >> shift) & mask
            if e:
                break
        power = e << shift
        if b != power:
            return b - power, power
        if e > 1:
            return power - (1 << shift), 1 << shift
        return None

    # Each U^b is built once, used by every outer that has the group, and
    # kept only if a longer product is built from it.
    users: dict[int, list[tuple[dict, dict]]] = {}
    for groups, acc in zip(grouped_polys, accs):
        for b, poly in groups.items():
            users.setdefault(b, []).append((poly, acc))
    kept: set[int] = set()
    pending = list(users)
    while pending:
        parts = halves(pending.pop())
        if parts:
            for part in parts:
                if part not in kept:
                    kept.add(part)
                    pending.append(part)

    # Both halves of U^b have smaller codes than b: ascending order builds
    # every product after its halves.
    for b in sorted(kept.union(users)):
        ub = products.get(b)
        if ub is None:
            built: dict[int, list[int]] = {}
            _kernels.mul_into(built, *(products[half] for half in halves(b)), deg_shift, result_order)
            ub = _kernels.finish_unpacked(built)
            if b in kept:
                products[b] = ub
        for poly, acc in users.get(b, ()):
            _kernels.mul_into(acc, _kernels.unpack(poly), ub, deg_shift, result_order)
    return [Jet._raw(target, result_order, _kernels.finish(acc)) for acc in accs]


def _horner(acc: dict, polys: dict, k: int, cap: int,
            grouped: list[int], substitutes: dict, mask: int, deg_shift: int) -> None:
    """Add sum_b P_b * U^b over the first k grouped variables, b != 0, to
    the raw accumulator acc, which already holds P_0; polys maps b to P_b
    and substitutes maps the code of one variable to its unpacked U.

    The last variable v that some b uses is outermost: with R_e the same
    sum over the other variables for the groups whose v-exponent is e,
    acc = R_top, then acc = R_e + U * acc for e = top - 1, ..., 0. Each
    step is one fused product into a fresh accumulator seeded with R_e,
    kept as raw unreduced sums; the last step goes into acc. It is a
    module function, not a closure in compose_many: a recursive closure
    refers to itself, and that cycle would keep each call's substitutes
    alive until the cyclic garbage collector runs.
    """
    for k in range(k, 0, -1):
        shift = grouped[k - 1]
        if any((b >> shift) & mask for b in polys):
            break
    else:
        return
    u = substitutes[1 << shift]
    mu = u[0][0] >> deg_shift if u else cap + 1
    by_e: dict[int, dict] = {}
    for b, poly in polys.items():
        e = (b >> shift) & mask
        by_e.setdefault(e, {})[b - (e << shift)] = poly
    # The partial sum of step e is multiplied by U^e, of valuation at
    # least e * mu, so only its terms up to cap - e * mu can reach the
    # result: R_e is computed to that cap, and an e where it is negative
    # is dropped.
    top = max((e for e in by_e if e * mu <= cap), default=0)
    layout = grouped, substitutes, mask, deg_shift
    inner: list = []
    for e in range(top, 0, -1):
        step_cap = cap - e * mu
        part = by_e.get(e, {})
        fresh = {c: [v.a, v.b, v.d] for c, v in part.get(0, {}).items()
                 if c >> deg_shift <= step_cap}
        _horner(fresh, part, k - 1, step_cap, *layout)
        if inner:
            _kernels.mul_into(fresh, u, inner, deg_shift, step_cap)
        inner = _kernels.finish_unpacked(fresh)
    _horner(acc, by_e.get(0, {}), k - 1, cap, *layout)
    if inner:
        _kernels.mul_into(acc, u, inner, deg_shift, cap)


def _reliable_order(outers: Sequence[Jet], assigned: Mapping[str, Jet],
                    support: set[str], cap: int) -> int:
    """compose_many's derived result order, capped at ``cap``: the bounds
    are read only where they could fall below it."""
    src = outers[0].alphabet
    bound = cap
    n = min(o.order for o in outers)
    if n < cap:
        # An unknown outer term has degree >= N + 1, each of its variables
        # a substitute of valuation >= mu (>= 1 if unassigned).
        mu = min((v.valuation() for v in assigned.values()), default=cap + 1)
        bound = min(cap, (n + 1) * (mu if len(assigned) == src.nvars else 1) - 1)
    # The unknown part of u_v, of valuation >= m_v + 1, moves f(u) by
    # d_v f(u) times it; a product of two such parts lies past 2 m_v + 1.
    mask, deg_shift = src.mask, src.deg_shift
    for name, shift in zip(src.names, src.shifts):
        v = assigned.get(name) if name in support else None
        if v is not None and v.order < bound:
            low = min(c >> deg_shift for o in outers for c in o.terms if (c >> shift) & mask)
            bound = min(bound, 2 * v.order + 1, v.order + low - 1)
    return bound


def jet_sqrt(a: Jet) -> Jet:
    """Square root of a jet with constant term exactly 1 (the +1 branch),
    degree by degree: the degree-k layer of y * y = a gives y_0 = 1 and

        y_k = (a_k - 2 sum_{0<j<k-j} y_j y_{k-j} - [k even] y_{k/2}^2) / 2.

    Each unordered pair of layers is one product, so the pairs are at
    most those of y * y (module docstring).

    Callers holding a jet with constant c^2 must rescale explicitly;
    silent rescaling would hide a branch choice.
    """
    if a.constant_term() != as_gaussian(1):
        raise NonUnitConstantError(
            f"jet_sqrt needs constant term 1, got {a.constant_term()}"
        )
    layers = _layers(a.terms, a.alphabet.deg_shift, a.order)

    def pairs(k: int, y: list) -> list:
        # -y_j y_{k-j} for j < k - j and -y_j^2 / 2 for j = k - j.
        return [([(c, -p, -q, d if 2 * j < k else 2 * d) for c, p, q, d in y[j]], y[k - j])
                for j in range(1, k // 2 + 1)]

    return _by_degree(a.alphabet, a.order, a.terms[0], pairs,
                      lambda k: {c: [p, q, 2 * d] for c, p, q, d in layers[k]})


def _layers(terms: dict, deg_shift: int, order: int) -> list[list]:
    """The homogeneous layers 0..order of a coefficient map, unpacked."""
    layers: list[list] = [[] for _ in range(order + 1)]
    for term in _kernels.unpack(terms):
        layers[term[0] >> deg_shift].append(term)
    return layers


def _by_degree(alphabet: Alphabet, order: int, y0: GaussianRational, pairs, seed=None) -> Jet:
    """The jet with nonzero constant term y0 whose degree-k layer,
    k = 1..order, is seed(k), a raw accumulator if given, plus the
    products of the unpacked layer pairs pairs(k, y), y the layers below
    k: each pair lands in degree k."""
    terms = {0: y0}
    y = [[(0, y0.a, y0.b, y0.d)]]
    for k in range(1, order + 1):
        acc = seed(k) if seed else {}
        for left, right in pairs(k, y):
            if left and right:
                _kernels.mul_into(acc, left, right, alphabet.deg_shift, k)
        layer = _kernels.finish(acc)
        terms.update(layer)
        y.append(_kernels.unpack(layer))
    return Jet._raw(alphabet, order, terms)
