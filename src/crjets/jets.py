"""Truncated multivariate formal power series (jets) over exact scalars.

A Jet stores the coefficients of a polynomial of total degree <= order in
the variables of an Alphabet, with Gaussian-rational coefficients. The
order is a reliability statement, not a degree bound: coefficients beyond
it are unknown, never assumed zero. Every operation states what it does to
the order:

  * ring operations and powers keep the common order (strict: operands
    must agree on alphabet and order, truncate explicitly first);
  * derive loses one order;
  * divide_by_coordinate loses one order;
  * compose returns the minimum of the participating orders;
  * unit_inverse and jet_sqrt keep the order.

Storage is a sparse dict from packed monomial code to coefficient; zero
coefficients are never stored. Term order for iteration and serialization
is the alphabet's graded order (ascending code), so equal jets print and
serialize identically. Codes move between variables only through
Alphabet.remap: rename maps each variable to one target variable,
conjugate is a rename by the alphabet's involution followed by coefficient
conjugation, is_real compares each term with its partner under the
involution, real_part and imag_part combine the two in one pass, and
compose_many substitutes monomials the same way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from . import _kernels
from .alphabet import Alphabet
from .errors import (
    AlphabetMismatchError,
    InvariantError,
    NonUnitConstantError,
    NotDivisibleError,
    OrderMismatchError,
    PreconditionError,
)
from .rationals import ZERO, GaussianRational, as_gaussian

Scalar = int | Fraction | GaussianRational


class Jet:
    __slots__ = ("alphabet", "order", "terms")

    def __init__(self, alphabet: Alphabet, order: int, terms: Mapping[int, GaussianRational]):
        if order < 0:
            raise PreconditionError("jet order must be nonnegative")
        if order > alphabet.max_order():
            raise PreconditionError(
                f"order {order} exceeds {alphabet.max_order()}, the packing limit for this alphabet"
            )
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
        cls,
        alphabet: Alphabet,
        order: int,
        data: Mapping[tuple[int, ...] | frozenset, Scalar] | Iterable[tuple[Mapping[str, int], Scalar]],
    ) -> Jet:
        """Build from (exponent vector | exponent dict) -> coefficient data."""
        terms: dict[int, GaussianRational] = {}
        items = data.items() if isinstance(data, Mapping) else data
        for key, value in items:
            if isinstance(key, tuple):
                code = alphabet.encode(key)
            else:
                code = alphabet.encode_dict(dict(key))
            coeff = terms.get(code, ZERO) + as_gaussian(value)
            if coeff.is_zero():
                terms.pop(code, None)
            else:
                terms[code] = coeff
        return cls(alphabet, order, terms)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> GaussianRational:
        return self.terms.get(0, ZERO)

    def coefficient(self, exponents: Mapping[str, int] | tuple[int, ...]) -> GaussianRational:
        if isinstance(exponents, tuple):
            code = self.alphabet.encode(exponents)
        else:
            code = self.alphabet.encode_dict(dict(exponents))
        if self.alphabet.degree(code) > self.order:
            raise PreconditionError(
                f"coefficient of degree {self.alphabet.degree(code)} is beyond order {self.order}"
            )
        return self.terms.get(code, ZERO)

    def valuation(self) -> int | None:
        """Lowest total degree carrying a nonzero term; None for the zero jet."""
        if not self.terms:
            return None
        return self.alphabet.degree(min(self.terms))

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

    def homogeneous_part(self, degree: int) -> Jet:
        deg = self.alphabet.degree
        return Jet._raw(
            self.alphabet,
            self.order,
            {c: v for c, v in self.terms.items() if deg(c) == degree},
        )

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
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, vec)
                if e
            ]
            mono = "*".join(factors)
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
            raise OrderMismatchError(
                f"cannot truncate order {self.order} jet up to {order}; use with_order"
            )
        if order == self.order:
            return self
        deg = self.alphabet.degree
        return Jet._raw(
            self.alphabet, order, {c: v for c, v in self.terms.items() if deg(c) <= order}
        )

    def with_order(self, order: int) -> Jet:
        """Re-declare the reliable order.

        Lowering truncates. Raising is an assertion by the caller that the
        missing coefficients cannot influence the use the result is put to
        (a valuation argument at the call site); the data is not changed.
        """
        if order <= self.order:
            return self.truncate(order)
        if order > self.alphabet.max_order():
            raise PreconditionError("requested order exceeds the packing limit")
        return Jet._raw(self.alphabet, order, dict(self.terms))

    def promote(self, order: int, *, min_valuation: int) -> Jet:
        """Raise the reliable order on a checked valuation argument.

        The caller argues that the missing coefficients cannot influence
        the use the result is put to because no term of this jet has
        degree below ``min_valuation``. That bound is checked: a term
        below it raises InvariantError. Lowering the order is truncate's
        job and is refused.
        """
        if order < self.order:
            raise OrderMismatchError(
                f"cannot promote order {self.order} jet down to {order}; use truncate"
            )
        low = self.valuation()
        if low is not None and low < min_valuation:
            raise InvariantError(
                f"promotion to order {order} assumes valuation >= {min_valuation}, "
                f"but the jet has a term of degree {low}"
            )
        return self.with_order(order)

    def _check_compatible(self, other: Jet) -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(
                f"operands over {self.alphabet.names} and {other.alphabet.names}"
            )
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
            terms = dict(self.terms)
            for code, coeff in other.terms.items():
                s = terms.get(code, ZERO) + coeff
                if s.is_zero():
                    terms.pop(code, None)
                else:
                    terms[code] = s
            return Jet._raw(self.alphabet, self.order, terms)
        if isinstance(other, (int, Fraction, GaussianRational)):
            v = as_gaussian(other)
            if v.is_zero():
                return self
            terms = dict(self.terms)
            s = terms.get(0, ZERO) + v
            if s.is_zero():
                terms.pop(0, None)
            else:
                terms[0] = s
            return Jet._raw(self.alphabet, self.order, terms)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> Jet:
        return Jet._raw(self.alphabet, self.order, {c: -v for c, v in self.terms.items()})

    def __sub__(self, other: object) -> Jet:
        if isinstance(other, Jet):
            self._check_compatible(other)
            terms = dict(self.terms)
            for code, coeff in other.terms.items():
                s = terms.get(code, ZERO) - coeff
                if s.is_zero():
                    terms.pop(code, None)
                else:
                    terms[code] = s
            return Jet._raw(self.alphabet, self.order, terms)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self + (-as_gaussian(other))
        return NotImplemented

    def __rsub__(self, other: object) -> Jet:
        return (-self) + other

    def __mul__(self, other: object) -> Jet:
        if isinstance(other, Jet):
            self._check_compatible(other)
            terms = _kernels.mul_terms(
                self.terms, other.terms, self.alphabet.deg_shift, self.order
            )
            return Jet._raw(self.alphabet, self.order, terms)
        if isinstance(other, (int, Fraction, GaussianRational)):
            v = as_gaussian(other)
            if v.is_zero():
                return Jet._raw(self.alphabet, self.order, {})
            return Jet._raw(
                self.alphabet, self.order, {c: coeff * v for c, coeff in self.terms.items()}
            )
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
        if self.order == 0:
            raise PreconditionError("cannot derive an order-0 jet")
        alpha = self.alphabet
        if name not in alpha.index:
            raise PreconditionError(f"unknown variable {name!r}")
        shift = alpha.shifts[alpha.index[name]]
        mask = alpha.mask
        step = (1 << shift) + (1 << alpha.deg_shift)
        terms = {}
        for code, coeff in self.terms.items():
            e = (code >> shift) & mask
            if e:
                terms[code - step] = coeff * e
        return Jet._raw(alpha, self.order - 1, terms)

    def divide_by_coordinate(self, name: str) -> Jet:
        """Exact division by a variable; the result is reliable one order lower."""
        if self.order == 0:
            raise PreconditionError("cannot divide an order-0 jet by a coordinate")
        alpha = self.alphabet
        if name not in alpha.index:
            raise PreconditionError(f"unknown variable {name!r}")
        shift = alpha.shifts[alpha.index[name]]
        mask = alpha.mask
        step = (1 << shift) + (1 << alpha.deg_shift)
        terms = {}
        for code, coeff in self.terms.items():
            if not (code >> shift) & mask:
                vec = alpha.decode(code)
                mono = "*".join(
                    n if e == 1 else f"{n}^{e}"
                    for n, e in zip(alpha.names, vec)
                    if e
                ) or "1"
                raise NotDivisibleError(
                    f"monomial {mono} lacks a factor of {name!r}"
                )
            terms[code - step] = coeff
        return Jet._raw(alpha, self.order - 1, terms)

    # ------------------------------------------------------------------
    # conjugation and reality
    # ------------------------------------------------------------------

    def conjugate(self) -> Jet:
        """Coefficient conjugation combined with the alphabet involution."""
        alpha = self.alphabet
        if alpha.conj_map is None:
            raise PreconditionError(f"alphabet {alpha.names} carries no conjugation")
        renamed = self.rename(alpha.conj_map, alpha)
        return Jet._raw(
            alpha, self.order, {c: v.conjugate() for c, v in renamed.terms.items()}
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
        return self._with_conjugate(1)

    def imag_part(self) -> Jet:
        """(self - conj(self)) / 2i."""
        return self._with_conjugate(-1)

    def _with_conjugate(self, sign: int) -> Jet:
        """(self + sign * conj(self)) / 2, turned by -i when sign is -1.

        One pass over partner terms under the involution, as in is_real:
        the coefficient at a code is v + sign * conj(w), w the partner's,
        and a term without a partner also writes the conjugate's lone
        term at the partner code. Each coefficient is normalized once,
        with the factor 1/2 (or -i/2, a swap of the fields) folded in.
        """
        images = self._involution_images()
        remap = self.alphabet.remap
        normalize = GaussianRational.normalize
        terms = self.terms
        out: dict[int, GaussianRational] = {}

        def put(code: int, a: int, b: int, d: int) -> None:
            if a or b:
                out[code] = normalize(a, b, 2 * d) if sign > 0 else normalize(b, -a, 2 * d)

        for code, v in terms.items():
            partner = remap(code, images)
            w = terms.get(partner)
            if w is None:
                put(code, v.a, v.b, v.d)
                put(partner, sign * v.a, -sign * v.b, v.d)
            elif v.d == w.d:
                put(code, v.a + sign * w.a, v.b - sign * w.b, v.d)
            else:
                put(code, v.a * w.d + sign * w.a * v.d, v.b * w.d - sign * w.b * v.d, v.d * w.d)
        return Jet._raw(self.alphabet, self.order, out)

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
        """Geometric-series inverse; requires a nonzero constant term."""
        c = self.constant_term()
        if c.is_zero():
            raise NonUnitConstantError("inverse of a jet with zero constant term")
        cinv = c.inverse()
        n = (self - c) * (-cinv)  # valuation >= 1
        acc = Jet.constant(self.alphabet, self.order, 1)
        power = acc
        for _ in range(self.order):
            power = power * n
            if power.is_zero():
                break
            acc = acc + power
        return acc * cinv

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
        # The constructor refuses an order above target.max_order(), the
        # bound under which no exponent overflows a narrower target field.
        return Jet(target, self.order, terms)

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

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, point: Mapping[str, Scalar]) -> GaussianRational:
        """Exact value of the stored polynomial at a point."""
        vals = []
        for name in self.alphabet.names:
            vals.append(as_gaussian(point[name]) if name in point else None)
        total = ZERO
        for code, coeff in self.terms.items():
            vec = self.alphabet.decode(code)
            term = coeff
            for e, v in zip(vec, vals):
                if e:
                    if v is None:
                        raise PreconditionError("evaluation point misses a support variable")
                    term = term * v**e
            total = total + term
        return total


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------


def generators(alphabet: Alphabet, order: int) -> dict[str, Jet]:
    """One degree-1 jet per variable."""
    return {name: Jet.variable(alphabet, order, name) for name in alphabet.names}


def compose_many(
    outers: Sequence[Jet],
    assignment: Mapping[str, Jet | Scalar],
    *,
    allow_constant: Iterable[str] = (),
    alphabet: Alphabet | None = None,
    order: int | None = None,
) -> list[Jet]:
    """Substitute jets for variables in several jets sharing one assignment.

    Every variable in the support of any outer jet must be assigned a jet
    (or exact scalar) over one common target alphabet. Substituted values
    must have zero constant term unless the variable is listed in
    ``allow_constant``; a constant shift is exact polynomial recentering
    at the stored truncation. The result order is the minimum of the outer
    orders, the substituted jet orders, and ``order`` if given.

    A support variable whose substitute, truncated to the result order,
    is one non-constant monomial with coefficient exactly 1 (an identity,
    a renaming, x -> y^2) is substituted by Alphabet.remap, the loop that
    also renames and conjugates: its part of a term becomes e times the
    monomial's code, and the term is dropped when that part's degree
    passes the result order. The other variables U are
    grouped: each outer's terms are collected by their exponents b in U
    into one polynomial P_b over the target, and the result is P_0 plus
    one truncated product P_b * U^b per group. The products U^b are
    memoised per call and shared by every outer; each is built from a
    memoised shorter one and kept normalized, since it is an operand of
    several products. Each U^b is unpacked once for all its users. Every
    P_b * U^b of one outer is multiplied straight into that outer's raw
    (a, b, d) accumulator, seeded with P_0 and with the shorter operand
    as the kernel's outer loop, and each output monomial is normalized
    once at the end. Prefer one compose_many call over many compose
    calls.
    """
    if not outers:
        return []
    src = outers[0].alphabet
    for o in outers:
        if o.alphabet != src:
            raise AlphabetMismatchError("outer jets must share one alphabet")

    allow = set(allow_constant)
    result_order = min(o.order for o in outers)
    if order is not None:
        result_order = min(result_order, order)

    target = alphabet
    jets_assigned: dict[str, Jet | GaussianRational] = {}
    for name, value in assignment.items():
        if name not in src.index:
            raise PreconditionError(f"assignment names unknown variable {name!r}")
        if isinstance(value, Jet):
            if target is None:
                target = value.alphabet
            elif value.alphabet != target:
                raise AlphabetMismatchError("substituted jets must share one alphabet")
            result_order = min(result_order, value.order)
            jets_assigned[name] = value
        else:
            jets_assigned[name] = as_gaussian(value)
    if target is None:
        raise PreconditionError("all-scalar assignment needs an explicit target alphabet")

    support: set[str] = set().union(*(o.support() for o in outers))
    missing = support - jets_assigned.keys()
    if missing:
        raise PreconditionError(f"assignment misses support variables {sorted(missing)}")
    for name in support:
        v = jets_assigned[name]
        const = v.constant_term() if isinstance(v, Jet) else v
        if not const.is_zero() and name not in allow:
            raise PreconditionError(
                f"substitution for {name!r} has constant term {const}; "
                "recentering must be requested via allow_constant"
            )

    mask = src.mask
    deg_shift = target.deg_shift
    # Source fields of monomial substitutes and their target codes.
    monomial: list[tuple[int, int]] = []
    # Source fields of the other variables U, and their substitutes' terms.
    grouped: list[tuple[int, dict[int, GaussianRational]]] = []
    group_mask = 0
    for name, shift in zip(src.names, src.shifts):
        if name not in support:
            continue
        v = jets_assigned[name]
        if isinstance(v, Jet):
            terms = v.truncate(result_order).terms
        else:
            terms = {} if v.is_zero() else {0: v}
        if len(terms) == 1:
            ((code, c),) = terms.items()
            if code and c.a == 1 and c.b == 0 and c.d == 1:
                monomial.append((shift, code))
                continue
        grouped.append((shift, terms))
        group_mask |= mask << shift

    # U^b is keyed by the source code of b (its U fields, no degree field)
    # and is the product of two shorter ones: x^e = x^(e-1) * x, and a
    # product of several variables is the one without its last variable
    # times that variable's power. The substitutes are the products of
    # length one.
    products = {1 << shift: terms for shift, terms in grouped}

    def halves(b: int) -> tuple[int, int] | None:
        for shift, _ in reversed(grouped):
            e = (b >> shift) & mask
            if e:
                break
        power = e << shift
        if b != power:
            return b - power, power
        if e > 1:
            return power - (1 << shift), 1 << shift
        return None

    # Group every outer's terms by b first. Each U^b is then built once,
    # used by every outer that has the group, and kept only if a longer
    # product is built from it. Each outer's accumulator maps a target
    # code to a raw [a, b, d] sum, seeded with P_0.
    remap = src.remap
    accs: list[dict[int, list[int]]] = []
    users: dict[int, list[tuple[dict, dict]]] = {}
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
        acc = {c: [v.a, v.b, v.d] for c, v in groups.pop(0, {}).items()}
        accs.append(acc)
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
        u = products.get(b)
        if u is None:
            first, second = halves(b)
            u = _kernels.mul_terms(products[first], products[second], deg_shift, result_order)
            if b in kept:
                products[b] = u
        if b not in users:
            continue
        ub = _kernels.unpack(u)
        ucodes = [t[0] for t in ub]
        for poly, acc in users[b]:
            pb = _kernels.unpack(poly)
            if len(pb) <= len(ub):
                _kernels.mul_into(acc, pb, ub, ucodes, deg_shift, result_order)
            else:
                _kernels.mul_into(acc, ub, pb, [t[0] for t in pb], deg_shift, result_order)
    return [Jet._raw(target, result_order, _kernels.finish(acc)) for acc in accs]


def compose(
    outer: Jet,
    assignment: Mapping[str, Jet | Scalar],
    *,
    allow_constant: Iterable[str] = (),
    alphabet: Alphabet | None = None,
    order: int | None = None,
) -> Jet:
    """Single-jet form of compose_many; see there for the contract."""
    return compose_many(
        [outer], assignment, allow_constant=allow_constant, alphabet=alphabet, order=order
    )[0]


def substitute(
    jet: Jet,
    changes: Mapping[str, Jet | Scalar],
    target: Alphabet,
    order: int,
    *,
    allow_constant: Iterable[str] = (),
) -> Jet:
    """Apply ``changes`` to ``jet`` and re-express the result over ``target``.

    Every variable of the jet's alphabet that ``changes`` leaves out and
    ``target`` also carries is mapped to itself; a support variable with
    neither a change nor a namesake in ``target`` is an error. The rest
    is the contract of compose, result order included.
    """
    assignment: dict[str, Jet | Scalar] = {
        name: Jet.variable(target, order, name)
        for name in jet.alphabet.names
        if name not in changes and name in target.index
    }
    assignment.update(changes)
    return compose(
        jet, assignment, allow_constant=allow_constant, alphabet=target, order=order
    )


def jet_sqrt(a: Jet) -> Jet:
    """Square root of a jet with constant term exactly 1 (the +1 branch).

    Callers holding a jet with constant c^2 must rescale explicitly;
    silent rescaling would hide a branch choice.
    """
    if a.constant_term() != as_gaussian(1):
        raise NonUnitConstantError(
            f"jet_sqrt needs constant term 1, got {a.constant_term()}"
        )
    y = Jet.constant(a.alphabet, a.order, 1)
    half = Fraction(1, 2)
    for k in range(1, a.order + 1):
        r = a - y * y
        if r.is_zero():
            break
        y = y + r.homogeneous_part(k) * half
    return y
