"""Exact Gaussian-rational scalars.

A GaussianRational is (a + b*i)/d with integer a, b and positive integer d,
normalized so gcd(a, b, d) == 1. A single shared denominator keeps the hot
multiplication loop at one gcd per normalization instead of two, which is
why this class exists instead of a pair of fractions.Fraction.

Instances are immutable by convention: no method mutates self, and the
slots are written only during construction.

The map functions below (scaled, multiple, merged) do the coefficient
arithmetic of jets outside the product kernel. They take only the gcds
that can be nontrivial for normalized operands, by three content
formulas; a term (a + b*i)/D has D > 0 and gcd(a, b, D) = 1:

  * multiple: for an integer e >= 2, the content of (e*a, e*b, D) is
    gcd(e, D), since gcd(a, b, D) = 1; e = 1 keeps the coefficient;
  * scaled, on an axis: for v = r/delta with gcd(r, delta) = 1, the
    content of (r*a, r*b, D*delta) is gcd(r, D) * gcd(a, b, delta).
    A prime dividing r does not divide delta, and it divides at most
    one of gcd(a, b) and D, so its power in the content is its power in
    gcd(r, D); a prime dividing delta likewise contributes its power in
    gcd(a, b, delta), and no other prime divides r*a, r*b and D*delta.
    For v = r*i/delta the term is first multiplied by i,
    (a, b) -> (-b, a), which keeps it normalized. v = +-1 and v = +-i
    take no gcd at all; off the axes each term is the full product,
    normalized;
  * merged, equal denominators: (a + a')/D and (b + b')/D are
    normalized over D, not over D*D.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Mapping, TypeVar, Union

ScalarLike = Union[int, Fraction, "GaussianRational"]
K = TypeVar("K")


class GaussianRational:
    """Exact complex scalar with rational real and imaginary parts."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        re = _as_fraction(re)
        im = _as_fraction(im)
        d = re.denominator * im.denominator
        a = re.numerator * im.denominator
        b = im.numerator * re.denominator
        g = gcd(a, b, d)
        self.a = a // g
        self.b = b // g
        self.d = d // g

    @classmethod
    def normalize(cls, a: int, b: int, d: int) -> GaussianRational:
        """Wrap integers with any denominator sign and common factors."""
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(a, b, d)
        if g > 1:
            a, b, d = a // g, b // g, d // g
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.d = d
        return self

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def real(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def imag(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_real(self) -> bool:
        return self.b == 0

    def conjugate(self) -> GaussianRational:
        return _wrap(self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: object) -> GaussianRational:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational.normalize(
            self.a * o.d + o.a * self.d,
            self.b * o.d + o.b * self.d,
            self.d * o.d,
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> GaussianRational:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational.normalize(
            self.a * o.d - o.a * self.d,
            self.b * o.d - o.b * self.d,
            self.d * o.d,
        )

    def __rsub__(self, other: object) -> GaussianRational:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self) -> GaussianRational:
        return _wrap(-self.a, -self.b, self.d)

    def __mul__(self, other: object) -> GaussianRational:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational.normalize(
            self.a * o.a - self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d * o.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> GaussianRational:
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational.normalize(self.d * self.a, -self.d * self.b, n)

    def __truediv__(self, other: object) -> GaussianRational:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> GaussianRational:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    # ------------------------------------------------------------------
    # text
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        re, im = self.real, self.imag
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.real!r}, {self.imag!r})"


def _as_fraction(x: int | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build a rational from {type(x).__name__}")


def _coerce(x: object):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        # int() stores a bool as a plain 0 or 1
        return _wrap(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _wrap(x.numerator, 0, x.denominator)
    return NotImplemented


def as_gaussian(x: ScalarLike) -> GaussianRational:
    """Coerce int, Fraction, or GaussianRational; reject anything else."""
    g = _coerce(x)
    if g is NotImplemented:
        raise TypeError(f"expected an exact scalar, got {type(x).__name__}")
    return g


_new = object.__new__


def _wrap(a: int, b: int, d: int) -> GaussianRational:
    """Wrap integers already satisfying d > 0, gcd(a, b, d) == 1."""
    x = _new(GaussianRational)
    x.a = a
    x.b = b
    x.d = d
    return x


def multiple(c: GaussianRational, e: int) -> GaussianRational:
    """e * c for an integer e >= 1, by the content gcd(e, d)."""
    if e == 1:
        return c
    g = gcd(e, c.d)
    if g > 1:
        e //= g
        return _wrap(c.a * e, c.b * e, c.d // g)
    return _wrap(c.a * e, c.b * e, c.d)


def scaled(values: Mapping[K, GaussianRational], v: GaussianRational) -> dict[K, GaussianRational]:
    """{k: c * v} over ``values``; v is classified once, and a zero v
    gives {}. See the module docstring for the gcds each class takes."""
    r, s, delta = v.a, v.b, v.d
    if not r and not s:
        return {}
    if delta == 1:
        parts = (r, s)
        if parts == (1, 0):
            return dict(values)
        if parts == (-1, 0):
            return {k: _wrap(-c.a, -c.b, c.d) for k, c in values.items()}
        if parts == (0, 1):
            return {k: _wrap(-c.b, c.a, c.d) for k, c in values.items()}
        if parts == (0, -1):
            return {k: _wrap(c.b, -c.a, c.d) for k, c in values.items()}
    if r and s:
        out = {}
        for k, c in values.items():
            a, b, d = c.a * r - c.b * s, c.a * s + c.b * r, c.d * delta
            g = gcd(a, b, d)
            out[k] = _wrap(a // g, b // g, d // g) if g > 1 else _wrap(a, b, d)
        return out
    imaginary = not r
    factor = s if imaginary else r
    sign_only = factor == 1 or factor == -1
    out = {}
    for k, c in values.items():
        a, b, d = (-c.b, c.a, c.d) if imaginary else (c.a, c.b, c.d)
        f = factor
        if not sign_only:
            g = gcd(factor, d)
            if g > 1:
                f //= g
                d //= g
        if delta > 1:
            h = gcd(delta, a, b)
            if h > 1:
                out[k] = _wrap(f * (a // h), f * (b // h), d * (delta // h))
                continue
        out[k] = _wrap(f * a, f * b, d * delta)
    return out


def merged(
    values: Mapping[K, GaussianRational], other: Mapping[K, GaussianRational], negate: bool = False
) -> dict[K, GaussianRational]:
    """values + other (values - other if ``negate``) key by key, the keys
    whose sum is zero dropped."""
    out = dict(values)
    for k, y in other.items():
        ya, yb, yd = (-y.a, -y.b, y.d) if negate else (y.a, y.b, y.d)
        x = out.get(k)
        if x is None:
            out[k] = _wrap(ya, yb, yd) if negate else y
            continue
        xd = x.d
        if xd == yd:
            a, b, d = x.a + ya, x.b + yb, xd
        else:
            a, b, d = x.a * yd + ya * xd, x.b * yd + yb * xd, xd * yd
        if not a and not b:
            del out[k]
            continue
        g = gcd(a, b, d)
        out[k] = _wrap(a // g, b // g, d // g) if g > 1 else _wrap(a, b, d)
    return out


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    pn, pd = q.numerator, q.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


ZERO = GaussianRational(0)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)
HALF = GaussianRational(Fraction(1, 2))
HALF_I = GaussianRational(0, Fraction(1, 2))
MINUS_HALF_I = GaussianRational(0, Fraction(-1, 2))
