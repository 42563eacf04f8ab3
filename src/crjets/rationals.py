"""Exact Gaussian-rational scalars.

A GaussianRational is (a + b*i)/d with integer a, b and positive integer d,
normalized so gcd(a, b, d) == 1. A single shared denominator keeps the hot
multiplication loop at one gcd per normalization instead of two, which is
why this class exists instead of a pair of fractions.Fraction.

Instances are immutable by convention: no method mutates self, and the
slots are written only during construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Union

ScalarLike = Union[int, Fraction, "GaussianRational"]


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
    def from_normalized(cls, a: int, b: int, d: int) -> GaussianRational:
        """Wrap integers already satisfying d > 0, gcd(a, b, d) == 1."""
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.d = d
        return self

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
        return GaussianRational.from_normalized(self.a, -self.b, self.d)

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
        return GaussianRational.from_normalized(-self.a, -self.b, self.d)

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

    def __pow__(self, n: int) -> GaussianRational:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

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
        return GaussianRational.from_normalized(int(x), 0, 1)
    if isinstance(x, Fraction):
        return GaussianRational.from_normalized(x.numerator, 0, x.denominator)
    return NotImplemented


def as_gaussian(x: ScalarLike) -> GaussianRational:
    """Coerce int, Fraction, or GaussianRational; reject anything else."""
    g = _coerce(x)
    if g is NotImplemented:
        raise TypeError(f"expected an exact scalar, got {type(x).__name__}")
    return g


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
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)
HALF = GaussianRational(Fraction(1, 2))
HALF_I = GaussianRational(0, Fraction(1, 2))
MINUS_HALF_I = GaussianRational(0, Fraction(-1, 2))
