"""Ordered variable alphabets with an optional conjugation involution.

Monomials over an alphabet are packed into single integers: one bit field
per variable plus the total degree in the topmost field. Consequences the
rest of the package relies on:

  * monomial product is integer addition of codes;
  * ascending code order is a graded order (degree first), fixed once per
    alphabet, which makes serialization canonical;
  * alphabets with at most 9 variables use 6-bit fields, so every code of
    a jet of order <= 30 fits in a signed 64-bit word and code arithmetic
    stays on machine-size ints; larger alphabets fall back to 16-bit
    fields.

Conjugation is a name-level involution. Variables the involution fixes are
real. An alphabet may also carry no conjugation at all (holomorphic side
computations), in which case conjugation-dependent jet operations refuse
to run rather than guess.

One method, ``remap``, moves monomial codes from one set of variables to
another: it serves renaming, conjugation (a renaming by the involution)
and monomial substitution alike.

The package's fixed alphabets are shared. germs.standard_alphabet and the
segre and equivalence factories keep one alphabet per count (an
``lru_cache`` of INTERN_SIZE entries), and the one-letter alphabets of a
height (x) and of its profile (u) are module constants. Equality still
compares names and conjugation, but between shared alphabets its identity
test decides. No alphabet is changed after construction, which sharing
relies on.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError

SMALL_VAR_BITS = 6
WIDE_VAR_BITS = 16
SMALL_LIMIT = 9  # max variables for the 64-bit packing
INTERN_SIZE = 64  # alphabets an interning factory keeps


class Alphabet:
    __slots__ = (
        "names",
        "index",
        "nvars",
        "var_bits",
        "shifts",
        "deg_shift",
        "mask",
        "max_exponent",
        "conj_map",
        "_hash",
    )

    def __init__(
        self,
        names: Sequence[str],
        conjugation: Mapping[str, str] | None = None,
    ):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PreconditionError(f"duplicate variable names in {names}")
        if not names:
            raise PreconditionError("alphabet needs at least one variable")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.nvars = len(names)
        self.var_bits = SMALL_VAR_BITS if self.nvars <= SMALL_LIMIT else WIDE_VAR_BITS
        # Variable 0 owns the most significant field below the degree field,
        # so ascending code order refines ascending total degree.
        self.shifts = tuple(
            self.var_bits * (self.nvars - 1 - i) for i in range(self.nvars)
        )
        self.deg_shift = self.var_bits * self.nvars
        self.mask = (1 << self.var_bits) - 1
        # Exponent cap leaves one bit of headroom: two in-range exponents
        # may be added (code addition) without crossing field boundaries.
        self.max_exponent = (1 << (self.var_bits - 1)) - 2

        if conjugation is None:
            self.conj_map = None
        else:
            full = dict(conjugation)
            # Each pair may be given in one direction only.
            for n, m in list(full.items()):
                full.setdefault(m, n)
            for n in names:
                full.setdefault(n, n)
            for n, m in full.items():
                if n not in self.index or m not in self.index:
                    raise PreconditionError(f"conjugation names unknown variable: {n} -> {m}")
                if full.get(m) != n:
                    raise PreconditionError(f"conjugation is not an involution at {n!r}")
            self.conj_map = full
        self._hash = hash((self.names, None if self.conj_map is None else tuple(sorted(self.conj_map.items()))))

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.names == other.names and self.conj_map == other.conj_map

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names)!r})"

    # ------------------------------------------------------------------
    # monomial codes
    # ------------------------------------------------------------------

    def encode(self, exponents: Sequence[int]) -> int:
        """Pack an exponent vector (aligned with self.names) into a code."""
        if len(exponents) != self.nvars:
            raise PreconditionError(
                f"exponent vector of length {len(exponents)} "
                f"for an alphabet of {self.nvars} variables"
            )
        return self.encode_dict(dict(zip(self.names, exponents)))

    def encode_dict(self, exponents: Mapping[str, int]) -> int:
        """Pack the exponents of the named variables, the others zero, in
        time proportional to the mapping, not to the alphabet."""
        code = 0
        deg = 0
        for name, e in exponents.items():
            i = self.index.get(name)
            if i is None:
                raise PreconditionError(f"unknown variable {name!r}; alphabet has {self.names}")
            if e < 0 or e > self.max_exponent:
                raise PreconditionError(
                    f"exponent {e} outside [0, {self.max_exponent}] for this alphabet"
                )
            code += e << self.shifts[i]
            deg += e
        return code + (deg << self.deg_shift)

    def decode(self, code: int) -> tuple[int, ...]:
        return tuple((code >> s) & self.mask for s in self.shifts)

    def degree(self, code: int) -> int:
        return code >> self.deg_shift

    def remap(self, code: int, images: Iterable[tuple[int, int]]) -> int:
        """Sum ``e * image`` over ``(shift, image)`` pairs, ``e`` the exponent
        in this alphabet's field at ``shift`` and ``image`` a target code,
        degree field included. Unpaired variables drop out. A field carries
        only if the total degree passes the target's max_exponent, and a
        carry only raises the degree field: keeping results whose degree
        field is at most a valid order never keeps a code that carried.
        """
        mask = self.mask
        out = 0
        for shift, image in images:
            e = (code >> shift) & mask
            if e:
                out += e * image
        return out

    # ------------------------------------------------------------------
    # derived alphabets
    # ------------------------------------------------------------------

    def subalphabet(self, names: Iterable[str]) -> Alphabet:
        """Restrict to a subset of variables, keeping their order.

        Conjugation survives only if it maps the subset into itself;
        otherwise the result carries no conjugation.
        """
        wanted = set(names)
        keep = [n for n in self.names if n in wanted]
        if self.conj_map is not None and all(self.conj_map[n] in keep for n in keep):
            conj = {n: self.conj_map[n] for n in keep}
            return Alphabet(keep, conj)
        return Alphabet(keep, None)

    def check_order(self, order: int) -> None:
        """Refuse a jet order past max_exponent, the packing limit: the
        largest order whose monomial codes stay within the fields."""
        if order > self.max_exponent:
            raise PreconditionError(
                f"order {order} exceeds {self.max_exponent}, the packing limit for this alphabet"
            )
