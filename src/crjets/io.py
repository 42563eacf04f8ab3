"""Exact JSON encoding of jets, germs and map data.

Rationals travel as strings "p/q" (plain "p" when the denominator is 1)
and complex rationals as {"re": "p/q", "im": "r/s"}; nothing is ever
converted through floats. Jet terms are emitted in the canonical graded
order of their alphabet, so equal jets serialize to identical bytes and
re-parsing reproduces them exactly. Parse failures carry the term index
they occurred at.
"""

from __future__ import annotations

import json
import reprlib
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .alphabet import Alphabet
from .errors import ParseError, PreconditionError
from .germs import StructureGerm, make_germ, standard_alphabet
from .jets import Jet
from .rationals import GaussianRational


def fraction_to_text(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def text_to_fraction(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("expected a rational string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            f"floating point value {value!r} is not exact; write it as a string p/q"
        )
    if not isinstance(value, str):
        raise ParseError(f"expected a rational string, got {type(value).__name__}")
    limit = sys.get_int_max_str_digits()
    if limit and _literal_digits(value, limit) > limit:
        raise ParseError(
            f"rational {reprlib.repr(value)} would need an integer of more than "
            f"{limit} decimal digits"
        )
    try:
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {value!r}: {exc}") from None


def _literal_digits(text: str, limit: int) -> int:
    """Bound on the decimal digits of the numerator or denominator that
    Fraction(text) builds, read off the literal without building it.

    A mantissa contributes its digits (the larger side of p/q), and a
    decimal exponent adds its magnitude; an exponent too long to matter
    counts as ``limit + 1``. Malformed literals are left to Fraction.
    """
    mantissa, _, exponent = text.lower().partition("e")
    digits = max(sum(ch.isdigit() for ch in part) for part in mantissa.split("/"))
    magnitude = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if not magnitude.isdigit():
        return digits
    if len(magnitude) > len(str(limit)):
        return limit + 1
    return digits + int(magnitude)


def scalar_to_json(value: GaussianRational) -> Any:
    if value.is_real():
        return fraction_to_text(value.real)
    return {"re": fraction_to_text(value.real), "im": fraction_to_text(value.imag)}


def scalar_from_json(value: Any) -> GaussianRational:
    if isinstance(value, dict):
        extra = set(value) - {"re", "im"}
        if extra:
            raise ParseError(f"unexpected keys {sorted(extra)} in a complex rational")
        re = text_to_fraction(value.get("re", 0))
        im = text_to_fraction(value.get("im", 0))
        return GaussianRational(re, im)
    return GaussianRational(text_to_fraction(value))


def terms_to_json(jet: Jet) -> list[dict[str, Any]]:
    """Term records in canonical graded order."""
    names = jet.alphabet.names
    out = []
    for vec, coeff in jet.monomials():
        mono = {name: e for name, e in zip(names, vec) if e}
        out.append({"monomial": mono, "coefficient": scalar_to_json(coeff)})
    return out


def jet_to_json(jet: Jet) -> dict[str, Any]:
    return {
        "variables": list(jet.alphabet.names),
        "order": jet.order,
        "terms": terms_to_json(jet),
    }


def terms_from_json(
    records: Any, alphabet: Alphabet, order: int, label: str
) -> Jet:
    """Build a jet from term records, with located diagnostics."""
    if not isinstance(records, list):
        raise ParseError(f"{label}: expected a list of term records")
    seen: dict[int, int] = {}
    data: dict[int, GaussianRational] = {}
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
        exponents: dict[str, int] = {}
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
            raise ParseError(
                f"{where}: total degree {degree} exceeds the order {order}"
            )
        try:
            coeff = scalar_from_json(record.get("coefficient", "0"))
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
        try:
            code = alphabet.encode_dict(exponents)
        except PreconditionError as exc:
            raise ParseError(f"{where}: {exc}") from None
        if code in seen:
            raise ParseError(
                f"{where}: duplicate of term {seen[code]} with the same monomial"
            )
        seen[code] = k
        if not coeff.is_zero():
            data[code] = coeff
    return Jet(alphabet, order, data)


def _require_count(obj: Any, key: str, minimum: int = 0) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParseError(f"{key} must be an integer >= {minimum}")
    return value


def germ_from_json(obj: Any, order_override: int | None = None) -> StructureGerm:
    """Parse a germ file object; precondition failures surface as such.

    An order override re-declares the truncation: lowering drops terms
    above it, raising treats the stored terms as the whole polynomial.
    """
    if not isinstance(obj, dict):
        raise ParseError("germ file must be a JSON object")
    nu = _require_count(obj, "nu")
    nprime = _require_count(obj, "nprime")
    order = _require_count(obj, "order", minimum=1)
    alphabet = standard_alphabet(nu, nprime)
    phi = terms_from_json(obj.get("phi"), alphabet, order, "phi")
    if order_override is not None:
        if order_override < 1:
            raise ParseError("order override must be at least 1")
        phi = phi.with_order(order_override)
    return make_germ(nu, nprime, phi)


def map_from_json(
    obj: Any, alphabet: Alphabet, nu: int, order_override: int | None = None
) -> tuple[tuple[Jet, ...], Jet]:
    """Parse central map data: nu jets under "z" and one under "w"."""
    if not isinstance(obj, dict):
        raise ParseError("map file must be a JSON object")
    order = _require_count(obj, "order", minimum=1)
    z_records = obj.get("z")
    if not isinstance(z_records, list) or len(z_records) != nu:
        raise ParseError(f'"z" must be a list of {nu} term-record lists')
    jets = [
        terms_from_json(records, alphabet, order, f"z[{j}]")
        for j, records in enumerate(z_records)
    ]
    w_jet = terms_from_json(obj.get("w"), alphabet, order, "w")
    if order_override is not None:
        if order_override < 1:
            raise ParseError("order override must be at least 1")
        jets = [j.with_order(order_override) for j in jets]
        w_jet = w_jet.with_order(order_override)
    return tuple(jets), w_jet


def height_from_json(obj: Any, order_override: int | None = None) -> Jet:
    """Parse a one-variable height jet h(x) for the profile equation."""
    if not isinstance(obj, dict):
        raise ParseError("height file must be a JSON object")
    order = _require_count(obj, "order", minimum=2)
    alphabet = Alphabet(("x",), None)
    h = terms_from_json(obj.get("h"), alphabet, order, "h")
    if order_override is not None:
        if order_override < 2:
            raise ParseError("order override must be at least 2 for a height jet")
        h = h.with_order(order_override)
    return h


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} nests JSON values too deeply to parse") from None


def canonical_dumps(payload: Any) -> str:
    """Canonical JSON text of a tree of dicts, lists, str, int, bool and None.

    The bytes are fixed: object keys in sorted order, each item on its own
    line indented two spaces per level, "," between items and ": " after a
    key, "{}" and "[]" for empty containers, strings and keys escaped to
    ASCII by the C string encoder of the ``json`` module, integers in
    decimal, true/false/null, and one trailing newline. Identical payloads
    give identical bytes. A float, a non-str key or any other type raises
    TypeError. The standard library's encoder with sort_keys=True,
    indent=2 and ensure_ascii=True writes the same text and serves as the
    test oracle; it is not called here because with an indent it runs in
    pure Python.
    """
    out: list[str] = []
    _emit(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(value: Any, newline: str, out: list[str]) -> None:
    """Append the canonical text of value; newline carries the indent."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _emit(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"cannot encode {type(value).__name__} as canonical JSON")
