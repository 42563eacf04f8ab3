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
import re
import reprlib
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any

from .alphabet import Alphabet
from .errors import ParseError, PreconditionError
from .germs import StructureGerm, make_germ, standard_alphabet
from .jets import Jet
from .rationals import GaussianRational


def fraction_to_text(x: Fraction) -> str:
    return _ratio_text(x.numerator, x.denominator)


def _ratio_text(p: int, q: int) -> str:
    """The text of p/q, q > 0, in lowest terms: "p" when it is integral."""
    if q == 1:
        return str(p)
    g = gcd(p, q)
    if g == q:
        return str(p // q)
    return f"{p // g}/{q // g}"


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
    # isdecimal, not isdigit: int() refuses superscripts such as "²".
    if not magnitude.isdecimal():
        return digits
    if len(magnitude) > len(str(limit)):
        return limit + 1
    return digits + int(magnitude)


def scalar_from_json(value: Any) -> GaussianRational:
    if isinstance(value, dict):
        extra = set(value) - {"re", "im"}
        if extra:
            raise ParseError(f"unexpected keys {sorted(extra)} in a complex rational")
        a, d = _ratio_from_json(value.get("re", 0))
        b, e = _ratio_from_json(value.get("im", 0))
        return GaussianRational.normalize(a * e, b * d, d * e)
    a, d = _ratio_from_json(value)
    return GaussianRational.normalize(a, 0, d)


# The literals canonical output writes: an optional "-", ASCII digits, and
# an optional "/" with a nonzero ASCII denominator.
_CANONICAL_LITERAL = re.compile(r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?")


def _ratio_from_json(value: Any) -> tuple[int, int]:
    """(numerator, denominator) of a rational literal, not in lowest terms.

    Canonical literals short enough for the digit limit are split and read
    with int(); everything else, errors included, is text_to_fraction's.
    """
    if isinstance(value, str) and _CANONICAL_LITERAL.fullmatch(value):
        limit = sys.get_int_max_str_digits()
        if not limit or len(value) <= limit:
            num, _, den = value.partition("/")
            return int(num), int(den) if den else 1
    f = text_to_fraction(value)
    return f.numerator, f.denominator


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


def _override_order(jet: Jet, order: int | None, minimum: int = 1, what: str = "") -> Jet:
    """Apply an --order override to a parsed jet. It re-declares the input:
    lowering drops terms above it, raising treats the stored terms as the
    whole polynomial."""
    if order is None:
        return jet
    if order < minimum:
        raise ParseError(f"order override must be at least {minimum}{what}")
    if order <= jet.order:
        return jet.truncate(order)
    return Jet(jet.alphabet, order, jet.terms)


def germ_from_json(obj: Any, order_override: int | None = None) -> StructureGerm:
    """Parse a germ file object; precondition failures surface as such.

    ``phi`` is a list of term records, or a jet object {"order", "terms",
    "variables"} as reports write one, whose order is the germ's and
    whose variables, if given, are the germ alphabet's. So the germ that
    ``external`` reports under ``results.lift`` is a germ file as it stands.
    """
    if not isinstance(obj, dict):
        raise ParseError("germ file must be a JSON object")
    nu = _require_count(obj, "nu")
    nprime = _require_count(obj, "nprime")
    order = _require_count(obj, "order", minimum=1)
    alphabet = standard_alphabet(nu, nprime)
    records = obj.get("phi")
    if isinstance(records, dict):
        records = _jet_records(records, alphabet, order)
    phi = terms_from_json(records, alphabet, order, "phi")
    return make_germ(nu, nprime, _override_order(phi, order_override))


def _jet_records(jet: dict, alphabet: Alphabet, order: int) -> Any:
    """The term records of a germ's phi written as a jet object."""
    extra = set(jet) - {"order", "terms", "variables"}
    if extra:
        raise ParseError(f"phi: unexpected keys {sorted(extra)}")
    jet_order = jet.get("order")
    if isinstance(jet_order, bool) or jet_order != order:
        raise ParseError(f"phi: jet order {jet_order!r} is not the germ order {order}")
    names = list(alphabet.names)
    if jet.get("variables", names) != names:
        raise ParseError(f"phi: variables must be {names}")
    return jet.get("terms")


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
    z_maps = tuple(_override_order(j, order_override) for j in jets)
    return z_maps, _override_order(w_jet, order_override)


def height_from_json(obj: Any, order_override: int | None = None) -> Jet:
    """Parse a one-variable height jet h(x) for the profile equation."""
    if not isinstance(obj, dict):
        raise ParseError("height file must be a JSON object")
    order = _require_count(obj, "order", minimum=2)
    alphabet = Alphabet(("x",), None)
    h = terms_from_json(obj.get("h"), alphabet, order, "h")
    return _override_order(h, order_override, 2, " for a height jet")


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
    """Canonical JSON text of a report payload.

    The payload is a tree of dicts with str keys, lists, tuples, str, int,
    bool and None whose leaves may also be Jets, GaussianRationals and
    Fractions. Tuples are written as lists and scalars as the module
    docstring says. A jet becomes {"variables", "order", "terms"}, its
    terms one {"monomial", "coefficient"} record each in graded order,
    each monomial naming the variables of positive exponent.

    The bytes are fixed: object keys in sorted order, each item on its own
    line indented two spaces per level, "," between items and ": " after a
    key, "{}" and "[]" for empty containers, strings and keys escaped to
    ASCII by the C string encoder of the ``json`` module, integers in
    decimal, true/false/null, and one trailing newline. Identical payloads
    give identical bytes. A float, a non-str key or any other type raises
    TypeError. The standard library's encoder with sort_keys=True,
    indent=2 and ensure_ascii=True, run on the same tree with its jets and
    scalars spelled out as dicts and strings, writes the same text and
    serves as the test oracle. It is not called here: with an indent it
    runs in pure Python, and building that tree costs as much again.
    """
    out: list[str] = []
    _emit(payload, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _emit(value: Any, newline: str, out: list[str], layouts: dict) -> None:
    """Append the canonical text of value; newline carries the indent and
    layouts caches each alphabet's _jet_layout for this render."""
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
            _emit(value[key], inner, out, layouts)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, inner, out, layouts)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, Jet):
        layout = layouts.get(value.alphabet)
        if layout is None:
            layout = layouts[value.alphabet] = _jet_layout(value.alphabet)
        _emit_jet(value, layout, newline, out)
    elif isinstance(value, GaussianRational):
        out.append(_scalar_text(value, newline))
    elif isinstance(value, Fraction):
        out.append(f'"{fraction_to_text(value)}"')
    else:
        raise TypeError(f"cannot encode {type(value).__name__} as canonical JSON")


def _jet_layout(alphabet: Alphabet) -> tuple[list[tuple[int, str]], list[str]]:
    """``(shift, '"name": ')`` pairs in sorted-name order, which is the key
    order of a monomial object, and the encoded names in alphabet order."""
    names = [encode_basestring_ascii(n) for n in alphabet.names]
    fields = sorted(zip(alphabet.names, alphabet.shifts, names))
    return [(shift, key + ": ") for _, shift, key in fields], names


def _emit_jet(jet: Jet, layout: tuple, newline: str, out: list[str]) -> None:
    fields, names = layout
    mask = jet.alphabet.mask
    n1 = newline + "  "
    n2 = n1 + "  "
    n3 = n2 + "  "
    n4 = n3 + "  "
    out.append("{" + n1 + '"order": ' + str(jet.order) + "," + n1 + '"terms": ')
    terms = jet.terms
    if terms:
        opening = "[" + n2 + "{" + n3 + '"coefficient": '
        mono = "," + n3 + '"monomial": {' + n4
        between = "," + n4
        closing = n3 + "}" + n2 + "}"
        for code in sorted(terms):
            out.append(opening)
            out.append(_scalar_text(terms[code], n3))
            if code:
                out.append(mono)
                out.append(
                    between.join(
                        [key + str(e) for shift, key in fields if (e := (code >> shift) & mask)]
                    )
                )
                out.append(closing)
            else:
                out.append("," + n3 + '"monomial": {}' + n2 + "}")
            opening = "," + n2 + "{" + n3 + '"coefficient": '
        out.append(n1 + "]")
    else:
        out.append("[]")
    out.append("," + n1 + '"variables": [' + n2 + ("," + n2).join(names) + n1 + "]" + newline + "}")


def _scalar_text(value: GaussianRational, newline: str) -> str:
    """Canonical text of a scalar; a complex one is an object whose lines
    are indented from newline."""
    if not value.b:
        return f'"{_ratio_text(value.a, value.d)}"'
    inner = newline + "  "
    real = _ratio_text(value.a, value.d)
    imag = _ratio_text(value.b, value.d)
    return f'{{{inner}"im": "{imag}",{inner}"re": "{real}"{newline}}}'
