"""Oracle for the canonical report bytes.

``io.canonical_dumps`` writes jets and scalars straight from their codes
and (a, b, d) triples. This module spells the same payload out the slow
way: jets become {"variables", "order", "terms"} dicts of term records,
scalars become "p/q" strings or {"re", "im"} dicts, tuples become lists,
and the standard library's encoder writes that tree with sorted keys and
a two-space indent.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from crjets.jets import Jet
from crjets.rationals import GaussianRational


def scalar_to_json(value: GaussianRational) -> Any:
    if value.is_real():
        return str(value.real)
    return {"re": str(value.real), "im": str(value.imag)}


def terms_to_json(jet: Jet) -> list[dict[str, Any]]:
    """Term records in canonical graded order."""
    names = jet.alphabet.names
    out = []
    for vec, coeff in jet.monomials():
        mono = {name: e for name, e in zip(names, vec) if e}
        out.append({"monomial": mono, "coefficient": scalar_to_json(coeff)})
    return out


def germ_to_json(germ) -> dict[str, Any]:
    """The germ file object that germ_from_json reads."""
    return {
        "nu": germ.nu,
        "nprime": germ.nprime,
        "order": germ.order,
        "phi": terms_to_json(germ.phi),
    }


def jet_to_json(jet: Jet) -> dict[str, Any]:
    return {
        "variables": list(jet.alphabet.names),
        "order": jet.order,
        "terms": terms_to_json(jet),
    }


def jsonable(value: Any) -> Any:
    """The payload as a plain tree of dicts, lists, str, int, bool and None."""
    if isinstance(value, Jet):
        return jet_to_json(value)
    if isinstance(value, GaussianRational):
        return scalar_to_json(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def stdlib_canonical(payload: Any) -> str:
    """The standard library's text of a plain JSON tree, in canonical form."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def oracle_dumps(payload: Any) -> str:
    """What canonical_dumps must write for a report payload."""
    return stdlib_canonical(jsonable(payload))
