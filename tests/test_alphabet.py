"""Alphabet's input checks, derived alphabets and the interned fixed alphabets."""

import re

import pytest
from hypothesis import given, strategies as st

from crjets import Alphabet, Jet, equivalence_alphabet, ode_right_side, standard_alphabet
from crjets.equivalence import multiplier_alphabet
from crjets.errors import PreconditionError
from crjets.io import HEIGHT_ALPHABET, height_from_json
from crjets.segre import (
    PROFILE_ALPHABET,
    elimination_alphabet,
    section_parameter_alphabet,
    segre_alphabet,
)

XYZ = Alphabet(("x", "y", "z"), None)
ZZB = Alphabet(("z", "zb", "t"), {"z": "zb"})


def test_subalphabet_reads_an_iterator_once():
    assert XYZ.subalphabet(n for n in ["x", "z"]).names == ("x", "z")
    assert XYZ.subalphabet(iter(["y", "z"])).names == ("y", "z")
    # alphabet order, not the order asked for
    assert XYZ.subalphabet(["z", "x"]).names == ("x", "z")


def test_subalphabet_keeps_a_closed_conjugation():
    assert ZZB.subalphabet(iter(["zb", "z"])).conj_map == {"z": "zb", "zb": "z"}
    assert ZZB.subalphabet(["z", "t"]).conj_map is None


def test_encode_refuses_a_vector_of_the_wrong_length():
    xy = Alphabet(("x", "y"), None)
    message = "^exponent vector of length 1 for an alphabet of 2 variables$"
    with pytest.raises(PreconditionError, match=message):
        xy.encode((1,))
    with pytest.raises(PreconditionError, match=message):
        Jet.from_terms(xy, 3, {(1,): 1})
    with pytest.raises(PreconditionError, match="^exponent vector of length 3 for"):
        xy.encode((1, 0, 0))


def test_encode_refuses_an_exponent_out_of_range():
    top = XYZ.max_exponent
    assert XYZ.decode(XYZ.encode((top, 0, 1))) == (top, 0, 1)
    for bad in (-1, top + 1):
        with pytest.raises(PreconditionError, match=rf"^exponent {bad} outside \[0, {top}\]"):
            XYZ.encode((0, bad, 0))


def test_encode_dict_refuses_an_unknown_name():
    with pytest.raises(
        PreconditionError, match=r"^unknown variable 'w'; alphabet has \('x', 'y', 'z'\)$"
    ):
        XYZ.encode_dict({"x": 1, "w": 2})


SMALL = Alphabet([f"v{i}" for i in range(6)], None)  # 6-bit fields
WIDE = Alphabet([f"v{i}" for i in range(12)], None)  # 16-bit fields


@st.composite
def sparse_monomials(draw):
    """An alphabet and a mapping of a few of its names to exponents in range."""
    alpha = draw(st.sampled_from([SMALL, WIDE]))
    names = draw(st.lists(st.sampled_from(alpha.names), max_size=4, unique=True))
    exponent = st.integers(0, alpha.max_exponent)
    return alpha, {name: draw(exponent) for name in names}


@given(sparse_monomials())
def test_encode_dict_packs_as_the_vector_does(case):
    alpha, mono = case
    vec = [mono.get(name, 0) for name in alpha.names]
    assert alpha.encode_dict(mono) == alpha.encode(vec)
    assert alpha.decode(alpha.encode_dict(mono)) == tuple(vec)


@given(sparse_monomials(), st.data())
def test_encode_dict_refuses_as_the_vector_does(case, data):
    alpha, valid = case
    name = data.draw(st.sampled_from(alpha.names))
    bad = data.draw(st.sampled_from([-1, alpha.max_exponent + 1, 10**6]))
    mono = {**valid, name: bad}
    vec = [mono.get(n, 0) for n in alpha.names]
    message = rf"^exponent {bad} outside \[0, {alpha.max_exponent}\] for this alphabet$"
    with pytest.raises(PreconditionError, match=message):
        alpha.encode_dict(mono)
    with pytest.raises(PreconditionError, match=message):
        alpha.encode(vec)
    unknown = rf"^unknown variable 'w'; alphabet has {re.escape(str(alpha.names))}$"
    with pytest.raises(PreconditionError, match=unknown):
        alpha.encode_dict({**valid, "w": 1})


def test_constructor_refuses_bad_names():
    with pytest.raises(PreconditionError, match=r"^duplicate variable names in \('x', 'y', 'x'\)$"):
        Alphabet(("x", "y", "x"))
    with pytest.raises(PreconditionError, match="^alphabet needs at least one variable$"):
        Alphabet(())


def test_constructor_refuses_bad_conjugations():
    with pytest.raises(PreconditionError, match="^conjugation names unknown variable: z -> w$"):
        Alphabet(("z", "zb"), {"z": "w"})
    # z -> zb and zb -> t: conjugating twice does not return to z
    with pytest.raises(PreconditionError, match="^conjugation is not an involution at 'z'$"):
        Alphabet(("z", "zb", "t"), {"z": "zb", "zb": "t"})


# The fixed alphabets are interned: one object per count, so that the
# alphabet comparisons of make_germ, at_zero and compose_many are
# identity tests.
INTERNED = [
    (standard_alphabet, (2, 1), (1, 1)),
    (standard_alphabet, (0, 0), (0, 1)),
    (segre_alphabet, (2,), (1,)),
    (elimination_alphabet, (2,), (1,)),
    (section_parameter_alphabet, (2,), (1,)),
    (equivalence_alphabet, (2,), (1,)),
    (multiplier_alphabet, (2,), (1,)),
]


@pytest.mark.parametrize("factory, counts, other", INTERNED)
def test_alphabet_factories_return_one_object_per_count(factory, counts, other):
    shared = factory(*counts)
    assert factory(*counts) is shared
    assert factory(*other) is not shared and factory(*other) != shared
    # equality keeps its meaning for alphabets built apart
    assert Alphabet(shared.names, shared.conj_map) == shared


def test_refused_counts_raise_on_every_call():
    for _ in range(3):
        with pytest.raises(PreconditionError, match="negative count of complex variables"):
            standard_alphabet(-1, 0)
        with pytest.raises(PreconditionError, match="negative count of real parameters"):
            standard_alphabet(0, -1)


def test_one_letter_alphabets_are_shared():
    first = height_from_json({"order": 4, "h": [{"monomial": {"x": 2}, "coefficient": "1"}]})
    second = height_from_json({"order": 6, "h": [{"monomial": {"x": 2}, "coefficient": "3"}]})
    assert first.alphabet is second.alphabet is HEIGHT_ALPHABET
    assert ode_right_side(first).alphabet is ode_right_side(second).alphabet is PROFILE_ALPHABET
