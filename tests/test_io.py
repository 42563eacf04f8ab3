"""JSON serialization: round trips, located diagnostics, order overrides."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crjets import Alphabet, GaussianRational, Jet, make_germ, generators, standard_alphabet
from crjets.errors import ParseError
from crjets.io import (
    canonical_dumps,
    fraction_to_text,
    germ_from_json,
    height_from_json,
    map_from_json,
    scalar_from_json,
    terms_from_json,
    text_to_fraction,
)

from germ_corpus import random_germ
from json_oracle import germ_to_json, jet_to_json, oracle_dumps, scalar_to_json, stdlib_canonical

import random


def test_fraction_text_round_trip():
    for f in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(22, 7)):
        assert text_to_fraction(fraction_to_text(f)) == f
    assert text_to_fraction(5) == Fraction(5)
    assert text_to_fraction("0.25") == Fraction(1, 4)


def test_fraction_text_rejections():
    with pytest.raises(ParseError):
        text_to_fraction(0.5)  # binary floats are not exact inputs
    with pytest.raises(ParseError):
        text_to_fraction(True)
    with pytest.raises(ParseError):
        text_to_fraction("3/0")
    with pytest.raises(ParseError):
        text_to_fraction([1])


def test_scalar_round_trip():
    vals = [
        GaussianRational(1, 0),
        GaussianRational(Fraction(-2, 3), Fraction(5, 7)),
        GaussianRational(0, 1),
    ]
    for v in vals:
        assert scalar_from_json(scalar_to_json(v)) == v
    # real scalars serialize as plain strings
    assert scalar_to_json(GaussianRational(Fraction(3, 4), 0)) == "3/4"


def test_germ_round_trip():
    rng = random.Random(411)
    for _ in range(6):
        germ = random_germ(rng, nu=1, nprime=2, order=5)
        again = germ_from_json(germ_to_json(germ))
        assert again.phi == germ.phi
        assert (again.nu, again.nprime, again.order) == (1, 2, 5)


def test_germ_order_override():
    a = standard_alphabet(1, 0)
    g = generators(a, 4)
    germ = make_germ(1, 0, g["z1"] * g["zb1"] + (g["z1"] * g["zb1"]) ** 2)
    obj = germ_to_json(germ)

    low = germ_from_json(obj, order_override=3)
    assert low.order == 3
    assert low.phi == (g["z1"] * g["zb1"]).truncate(3)

    high = germ_from_json(obj, order_override=6)
    assert high.order == 6
    assert high.phi == Jet(germ.phi.alphabet, 6, germ.phi.terms)


def test_located_diagnostics():
    base = {"nu": 1, "nprime": 0, "order": 4}

    bad_var = dict(base, phi=[{"monomial": {"q": 1}, "coefficient": "1"}])
    with pytest.raises(ParseError) as err:
        germ_from_json(bad_var)
    assert "phi term 0" in str(err.value)

    bad_exp = dict(base, phi=[
        {"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1"},
        {"monomial": {"z1": -2}, "coefficient": "1"},
    ])
    with pytest.raises(ParseError) as err:
        germ_from_json(bad_exp)
    assert "phi term 1" in str(err.value)

    over = dict(base, phi=[{"monomial": {"z1": 3, "zb1": 3}, "coefficient": "1"}])
    with pytest.raises(ParseError) as err:
        germ_from_json(over)
    assert "exceeds the order" in str(err.value)

    dup = dict(base, phi=[
        {"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1"},
        {"monomial": {"zb1": 1, "z1": 1}, "coefficient": "2"},
    ])
    with pytest.raises(ParseError) as err:
        germ_from_json(dup)
    assert "duplicate of term 0" in str(err.value)


def test_germ_phi_as_a_jet_object():
    """phi may be the jet object reports write, at the germ's order; its
    variables, when given, must be the germ alphabet's."""
    germ = random_germ(random.Random(412), nu=1, nprime=1, order=5)
    obj = dict(germ_to_json(germ), phi=jet_to_json(germ.phi))
    assert germ_from_json(obj).phi == germ.phi
    del obj["phi"]["variables"]
    assert germ_from_json(obj).phi == germ.phi
    assert germ_from_json(obj, order_override=4).phi == germ.phi.truncate(4)
    refusals = [
        (dict(obj["phi"], order=6), r"^phi: jet order 6 is not the germ order 5$"),
        (dict(obj["phi"], order=True), r"^phi: jet order True is not the germ order 5$"),
        ({"terms": obj["phi"]["terms"]}, r"^phi: jet order None is not the germ order 5$"),
        (dict(obj["phi"], variables=["z1", "zb1", "s"]), r"^phi: variables must be \['z1', 'zb1', 's', 't1'\]$"),
        (dict(obj["phi"], nu=1), r"^phi: unexpected keys \['nu'\]$"),
        ({"order": 5, "terms": 7}, r"^phi: expected a list of term records$"),
    ]
    for phi, message in refusals:
        with pytest.raises(ParseError, match=message):
            germ_from_json(dict(obj, phi=phi))


def test_germ_from_json_shape_errors():
    with pytest.raises(ParseError):
        germ_from_json([1, 2])
    with pytest.raises(ParseError):
        germ_from_json({"nu": 1, "nprime": 0, "order": 0, "phi": []})
    with pytest.raises(ParseError):
        germ_from_json({"nu": 1, "nprime": 0, "order": 4, "phi": 7})


def test_map_from_json():
    a = standard_alphabet(1, 0)
    from crjets.equivalence import equivalence_alphabet

    ea = equivalence_alphabet(1)
    obj = {
        "order": 4,
        "z": [[{"monomial": {"z1": 1}, "coefficient": "2"}]],
        "w": [{"monomial": {"eta": 1}, "coefficient": "4"}],
    }
    z_maps, w_map = map_from_json(obj, ea, 1, None)
    assert z_maps[0] == Jet.variable(ea, 4, "z1") * 2
    assert w_map == Jet.variable(ea, 4, "eta") * 4

    with pytest.raises(ParseError):
        map_from_json({"order": 4, "z": [[]], "w": []}, ea, 2, None)  # wrong count


def test_height_from_json():
    obj = {"order": 6, "h": [{"monomial": {"x": 2}, "coefficient": "1/2"}]}
    h = height_from_json(obj)
    x = Jet.variable(h.alphabet, 6, "x")
    assert h == x * x * Fraction(1, 2)
    with pytest.raises(ParseError):
        height_from_json({"order": 1, "h": []})


def test_map_and_height_order_overrides():
    from crjets.equivalence import equivalence_alphabet

    ea = equivalence_alphabet(1)
    obj = {
        "order": 4,
        "z": [[{"monomial": {"z1": 1}, "coefficient": "2"}, {"monomial": {"z1": 3}, "coefficient": "1"}]],
        "w": [{"monomial": {"eta": 1}, "coefficient": "4"}, {"monomial": {"eta": 4}, "coefficient": "1"}],
    }
    z1, eta = Jet.variable(ea, 4, "z1"), Jet.variable(ea, 4, "eta")
    z_maps, w_map = map_from_json(obj, ea, 1, 2)
    assert (z_maps[0], w_map) == ((z1 * 2).truncate(2), (eta * 4).truncate(2))
    z_maps, w_map = map_from_json(obj, ea, 1, 6)
    assert (z_maps[0], w_map) == (Jet(ea, 6, (z1 * 2 + z1 ** 3).terms), Jet(ea, 6, (eta * 4 + eta ** 4).terms))
    with pytest.raises(ParseError, match="^order override must be at least 1$"):
        map_from_json(obj, ea, 1, 0)

    obj = {"order": 6, "h": [{"monomial": {"x": 2}, "coefficient": "1/2"}, {"monomial": {"x": 5}, "coefficient": "3"}]}
    x = Jet.variable(height_from_json(obj).alphabet, 6, "x")
    assert height_from_json(obj, 4) == (x * x * Fraction(1, 2)).truncate(4)
    assert height_from_json(obj, 8) == Jet(x.alphabet, 8, (x * x * Fraction(1, 2) + x ** 5 * 3).terms)
    with pytest.raises(ParseError, match="^order override must be at least 2 for a height jet$"):
        height_from_json(obj, 1)


def test_canonical_dumps_is_stable():
    payload = {"b": [3, 2], "a": {"y": "1/2", "x": "0"}}
    one = canonical_dumps(payload)
    two = canonical_dumps({"a": {"x": "0", "y": "1/2"}, "b": [3, 2]})
    assert one == two
    assert one.endswith("\n")


json_text = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
        st.characters(),
    ),
    max_size=12,
)
json_leaves = st.one_of(
    json_text,
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.booleans(),
    st.none(),
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=30,
)


@given(json_trees)
def test_canonical_dumps_matches_the_stdlib_encoder(payload):
    assert canonical_dumps(payload) == stdlib_canonical(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        "top",
        -(2**80),
        None,
        True,
        {"b": [], "a": {}, "\u00e9\"\\": ["\u2603", "\U0001f600", "\x00"]},
        [[[]], [{}], [1, [2, [3]]]],
    ],
)
def test_canonical_dumps_examples(payload):
    assert canonical_dumps(payload) == stdlib_canonical(payload)


def test_canonical_dumps_exact_bytes():
    assert canonical_dumps({}) == "{}\n"
    assert canonical_dumps(7) == "7\n"
    assert canonical_dumps({"b": [1, {}], "a": "\u00e9"}) == (
        '{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    {}\n  ]\n}\n'
    )


@pytest.mark.parametrize(
    "payload",
    [0.5, {"a": [1.0]}, {1: "a"}, {"a": {None: 1}}, {"a": 1, 2: "b"}, ("a", 1.0), {1, 2}, b"x"],
)
def test_canonical_dumps_rejects_non_json_values(payload):
    with pytest.raises(TypeError):
        canonical_dumps(payload)


def test_jet_json_terms_are_graded():
    a = standard_alphabet(1, 0)
    g = generators(a, 4)
    jet = g["s"] ** 3 + g["z1"] + g["z1"] * g["zb1"]
    records = jet_to_json(jet)["terms"]
    degrees = [sum(r["monomial"].values()) for r in records]
    assert degrees == sorted(degrees)
    # and the parse inverts exactly
    back = terms_from_json(records, a, 4, "phi")
    assert back == jet


# ---------------------------------------------------------------------------
# canonical_dumps on report payloads: jets and scalars written from codes
# ---------------------------------------------------------------------------

RENDER_ALPHABETS = [
    # sorted names (w, z1, zb1) differ from the alphabet order
    Alphabet(("zb1", "w", "z1"), {"z1": "zb1"}),
    # 16-bit fields; sorted names x0, x1, x10, x11, x2, ... differ too
    Alphabet(tuple(f"x{i}" for i in range(12)), None),
    standard_alphabet(2, 1),
]

render_fractions = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**70)),
)
render_scalars = st.one_of(
    st.builds(GaussianRational, render_fractions),
    st.builds(GaussianRational, render_fractions, render_fractions),
)


@st.composite
def render_jets(draw):
    alpha = draw(st.sampled_from(RENDER_ALPHABETS))
    order = draw(st.integers(0, 6))
    last = alpha.nvars - 1
    data = {}
    for _ in range(draw(st.integers(0, 6))):
        vec = [0] * alpha.nvars
        room = order
        # Half the exponents land in the last three fields, the low bits of a code.
        for i in draw(st.lists(st.one_of(st.integers(max(0, last - 2), last), st.integers(0, last)), max_size=4)):
            e = draw(st.integers(0, room))
            vec[i] += e
            room -= e
        data[tuple(vec)] = draw(render_scalars)
    return Jet.from_terms(alpha, order, data)


payload_leaves = st.one_of(json_leaves, render_jets(), render_scalars, render_fractions)
payload_trees = st.recursive(
    payload_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=12,
)


@given(payload_trees)
@settings(max_examples=150)
def test_canonical_dumps_matches_the_payload_oracle(payload):
    assert canonical_dumps(payload) == oracle_dumps(payload)


def test_canonical_dumps_renders_pipeline_leaves():
    alpha = RENDER_ALPHABETS[0]
    z1, zb1 = Jet.variable(alpha, 3, "z1"), Jet.variable(alpha, 3, "zb1")
    jet = z1 * zb1 * GaussianRational(Fraction(-3, 2), 1) + 7
    payload = {
        "jets": (jet, Jet.zero(alpha, 2)),
        "scalars": [GaussianRational(0, Fraction(-1, 3)), GaussianRational(Fraction(6, 4))],
        "fraction": Fraction(-4, 6),
    }
    assert canonical_dumps(payload) == oracle_dumps(payload)
    assert canonical_dumps((Fraction(1, 2), GaussianRational(5))) == '[\n  "1/2",\n  "5"\n]\n'
    assert canonical_dumps(Jet.zero(alpha, 1)) == (
        '{\n  "order": 1,\n  "terms": [],\n  "variables": [\n'
        '    "zb1",\n    "w",\n    "z1"\n  ]\n}\n'
    )
    for bad in ({"a": (1, 0.5)}, [jet, {2: jet}], (object(),)):
        with pytest.raises(TypeError):
            canonical_dumps(bad)


# ---------------------------------------------------------------------------
# scalar_from_json: canonical literals read with int(), the rest via Fraction
# ---------------------------------------------------------------------------


def fraction_route(value):
    """The reading of a scalar literal through text_to_fraction alone."""
    if isinstance(value, dict):
        return GaussianRational(text_to_fraction(value.get("re", 0)), text_to_fraction(value.get("im", 0)))
    return GaussianRational(text_to_fraction(value))


def parse_outcome(parse, value):
    try:
        v = parse(value)
    except ParseError as exc:
        return ("error", str(exc))
    return ("value", v, (v.a, v.b, v.d))


def assert_literal_agrees(literal):
    for value in (literal, {"re": literal, "im": "-5/6"}, {"re": "2/3", "im": literal}):
        got = parse_outcome(scalar_from_json, value)
        assert got == parse_outcome(fraction_route, value), (value, got)


EXPLICIT_LITERALS = [
    "+3", "-0", "0/7", "6/4", "3/-4", "3/0", "1_000", " 3", "3 ", "٣", "²",
    "0.25", "1e3", "1e999999", "1e²", "1e٣", "", "-", "/4", "3/", "007/010", "-12/0008", "3\n",
    # the default digit limit is 4300
    "7" * 4300, "7" * 4301, "-" + "7" * 4300, "1/" + "3" * 4300, "1/" + "3" * 4301,
    0, -4, 2**70, True, 0.5, None, [1],
]


def test_literal_fast_path_matches_the_fraction_route():
    for literal in EXPLICIT_LITERALS:
        assert_literal_agrees(literal)
    if sys.get_int_max_str_digits() == 4300:
        assert scalar_from_json("7" * 4300) == GaussianRational(int("7" * 4300))
        with pytest.raises(ParseError, match="more than 4300 decimal digits"):
            scalar_from_json("7" * 4301)


@given(
    st.one_of(
        st.from_regex(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?", fullmatch=True),
        st.text(alphabet="0123456789-+/ ._e٣²", max_size=10),
        st.integers(),
    )
)
def test_literal_fast_path_matches_the_fraction_route_on_drawn_literals(literal):
    assert_literal_agrees(literal)
