"""Command line driver: outputs, exit codes, order overrides."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crjets import Jet, central, cli, compose_many, germs, linalg, make_germ, marson, segre
from crjets.errors import InvariantError, recording
from crjets.germs import levi_matrix, t_hessian
from crjets.io import canonical_dumps
from crjets.rationals import MINUS_I

from germ_corpus import random_definite_germ, random_fiber_map, random_germ, random_height
from json_oracle import germ_to_json, oracle_dumps, terms_to_json


QUADRIC = {
    "nu": 1,
    "nprime": 0,
    "order": 6,
    "phi": [{"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1"}],
}

SPLIT_MODEL = {
    "nu": 1,
    "nprime": 1,
    "order": 6,
    "phi": [
        {"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1"},
        {"monomial": {"t1": 1}, "coefficient": {"re": "0", "im": "0"}},
        {"monomial": {"t1": 2}, "coefficient": "1"},
    ],
}

TILTED = {
    "nu": 1,
    "nprime": 1,
    "order": 6,
    "phi": [
        {"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1"},
        {"monomial": {"t1": 2}, "coefficient": "1"},
        {"monomial": {"s": 1, "t1": 1}, "coefficient": "1"},
    ],
}

MIZOHATA = {
    "nu": 0,
    "nprime": 1,
    "order": 6,
    "phi": [{"monomial": {"t1": 2}, "coefficient": "1"}],
}

SCALING_MAP = {
    "order": 6,
    "z": [[{"monomial": {"z1": 1}, "coefficient": "2"}]],
    "w": [{"monomial": {"eta": 1}, "coefficient": "4"}],
}


def drop(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(canonical_dumps(obj))
    return str(path)


def run_json(tmp_path, capsys, command, *files, extra=()):
    code = cli.run([command, *files, "--format", "json", *extra])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_levi_quadric(tmp_path, capsys):
    path = drop(tmp_path, "g.json", QUADRIC)
    report = run_json(tmp_path, capsys, "levi", path, extra=("--check",))
    res = report["results"]
    assert res["levi_matrix"] == [["1"]]
    assert res["signature"] == {"positive": 1, "negative": 0, "null": 0}
    assert res["nondegenerate"] is True
    assert report["checks"]["frame_annihilates_first_integrals"] is True


@pytest.mark.parametrize("nu, nprime", [(1, 0), (1, 2), (2, 1), (0, 1)])
def test_levi_reads_the_levi_matrix_once(tmp_path, capsys, monkeypatch, nu, nprime):
    """The report's t_hessian is the t-block of the Levi matrix already read
    for levi_matrix, equal to germs.t_hessian."""
    germ = random_germ(random.Random(10 * nu + nprime), nu, nprime, 4)
    path = drop(tmp_path, "g.json", germ_to_json(germ))
    reads = []

    def counted(g):
        reads.append(g)
        return levi_matrix(g)

    monkeypatch.setattr(germs, "levi_matrix", counted)
    res = run_json(tmp_path, capsys, "levi", path)["results"]
    assert len(reads) == 1
    assert res["t_hessian"] == [[str(x) for x in row] for row in t_hessian(germ)]


def test_reports_are_byte_identical(tmp_path, capsys):
    path = drop(tmp_path, "g.json", TILTED)
    assert cli.run(["central", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["central", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def test_central_graph_values(tmp_path, capsys):
    path = drop(tmp_path, "g.json", TILTED)
    report = run_json(tmp_path, capsys, "central", path, extra=("--check",))
    res = report["results"]
    assert res["graph"]["t1"]["terms"] == [
        {"monomial": {"s": 1}, "coefficient": "-1/2"}
    ]
    sigma_terms = {
        tuple(sorted(t["monomial"].items())): t["coefficient"]
        for t in res["restricted_phi"]["terms"]
    }
    assert sigma_terms[(("z1", 1), ("zb1", 1))] == "1"
    assert sigma_terms[(("s", 2),)] == "-1/4"
    assert report["checks"]["gradient_vanishes_on_graph"] is True


def test_phi_quadric_vanishes(tmp_path, capsys):
    path = drop(tmp_path, "g.json", QUADRIC)
    report = run_json(tmp_path, capsys, "phi", path, extra=("--check",))
    entries = report["results"]["entries"]
    assert entries[0][0]["terms"] == []
    assert report["results"]["routes_agree"] is True
    assert report["checks"]["independent_routes_agree"] is True


def test_normalize_split_model(tmp_path, capsys):
    path = drop(tmp_path, "g.json", SPLIT_MODEL)
    report = run_json(tmp_path, capsys, "normalize", path, extra=("--check",))
    res = report["results"]
    assert res["quadratic_coefficients"] == ["1"]
    assert res["signature"] == 1
    assert report["checks"]["reconstruction_is_exact"] is True


def test_external_mizohata(tmp_path, capsys):
    path = drop(tmp_path, "g.json", MIZOHATA)
    report = run_json(tmp_path, capsys, "external", path, extra=("--check",))
    res = report["results"]
    assert res["chart"] == [{"complex_variable": "z1", "absorbs": "t1"}]
    assert res["lift_levi_matrix"] == [["1/2"]]
    assert res["lift_signature"]["positive"] == 1
    assert report["checks"]["levi_blocks_match_prediction"] is True


def test_rigid_check_quadric(tmp_path, capsys):
    path = drop(tmp_path, "g.json", QUADRIC)
    report = run_json(tmp_path, capsys, "rigid-check", path, extra=("--check",))
    res = report["results"]
    assert res["consistent_with_rigid_analyticity"] is True
    assert res["offending_terms"] == []
    assert report["checks"]["independent_routes_agree"] is True


def test_ode_flat_height(tmp_path, capsys):
    path = drop(
        tmp_path,
        "h.json",
        {"order": 8, "h": [{"monomial": {"x": 2}, "coefficient": "1/2"}]},
    )
    report = run_json(tmp_path, capsys, "ode", path, extra=("--check",))
    assert report["results"]["right_side"]["terms"] == [
        {"monomial": {"u": 1}, "coefficient": "1"}
    ]
    assert report["checks"]["profile_equation_residual_is_zero"] is True


def test_lift_scaling(tmp_path, capsys):
    src = drop(tmp_path, "src.json", SPLIT_MODEL)
    tgt = drop(tmp_path, "tgt.json", SPLIT_MODEL)
    mp = drop(tmp_path, "map.json", SCALING_MAP)
    report = run_json(tmp_path, capsys, "lift", src, tgt, mp, extra=("--check",))
    res = report["results"]
    assert res["multiplier"]["terms"] == [{"monomial": {}, "coefficient": "4"}]
    assert res["scale_at_origin"] == "2"
    assert res["t_maps"]["t1"]["terms"] == [
        {"monomial": {"t1": 1}, "coefficient": "2"}
    ]
    assert all(report["checks"].values())


@pytest.mark.parametrize(
    "source, target, message",
    [
        (
            SPLIT_MODEL,
            {
                **SPLIT_MODEL,
                "phi": [*SPLIT_MODEL["phi"][:2], {"monomial": {"t1": 2}, "coefficient": "2"}],
            },
            "quadratic coefficients differ between source and target; no split lift exists",
        ),
        (
            {
                **SPLIT_MODEL,
                "phi": [*SPLIT_MODEL["phi"], {"monomial": {"s": 1, "t1": 2}, "coefficient": "1"}],
            },
            SPLIT_MODEL,
            "germ is not in split normal form over the given core",
        ),
    ],
    ids=["coefficients-differ", "not-split"],
)
def test_lift_refuses_models_without_a_split_lift(tmp_path, capsys, source, target, message):
    files = [
        drop(tmp_path, "src.json", source),
        drop(tmp_path, "tgt.json", target),
        drop(tmp_path, "map.json", SCALING_MAP),
    ]
    assert cli.run(["lift", *files, "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"precondition violated: {message}\n"


WIDE_SPLIT_MODEL = {
    "nu": 2,
    "nprime": 1,
    "order": 6,
    "phi": [
        {"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1"},
        {"monomial": {"z2": 1, "zb2": 1}, "coefficient": "1"},
        {"monomial": {"t1": 2}, "coefficient": "1"},
    ],
}

NEGATIVE_SPLIT_MODEL = {
    **SPLIT_MODEL,
    "phi": [{"monomial": {"z1": 1, "zb1": 1}, "coefficient": "-1"}, *SPLIT_MODEL["phi"][1:]],
}


@pytest.mark.parametrize(
    "target, mapping, message",
    [
        (WIDE_SPLIT_MODEL, SCALING_MAP, "source and target have different z dimensions"),
        ({**SPLIT_MODEL, "order": 5}, SCALING_MAP, "source and target orders differ"),
        (SPLIT_MODEL, {**SCALING_MAP, "order": 5}, "map components must carry the germ order"),
        (
            SPLIT_MODEL,
            {**SCALING_MAP, "w": [*SCALING_MAP["w"], {"monomial": {}, "coefficient": "1"}]},
            "map components must vanish at the origin",
        ),
        (
            NEGATIVE_SPLIT_MODEL,
            {
                "order": 6,
                "z": [[{"monomial": {"z1": 1}, "coefficient": "1"}]],
                "w": [{"monomial": {"eta": 1}, "coefficient": "-1"}],
            },
            "target core Levi form must be positive definite",
        ),
    ],
    ids=["z-dimensions", "germ-orders", "map-order", "map-constant", "indefinite-target"],
)
def test_lift_refuses_mismatched_map_data(tmp_path, capsys, target, mapping, message):
    files = [
        drop(tmp_path, "src.json", SPLIT_MODEL),
        drop(tmp_path, "tgt.json", target),
        drop(tmp_path, "map.json", mapping),
    ]
    assert cli.run(["lift", *files, "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"precondition violated: {message}\n"


@pytest.mark.parametrize("command, kind", [("lift", "map"), ("ode", "height")])
def test_exit_one_on_a_map_or_height_file_that_is_no_object(tmp_path, capsys, command, kind):
    array = drop(tmp_path, f"{kind}.json", [])
    files = [drop(tmp_path, "g.json", SPLIT_MODEL)] * 2 + [array] if command == "lift" else [array]
    assert cli.run([command, *files]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {array}: {kind} file must be a JSON object\n"


def test_text_format(tmp_path, capsys):
    path = drop(tmp_path, "g.json", QUADRIC)
    assert cli.run(["levi", path]) == 0
    out = capsys.readouterr().out
    assert "command: levi" in out
    assert "{" not in out.splitlines()[0]


def test_order_override(tmp_path, capsys):
    path = drop(tmp_path, "g.json", QUADRIC)
    report = run_json(tmp_path, capsys, "levi", path, extra=("--order", "3"))
    assert report["input"]["order"] == 3


def test_order_two_germs_certify(tmp_path, capsys):
    # The section Hessian and the Morse loop's square factor are jets of
    # order 0, where the variables that compositions keep cannot be built
    # as jets; they keep their names through the composition instead.
    order_two = ("--order", "2", "--check")
    zero_entry = [[{"order": 0, "terms": [], "variables": ["z1", "w", "wp1"]}]]
    for germ in (QUADRIC, SPLIT_MODEL):
        report = run_json(tmp_path, capsys, "phi", drop(tmp_path, "g.json", germ), extra=order_two)
        assert report["results"]["entries"] == zero_entry
        assert report["reliable_orders"] == {"entries": 0}
        assert all(report["checks"].values())
    path = drop(tmp_path, "g.json", QUADRIC)
    report = run_json(tmp_path, capsys, "rigid-check", path, extra=order_two)
    assert report["results"]["consistent_with_rigid_analyticity"] is True
    assert all(report["checks"].values())
    for germ in (SPLIT_MODEL, TILTED):
        path = drop(tmp_path, "g.json", germ)
        report = run_json(tmp_path, capsys, "normalize", path, extra=order_two)
        assert report["checks"]["reconstruction_is_exact"] is True
        assert report["reliable_orders"] == {"base": 2, "square_maps": 1}


GERM_COMMANDS = ("levi", "central", "normalize", "phi", "external", "rigid-check", "lift")


@pytest.mark.parametrize("germ", [QUADRIC, TILTED, {**TILTED, "order": 1, "phi": []}])
def test_germ_commands_refuse_order_one(tmp_path, capsys, germ):
    """Below order 2 a germ is phi = 0; every germ command refuses it before
    any arithmetic, naming itself and the order it needs."""
    path = drop(tmp_path, "g.json", germ)
    scaling = drop(tmp_path, "map.json", SCALING_MAP)
    order = () if germ["order"] == 1 else ("--order", "1")
    for command in GERM_COMMANDS:
        files = (path, path, scaling) if command == "lift" else (path,)
        assert cli.run([command, *files, *order, "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"precondition violated: {command} needs a germ of order at least 2, got order 1\n"
        )


def test_wide_germs_are_refused_quickly_by_every_germ_command(tmp_path, capsys):
    """A 50-byte germ of nu = 1000 would make levi print a 124 MB Levi
    matrix; every germ command refuses it from its counts, naming the
    bound, whether it is the source or the target of a lift."""
    wide = drop(tmp_path, "wide.json", {"nu": 1000, "nprime": 0, "order": 2, "phi": []})
    split = drop(tmp_path, "split.json", SPLIT_MODEL)
    scaling = drop(tmp_path, "map.json", SCALING_MAP)
    argvs = [[c, wide, split, scaling] if c == "lift" else [c, wide] for c in GERM_COMMANDS]
    argvs.append(["lift", split, wide, scaling])
    start = time.perf_counter()
    for argv in argvs:
        assert cli.run([*argv, "--format", "json", "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"precondition violated: {argv[0]} needs a germ with nu + nprime at most "
            f"{cli.MAX_GERM_WIDTH}, got 1000\n"
        )
    assert time.perf_counter() - start < 2


def test_the_germ_width_bound_has_headroom(tmp_path, capsys):
    """The tests reach nu = 4 and nprime = 3 and the benchmark nu + nprime
    = 3; the bound admits eight times the widest, and a nondegenerate germ
    at the bound runs."""
    assert cli.MAX_GERM_WIDTH >= 8 * (4 + 3)
    half = cli.MAX_GERM_WIDTH // 2
    squares = [{f"z{j}": 1, f"zb{j}": 1} for j in range(1, half + 1)]
    squares += [{f"t{l}": 2} for l in range(1, half + 1)]
    phi = [{"monomial": m, "coefficient": "1"} for m in squares]
    germ = {"nu": half, "nprime": half, "order": 2, "phi": phi}
    report = run_json(tmp_path, capsys, "levi", drop(tmp_path, "g.json", germ))
    assert report["results"]["signature"] == {"positive": 2 * half, "negative": 0, "null": 0}
    assert cli.run(["levi", drop(tmp_path, "g.json", {**germ, "nprime": half + 1})]) == 2
    assert "got 65" in capsys.readouterr().err


def test_order_past_the_packing_limit_is_named(tmp_path, capsys):
    path = drop(tmp_path, "g.json", QUADRIC)
    assert cli.run(["levi", path, "--order", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "precondition violated: order 99 exceeds 30, the packing limit for this alphabet\n"
    )


UNKNOWN_VARIABLE = [{"monomial": {"q": 1}, "coefficient": "1"}]


@pytest.mark.parametrize(
    "command, inputs",
    [
        ("levi", [{"nu": 1, "nprime": 0, "order": 40, "phi": UNKNOWN_VARIABLE}]),
        ("ode", [{"order": 40, "h": UNKNOWN_VARIABLE}]),
        ("lift", [SPLIT_MODEL, SPLIT_MODEL,
                  {"order": 40, "z": [UNKNOWN_VARIABLE], "w": UNKNOWN_VARIABLE}]),
    ],
    ids=["germ", "height", "map"],
)
def test_file_order_past_the_packing_limit_is_refused_before_its_records(
    tmp_path, capsys, command, inputs
):
    """Order 40 over at most 9 variables is refused for its order, not for
    the unknown variable q of its first record."""
    files = [drop(tmp_path, f"in{k}.json", obj) for k, obj in enumerate(inputs)]
    assert cli.run([command, *files]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "precondition violated: order 40 exceeds 30, the packing limit for this alphabet\n"
    )


def corpus_invocations(tmp_path):
    """Every subcommand on the fixed germs above and a few seeded random
    germs, each with and without --check."""
    rng = random.Random(909)
    germs = {"quadric": QUADRIC, "split": SPLIT_MODEL, "tilted": TILTED, "mizohata": MIZOHATA}
    for k, germ in enumerate(
        [random_germ(rng, 1, 1, 5), random_germ(rng, 2, 0, 4), random_definite_germ(rng, 1, 2, 5)]
    ):
        germs[f"random{k}"] = germ_to_json(germ)
    paths = {name: drop(tmp_path, f"{name}.json", obj) for name, obj in germs.items()}
    height = drop(tmp_path, "h.json", {"order": 8, "h": terms_to_json(random_height(rng))})
    scaling = drop(tmp_path, "map.json", SCALING_MAP)
    calls = [
        [command, path]
        for command in ("levi", "central", "normalize", "phi", "external", "rigid-check")
        for path in paths.values()
    ]
    calls += [["ode", height], ["lift", paths["split"], paths["split"], scaling]]
    for argv in calls:
        yield argv
        yield argv + ["--check"]


def test_json_reports_match_the_payload_oracle(tmp_path, capsys):
    """--format json stdout is the standard library's text of the payload
    spelled out as plain dicts and strings, for every subcommand."""
    ran = set()
    for argv in corpus_invocations(tmp_path):
        argv = argv + ["--format", "json"]
        code = cli.run(argv)
        out = capsys.readouterr().out
        if code:
            assert code == 2 and out == "", argv
            continue
        assert out == oracle_dumps(cli.payload(cli.build_parser().parse_args(argv))), argv
        ran.add(argv[0])
    assert ran == set(cli._COMMANDS)


# sha256 over the exit code and --format text stdout of every corpus run
CORPUS_TEXT_SHA256 = "f6a4b66021e7cb0094bf6b40f541ec91471eb6a6f539e69b26eda431111b348d"


def test_text_reports_match_the_pinned_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    for argv in corpus_invocations(tmp_path):
        code = cli.run(argv + ["--format", "text"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == CORPUS_TEXT_SHA256


@st.composite
def reparametrized_germs(draw):
    """A random_definite_germ (nu 1-2, nprime 1-2, order 4-6), rigid or
    not, and the same germ after a random real change of fiber coordinates
    t -> T(z, zb, s, t), free of s for a rigid germ so that it stays rigid."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    rigid = draw(st.booleans())
    germ = random_definite_germ(
        rng, nu=draw(st.integers(1, 2)), nprime=draw(st.integers(1, 2)), order=draw(st.integers(4, 6))
    )
    if rigid:
        germ = make_germ(germ.nu, germ.nprime, germ.phi.at_zero(["s"], germ.phi.alphabet))
    fiber = random_fiber_map(rng, germ, s_free=rigid)
    (moved,) = compose_many([germ.phi], dict(zip(germ.t_names(), fiber)), order=germ.order)
    return germ, make_germ(germ.nu, germ.nprime, moved), rigid


def json_report(command, germ):
    """Exit code and --format json --check stdout of one run on the germ."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w") as handle:
            handle.write(canonical_dumps(germ_to_json(germ)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run([command, path, "--format", "json", "--check"])
    return code, out.getvalue()


@settings(max_examples=25, deadline=None)
@given(reparametrized_germs())
def test_reports_are_invariant_under_fiber_reparametrization(germs):
    """The central manifold is an invariant of the structure: phi(., T) has
    the critical values of phi, and phi and rigid-check reduce to the
    center first, so their reports on phi and phi(., T) are byte-identical."""
    germ, moved, rigid = germs
    for command in ("phi", "rigid-check") if rigid else ("phi",):
        code, out = json_report(command, germ)
        assert code == 0, command
        assert json_report(command, moved) == (code, out), command


def test_exit_one_on_bad_input(tmp_path, capsys):
    assert cli.run(["levi", str(tmp_path / "missing.json")]) == 1
    assert "parse error" in capsys.readouterr().err

    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert cli.run(["levi", str(garbled)]) == 1

    located = drop(
        tmp_path,
        "loc.json",
        dict(QUADRIC, phi=[{"monomial": {"bogus": 1}, "coefficient": "1"}]),
    )
    assert cli.run(["levi", located]) == 1
    assert "phi term 0" in capsys.readouterr().err


def test_exit_one_on_invalid_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"nu": 1, "note": "caf\xe9"}')
    assert cli.run(["levi", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error") and str(path) in err


def test_exit_one_on_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert cli.run(["levi", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error") and str(path) in err


def test_exit_one_on_coefficient_past_the_digit_limit(tmp_path, capsys):
    """1e999999 would be a million-digit integer that str() refuses."""
    path = drop(
        tmp_path,
        "huge.json",
        dict(QUADRIC, phi=[{"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1e999999"}]),
    )
    assert cli.run(["levi", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error") and path in err
    assert "phi term 0" in err and "1e999999" in err
    # a superscript exponent is not a decimal one
    path = drop(
        tmp_path,
        "sup.json",
        dict(QUADRIC, phi=[{"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1e\u00b2"}]),
    )
    assert cli.run(["levi", path]) == 1
    assert capsys.readouterr().err.startswith("parse error")


LONG_INTEGER = "1" * 5000


@pytest.mark.parametrize(
    "command, texts",
    [
        ("levi", ['{"nu": 1, "nprime": 0, "order": %s, "phi": []}' % LONG_INTEGER]),
        ("ode", ['{"order": 4, "h": [{"monomial": {"x": %s}}]}' % LONG_INTEGER]),
        ("lift", [canonical_dumps(SPLIT_MODEL), canonical_dumps(SPLIT_MODEL),
                  '{"order": 6, "z": [[]], "w": [{"monomial": {"eta": 1}, '
                  '"coefficient": %s}]}' % LONG_INTEGER]),
    ],
    ids=["germ order", "height exponent", "map coefficient"],
)
def test_exit_one_on_a_json_integer_past_the_digit_limit(tmp_path, capsys, command, texts):
    """A bare JSON integer of 5000 digits, which json.loads cannot convert."""
    paths = []
    for k, text in enumerate(texts):
        path = tmp_path / f"in{k}.json"
        path.write_text(text)
        paths.append(str(path))
    assert cli.run([command, *paths]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error") and paths[-1] in err
    assert str(sys.get_int_max_str_digits()) in err


# A germ with one 2,501-digit coefficient, under the parse limit of 4,300
# digits, whose results need integers past it.
OVERSIZE_RESULTS = dict(
    TILTED,
    order=5,
    phi=[
        {"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1"},
        {"monomial": {"t1": 2}, "coefficient": "1"},
        {"monomial": {"z1": 1, "zb1": 1, "t1": 1}, "coefficient": str(10**2500 + 7)},
    ],
)


@pytest.mark.parametrize("command", ["central", "normalize", "phi"])
def test_exit_two_on_a_result_past_the_digit_limit(tmp_path, capsys, command):
    path = drop(tmp_path, "big.json", OVERSIZE_RESULTS)
    for flags in ((), ("--format", "json")):
        assert cli.run([command, path, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("precondition violated: " + command)
        assert "4300 decimal digits" in err


# Under the parse limit, but the square coefficient that morse_normalize
# certifies has about 6,000 digits.
WIDE_CROSS_TERM = {
    "nu": 1,
    "nprime": 2,
    "order": 3,
    "phi": [
        {"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1"},
        {"monomial": {"t1": 2}, "coefficient": "1"},
        {"monomial": {"t1": 1, "t2": 1}, "coefficient": str(10**3000)},
        {"monomial": {"t2": 2}, "coefficient": "1"},
    ],
}


def test_normalize_writes_no_certified_coefficient_past_the_digit_limit(tmp_path, capsys):
    """A certificate that holds builds no text from its values."""
    path = drop(tmp_path, "wide.json", WIDE_CROSS_TERM)
    limit = sys.get_int_max_str_digits()
    for flags in ((), ("--format", "json"), ("--check",)):
        assert cli.run(["normalize", path, *flags]) == 2
        assert capsys.readouterr() == ("", (
            f"precondition violated: normalize has a result with an integer of more than "
            f"{limit} decimal digits, the limit for writing one\n"
        ))


def test_exit_one_on_an_unknown_key_in_a_complex_coefficient(tmp_path, capsys):
    coefficient = {"re": "1", "im": "0", "x": "2"}
    path = drop(
        tmp_path,
        "extra.json",
        dict(QUADRIC, phi=[{"monomial": {"z1": 1, "zb1": 1}, "coefficient": coefficient}]),
    )
    assert cli.run(["levi", path]) == 1
    assert capsys.readouterr() == (
        "", f"parse error: {path}: phi term 0: unexpected keys ['x'] in a complex rational\n"
    )


def test_exit_one_on_usage_errors(capsys):
    assert cli.run([]) == 1
    assert cli.run(["no-such-command", "x.json"]) == 1
    capsys.readouterr()


def test_help_returns_zero(capsys):
    assert cli.run(["-h"]) == 0
    assert "COMMAND" in capsys.readouterr().out
    assert cli.run(["levi", "-h"]) == 0
    assert "--order" in capsys.readouterr().out


def test_parser_reuse_matches_a_fresh_parser(tmp_path, capsys):
    path = drop(tmp_path, "g.json", SPLIT_MODEL)
    calls = [
        ["levi", path, "--format", "json"],
        ["levi", path, "--format", "yaml"],
        ["levi", "-h"],
        ["levi", "--format", "json"],
        ["levi", path, "--format", "json"],
    ]

    def outcomes(fresh):
        seen = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            code = cli.run(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    reused = outcomes(fresh=False)
    assert [code for code, _, _ in reused] == [0, 1, 0, 1, 0]
    assert reused[-1][1] == reused[0][1]
    assert outcomes(fresh=True) == reused
    assert cli.build_parser() is cli.build_parser()


def test_exit_two_on_precondition(tmp_path, capsys):
    degenerate = {
        "nu": 1,
        "nprime": 1,
        "order": 6,
        "phi": [
            {"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1"},
            {"monomial": {"t1": 3}, "coefficient": "1"},
        ],
    }
    path = drop(tmp_path, "g.json", degenerate)
    assert cli.run(["central", path]) == 2
    assert "precondition violated" in capsys.readouterr().err


def test_exit_three_on_invariant(tmp_path, capsys, monkeypatch):
    def explode(args):
        raise InvariantError("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "levi", cli._COMMANDS["levi"]._replace(run=explode))
    path = drop(tmp_path, "g.json", QUADRIC)
    assert cli.run(["levi", path]) == 3
    assert capsys.readouterr().err == "invariant violated: synthetic failure\n"


def test_a_false_check_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "lift_levi_relation", lambda ext: False)
    path = drop(tmp_path, "g.json", MIZOHATA)
    assert cli.run(["external", path, "--check"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invariant violated: external --check failed: levi_blocks_match_prediction\n"
    # without --check the relation is not consulted
    assert cli.run(["external", path]) == 0
    assert capsys.readouterr().err == ""


def certify_falsely(monkeypatch, module, identity):
    """Make the module's certificate of one identity record holds=False
    without raising; every other certificate runs as before."""
    real = module.certify

    def certify(holds, stage, name, message):
        if name != identity:
            return real(holds, stage, name, message)
        with pytest.raises(InvariantError):
            real(False, stage, name, message)

    monkeypatch.setattr(module, "certify", certify)


RECORD_BACKED = [
    ("phi", QUADRIC, segre, "routes agree", "independent_routes_agree"),
    ("rigid-check", QUADRIC, segre, "routes agree", "independent_routes_agree"),
    ("central", TILTED, central, "straightened phi has no t-linear term",
     "gradient_vanishes_on_graph"),
    ("normalize", SPLIT_MODEL, central, "squares reconstruct phi", "reconstruction_is_exact"),
]


@pytest.mark.parametrize(
    "command, germ, module, identity, key", RECORD_BACKED, ids=[c[0] for c in RECORD_BACKED]
)
def test_record_backed_checks_read_the_record(
    tmp_path, capsys, monkeypatch, command, germ, module, identity, key
):
    path = drop(tmp_path, "g.json", germ)
    certify_falsely(monkeypatch, module, identity)
    assert cli.run([command, path, "--check"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invariant violated: {command} --check failed: {key}\n"


def test_phi_routes_agree_result_reads_the_record(tmp_path, capsys, monkeypatch):
    path = drop(tmp_path, "g.json", QUADRIC)
    certify_falsely(monkeypatch, segre, "routes agree")
    assert cli.run(["phi", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["routes_agree"] is False


def test_each_call_records_into_its_own_record(tmp_path):
    path = drop(tmp_path, "g.json", SPLIT_MODEL)
    with recording() as outer:
        assert cli.run(["normalize", path, "--check"]) == 0
    assert outer == []


# A rigid nu = 1 germ with cubic terms, so that rho has non-real
# coefficients of degree 3 and more.
CUBIC = {
    "nu": 1,
    "nprime": 0,
    "order": 6,
    "phi": [
        {"monomial": {"z1": 1, "zb1": 1}, "coefficient": "1"},
        {"monomial": {"z1": 2, "zb1": 1}, "coefficient": "1"},
        {"monomial": {"z1": 1, "zb1": 2}, "coefficient": "1"},
        {"monomial": {"z1": 3}, "coefficient": {"re": "0", "im": "1"}},
        {"monomial": {"zb1": 3}, "coefficient": {"re": "0", "im": "-1"}},
    ],
}


def conjugate_skipping_cubic_terms(self):
    """Jet.conjugate with a fault: coefficients of degree 3 and more are
    moved to their conjugate monomial but not conjugated."""
    images = self._involution_images()
    remap, degree = self.alphabet.remap, self.alphabet.degree
    return Jet._raw(
        self.alphabet,
        self.order,
        {remap(c, images): v.conjugate() if degree(c) < 3 else v for c, v in self.terms.items()},
    )


def assert_caught_by(capsys, argv, certificate):
    """The run exits 3 with empty stdout, and stderr names the stage and
    the identity of the certificate that caught the fault."""
    assert cli.run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"invariant violated: {certificate}: "), err


@pytest.mark.parametrize("command", ["phi", "rigid-check"])
def test_a_conjugation_fault_fails_the_defining_function_identity(
    tmp_path, capsys, monkeypatch, command
):
    """complexify no longer recomputes the reality identity; the
    determinant route's check of F at the elimination, which substitutes
    the conjugated graph, catches a faulty conjugation instead."""
    argv = [command, drop(tmp_path, "g.json", CUBIC), "--format", "json", "--check"]
    assert cli.run(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(Jet, "conjugate", conjugate_skipping_cubic_terms)
    assert_caught_by(capsys, argv, "phi_determinant: F vanishes at the elimination")


def test_a_scaled_graph_fails_graph_starts_as_wb(tmp_path, capsys, monkeypatch):
    """complexify's solution for S comes back doubled, after the solver
    certified it, so rho = 4S - wb starts as 3 wb."""
    real = segre.implicit_solve

    def doubled(equations, unknowns, **kwargs):
        solved = real(equations, unknowns, **kwargs)
        return [x * 2 for x in solved] if list(unknowns) == ["s"] else solved

    monkeypatch.setattr(segre, "implicit_solve", doubled)
    argv = ["phi", drop(tmp_path, "g.json", CUBIC), "--check"]
    assert_caught_by(capsys, argv, "complexify: graph starts as wb")


def test_an_elimination_route_fault_fails_routes_agree(tmp_path, capsys, monkeypatch):
    """A constant added to the elimination route's entry is seen only by
    the comparison of the two routes."""
    real = segre.phi_elimination

    def shifted(ch, elim):
        hessian = real(ch, elim)
        return dataclasses.replace(hessian, entries=((hessian.entries[0][0] + 1,),))

    monkeypatch.setattr(segre, "phi_elimination", shifted)
    for command in ("phi", "rigid-check"):
        argv = [command, drop(tmp_path, "g.json", CUBIC), "--check"]
        assert_caught_by(capsys, argv, "certified_section_hessian: routes agree")


def test_a_lost_first_integral_fails_the_rank_certificate(tmp_path, capsys, monkeypatch):
    """w dropped from the lifted first integrals leaves nu + nprime of
    the nu + nprime + 1 independent linear parts."""
    real = marson.first_integrals

    def without_w(germ):
        integrals = real(germ)
        del integrals["w"]
        return integrals

    monkeypatch.setattr(marson, "first_integrals", without_w)
    argv = ["external", drop(tmp_path, "g.json", TILTED), "--check"]
    assert_caught_by(capsys, argv, "external_lift: first integrals have full rank")


def test_a_doubled_chart_fails_slice_recovers_phi(tmp_path, capsys, monkeypatch):
    """The chart absorbs t as (z - zb)(-i), twice Im z, so the slice
    z = i t gives phi at 2t."""
    monkeypatch.setattr(marson, "MINUS_HALF_I", MINUS_I)
    argv = ["external", drop(tmp_path, "g.json", TILTED), "--check"]
    assert_caught_by(capsys, argv, "external_lift: slice recovers phi")


def counting(monkeypatch, module, name):
    """Wrap module.name so that each call appends to the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_central_solves_the_critical_graph_once(tmp_path, capsys, monkeypatch):
    """central reports the graph, sigma and the straightened germ from one
    straightening and one solve; normalize straightens the same way."""
    solves = counting(monkeypatch, central, "implicit_solve")
    straightenings = counting(monkeypatch, cli, "straighten")
    path = drop(tmp_path, "g.json", TILTED)
    assert cli.run(["central", path, "--check"]) == 0
    assert (len(solves), len(straightenings)) == (1, 1)
    assert cli.run(["normalize", path, "--check"]) == 0
    assert len(straightenings) == 2


def test_external_computes_one_inertia(tmp_path, capsys, monkeypatch):
    """external --check reports one signature, the lift's; the block
    relation compares Levi matrices without diagonalizing either."""
    diagonalizations = counting(monkeypatch, linalg, "symmetric_diagonalize")
    path = drop(tmp_path, "g.json", TILTED)
    report = run_json(tmp_path, capsys, "external", path, extra=("--check",))
    assert report["checks"]["levi_blocks_match_prediction"] is True
    assert len(diagonalizations) == 1


@pytest.mark.parametrize("seed", range(3))
def test_the_external_lift_reads_back_as_a_germ(tmp_path, capsys, seed):
    """Marson's loop: the germ external reports under results.lift is a
    germ file. levi, phi and, on a rigid source, whose lift is rigid too,
    rigid-check read it and exit 0, or phi and rigid-check refuse a lift
    whose z-block is degenerate by name with exit 2."""
    germ = random_germ(random.Random(700 + seed), nu=1, nprime=1, order=5)
    rigid = make_germ(1, 1, germ.phi.at_zero(["s"], germ.phi.alphabet))
    for source, commands in ((germ, ("levi", "phi")), (rigid, ("levi", "phi", "rigid-check"))):
        path = drop(tmp_path, "g.json", germ_to_json(source))
        lift = run_json(tmp_path, capsys, "external", path)["results"]["lift"]
        lift_path = drop(tmp_path, "lift.json", lift)
        for command in commands:
            code = cli.run([command, lift_path, "--format", "json", "--check"])
            out, err = capsys.readouterr()
            if code == 2:
                assert command != "levi" and out == ""
                assert err.startswith("precondition violated: z-block of the Levi form is degenerate")
            else:
                assert code == 0, err
                assert json.loads(out)["input"] == {"nu": 2, "nprime": 0, "order": 5}


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract
# ---------------------------------------------------------------------------

real_literals = st.fractions(min_value=-5, max_value=5, max_denominator=4).map(str)
literals = st.one_of(
    real_literals,
    real_literals,
    real_literals,
    st.builds(
        lambda re, im: {"re": re, "im": im},
        st.sampled_from(["1", "-1/2", "0"]),
        st.sampled_from(["0", "2", "1/3"]),
    ),
    st.sampled_from(["1e3", "1/0", "x", "", None, 7, [], {"re": "y"}]),
)


@st.composite
def monomials(draw, names, order):
    """Exponents of total degree <= order, and now and then order + 1."""
    room = order + (draw(st.integers(0, 9)) == 0)
    mono = {}
    for name in draw(st.permutations(names)):
        e = draw(st.integers(0, room))
        if e:
            mono[name] = e
        room -= e
    return mono


def term_records(names, order):
    return st.lists(
        st.builds(lambda m, c: {"monomial": m, "coefficient": c}, monomials(names, order), literals),
        max_size=5,
        unique_by=lambda record: tuple(sorted(record["monomial"].items())),
    )


@st.composite
def germ_objects(draw):
    """Small germ files: nu <= 2, nprime <= 1, order <= 4."""
    nu, nprime, order = draw(st.integers(0, 2)), draw(st.integers(0, 1)), draw(st.integers(1, 4))
    names = [f"z{j}" for j in range(1, nu + 1)] + [f"zb{j}" for j in range(1, nu + 1)] + ["s"]
    names += [f"t{l}" for l in range(1, nprime + 1)]
    phi = draw(term_records(names, order))
    if draw(st.booleans()):
        # a quadric part, so that some germs get past the nondegeneracy checks
        phi += [{"monomial": {f"z{j}": 1, f"zb{j}": 1}, "coefficient": "1"} for j in range(1, nu + 1)]
        phi += [{"monomial": {f"t{l}": 2}, "coefficient": "1"} for l in range(1, nprime + 1)]
    return {"nu": nu, "nprime": nprime, "order": order, "phi": phi}


@st.composite
def height_objects(draw):
    order = draw(st.integers(2, 4))
    h = draw(term_records(["x"], order))
    if draw(st.booleans()):
        h.append({"monomial": {"x": 2}, "coefficient": "1"})
    return {"order": order, "h": h}


@st.composite
def map_objects(draw):
    nu, order = draw(st.integers(0, 2)), draw(st.integers(1, 4))
    names = [f"z{j}" for j in range(1, nu + 1)] + ["eta"]
    z = [draw(term_records(names, order)) for _ in range(nu)]
    return {"order": order, "z": z, "w": draw(term_records(names, order))}


FILE_KINDS = {
    "germ": st.one_of(germ_objects(), st.sampled_from([QUADRIC, SPLIT_MODEL, TILTED, MIZOHATA])),
    "height": height_objects(),
    "map": st.one_of(map_objects(), st.just(SCALING_MAP)),
}
FLAG_GROUPS = st.sampled_from(
    [
        ["--check"],
        ["--format", "json"],
        ["--format", "text"],
        *(["--order", v] for v in ("1", "2", "4", "0", "-3", "99", "x")),
        ["-h"],
        ["--bogus"],
        ["--format", "yaml"],
        ["--order"],
        ["extra.json"],
    ]
)


@st.composite
def invocations(draw):
    """argv for cli.run: a command, its input files' bytes, and flags."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS) + ["no-such-command"]))
    kinds = {"lift": ["germ", "germ", "map"], "ode": ["height"]}.get(command, ["germ"])
    if draw(st.integers(0, 9)) == 0:
        kinds = draw(st.lists(st.sampled_from(sorted(FILE_KINDS)), max_size=3))
    contents = []
    for kind in kinds:
        other = st.sampled_from(sorted(FILE_KINDS)).flatmap(FILE_KINDS.get)
        obj = draw(st.one_of(*[FILE_KINDS[kind]] * 4, other))
        text = canonical_dumps(obj).encode()
        contents.append(draw(st.one_of(*[st.just(text)] * 4, st.binary(max_size=64))))
    flags = [f for group in draw(st.lists(FLAG_GROUPS, max_size=2)) for f in group]
    return command, contents, flags


@given(invocations())
@settings(max_examples=150, deadline=None)
def test_fuzzed_runs_keep_the_exit_code_contract(invocation):
    command, contents, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, content in enumerate(contents):
            path = os.path.join(tmp, f"in{k}.json")
            with open(path, "wb") as handle:
                handle.write(content)
            paths.append(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run([command, *paths, *flags])
            except (Exception, SystemExit) as exc:  # nothing may escape run
                pytest.fail(f"cli.run raised {exc!r}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_ode_is_covariant_through_the_cli(tmp_path, capsys):
    """crjets ode on h, h(lam x) and c h: the same right side psi for the
    first two, and u -> c psi(u / c) for the third."""
    h = random_height(random.Random(41), 12)
    lam, c = Fraction(-3, 2), Fraction(2, 3)
    heights = {
        "h": h,
        "scaled": Jet.from_terms(h.alphabet, h.order, {(k,): v * lam ** k for (k,), v in h.monomials()}),
        "multiple": h * c,
    }
    sides = {}
    for name, jet in heights.items():
        path = drop(tmp_path, f"{name}.json", {"order": jet.order, "h": terms_to_json(jet)})
        sides[name] = run_json(tmp_path, capsys, "ode", path, extra=("--check",))["results"]["right_side"]
    assert sides["scaled"] == sides["h"]
    psi = {record["monomial"]["u"]: Fraction(record["coefficient"]) for record in sides["h"]["terms"]}
    assert {
        record["monomial"]["u"]: Fraction(record["coefficient"]) for record in sides["multiple"]["terms"]
    } == {k: v * c ** (1 - k) for k, v in psi.items()}
