"""Command line driver: outputs, exit codes, order overrides."""

import json

import pytest

from crjets import cli
from crjets.errors import InvariantError
from crjets.io import canonical_dumps


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


def test_exit_one_on_usage_errors(capsys):
    assert cli.run([]) == 1
    assert cli.run(["no-such-command", "x.json"]) == 1
    capsys.readouterr()


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

    monkeypatch.setitem(cli._COMMANDS, "levi", (explode, "boom"))
    path = drop(tmp_path, "g.json", QUADRIC)
    assert cli.run(["levi", path]) == 3
    assert "invariant violated" in capsys.readouterr().err
