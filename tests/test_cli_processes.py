"""The command line as a process: each run starts ``python -m crjets.cli``,
so main() parses, dispatches and sets the exit code as it does for a user.

Each row of RUNS names a command, the objects written to its input files
in argument order, its flags and its exit code. The rows reach stages
that the README's two commands leave out:

* central and normalize on TILTED, a germ with one t variable, run the
  critical graph, the straightening and the Morse loop; external lifts
  it, and phi on it starts the section Hessian from a center reduced
  from a germ with t variables;
* phi at order 3 eliminates the frozen parameters at the Hessian's
  order 1, not at 2; phi and normalize at order 2 give a section
  Hessian and a Morse factor of order 0, while the elimination keeps
  its floor of order 1;
* phi on PAIR, a nu = 2 germ with a cubic cross term, forms the
  off-diagonal entries, whose implicit differentiation pairs wp_i with
  F_zjw;
* ode on an even height composes the profile at a derived order;
* lift on SPLIT with the identity map runs the t = 0 slices of
  split_core and verify_lift, and with the scaling map z1 -> 2 z1,
  eta -> 4 eta its multiplier 4 gives the real and imaginary parts of
  the lift nontrivial data; rigid-check reads the same germ;
* phi at order 1 refuses the README's quadric with exit code 2;
* phi on OVERSIZE, whose one coefficient has 2,501 digits, under the
  parse limit, exits 2 when a result needs an integer past the limit.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def readme_quadric():
    """The germ of the README's command line example."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"^```json\n(.*?)^```$", text, re.S | re.M).group(1))


def term(coefficient, **monomial):
    return {"monomial": monomial, "coefficient": coefficient}


QUADRIC = readme_quadric()

TILTED = {
    "nu": 1,
    "nprime": 1,
    "order": 5,
    "phi": [
        term("1", z1=1, zb1=1),
        term("1", t1=2),
        term("1", s=1, t1=1),
        term({"re": "1/2", "im": "1"}, z1=1, t1=1),
        term({"re": "1/2", "im": "-1"}, zb1=1, t1=1),
        term("-1/3", s=2, t1=2),
    ],
}

PAIR = {
    "nu": 2,
    "nprime": 0,
    "order": 5,
    "phi": [
        term("1", z1=1, zb1=1),
        term("1", z2=1, zb2=1),
        term("1", z1=1, z2=1, zb1=1),
        term("1", z1=1, zb1=1, zb2=1),
    ],
}

HEIGHT = {"order": 8, "h": [term("1/2", x=2), term("1", x=4), term("-1/3", x=6)]}

SPLIT = {"nu": 1, "nprime": 1, "order": 4, "phi": [term("1", z1=1, zb1=1), term("1", t1=2)]}

OVERSIZE = {
    "nu": 1,
    "nprime": 1,
    "order": 5,
    "phi": [term("1", z1=1, zb1=1), term("1", t1=2), term(str(10**2500 + 7), z1=1, zb1=1, t1=1)],
}

IDENTITY = {"order": 4, "z": [[term("1", z1=1)]], "w": [term("1", eta=1)]}

SCALING = {"order": 4, "z": [[term("2", z1=1)]], "w": [term("4", eta=1)]}

JSON_CHECK = ("--format", "json", "--check")

RUNS = [
    ("central", (TILTED,), JSON_CHECK, 0),
    ("normalize", (TILTED,), JSON_CHECK, 0),
    ("external", (TILTED,), JSON_CHECK, 0),
    ("phi", (TILTED,), JSON_CHECK, 0),
    ("phi", (TILTED,), ("--order", "3", *JSON_CHECK), 0),
    ("phi", (QUADRIC,), ("--order", "2", "--check"), 0),
    ("normalize", (TILTED,), ("--order", "2", "--check"), 0),
    ("phi", (PAIR,), JSON_CHECK, 0),
    ("ode", (HEIGHT,), JSON_CHECK, 0),
    ("lift", (SPLIT, SPLIT, IDENTITY), ("--check",), 0),
    ("lift", (SPLIT, SPLIT, SCALING), ("--check",), 0),
    ("rigid-check", (SPLIT,), ("--check",), 0),
    ("phi", (QUADRIC,), ("--order", "1"), 2),
    ("phi", (OVERSIZE,), ("--format", "json"), 2),
]


@pytest.mark.parametrize(
    "command, objects, flags, code", RUNS, ids=[f"{r[0]}-{i}" for i, r in enumerate(RUNS)]
)
def test_process_run_exits_with_its_code(tmp_path, command, objects, flags, code):
    files = []
    for k, obj in enumerate(objects):
        path = tmp_path / f"input{k}.json"
        path.write_text(json.dumps(obj))
        files.append(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "crjets.cli", command, *files, *flags],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert bool(done.stdout) == (code == 0)
