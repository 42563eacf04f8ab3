"""The certificate audit as a table: for every certify site in src/crjets,
one command, its input and a monkeypatched fault that the site catches,
and what the same fault does when that site alone is switched off.

A run that a site catches exits 3 with empty stdout and stderr
"invariant violated: <stage>: <identity>: ...". With the site off the
fault is caught by another named site, refused with exit 2, escapes as a
named exception, or passes with exit 0 and a wrong report: those last
rows show where a site is the only guard.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from crjets import Jet, central, cli, equivalence, marson, segre, solve
from crjets.rationals import MINUS_I, GaussianRational, I

from test_cli import (
    CUBIC,
    SCALING_MAP,
    SPLIT_MODEL,
    TILTED,
    assert_caught_by,
    conjugate_skipping_cubic_terms,
    drop,
)

ROOT = Path(__file__).resolve().parent.parent

NON_REAL = {
    "nu": 1,
    "nprime": 0,
    "order": 4,
    "phi": [{"monomial": {"z1": 1, "zb1": 1}, "coefficient": {"re": "1", "im": "1"}}],
}
LIFT = (SPLIT_MODEL, SPLIT_MODEL, SCALING_MAP)


def certify_sites() -> list[tuple[str, str]]:
    """(module, "stage: identity") of every certify call in src/crjets;
    stage and identity must be string literals."""
    sites = []
    for path in sorted((ROOT / "src" / "crjets").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "certify":
                stage, identity = (ast.literal_eval(arg) for arg in node.args[1:3])
                sites.append((path.stem, f"{stage}: {identity}"))
    return sites


def term(jet: Jet, coefficient, *names: str) -> Jet:
    """coefficient times the named variables, over jet's alphabet and order."""
    out = Jet.constant(jet.alphabet, jet.order, coefficient)
    for name in names:
        out = out * Jet.variable(jet.alphabet, jet.order, name)
    return out


def wrap(monkeypatch, owner, name, fault):
    """Replace owner.name by fault(real, *args, **kwargs)."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: fault(real, *args, **kwargs))


# ---------------------------------------------------------------------------
# faults, one per site
# ---------------------------------------------------------------------------


def doubled_graph_solution(monkeypatch):
    """complexify's S comes back doubled after the solver certified it."""
    def fault(real, eqs, unknowns, **kwargs):
        solved = real(eqs, unknowns, **kwargs)
        return [x * 2 for x in solved] if list(unknowns) == ["s"] else solved
    wrap(monkeypatch, segre, "implicit_solve", fault)


def unconjugated_cubic_terms(monkeypatch):
    monkeypatch.setattr(Jet, "conjugate", conjugate_skipping_cubic_terms)


def shifted_elimination_entry(monkeypatch):
    """The elimination route's entry (1, 1) plus one."""
    def fault(real, ch, elim):
        hessian = real(ch, elim)
        return dataclasses.replace(hessian, entries=((hessian.entries[0][0] + 1,),))
    wrap(monkeypatch, segre, "phi_elimination", fault)


def doubled_jacobian_inverse(monkeypatch):
    wrap(monkeypatch, solve, "invert_matrix", lambda real, a: [
        [c * 2 for c in row] for row in real(a)])


def perturbed_last_sweep(monkeypatch, degree=TILTED["order"] - 1):
    """s^degree added to the residuals of the first composition at order
    ``degree`` of each solve: its last sweep, when ``degree`` is the
    working order, as for TILTED's critical graph. The valuation
    certificate reads only the degrees below."""
    seen = []

    def fault(real, outers, assignment, *, alphabet, order):
        residuals = real(outers, assignment, alphabet=alphabet, order=order)
        if order == 1:
            seen.clear()
        if order != degree or seen:
            return residuals
        seen.append(order)
        return [r + term(r, 1, *["s"] * degree) for r in residuals]

    wrap(monkeypatch, solve, "compose_many", fault)


def non_real_critical_graph(monkeypatch):
    def fault(real, eqs, unknowns, *, target):
        solved = real(eqs, unknowns, target=target)
        return solved if "t1" in target.index else [g + term(g, I, "z1", "zb1") for g in solved]
    wrap(monkeypatch, central, "implicit_solve", fault)


def shifted_critical_point(monkeypatch):
    """z1 zb1 added to each critical point of the square completion."""
    def fault(real, eqs, unknowns, *, target):
        solved = real(eqs, unknowns, target=target)
        return [g + term(g, 1, "z1", "zb1") for g in solved] if "t1" in target.index else solved
    wrap(monkeypatch, central, "implicit_solve", fault)


def complex_congruence(monkeypatch):
    def fault(real, h):
        p, d = real(h)
        return [[c * GaussianRational(1, 1) for c in row] for row in p], d
    wrap(monkeypatch, central, "symmetric_diagonalize", fault)


def heavier_morse_base(monkeypatch):
    """(z1 zb1)^2 added to the t = 0 slice."""
    def fault(real, phi, nu):
        base = real(phi, nu)
        return base + term(base, 1, "z1", "z1", "zb1", "zb1")
    wrap(monkeypatch, central, "at_t_zero", fault)


def doubled_back_substitution(monkeypatch):
    wrap(monkeypatch, central, "invert_matrix", lambda real, a: [
        [c * 2 for c in row] for row in real(a)])


def doubled_chart(monkeypatch):
    """The chart absorbs t as (z - zb)(-i), twice Im z."""
    monkeypatch.setattr(marson, "MINUS_HALF_I", MINUS_I)


def lost_first_integral(monkeypatch):
    def fault(real, germ):
        integrals = real(germ)
        del integrals["w"]
        return integrals
    wrap(monkeypatch, marson, "first_integrals", fault)


def non_real_multiplier(monkeypatch):
    """i v added to extract_multiplier's shift back, its one composition."""
    def fault(real, outers, assignment, *, alphabet, order):
        out = real(outers, assignment, alphabet=alphabet, order=order)
        shift_back = "v" in assignment and "v" in alphabet.index
        return [j + term(j, I, "v") for j in out] if shift_back else out
    wrap(monkeypatch, equivalence, "compose_many", fault)


def non_real_root(monkeypatch):
    """i z1 added to the square root of the pulled-back multiplier."""
    def fault(real, jet):
        root = real(jet)
        return root + term(root, I, "z1")
    wrap(monkeypatch, equivalence, "jet_sqrt", fault)


def doubled_lift_scale(monkeypatch):
    wrap(monkeypatch, equivalence, "rational_sqrt", lambda real, q: real(q) * 2)


def germs_read_as_real(monkeypatch):
    """make_germ accepts a non-real phi."""
    monkeypatch.setattr(Jet, "is_real", lambda self: True)


def defect_fault(*names):
    """The product of ``names`` added to the defining pullback over
    (z, zb, s, v), the one that make_equivalence composes."""
    def inject(monkeypatch):
        def fault(real, phi, z_maps, w_map, target, order, *t_maps):
            pulled = real(phi, z_maps, w_map, target, order, *t_maps)
            return pulled + term(pulled, 1, *names) if "v" in target.index else pulled
        wrap(monkeypatch, equivalence, "defining_pullback", fault)
    return inject


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


def caught(site):
    return 3, f"invariant violated: {site}: "


def refused(message):
    return 2, f"precondition violated: {message}"


PASSES = (0, "")

# site, command, input, fault, outcome with the site switched off
AUDIT = [
    ("complexify: graph starts as wb", "phi", (CUBIC,), doubled_graph_solution,
     caught("phi_determinant: F vanishes at the elimination")),
    ("phi_determinant: F vanishes at the elimination", "phi", (CUBIC,), unconjugated_cubic_terms,
     PASSES),
    ("certified_section_hessian: routes agree", "phi", (CUBIC,), shifted_elimination_entry,
     PASSES),
    ("implicit_solve: sweep residual valuation", "central", (TILTED,), doubled_jacobian_inverse,
     caught("implicit_solve: residual is zero")),
    ("implicit_solve: residual is zero", "central", (TILTED,), perturbed_last_sweep, PASSES),
    ("critical_graph: critical graph is real", "central", (TILTED,), non_real_critical_graph,
     refused("phi must be a real jet")),
    ("morse_normalize: completed square divides by t^2", "normalize", (TILTED,),
     shifted_critical_point, AttributeError),
    ("morse_normalize: coefficient is rational", "normalize", (TILTED,), complex_congruence,
     ZeroDivisionError),
    ("morse_normalize: remainder vanishes", "normalize", (TILTED,), heavier_morse_base,
     caught("morse_normalize: squares reconstruct phi")),
    ("morse_normalize: squares reconstruct phi", "normalize", (TILTED,), doubled_back_substitution,
     PASSES),
    ("external_lift: slice recovers phi", "external", (TILTED,), doubled_chart,
     (3, "invariant violated: external --check failed: levi_blocks_match_prediction\n")),
    ("external_lift: first integrals have full rank", "external", (TILTED,), lost_first_integral,
     PASSES),
    ("extract_multiplier: multiplier is real", "lift", LIFT, non_real_multiplier,
     caught("lift_equivalence: t components are real")),
    ("lift_equivalence: t components are real", "lift", LIFT, non_real_root,
     caught("lift: lift verifies")),
    ("lift: lift verifies", "lift", LIFT, doubled_lift_scale,
     (3, "invariant violated: lift --check failed: defining_identity\n")),
    ("levi_matrix: Levi matrix is Hermitian", "levi", (NON_REAL,), germs_read_as_real,
     refused("matrix is not Hermitian")),
]


def argv_for(tmp_path, command, inputs):
    files = [drop(tmp_path, f"in{k}.json", obj) for k, obj in enumerate(inputs)]
    return [command, *files, "--format", "json", "--check"]


def switch_off(monkeypatch, site):
    """Make the one certify call of ``site`` record and raise nothing."""
    (module,) = [importlib.import_module(f"crjets.{m}") for m, s in certify_sites() if s == site]
    real = module.certify

    def certify(holds, stage, identity, message):
        if f"{stage}: {identity}" != site:
            real(holds, stage, identity, message)

    monkeypatch.setattr(module, "certify", certify)


def assert_outcome(capsys, argv, outcome):
    """The run raises ``outcome``, an exception type, or exits with its
    code and stderr prefix; stdout is empty unless it exits 0, and then
    stderr is."""
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            cli.run(argv)
        return
    code, err_prefix = outcome
    assert cli.run(argv) == code
    out, err = capsys.readouterr()
    assert err.startswith(err_prefix) if code else err == "", err
    assert (out == "") == (code != 0)


ROWS = "site, command, inputs, fault, off"
ids = [row[0] for row in AUDIT]


@pytest.mark.parametrize(ROWS, AUDIT, ids=ids)
def test_the_fault_is_caught_by_its_site(
    tmp_path, capsys, monkeypatch, site, command, inputs, fault, off
):
    argv = argv_for(tmp_path, command, inputs)
    assert cli.run(argv) != 3  # the fault, not the input, trips the site
    capsys.readouterr()
    fault(monkeypatch)
    assert_caught_by(capsys, argv, site)


@pytest.mark.parametrize(ROWS, AUDIT, ids=ids)
def test_the_fault_with_its_site_off(
    tmp_path, capsys, monkeypatch, site, command, inputs, fault, off
):
    argv = argv_for(tmp_path, command, inputs)
    fault(monkeypatch)
    switch_off(monkeypatch, site)
    assert_outcome(capsys, argv, off)


@pytest.mark.parametrize(
    "fault, outcome",
    [
        (defect_fault("s", "v"), caught("lift: lift verifies")),
        (defect_fault("s", "s"), refused("map does not satisfy the defining identity")),
    ],
    ids=["v-dependent", "v-free"],
)
def test_a_defect_fault_is_caught_without_a_second_defect(
    tmp_path, capsys, monkeypatch, fault, outcome
):
    """make_equivalence composes the defining defect once, and the
    dropped "extract_multiplier: defect vanishes on the source" has no
    row: a fault in the defect's v-free part refuses the map, and one in
    its v-dependent part changes the multiplier, which the lift's
    verification catches."""
    argv = argv_for(tmp_path, "lift", LIFT)
    fault(monkeypatch)
    assert_outcome(capsys, argv, outcome)


def test_every_certify_site_has_an_audit_row():
    sites = [site for _, site in certify_sites()]
    assert len(sites) == len(set(sites)), sorted(sites)
    assert sorted(sites) == sorted(ids)


def test_held_reads_only_certified_identities():
    """cli's record-backed keys read held(identity), which is vacuously
    true when no certificate of that identity ran, so each identity must
    be the literal of some certify call."""
    tree = ast.parse((ROOT / "src" / "crjets" / "cli.py").read_text())
    read = {
        ast.literal_eval(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "held"
    }
    certified = {site.split(": ", 1)[1] for _, site in certify_sites()}
    assert read
    assert read <= certified, read - certified
