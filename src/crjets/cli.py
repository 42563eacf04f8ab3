"""Command line front end.

Every subcommand reads exact JSON input, runs one pipeline from the
library, and prints a deterministic report (text by default, JSON with
--format json). Identical inputs produce byte-identical reports.

Exit codes: 0 success, 1 malformed input, 2 precondition violation,
3 internal invariant violation. Each cmd_* function returns its input
echo, results, reliable orders and, under --check, its checks; payload()
runs it inside one record of certificates (errors.recording) and frames
them into the report. Five keys read that record and hold when every
entry of their identity held: phi's routes_agree and
independent_routes_agree and rigid-check's independent_routes_agree (the
route comparison of certified_section_hessian), central's
gradient_vanishes_on_graph (straighten's certificate that the
straightened phi has no t-linear term, which is the gradient identity on
the critical graph) and normalize's reconstruction_is_exact. The other
checks are computed under --check. A check that is False fails the run
with exit 3, empty stdout and "invariant violated: <command> --check
failed: <keys>" on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

from .central import is_straightened, morse_normalize, straighten
from .equivalence import (
    lift_equivalence,
    make_equivalence,
    split_core,
    verify_lift,
)
from .errors import InvariantError, ParseError, PreconditionError, certify, held, recording
from .germs import (
    LeviForm,
    StructureGerm,
    characteristic_covector,
    first_integrals,
    is_solution,
    _t_block,
    levi_form,
)
from .io import (
    canonical_dumps,
    germ_from_json,
    height_from_json,
    load_json,
    map_from_json,
)
from .jets import Jet, compose_many
from .marson import external_lift, lift_levi_relation, predicted_external_levi
from .rationals import GaussianRational
from .segre import (
    certified_section_hessian,
    ode_right_side,
    ode_sides,
    rigid_phi_test,
    section_parameter_alphabet,
)

TRUNCATION_NOTE = (
    "every verdict is a statement about jets at the reported order; "
    "it certifies nothing beyond that order"
)
CHART_NOTE = (
    "the external lift is computed from the given chart; a different "
    "presentation of the same structure can lift to a different germ"
)
# The least germ order of every command that reads germs. phi vanishes to
# second order, so an order-1 germ is phi = 0, and the pipelines work at
# order - 1 (first derivatives and the critical graph) and order - 2 (the
# section Hessian, the elimination that feeds it, at least 1, and the
# Morse factors).
MIN_GERM_ORDER = 2
# The widest germ (nu + nprime) a command reads: the Levi report grows as
# its square. Tests and the benchmark stay below 8.
MAX_GERM_WIDTH = 64


class CliParser(argparse.ArgumentParser):
    """Reroute argparse failures into the parse-error exit code; argparse's
    own exits (-h) stay SystemExit, which run turns into a returned status."""

    def error(self, message: str):
        raise ParseError(message)


# ---------------------------------------------------------------------------
# payload rendering
# ---------------------------------------------------------------------------


def _inline(value: Any) -> str | None:
    """Single-line rendering for leaves; None when nesting is needed."""
    if isinstance(value, Jet):
        return value.to_text()
    if isinstance(value, GaussianRational):
        return str(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "none"
    if isinstance(value, (int, str, Fraction)):
        return str(value)
    if isinstance(value, (list, tuple)):
        parts = [_inline(v) for v in value]
        if all(p is not None for p in parts):
            return "[" + ", ".join(parts) + "]"
    return None


def _text_block(key: str, value: Any, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    flat = _inline(value)
    if flat is not None:
        lines.append(f"{pad}{key}: {flat}")
        return
    lines.append(f"{pad}{key}:")
    if isinstance(value, dict):
        for k, v in value.items():
            _text_block(str(k), v, depth + 1, lines)
    else:
        for i, v in enumerate(value):
            _text_block(f"[{i}]", v, depth + 1, lines)


def render_report(payload: dict[str, Any], fmt: str) -> str:
    """The report text. Python writes no integer of more than
    sys.get_int_max_str_digits() decimal digits, so a result that grew
    past that limit from inputs under it is a precondition violation of
    the command, not a crash."""
    try:
        if fmt == "json":
            return canonical_dumps(payload)
        lines: list[str] = []
        for key, value in payload.items():
            _text_block(key, value, 0, lines)
        return "\n".join(lines) + "\n"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise PreconditionError(
            f"{payload['command']} has a result with an integer of more than "
            f"{limit} decimal digits, the limit for writing one"
        ) from None


def _parse_file(path: str, parse: Callable[..., Any], *args: Any) -> Any:
    """Load a JSON input file and parse it; parse errors name the file."""
    obj = load_json(path)
    try:
        return parse(obj, *args)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_germ(args: argparse.Namespace, path: str) -> StructureGerm:
    """Parse a germ file for args.command, refusing nu + nprime above
    MAX_GERM_WIDTH from the counts alone, before the alphabet is built,
    and an order below MIN_GERM_ORDER before any pipeline arithmetic."""

    def admitted(obj: Any) -> StructureGerm:
        counts = (obj.get("nu"), obj.get("nprime")) if isinstance(obj, dict) else ()
        width = sum(n for n in counts if type(n) is int and n > 0)
        if width > MAX_GERM_WIDTH:
            bound = f"nu + nprime at most {MAX_GERM_WIDTH}"
            raise PreconditionError(f"{args.command} needs a germ with {bound}, got {width}")
        return germ_from_json(obj, args.order)

    germ = _parse_file(path, admitted)
    if germ.order < MIN_GERM_ORDER:
        raise PreconditionError(
            f"{args.command} needs a germ of order at least {MIN_GERM_ORDER}, "
            f"got order {germ.order}"
        )
    return germ


def _germ_echo(germ: StructureGerm) -> dict[str, Any]:
    return {"nu": germ.nu, "nprime": germ.nprime, "order": germ.order}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# input echo, results, reliable orders, and the checks (None without --check)
Sections = tuple[dict[str, Any], dict[str, Any], dict[str, Any], dict[str, Any] | None]


def _signature(form: LeviForm) -> dict[str, int]:
    return {"positive": form.positive, "negative": form.negative, "null": form.null}


def cmd_levi(args: argparse.Namespace) -> Sections:
    germ = _parse_germ(args, args.file)
    form = levi_form(germ)
    cov = characteristic_covector(germ)
    results = {
        "levi_matrix": form.matrix,
        "signature": _signature(form),
        "nondegenerate": form.nondegenerate,
        "t_hessian": _t_block(form.matrix, germ.nu),
        "covector_holomorphic": cov.holomorphic,
        "covector_imaginary_part": cov.imaginary_real_basis,
    }
    checks = None
    if args.check:
        integrals = first_integrals(germ)
        checks = {
            "frame_annihilates_first_integrals": is_solution(germ, *integrals.values()),
            "first_integral_count": len(integrals),
            "frame_field_count": germ.nu + germ.nprime,
        }
    reliable = {"levi_matrix": "exact", "covector": germ.order - 1}
    return _germ_echo(germ), results, reliable, checks


def cmd_central(args: argparse.Namespace) -> Sections:
    germ = _parse_germ(args, args.file)
    manifold, flat = straighten(germ)
    results = {
        "graph": dict(zip(germ.t_names(), manifold.graph)),
        "restricted_phi": manifold.core.phi,
        "straightened_phi": flat.phi,
        "straightened": is_straightened(flat),
    }
    checks = {
        "gradient_vanishes_on_graph": held("straightened phi has no t-linear term"),
        "restriction_is_real": manifold.core.phi.is_real(),
    } if args.check else None
    reliable = {"graph": germ.order - 1, "restricted_phi": germ.order, "straightened_phi": germ.order}
    return _germ_echo(germ), results, reliable, checks


def cmd_normalize(args: argparse.Namespace) -> Sections:
    germ = _parse_germ(args, args.file)
    _, flat = straighten(germ)
    form = morse_normalize(flat)
    results = {
        "base": form.base,
        "quadratic_coefficients": form.quad_coeffs,
        "signature": form.signature,
        "square_maps": dict(zip(flat.t_names(), form.maps)),
        "congruence": form.congruence,
    }
    checks = {"reconstruction_is_exact": held("squares reconstruct phi")} if args.check else None
    reliable = {"base": germ.order, "square_maps": germ.order - 1}
    return _germ_echo(germ), results, reliable, checks


def cmd_phi(args: argparse.Namespace) -> Sections:
    germ = _parse_germ(args, args.file)
    hessian = certified_section_hessian(germ)
    results = {
        "reduced_to_center_first": bool(germ.nprime),
        "entries": hessian.entries,
        "routes_agree": held("routes agree"),
    }
    checks = {
        "hessian_is_symmetric": hessian.entries == tuple(zip(*hessian.entries)),
        "independent_routes_agree": results["routes_agree"],
    } if args.check else None
    return _germ_echo(germ), results, {"entries": hessian.order}, checks


def cmd_external(args: argparse.Namespace) -> Sections:
    germ = _parse_germ(args, args.file)
    ext = external_lift(germ)
    form = levi_form(ext.lift)
    results = {
        "lift": {**_germ_echo(ext.lift), "phi": ext.lift.phi},
        "chart": [{"complex_variable": new, "absorbs": old} for new, old in ext.chart],
        "lift_levi_matrix": form.matrix,
        "lift_signature": _signature(form),
    }
    checks = None
    if args.check:
        checks = {
            "levi_blocks_match_prediction": lift_levi_relation(ext),
            "predicted_levi_matrix": predicted_external_levi(germ),
        }
    return _germ_echo(germ), results, {"lift": germ.order}, checks


def cmd_rigid_check(args: argparse.Namespace) -> Sections:
    germ = _parse_germ(args, args.file)
    report = rigid_phi_test(germ)
    names = section_parameter_alphabet(germ.nu).names
    results = {
        "consistent_with_rigid_analyticity": report.consistent,
        "offending_terms": [
            {
                "row": i + 1,
                "column": j + 1,
                "monomial": {n: e for n, e in zip(names, vec) if e},
                "coefficient": coeff,
            }
            for i, j, vec, coeff in report.offenders
        ],
        "note": report.note,
    }
    checks = {"independent_routes_agree": held("routes agree")} if args.check else None
    return _germ_echo(germ), results, {"test": report.order}, checks


def cmd_ode(args: argparse.Namespace) -> Sections:
    height = _parse_file(args.file, height_from_json, args.order)
    profile = ode_right_side(height)
    checks = None
    if args.check:
        lhs, inner = ode_sides(height)
        (rhs,) = compose_many(
            [profile], {"u": inner}, alphabet=height.alphabet, order=height.order
        )
        checks = {"profile_equation_residual_is_zero": lhs == rhs}
    echo = {"height_order": height.order}
    return echo, {"right_side": profile}, {"right_side": profile.order}, checks


def cmd_lift(args: argparse.Namespace) -> Sections:
    source = _parse_germ(args, args.file)
    target = _parse_germ(args, args.file2)
    # certify split shape before any heavier work
    source_core, source_coeffs = split_core(source)
    target_core, target_coeffs = split_core(target)
    z_maps, w_map = _parse_file(args.mapfile, map_from_json, source.nu, args.order)
    eq = make_equivalence(source_core, target_core, z_maps, w_map)
    if source_coeffs != target_coeffs:
        raise PreconditionError(
            "quadratic coefficients differ between source and target; no split lift exists"
        )
    lift = lift_equivalence(eq, source_coeffs)
    verdict = verify_lift(lift)
    # the lift is certified whether or not --check asks for the report
    certify(verdict.ok, "lift", "lift verifies", "lift verification failed after construction")
    results = {
        "multiplier": lift.multiplier,
        "scale_at_origin": lift.scale,
        "z_maps": {f"z{j + 1}": m for j, m in enumerate(lift.z_maps)},
        "w_map": lift.w_map,
        "t_maps": dict(zip(source.t_names(), lift.t_maps)),
    }
    echo = {"source": _germ_echo(source), "target": _germ_echo(target)}
    reliable = {"multiplier": lift.multiplier.order, "t_maps": source.order - 1}
    return echo, results, reliable, dataclasses.asdict(verdict) if args.check else None


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    """A subcommand: what it computes, the positional files it reads after
    the first, and the warnings its report carries before TRUNCATION_NOTE."""

    run: Callable[[argparse.Namespace], Sections]
    help: str
    files: tuple[tuple[str, str], ...] = ()
    warnings: tuple[str, ...] = ()


_COMMANDS = {
    "levi": Command(cmd_levi, "Levi form, signature and characteristic covector"),
    "central": Command(cmd_central, "critical manifold, restriction and straightening"),
    "normalize": Command(cmd_normalize, "Morse splitting over the central manifold"),
    "phi": Command(cmd_phi, "section Hessian by two independent routes"),
    "external": Command(
        cmd_external, "external lift absorbing the real parameters", warnings=(CHART_NOTE,)
    ),
    "rigid-check": Command(cmd_rigid_check, "parameter-independence test for rigid germs"),
    "ode": Command(cmd_ode, "right side of the profile equation of a height jet"),
    "lift": Command(
        cmd_lift,
        "lift a central equivalence to split normal forms",
        files=(("file2", "target germ file (JSON)"), ("mapfile", "central map file (JSON)")),
    ),
}


def payload(args: argparse.Namespace) -> dict[str, Any]:
    """The report of one parsed invocation, in the order text output
    follows: command, input, results, reliable_orders, warnings, and under
    --check the checks. Counts and matrices among the checks are reported
    as they are; a check whose value is False raises InvariantError
    naming the command and the failed keys."""
    command = _COMMANDS[args.command]
    with recording():
        echo, results, reliable, checks = command.run(args)
    report = {
        "command": args.command,
        "input": echo,
        "results": results,
        "reliable_orders": reliable,
        "warnings": [*command.warnings, TRUNCATION_NOTE],
    }
    if checks is not None:
        failed = [key for key, value in checks.items() if value is False]
        if failed:
            raise InvariantError(f"{args.command} --check failed: {', '.join(failed)}")
        report["checks"] = checks
    return report


@functools.cache
def build_parser() -> CliParser:
    """The argument parser, built on the first call and shared afterwards;
    parsing never mutates it."""
    parser = CliParser(
        prog="crjets",
        description="exact jet computations for locally integrable structures",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        p.add_argument("file", help="input file (JSON)")
        for dest, help_text in command.files:
            p.add_argument(dest, help=help_text)
        p.add_argument(
            "--order", type=int, default=None, help="override the file's jet order"
        )
        p.add_argument(
            "--format", choices=("json", "text"), default="text", help="report format"
        )
        p.add_argument(
            "--check",
            action="store_true",
            help="re-verify internal identities and include the residual report",
        )
    return parser


def run(argv: Sequence[str]) -> int:
    try:
        try:
            args = build_parser().parse_args(list(argv))
        except SystemExit as exc:
            return exc.code
        text = render_report(payload(args), args.format)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
