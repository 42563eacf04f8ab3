"""Command line front end.

Every subcommand reads exact JSON input, runs one pipeline from the
library, and prints a deterministic report (text by default, JSON with
--format json). Identical inputs produce byte-identical reports.

Exit codes: 0 success, 1 malformed input, 2 precondition violation,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

from .central import central_manifold, is_straightened, morse_normalize, straighten
from .equivalence import (
    equivalence_alphabet,
    lift_equivalence,
    make_equivalence,
    split_coefficients,
    verify_lift,
)
from .errors import InvariantError, ParseError, PreconditionError
from .germs import (
    StructureGerm,
    characteristic_covector,
    first_integrals,
    frame,
    levi_form,
    make_germ,
    standard_alphabet,
    t_hessian,
)
from .io import (
    canonical_dumps,
    fraction_to_text,
    germ_from_json,
    height_from_json,
    load_json,
    map_from_json,
)
from .jets import Jet, compose, substitute
from .marson import external_levi, external_lift, lift_levi_relation, predicted_external_levi
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


class ParserExit(Exception):
    """argparse finished the run itself (-h printed the help)."""

    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


class CliParser(argparse.ArgumentParser):
    """Reroute argparse failures into the parse-error exit code, and
    argparse's own exits (-h) into a returned status."""

    def error(self, message: str):
        raise ParseError(message)

    def exit(self, status: int = 0, message: str | None = None):
        if message:
            sys.stderr.write(message)
        raise ParserExit(status)


# ---------------------------------------------------------------------------
# payload rendering
# ---------------------------------------------------------------------------


def _inline(value: Any) -> str | None:
    """Single-line rendering for leaves; None when nesting is needed."""
    if isinstance(value, Jet):
        return value.to_text()
    if isinstance(value, GaussianRational):
        return str(value)
    if isinstance(value, Fraction):
        return fraction_to_text(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "none"
    if isinstance(value, (int, str)):
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
    if fmt == "json":
        return canonical_dumps(payload)
    lines: list[str] = []
    for key, value in payload.items():
        _text_block(key, value, 0, lines)
    return "\n".join(lines) + "\n"


def _parse_file(path: str, parse: Callable[..., Any], *args: Any) -> Any:
    """Load a JSON input file and parse it; parse errors name the file."""
    obj = load_json(path)
    try:
        return parse(obj, *args)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _germ_echo(germ: StructureGerm) -> dict[str, Any]:
    return {"nu": germ.nu, "nprime": germ.nprime, "order": germ.order}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_levi(args: argparse.Namespace) -> dict[str, Any]:
    germ = _parse_file(args.file, germ_from_json, args.order)
    form = levi_form(germ)
    cov = characteristic_covector(germ)
    payload: dict[str, Any] = {
        "command": "levi",
        "input": _germ_echo(germ),
        "results": {
            "levi_matrix": [list(row) for row in form.matrix],
            "signature": {
                "positive": form.positive,
                "negative": form.negative,
                "null": form.null,
            },
            "nondegenerate": form.nondegenerate,
            "t_hessian": [list(row) for row in t_hessian(germ)],
            "covector_holomorphic": dict(cov.holomorphic),
            "covector_imaginary_part": dict(cov.imaginary_real_basis),
        },
        "reliable_orders": {"levi_matrix": "exact", "covector": germ.order - 1},
        "warnings": [TRUNCATION_NOTE],
    }
    if args.check:
        fields = frame(germ)
        integrals = first_integrals(germ)
        annihilated = all(
            field.apply(h).is_zero() for field in fields for h in integrals.values()
        )
        payload["checks"] = {
            "frame_annihilates_first_integrals": annihilated,
            "first_integral_count": len(integrals),
            "frame_field_count": len(fields),
        }
        if not annihilated:
            raise InvariantError("frame fields fail to annihilate the first integrals")
    return payload


def cmd_central(args: argparse.Namespace) -> dict[str, Any]:
    germ = _parse_file(args.file, germ_from_json, args.order)
    manifold = central_manifold(germ)
    flat = straighten(germ, manifold)
    payload: dict[str, Any] = {
        "command": "central",
        "input": _germ_echo(germ),
        "results": {
            "graph": {
                name: g for name, g in zip(germ.t_names(), manifold.graph)
            },
            "restricted_phi": manifold.sigma,
            "straightened_phi": flat.phi,
            "straightened": is_straightened(flat),
        },
        "reliable_orders": {
            "graph": germ.order - 1,
            "restricted_phi": germ.order,
            "straightened_phi": germ.order,
        },
        "warnings": [TRUNCATION_NOTE],
    }
    if args.check:
        residuals = []
        full = germ.alphabet
        on_graph = {
            name: g.rename({}, full) for name, g in zip(germ.t_names(), manifold.graph)
        }
        for name in germ.t_names():
            res = substitute(germ.phi.derive(name), on_graph, full, germ.order - 1)
            residuals.append(res.is_zero())
        payload["checks"] = {
            "gradient_vanishes_on_graph": all(residuals),
            "restriction_is_real": manifold.sigma.is_real(),
        }
        if not all(residuals):
            raise InvariantError("t-gradient does not vanish on the computed graph")
    return payload


def cmd_normalize(args: argparse.Namespace) -> dict[str, Any]:
    germ = _parse_file(args.file, germ_from_json, args.order)
    manifold = central_manifold(germ)
    flat = straighten(germ, manifold)
    form = morse_normalize(flat)
    payload: dict[str, Any] = {
        "command": "normalize",
        "input": _germ_echo(germ),
        "results": {
            "base": form.base,
            "quadratic_coefficients": list(form.quad_coeffs),
            "signature": form.signature,
            "square_maps": {
                name: m for name, m in zip(flat.t_names(), form.maps)
            },
            "congruence": [list(row) for row in form.congruence],
        },
        "reliable_orders": {
            "base": germ.order,
            "square_maps": germ.order - 1,
        },
        "warnings": [TRUNCATION_NOTE],
    }
    if args.check:
        exact = form.reconstruct() == flat.phi
        payload["checks"] = {"reconstruction_is_exact": exact}
        if not exact:
            raise InvariantError("normal form does not reconstruct the straightened jet")
    return payload


def cmd_phi(args: argparse.Namespace) -> dict[str, Any]:
    germ = _parse_file(args.file, germ_from_json, args.order)
    hessian = certified_section_hessian(germ)
    payload: dict[str, Any] = {
        "command": "phi",
        "input": _germ_echo(germ),
        "results": {
            "reduced_to_center_first": bool(germ.nprime),
            "entries": [list(row) for row in hessian.entries],
            "routes_agree": True,
        },
        "reliable_orders": {"entries": hessian.order},
        "warnings": [TRUNCATION_NOTE],
    }
    if args.check:
        symmetric = hessian.entries == tuple(zip(*hessian.entries))
        payload["checks"] = {
            "hessian_is_symmetric": symmetric,
            "independent_routes_agree": True,
        }
        if not symmetric:
            raise InvariantError("section Hessian is not symmetric")
    return payload


def cmd_external(args: argparse.Namespace) -> dict[str, Any]:
    germ = _parse_file(args.file, germ_from_json, args.order)
    ext = external_lift(germ)
    form = external_levi(ext)
    payload: dict[str, Any] = {
        "command": "external",
        "input": _germ_echo(germ),
        "results": {
            "lift": {
                "nu": ext.lift.nu,
                "nprime": ext.lift.nprime,
                "order": ext.lift.order,
                "phi": ext.lift.phi,
            },
            "chart": [
                {"complex_variable": new, "absorbs": old} for new, old in ext.chart
            ],
            "lift_levi_matrix": [list(row) for row in form.matrix],
            "lift_signature": {
                "positive": form.positive,
                "negative": form.negative,
                "null": form.null,
            },
        },
        "reliable_orders": {"lift": germ.order},
        "warnings": [CHART_NOTE, TRUNCATION_NOTE],
    }
    if args.check:
        relation = lift_levi_relation(ext)
        payload["checks"] = {
            "levi_blocks_match_prediction": relation,
            "predicted_levi_matrix": [
                list(row) for row in predicted_external_levi(germ)
            ],
        }
        if not relation:
            raise InvariantError("lift Levi form does not match the block prediction")
    return payload


def cmd_rigid_check(args: argparse.Namespace) -> dict[str, Any]:
    germ = _parse_file(args.file, germ_from_json, args.order)
    report = rigid_phi_test(germ)
    names = list(section_parameter_alphabet(germ.nu).names)
    offenders = [
        {
            "row": i + 1,
            "column": j + 1,
            "monomial": {n: e for n, e in zip(names, vec) if e},
            "coefficient": coeff,
        }
        for i, j, vec, coeff in report.offenders
    ]
    payload: dict[str, Any] = {
        "command": "rigid-check",
        "input": _germ_echo(germ),
        "results": {
            "consistent_with_rigid_analyticity": report.consistent,
            "offending_terms": offenders,
            "note": report.note,
        },
        "reliable_orders": {"test": report.order},
        "warnings": [TRUNCATION_NOTE],
    }
    if args.check:
        payload["checks"] = {"independent_routes_agree": report.routes_agree}
    return payload


def cmd_ode(args: argparse.Namespace) -> dict[str, Any]:
    height = _parse_file(args.file, height_from_json, args.order)
    profile = ode_right_side(height)
    payload: dict[str, Any] = {
        "command": "ode",
        "input": {"height_order": height.order},
        "results": {"right_side": profile},
        "reliable_orders": {"right_side": profile.order},
        "warnings": [TRUNCATION_NOTE],
    }
    if args.check:
        order = height.order
        lhs, inner = ode_sides(height)
        rhs = compose(
            profile.with_order(order), {"u": inner}, alphabet=height.alphabet, order=order
        )
        exact = lhs == rhs
        payload["checks"] = {"profile_equation_residual_is_zero": exact}
        if not exact:
            raise InvariantError("recomputed profile equation residual is nonzero")
    return payload


def cmd_lift(args: argparse.Namespace) -> dict[str, Any]:
    source = _parse_file(args.file, germ_from_json, args.order)
    target = _parse_file(args.file2, germ_from_json, args.order)
    source_core, target_core = (
        make_germ(
            g.nu,
            0,
            substitute(
                g.phi, dict.fromkeys(g.t_names(), 0), standard_alphabet(g.nu, 0), g.order
            ),
        )
        for g in (source, target)
    )
    # certify split shape before any heavier work
    split_coefficients(source, source_core)
    split_coefficients(target, target_core)
    z_maps, w_map = _parse_file(
        args.mapfile, map_from_json, equivalence_alphabet(source.nu), source.nu, args.order
    )
    eq = make_equivalence(source_core, target_core, z_maps, w_map)
    lift = lift_equivalence(eq, source, target)
    verdict = verify_lift(lift)
    if not verdict.ok:
        raise InvariantError("lift verification failed after construction")
    payload: dict[str, Any] = {
        "command": "lift",
        "input": {
            "source": _germ_echo(source),
            "target": _germ_echo(target),
        },
        "results": {
            "multiplier": lift.multiplier,
            "scale_at_origin": lift.scale,
            "z_maps": {f"z{j + 1}": m for j, m in enumerate(lift.z_maps)},
            "w_map": lift.w_map,
            "t_maps": {
                name: m for name, m in zip(source.t_names(), lift.t_maps)
            },
        },
        "reliable_orders": {
            "multiplier": lift.multiplier.order,
            "t_maps": source.order - 1,
        },
        "warnings": [TRUNCATION_NOTE],
    }
    if args.check:
        payload["checks"] = {
            "defining_identity": verdict.defining_identity,
            "components_are_solutions": verdict.components_are_solutions,
            "restricts_to_core_map": verdict.restricts_to_core_map,
            "t_maps_vanish_on_center": verdict.t_maps_vanish_on_center,
        }
    return payload


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

_COMMANDS = {
    "levi": (cmd_levi, "Levi form, signature and characteristic covector"),
    "central": (cmd_central, "critical manifold, restriction and straightening"),
    "normalize": (cmd_normalize, "Morse splitting over the central manifold"),
    "phi": (cmd_phi, "section Hessian by two independent routes"),
    "external": (cmd_external, "external lift absorbing the real parameters"),
    "rigid-check": (cmd_rigid_check, "parameter-independence test for rigid germs"),
    "ode": (cmd_ode, "right side of the profile equation of a height jet"),
    "lift": (cmd_lift, "lift a central equivalence to split normal forms"),
}


@functools.cache
def build_parser() -> CliParser:
    """The argument parser, built on the first call and shared afterwards;
    parsing never mutates it."""
    parser = CliParser(
        prog="crjets",
        description="exact jet computations for locally integrable structures",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("file", help="input file (JSON)")
        if name == "lift":
            p.add_argument("file2", help="target germ file (JSON)")
            p.add_argument("mapfile", help="central map file (JSON)")
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
        args = build_parser().parse_args(list(argv))
        payload = _COMMANDS[args.command][0](args)
    except ParserExit as exc:
        return exc.status
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(render_report(payload, args.format))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
