"""Seeded generator of admissible CLI operations for the benchmark.

Inputs are built as plain JSON objects with exact rationals written as
strings, using only ``fractions`` and ``random``; nothing here imports
the package under test, so the generator cannot drift with it. Every
input is admissible for its command by construction:

* ``phi`` gets Levi-nondegenerate central germs (nprime = 0) or germs
  with positive quadratic blocks (z zb and t^2) plus terms of degree
  three and four, whose center keeps the nondegenerate z-block;
* ``central``/``normalize`` get germs with an invertible t-Hessian;
* ``rigid-check`` gets s-free germs with positive quadratic blocks;
* ``ode`` gets even height jets with nonzero curvature;
* ``lift`` gets split models over a positive-definite core, mapped by
  z -> 2z, eta -> 4 eta onto the core 4*sigma(z/2, zb/2, s/4).

A workload is a fixed list of shapes (command, nu, nprime, order); the
stream draws only the coefficients, so every block has the same mix of
work. A run's seed only picks the order in which it takes the blocks of
a fixed, pinned pool.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("section-hessian", "survey", "wide-coefficients")


@dataclass(frozen=True)
class Operation:
    """One CLI invocation: subcommand plus the files it reads."""

    key: str  # stable identifier, also the digest key
    command: str
    files: tuple[str, ...]  # file names relative to the input directory


# ---------------------------------------------------------------------------
# exact JSON encoding
# ---------------------------------------------------------------------------


def _text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _coeff_json(re: Fraction, im: Fraction = Fraction(0)):
    if im == 0:
        return _text(re)
    return {"re": _text(re), "im": _text(im)}


def _names(nu: int, nprime: int) -> list[str]:
    return (
        [f"z{j}" for j in range(1, nu + 1)]
        + [f"zb{j}" for j in range(1, nu + 1)]
        + ["s"]
        + [f"t{l}" for l in range(1, nprime + 1)]
    )


def _records(names: list[str], terms: dict) -> list[dict]:
    out = []
    for vec in sorted(terms, key=lambda v: (sum(v), v)):
        re, im = terms[vec]
        mono = {n: e for n, e in zip(names, vec) if e}
        out.append({"monomial": mono, "coefficient": _coeff_json(re, im)})
    return out


def _germ(nu: int, nprime: int, order: int, terms: dict) -> dict:
    return {
        "nu": nu,
        "nprime": nprime,
        "order": order,
        "phi": _records(_names(nu, nprime), terms),
    }


# ---------------------------------------------------------------------------
# coefficient draws
# ---------------------------------------------------------------------------


def _frac(rng: random.Random, span: int, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q or not nonzero:
            return q


def _real_terms(
    rng: random.Random,
    nu: int,
    nprime: int,
    degrees: range,
    share: float,
    span: int,
    s_free: bool = False,
) -> dict:
    """Real jet data: exponent vector -> (re, im), a fixed share of all
    monomials with degrees in ``degrees``, every drawn coefficient nonzero.

    Reality holds pairwise: the monomial with z-exponents alpha and
    zb-exponents beta mirrors the one with beta and alpha, with the
    conjugate coefficient. A fixed term count keeps the cost of each
    shape steady from block to block.
    """
    width = 2 * nu + 1 + nprime
    candidates = [
        vec
        for vec in itertools.product(range(degrees.stop), repeat=width)
        if sum(vec) in degrees
        and vec[:nu] >= vec[nu : 2 * nu]
        and not (s_free and vec[2 * nu])
    ]
    terms: dict = {}
    for vec in rng.sample(candidates, round(share * len(candidates))):
        alpha, beta = vec[:nu], vec[nu : 2 * nu]
        if alpha == beta:
            terms[vec] = (_frac(rng, span, nonzero=True), Fraction(0))
            continue
        re, im = _frac(rng, span), _frac(rng, span, nonzero=True)
        terms[vec] = (re, im)
        terms[beta + alpha + vec[2 * nu :]] = (re, -im)
    return terms


def _unit(nu: int, nprime: int, var: str, power: int = 1, other: str | None = None):
    names = _names(nu, nprime)
    vec = [0] * len(names)
    vec[names.index(var)] += power
    if other is not None:
        vec[names.index(other)] += 1
    return tuple(vec)


def central_germ(rng: random.Random, order: int, share: float, span: int = 3) -> dict:
    """nu = 1, nprime = 0, terms of degree 2..4 and a nonzero z zb term,
    so the Levi form is nondegenerate."""
    terms = _real_terms(rng, 1, 0, range(2, min(4, order) + 1), share, span)
    terms[_unit(1, 0, "z1", other="zb1")] = (_frac(rng, span, nonzero=True), Fraction(0))
    return _germ(1, 0, order, terms)


def definite_germ(
    rng: random.Random,
    nu: int,
    nprime: int,
    order: int,
    share: float,
    span: int = 3,
    quad_span: int = 1,
    s_free: bool = False,
) -> dict:
    """Positive quadratic blocks (z zb and t^2) plus terms of degree 3..4.

    With no quadratic z-t or t-t cross terms the critical graph starts at
    degree two, so the center keeps the positive z zb block.
    """
    terms = _real_terms(rng, nu, nprime, range(3, min(4, order) + 1), share, span, s_free)
    for j in range(1, nu + 1):
        q = Fraction(rng.randint(1, quad_span), rng.randint(1, quad_span))
        terms[_unit(nu, nprime, f"z{j}", other=f"zb{j}")] = (q, Fraction(0))
    for l in range(1, nprime + 1):
        q = Fraction(rng.randint(1, quad_span), rng.randint(1, quad_span))
        terms[_unit(nu, nprime, f"t{l}", power=2)] = (q, Fraction(0))
    return _germ(nu, nprime, order, terms)


def generic_germ(
    rng: random.Random, nu: int, nprime: int, order: int, share: float, span: int = 3
) -> dict:
    """Terms of degree 2..4, cross terms included, invertible t-Hessian."""
    while True:
        terms = _real_terms(rng, nu, nprime, range(2, min(4, order) + 1), share, span)
        for l in range(1, nprime + 1):
            terms[_unit(nu, nprime, f"t{l}", power=2)] = (_frac(rng, span, True), Fraction(0))
        if _t_hessian_invertible(nu, nprime, terms):
            return _germ(nu, nprime, order, terms)


def _t_hessian_invertible(nu: int, nprime: int, terms: dict) -> bool:
    def coeff(vec):
        return terms.get(vec, (Fraction(0), Fraction(0)))[0]

    h = [[Fraction(0)] * nprime for _ in range(nprime)]
    for l in range(nprime):
        for r in range(nprime):
            if l == r:
                h[l][r] = 2 * coeff(_unit(nu, nprime, f"t{l + 1}", power=2))
            else:
                h[l][r] = coeff(_unit(nu, nprime, f"t{l + 1}", other=f"t{r + 1}"))
    if nprime == 1:
        return h[0][0] != 0
    return h[0][0] * h[1][1] - h[0][1] * h[1][0] != 0


def height(rng: random.Random, order: int, span: int = 3) -> dict:
    """Even height jet with nonzero curvature."""
    records = [{"monomial": {"x": 2}, "coefficient": _text(_frac(rng, span, True))}]
    for k in range(4, order + 1, 2):
        c = _frac(rng, span)
        if c:
            records.append({"monomial": {"x": k}, "coefficient": _text(c)})
    return {"order": order, "h": records}


def lift_triple(rng: random.Random, nu: int, nprime: int, order: int) -> tuple[dict, dict, dict]:
    """Source split model, target split model and the scaling map.

    The core sigma is z zb plus noise; the target core is
    4*sigma(z/2, zb/2, s/4), so z -> 2z, eta -> 4 eta maps one onto the
    other with multiplier 4 and scale 2.
    """
    core = _real_terms(rng, nu, 0, range(3, min(4, order) + 1), 0.3, 3)
    for j in range(1, nu + 1):
        core[_unit(nu, 0, f"z{j}", other=f"zb{j}")] = (Fraction(1), Fraction(0))
    scaled = {}
    for vec, (re, im) in core.items():
        zdeg = sum(vec[: 2 * nu])
        f = Fraction(4, 2**zdeg * 4 ** vec[2 * nu])
        scaled[vec] = (re * f, im * f)
    split = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(nprime)]

    def model(core_terms):
        terms = {vec + (0,) * nprime: c for vec, c in core_terms.items()}
        for l, c in enumerate(split, start=1):
            terms[_unit(nu, nprime, f"t{l}", power=2)] = (c, Fraction(0))
        return _germ(nu, nprime, order, terms)

    mapping = {
        "order": order,
        "z": [[{"monomial": {f"z{j}": 1}, "coefficient": "2"}] for j in range(1, nu + 1)],
        "w": [{"monomial": {"eta": 1}, "coefficient": "4"}],
    }
    return model(core), model(scaled), mapping


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

_SURVEY_COMMANDS = ("levi", "central", "normalize", "external")

# The pinned pool: every run takes its blocks from these streams, so every
# operation of every seed has a digest in pins.json. A 30-second run of the
# package as it stands takes about a twentieth of a workload's pool.
POOL_STREAMS = range(11)
POOL_BLOCKS = {"section-hessian": 32, "survey": 110, "wide-coefficients": 45}


def pool(workload: str, seed: int) -> list[tuple[int, int]]:
    """The seed's order of the pool's (stream, block index) pairs.

    A run takes blocks from the front, so no block repeats within a run.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    entries = [(s, i) for s in POOL_STREAMS for i in range(POOL_BLOCKS[workload])]
    random.Random(f"{workload}:{seed}").shuffle(entries)
    return entries


class _Block:
    """Files (name -> JSON object) and operations under construction."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.files: dict[str, dict] = {}
        self.ops: list[Operation] = []

    def add(self, name: str, obj: dict) -> str:
        self.files[f"{self.prefix}-{name}.json"] = obj
        return f"{self.prefix}-{name}.json"

    def op(self, command: str, *names: str) -> None:
        self.ops.append(Operation(f"{command}:{'+'.join(names)}", command, names))

    def lift(self, rng: random.Random, nu: int, nprime: int, order: int) -> None:
        src, tgt, mapping = lift_triple(rng, nu, nprime, order)
        stem = f"l{nu}{nprime}{order}"
        self.op("lift", self.add(f"{stem}-src", src), self.add(f"{stem}-tgt", tgt),
                self.add(f"{stem}-map", mapping))


def block(workload: str, stream: int, index: int) -> tuple[dict[str, dict], list[Operation]]:
    """Files (name -> JSON object) and operations of one block.

    A block holds the workload's fixed list of shapes with coefficients
    drawn from its own stream ``workload:stream:index``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{stream}:{index}")
    b = _Block(f"b{index}")

    if workload == "section-hessian":
        for order, share in SECTION_CENTRAL:
            b.op("phi", b.add(f"c1{order}", central_germ(rng, order, share)))
        for nu, nprime, order, share in SECTION_DEFINITE:
            germ = definite_germ(rng, nu, nprime, order, share)
            b.op("phi", b.add(f"d{nu}{nprime}{order}", germ))
    elif workload == "survey":
        for nu, nprime, order in ((1, 1, 5), (1, 1, 7), (2, 1, 5), (1, 2, 6)):
            name = b.add(f"g{nu}{nprime}{order}", generic_germ(rng, nu, nprime, order, 0.25))
            for command in _SURVEY_COMMANDS:
                b.op(command, name)
        name = b.add("r115", definite_germ(rng, 1, 1, 5, 0.25, s_free=True))
        for command in _SURVEY_COMMANDS + ("rigid-check",):
            b.op(command, name)
        for order in (12, 20, 28):
            b.op("ode", b.add(f"h{order}", height(rng, order)))
        for nu, nprime, order in ((1, 1, 5), (1, 2, 6)):
            b.lift(rng, nu, nprime, order)
    else:
        wide = 2**20
        for nprime, share in WIDE_SHARES.items():
            germ = definite_germ(rng, 1, nprime, 6, share, span=wide, quad_span=wide)
            name = b.add(f"w1{nprime}6", germ)
            for command in ("phi", "central", "normalize"):
                b.op(command, name)
        # A second phi keeps the median latency inside one shape's range.
        germ = definite_germ(rng, 1, 0, 6, WIDE_SHARES[0], span=wide, quad_span=wide)
        b.op("phi", b.add("w106b", germ))
    return b.files, b.ops


def coverage() -> tuple[dict[str, dict], list[Operation]]:
    """One small operation per subcommand.

    The traced run of every workload ends with this block, so that every
    per-layer metric measures some work on every workload.
    """
    rng = random.Random("coverage")
    b = _Block("cov")
    name = b.add("r115", definite_germ(rng, 1, 1, 5, 0.25, s_free=True))
    for command in _SURVEY_COMMANDS + ("rigid-check",):
        b.op(command, name)
    b.op("phi", b.add("c15", central_germ(rng, 5, 1.0)))
    b.op("ode", b.add("h12", height(rng, 12)))
    b.lift(rng, 1, 1, 5)
    return b.files, b.ops


# (order, share of monomials drawn) for nu = 1 central germs
SECTION_CENTRAL = ((6, 1.0), (7, 1.0), (8, 1.0))
# (nu, nprime, order, share) for germs with positive quadratic blocks
SECTION_DEFINITE = ((2, 0, 5, 1.0), (2, 0, 6, 0.25), (1, 1, 6, 1.0), (1, 1, 7, 1.0))
# share of monomials drawn for the nprime = 0 and nprime = 2 wide germs
WIDE_SHARES = {0: 1.0, 2: 0.5}
