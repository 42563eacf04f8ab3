"""Outside-in tracing of the crjets layers, installed from the benchmark.

The tracer replaces the package's public functions with timing wrappers
at every binding site (``from .solve import implicit_solve`` gives
``segre`` and ``central`` copies of their own), then checks that no
crjets module still holds an unwrapped original. Nothing inside the
package is edited on disk, and ``uninstall`` puts every original back.

Each call opens a span: name, start, end, parent span and operation id.
Spans of the coarse layers (cli, io, pipeline stages, solver, compose,
linear algebra) are kept in memory one by one; the hot leaves (jet
add/mul/scale/rename, the product kernel and ``GaussianRational.normalize``)
run millions of times, so they are folded into per-name totals. Both
kinds sit on one stack, so every parent's self time (its duration minus
the time its child spans cover) is exact with respect to all of them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Stat:
    calls: int = 0
    inclusive: float = 0.0  # outermost spans of this name only
    self_time: float = 0.0
    depth: int = 0


@dataclass
class Tracer:
    """Span stack, recorded spans, per-name and per-layer totals."""

    op: int = -1
    spans: list = field(default_factory=list)
    stats: dict[str, Stat] = field(default_factory=dict)
    layers: dict[str, Stat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    _stack: list = field(default_factory=lambda: [[0.0, -1, "root"]])
    _patched: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        record: bool,
        count: Callable[[Tracer, tuple, dict, Any, list], None] | None = None,
    ) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        layer = self.layers.setdefault(name.split(".", 1)[0], Stat())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            if record:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[1]
            frame = [0.0, sid, name]
            stack.append(frame)
            stat.depth += 1
            layer.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                layer.depth -= 1
                dur = end - start
                parent[0] += dur
                stat.calls += 1
                layer.calls += 1
                stat.self_time += dur - frame[0]
                if not stat.depth:
                    stat.inclusive += dur
                if not layer.depth:
                    layer.inclusive += dur
                if record:
                    spans[sid] = (name, start, end, parent[1], tracer.op)
            if count is not None:
                count(tracer, args, kwargs, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: int) -> None:
        if value > self.counters.get(counter, 0):
            self.counters[counter] = value

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site inside ``crjets``."""
        from crjets import jets, rationals

        Jet = jets.Jet
        GaussianRational = rationals.GaussianRational
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "crjets"]

        originals: dict[int, Callable] = {}
        for qualname, record, count in _FUNCTIONS:
            modname, fname = qualname.rsplit(".", 1)
            fn = getattr(sys.modules[f"crjets.{modname}"], fname)
            wrapped = self.wrap(fn, _span_name(qualname), record, count)
            originals[id(fn)] = fn
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapped)

        add = Jet.__add__
        sub = Jet.__sub__
        mul = Jet.__mul__
        rename = Jet.rename
        unit_inverse = Jet.unit_inverse
        traced_mul = self.wrap(mul, "jets.mul", False)
        traced_scale = self.wrap(mul, "jets.scale", False)

        def product(a, b):
            return (traced_mul if isinstance(b, Jet) else traced_scale)(a, b)

        for attr, value in (
            ("__add__", self.wrap(add, "jets.add", False)),
            ("__radd__", self.wrap(add, "jets.add", False)),
            ("__sub__", self.wrap(sub, "jets.add", False)),
            ("__mul__", product),
            ("__rmul__", product),
            ("rename", self.wrap(rename, "jets.rename", False)),
            ("unit_inverse", self.wrap(unit_inverse, "jets.unit_inverse", True)),
        ):
            self._set(Jet, attr, value)
        for fn in (add, sub, mul, rename, unit_inverse):
            originals[id(fn)] = fn

        normalize = GaussianRational.__dict__["normalize"].__func__
        self._set(
            GaussianRational,
            "normalize",
            classmethod(self.wrap(normalize, "rationals.normalize", False)),
        )
        originals[id(normalize)] = normalize

        self._verify(modules + [Jet, GaussianRational], originals)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _verify(self, owners: list, originals: dict[int, Callable]) -> None:
        for owner in owners:
            for attr, value in vars(owner).items():
                if isinstance(value, classmethod):
                    value = value.__func__
                if id(value) in originals and value is originals[id(value)]:
                    self.uninstall()
                    raise RuntimeError(
                        f"{getattr(owner, '__name__', owner)}.{attr} still binds an untraced original"
                    )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def layer(self, name: str) -> Stat:
        return self.layers.get(name) or Stat()

    def dump(self) -> dict:
        """Everything recorded, for writing out after the run."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans
            ],
            "stats": {
                name: {"calls": st.calls, "inclusive_s": st.inclusive, "self_s": st.self_time}
                for name, st in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


def _span_name(qualname: str) -> str:
    module, fname = qualname.split(".", 1)
    return f"{_LAYER_OF.get(module, module)}.{fname}"


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries
# ---------------------------------------------------------------------------


def _coeff_bits(value: Any) -> int:
    return max(value.a.bit_length(), value.b.bit_length(), value.d.bit_length())


def _count_solve(tracer: Tracer, args: tuple, kwargs: dict, result: Any, parent: list) -> None:
    unknowns = kwargs["unknowns"] if "unknowns" in kwargs else args[1]
    tracer.add("solve.unknowns", len(unknowns))


def _count_compose(tracer: Tracer, args: tuple, kwargs: dict, result: Any, parent: list) -> None:
    outers = kwargs["outers"] if "outers" in kwargs else args[0]
    tracer.add("jets.compose_many.outer_terms", sum(len(o.terms) for o in outers))
    if parent[2] == "solve.implicit_solve":
        tracer.add("solve.sweeps", 1)


def _count_kernel(tracer: Tracer, args: tuple, kwargs: dict, result: Any, parent: list) -> None:
    a, b = args[0], args[1]
    tracer.add("kernel.terms_in", len(a) + len(b))
    tracer.add("kernel.pairs_bound", len(a) * len(b))
    tracer.add("kernel.terms_out", len(result))
    if result:
        tracer.peak("kernel.max_coeff_bits", max(_coeff_bits(v) for v in result.values()))


_LAYER_OF = {"_kernels": "kernel"}

# (module.function, keep each span, counter hook)
_FUNCTIONS: list[tuple[str, bool, Any]] = [
    ("cli.run", True, None),
    ("cli.render_report", True, None),
    ("io.load_json", True, None),
    ("io.germ_from_json", True, None),
    ("io.height_from_json", True, None),
    ("io.map_from_json", True, None),
    ("germs.make_germ", True, None),
    ("germs.first_integrals", True, None),
    ("germs.frame", True, None),
    ("germs.is_solution", True, None),
    ("germs.levi_form", True, None),
    ("germs.t_hessian", True, None),
    ("germs.characteristic_covector", True, None),
    ("central.central_manifold", True, None),
    ("central.straighten", True, None),
    ("central.is_straightened", True, None),
    ("central.morse_normalize", True, None),
    ("marson.external_lift", True, None),
    ("marson.lift_levi_relation", True, None),
    ("equivalence.make_equivalence", True, None),
    ("equivalence.extract_multiplier", True, None),
    ("equivalence.lift_equivalence", True, None),
    ("equivalence.verify_lift", True, None),
    ("segre.complexify", True, None),
    ("segre.conjugate_elimination", True, None),
    ("segre.phi_determinant", True, None),
    ("segre.phi_elimination", True, None),
    ("segre.rigid_phi_test", True, None),
    ("segre.ode_right_side", True, None),
    ("solve.implicit_solve", True, _count_solve),
    ("jets.compose_many", True, _count_compose),
    ("jets.jet_sqrt", True, None),
    ("linalg.invert_matrix", True, None),
    ("linalg.rank", True, None),
    ("linalg.symmetric_diagonalize", True, None),
    ("linalg.hermitian_signature", True, None),
    ("_kernels.mul_terms", False, _count_kernel),
]
