"""crjets benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Each operation is one ``crjets.cli.run([command, files..., "--format",
"json", "--check"])`` call made in this process with stdout captured:
one client, closed loop, no threads. The inputs are blocks of a fixed
pool generated by ``workloads.py``; the seed picks the order in which a
run takes them. Every output is checked: exit code 0, empty stderr, JSON
naming the command, no ``false`` in its ``checks`` section, and the
block's digest recorded in ``pins.json``.

``--trace 0`` measures for ``--seconds`` (and at least 100 operations)
and prints the end-to-end metrics, with every timing scaled by a fixed
reference task timed between the operations (``calibrate.py``), so that
a change in the shared host's speed does not read as a change in the
package. ``--trace 1`` runs a fixed operation
set (the seed's first blocks plus one operation of every subcommand)
twice, untraced and then traced, prints the per-layer metrics and
writes the spans to ``.bench_traces/`` at the root of the checkout.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from calibrate import ScaledClock, slowdown

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_OPS = 100  # ten samples beyond the 90th percentile
HARD_CAP_S = 120.0  # stop measuring even short of MIN_OPS
SETUP_SPAWNS = 15
TRACE_BLOCKS = {"section-hessian": 3, "survey": 12, "wide-coefficients": 6}
COMMANDS = ("levi", "central", "normalize", "phi", "external", "rigid-check", "ode", "lift")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


class Runner:
    """Writes blocks of generated inputs, runs and checks their operations."""

    def __init__(self, workload: str, seed: int, workdir: str):
        from crjets import cli

        import workloads

        self.cli = cli
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.order = workloads.pool(workload, seed)
        self.workdir = workdir
        with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
            pins = json.load(handle)
        self.pins = pins["blocks"][workload]
        self.coverage_pin = pins["coverage"]
        self.failures: list[str] = []

    def write(self, files: dict, ops: list, subdir: str) -> list[tuple[object, list[str], int]]:
        """Files on disk under ``subdir``; (op, argv, input bytes) per op."""
        directory = os.path.join(self.workdir, subdir)
        os.makedirs(directory)
        sizes = {}
        for name, obj in files.items():
            text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                handle.write(text)
            sizes[name] = len(text.encode())
        out = []
        for op in ops:
            paths = [os.path.join(directory, name) for name in op.files]
            argv = [op.command, *paths, "--format", "json", "--check"]
            out.append((op, argv, sum(sizes[name] for name in op.files)))
        return out

    def write_block(self, position: int) -> list[tuple[object, list[str], int]]:
        """Inputs of the run's ``position``-th block of the pool."""
        stream, index = self.order[position]
        return self.write(*self.workloads.block(self.workload, stream, index), str(position))

    def execute(self, argv: list[str]) -> tuple[int, str, str, float]:
        """One CLI call: exit code, stdout, stderr, wall seconds."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def check(self, op, code: int, out: str, err: str) -> bool:
        """Record and return whether one output is correct."""
        reason = _output_problem(op, code, out, err)
        if reason is not None:
            self.failures.append(f"{op.key}: {reason}")
        return reason is None

    def check_digest(
        self, pinned: str, label: str, ops: list, outputs: list[str], ok: list[bool]
    ) -> int:
        """Compare a block with its pinned digest.

        Returns how many of its operations that passed their own checks
        are failed by a digest mismatch; a block digest cannot tell which
        output changed, so it fails all of them.
        """
        if block_digest(ops, outputs) == pinned:
            return 0
        self.failures.append(f"{label}: outputs differ from the pinned digest")
        return sum(ok)

    def check_block(self, position: int, ops: list, outputs: list[str], ok: list[bool]) -> int:
        stream, index = self.order[position]
        label = f"block {stream}:{index}"
        return self.check_digest(self.pins[str(stream)][index], label, ops, outputs, ok)


def block_digest(ops: list, outputs: list[str]) -> str:
    h = hashlib.sha256()
    for op, out in zip(ops, outputs):
        h.update(op.key.encode())
        h.update(b"\0")
        h.update(hashlib.sha256(out.encode()).digest())
    return h.hexdigest()[:16]


def _output_problem(op, code: int, out: str, err: str) -> str | None:
    if code != 0:
        return f"exit code {code}: {err.strip()[-300:]}"
    if err:
        return f"unexpected stderr: {err.strip()[:300]}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(payload, dict) or payload.get("command") != op.command:
        return "report does not name its command"
    checks = payload.get("checks")
    if not isinstance(checks, dict) or not checks:
        return "report has no checks section"
    if _has_false(checks):
        return f"a check failed: {json.dumps(checks)[:300]}"
    if op.command == "lift" and payload["results"].get("scale_at_origin") != "2":
        return "scaling map lifted with the wrong scale"
    return None


def _has_false(value) -> bool:
    if value is False:
        return True
    if isinstance(value, dict):
        return any(_has_false(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_false(v) for v in value)
    return False


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


# A fresh interpreter notes the moment its imports are done on the
# system-wide monotonic clock, then times the reference task in the same
# process; reference calls made by this process between spawns do not
# follow the spawns' own speed.
SETUP_CHILD = (
    "import time\n"
    "import crjets, crjets.cli\n"
    "done = time.monotonic()\n"
    "import calibrate\n"
    "print(done, *(calibrate.sample() for _ in range(3)))\n"
)


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times from spawning a fresh interpreter until it has imported
    crjets and its CLI: as measured, and scaled by the reference task
    timed in that interpreter right after."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    argv = [sys.executable, "-c", SETUP_CHILD]
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)  # bytecode caches
    raw, scaled = [], []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic()
        proc = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
        done, *references = map(float, proc.stdout.split())
        raw.append(done - start)
        scaled.append(raw[-1] / slowdown(statistics.median(references)))
    return raw, scaled


def warm_up(runner: Runner) -> None:
    """Untimed calls of every subcommand, so lazy set-up in the process is done."""
    for _, argv, _ in runner.write(*runner.workloads.coverage(), "warm-up"):
        runner.execute(argv)
    shutil.rmtree(os.path.join(runner.workdir, "warm-up"))


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup_raw, setup_scaled = measure_setup()
    warm_up(runner)
    clock = ScaledClock()
    latencies = clock.raw
    failed = 0
    start = time.perf_counter()
    position = 0
    while position < len(runner.order):
        batch = runner.write_block(position)
        outputs, ok = [], []
        for op, argv, _ in batch:
            code, out, err, elapsed = runner.execute(argv)
            clock.add(elapsed)
            outputs.append(out)
            ok.append(runner.check(op, code, out, err))
        failed += ok.count(False)
        failed += runner.check_block(position, [op for op, _, _ in batch], outputs, ok)
        _clear(runner.workdir)
        position += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_OPS) or elapsed >= HARD_CAP_S:
            break
    clock.flush()
    scaled = clock.scaled
    raw = {
        "setup_s": statistics.median(setup_raw),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * p90(latencies),
        "host_speed": clock.host_speed(),
    }
    return {
        "raw": raw,
        "attempted": len(latencies),
        "failed": failed,
        "blocks": position,
        "metrics": {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "latency_p50_ms": (1000 * statistics.median(scaled), "ms"),
            "latency_p90_ms": (1000 * p90(scaled), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _clear(workdir: str) -> None:
    for name in os.listdir(workdir):
        shutil.rmtree(os.path.join(workdir, name))


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def traced(runner: Runner, blocks: int | None = None) -> dict:
    """A fixed operation set untraced, then traced; per-layer metrics."""
    from tracing import Tracer

    if blocks is None:
        blocks = TRACE_BLOCKS[runner.workload]
    batches = [runner.write_block(i) for i in range(blocks)]
    batches.append(runner.write(*runner.workloads.coverage(), "coverage"))
    ops = [item for batch in batches for item in batch]
    warm_up(runner)

    plain = [runner.execute(argv) for _, argv, _ in ops]
    tracer = Tracer()
    tracer.install()
    try:
        shadow = []
        for i, (_, argv, _) in enumerate(ops):
            tracer.op = i
            shadow.append(runner.execute(argv))
    finally:
        tracer.uninstall()

    failed = 0
    start = 0
    for position, batch in enumerate(batches):
        ok = []
        for (op, _, _), first, second in zip(batch, plain[start:], shadow[start:]):
            good = runner.check(op, *second[:3])
            if good and second[:3] != first[:3]:
                runner.failures.append(f"{op.key}: traced output differs from untraced")
                good = False
            ok.append(good)
        outputs = [out for _, out, _, _ in shadow[start : start + len(batch)]]
        batch_ops = [op for op, _, _ in batch]
        failed += ok.count(False)
        if position < blocks:
            failed += runner.check_block(position, batch_ops, outputs, ok)
        else:
            failed += runner.check_digest(runner.coverage_pin, "coverage", batch_ops, outputs, ok)
        start += len(batch)

    os.makedirs(os.path.join(ROOT, ".bench_traces"), exist_ok=True)
    dump = os.path.join(ROOT, ".bench_traces", f"{runner.workload}-seed{runner.seed}.json")
    with open(dump, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)

    by_command: dict[str, list[float]] = {}
    for (op, _, _), (_, _, _, elapsed) in zip(ops, plain):
        by_command.setdefault(op.command, []).append(elapsed)
    metrics = layer_metrics(
        tracer,
        by_command,
        output_bytes=sum(len(out.encode()) for _, out, _, _ in shadow),
        input_bytes=sum(size for _, _, size in ops),
        overhead=sum(t for *_, t in shadow) / sum(t for *_, t in plain),
    )
    return {
        "attempted": len(ops),
        "failed": failed,
        "blocks": blocks,
        "metrics": metrics,
        "tracer": tracer,
    }


def layer_metrics(tracer, by_command, output_bytes, input_bytes, overhead) -> dict:
    st, layer, counter = tracer.stat, tracer.layer, tracer.counters.get
    m: dict[str, tuple] = {}
    for command in COMMANDS:
        times = by_command.get(command)
        m[f"cli.{command}.p50_ms"] = (1000 * statistics.median(times) if times else 0.0, "ms")
    m["cli.s"] = (st("cli.run").inclusive, "s")
    m["cli.self_s"] = (st("cli.run").self_time, "s")
    m["cli.render_s"] = (st("cli.render_report").inclusive, "s")
    m["cli.output_bytes"] = (output_bytes, "bytes")
    m["io.parse_s"] = (layer("io").inclusive, "s")
    m["io.input_bytes"] = (input_bytes, "bytes")
    m["germs.calls"] = (layer("germs").calls, "count")
    m["germs.s"] = (layer("germs").inclusive, "s")
    for fn in ("central_manifold", "straighten", "morse_normalize"):
        m[f"central.{fn}.s"] = (st(f"central.{fn}").inclusive, "s")
    m["central.calls"] = (layer("central").calls, "count")
    for fn in ("external_lift", "lift_levi_relation"):
        m[f"marson.{fn}.s"] = (st(f"marson.{fn}").inclusive, "s")
    for fn in ("make_equivalence", "extract_multiplier", "lift_equivalence", "verify_lift"):
        m[f"equivalence.{fn}.s"] = (st(f"equivalence.{fn}").inclusive, "s")
    for fn in (
        "complexify",
        "conjugate_elimination",
        "phi_determinant",
        "phi_elimination",
        "rigid_phi_test",
        "ode_right_side",
    ):
        m[f"segre.{fn}.s"] = (st(f"segre.{fn}").inclusive, "s")
    solve = st("solve.implicit_solve")
    m["solve.implicit_solve.calls"] = (solve.calls, "count")
    m["solve.implicit_solve.s"] = (solve.inclusive, "s")
    m["solve.implicit_solve.self_s"] = (solve.self_time, "s")
    m["solve.unknowns"] = (counter("solve.unknowns", 0), "count")
    m["solve.sweeps"] = (counter("solve.sweeps", 0), "count")
    compose = st("jets.compose_many")
    m["jets.compose_many.calls"] = (compose.calls, "count")
    m["jets.compose_many.s"] = (compose.inclusive, "s")
    m["jets.compose_many.self_s"] = (compose.self_time, "s")
    m["jets.compose_many.outer_terms"] = (counter("jets.compose_many.outer_terms", 0), "count")
    m["jets.mul.calls"] = (st("jets.mul").calls, "count")
    m["jets.scale.calls"] = (st("jets.scale").calls, "count")
    m["jets.add.calls"] = (st("jets.add").calls, "count")
    m["jets.add.self_s"] = (st("jets.add").self_time, "s")
    m["jets.unit_inverse.calls"] = (st("jets.unit_inverse").calls, "count")
    m["jets.jet_sqrt.calls"] = (st("jets.jet_sqrt").calls, "count")
    m["jets.rename.self_s"] = (st("jets.rename").self_time, "s")
    kernel = st("kernel.mul_terms")
    m["kernel.calls"] = (kernel.calls, "count")
    m["kernel.self_s"] = (kernel.self_time, "s")
    for name in ("terms_in", "pairs_bound", "terms_out", "max_coeff_bits"):
        m[f"kernel.{name}"] = (counter(f"kernel.{name}", 0), "bits" if name == "max_coeff_bits" else "count")
    m["rationals.normalize.calls"] = (st("rationals.normalize").calls, "count")
    m["rationals.normalize.self_s"] = (st("rationals.normalize").self_time, "s")
    m["linalg.calls"] = (layer("linalg").calls, "count")
    m["linalg.s"] = (layer("linalg").inclusive, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crjets", "cli.py")):
        print(f"perfbench: no crjets sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        result = traced(runner) if args.trace else end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"attempted={attempted} failed={failed} failed_ops_ratio={failed / attempted:.6g} "
        f"blocks={result['blocks']}/{len(runner.order)}"
    )
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    for name, value in result.get("raw", {}).items():
        print(f"  unscaled {name:27s} {value:>16.6g}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
