"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check that the generator only makes admissible inputs, that the
pinned digests hold under another hash seed, that the tracer reaches
every binding site and leaves the reports untouched, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import _FUNCTIONS, Tracer, _span_name  # noqa: E402

# The workload each traced name is meant to be exercised by.
EXERCISED_BY = {
    "cli.run": "section-hessian",
    "cli.render_report": "section-hessian",
    "io.load_json": "section-hessian",
    "io.germ_from_json": "section-hessian",
    "io.height_from_json": "survey",
    "io.map_from_json": "survey",
    "germs.make_germ": "section-hessian",
    "germs.first_integrals": "survey",
    "germs.frame": "survey",
    "germs.is_solution": "survey",
    "germs.levi_form": "survey",
    "germs.t_hessian": "survey",
    "germs.characteristic_covector": "survey",
    "central.central_manifold": "section-hessian",
    "central.straighten": "survey",
    "central.is_straightened": "survey",
    "central.morse_normalize": "survey",
    "marson.external_lift": "survey",
    "marson.lift_levi_relation": "survey",
    "equivalence.make_equivalence": "survey",
    "equivalence.extract_multiplier": "survey",
    "equivalence.lift_equivalence": "survey",
    "equivalence.verify_lift": "survey",
    "segre.complexify": "section-hessian",
    "segre.conjugate_elimination": "section-hessian",
    "segre.phi_determinant": "section-hessian",
    "segre.phi_elimination": "section-hessian",
    "segre.rigid_phi_test": "survey",
    "segre.ode_right_side": "survey",
    "solve.implicit_solve": "section-hessian",
    "jets.compose_many": "section-hessian",
    "jets.jet_sqrt": "wide-coefficients",
    "jets.add": "section-hessian",
    "jets.mul": "section-hessian",
    "jets.scale": "section-hessian",
    "jets.rename": "section-hessian",
    "jets.unit_inverse": "section-hessian",
    "linalg.invert_matrix": "section-hessian",
    "linalg.rank": "survey",
    "linalg.symmetric_diagonalize": "survey",
    "linalg.hermitian_signature": "survey",
    "kernel.mul_terms": "wide-coefficients",
    "rationals.normalize": "wide-coefficients",
}
COUNT_UNITS = ("count", "bytes", "bits")


@pytest.fixture
def runner_for(tmp_path):
    def make(workload: str, seed: int) -> run.Runner:
        workdir = tmp_path / f"{workload}-{seed}"
        workdir.mkdir()
        return run.Runner(workload, seed, str(workdir))

    return make


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of a small operation set per workload."""
    out = {}
    for workload in workloads.WORKLOADS:
        pair = []
        for attempt in range(2):
            workdir = tmp_path_factory.mktemp(f"{workload}-{attempt}")
            pair.append(run.traced(run.Runner(workload, 3, str(workdir)), blocks=1))
        out[workload] = pair
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [101, 202])
def test_every_generated_operation_exits_zero(runner_for, workload, seed):
    runner = runner_for(workload, seed)
    for index in range(2):
        for op, argv, _ in runner.write_block(index):
            code, out, err, _ = runner.execute(argv)
            assert runner.check(op, code, out, err), runner.failures


def test_blocks_are_reproducible_and_distinct():
    for workload in workloads.WORKLOADS:
        assert workloads.block(workload, 5, 1) == workloads.block(workload, 5, 1)
        first, _ = workloads.block(workload, 5, 0)
        second, _ = workloads.block(workload, 5, 1)
        assert list(first.values()) != list(second.values())


def test_every_pool_block_is_pinned():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    assert pins["coverage"]
    for workload in workloads.WORKLOADS:
        streams = pins["blocks"][workload]
        assert set(streams) == {str(s) for s in workloads.POOL_STREAMS}
        assert {len(d) for d in streams.values()} == {workloads.POOL_BLOCKS[workload]}
        for seed in (0, 7, 123456789):
            order = workloads.pool(workload, seed)
            assert sorted(order) == sorted(workloads.pool(workload, 0))
            assert all(index < len(streams[str(s)]) for s, index in order)
        assert workloads.pool(workload, 1) != workloads.pool(workload, 2)


def test_pins_hold_under_another_hash_seed(tmp_path):
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{HERE!r}, {run.SRC!r}]\n"
        "import pin\n"
        "import run, workloads\n"
        "out = {w: pin.pin(w, 0, 2, sys.argv[1]) for w in workloads.WORKLOADS}\n"
        "runner = run.Runner(workloads.WORKLOADS[0], 0, sys.argv[1])\n"
        "out['coverage'] = pin.digest(runner, *workloads.coverage(), 'coverage')\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    digests = json.loads(proc.stdout.splitlines()[-1])
    assert digests.pop("coverage") == pins["coverage"]
    for workload, got in digests.items():
        assert got == pins["blocks"][workload]["0"][:2], workload


def test_tracer_covers_every_binding_site_and_restores_them():
    import crjets
    from crjets import central, jets, rationals, segre, solve

    original_solve = solve.implicit_solve
    original_add = jets.Jet.__dict__["__add__"]
    original_normalize = rationals.GaussianRational.__dict__["normalize"]
    tracer = Tracer()
    tracer.install()
    try:
        for module in (segre, central, solve):
            assert module.implicit_solve is not original_solve
            assert module.implicit_solve.__wrapped__ is original_solve
        assert crjets.compose_many.__wrapped__ is jets.compose_many.__wrapped__
        assert jets.Jet.__dict__["__radd__"].__wrapped__ is original_add
    finally:
        tracer.uninstall()
    assert segre.implicit_solve is original_solve
    assert central.implicit_solve is original_solve
    assert jets.Jet.__dict__["__add__"] is original_add
    assert rationals.GaussianRational.__dict__["normalize"] is original_normalize


def test_every_traced_name_has_an_exercising_workload():
    names = {_span_name(qualname) for qualname, _, _ in _FUNCTIONS}
    names |= {"jets.add", "jets.mul", "jets.scale", "jets.rename", "jets.unit_inverse"}
    names.add("rationals.normalize")
    assert names == set(EXERCISED_BY)


@pytest.mark.parametrize("name", sorted(EXERCISED_BY))
def test_each_wrapped_function_records_calls(traced_runs, name):
    result = traced_runs[EXERCISED_BY[name]][0]
    assert result["tracer"].stat(name).calls > 0
    # Names kept span by span must be reached by the workload's own
    # operations, not only by the coverage block that ends every traced run.
    own_ops = result["attempted"] - len(workloads.coverage()[1])
    spans = result["tracer"].spans
    if any(span[0] == name for span in spans):
        assert any(span[0] == name and span[4] < own_ops for span in spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_per_layer_metric_is_nonzero(traced_runs, workload):
    metrics = traced_runs[workload][0]["metrics"]
    assert [name for name, (value, _) in metrics.items() if not value] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_reports_match_untraced_and_counters_repeat(traced_runs, workload):
    first, second = traced_runs[workload]
    assert first["failed"] == 0 and second["failed"] == 0
    counts = {
        name: value
        for name, (value, unit) in first["metrics"].items()
        if unit in COUNT_UNITS
    }
    assert counts == {name: second["metrics"][name][0] for name in counts}
    assert first["tracer"].counters == second["tracer"].counters
    calls = {name: st.calls for name, st in first["tracer"].stats.items()}
    assert calls == {name: st.calls for name, st in second["tracer"].stats.items()}


def test_metric_names_match_benchmark_json(traced_runs, runner_for):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = traced_runs["survey"][0]["metrics"]
    assert per_layer == {name: unit for name, (_, unit) in metrics.items()}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = run.end_to_end(runner_for("survey", 1), seconds=0)
    assert result["attempted"] >= run.MIN_OPS and result["failed"] == 0
    assert end_to_end == {name: unit for name, (_, unit) in result["metrics"].items()}


def test_scaled_clock_divides_by_the_neighbouring_reference_calls(monkeypatch):
    samples = iter([0.010, 0.020, 0.005])
    monkeypatch.setattr(calibrate, "REFERENCE_MS", 10.0)
    monkeypatch.setattr(calibrate, "REFERENCE_EVERY_S", 0.1)
    monkeypatch.setattr(calibrate, "sample", lambda: next(samples))
    clock = calibrate.ScaledClock()
    clock.add(0.06)
    clock.add(0.06)  # 0.12 s pending: reference call, slowdown (10 + 20) / 2 / 10
    clock.add(0.03)
    clock.flush()  # slowdown (20 + 5) / 2 / 10
    assert clock.raw == [0.06, 0.06, 0.03]
    assert clock.scaled == pytest.approx([0.04, 0.04, 0.024])
    assert clock.references == [0.010, 0.020, 0.005]


def test_reference_task_is_fixed():
    assert calibrate.reference() == calibrate.reference()


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
