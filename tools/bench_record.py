"""Record the benchmark's results for one checkout in a BENCH_*.json file.

    python3 tools/bench_record.py --seed 7 --seconds 30
    python3 tools/bench_record.py --seed 7 --seconds 30 --repo ../other-checkout --out BENCH_x.json

For each workload named in the checkout's BENCHMARK.json, runs that
checkout's ``perfbench/run.py`` three times with ``--trace 0``
(end-to-end metrics) and once with ``--trace 1`` (per-layer times and
counters), one run at a time. A run's result is the JSON object on the
last line of its stdout. The three ``--trace 0`` results are kept as
``trace0_runs`` and ``trace0`` holds their per-metric median, so that
one slow moment of a shared host does not stand as the commit's figure;
its ``correct`` holds only if every run's does, and its ``attempted``
and ``failed`` add up the three runs. The file written holds the results
with a sha256 over the package sources, the interpreter version, the
platform and CPU, the seed and the run length, and the checkout's git
revision. A checkout with uncommitted changes measures no commit: its
record has ``"dirty": true``, ``"revision": null`` and the commit the
changes sit on as ``"base_revision"``, so only ``source_sha256`` ties it
to the commit that later holds them. The default output is
``BENCH_<short revision>.json`` at the root of a clean checkout; a dirty
one needs ``--out``.

Exits 1, after writing the file, if any run reports ``"correct": false``;
exits 2 without writing it if a run prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END_RUNS = 3


def git(repo: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", repo, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def source_digest(repo: str) -> str:
    """sha256 over the relative path and bytes of every .py file under src/."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(repo, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, repo).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_once(repo: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable,
        os.path.join(repo, "perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=repo, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(
            f"bench_record: {workload} --trace {trace} exited {proc.returncode} "
            f"with no result\n{proc.stderr[-4000:]}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def median_result(results: list[dict]) -> dict:
    """One result from several --trace 0 results: the median of each metric."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"unit": metric["unit"], "value": statistics.median(values)}
    return {
        "correct": all(r.get("correct") is True for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--repo", default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--out", help="default: BENCH_<short revision>.json in a clean checkout")
    args = parser.parse_args(argv)

    repo = os.path.abspath(args.repo)
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    head = git(repo, "rev-parse", "HEAD")
    dirty = bool(git(repo, "status", "--porcelain", "--untracked-files=no"))
    if dirty and not args.out:
        parser.error("the checkout has uncommitted changes, so it measures no revision: give --out")
    record = {
        "revision": None if dirty else head,
        "dirty": dirty,
        "source_sha256": source_digest(repo),
        "python": sys.version,
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": {},
    }
    if dirty:
        record["base_revision"] = head
    correct = True
    for workload in workloads:
        end_to_end = [
            run_once(repo, workload, args.seed, args.seconds, 0) for _ in range(END_TO_END_RUNS)
        ]
        traced = run_once(repo, workload, args.seed, args.seconds, 1)
        runs = {"trace0": median_result(end_to_end), "trace0_runs": end_to_end, "trace1": traced}
        correct = correct and runs["trace0"]["correct"] and traced.get("correct") is True
        record["runs"][workload] = runs

    out = args.out or os.path.join(repo, f"BENCH_{git(repo, 'rev-parse', '--short', 'HEAD')}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(out)
    if not correct:
        print("bench_record: a run reported failed operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
