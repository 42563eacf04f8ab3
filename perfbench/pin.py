"""Record the pinned output digests in ``pins.json``.

    PYTHONHASHSEED=0 python3 perfbench/pin.py

Runs every block of every workload's pool (``workloads.POOL_STREAMS`` by
``workloads.POOL_BLOCKS``) and the coverage block of the traced run,
refuses to pin if any operation fails its checks, and writes one digest
per block (see ``run.block_digest``). Takes over half an hour. Re-pin
only when a change is meant to alter the reports; a pin that moves
otherwise is a regression.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def digest(runner: run.Runner, files: dict, ops: list, label: str) -> str:
    outputs = []
    for op, argv, _ in runner.write(files, ops, "pin"):
        code, out, err, _ = runner.execute(argv)
        if not runner.check(op, code, out, err):
            raise SystemExit(f"{label}: {runner.failures[-1]}")
        outputs.append(out)
    run._clear(runner.workdir)
    return run.block_digest(ops, outputs)


def pin(workload: str, stream: int, blocks: int, workdir: str) -> list[str]:
    """Digests of the first ``blocks`` blocks of one stream."""
    runner = run.Runner(workload, 0, workdir)
    return [
        digest(runner, *workloads.block(workload, stream, index), f"{workload} {stream}:{index}")
        for index in range(blocks)
    ]


def main() -> int:
    sys.path.insert(0, run.SRC)
    path = os.path.join(run.HERE, "pins.json")
    with open(path, encoding="utf-8") as handle:
        pins = json.load(handle)
    workdir = os.path.join(run.ROOT, ".bench_work", f"pin-{os.getpid()}")
    os.makedirs(workdir)

    def save() -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")

    try:
        runner = run.Runner(workloads.WORKLOADS[0], 0, workdir)
        pins["coverage"] = digest(runner, *workloads.coverage(), "coverage")
        save()
        for workload, blocks in workloads.POOL_BLOCKS.items():
            for stream in workloads.POOL_STREAMS:
                digests = pin(workload, stream, blocks, workdir)
                pins["blocks"].setdefault(workload, {})[str(stream)] = digests
                save()
                print(f"pinned {workload} stream {stream}: {len(digests)} blocks", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
