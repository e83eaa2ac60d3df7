"""Write the golden outputs of every workload at the golden seed.

    python3 perfbench/make_goldens.py [workload ...]

Runs one set-up and one iteration of each named workload (all by default)
through the CLI and stores, per workload, the digest of its inputs and the
checked fields of each command's output in ``goldens/<workload>.json``.
Regenerate only when a change is meant to alter the workload or its
results, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def write_golden(workload) -> None:
    scratch = run.WORK / f"goldens-{workload.name}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        runner = run.Runner(scratch)
        dest = scratch / "inputs"
        if not workload.setup(runner, workloads.GOLDEN_SEED, dest):
            raise SystemExit(f"{workload.name}: set-up failed")
        outputs = {}
        for command in workload.commands(dest, scratch / "out"):
            if runner.cli(command.argv).code != 0:
                raise SystemExit(f"{workload.name}: {command.label} failed")
            outputs[command.label] = workloads.extract(command.kind, command.output)
        golden = {
            "seed": workloads.GOLDEN_SEED,
            "inputs_sha256": workload.inputs_sha256(dest),
            "outputs": outputs,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    path = workloads.GOLDEN_DIR / f"{workload.name}.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")


def main(names: list[str]) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        write_golden(workloads.WORKLOADS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
