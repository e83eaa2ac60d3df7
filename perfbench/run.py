"""tracefault benchmark driver.

    python3 perfbench/run.py --workload eval-550 --seed 42 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` every command of an iteration is
``python -m tracefault.cli ...`` in a fresh process, one after another (a
closed loop with one client), and the end-to-end metrics are reported. With
``--trace 1`` the same commands run in this process through
``tracefault.cli.main(argv)``, once untraced and once with the layers
wrapped by ``tracer.Tracer``, and the per-layer metrics are reported.

Iterations repeat while another one is expected to end within
``--seconds`` (at least one runs). Timings are medians over the iterations
of the run. Every output is checked (see ``workloads``). The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Scratch
files live under ``.perfbench/`` in the checkout; the inputs and outputs of
a run are removed when it ends, the spans of a traced run are kept there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 200
SETUP_MIN_S = 2.0
IMPORT_REPS = 5
COMMAND_TIMEOUT_S = 150.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tracefault.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class ProcResult:
    wall_s: float
    peak_rss_mb: float
    code: int


class Runner:
    """Starts CLI processes and reports each one's wall time and peak RSS."""

    def __init__(self, scratch: Path):
        self.log = scratch / "child.log"
        env = {k: v for k, v in os.environ.items() if k != "TRACEFAULT_SEED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = str(scratch)
        self.env = env

    def spawn(self, argv) -> ProcResult:
        """Run one process to completion; rusage comes from that child alone."""
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=log, env=self.env, cwd=ROOT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ProcResult(wall, usage.ru_maxrss / 1024.0, proc.returncode)

    def cli(self, argv) -> ProcResult:
        return self.spawn([sys.executable, "-m", "tracefault.cli", *argv])

    def import_seconds(self) -> float:
        """Time of ``import tracefault.cli`` measured inside a fresh process."""
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, env=self.env, cwd=ROOT, timeout=COMMAND_TIMEOUT_S, check=True,
        )
        return float(done.stdout.decode().strip())


class Tally:
    """Attempted and failed operations, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: set[str] = set()

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def set_up(workload, runner, seed, golden, scratch, tally, repeat) -> tuple[Path, list[float]]:
    """Build the inputs, with ``repeat`` at least three times and until two
    seconds have passed (at most 200). Every copy must hash the same, and at
    the golden seed match the golden digest. Returns the last copy."""
    times, first = [], None
    for rep in range(SETUP_MAX_REPS if repeat else 1):
        if len(times) >= SETUP_MIN_REPS and sum(times) >= SETUP_MIN_S:
            break
        dest = scratch / f"inputs{rep}"
        start = time.perf_counter()
        ok = workload.setup(runner, seed, dest)
        times.append(time.perf_counter() - start)
        problems = [] if ok else ["set-up failed"]
        if ok:
            digest = workload.inputs_sha256(dest)
            first = first or digest
            if digest != first:
                problems.append("set-up is not deterministic: input digests differ")
            if golden is not None and digest != golden["inputs_sha256"]:
                problems.append(f"inputs sha256 {digest} differs from golden")
        tally.record(problems)
        if rep:
            shutil.rmtree(scratch / f"inputs{rep - 1}", ignore_errors=True)
    return dest, times


def settle(command, code, expected_n, golden, tally) -> None:
    """Record one finished command: its exit code, then its output.

    ``evaluate --check`` also gates the ordering of the heuristic baselines
    (last above random), which does not hold at every seed (it fails at 4
    and 8 among 1-13). Away from the golden seed its exit code 1 is the
    gate's verdict, noted in the report, not a failed operation.
    """
    if command.gate and code == 1 and golden is None:
        tally.notes.add(f"{command.label}: --check thresholds not met at this seed")
        code = 0
    if code != 0:
        tally.record([f"{command.label}: exit code {code}"])
    else:
        tally.record(workloads.check(command, expected_n, golden))


def run_command(runner, command, expected_n, golden, tally) -> ProcResult:
    result = runner.cli(command.argv)
    settle(command, result.code, expected_n, golden, tally)
    return result


def another_fits(begin: float, done: int, seconds: float) -> bool:
    """Whether one more iteration of average length ends within ``seconds``."""
    elapsed = time.perf_counter() - begin
    return elapsed + elapsed / done <= seconds


def timed_run(workload, seed, seconds, scratch) -> tuple[Tally, dict, dict]:
    runner = Runner(scratch)
    tally = Tally()
    golden = workload.golden(seed)
    # Compile the package's bytecode before anything is timed.
    warm = runner.spawn([sys.executable, "-c", "import tracefault.cli"])
    tally.record(["import tracefault.cli failed"] if warm.code else [])
    dest, setup_times = set_up(workload, runner, seed, golden, scratch, tally, repeat=True)
    commands = workload.commands(dest, scratch / "out")
    expected_n = workload.expected_n(dest)
    walls, largest, rss = [], [], []
    begin = time.perf_counter()
    while True:
        wall, peak = 0.0, 0.0
        for command in commands:
            result = run_command(runner, command, expected_n, golden, tally)
            if command.in_wall:
                wall += result.wall_s
            if command.largest:
                largest.append(result.wall_s)
            peak = max(peak, result.peak_rss_mb)
        walls.append(wall)
        rss.append(peak)
        if not another_fits(begin, len(walls), seconds):
            break
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "largest_trace_s": (statistics.median(largest), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"setup_s": setup_times, "wall_s": walls, "largest_trace_s": largest,
               "peak_rss_mb": rss}
    return tally, metrics, {"samples": samples, "quality": quality(commands)}


def quality(commands) -> dict:
    """Accuracy of the tracefault method, where the workload evaluates it."""
    for command in commands:
        if command.kind in ("evaluate", "reweight") and command.output.exists():
            block = json.loads(command.output.read_text())["methods"]["tracefault"]
            return {k: block[k] for k in ("hit_at_1", "hit_at_3", "mrr")}
    return {}


def run_in_process(cli, commands, expected_n, golden, tally, tr=None):
    """One iteration through ``tracefault.cli.main``; returns its wall time.
    Under a ``tracer.Tracer`` ``tr``, each command is one request."""
    start = time.perf_counter()
    for request, command in enumerate(c for c in commands if c.in_wall):
        if tr is not None:
            tr.request = request
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(list(command.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        settle(command, code, expected_n, golden, tally)
    return time.perf_counter() - start


def import_package():
    sys.path.insert(0, str(SRC))
    import tracefault.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"tracefault imported from {cli.__file__}, not from {SRC}")
    return cli


def traced_run(workload, seed, seconds, scratch) -> tuple[Tally, dict, dict]:
    runner = Runner(scratch)
    tally = Tally()
    golden = workload.golden(seed)
    import_times = [runner.import_seconds() for _ in range(IMPORT_REPS)]
    dest, _ = set_up(workload, runner, seed, golden, scratch, tally, repeat=False)
    commands = workload.commands(dest, scratch / "out")
    expected_n = workload.expected_n(dest)
    cli = import_package()
    untraced, traced, per_layer, spans, absent = [], [], [], [], []
    begin = time.perf_counter()
    while True:
        untraced.append(run_in_process(cli, commands, expected_n, golden, tally))
        with tracer.Tracer() as tr:
            start = time.perf_counter()
            run_in_process(cli, commands, expected_n, golden, tally, tr)
            end = time.perf_counter()
        traced.append(end - start)
        per_layer.append(tracer.layer_metrics(tr.spans, start, end))
        spans.append(tr.spans)
        absent = tr.absent_layers()
        if not another_fits(begin, len(traced), seconds):
            break
    metrics = {"cli.import_s": (statistics.median(import_times), "s")}
    for name in per_layer[0]:
        metrics[name] = (statistics.median(m[name] for m in per_layer), unit_of(name))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload.name}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for iteration, iteration_spans in enumerate(spans, 1):
            for span in iteration_spans:
                handle.write(json.dumps(span.to_obj() | {"iteration": iteration}) + "\n")
    extra = {
        "samples": {"untraced_wall_s": untraced, "traced_wall_s": traced},
        "absent_layers": absent,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return tally, metrics, extra


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name in ("graph.candidate_ratio", "features.calls_per_trace"):
        return "ratio"
    if name == "ranking.loglog_slope":
        return "1"
    return "count"


def report(workload, seed, tally, metrics, extra) -> None:
    print(f"workload {workload.name}  seed {seed}")
    for name, samples in extra.get("samples", {}).items():
        if samples:
            print(
                f"  {name:<18} n={len(samples):<3} median {statistics.median(samples):.4f} "
                f"min {min(samples):.4f} max {max(samples):.4f}"
            )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6f} {unit}")
    for name, value in extra.get("quality", {}).items():
        print(f"  {name:<30} {value:>14.6f} ratio")
    print(f"  {'error_rate':<30} {tally.failed / max(tally.attempted, 1):>14.6f} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    if extra.get("absent_layers"):
        print(f"  absent layers (reported as 0): {', '.join(extra['absent_layers'])}")
    if extra.get("spans"):
        print(f"  spans written to {extra['spans']}")
    for note in sorted(tally.notes):
        print(f"  note: {note}")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tracefault" / "cli.py").is_file():
        print(f"error: no tracefault sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    scratch = WORK / f"run-{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        tally, metrics, extra = run(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(workload, args.seed, tally, metrics, extra)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
