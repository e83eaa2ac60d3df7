"""The four workloads: how their inputs are built, which CLI commands make one
iteration, and how the outputs of those commands are checked.

Every command is a ``tracefault`` CLI invocation (the argument list after
``python -m tracefault.cli``). No ``--jobs`` flag is passed, so ``evaluate``
runs with its default, and ``tracefault bench`` is not used.

Outputs are checked in two ways. Structural checks hold for every seed:
ranks are 1..k, scores do not increase down the list, equal scores are
ordered by ``step_id``, metrics lie in their ranges and ``--check`` passes.
At the golden seed the outputs must also equal the committed goldens, and
the inputs must hash to the committed digest, so a change to the generator
cannot silently change a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import tracegen

GOLDEN_SEED = 42
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
DIGITS = 12

METRIC_FIELDS = ("n", "hit_at_1", "hit_at_3", "hit_at_5", "mrr")
STRATA = ("bug_type", "trace_length", "bug_position", "domain")
ABLATION_COUNT = 13
SWEEP_POSITIONS = (0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of an iteration and the output file it writes.

    ``kind`` selects the checks. ``in_wall`` commands make up ``wall_s``;
    the ``largest`` command is the one ``largest_trace_s`` times. ``gate``
    marks ``evaluate --check``, which exits 1 when the program's own
    thresholds are not met.
    """

    label: str
    argv: tuple[str, ...]
    output: Path
    kind: str
    in_wall: bool = True
    largest: bool = False
    gate: bool = False


def _round(value):
    if isinstance(value, float):
        return round(value, DIGITS)
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return value


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def tree_sha256(directory: Path, subdirs: tuple[str, ...]) -> str:
    """Digest over the relative paths and bytes of the JSON files in ``subdirs``."""
    digest = hashlib.sha256()
    for sub in subdirs:
        for path in sorted((directory / sub).glob("*.json")):
            digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------- extraction
# What the goldens pin: candidate fields only, order-independent metrics only
# (the bootstrap interval depends on scenario order, so it is checked
# structurally instead).


def _metric_fields(block: dict) -> dict:
    return {k: block[k] for k in METRIC_FIELDS}


def extract(kind: str, path: Path):
    obj = _load(path)
    if kind == "analysis":
        return _round([[c["step_id"], c["score"]] for c in obj["candidates"]])
    if kind == "weights":
        return _round({"best": obj["best"]})
    main = {"tracefault": _metric_fields(obj["methods"]["tracefault"])}
    if kind == "evaluate":
        main["strata"] = {
            family: {label: _metric_fields(b) for label, b in obj["strata"][family].items()}
            for family in STRATA
        }
    else:  # reweight
        main["ablations"] = {label: b["hit_at_1"] for label, b in obj["ablations"].items()}
        main["sweep"] = [[r["w_position"], r["hit_at_1"]] for r in obj["position_weight_sweep"]]
    return _round(main)


# ---------------------------------------------------------------- structure


def _check_analysis(obj: dict) -> list[str]:
    cands = obj["candidates"]
    if not cands:
        return ["no candidates"]
    problems = []
    if [c["rank"] for c in cands] != list(range(1, len(cands) + 1)):
        problems.append("ranks are not 1..k")
    if len({c["step_id"] for c in cands}) != len(cands):
        problems.append("duplicate step ids")
    if obj.get("candidate_count", len(cands)) != len(cands):
        problems.append("candidate_count differs from the list")
    for a, b in zip(cands, cands[1:]):
        if not math.isfinite(b["score"]) or b["score"] > a["score"]:
            problems.append(f"score increases at rank {b['rank']}")
            break
        if b["score"] == a["score"] and b["step_id"] < a["step_id"]:
            problems.append(f"tie at rank {b['rank']} not broken by step_id")
            break
    return problems


def _check_block(block: dict, n: int) -> list[str]:
    problems = []
    if block["n"] != n:
        problems.append(f"n={block['n']}, expected {n}")
    h1, h3, h5, mrr = block["hit_at_1"], block["hit_at_3"], block["hit_at_5"], block["mrr"]
    if not 0.0 <= h1 <= h3 <= h5 <= 1.0:
        problems.append("hit@k not monotone in [0, 1]")
    if not h1 <= mrr <= 1.0:
        problems.append("mrr outside [hit@1, 1]")
    lo, hi = block["hit_at_1_ci95"]
    if not 0.0 <= lo <= h1 <= hi <= 1.0:
        problems.append("hit@1 outside its bootstrap interval")
    return problems


def _check_evaluate(obj: dict, n: int) -> list[str]:
    problems = _check_block(obj["methods"]["tracefault"], n)
    for family in STRATA:
        if sum(b["n"] for b in obj["strata"][family].values()) != n:
            problems.append(f"strata {family} do not cover {n} scenarios")
    return problems


def _check_reweight(obj: dict, n: int) -> list[str]:
    main = obj["methods"]["tracefault"]
    problems = _check_block(main, n)
    ablations = obj["ablations"]
    if len(ablations) != ABLATION_COUNT + 1 or ablations["full"]["hit_at_1"] != main["hit_at_1"]:
        problems.append("ablation table incomplete or full row differs from the main method")
    rows = obj["position_weight_sweep"]
    if tuple(r["w_position"] for r in rows) != SWEEP_POSITIONS:
        problems.append("sweep rows differ from the position grid")
    hits = [b["hit_at_1"] for b in ablations.values()] + [r["hit_at_1"] for r in rows]
    if not all(0.0 <= h <= 1.0 for h in hits):
        problems.append("reweighted hit@1 outside [0, 1]")
    return problems


def _check_weights(obj: dict) -> list[str]:
    best, table = obj["best"], obj["table"]
    problems = []
    if abs(sum(best.values()) - 1.0) > 1e-9:
        problems.append("best weights do not sum to one")
    if not table or obj["evaluated_points"] != len(table):
        problems.append("grid table empty or miscounted")
    elif max(row["hit_at_1"] for row in table) not in [
        row["hit_at_1"] for row in table if row["weights"] == best
    ]:
        problems.append("best weights are not a best grid point")
    return problems


def check(command: Command, expected_n: int, golden: dict | None) -> list[str]:
    """Problems with one command's output; empty when it is correct."""
    try:
        obj = _load(command.output)
        if command.kind == "analysis":
            problems = _check_analysis(obj)
        elif command.kind == "weights":
            problems = _check_weights(obj)
        elif command.kind == "evaluate":
            problems = _check_evaluate(obj, expected_n)
        else:
            problems = _check_reweight(obj, expected_n)
        if golden is not None and extract(command.kind, command.output) != golden["outputs"].get(
            command.label
        ):
            problems.append("differs from golden")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"{command.label}: {p}" for p in problems]


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    why = ""

    def setup(self, runner, seed: int, dest: Path) -> bool:
        """Build the inputs once into ``dest``; False if that failed."""
        raise NotImplementedError

    def inputs_sha256(self, dest: Path) -> str:
        raise NotImplementedError

    def expected_n(self, dest: Path) -> int:
        """Scenario count the evaluate outputs must report."""
        return 0

    def commands(self, dest: Path, out: Path) -> list[Command]:
        raise NotImplementedError

    def golden(self, seed: int) -> dict | None:
        path = GOLDEN_DIR / f"{self.name}.json"
        if seed != GOLDEN_SEED or not path.exists():
            return None
        return _load(path)


def _largest_scenario(dest: Path) -> Path:
    """Longest scenario file, the first by name among equals."""
    files = sorted((dest / "scenarios").glob("*.json"))
    return max(files, key=lambda p: len(_load(p)["steps"]))


class GeneratedWorkload(Workload):
    """Inputs from ``tracefault generate --seed S``: 550 scenarios plus 50
    validation scenarios of 8-15 steps."""

    def setup(self, runner, seed, dest):
        return runner.cli(("generate", "--seed", str(seed), "--out", str(dest))).code == 0

    def inputs_sha256(self, dest):
        return tree_sha256(dest, ("scenarios", "validation"))

    def expected_n(self, dest):
        return len(list((dest / "scenarios").glob("*.json")))

    def _probe(self, dest: Path, out: Path) -> Command:
        return Command(
            label="largest",
            argv=("analyze", str(_largest_scenario(dest)), "--out", str(out / "largest.json")),
            output=out / "largest.json",
            kind="analysis",
            in_wall=False,
            largest=True,
        )


class Eval550(GeneratedWorkload):
    name = "eval-550"
    why = "the paper's headline evaluate --check over 550 scenarios; bootstrap, features, import and parse dominate"

    def commands(self, dest, out):
        return [
            Command(
                label="evaluate",
                argv=("evaluate", str(dest), "--check", "--out-dir", str(out / "eval")),
                output=out / "eval" / "metrics.json",
                kind="evaluate",
                gate=True,
            ),
            self._probe(dest, out),
        ]


class Reweight550(GeneratedWorkload):
    name = "reweight-550"
    why = "ablations, sweep and learn-weights score the same traces under 19 and 14 weight vectors"

    def commands(self, dest, out):
        return [
            Command(
                label="evaluate",
                argv=(
                    "evaluate", str(dest), "--methods", "tracefault", "--ablations", "--sweep",
                    "--out-dir", str(out / "eval"),
                ),
                output=out / "eval" / "metrics.json",
                kind="reweight",
            ),
            Command(
                label="learn-weights",
                argv=("learn-weights", str(dest / "validation"), "--out", str(out / "weights.json")),
                output=out / "weights.json",
                kind="weights",
            ),
            self._probe(dest, out),
        ]


class LongTraces(Workload):
    """Traces written by ``tracegen``; one ``analyze`` per trace."""

    sizes: tuple[int, ...] = ()
    declared = True

    def _files(self, dest: Path) -> list[Path]:
        return [dest / f"trace_{n:04d}.json" for n in self.sizes]

    def setup(self, runner, seed, dest):
        dest.mkdir(parents=True, exist_ok=True)
        for n, path in zip(self.sizes, self._files(dest)):
            path.write_bytes(tracegen.trace_bytes(n, seed, self.declared))
        return True

    def inputs_sha256(self, dest):
        return tree_sha256(dest, (".",))

    def commands(self, dest, out):
        commands = []
        for n, path in zip(self.sizes, self._files(dest)):
            output = out / f"analysis_{n:04d}.json"
            commands.append(
                Command(
                    label=f"analyze-{n}",
                    argv=("analyze", str(path), "--out", str(output)),
                    output=output,
                    kind="analysis",
                    largest=n == max(self.sizes),
                )
            )
        return commands


class LongTrace(LongTraces):
    name = "long-trace"
    why = "200-1600 steps with declared artifacts: ~40 candidates, full betweenness dominates the largest trace"
    sizes = (200, 400, 800, 1600)


class TextscanTrace(LongTraces):
    name = "textscan-trace"
    why = "100-400 steps without produces/consumes: identifier-scan edges make a dense graph; every step is a candidate"
    sizes = (100, 200, 400)
    declared = False


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Eval550(), Reweight550(), LongTrace(), TextscanTrace())
}
