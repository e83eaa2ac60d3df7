"""Command-line entry point.

Subcommands cover the full pipeline: ``generate`` (benchmark synthesis),
``analyze`` (single-trace diagnosis), ``evaluate`` (metrics over a
benchmark), ``learn-weights`` (grid search) and ``blind`` (anonymized split).
No subcommand mutates its inputs, so reruns are idempotent, and no output
is ever seen half-written. A single output file is written to a temporary
sibling, then renamed over its target. A split directory is replaced whole:
its files are created in a fresh sibling directory, the old split is renamed
aside, the staged one is renamed into its place and the old one is deleted,
with every file and directory in it, not only its ``*.json`` files. A split
that is a symbolic link is replaced at the link's target. Files are created
with mode 0666 less the umask.

``generate`` owns the split directories ``scenarios/``, ``blind/`` and
``validation/`` of its output, and ``blind`` owns ``blind/`` of its own: a
run replaces each split it writes whole, so a rerun under another seed or
salt never leaves two runs' files mixed in one split, and a run that fails
before a split is swapped in leaves that split as it was.

``evaluate`` and ``learn-weights`` stream their split as ``Scenario``s: each
file (on the blind split, each blind file, joined to ``answers.json``, which
is read first) is parsed only when the run reaches it, and no trace is kept
past that file's record or feature table. A bad file still exits 3 naming
it, after the files before it have been ranked; nothing is written until
every file has been read.

Exit codes: 0 success, 1 failed ``--check`` thresholds, 2 usage errors,
3 input/output or schema errors.

Each subcommand imports the modules that only it uses, so ``analyze`` loads
the model, graph, features and ranking modules and none of the benchmark,
evaluation, baseline or statistics code, and ``generate`` loads no feature
or ranking code. Start-up is most of a one-trace ``analyze``, so no
subcommand loads ``dataclasses`` or ``inspect``: the records are plain
classes with ``__slots__``, whose definition runs no generated code.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import AdapterFailure, SchemaViolation, TracefaultError
from .graph import DEFAULT_MAX_DEPTH, build_graph
from .model import (
    DOMAINS,
    canonical_json_bytes,
    load_json_object,
    parse_scenario,
    parse_trace,
    parse_trace_blind,
    steps_json,
    trace_file,
)

if TYPE_CHECKING:
    from .features import FeatureConfig
    from .ranking import WeightVector

VALIDATION_SEED = 2024
VALIDATION_PER_DOMAIN = 5


def _sibling(path: Path) -> Path:
    """A fresh hidden name beside ``path``."""
    return path.with_name(f".{path.name}.{os.urandom(6).hex()}")


def _create(path: Path, data: bytes) -> None:
    """Write ``data`` to a new file, mode 0666 less the umask."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    with os.fdopen(fd, "wb") as handle:
        handle.write(data)


def _write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _sibling(path)
    try:
        _create(tmp, data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, obj) -> None:
    _write_atomic(path, canonical_json_bytes(obj))


def _from_obj(what: str, build, obj):
    """``build(obj)``, with a missing key or a bad value as a schema error."""
    try:
        return build(obj)
    except KeyError as exc:
        raise SchemaViolation(f"{what}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"{what}: {exc}") from None


def _load_weights(path: str | None) -> WeightVector:
    from .ranking import WeightVector

    if path is None:
        return WeightVector()

    def parse(data: bytes) -> WeightVector:
        obj = load_json_object(data)
        return _from_obj("weights", WeightVector.from_dict, obj.get("best", obj))

    return _parse_file(Path(path), parse)


def _load_config(path: str | None) -> FeatureConfig:
    from .features import FeatureConfig

    if path is None:
        return FeatureConfig()

    def parse(data: bytes) -> FeatureConfig:
        return _from_obj("feature config", FeatureConfig.from_obj, load_json_object(data))

    return _parse_file(Path(path), parse)


def _write_split(directory: Path, files) -> None:
    """Replace ``directory`` whole with the ``(name, bytes)`` pairs.

    The files are created in a fresh sibling directory, which takes the
    split's place by two renames: the old split moves aside, the staged one
    moves in, and the old one is deleted with everything in it. On a failure
    before the swap is done, the staged directory is deleted and the old
    split stays in place. A split that is a symbolic link is replaced at the
    link's target, and the link stays.
    """
    directory = directory.resolve()
    directory.parent.mkdir(parents=True, exist_ok=True)
    staged = _sibling(directory)
    os.mkdir(staged)
    aside = None
    try:
        for name, data in files:
            _create(staged / name, data)
        if directory.is_dir():
            moving = _sibling(directory)
            os.rename(directory, moving)
            aside = moving
        os.rename(staged, directory)
    except BaseException:
        try:
            if aside is not None:
                os.rename(aside, directory)
        finally:
            shutil.rmtree(staged, ignore_errors=True)
        raise
    if aside is not None:
        shutil.rmtree(aside)


def _annotated_files(encoded):
    """``(name, bytes)`` of the annotated file of each ``(scenario, steps)``
    pair, ``steps`` being the trace's ``steps_json``."""
    return (
        (f"{s.trace.scenario_id}.json", trace_file(s.trace, steps, ground_truth=s.ground_truth))
        for s, steps in encoded
    )


def _write_blind(out: Path, encoded: list, salt: str) -> None:
    """Write the blind traces of the ``(scenario, steps)`` pairs and their
    answer key."""
    from .benchgen import make_blind

    ids, answers = make_blind((s for s, _ in encoded), salt)
    _write_split(
        out / "blind",
        (
            (f"{anon}.json", trace_file(s.trace, steps, scenario_id=anon))
            for anon, (s, steps) in zip(ids, encoded)
        ),
    )
    _write_json(out / "answers.json", answers)


def cmd_generate(args) -> int:
    from .benchgen import (
        DEFAULT_SEED,
        benchmark_manifest,
        generate_benchmark,
        verify_ground_truth,
    )

    seed = DEFAULT_SEED if args.seed is None else args.seed
    out = Path(args.out)
    scenarios = generate_benchmark(seed=seed)
    edge_counts = [verify_ground_truth(g)["edge_kind_counts"] for g in scenarios]
    # One encoding of each trace's steps serves its annotated and blind files.
    encoded = [(g.scenario, steps_json(g.trace)) for g in scenarios]
    _write_split(out / "scenarios", _annotated_files(encoded))
    _write_blind(out, encoded, args.salt)

    # Held-out split under a distinct seed; never part of the benchmark.
    validation_seed = VALIDATION_SEED if seed == DEFAULT_SEED else seed + VALIDATION_SEED
    validation = generate_benchmark(
        seed=validation_seed,
        counts={domain: VALIDATION_PER_DOMAIN for domain in DOMAINS},
    )
    _write_split(
        out / "validation", _annotated_files((g.scenario, steps_json(g.trace)) for g in validation)
    )

    manifest = benchmark_manifest(scenarios, edge_counts, seed)
    manifest["verified"] = len(scenarios)
    manifest["validation_count"] = len(validation)
    _write_json(out / "manifest.json", manifest)
    print(f"generated {len(scenarios)} scenarios + {len(validation)} validation -> {out}")
    return 0


def _naming(path: Path, build, *args):
    """``build(*args)``; a toolkit error it raises names ``path``."""
    try:
        return build(*args)
    except TracefaultError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _parse_file(path: Path, parse):
    """``parse`` the file's bytes; a parse error names the file."""
    return _naming(path, parse, path.read_bytes())


def _scenario_files(directory: Path) -> list[Path]:
    files = sorted(directory.glob("*.json"))
    if not files:
        raise TracefaultError(f"no scenario files in {directory}")
    return files


def _scenarios(directory: Path):
    """The directory's scenario files, parsed lazily in sorted order (the
    listing is eager, so an empty directory fails at the call)."""
    return (_parse_file(path, parse_scenario) for path in _scenario_files(directory))


def cmd_analyze(args) -> int:
    from .ranking import rank, render_markdown

    trace = _parse_file(Path(args.trace), parse_trace)
    graph = build_graph(trace)
    diagnosis = rank(
        trace,
        weights=_load_weights(args.weights),
        config=_load_config(args.feature_config),
        max_depth=args.max_depth,
        error_node=args.error_node,
        graph=graph,
    )
    report = diagnosis.to_obj()
    markdown = render_markdown(report) if args.markdown else ""
    if args.dump_graph:
        report["graph"] = graph.to_obj()
    if not args.explain:
        for candidate in report["candidates"]:
            candidate.pop("groups", None)
            candidate.pop("contributions", None)
    if args.out:
        _write_json(Path(args.out), report)
    else:
        sys.stdout.write(canonical_json_bytes(report).decode("utf-8"))
    sys.stdout.write(markdown)
    return 0


def cmd_evaluate(args) -> int:
    from .baselines import FixtureAdapter
    from .evaluation import evaluate, render_report, run_checks, scenario_from_blind

    # Lazy scenarios: ``evaluate`` parses each file only when it reaches it
    # and drops the trace once the file's record is made.
    bench = Path(args.benchmark)
    if args.blind:
        answers_path = bench / "answers.json"
        if not answers_path.exists():
            raise TracefaultError(f"blind evaluation needs {answers_path}")
        blind_dir = bench / "blind"
        blind_files = sorted(blind_dir.glob("*.json"))
        if not blind_files:
            raise TracefaultError(f"no blind traces in {blind_dir}")
        answers = _parse_file(answers_path, load_json_object)
        scenarios = (
            _naming(answers_path, scenario_from_blind, _parse_file(p, parse_trace_blind), answers)
            for p in blind_files
        )
    else:
        scenarios = _scenarios(bench / "scenarios")

    adapter = None
    if "llm" in args.methods:  # ``main`` made sure a fixture is given
        adapter = _parse_file(
            Path(args.llm_fixture), lambda data: FixtureAdapter(load_json_object(data))
        )
    try:
        result = evaluate(
            scenarios,
            methods=args.methods,
            weights=_load_weights(args.weights),
            config=_load_config(args.feature_config),
            max_depth=args.max_depth,
            llm_adapter=adapter,
            with_ablations=args.ablations,
            with_sweep=args.sweep,
        )
    except AdapterFailure as exc:  # only the fixture lookup raises it
        raise AdapterFailure(f"{args.llm_fixture}: {exc}") from None
    out_dir = Path(args.out_dir)
    significance = result.get("significance", {})
    _write_json(out_dir / "metrics.json", result)
    _write_json(out_dir / "significance.json", significance)
    _write_atomic(out_dir / "report.md", render_report(result).encode("utf-8"))
    main_block = result["methods"].get("tracefault")
    if main_block:
        print(
            f"hit@1={main_block['hit_at_1']:.4f} hit@3={main_block['hit_at_3']:.4f} "
            f"mrr={main_block['mrr']:.4f} -> {out_dir}"
        )
    if args.check:
        failures = run_checks(result)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("all checks passed")
    return 0


def cmd_learn_weights(args) -> int:
    from .ranking import feature_table
    from .weights import grid_search, weights_report

    # One table per file, anchored at the final step as ``evaluate`` anchors
    # it; no trace is kept past its table.
    config = _load_config(args.feature_config)
    tables, roots = [], []
    for scenario in _scenarios(Path(args.validation)):
        tables.append(feature_table(scenario.trace, config, args.max_depth))
        roots.append(scenario.ground_truth.root_cause_node_id)
    best, table = grid_search(tables, roots)
    report = weights_report(best, table)
    _write_json(Path(args.out), report)
    print(f"best weights {best.as_dict()} -> {args.out}")
    return 0


def cmd_blind(args) -> int:
    bench = Path(args.benchmark)
    out = bench if args.out_dir is None else Path(args.out_dir)
    encoded = [(s, steps_json(s.trace)) for s in _scenarios(bench / "scenarios")]
    _write_blind(out, encoded, args.salt)
    print(f"blinded {len(encoded)} scenarios -> {out}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _methods(text: str) -> tuple[str, ...]:
    from .evaluation import METHODS

    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    if not methods:
        raise argparse.ArgumentTypeError("no method given")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown method {', '.join(unknown)}; choose from {', '.join(METHODS)}"
        )
    if len(set(methods)) < len(methods):
        # A repeated method would add its rankings to the tables twice.
        raise argparse.ArgumentTypeError(f"method given twice: {text!r}")
    return methods


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracefault",
        description="Root-cause localization for multi-agent workflow traces.",
    )
    parser.add_argument("--version", action="version", version=f"tracefault {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate the synthetic benchmark")
    p_gen.add_argument("--seed", type=int, default=None, help="generation seed (default 42)")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--salt", default="tracefault", help="salt for blind ids")
    p_gen.set_defaults(func=cmd_generate)

    p_an = sub.add_parser("analyze", help="rank root-cause candidates for one trace")
    p_an.add_argument("trace", help="scenario or blind trace JSON file")
    p_an.add_argument("--weights", default=None, help="weights.json from learn-weights")
    p_an.add_argument("--feature-config", default=None, help="feature config JSON")
    p_an.add_argument("--max-depth", type=_positive_int, default=DEFAULT_MAX_DEPTH)
    p_an.add_argument("--error-node", type=int, default=None)
    p_an.add_argument("--explain", action="store_true", help="include per-group scores")
    p_an.add_argument("--dump-graph", action="store_true", help="include typed edges")
    p_an.add_argument("--markdown", action="store_true", help="also print a table")
    p_an.add_argument("--out", default=None, help="write analysis.json here")
    p_an.set_defaults(func=cmd_analyze)

    p_ev = sub.add_parser("evaluate", help="run methods over a benchmark directory")
    p_ev.add_argument("benchmark", help="directory produced by generate")
    p_ev.add_argument("--methods", type=_methods, default="tracefault,random,first,last")
    p_ev.add_argument("--blind", action="store_true", help="evaluate the blind split")
    p_ev.add_argument("--weights", default=None)
    p_ev.add_argument("--feature-config", default=None)
    p_ev.add_argument("--max-depth", type=_positive_int, default=DEFAULT_MAX_DEPTH)
    p_ev.add_argument(
        "--llm-fixture",
        default=None,
        help="replay fixture JSON: completions keyed by each trace's content key",
    )
    p_ev.add_argument("--ablations", action="store_true")
    p_ev.add_argument("--sweep", action="store_true")
    p_ev.add_argument("--check", action="store_true", help="exit 1 on threshold failure")
    p_ev.add_argument("--out-dir", default="eval-out")
    p_ev.set_defaults(func=cmd_evaluate)

    p_lw = sub.add_parser("learn-weights", help="grid-search weights on a validation set")
    p_lw.add_argument("validation", help="directory of validation scenario files")
    p_lw.add_argument("--feature-config", default=None)
    p_lw.add_argument("--max-depth", type=_positive_int, default=DEFAULT_MAX_DEPTH)
    p_lw.add_argument("--out", default="weights.json")
    p_lw.set_defaults(func=cmd_learn_weights)

    p_bl = sub.add_parser("blind", help="anonymize a benchmark and split answers")
    p_bl.add_argument("benchmark", help="directory containing scenarios/")
    p_bl.add_argument("--salt", default="tracefault")
    p_bl.add_argument("--out-dir", default=None, help="default: the benchmark directory")
    p_bl.set_defaults(func=cmd_blind)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and "llm" in args.methods and not args.llm_fixture:
        parser.error("--methods llm needs --llm-fixture")
    try:
        return args.func(args)
    except TracefaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
