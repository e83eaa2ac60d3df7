"""Evaluation harness: metrics, significance, stratification, timing.

Annotated and blind benchmarks evaluate through the same code path: both
reduce to (trace, answer) pairs, the analyzer is always anchored at the
trace's final step, and the answer is consulted only for scoring. Hit@k,
MRR and the strata of every method that does not read the scenario id
therefore match between the blind split of a benchmark and its annotated
form. Two outputs still differ: the random baseline seeds by scenario id,
which blinding renames, and the bootstrap intervals depend on the order of
the units, which follows file names and so differs between the splits.

Each trace is reduced once to a ``FeatureTable``; the main method, the
ablations and the sweep all score that table, so features are computed once
per trace. Aggregation is a deterministic reduce in input order.

Outputs are plain dicts shaped for ``metrics.json`` and ``significance.json``,
plus the markdown rendering written to ``report.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baselines import (
    classify_llm_error,
    first_node_baseline,
    last_node_baseline,
    llm_baseline,
    random_baseline,
)
from .errors import (
    DegenerateTable,
    EmptyBenchmark,
    MissingAnswers,
    SchemaViolation,
    TracefaultError,
)
from .features import FeatureConfig
from .model import ExecutionTrace, Scenario, parse_ground_truth
from .ranking import DEFAULT_MAX_DEPTH, GROUP_ORDER, WeightVector, rank
from .stats import (
    BOOTSTRAP_DEFAULT_B,
    BOOTSTRAP_DEFAULT_SEED,
    bootstrap_ci,
    cohens_h,
    format_p_value,
    hit_at_k,
    mcnemar,
    mrr,
    percentile,
)
from .weights import hit_at_1_by_weights, sweep_rows

MAIN_METHOD = "tracefault"
HEURISTIC_METHODS = ("random", "first", "last")
METHODS = (MAIN_METHOD, *HEURISTIC_METHODS, "llm")

DEFAULT_EVAL_SEED = 17

LENGTH_BUCKETS = ((8, 9), (10, 11), (12, 13), (14, 15))

ABLATION_COMBOS: tuple[tuple[str, ...], ...] = (
    ("position",),
    ("structure",),
    ("content",),
    ("flow",),
    ("confidence",),
    ("position", "structure"),
    ("position", "content"),
    ("position", "flow"),
    ("position", "confidence"),
    ("structure", "content"),
    ("structure", "flow"),
    ("position", "structure", "content"),
    ("position", "structure", "content", "flow"),
)

CHECK_THRESHOLDS = {
    "hit_at_1": 0.88,
    "hit_at_3": 0.95,
    "mrr": 0.93,
    "mcnemar_p_max": 1e-6,
}


@dataclass(frozen=True)
class EvalUnit:
    """One trace plus the answer used for scoring (never for analysis)."""

    trace: ExecutionTrace
    root_cause: int
    error_node: int
    bug_type: str
    bucket: str


def _bucket_of(root: int) -> str:
    if root <= 3:
        return "early"
    if root <= 6:
        return "middle"
    return "late"


def units_from_scenarios(scenarios) -> list[EvalUnit]:
    units = []
    for scenario in scenarios:
        gt = scenario.ground_truth
        units.append(
            EvalUnit(
                trace=scenario.trace,
                root_cause=gt.root_cause_node_id,
                error_node=gt.error_node_id,
                bug_type=gt.bug_type,
                bucket=_bucket_of(gt.root_cause_node_id),
            )
        )
    return units


def units_from_blind(blind_traces, answers: dict) -> list[EvalUnit]:
    """Join blind traces to the answer key by anonymized id.

    Each entry passes the checks of an annotated scenario's ground truth
    against its trace; keys beyond the ground truth's, such as
    ``original_id``, are ignored.
    """
    scenarios = []
    for trace in blind_traces:
        answer = answers.get(trace.scenario_id)
        if answer is None:
            raise MissingAnswers(
                f"no answer key entry for blind id {trace.scenario_id!r}"
            )
        try:
            if not isinstance(answer, dict):
                raise SchemaViolation(f"expected object, got {type(answer).__name__}")
            scenarios.append(Scenario(trace, parse_ground_truth(answer)))
        except TracefaultError as exc:
            raise type(exc)(f"answer key entry {trace.scenario_id!r}: {exc}") from None
    return units_from_scenarios(scenarios)


def _accuracy(ranks) -> dict:
    return {
        "n": len(ranks),
        "hit_at_1": hit_at_k(ranks, 1),
        "hit_at_3": hit_at_k(ranks, 3),
        "hit_at_5": hit_at_k(ranks, 5),
        "mrr": mrr(ranks),
    }


def _strata_block(units, ranks, key_fn) -> dict:
    strata: dict[str, list] = {}
    for unit, r in zip(units, ranks):
        strata.setdefault(key_fn(unit), []).append(r)
    return {label: _accuracy(strata[label]) for label in sorted(strata)}


def _length_bucket(unit: EvalUnit) -> str:
    n = len(unit.trace)
    for lo, hi in LENGTH_BUCKETS:
        if lo <= n <= hi:
            return f"{lo}-{hi}"
    return f"{n}"


def evaluate(
    units: list[EvalUnit],
    methods=("tracefault", "random", "first", "last"),
    weights: WeightVector | None = None,
    config: FeatureConfig | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    eval_seed: int = DEFAULT_EVAL_SEED,
    bootstrap_b: int = BOOTSTRAP_DEFAULT_B,
    bootstrap_seed: int = BOOTSTRAP_DEFAULT_SEED,
    llm_adapter=None,
    with_ablations: bool = False,
    with_sweep: bool = False,
) -> dict:
    """Run every requested method over the benchmark and aggregate."""
    if not units:
        raise EmptyBenchmark("evaluate over zero scenarios")
    weights = weights or WeightVector()
    config = config or FeatureConfig()

    orderings = {
        "random": lambda trace: random_baseline(trace, eval_seed),
        "first": first_node_baseline,
        "last": last_node_baseline,
    }
    ranks_by_method: dict[str, list[int | None]] = {}
    tables = []
    timings: list[dict[str, float]] = []
    llm_errors: dict[str, int] = {}
    llm_fallbacks = 0

    # Every method is anchored at the final step; answers are consulted only
    # for scoring, which keeps blind and annotated runs identical.
    for method in methods:
        ranks: list[int | None] = []
        if method == MAIN_METHOD:
            for unit in units:
                diagnosis = rank(unit.trace, weights, config, max_depth)
                ranks.append(diagnosis.rank_of(unit.root_cause))
                timings.append(diagnosis.timings_ms)
                tables.append(diagnosis.table)
        elif method in orderings:
            ranks = [orderings[method](u.trace).index(u.root_cause) + 1 for u in units]
        elif method == "llm":
            if llm_adapter is None:
                raise MissingAnswers("llm method requested without an adapter")
            for u in units:
                ordering, fell_back = llm_baseline(u.trace, llm_adapter)
                ranks.append(ordering.index(u.root_cause) + 1)
                llm_fallbacks += fell_back
                if ordering[0] != u.root_cause:
                    label = classify_llm_error(ordering[0], u.root_cause, u.error_node)
                    llm_errors[label] = llm_errors.get(label, 0) + 1
        else:
            raise ValueError(f"unknown method {method!r}")
        ranks_by_method[method] = ranks

    # One call draws the resamples once and applies them to every method.
    intervals = bootstrap_ci(
        [[1 if r == 1 else 0 for r in ranks] for ranks in ranks_by_method.values()],
        b=bootstrap_b,
        seed=bootstrap_seed,
    )
    metrics = {
        method: {**_accuracy(ranks), "hit_at_1_ci95": list(interval)}
        for (method, ranks), interval in zip(ranks_by_method.items(), intervals)
    }

    significance = {}
    if MAIN_METHOD in ranks_by_method:
        main_correct = [r == 1 for r in ranks_by_method[MAIN_METHOD]]
        for method, ranks in ranks_by_method.items():
            if method == MAIN_METHOD:
                continue
            pairs = list(zip(main_correct, [r == 1 for r in ranks]))
            n11, n01, n10, n00 = (pairs.count(c) for c in ((1, 1), (1, 0), (0, 1), (0, 0)))
            try:
                chi2, p = mcnemar(n01, n10)
                p_display = format_p_value(p)
            except DegenerateTable:
                # Agreement on every scenario is a result, not an error; the
                # p-value of 1 still fails the --check significance gate.
                chi2, p, p_display = 0.0, 1.0, "no discordant pairs"
            significance[f"{MAIN_METHOD}_vs_{method}"] = {
                "n00": n00,
                "n01": n01,
                "n10": n10,
                "n11": n11,
                "chi2": chi2,
                "p_value": p,
                "p_display": p_display,
                "cohens_h": cohens_h(
                    metrics[MAIN_METHOD]["hit_at_1"], metrics[method]["hit_at_1"]
                ),
            }

    result: dict = {
        "scenario_count": len(units),
        "methods": metrics,
        "significance": significance,
        "weights": weights.as_dict(),
        "config_fingerprint": config.fingerprint(),
    }

    if MAIN_METHOD in ranks_by_method:
        main_ranks = ranks_by_method[MAIN_METHOD]
        result["strata"] = {
            "bug_type": _strata_block(units, main_ranks, lambda u: u.bug_type),
            "trace_length": _strata_block(units, main_ranks, _length_bucket),
            "bug_position": _strata_block(units, main_ranks, lambda u: u.bucket),
            "domain": _strata_block(units, main_ranks, lambda u: u.trace.domain),
        }
        result["component_timings_ms"] = {}
        for name in sorted(timings[0]):
            s = sorted(t[name] for t in timings)
            result["component_timings_ms"][name] = {
                "p50": percentile(s, 0.5),
                "p95": percentile(s, 0.95),
            }

    if "llm" in ranks_by_method:
        result["llm_error_analysis"] = dict(sorted(llm_errors.items()))
        result["llm_fallbacks"] = llm_fallbacks

    if with_ablations and MAIN_METHOD in ranks_by_method:
        result["ablations"] = ablation_table(units, tables)
        result["ablations"]["full"] = {
            "groups": list(GROUP_ORDER),
            "hit_at_1": metrics[MAIN_METHOD]["hit_at_1"],
        }
    if with_sweep and MAIN_METHOD in ranks_by_method:
        result["position_weight_sweep"] = [
            {"w_position": w, "hit_at_1": h}
            for w, h in sweep_over_units(units, tables)
        ]
    return result


def sweep_over_units(units, tables):
    """Hit@1 per position weight, scored from the units' feature tables."""
    return sweep_rows(tables, [u.root_cause for u in units])


GROUP_LETTERS = dict(zip(GROUP_ORDER, "PSCFE"))


def ablation_table(units, tables) -> dict:
    """Hit@1 for feature-group subsets (weights renormalized to sum one),
    scored from the units' feature tables."""
    points = [WeightVector.restricted(combo) for combo in ABLATION_COMBOS]
    hits = hit_at_1_by_weights(tables, [u.root_cause for u in units], points)
    return {
        "+".join(GROUP_LETTERS[g] for g in combo): {"groups": list(combo), "hit_at_1": hit}
        for combo, hit in zip(ABLATION_COMBOS, hits)
    }


def run_checks(result: dict) -> list[str]:
    """Return failed ``CHECK_THRESHOLDS`` checks (empty list means all passed)."""
    failures: list[str] = []
    main = result["methods"].get(MAIN_METHOD)
    if main is None:
        return ["main method missing from evaluation"]
    for key in ("hit_at_1", "hit_at_3", "mrr"):
        if main[key] < CHECK_THRESHOLDS[key]:
            failures.append(f"{key}: {main[key]:.4f} < {CHECK_THRESHOLDS[key]}")
    ordering = ["last", "random", "first"]
    chain = [MAIN_METHOD] + [m for m in ordering if m in result["methods"]]
    for better, worse in zip(chain, chain[1:]):
        if result["methods"][better]["hit_at_1"] <= result["methods"][worse]["hit_at_1"]:
            failures.append(
                f"ordering: {better} ({result['methods'][better]['hit_at_1']:.4f}) "
                f"not above {worse} ({result['methods'][worse]['hit_at_1']:.4f})"
            )
    if "llm" in result["methods"]:
        if result["methods"][MAIN_METHOD]["hit_at_1"] <= result["methods"]["llm"]["hit_at_1"]:
            failures.append("ordering: main method not above llm baseline")
    for pair, sig in result.get("significance", {}).items():
        if any(h in pair for h in HEURISTIC_METHODS):
            if sig["p_value"] >= CHECK_THRESHOLDS["mcnemar_p_max"]:
                failures.append(
                    f"mcnemar {pair}: p={sig['p_display']} not below "
                    f"{CHECK_THRESHOLDS['mcnemar_p_max']}"
                )
    return failures


def render_report(result: dict) -> str:
    """Markdown rendering of an evaluation result."""
    lines = ["# Evaluation report", ""]
    lines.append(f"Scenarios: {result['scenario_count']}")
    lines.append("")
    lines.append("## Accuracy")
    lines.append("")
    lines.append("| method | Hit@1 | Hit@3 | Hit@5 | MRR | 95% CI (Hit@1) |")
    lines.append("|---|---|---|---|---|---|")
    for method, block in result["methods"].items():
        lo, hi = block["hit_at_1_ci95"]
        lines.append(
            f"| {method} | {block['hit_at_1']:.1%} | {block['hit_at_3']:.1%} | "
            f"{block['hit_at_5']:.1%} | {block['mrr']:.3f} | [{lo:.1%}, {hi:.1%}] |"
        )
    if result.get("significance"):
        lines += ["", "## Significance (vs. main method)", ""]
        lines.append("| pair | n01 | n10 | chi2 | p | Cohen's h |")
        lines.append("|---|---|---|---|---|---|")
        for pair, sig in result["significance"].items():
            lines.append(
                f"| {pair} | {sig['n01']} | {sig['n10']} | {sig['chi2']:.1f} | "
                f"{sig['p_display']} | {sig['cohens_h']:.2f} |"
            )
        lines += [
            "",
            "Effect-size note: Cohen's h is evaluated directly as "
            "2*asin(sqrt(p1)) - 2*asin(sqrt(p2)); for reference proportions "
            "(0.949, 0.685) the direct value is 0.737, while the commonly "
            "reported rounded figure is 0.77. The formula value is the one "
            "emitted here; the gap is rounding sensitivity in the inputs.",
        ]
    for strata_name in ("bug_type", "trace_length", "bug_position", "domain"):
        strata = result.get("strata", {}).get(strata_name)
        if not strata:
            continue
        lines += ["", f"## By {strata_name.replace('_', ' ')}", ""]
        lines.append("| stratum | n | Hit@1 | Hit@3 | Hit@5 | MRR |")
        lines.append("|---|---|---|---|---|---|")
        for label, block in strata.items():
            lines.append(
                f"| {label} | {block['n']} | {block['hit_at_1']:.1%} | "
                f"{block['hit_at_3']:.1%} | {block['hit_at_5']:.1%} | "
                f"{block['mrr']:.3f} |"
            )
    if "ablations" in result:
        lines += ["", "## Feature-group ablations", ""]
        lines.append("| groups | Hit@1 |")
        lines.append("|---|---|")
        for label, block in result["ablations"].items():
            lines.append(f"| {label} | {block['hit_at_1']:.1%} |")
    if "position_weight_sweep" in result:
        lines += ["", "## Position-weight sensitivity", ""]
        lines.append("| w_position | Hit@1 |")
        lines.append("|---|---|")
        for row in result["position_weight_sweep"]:
            lines.append(f"| {row['w_position']:.1f} | {row['hit_at_1']:.1%} |")
    lines.append("")
    return "\n".join(lines)
