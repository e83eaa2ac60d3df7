"""Golden rankings: every seed-42 ranking and graph is reproduced exactly.

The golden file holds, for each trace below, the ordered candidate ids with
their scores rounded to 12 digits, plus two SHA-256 digests over every trace
in order: one over the canonical JSON of its causal graph, and one over its
whole report, the canonical JSON of ``to_obj()`` followed by the
``render_markdown`` text:

* the 550 seed-42 benchmark scenarios;
* the validation split (``cli.VALIDATION_SEED``, 5 per domain);
* a 400-step ``conftest.bench_trace`` (declared artifacts) and a 200-step
  one with ``produces``/``consumes`` removed, so its data edges come from the
  identifier scan.

It also holds ``evaluation_sha256``, a digest of one seed-42 ``evaluate`` over
every method with ablations and the sweep: the canonical JSON of its result
without ``component_timings_ms``, followed by its ``render_report`` text. The
``llm`` method replays the simulated fixture of ``conftest``, with the
completions of the first six scenario ids spoiled so that its fallback path
is pinned too.

After an intended change of results, rewrite the file with
``PYTHONPATH=src python tests/test_goldens.py`` and say why in the change.
"""

import gzip
import hashlib
import json
from dataclasses import replace
from pathlib import Path

from conftest import bench_trace, simulated_llm_fixture
from tracefault.baselines import FixtureAdapter
from tracefault.benchgen import generate_benchmark
from tracefault.cli import VALIDATION_PER_DOMAIN, VALIDATION_SEED
from tracefault.evaluation import METHODS, evaluate, render_report, unit_from_scenario
from tracefault.graph import build_graph
from tracefault.model import DOMAINS, canonical_json_bytes, content_key
from tracefault.ranking import rank, render_markdown

GOLDEN = Path(__file__).parent / "goldens" / "seed42_rankings.json.gz"


def golden_traces():
    """(name, trace) pairs in golden order; names are unique across splits."""
    validation = generate_benchmark(
        seed=VALIDATION_SEED, counts={domain: VALIDATION_PER_DOMAIN for domain in DOMAINS}
    )
    scan = bench_trace(200)
    scan = replace(
        scan,
        scenario_id="bench_200_textscan",
        steps=tuple(replace(s, produces=None, consumes=None) for s in scan.steps),
    )
    return (
        [(f"seed42/{g.trace.scenario_id}", g.trace) for g in generate_benchmark(seed=42)]
        + [(f"validation/{g.trace.scenario_id}", g.trace) for g in validation]
        + [(f"bench/{t.scenario_id}", t) for t in (bench_trace(400), scan)]
    )


def seed42_rankings() -> dict:
    rankings = {}
    graph_hash = hashlib.sha256()
    report_hash = hashlib.sha256()
    for name, trace in golden_traces():
        graph = build_graph(trace)
        graph_hash.update(canonical_json_bytes(graph.to_obj()))
        diagnosis = rank(trace, graph=graph)
        report = diagnosis.to_obj()
        report_hash.update(canonical_json_bytes(report))
        report_hash.update(render_markdown(report).encode())
        rankings[name] = [[v, round(s, 12)] for s, v in diagnosis.ranked]
    return {
        "rankings": rankings,
        "graph_sha256": graph_hash.hexdigest(),
        "report_sha256": report_hash.hexdigest(),
    }


def seed42_evaluation_sha256(benchmark) -> str:
    completions = simulated_llm_fixture(benchmark)
    spoiled = sorted((g.trace for g in benchmark), key=lambda trace: trace.scenario_id)
    for trace in spoiled[:5]:
        completions[content_key(trace)] = "no idea"
    completions[content_key(spoiled[5])] = "99"  # no trace has 99 steps
    result = evaluate(
        (unit_from_scenario(g.scenario) for g in benchmark),
        methods=METHODS,
        llm_adapter=FixtureAdapter(completions),
        with_ablations=True,
        with_sweep=True,
    )
    del result["component_timings_ms"]
    digest = hashlib.sha256(canonical_json_bytes(result))
    digest.update(render_report(result).encode())
    return digest.hexdigest()


def load_golden() -> dict:
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def test_seed42_rankings_match_golden():
    golden = load_golden()
    actual = seed42_rankings()
    assert actual["rankings"].keys() == golden["rankings"].keys()
    changed = [k for k, v in golden["rankings"].items() if actual["rankings"][k] != v]
    assert changed == []
    assert actual["graph_sha256"] == golden["graph_sha256"]
    assert actual["report_sha256"] == golden["report_sha256"]


def test_seed42_evaluation_matches_golden(seed42_benchmark):
    assert seed42_evaluation_sha256(seed42_benchmark) == load_golden()["evaluation_sha256"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    golden = seed42_rankings()
    golden["evaluation_sha256"] = seed42_evaluation_sha256(generate_benchmark(seed=42))
    GOLDEN.write_bytes(gzip.compress(canonical_json_bytes(golden), mtime=0))
    print(f"wrote {GOLDEN}")
