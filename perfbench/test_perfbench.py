"""Self-checks of the benchmark.

    python3 -m pytest perfbench -q

The traced and end-to-end runs take about two minutes in all; the rest is
fast. These tests sit outside the package's own suite, which collects only
``tests/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracegen
import tracer
import workloads

COMMON_LAYERS = (
    "model.parse.calls",
    "graph.build.calls",
    "graph.edges",
    "graph.candidates",
    "graph.betweenness.calls",
    "graph.descendants.calls",
    "features.compute.calls",
    "ranking.rank.calls",
)
WORKLOAD_LAYERS = {
    "eval-550": ("stats.bootstrap.calls", "baselines.total_s", "evaluation.evaluate.self_s"),
    "reweight-550": (
        "stats.bootstrap.calls",
        "evaluation.reweight.total_s",
        "weights.grid_search.total_s",
        "weights.grid_search.points",
    ),
    "long-trace": ("ranking.loglog_slope",),
    "textscan-trace": ("ranking.loglog_slope",),
}


# ---------------------------------------------------------------- tracer


def _fake_package():
    """A package whose ``inner`` is also bound, by import, in ``fakepkg.outer``."""
    inner_mod = types.ModuleType("fakepkg.inner")
    exec("import time\ndef inner(delay):\n    time.sleep(delay)\n", inner_mod.__dict__)
    outer_mod = types.ModuleType("fakepkg.outer")
    outer_mod.inner = inner_mod.inner
    exec(
        "import time\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def outer(delay):\n"
        "    time.sleep(delay)\n"
        "    inner(delay)\n"
        "    with ThreadPoolExecutor(max_workers=1) as pool:\n"
        "        pool.submit(inner, delay).result()\n",
        outer_mod.__dict__,
    )
    package = types.ModuleType("fakepkg")
    return {"fakepkg": package, "fakepkg.inner": inner_mod, "fakepkg.outer": outer_mod}


@pytest.fixture()
def fakepkg(monkeypatch):
    modules = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    return modules


def test_tracer_wraps_every_binding_and_restores(fakepkg):
    targets = (
        ("outer", "fakepkg.outer:outer", None),
        ("inner", "fakepkg.inner:inner", None),
        ("gone", "fakepkg.inner:renamed_away", None),
    )
    original = fakepkg["fakepkg.inner"].inner
    tr = tracer.Tracer(targets, package="fakepkg")
    tr.install()
    try:
        fakepkg["fakepkg.outer"].outer(0.01)
        fakepkg["fakepkg.inner"].inner(0.0)
    finally:
        tr.uninstall()
    assert fakepkg["fakepkg.inner"].inner is original
    assert fakepkg["fakepkg.outer"].inner is original
    assert tr.missing_targets == ["fakepkg.inner:renamed_away"]
    assert tr.absent_layers() == ["gone"]
    (outer,) = [s for s in tr.spans if s.name == "outer"]
    *inners, top = [s for s in tr.spans if s.name == "inner"]
    # Both bindings are wrapped; the call on the pool thread is parented to
    # the span the main thread has open.
    assert len(inners) == 2 and top.parent is None
    assert all(s.parent == outer.id for s in inners)
    assert len({s.thread for s in inners}) == 2
    own = tracer.self_times(tr.spans)
    assert own[outer.id] == pytest.approx(outer.duration - sum(s.duration for s in inners))
    assert 0.005 < own[outer.id] < outer.duration


def test_covered_merges_overlapping_children():
    assert tracer.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.0, 6.0) == 4.0


def test_layer_metrics_of_no_spans_are_zero():
    metrics = tracer.layer_metrics([], 0.0, 1.5)
    assert metrics["trace.unattributed_s"] == 1.5
    assert all(v == 0 for k, v in metrics.items() if k != "trace.unattributed_s")


# ---------------------------------------------------------------- checks and inputs


@pytest.fixture()
def scratch():
    path = run.WORK / "test-scratch"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _analysis(path, rows):
    cands = [{"step_id": s, "rank": i + 1, "score": sc} for i, (s, sc) in enumerate(rows)]
    path.write_text(json.dumps({"candidate_count": len(cands), "candidates": cands}))
    return workloads.Command("a", (), path, "analysis")


def test_structural_checks(scratch):
    assert workloads.check(_analysis(scratch / "ok.json", [(2, 0.9), (1, 0.5), (3, 0.5)]), 0, None) == []
    assert workloads.check(_analysis(scratch / "up.json", [(2, 0.4), (1, 0.5)]), 0, None)
    assert workloads.check(_analysis(scratch / "tie.json", [(3, 0.5), (1, 0.5)]), 0, None)
    assert workloads.check(_analysis(scratch / "none.json", []), 0, None)


def test_tracegen_is_seeded_and_textscan_drops_artifacts():
    assert tracegen.trace_bytes(200, 3, True) == tracegen.trace_bytes(200, 3, True)
    assert tracegen.trace_bytes(200, 3, True) != tracegen.trace_bytes(200, 4, True)
    steps = tracegen.make_trace(100, 3, False)["steps"]
    assert len(steps) == 100
    assert not any("produces" in s or "consumes" in s for s in steps)


# ---------------------------------------------------------------- traced runs


@pytest.fixture(scope="module")
def traced():
    results = {}

    def get(name):
        if name not in results:
            scratch = run.WORK / f"test-traced-{name}"
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            try:
                tally, metrics, extra = run.traced_run(
                    workloads.WORKLOADS[name], workloads.GOLDEN_SEED, 0, scratch
                )
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            results[name] = (tally, {k: v for k, (v, _) in metrics.items()}, extra)
        return results[name]

    return get


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_sees_every_layer(traced, name):
    tally, metrics, extra = traced(name)
    assert tally.failed == 0, tally.problems
    assert extra["absent_layers"] == []
    for layer in COMMON_LAYERS + WORKLOAD_LAYERS[name]:
        assert metrics[layer] > 0, layer


def test_reweight_computes_features_19_times_per_trace(traced):
    _, metrics, _ = traced("reweight-550")
    assert metrics["features.calls_per_trace"] == 19


def test_betweenness_dominates_long_trace(traced):
    _, metrics, _ = traced("long-trace")
    others = [v for k, v in metrics.items() if k.endswith(("total_s", "self_s"))
              and k != "graph.betweenness.total_s"]
    assert metrics["graph.betweenness.total_s"] > max(others)


# ---------------------------------------------------------------- end to end


def _run_benchmark(cwd, name, seed):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_goldens_match_end_to_end(name):
    done = _run_benchmark(run.ROOT, name, workloads.GOLDEN_SEED)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert set(result["metrics"]) == {"setup_s", "wall_s", "largest_trace_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources():
    bare = run.WORK / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = _run_benchmark(bare, "long-trace", 1)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
