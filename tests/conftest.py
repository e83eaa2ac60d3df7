"""Shared fixtures: the seed-42 benchmark is generated once per session."""

import random
from pathlib import Path

import pytest

from tracefault.baselines import FixtureAdapter
from tracefault.benchgen import DOMAIN_TEMPLATES, _build_correct_steps, generate_benchmark
from tracefault.model import ExecutionTrace, content_key

FIXTURES = Path(__file__).parent / "fixtures"


# Not named ``benchmark``: pytest-benchmark owns that fixture name and fails
# any test whose fixtures include a ``benchmark`` of another type.
@pytest.fixture(scope="session")
def seed42_benchmark():
    return generate_benchmark(seed=42)


@pytest.fixture(scope="session")
def scenarios(seed42_benchmark):
    return [g.scenario for g in seed42_benchmark]


def replace(record, **changes):
    """A copy of ``record`` with ``changes``, rebuilt through its constructor
    and so through its checks, as ``dataclasses.replace`` rebuilds one."""
    names = [name for name in type(record).__slots__ if not name.startswith("_")]
    fields = {name: getattr(record, name) for name in names}
    return type(record)(**{**fields, **changes})


def bench_trace(n: int) -> ExecutionTrace:
    """Bug-free trace of ``n`` steps; a fixed stream, as the ranking golden hashes it."""
    template = DOMAIN_TEMPLATES["software_development"]
    steps = _build_correct_steps(template, n, 0, random.Random(f"bench|0|{n}"))
    return ExecutionTrace(
        scenario_id=f"bench_{n:03d}",
        domain=template.domain,
        agents=template.agents,
        steps=steps,
    )


def simulated_llm_fixture(benchmark, accuracy=0.66, seed=7) -> dict[str, str]:
    """Deterministic stand-in completions with a controlled accuracy profile:
    mostly right, otherwise biased toward naming the error node. Keyed by
    content key, as a fixture file is; each draw is seeded by scenario id."""
    fixture = {}
    for generated in benchmark:
        gt = generated.scenario.ground_truth
        trace = generated.trace
        rng = random.Random(f"llm|{seed}|{trace.scenario_id}")
        draw = rng.random()
        if draw < accuracy:
            answer = gt.root_cause_node_id
        elif draw < accuracy + 0.18:
            answer = gt.error_node_id
        elif draw < accuracy + 0.26:
            answer = min(gt.error_node_id, gt.root_cause_node_id + 1)
        else:
            answer = rng.randrange(1, len(trace) + 1)
        fixture[content_key(trace)] = str(answer)
    return fixture


@pytest.fixture(scope="session")
def llm_adapter(seed42_benchmark):
    return FixtureAdapter(simulated_llm_fixture(seed42_benchmark))


@pytest.fixture()
def example1_bytes():
    return (FIXTURES / "example1.json").read_bytes()


@pytest.fixture()
def example2_bytes():
    return (FIXTURES / "example2.json").read_bytes()
