"""Root-cause localization for multi-agent workflow traces.

Builds a typed causal DAG from an execution trace, walks backward from the
error manifestation, and ranks candidate root causes with interpretable
positional, structural, content, flow, and confidence features. Ships with
a deterministic failure-scenario generator, reference baselines, and a
statistical evaluation harness.
"""

from .baselines import (
    CommandAdapter,
    FixtureAdapter,
    Prediction,
    first_node_baseline,
    last_node_baseline,
    llm_baseline,
    random_baseline,
)
from .benchgen import (
    GeneratedScenario,
    benchmark_manifest,
    generate_benchmark,
    make_blind,
    verify_ground_truth,
)
from .features import FeatureConfig, compute_features
from .graph import CandidateSet, CausalGraph, backtrace, build_graph
from .model import (
    ExecutionTrace,
    GroundTruth,
    Scenario,
    Step,
    parse_scenario,
    parse_trace_blind,
    serialize_scenario,
    serialize_trace,
)
from .ranking import RankedDiagnosis, WeightVector, rank, score
from .stats import bootstrap_ci, cohens_h, hit_at_k, mcnemar, mrr
from .weights import GridSpec, grid_search

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "CausalGraph",
    "CommandAdapter",
    "ExecutionTrace",
    "FeatureConfig",
    "FixtureAdapter",
    "GeneratedScenario",
    "GridSpec",
    "GroundTruth",
    "Prediction",
    "RankedDiagnosis",
    "Scenario",
    "Step",
    "WeightVector",
    "backtrace",
    "benchmark_manifest",
    "bootstrap_ci",
    "build_graph",
    "cohens_h",
    "compute_features",
    "first_node_baseline",
    "generate_benchmark",
    "grid_search",
    "hit_at_k",
    "last_node_baseline",
    "llm_baseline",
    "make_blind",
    "mcnemar",
    "mrr",
    "parse_scenario",
    "parse_trace_blind",
    "random_baseline",
    "rank",
    "score",
    "serialize_scenario",
    "serialize_trace",
    "verify_ground_truth",
]
