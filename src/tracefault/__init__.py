"""Root-cause localization for multi-agent workflow traces.

Builds a typed causal DAG from an execution trace, walks backward from the
error manifestation, and ranks candidate root causes with interpretable
positional, structural, content, flow, and confidence features. Ships with
a deterministic failure-scenario generator, reference baselines, and a
statistical evaluation harness.
"""

__version__ = "0.1.0"
