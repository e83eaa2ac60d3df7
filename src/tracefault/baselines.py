"""Comparison methods, each a full ordering of the trace's steps.

Every method returns a permutation of the trace's step ids as a tuple,
rank 1 first, so Hit@k and reciprocal ranks are defined for all of them;
the rank of step ``v`` is ``ordering.index(v) + 1``. Like the analyzer,
every method that needs an error node takes the trace's final step:

* random       -- seeded uniform shuffle, deterministic per (scenario, seed).
* first_node   -- step 1 first, remainder in step order.
* last_node    -- the step immediately before the final one first, walking
  backward; the final (error) step ranks last.
* llm          -- prompt a completion adapter, such as the fixture replay
  below, for the root-cause step number; the named step is promoted to
  rank 1 and the rest follow in step order. A completion that names no
  step of the trace falls back to the last-node ordering, and the method
  says whether it fell back.

Fixture files are JSON maps from scenario id to completion string, which
makes CI runs replayable without credentials or network access.
"""

from __future__ import annotations

import random
import re

from .errors import AdapterFailure, SchemaViolation, UnparseableCompletion
from .model import ExecutionTrace

PROMPT_TEMPLATE = """You are an expert debugger analyzing a multi-agent system
execution trace. The system encountered an error.
Your task is to identify the ROOT CAUSE - the earliest
step where something went wrong that led to the final error.
## Execution Trace:
{trace_content}
## Error Description:
The system failed at step {error_step}: {error_description}
## Instructions:
1. Analyze the execution trace carefully
2. Identify causal relationships between steps
3. Find the EARLIEST step that caused the error
4. Consider: logic errors, miscommunication,
   data issues, missing validation
## Output Format:
Respond with ONLY the step number, e.g., "3"
Root cause step:
"""


def random_baseline(trace: ExecutionTrace, seed: int) -> tuple[int, ...]:
    """Uniform random permutation, deterministic per (scenario id, seed)."""
    rng = random.Random(f"random|{seed}|{trace.scenario_id}")
    ordering = [s.step_id for s in trace.steps]
    rng.shuffle(ordering)
    return tuple(ordering)


def first_node_baseline(trace: ExecutionTrace) -> tuple[int, ...]:
    return tuple(s.step_id for s in trace.steps)


def last_node_baseline(trace: ExecutionTrace) -> tuple[int, ...]:
    """The step immediately before the final (error) step first, then
    walking backward; the error step itself ranks last."""
    n = len(trace)
    return (*range(n - 1, 0, -1), n)


def render_trace(trace: ExecutionTrace) -> str:
    lines = []
    for step in trace.steps:
        lines.append(f"Step {step.step_id} [{step.agent}]: {step.input}")
        lines.append(f"  -> {step.output}")
    return "\n".join(lines)


def build_prompt(trace: ExecutionTrace, error_node: int) -> str:
    error_step = trace.step(error_node)
    return PROMPT_TEMPLATE.format(
        trace_content=render_trace(trace),
        error_step=error_node,
        error_description=error_step.output,
    )


_LEADING_INT_RE = re.compile(r"\s*(\d+)\b")


def parse_completion(completion: str) -> int:
    """Strict parse: the completion must lead with the step number."""
    match = _LEADING_INT_RE.match(completion)
    if not match:
        raise UnparseableCompletion(
            f"completion does not start with a step number: {completion[:80]!r}"
        )
    return int(match.group(1))


class FixtureAdapter:
    """Replay adapter: completions recorded per scenario id."""

    def __init__(self, completions: dict[str, str]):
        for scenario_id, completion in completions.items():
            if not isinstance(completion, str):
                raise SchemaViolation(
                    f"fixture completion for {scenario_id!r}: expected string, "
                    f"got {type(completion).__name__}"
                )
        self.completions = dict(completions)

    def complete(self, trace: ExecutionTrace, prompt: str) -> str:
        try:
            return self.completions[trace.scenario_id]
        except KeyError:
            raise AdapterFailure(
                f"fixture has no completion for scenario {trace.scenario_id!r}"
            ) from None


def llm_baseline(trace: ExecutionTrace, adapter) -> tuple[tuple[int, ...], bool]:
    """Ask the adapter for the root-cause step, with the final step as the
    error, and promote the named step to rank 1.

    Returns ``(ordering, fell_back)``. A completion that does not lead with a
    step number, or names one outside the trace, gives the last-node
    ordering and ``fell_back`` true.
    """
    n = len(trace)
    try:
        choice = parse_completion(adapter.complete(trace, build_prompt(trace, n)))
    except UnparseableCompletion:
        choice = 0  # no step: falls back below
    if not 1 <= choice <= n:
        return last_node_baseline(trace), True
    return (choice, *(v for v in range(1, n + 1) if v != choice)), False


def classify_llm_error(predicted: int, root: int, error_node: int) -> str:
    """Bucket a wrong rank-1 choice by its relation to the ground truth."""
    if predicted == root:
        raise ValueError("classify_llm_error expects a wrong prediction")
    if predicted == error_node:
        return "selected_error_node"
    if abs(predicted - root) == 1:
        return "off_by_one"
    if root < predicted < error_node:
        return "intermediate_step"
    return "completely_incorrect"
