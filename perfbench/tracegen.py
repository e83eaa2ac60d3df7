"""Seeded generator for long multi-agent traces in the documented JSON schema.

The traces look like the ones ``tracefault generate`` writes (agent blocks,
hand-offs, message steps, one artifact per step) but run to hundreds or
thousands of steps, the sizes at which graph and feature costs bend. Two
variants come from the same seed:

* ``declared`` -- every step lists ``produces``/``consumes``, so data edges
  come from artifact names and the backtrace stays local (about 40 candidates).
* ``textscan`` -- the two keys are left out, as in frameworks that do not
  declare artifacts. Data edges then come from the identifier scan of the
  step texts; every text names the task, so the graph is close to complete
  and every step is a candidate.

Only the standard library is used, so the inputs do not depend on the
package under test.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta

# (agent, action_type, verb, artifact stem); block order below is a
# plan/research/code/review loop that ends each round with an execution.
ROSTER = (
    ("Planner", "plan", "Drafted", "plan"),
    ("Researcher", "search", "Collected", "dataset"),
    ("Coder", "code", "Implemented", "module"),
    ("Reviewer", "review", "Checked", "review"),
    ("Executor", "execute", "Ran", "runlog"),
)
BLOCK_ORDER = (0, 1, 2, 3, 2, 4)
TASK = "inventory_rollout"
DETAILS = (
    "edge cases listed",
    "figures cross-checked",
    "assumptions recorded",
    "interfaces frozen",
    "open questions parked",
    "inputs normalised",
)
HEDGES = ("this might need another pass", "values seem roughly stable")
BASE_TIME = datetime(2025, 3, 1, 9, 0, 0)


def make_trace(n: int, seed: int, declared: bool) -> dict:
    """One ``n``-step trace as a JSON-ready dict; same (n, seed) -> same steps."""
    rng = random.Random(f"perfbench|{seed}|{n}")
    plan: list[int] = []
    block = 0
    while len(plan) < n - 1:
        roster_idx = BLOCK_ORDER[block % len(BLOCK_ORDER)]
        plan.extend([roster_idx] * rng.randint(2, 4))
        block += 1
    plan = plan[: n - 1] + [4]
    artifacts = [f"{ROSTER[r][3]}_{i + 1:04d}" for i, r in enumerate(plan)]

    steps = []
    for i, roster_idx in enumerate(plan):
        step_id = i + 1
        agent, action, verb, _ = ROSTER[roster_idx]
        if i + 1 < n and plan[i + 1] != roster_idx and rng.random() < 0.25:
            action = "message"
        if step_id == n:
            output = f"Final run failed: totals for {TASK} do not reconcile."
        else:
            output = f"{verb} {artifacts[i]} for {TASK}; {rng.choice(DETAILS)}."
        if rng.random() < 0.08:
            output += f" Note: {rng.choice(HEDGES)}."
        consumes: list[str] = []
        draw = rng.random()
        if i >= 1 and draw < 0.2:
            consumes.append(artifacts[i - 1])
        elif i >= 2 and draw < 0.3:
            consumes.append(artifacts[i - 2])
        text_in = (
            f"Open {TASK}." if i == 0 else f"Pick up the stage {i} hand-off and continue {TASK}."
        )
        step = {
            "step_id": step_id,
            "agent": agent,
            "action_type": action,
            "input": text_in,
            "output": output,
            "timestamp": (BASE_TIME + timedelta(seconds=40 * i)).isoformat() + "Z",
            "confidence": round(rng.uniform(0.55, 0.95), 2),
        }
        if declared:
            step["produces"] = [artifacts[i]]
            step["consumes"] = consumes
        steps.append(step)
    prefix = "long" if declared else "text"
    return {
        "scenario_id": f"{prefix}_{n:04d}_s{seed}",
        "domain": "devops_automation",
        "agents": [name for name, _, _, _ in ROSTER],
        "steps": steps,
    }


def trace_bytes(n: int, seed: int, declared: bool) -> bytes:
    """Canonical encoding: sorted keys, two-space indent, trailing newline."""
    return (json.dumps(make_trace(n, seed, declared), sort_keys=True, indent=2) + "\n").encode()
