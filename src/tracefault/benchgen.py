"""Deterministic synthetic benchmark generator.

Pipeline per scenario: (1) synthesize a correct multi-agent trace from a
domain template (agent blocks, step texts, artifact flow); (2) pick a bug
location bucket and step; (3) pick a bug category; (4) mutate that step's
output; (5) propagate the corruption downstream: cascade consumers pick up
the corrupted artifact (which is what makes the failure causally traceable)
and the final step manifests the error.

Sampling uses pre-shuffled quota decks for trace length, bug category, and
bug location, so the emitted distributions match their targets exactly up
to rounding instead of drifting with sampler noise. Everything is keyed off
string-derived per-scenario seeds: the same master seed always yields a
byte-identical benchmark, and scenarios are independent of each other.

Distribution targets: bug categories 30/20/20/16/14 percent, locations
early (steps 2-3) 60 / middle (4-6) 30 / late 10 percent, trace lengths in
[8, 15]. Late bugs sit on the penultimate step: their cascade is the error
itself, which keeps the "select the node immediately before the error"
heuristic honest as a baseline.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable
from datetime import datetime, timedelta

from .errors import TemplateExhausted, VerificationFailed
from .graph import EDGE_KINDS, build_graph, descendants
from .model import (
    DOMAINS,
    ExecutionTrace,
    GroundTruth,
    Scenario,
    Step,
)

GENERATOR_VERSION = "1.0"

DEFAULT_SEED = 42

DEFAULT_COUNTS: dict[str, int] = {
    "software_development": 52,
    "customer_service": 51,
    "research_analysis": 51,
    "planning_scheduling": 46,
    "financial_trading": 50,
    "healthcare_coordination": 60,
    "legal_document_analysis": 60,
    "educational_tutoring": 60,
    "financial_advisory": 60,
    "devops_automation": 60,
}

BUG_TYPE_SHARES: tuple[tuple[str, float], ...] = (
    ("logic_error", 0.30),
    ("communication_failure", 0.20),
    ("data_corruption", 0.20),
    ("missing_validation", 0.16),
    ("role_confusion", 0.14),
)

BUCKET_SHARES: tuple[tuple[str, float], ...] = (
    ("early", 0.60),
    ("middle", 0.30),
    ("late", 0.10),
)

# Length shares over 8..15; tuned so the mean lands near 11.6 steps.
LENGTH_SHARES: tuple[tuple[int, float], ...] = (
    (8, 0.11),
    (9, 0.12),
    (10, 0.12),
    (11, 0.13),
    (12, 0.13),
    (13, 0.13),
    (14, 0.13),
    (15, 0.13),
)

MUTATION_OF_BUG_TYPE = {
    "logic_error": "operator_flip",
    "communication_failure": "message_truncation",
    "data_corruption": "variable_swap",
    "missing_validation": "validation_skip",
    "role_confusion": "role_swap",
}

_CASCADE_NOTE = "Carried {artifact} forward; downstream totals remain unreconciled."


class DomainTemplate:
    __slots__ = (
        "domain",
        "code",
        "agents",
        "block_order",
        "action_types",
        "artifacts",
        "verbs",
        "task",
        "final_action",
    )

    def __init__(
        self,
        domain: str,
        code: str,
        agents: tuple[str, ...],
        # Block order as roster indices; repeats model review/feedback loops.
        block_order: tuple[int, ...],
        action_types: tuple[str, ...],
        artifacts: tuple[str, ...],
        verbs: tuple[str, ...],
        task: str,
        final_action: str,
    ) -> None:
        self.domain = domain
        self.code = code
        self.agents = agents
        self.block_order = block_order
        self.action_types = action_types
        self.artifacts = artifacts
        self.verbs = verbs
        self.task = task
        self.final_action = final_action


DOMAIN_TEMPLATES: dict[str, DomainTemplate] = {
    t.domain: t
    for t in (
        DomainTemplate(
            domain="software_development",
            code="sof",
            agents=("Planner", "Coder", "Reviewer", "Executor"),
            block_order=(0, 1, 2, 1, 3),
            action_types=("plan", "code", "review", "execute"),
            artifacts=(
                "requirements_brief",
                "module_draft",
                "patch_set",
                "test_matrix",
                "build_profile",
                "release_notes",
            ),
            verbs=("Outlined", "Implemented", "Reviewed", "Ran"),
            task="the billing service change",
            final_action="Integration run",
        ),
        DomainTemplate(
            domain="customer_service",
            code="cus",
            agents=("Router", "Specialist", "Resolver", "Logger"),
            block_order=(0, 1, 2, 1, 3),
            action_types=("plan", "analyze", "execute", "write"),
            artifacts=(
                "ticket_summary",
                "account_snapshot",
                "refund_plan",
                "response_draft",
                "case_record",
                "escalation_note",
            ),
            verbs=("Triaged", "Investigated", "Resolved", "Recorded"),
            task="the duplicated charge ticket",
            final_action="Case closure",
        ),
        DomainTemplate(
            domain="research_analysis",
            code="res",
            agents=("Searcher", "Analyzer", "Synthesizer", "Writer"),
            block_order=(0, 1, 2, 1, 3),
            action_types=("search", "analyze", "synthesize", "write"),
            artifacts=(
                "paper_pool",
                "finding_table",
                "evidence_map",
                "summary_brief",
                "trend_sheet",
                "citation_list",
            ),
            verbs=("Collected", "Extracted", "Merged", "Drafted"),
            task="the survey of distillation methods",
            final_action="Report assembly",
        ),
        DomainTemplate(
            domain="planning_scheduling",
            code="pln",
            agents=("Scheduler", "Optimizer", "Validator", "Notifier"),
            block_order=(0, 1, 2, 1, 3),
            action_types=("plan", "analyze", "validate", "message"),
            artifacts=(
                "slot_grid",
                "route_plan",
                "capacity_sheet",
                "conflict_list",
                "calendar_diff",
                "dispatch_order",
            ),
            verbs=("Blocked", "Optimized", "Checked", "Announced"),
            task="the quarterly maintenance window",
            final_action="Schedule publication",
        ),
        DomainTemplate(
            domain="financial_trading",
            code="trd",
            agents=("Analyst", "Strategist", "RiskManager", "Executor"),
            block_order=(0, 1, 0, 2, 3),
            action_types=("analyze", "plan", "validate", "execute"),
            artifacts=(
                "price_series",
                "signal_sheet",
                "position_plan",
                "exposure_report",
                "order_batch",
                "fill_summary",
            ),
            verbs=("Modeled", "Framed", "Stress-tested", "Placed"),
            task="the energy futures rebalance",
            final_action="Order execution",
        ),
        DomainTemplate(
            domain="healthcare_coordination",
            code="hlt",
            agents=("Triager", "Specialist", "Pharmacist", "Coordinator"),
            block_order=(0, 1, 2, 1, 3),
            action_types=("plan", "analyze", "validate", "message"),
            artifacts=(
                "intake_form",
                "assessment_note",
                "dosage_sheet",
                "care_plan",
                "referral_packet",
                "followup_list",
            ),
            verbs=("Screened", "Assessed", "Cross-checked", "Coordinated"),
            task="the post-discharge care handoff",
            final_action="Care plan dispatch",
        ),
        DomainTemplate(
            domain="legal_document_analysis",
            code="leg",
            agents=("Researcher", "Analyst", "Drafter", "Reviewer"),
            block_order=(0, 1, 2, 1, 3),
            action_types=("search", "analyze", "write", "review"),
            artifacts=(
                "precedent_set",
                "clause_matrix",
                "draft_memo",
                "risk_digest",
                "citation_table",
                "final_brief",
            ),
            verbs=("Gathered", "Mapped", "Drafted", "Vetted"),
            task="the licensing agreement review",
            final_action="Brief certification",
        ),
        DomainTemplate(
            domain="educational_tutoring",
            code="edu",
            agents=("Assessor", "Tutor", "ContentGenerator", "Evaluator"),
            block_order=(0, 1, 2, 1, 3),
            action_types=("analyze", "plan", "write", "validate"),
            artifacts=(
                "skill_profile",
                "lesson_plan",
                "exercise_set",
                "progress_sheet",
                "feedback_note",
                "mastery_map",
            ),
            verbs=("Profiled", "Sequenced", "Authored", "Scored"),
            task="the algebra remediation course",
            final_action="Assessment wrap-up",
        ),
        DomainTemplate(
            domain="financial_advisory",
            code="adv",
            agents=("DataCollector", "Analyst", "Advisor", "Reporter"),
            block_order=(0, 1, 2, 1, 3),
            action_types=("search", "analyze", "plan", "write"),
            artifacts=(
                "holdings_extract",
                "allocation_view",
                "advice_memo",
                "fee_schedule",
                "scenario_sheet",
                "client_packet",
            ),
            verbs=("Pulled", "Balanced", "Recommended", "Compiled"),
            task="the retirement portfolio review",
            final_action="Client packet delivery",
        ),
        DomainTemplate(
            domain="devops_automation",
            code="dev",
            agents=("Monitor", "Diagnoser", "Remediator", "Verifier"),
            block_order=(0, 1, 2, 1, 3),
            action_types=("analyze", "analyze", "execute", "validate"),
            artifacts=(
                "alert_digest",
                "trace_bundle",
                "rollback_plan",
                "config_patch",
                "health_probe",
                "incident_log",
            ),
            verbs=("Flagged", "Isolated", "Applied", "Probed"),
            task="the elevated latency incident",
            final_action="Recovery verification",
        ),
    )
}

_DETAILS = (
    "aligned with the stage checklist and scoped for the next hand-off",
    "cross-checked against the intake summary before moving on",
    "organized so downstream consumers can trace each field",
    "with thresholds recorded for the follow-up pass",
    "keeping the working set compact to simplify the next review",
    "annotated with assumptions for the receiving agent",
    "with open items parked for the wrap-up stage",
    "normalized to the shared schema used across this workflow",
)

_HEDGES = ("this reading is somewhat provisional", "the margin here is roughly estimated")

_BASE_TIME = datetime(2026, 1, 12, 9, 0, 0)


class BugSpec:
    __slots__ = ("bug_type", "location_bucket", "mutation_kind", "bug_step")

    def __init__(
        self, bug_type: str, location_bucket: str, mutation_kind: str, bug_step: int
    ) -> None:
        bucket_ok = {
            "early": bug_step in (2, 3),
            "middle": 4 <= bug_step <= 6,
            "late": bug_step >= 7,
        }[location_bucket]
        if not bucket_ok:
            raise TemplateExhausted(
                f"bug step {bug_step} inconsistent with bucket {location_bucket!r}"
            )
        self.bug_type = bug_type
        self.location_bucket = location_bucket
        self.mutation_kind = mutation_kind
        self.bug_step = bug_step


class GeneratedScenario:
    """A benchmark scenario plus the pre-injection twin and injection metadata."""

    __slots__ = ("scenario", "correct_steps", "bug")

    def __init__(self, scenario: Scenario, correct_steps: tuple[Step, ...], bug: BugSpec) -> None:
        self.scenario = scenario
        self.correct_steps = correct_steps
        self.bug = bug

    @property
    def trace(self) -> ExecutionTrace:
        return self.scenario.trace


def _quota_counts(total: int, shares) -> list[int]:
    """Largest-remainder apportionment of ``total`` across share weights."""
    exact = [total * share for _, share in shares]
    counts = [int(x) for x in exact]
    remainder = total - sum(counts)
    order = sorted(range(len(shares)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def _deck(total: int, shares, labels, rng: random.Random) -> list:
    deck: list = []
    for label, count in zip(labels, _quota_counts(total, shares)):
        deck.extend([label] * count)
    rng.shuffle(deck)
    return deck


def _block_plan(template: DomainTemplate, n: int, rng: random.Random) -> list[int]:
    """Assign each of ``n`` steps a roster index following the block order.

    The final block is the short closing action; earlier blocks average
    around three steps so most adjacent pairs stay within one agent. Traces
    longer than the block order repeat the body pattern (loops unrolled).
    """
    order = list(template.block_order)
    final_size = 1 if n < 12 else rng.choice((1, 2))
    body_total = n - final_size
    if body_total <= 0:
        return [order[-1]] * n
    base_cycle = order[:-1]
    block_count = max(1, round(body_total / 3))
    body = [base_cycle[i % len(base_cycle)] for i in range(block_count)]
    sizes = [body_total // block_count] * block_count
    for i in range(body_total - sum(sizes)):
        sizes[i % block_count] += 1
    for _ in range(block_count):
        src, dst = rng.randrange(block_count), rng.randrange(block_count)
        if src != dst and sizes[src] > 2 and sizes[dst] < 4:
            sizes[src] -= 1
            sizes[dst] += 1
    if min(sizes) < 1:
        raise TemplateExhausted(f"cannot lay out {n} steps as agent blocks")
    plan: list[int] = []
    for roster_idx, size in zip(body, sizes):
        plan.extend([roster_idx] * size)
    plan.extend([order[-1]] * final_size)
    return plan


def _timestamp(step_idx: int, scenario_idx: int) -> str:
    moment = _BASE_TIME + timedelta(minutes=7 * scenario_idx, seconds=40 * step_idx)
    return moment.isoformat() + "Z"


def _build_correct_steps(
    template: DomainTemplate,
    n: int,
    scenario_idx: int,
    rng: random.Random,
) -> tuple[Step, ...]:
    """Synthesize the bug-free trace."""
    plan = _block_plan(template, n, rng)
    artifacts = [
        f"{template.artifacts[i % len(template.artifacts)]}_{i + 1:02d}" for i in range(n)
    ]
    # Optional innocent data dependencies: an adjacent hand-over and a
    # two-step artifact reference (workflows often reach one stage back).
    local_pair = rng.randrange(1, n - 1) if rng.random() < 0.2 else None
    span_source = None
    if n >= 7 and rng.random() < 0.25:
        span_source = rng.randrange(2, n - 3)

    steps: list[Step] = []
    for i in range(n):
        step_id = i + 1
        roster_idx = plan[i]
        agent = template.agents[roster_idx]
        action = template.action_types[roster_idx]
        is_block_end = i + 1 < n and plan[i + 1] != roster_idx
        if is_block_end and action != "message" and rng.random() < 0.22:
            action = "message"
        verb = template.verbs[roster_idx]
        detail = _DETAILS[rng.randrange(len(_DETAILS))]
        if step_id == n:
            output = (
                f"{template.final_action} completed for {template.task}; "
                "outputs match expectations across stages."
            )
        else:
            output = f"{verb} {artifacts[i]} for {template.task}; {detail}."
        if rng.random() < 0.08:
            output += f" Note: {_HEDGES[rng.randrange(len(_HEDGES))]}."
        stage = "kickoff" if i == 0 else f"stage {i}"
        input_text = (
            f"Open {template.task}."
            if i == 0
            else f"Pick up the {stage} hand-off and continue {template.task}."
        )
        consumes: list[str] = []
        if local_pair is not None and step_id == local_pair + 1:
            consumes.append(artifacts[local_pair - 1])
            input_text = f"Use {artifacts[local_pair - 1]} to continue {template.task}."
        if span_source is not None and step_id == span_source + 2:
            consumes.append(artifacts[span_source - 1])
        confidence = round(rng.uniform(0.58, 0.95), 2)
        steps.append(
            Step(
                step_id=step_id,
                agent=agent,
                action_type=action,
                input=input_text,
                output=output,
                timestamp=_timestamp(i, scenario_idx),
                confidence=confidence,
                produces=(artifacts[i],),
                consumes=tuple(consumes),
            )
        )
    return tuple(steps)


def _mutate_output(
    kind: str,
    original: str,
    artifact: str,
    template: DomainTemplate,
    agent: str,
) -> tuple[str, str]:
    """Return (mutated output, bug description). Mutations are semantic:
    nothing in the text labels them as injected."""
    if kind == "operator_flip":
        text = f"Gate on {artifact}: proceed when coverage < threshold."
        desc = "comparison operator inverted in the gating condition"
    elif kind == "message_truncation":
        cut = max(18, int(len(original) * 0.4))
        text = original[:cut].rstrip(" ,;.") + " --"
        desc = "hand-off message truncated mid-sentence"
    elif kind == "variable_swap":
        stale = artifact.rsplit("_", 1)[0] + "_00"
        text = f"Mapped {stale} in place of {artifact}."
        desc = f"consumed stale artifact {stale} instead of {artifact}"
    elif kind == "validation_skip":
        text = f"Marked {artifact} as checked; checklist not run."
        desc = "verification checklist skipped before hand-off"
    elif kind == "role_swap":
        other = next(a for a in template.agents if a != agent)
        text = f"Took over {other} duties; settled {artifact} solo."
        desc = f"{agent} acted in the {other} role without authority"
    else:  # pragma: no cover - exhaustive mapping above
        raise ValueError(f"unknown mutation kind {kind!r}")
    return text, desc


def _inject(
    correct: tuple[Step, ...],
    template: DomainTemplate,
    bug: BugSpec,
    rng: random.Random,
) -> tuple[tuple[Step, ...], str]:
    """Apply the mutation and propagate the cascade downstream; returns the
    steps and the bug description.

    The corrupted artifact is added to the consume lists of the error node
    (always) and up to one intermediate step, so the built graph carries a
    causal path from the bug to the manifestation. Every downstream step
    reachable from the bug gets a propagation note.
    """
    n = len(correct)
    b = bug.bug_step
    bug_step = correct[b - 1]
    artifact = bug_step.produces[0]

    mutated_output, description = _mutate_output(
        bug.mutation_kind, bug_step.output, artifact, template, bug_step.agent
    )
    if rng.random() < 0.4:
        mutated_output += " The mapping here seems only partially pinned down."
    if rng.random() < 0.25:
        mutated_output += " Possibly needs another look later."
    bug_confidence = round(rng.uniform(0.38, 0.68), 2)

    extra_consumers: list[int] = [n]
    if b + 1 < n:
        extra_consumers.append(rng.randrange(b + 1, n))
        if rng.random() < 0.35:
            extra_consumers.append(rng.randrange(b + 1, n))
    note = _CASCADE_NOTE.format(artifact=artifact)
    steps = list(correct[: b - 1])
    for step in correct[b - 1 :]:
        m = step.step_id
        input_text, confidence, consumes = step.input, step.confidence, step.consumes
        if m == b:
            output, confidence = mutated_output, bug_confidence
        else:
            extra = {artifact} if m in extra_consumers else set()
            consumes = tuple(sorted(set(consumes or ()) | extra))
            if m == n:
                output = (
                    f"{template.final_action} failed: output mismatch traced back "
                    f"to {artifact}."
                )
                input_text = f"Finalize {template.task} using {artifact} as handed off."
            else:
                output = f"{step.output} {note}"
        steps.append(
            Step(
                step_id=m,
                agent=step.agent,
                action_type=step.action_type,
                input=input_text,
                output=output,
                timestamp=step.timestamp,
                confidence=confidence,
                produces=step.produces,
                consumes=consumes,
            )
        )
    return tuple(steps), description


def _scenario_id(template: DomainTemplate, index: int, rng: random.Random) -> str:
    suffix = "".join(rng.choice("0123456789abcdef") for _ in range(4))
    return f"{template.code}_{suffix}{index:03d}"


def _pick_bug_step(bucket: str, n: int, rng: random.Random) -> int:
    if bucket == "early":
        return rng.choice((2, 3))
    if bucket == "middle":
        return rng.choice((4, 5, 6))
    return n - 1  # late: adjacent to the manifestation step


def generate_benchmark(
    seed: int = DEFAULT_SEED,
    counts: dict[str, int] | None = None,
) -> list[GeneratedScenario]:
    """Generate the full benchmark; deterministic given ``seed``."""
    counts = dict(counts) if counts is not None else dict(DEFAULT_COUNTS)
    unknown = set(counts) - set(DOMAINS)
    if unknown:
        raise ValueError(f"unknown domains in counts: {sorted(unknown)}")
    total = sum(counts.values())
    if total == 0:
        return []

    deck_rng = random.Random(f"decks|{seed}")
    type_deck = _deck(total, BUG_TYPE_SHARES, [t for t, _ in BUG_TYPE_SHARES], deck_rng)
    bucket_deck = _deck(total, BUCKET_SHARES, [b for b, _ in BUCKET_SHARES], deck_rng)
    length_deck = _deck(
        total,
        [(str(n), share) for n, share in LENGTH_SHARES],
        [n for n, _ in LENGTH_SHARES],
        deck_rng,
    )

    scenarios: list[GeneratedScenario] = []
    index = 0
    for domain in DOMAINS:
        template = DOMAIN_TEMPLATES[domain]
        for _ in range(counts.get(domain, 0)):
            rng = random.Random(f"scenario|{seed}|{index}")
            n = length_deck[index]
            bucket = bucket_deck[index]
            bug_type = type_deck[index]
            bug_step = _pick_bug_step(bucket, n, rng)
            bug = BugSpec(
                bug_type=bug_type,
                location_bucket=bucket,
                mutation_kind=MUTATION_OF_BUG_TYPE[bug_type],
                bug_step=bug_step,
            )
            correct_steps = _build_correct_steps(template, n, index, rng)
            injected, description = _inject(correct_steps, template, bug, rng)
            trace = ExecutionTrace(
                scenario_id=_scenario_id(template, index, rng),
                domain=domain,
                agents=template.agents,
                steps=injected,
            )
            ground_truth = GroundTruth(
                error_node_id=n,
                root_cause_node_id=bug_step,
                bug_type=bug_type,
                bug_description=description,
            )
            scenarios.append(
                GeneratedScenario(
                    scenario=Scenario(trace=trace, ground_truth=ground_truth),
                    correct_steps=correct_steps,
                    bug=bug,
                )
            )
            index += 1
    return scenarios


_FAILURE_MARKERS = ("failed:", "traced back to", "remain unreconciled")


def verify_ground_truth(generated: GeneratedScenario) -> dict:
    """Three checks per scenario: the recorded root is the earliest
    divergence from the counterfactual twin, the twin is clean, and a causal
    path runs from the root cause to the error node.

    Cascade steps also differ from the twin (they carry a propagation note)
    and still reach the error, so only the earliest divergence pins the root.

    The report also carries the ``edge_kind_counts()`` of the graph the path
    check built, which ``benchmark_manifest`` takes so that a generated
    scenario's graph is built once.
    """
    scenario = generated.scenario
    b = scenario.ground_truth.root_cause_node_id
    err = scenario.ground_truth.error_node_id

    earliest = next(
        (
            step.step_id
            for step, twin in zip(scenario.trace.steps, generated.correct_steps)
            if step.output != twin.output
        ),
        None,
    )
    bug_present = earliest == b
    if not bug_present:
        raise VerificationFailed(
            f"{scenario.trace.scenario_id}: recorded root {b} is not the earliest "
            f"divergence from the counterfactual twin (step {earliest})"
        )

    counterfactual_clean = not any(
        marker in step.output
        for step in generated.correct_steps
        for marker in _FAILURE_MARKERS
    )
    if not counterfactual_clean:
        raise VerificationFailed(
            f"{scenario.trace.scenario_id}: pre-injection twin carries failure text"
        )

    graph = build_graph(scenario.trace)
    propagates = err == b or bool(descendants(graph, (b,))[b] >> err & 1)
    if not propagates:
        raise VerificationFailed(
            f"{scenario.trace.scenario_id}: no causal path from step {b} to "
            f"error node {err}"
        )
    return {
        "scenario_id": scenario.trace.scenario_id,
        "bug_present": bug_present,
        "counterfactual_clean": counterfactual_clean,
        "propagates": propagates,
        "edge_kind_counts": graph.edge_kind_counts(),
    }


def blind_id(scenario_id: str, salt: str) -> str:
    return hashlib.sha256(f"{salt}|{scenario_id}".encode("utf-8")).hexdigest()[:12]


def make_blind(scenarios: Iterable[Scenario], salt: str) -> tuple[list[str], dict]:
    """Anonymize ids and split ground truth into a separate answer key:
    returns each scenario's blind id, in order, and the key. A blind file is
    the scenario's trace under its blind id (``model.trace_file``)."""
    ids: list[str] = []
    answers: dict[str, dict] = {}
    for scenario in scenarios:
        anon = blind_id(scenario.trace.scenario_id, salt)
        ids.append(anon)
        gt = scenario.ground_truth
        answers[anon] = {
            "original_id": scenario.trace.scenario_id,
            "error_node_id": gt.error_node_id,
            "root_cause_node_id": gt.root_cause_node_id,
            "bug_type": gt.bug_type,
            "bug_description": gt.bug_description,
        }
    return ids, answers


def benchmark_manifest(
    scenarios: list[GeneratedScenario], edge_counts: Iterable[dict[str, int]], seed: int
) -> dict:
    """Counts and distribution statistics for a generated benchmark.

    ``edge_counts`` holds each scenario's ``edge_kind_counts()``, as
    ``verify_ground_truth`` reports them, so no graph is built here.
    """
    by_domain: dict[str, int] = {}
    by_type: dict[str, int] = {}
    by_bucket: dict[str, int] = {}
    lengths: list[int] = []
    kind_totals = dict.fromkeys(EDGE_KINDS, 0)
    for gen in scenarios:
        trace = gen.trace
        by_domain[trace.domain] = by_domain.get(trace.domain, 0) + 1
        by_type[gen.bug.bug_type] = by_type.get(gen.bug.bug_type, 0) + 1
        by_bucket[gen.bug.location_bucket] = by_bucket.get(gen.bug.location_bucket, 0) + 1
        lengths.append(len(trace))
    for counts in edge_counts:
        for kind, count in counts.items():
            kind_totals[kind] += count
    total_edges = sum(kind_totals.values())
    n = len(scenarios) or 1
    return {
        "generator_version": GENERATOR_VERSION,
        "seed": seed,
        "scenario_count": len(scenarios),
        "domains": dict(sorted(by_domain.items())),
        "bug_types": dict(sorted(by_type.items())),
        "bug_buckets": dict(sorted(by_bucket.items())),
        "trace_length_min": min(lengths) if lengths else 0,
        "trace_length_max": max(lengths) if lengths else 0,
        "mean_nodes": sum(lengths) / n,
        "mean_edges": total_edges / n,
        "edge_kind_mix": {
            kind: count / (total_edges or 1) for kind, count in sorted(kind_totals.items())
        },
    }
