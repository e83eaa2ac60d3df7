"""Causal graph construction and topological queries over a trace.

Three edge kinds are derived from a trace:

* ``sequential``    -- between successive steps of the same agent (the
  agent's own reasoning thread, which survives interruptions by others).
* ``communication`` -- at hand-offs: from the last step of an agent block to
  the next step (different agent), plus an explicit edge from every
  ``message`` step to its first downstream consumer by another agent.
* ``data``          -- from producer to consumer when declared artifact
  names overlap; when a step carries no produces/consumes lists, a
  conservative identifier scan of its text is used instead.

An edge is a plain ``(src, dst, kind)`` tuple. All edges satisfy
``src < dst`` (chronological order), which makes every graph acyclic by
construction. Construction and queries are pure functions on immutable
inputs.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import NodeNotFound
from .model import ExecutionTrace

EDGE_KINDS = ("sequential", "communication", "data")

# Fallback tokenizer: identifiers of length >= 3 minus common English
# function words, applied only when produces/consumes lists are absent.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]{2,}")
_STOP_WORDS = frozenset(
    """
    the and for with from into that this then than when while are was were
    has have had been being will would could should can may might must not
    all any each other some such only over under out off per via you your
    our their its his her using use used these those what which where who
    how why does did done
    """.split()
)


@dataclass(frozen=True)
class CausalGraph:
    """DAG over step ids: ``(src, dst, kind)`` edges, one per kind and pair,
    ordered by ``(src, dst, EDGE_KINDS order)``, plus adjacency indexes."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]
    successors: dict[int, tuple[int, ...]] = field(repr=False, compare=False)
    predecessors: dict[int, tuple[int, ...]] = field(repr=False, compare=False)

    @staticmethod
    def from_edges(nodes: list[int], edges: list[tuple[int, int, str]]) -> "CausalGraph":
        """Build the graph from ``(src, dst, kind)`` tuples.

        An endpoint that is not a node raises ``NodeNotFound``. Edges with
        ``src >= dst`` break chronology and are dropped, which keeps the
        graph acyclic; duplicates of a kind and pair collapse to one.
        """
        node_set = set(nodes)
        for src, dst, _ in edges:
            if src not in node_set or dst not in node_set:
                raise NodeNotFound(f"edge {src}->{dst}: endpoint not a node")
        code = {kind: i for i, kind in enumerate(EDGE_KINDS)}
        keyed = sorted({(src, dst, code[kind]) for src, dst, kind in edges if src < dst})
        succ: dict[int, list[int]] = {v: [] for v in nodes}
        pred: dict[int, list[int]] = {v: [] for v in nodes}
        for src, dst in dict.fromkeys((src, dst) for src, dst, _ in keyed):
            succ[src].append(dst)
            pred[dst].append(src)
        return CausalGraph(
            nodes=tuple(sorted(nodes)),
            edges=tuple((src, dst, EDGE_KINDS[k]) for src, dst, k in keyed),
            successors={v: tuple(vs) for v, vs in succ.items()},
            predecessors={v: tuple(vs) for v, vs in pred.items()},
        )

    def __contains__(self, node: int) -> bool:
        return node in self.successors

    def out_degree(self, v: int) -> int:
        return len(self.successors[v])

    def in_degree(self, v: int) -> int:
        return len(self.predecessors[v])

    def edge_kind_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(EDGE_KINDS, 0)
        for _, _, kind in self.edges:
            counts[kind] += 1
        return counts

    def to_obj(self) -> dict:
        """JSON-friendly dump used by ``analyze --dump-graph`` and goldens."""
        return {
            "nodes": list(self.nodes),
            "edges": [{"from": src, "to": dst, "kind": kind} for src, dst, kind in self.edges],
        }


def _identifier_tokens(text: str) -> set[str]:
    return {t.lower() for t in _IDENT_RE.findall(text)} - _STOP_WORDS


def _artifact_names(declared: tuple[str, ...] | None, text: str) -> set[str]:
    """The declared names, or the identifiers in ``text`` when none are declared."""
    if declared is not None:
        return {name.lower() for name in declared}
    return _identifier_tokens(text)


def build_graph(trace: ExecutionTrace) -> CausalGraph:
    """Derive the typed causal DAG for a trace (see module docstring).

    Data edges come from an inverted index, artifact name -> producers,
    built in step order: each consumer is linked to the earlier producers
    of the names it consumes, so the cost follows the matches, not the
    number of step pairs.
    """
    steps = trace.steps
    n = len(steps)
    edges: list[tuple[int, int, str]] = []

    # Sequential: successive steps in each agent's own timeline.
    last_by_agent: dict[str, int] = {}
    for step in steps:
        prev = last_by_agent.get(step.agent)
        if prev is not None:
            edges.append((prev, step.step_id, "sequential"))
        last_by_agent[step.agent] = step.step_id

    # Communication: hand-off at each agent-block boundary.
    for i in range(n - 1):
        if steps[i].agent != steps[i + 1].agent:
            edges.append((steps[i].step_id, steps[i + 1].step_id, "communication"))

    # Communication: message steps link to their first cross-agent consumer.
    for step in steps:
        if step.action_type != "message":
            continue
        for later in steps[step.step_id :]:
            if later.agent != step.agent:
                edges.append((step.step_id, later.step_id, "communication"))
                break

    # Data: declared artifact overlap, with a text-scan fallback per side.
    # Index: name -> producers so far. A step consumes before it produces,
    # so it only links to earlier producers.
    producers: dict[str, list[int]] = {}
    for step in steps:
        sources: set[int] = set()
        for name in _artifact_names(step.consumes, step.input):
            sources.update(producers.get(name, ()))
        for src in sources:
            edges.append((src, step.step_id, "data"))
        for name in _artifact_names(step.produces, step.output):
            producers.setdefault(name, []).append(step.step_id)

    return CausalGraph.from_edges([s.step_id for s in steps], edges)


@dataclass(frozen=True)
class CandidateSet:
    """Result of backward tracing: members plus their BFS discovery layer."""

    members: frozenset[int]
    depth_of: dict[int, int] = field(compare=False)


def backtrace(graph: CausalGraph, error_node: int, max_depth: int = 10) -> CandidateSet:
    """Collect ancestors of ``error_node`` within ``max_depth`` BFS layers.

    Layered breadth-first traversal over reverse edges: the candidate set
    starts as ``{error_node}`` (layer 0) and each of the ``max_depth``
    rounds adds the not-yet-seen parents of the current frontier.
    """
    if error_node not in graph:
        raise NodeNotFound(f"error node {error_node} not in graph")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    depth_of = {error_node: 0}
    frontier = [error_node]
    for layer in range(1, max_depth + 1):
        new_frontier: list[int] = []
        for v in frontier:
            for u in graph.predecessors[v]:
                if u not in depth_of:
                    depth_of[u] = layer
                    new_frontier.append(u)
        frontier = new_frontier
        if not frontier:
            break
    return CandidateSet(members=frozenset(depth_of), depth_of=depth_of)


def descendants(graph: CausalGraph, nodes: Iterable[int]) -> dict[int, int]:
    """Descendant bitset of each of ``nodes``: bit ``w`` of the mask of ``v``
    is set when ``w`` is forward-reachable from ``v`` (``v`` excluded), so
    ``mask.bit_count()`` is the number of descendants.

    Node ids are a topological order, so one descending sweep sets
    ``reach[u]`` to the OR, over the successors ``w`` of ``u``, of
    ``reach[w] | 1 << w``. A mask depends only on larger ids, so the sweep
    stops below the smallest requested node.
    """
    wanted = sorted(set(nodes))
    for v in wanted:
        if v not in graph:
            raise NodeNotFound(f"node {v} not in graph")
    if not wanted:
        return {}
    lowest = wanted[0]
    # ``closed[u]`` is ``reach[u] | 1 << u``, which saves one OR per edge.
    closed: dict[int, int] = {}
    for u in reversed(graph.nodes):
        if u < lowest:
            break
        mask = 1 << u
        for w in graph.successors[u]:
            mask |= closed[w]
        closed[u] = mask
    return {v: closed[v] ^ (1 << v) for v in wanted}


def distances_to(graph: CausalGraph, dst: int) -> dict[int, float]:
    """Directed distance from every node to ``dst`` in one reverse BFS."""
    if dst not in graph:
        raise NodeNotFound(f"node {dst} not in graph")
    dist: dict[int, float] = {dst: 0}
    queue = deque([dst])
    while queue:
        v = queue.popleft()
        for u in graph.predecessors[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return {v: dist.get(v, float("inf")) for v in graph.nodes}


def longest_path_depth(graph: CausalGraph) -> dict[int, int]:
    """Longest path length from any source (no-parent node) to every node.

    Nodes are already topologically ordered by id (edges satisfy
    ``from < to``), so one forward sweep suffices.
    """
    depth = {u: 0 for u in graph.nodes}
    for u in graph.nodes:
        for w in graph.successors[u]:
            if depth[u] + 1 > depth[w]:
                depth[w] = depth[u] + 1
    return depth


def betweenness(graph: CausalGraph, nodes: Iterable[int] | None = None) -> dict[int, float]:
    """Directed betweenness of ``nodes`` (default: every node).

    The value of ``v`` is the sum, over ordered pairs ``s -> t`` of other
    nodes, of the share of shortest ``s -> t`` paths that pass through
    ``v``; parallel edge kinds collapse to one adjacency. Values are raw
    sums; min-max scaling happens downstream in feature normalization.

    Brandes' accumulation runs on the reversed graph, one BFS per target
    ``t`` over ``predecessors``, which yields each node's dependency on
    ``t``. A pair ``s -> t`` passes through ``v`` only when ``t`` is a
    descendant of ``v``, so the targets are restricted to the nodes
    reachable from ``nodes`` and the cost follows the candidates, not the
    trace. Node ids are a topological order, so one ascending sweep
    collects them as a set, since the targets are then visited one by one.
    """
    wanted = graph.nodes if nodes is None else sorted(nodes)
    for v in wanted:
        if v not in graph:
            raise NodeNotFound(f"node {v} not in graph")
    scores = {v: 0.0 for v in wanted}
    targets: set[int] = set()
    for u in graph.nodes:
        if u in scores or u in targets:
            targets.update(graph.successors[u])
    for target in sorted(targets):
        # BFS phase over reverse edges: path counts and BFS parents, kept
        # only for the nodes reached (the ancestors of ``target``).
        sigma = {target: 1}
        dist = {target: 0}
        preds: dict[int, list[int]] = {target: []}
        order: list[int] = []
        queue = deque([target])
        while queue:
            v = queue.popleft()
            order.append(v)
            next_dist = dist[v] + 1
            sigma_v = sigma[v]
            for w in graph.predecessors[v]:
                dist_w = dist.get(w)
                if dist_w is None:
                    dist[w] = next_dist
                    sigma[w] = sigma_v
                    preds[w] = [v]
                    queue.append(w)
                elif dist_w == next_dist:
                    sigma[w] += sigma_v
                    preds[w].append(v)
        # Accumulation phase in reverse BFS order.
        delta = dict.fromkeys(order, 0.0)
        for w in reversed(order):
            sigma_w, coeff = sigma[w], 1.0 + delta[w]
            for v in preds[w]:
                delta[v] += sigma[v] / sigma_w * coeff
            if w != target and w in scores:
                scores[w] += delta[w]
    return scores
