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

All edges satisfy ``src < dst`` (chronological order), so every graph is
acyclic and step ids are a topological order. The graph is bitsets only:
bit ``u`` of ``parents[k][v]`` is an ``EDGE_KINDS[k]`` edge ``u -> v``, and
``preds``/``succs`` are the unions over kinds. ``build_graph`` sets each
edge's successor bit in the same pass that sets its parent bit, so no
transpose follows. Degrees are popcounts, traversals OR frontier masks, and
``edges`` tuples are derived on access.

Betweenness is Brandes' algorithm over lists indexed by step id, with each
node's predecessors expanded in ascending order, as over sorted adjacency
lists, so its float sums are unchanged. It skips a target whose ancestors
are all direct predecessors: that reverse BFS has one layer, so every
``delta`` stays ``0.0`` and ``x + 0.0 == x`` keeps each score bit-identical.
On dense text-scanned traces every target is skipped.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

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
    """DAG over step ids held as bitsets (see module docstring)."""

    nodes: tuple[int, ...]
    parents: tuple[dict[int, int], ...] = field(repr=False)
    preds: dict[int, int] = field(repr=False, compare=False)
    succs: dict[int, int] = field(repr=False, compare=False)

    @cached_property
    def ancestry(self) -> tuple[dict[int, int], dict[int, int]]:
        """Ancestor mask (``v`` included) and longest-path depth of every
        node, swept once per graph and shared by ``longest_path_depth`` and
        ``betweenness``; callers must not mutate them. A predecessor inside
        the mask of a higher one is its ancestor: skipped."""
        closed: dict[int, int] = {}
        depth: dict[int, int] = {}
        for v in self.nodes:
            mask, rest, d = 1 << v, self.preds[v], 0
            while rest:
                u = rest.bit_length() - 1
                mask |= closed[u]
                d = max(d, depth[u] + 1)
                rest &= ~mask
            closed[v], depth[v] = mask, d
        return closed, depth

    @property
    def edges(self) -> tuple[tuple[int, int, str], ...]:
        """``(src, dst, kind)`` tuples ordered by ``(src, dst, EDGE_KINDS order)``."""
        return tuple(
            (src, dst, kind)
            for src in self.nodes
            for dst in _bits(self.succs[src])
            for kind, masks in zip(EDGE_KINDS, self.parents)
            if masks[dst] >> src & 1
        )

    def __contains__(self, node: int) -> bool:
        return node in self.preds

    def out_degree(self, v: int) -> int:
        return self.succs[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.preds[v].bit_count()

    def edge_kind_counts(self) -> dict[str, int]:
        return {
            kind: sum(mask.bit_count() for mask in masks.values())
            for kind, masks in zip(EDGE_KINDS, self.parents)
        }

    def to_obj(self) -> dict:
        """JSON-friendly dump used by ``analyze --dump-graph`` and goldens."""
        return {
            "nodes": list(self.nodes),
            "edges": [{"from": src, "to": dst, "kind": kind} for src, dst, kind in self.edges],
        }


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    found = []
    while mask:
        top = mask.bit_length() - 1
        found.append(top)
        mask ^= 1 << top
    found.reverse()
    return found


def _identifier_tokens(text: str) -> set[str]:
    return {t.lower() for t in _IDENT_RE.findall(text)} - _STOP_WORDS


def _artifact_names(declared: tuple[str, ...] | None, text: str) -> set[str]:
    """The declared names, or the identifiers in ``text`` when none are declared."""
    if declared is not None:
        return {name.lower() for name in declared}
    return _identifier_tokens(text)


def build_graph(trace: ExecutionTrace) -> CausalGraph:
    """Derive the typed causal DAG for a trace (see module docstring).

    Every loop that sets a parent bit sets the matching successor bit. Data
    edges come from two indexes built in one pass in step order, artifact
    name -> bitset of its producers and of its consumers: a consumer ORs in
    the earlier producers of the names it consumes, and a producer's data
    successors are the OR of its names' consumers above its own id. So the
    cost follows the names, not the step pairs.
    """
    steps = trace.steps
    ids = [s.step_id for s in steps]
    sequential, communication, data = parents = tuple(dict.fromkeys(ids, 0) for _ in EDGE_KINDS)
    succs = dict.fromkeys(ids, 0)

    # Sequential: successive steps in each agent's own timeline.
    last_by_agent: dict[str, int] = {}
    for step in steps:
        v = step.step_id
        u = last_by_agent.get(step.agent)
        if u is not None:
            sequential[v] = 1 << u
            succs[u] |= 1 << v
        last_by_agent[step.agent] = v

    # Communication: hand-off at each agent-block boundary.
    for prev, step in zip(steps, steps[1:]):
        if prev.agent != step.agent:
            communication[step.step_id] |= 1 << prev.step_id
            succs[prev.step_id] |= 1 << step.step_id

    # Communication: message steps link to their first cross-agent consumer.
    for step in steps:
        if step.action_type != "message":
            continue
        for later in steps[step.step_id :]:
            if later.agent != step.agent:
                communication[later.step_id] |= 1 << step.step_id
                succs[step.step_id] |= 1 << later.step_id
                break

    # Data: declared artifact overlap, with a text-scan fallback per side.
    # A step consumes before it produces, so it only links to earlier
    # producers and later consumers, never to itself.
    producers: dict[str, int] = {}
    consumers: dict[str, int] = {}
    produced = []
    for step in steps:
        bit = 1 << step.step_id
        found = 0
        for name in _artifact_names(step.consumes, step.input):
            found |= producers.get(name, 0)
            consumers[name] = consumers.get(name, 0) | bit
        data[step.step_id] = found
        names = _artifact_names(step.produces, step.output)
        for name in names:
            producers[name] = producers.get(name, 0) | bit
        produced.append(names)
    for v, names in zip(ids, produced):
        later = 0
        for name in names:
            later |= consumers.get(name, 0)
        succs[v] |= later >> (v + 1) << (v + 1)

    preds = {v: sequential[v] | communication[v] | data[v] for v in ids}
    return CausalGraph(tuple(ids), parents, preds, succs)


@dataclass(frozen=True)
class CandidateSet:
    """Result of backward tracing: members plus their BFS discovery layer.

    A node's layer is its shortest directed distance to the error node; the
    ``distance_to_error`` feature reads it from ``depth_of``.
    """

    members: frozenset[int]
    depth_of: dict[int, int] = field(compare=False)


def backtrace(graph: CausalGraph, error_node: int, max_depth: int) -> CandidateSet:
    """Collect ancestors of ``error_node`` within ``max_depth`` BFS layers.

    Layered breadth-first traversal over reverse edges: the candidate set
    starts as ``{error_node}`` (layer 0) and each of the ``max_depth``
    rounds adds the not-yet-seen parents of the current frontier, the OR of
    its ``preds`` masks.
    """
    if error_node not in graph:
        raise NodeNotFound(f"error node {error_node} not in graph")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    depth_of: dict[int, int] = {}
    frontier = seen = 1 << error_node
    for layer in range(max_depth + 1):
        parents = 0
        for v in _bits(frontier):
            depth_of[v] = layer
            parents |= graph.preds[v]
        frontier = parents & ~seen
        if not frontier:
            break
        seen |= frontier
    return CandidateSet(members=frozenset(depth_of), depth_of=depth_of)


def descendants(graph: CausalGraph, nodes: Iterable[int]) -> dict[int, int]:
    """Descendant bitset of each of ``nodes``: bit ``w`` of the mask of ``v``
    is set when ``w`` is forward-reachable from ``v`` (``v`` excluded), so
    ``mask.bit_count()`` is the number of descendants.

    One descending sweep sets ``closed[u]`` (``u`` and its descendants) to
    the OR of its successors' masks, and stops below the smallest requested
    node. A successor already in the OR has its mask inside it and is
    skipped, so a transitively closed graph costs one OR per node.
    """
    wanted = sorted(set(nodes))
    for v in wanted:
        if v not in graph:
            raise NodeNotFound(f"node {v} not in graph")
    closed: dict[int, int] = {}
    for u in reversed(graph.nodes):
        if not wanted or u < wanted[0]:
            break
        mask, rest = 1 << u, graph.succs[u]
        while rest:
            mask |= closed[(rest & -rest).bit_length() - 1]
            rest &= ~mask
        closed[u] = mask
    return {v: closed[v] ^ (1 << v) for v in wanted}


def longest_path_depth(graph: CausalGraph) -> dict[int, int]:
    """Longest path length from any source (no-parent node) to every node."""
    return graph.ancestry[1]


def betweenness(graph: CausalGraph, nodes: Iterable[int]) -> dict[int, float]:
    """Directed betweenness of each of ``nodes``; ``features`` asks for the
    backtraced candidates, and ``graph.nodes`` gives every node's value.

    The value of ``v`` is the sum, over ordered pairs ``s -> t`` of other
    nodes, of the share of shortest ``s -> t`` paths that pass through
    ``v``; parallel edge kinds collapse to one adjacency. Values are raw
    sums; min-max scaling happens downstream in feature normalization.

    Brandes' accumulation runs on the reversed graph, one BFS per target
    ``t`` over ``preds``, which yields each node's dependency on ``t``. A
    pair ``s -> t`` passes through ``v`` only when ``t`` is a descendant of
    ``v``, so the targets are the nodes reachable from ``nodes``. A target
    whose ancestors are all direct predecessors is skipped (module docstring).

    Distances, path counts, BFS parents and dependencies are lists indexed
    by node id, sized ``max(graph.nodes) + 1``. A node's first BFS parent
    has a list slot of its own; only a node reached by several shortest
    paths keeps the rest in a dict. Predecessor masks are expanded to id
    lists on first visit, so a call whose targets are all skipped expands
    none.
    """
    wanted = sorted(nodes)
    for v in wanted:
        if v not in graph:
            raise NodeNotFound(f"node {v} not in graph")
    size = graph.nodes[-1] + 1 if graph.nodes else 0
    is_wanted = bytearray(size)
    for v in wanted:
        is_wanted[v] = 1
    scores = [0.0] * size
    targets = 0
    for u in graph.nodes:
        if is_wanted[u] or targets >> u & 1:
            targets |= graph.succs[u]
    ancestors = graph.ancestry[0]
    pred_bits: list[list[int] | None] = [None] * size
    for target in _bits(targets):
        if ancestors[target] == graph.preds[target] | 1 << target:
            continue
        # BFS phase over reverse edges: path counts and BFS parents of the
        # nodes reached (the ancestors of ``target``). ``order`` is also the
        # FIFO queue: the loop reaches the nodes appended to it.
        dist = [-1] * size
        sigma = [0] * size
        first = [0] * size
        more: dict[int, list[int]] = {}
        dist[target], sigma[target] = 0, 1
        order = [target]
        for v in order:
            next_dist = dist[v] + 1
            sigma_v = sigma[v]
            expanded = pred_bits[v]
            if expanded is None:
                expanded = pred_bits[v] = _bits(graph.preds[v])
            for w in expanded:
                dist_w = dist[w]
                if dist_w < 0:
                    dist[w] = next_dist
                    sigma[w] = sigma_v
                    first[w] = v
                    order.append(w)
                elif dist_w == next_dist:
                    sigma[w] += sigma_v
                    if w in more:
                        more[w].append(v)
                    else:
                        more[w] = [v]
        # Accumulation phase in reverse BFS order; the target, ``order[0]``,
        # has no BFS parent and no score of its own.
        delta = [0.0] * size
        for w in order[:0:-1]:
            sigma_w, coeff = sigma[w], 1.0 + delta[w]
            v = first[w]
            delta[v] += sigma[v] / sigma_w * coeff
            if w in more:
                for v in more[w]:
                    delta[v] += sigma[v] / sigma_w * coeff
            if is_wanted[w]:
                scores[w] += delta[w]
    return {v: scores[v] for v in wanted}
