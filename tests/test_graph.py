"""Graph construction rules, backward tracing, and topological queries."""

import math
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracefault.errors import NodeNotFound
from tracefault.graph import (
    EDGE_KINDS,
    CausalGraph,
    _identifier_tokens,
    backtrace,
    betweenness,
    build_graph,
    descendants,
    longest_path_depth,
)
from tracefault.model import ExecutionTrace, Step, parse_scenario


def make_trace(agents_actions, produces=None, consumes=None):
    roster = []
    steps = []
    for i, (agent, action) in enumerate(agents_actions, start=1):
        if agent not in roster:
            roster.append(agent)
        steps.append(
            Step(
                step_id=i,
                agent=agent,
                action_type=action,
                input=f"input {i}",
                output=f"output {i}",
                timestamp=f"2026-01-05T10:{i:02d}:00Z",
                produces=tuple(produces.get(i, ())) if produces else None,
                consumes=tuple(consumes.get(i, ())) if consumes else None,
            )
        )
    return ExecutionTrace(
        scenario_id="t", domain="test", agents=tuple(roster), steps=tuple(steps)
    )


def bits(mask):
    return {w for w in range(mask.bit_length()) if mask >> w & 1}


def from_edges(nodes, edges):
    """A ``CausalGraph`` over ``(src, dst, kind)`` tuples. An endpoint that
    is not a node raises ``NodeNotFound``; edges with ``src >= dst`` break
    chronology and are dropped, and duplicates of a kind and pair collapse
    to one bit."""
    nodes = tuple(sorted(nodes))
    parents = tuple(dict.fromkeys(nodes, 0) for _ in EDGE_KINDS)
    succs = dict.fromkeys(nodes, 0)
    for src, dst, kind in edges:
        if src not in succs or dst not in succs:
            raise NodeNotFound(f"edge {src}->{dst}: endpoint not a node")
        if src < dst:
            parents[EDGE_KINDS.index(kind)][dst] |= 1 << src
            succs[src] |= 1 << dst
    sequential, communication, data = parents
    preds = {v: sequential[v] | communication[v] | data[v] for v in nodes}
    return CausalGraph(nodes, parents, preds, succs)


def chain_graph(n):
    nodes = list(range(1, n + 1))
    edges = [(i, i + 1, "sequential") for i in range(1, n)]
    return from_edges(nodes, edges)


def diamond_graph():
    return from_edges(
        [1, 2, 3, 4],
        [
            (1, 2, "sequential"),
            (1, 3, "communication"),
            (2, 4, "sequential"),
            (3, 4, "communication"),
        ],
    )


def test_example1_edge_contract(example1_bytes):
    # Planner, Coder, Coder, Reviewer, Executor: one same-agent pair, three
    # hand-offs.
    trace = parse_scenario(example1_bytes).trace
    graph = build_graph(trace)
    by_kind = {}
    for src, dst, kind in graph.edges:
        by_kind.setdefault(kind, set()).add((src, dst))
    assert (2, 3) in by_kind["sequential"]
    assert by_kind["communication"] == {(1, 2), (3, 4), (4, 5)}


def test_single_step_trace_has_no_edges():
    trace = make_trace([("A", "plan")])
    graph = build_graph(trace)
    assert graph.nodes == (1,)
    assert graph.edges == ()


def test_sequential_edges_follow_agent_timeline():
    trace = make_trace([("A", "plan"), ("B", "code"), ("A", "review")])
    graph = build_graph(trace)
    seq = {(src, dst) for src, dst, kind in graph.edges if kind == "sequential"}
    assert (1, 3) in seq  # A's thread continues across B's interruption


def test_message_step_links_to_first_cross_agent_consumer():
    trace = make_trace(
        [("A", "message"), ("A", "plan"), ("B", "code")],
    )
    graph = build_graph(trace)
    comm = {(src, dst) for src, dst, kind in graph.edges if kind == "communication"}
    assert (1, 3) in comm  # message pairs with B's step, skipping A's own
    assert (2, 3) in comm  # plus the block-boundary hand-off


def test_data_edges_from_declared_artifacts():
    trace = make_trace(
        [("A", "plan"), ("B", "code"), ("C", "execute")],
        produces={1: ["spec"], 2: ["build"], 3: []},
        consumes={1: [], 2: ["spec"], 3: ["spec", "build"]},
    )
    graph = build_graph(trace)
    data = {(src, dst) for src, dst, kind in graph.edges if kind == "data"}
    assert data == {(1, 2), (1, 3), (2, 3)}


def test_data_edge_text_fallback_when_lists_absent():
    trace = make_trace([("A", "plan"), ("B", "code")])
    steps = list(trace.steps)
    steps[0] = Step(
        step_id=1, agent="A", action_type="plan", input="start",
        output="produced the billing_schema draft", timestamp="t1",
    )
    steps[1] = Step(
        step_id=2, agent="B", action_type="code", input="implement billing_schema now",
        output="done", timestamp="t2",
    )
    trace = ExecutionTrace(
        scenario_id="t", domain="test", agents=("A", "B"), steps=tuple(steps)
    )
    graph = build_graph(trace)
    data = {(src, dst) for src, dst, kind in graph.edges if kind == "data"}
    assert (1, 2) in data


def test_stop_words_do_not_create_data_edges():
    trace = make_trace([("A", "plan"), ("B", "code")])
    steps = [
        Step(step_id=1, agent="A", action_type="plan", input="x",
             output="this should have been done with the results", timestamp="t1"),
        Step(step_id=2, agent="B", action_type="code", input="should have done that with care",
             output="y", timestamp="t2"),
    ]
    trace = ExecutionTrace(scenario_id="t", domain="test", agents=("A", "B"), steps=tuple(steps))
    graph = build_graph(trace)
    assert not [(src, dst) for src, dst, kind in graph.edges if kind == "data"]


def test_duplicate_typed_edges_collapse():
    graph = from_edges(
        [1, 2],
        [(1, 2, "data"), (1, 2, "data"), (1, 2, "sequential")],
    )
    assert len(graph.edges) == 2  # one per kind
    assert graph.edges == ((1, 2, "sequential"), (1, 2, "data"))  # EDGE_KINDS order
    assert graph.succs[1] == 1 << 2 and graph.preds[2] == 1 << 1
    assert graph.out_degree(1) == graph.in_degree(2) == 1


def test_non_chronological_edges_dropped():
    graph = from_edges([1, 2], [(2, 1, "data"), (1, 2, "data")])
    assert [(src, dst) for src, dst, _ in graph.edges] == [(1, 2)]


def test_unknown_endpoint_raises_in_either_direction():
    with pytest.raises(NodeNotFound):
        from_edges([1, 2], [(1, 9, "data")])
    with pytest.raises(NodeNotFound):
        from_edges([1, 2], [(9, 1, "data")])


def from_edges_oracle(nodes, edges):
    """Reference: keep chronological edges once each, sorted by
    ``(src, dst, EDGE_KINDS order)``; adjacency lists the distinct pairs,
    and each kind's parents of a node are listed on their own."""
    kept = sorted(
        {e for e in edges if e[0] < e[1]}, key=lambda e: (e[0], e[1], EDGE_KINDS.index(e[2]))
    )
    successors = {v: tuple(sorted({dst for src, dst, _ in kept if src == v})) for v in nodes}
    predecessors = {v: tuple(sorted({src for src, dst, _ in kept if dst == v})) for v in nodes}
    parents = tuple(
        {v: tuple(src for src, dst, k in kept if dst == v and k == kind) for v in nodes}
        for kind in EDGE_KINDS
    )
    return tuple(kept), successors, predecessors, parents


@st.composite
def edge_lists(draw):
    """Node ids 1..n in any order, and edges with duplicates, reversed pairs,
    self-loops and every kind."""
    n = draw(st.integers(1, 10))
    nodes = draw(st.permutations(range(1, n + 1)))
    ends = st.integers(1, n)
    edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from(EDGE_KINDS)), max_size=40))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=10))
        edges += [(dst, src, kind) for src, dst, kind in draw(st.lists(st.sampled_from(edges)))]
    return list(nodes), draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_from_edges_matches_sort_and_filter_oracle(case):
    nodes, edges = case
    graph = from_edges(nodes, edges)
    assert graph.nodes == tuple(sorted(nodes))
    successors = {v: tuple(sorted(bits(graph.succs[v]))) for v in nodes}
    predecessors = {v: tuple(sorted(bits(graph.preds[v]))) for v in nodes}
    parents = tuple({v: tuple(sorted(bits(m[v]))) for v in nodes} for m in graph.parents)
    assert (graph.edges, successors, predecessors, parents) == from_edges_oracle(nodes, edges)
    assert all(graph.out_degree(v) == len(successors[v]) for v in nodes)
    assert all(graph.in_degree(v) == len(predecessors[v]) for v in nodes)


def test_backtrace_full_chain():
    graph = chain_graph(5)
    result = backtrace(graph, 5, max_depth=10)
    assert result.members == frozenset({1, 2, 3, 4, 5})
    assert result.depth_of == {5: 0, 4: 1, 3: 2, 2: 3, 1: 4}


def test_backtrace_depth_truncation():
    graph = chain_graph(5)
    result = backtrace(graph, 5, max_depth=2)
    assert result.members == frozenset({3, 4, 5})


def test_backtrace_diamond_first_discovery_wins():
    result = backtrace(diamond_graph(), 4, max_depth=10)
    assert result.members == frozenset({1, 2, 3, 4})
    assert result.depth_of[4] == 0
    assert result.depth_of[2] == 1
    assert result.depth_of[3] == 1
    assert result.depth_of[1] == 2


def test_backtrace_missing_node():
    with pytest.raises(NodeNotFound):
        backtrace(chain_graph(3), 9, max_depth=10)
    with pytest.raises(ValueError):
        backtrace(chain_graph(3), 3, max_depth=0)


def test_descendants_on_chain():
    graph = chain_graph(5)
    assert bits(descendants(graph, (2,))[2]) == {3, 4, 5}
    assert bits(descendants(graph, (5,))[5]) == set()


def test_descendants_of_no_nodes_is_empty():
    assert descendants(chain_graph(3), ()) == {}


def test_descendants_unknown_node():
    with pytest.raises(NodeNotFound):
        descendants(chain_graph(3), (2, 4))


def test_longest_path_depth():
    assert longest_path_depth(diamond_graph()) == {1: 0, 2: 1, 3: 1, 4: 2}
    graph = chain_graph(5)
    assert longest_path_depth(graph) == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}


def test_betweenness_chain_enumeration():
    # Directed 5-chain: node v lies on the unique path of every (s, t) pair
    # with s < v < t, so scores are {0, 3, 4, 3, 0}.
    scores = betweenness(chain_graph(5), range(1, 6))
    assert scores == {1: 0.0, 2: 3.0, 3: 4.0, 4: 3.0, 5: 0.0}
    assert scores[3] == max(scores.values())
    assert scores[2] == scores[4]  # symmetric about the midpoint


def test_betweenness_split_paths():
    # Two shortest 1->4 paths through 2 and 3: each interior node carries
    # half of that pair plus its own adjacent pairs.
    scores = betweenness(diamond_graph(), range(1, 5))
    assert scores[2] == pytest.approx(0.5)
    assert scores[3] == pytest.approx(0.5)
    assert scores[1] == scores[4] == 0.0


def test_graph_dump_shape():
    obj = diamond_graph().to_obj()
    assert obj["nodes"] == [1, 2, 3, 4]
    assert {"from": 1, "to": 2, "kind": "sequential"} in obj["edges"]


def closure(n, edges):
    """The transitive closure of ``edges`` on ids 1..n, as data edges."""
    reach = {v: set() for v in range(1, n + 1)}
    for src, dst, _ in sorted(edges, reverse=True):
        reach[src] |= {dst} | reach[dst]
    return [(src, dst, "data") for src in reach for dst in sorted(reach[src])]


@st.composite
def dags_with_nodes(draw):
    """A DAG on ids 1..n (edges point to larger ids) and a node subset.

    The DAG is random, the transitive closure of a random one, or a chain
    plus a random part of its closure: in the last two shapes many targets
    have only direct predecessors as ancestors, the case betweenness skips.
    """
    n = draw(st.integers(1, 14))
    shape = draw(st.sampled_from(["random", "closed", "chain+closure"]))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if shape == "chain+closure":
        pairs = [(i, j) for i, j in pairs if j > i + 1]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(i, j, "data") for (i, j), kept in zip(pairs, keep) if kept]
    if shape == "closed":
        edges = closure(n, edges)
    elif shape == "chain+closure":
        edges += [(i, i + 1, "sequential") for i in range(1, n)]
    graph = from_edges(list(range(1, n + 1)), edges)
    nodes = draw(st.sets(st.integers(1, n)))
    return graph, nodes


def reference_betweenness(graph, nodes):
    """Brandes over tuple adjacency built from ``graph.edges``: one reverse
    BFS per target reachable from ``nodes``, predecessors in ascending order."""
    successors = {v: [] for v in graph.nodes}
    predecessors = {v: [] for v in graph.nodes}
    for src, dst in dict.fromkeys((src, dst) for src, dst, _ in graph.edges):
        successors[src].append(dst)
        predecessors[dst].append(src)
    scores = {v: 0.0 for v in sorted(nodes)}
    targets = set()
    for u in graph.nodes:
        if u in scores or u in targets:
            targets.update(successors[u])
    for target in sorted(targets):
        sigma, dist, parents, order = {target: 1}, {target: 0}, {target: []}, []
        queue = deque([target])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in predecessors[v]:
                if w not in dist:
                    dist[w], sigma[w], parents[w] = dist[v] + 1, sigma[v], [v]
                    queue.append(w)
                elif dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    parents[w].append(v)
        delta = dict.fromkeys(order, 0.0)
        for w in reversed(order):
            for v in parents[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != target and w in scores:
                scores[w] += delta[w]
    return scores


@settings(max_examples=300, deadline=None)
@given(dags_with_nodes())
def test_betweenness_equals_tuple_brandes_exactly(case):
    graph, nodes = case
    assert betweenness(graph, nodes) == reference_betweenness(graph, nodes)
    assert betweenness(graph, graph.nodes) == reference_betweenness(graph, graph.nodes)


def assert_matches_networkx(graph, nodes):
    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.nodes)
    digraph.add_edges_from((src, dst) for src, dst, _ in graph.edges)
    expected = nx.betweenness_centrality(digraph, normalized=False)
    scores = betweenness(graph, nodes)
    assert set(scores) == nodes
    for v in nodes:
        assert math.isclose(scores[v], expected[v], rel_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(dags_with_nodes())
def test_betweenness_of_subset_matches_networkx(case):
    assert_matches_networkx(*case)


@st.composite
def sparse_dags_with_nodes(draw):
    """``dags_with_nodes`` relabelled ``i -> 3*i + 2``: ids with gaps below,
    between and above the nodes, which betweenness' id-indexed lists skip."""
    graph, nodes = draw(dags_with_nodes())
    relabel = {v: 3 * v + 2 for v in graph.nodes}
    edges = [(relabel[src], relabel[dst], kind) for src, dst, kind in graph.edges]
    return from_edges(list(relabel.values()), edges), {relabel[v] for v in nodes}


@settings(max_examples=300, deadline=None)
@given(sparse_dags_with_nodes())
def test_betweenness_on_sparse_ids(case):
    graph, nodes = case
    assert betweenness(graph, nodes) == reference_betweenness(graph, nodes)
    assert_matches_networkx(graph, nodes)
    for missing in (0, -1, graph.nodes[-1] + 1):
        with pytest.raises(NodeNotFound):
            betweenness(graph, nodes | {missing})


@settings(max_examples=300, deadline=None)
@given(dags_with_nodes())
def test_betweenness_of_subset_equals_full_restricted(case):
    graph, nodes = case
    full = betweenness(graph, graph.nodes)
    assert betweenness(graph, nodes) == {v: full[v] for v in nodes}


@settings(max_examples=300, deadline=None)
@given(dags_with_nodes())
def test_descendants_match_networkx(case):
    graph, nodes = case
    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.nodes)
    digraph.add_edges_from((src, dst) for src, dst, _ in graph.edges)
    masks = descendants(graph, nodes)
    assert set(masks) == nodes
    for v in nodes:
        assert bits(masks[v]) == nx.descendants(digraph, v)


def test_betweenness_unknown_node():
    with pytest.raises(NodeNotFound):
        betweenness(chain_graph(3), {4})


@st.composite
def dags_with_anchor(draw):
    graph, _ = draw(dags_with_nodes())
    return graph, draw(st.sampled_from(graph.nodes)), draw(st.integers(1, 14))


@settings(max_examples=300, deadline=None)
@given(dags_with_anchor())
def test_backtrace_depths_match_networkx_reverse_bfs(case):
    graph, anchor, max_depth = case
    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.nodes)
    digraph.add_edges_from((src, dst) for src, dst, _ in graph.edges)
    expected = nx.single_source_shortest_path_length(digraph.reverse(), anchor, cutoff=max_depth)
    result = backtrace(graph, anchor, max_depth)
    assert result.depth_of == expected
    assert result.members == frozenset(expected)


def pairwise_data_edges(trace):
    """Reference: scan every producer/consumer pair for a shared name."""
    def names(declared, text):
        if declared is not None:
            return {name.lower() for name in declared}
        return _identifier_tokens(text)

    produced = [names(s.produces, s.output) for s in trace.steps]
    consumed = [names(s.consumes, s.input) for s in trace.steps]
    return {
        (trace.steps[i].step_id, trace.steps[j].step_id)
        for i in range(len(trace.steps))
        for j in range(i + 1, len(trace.steps))
        if produced[i] & consumed[j]
    }


_NAMES = st.sampled_from(["alpha", "Beta", "gamma_2", "the", "and", "x1", "delta"])


@st.composite
def traces(draw, mode):
    """Traces whose data sides are declared, text-scanned or mixed per side."""
    steps = []
    for i in range(1, draw(st.integers(1, 12)) + 1):
        sides = {}
        for side in ("produces", "consumes"):
            declared = mode == "declared" or (mode == "mixed" and draw(st.booleans()))
            sides[side] = tuple(draw(st.lists(_NAMES, max_size=3))) if declared else None
        steps.append(
            Step(
                step_id=i,
                agent=draw(st.sampled_from(["A", "B", "C"])),
                action_type=draw(st.sampled_from(["plan", "message", "code"])),
                input=" ".join(draw(st.lists(_NAMES, max_size=4))),
                output=" ".join(draw(st.lists(_NAMES, max_size=4))),
                timestamp=f"2026-01-05T10:{i:02d}:00Z",
                **sides,
            )
        )
    agents = tuple(dict.fromkeys(s.agent for s in steps))
    return ExecutionTrace(scenario_id="t", domain="test", agents=agents, steps=tuple(steps))


@pytest.mark.parametrize("mode", ["declared", "text", "mixed"])
def test_data_edges_match_pairwise_scan(mode):
    @settings(max_examples=150, deadline=None)
    @given(traces(mode))
    def check(trace):
        graph = build_graph(trace)
        assert all(src < dst for src, dst, _ in graph.edges)
        data = {(src, dst) for src, dst, kind in graph.edges if kind == "data"}
        assert data == pairwise_data_edges(trace)

    check()


@pytest.mark.parametrize("mode", ["declared", "text", "mixed"])
def test_succs_are_the_transpose_of_preds(mode):
    @settings(max_examples=150, deadline=None)
    @given(traces(mode))
    def check(trace):
        graph = build_graph(trace)
        assert list(graph.succs) == list(graph.preds) == list(graph.nodes)
        for u in graph.nodes:
            for v in graph.nodes:
                assert graph.succs[u] >> v & 1 == graph.preds[v] >> u & 1

    check()
