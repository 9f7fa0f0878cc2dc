"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.binning import AttributeBinning
from repro.graphs.canonical import graph_invariant
from repro.graphs.engine import MatchEngine
from repro.graphs.isomorphism import (
    are_isomorphic,
    has_embedding,
    legacy_are_isomorphic,
    legacy_has_embedding,
)
from repro.graphs.labeled_graph import LabeledGraph, LabeledMultiGraph
from repro.mining.fsg.miner import FSGMiner
from repro.mining.interestingness import confidence, leverage, lift
from repro.partitioning.split_graph import PartitionStrategy, coverage_is_exact, split_graph
from repro.runtime import SerialRuntime


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def labeled_graphs(draw, max_vertices: int = 7, max_edges: int = 12):
    """A small random labeled directed graph."""
    n_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    vertex_labels = draw(
        st.lists(st.sampled_from(["place", "depot"]), min_size=n_vertices, max_size=n_vertices)
    )
    graph = LabeledGraph()
    for index, label in enumerate(vertex_labels):
        graph.add_vertex(f"v{index}", label)
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    for _ in range(n_edges):
        source = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        target = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        if source == target:
            continue
        label = draw(st.integers(min_value=0, max_value=3))
        graph.add_edge(f"v{source}", f"v{target}", label)
    return graph


@st.composite
def labeled_multigraphs(draw, max_vertices: int = 6, max_lanes: int = 10):
    """A random multigraph whose lanes may carry several parallel edges.

    Parallel edges are what distinguish a multigraph corpus; each lane
    gets 1-4 copies with independently drawn labels, so ``simplify`` has
    real label-vote work to do.
    """
    n_vertices = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = LabeledMultiGraph()
    for index in range(n_vertices):
        graph.add_vertex(f"v{index}", draw(st.sampled_from(["place", "depot"])))
    n_lanes = draw(st.integers(min_value=0, max_value=max_lanes))
    for _ in range(n_lanes):
        source = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        target = draw(st.integers(min_value=0, max_value=n_vertices - 1))
        if source == target:
            continue
        copies = draw(st.integers(min_value=1, max_value=4))
        for _ in range(copies):
            graph.add_edge(
                f"v{source}", f"v{target}", draw(st.sampled_from(["am", "pm", "night"]))
            )
    return graph


def _shuffled_copy(graph: LabeledGraph, seed: int) -> LabeledGraph:
    """An isomorphic copy with renamed, shuffled vertex identifiers."""
    rng = random.Random(seed)
    names = list(graph.vertices())
    shuffled = list(names)
    rng.shuffle(shuffled)
    mapping = {old: f"w{index}_{new}" for index, (old, new) in enumerate(zip(names, shuffled))}
    clone = LabeledGraph()
    for vertex in names:
        clone.add_vertex(mapping[vertex], graph.vertex_label(vertex))
    for edge in graph.edges():
        clone.add_edge(mapping[edge.source], mapping[edge.target], edge.label)
    return clone


# ----------------------------------------------------------------------
# Graph properties
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(labeled_graphs(), st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=40, deadline=None)
    def test_renamed_graphs_are_isomorphic_with_equal_invariants(self, graph, seed):
        copy = _shuffled_copy(graph, seed)
        assert are_isomorphic(graph, copy)
        assert graph_invariant(graph) == graph_invariant(copy)

    @given(labeled_graphs())
    @settings(max_examples=40, deadline=None)
    def test_graph_embeds_in_itself(self, graph):
        assert has_embedding(graph, graph)

    @given(labeled_graphs())
    @settings(max_examples=40, deadline=None)
    def test_edge_subgraph_embeds_in_parent(self, graph):
        edges = list(graph.edges())
        if not edges:
            return
        sub = graph.edge_subgraph(edges[: max(1, len(edges) // 2)])
        assert has_embedding(sub, graph)

    @given(labeled_graphs())
    @settings(max_examples=40, deadline=None)
    def test_degree_sums_match_edge_count(self, graph):
        total_out = sum(graph.out_degree(v) for v in graph.vertices())
        total_in = sum(graph.in_degree(v) for v in graph.vertices())
        assert total_out == graph.n_edges
        assert total_in == graph.n_edges

    @given(labeled_graphs())
    @settings(max_examples=40, deadline=None)
    def test_copy_equals_original(self, graph):
        clone = graph.copy()
        assert are_isomorphic(graph, clone)
        assert clone.n_edges == graph.n_edges


# ----------------------------------------------------------------------
# Multigraph properties
# ----------------------------------------------------------------------
class TestMultigraphProperties:
    @given(labeled_multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_simplify_collapses_to_simple_edge_count(self, multigraph):
        simple = multigraph.simplify()
        assert simple.n_edges == multigraph.n_simple_edges
        assert simple.n_vertices == multigraph.n_vertices
        assert simple.n_edges <= multigraph.n_edges

    @given(labeled_multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_simplified_labels_come_from_parallel_groups(self, multigraph):
        simple = multigraph.simplify()
        for edge in simple.edges():
            assert edge.label in multigraph.parallel_labels(edge.source, edge.target)

    @given(labeled_multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_degree_sums_count_distinct_neighbours(self, multigraph):
        # Multigraph degrees follow the paper's convention: distinct
        # neighbours, so parallel edges do not inflate them and each lane
        # (ordered vertex pair) contributes exactly one to each sum.
        total_out = sum(multigraph.out_degree(v) for v in multigraph.vertices())
        total_in = sum(multigraph.in_degree(v) for v in multigraph.vertices())
        assert total_out == multigraph.n_simple_edges
        assert total_in == multigraph.n_simple_edges
        assert multigraph.n_simple_edges <= multigraph.n_edges

    @given(labeled_multigraphs())
    @settings(max_examples=30, deadline=None)
    def test_simplify_first_vs_most_common_agree_on_structure(self, multigraph):
        most_common = multigraph.simplify(label_choice="most_common")
        first = multigraph.simplify(label_choice="first")
        assert {(e.source, e.target) for e in most_common.edges()} == {
            (e.source, e.target) for e in first.edges()
        }


# ----------------------------------------------------------------------
# Engine-vs-legacy differential properties
# ----------------------------------------------------------------------
class TestEngineLegacyAgreement:
    @given(labeled_graphs(), labeled_graphs())
    @settings(max_examples=40, deadline=None)
    def test_isomorphism_verdicts_agree(self, first, second):
        engine = MatchEngine()
        assert engine.are_isomorphic(first, second) == legacy_are_isomorphic(first, second)

    @given(labeled_graphs(), st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=40, deadline=None)
    def test_renamed_copy_is_isomorphic_under_both_matchers(self, graph, seed):
        copy = _shuffled_copy(graph, seed)
        engine = MatchEngine()
        assert engine.are_isomorphic(graph, copy)
        assert legacy_are_isomorphic(graph, copy)

    @given(labeled_graphs(), labeled_graphs(max_vertices=4, max_edges=4))
    @settings(max_examples=40, deadline=None)
    def test_embedding_verdicts_agree(self, target, pattern):
        engine = MatchEngine()
        assert engine.has_embedding(pattern, target) == legacy_has_embedding(pattern, target)

    @given(labeled_multigraphs())
    @settings(max_examples=30, deadline=None)
    def test_simplified_multigraph_embeds_in_itself_under_both(self, multigraph):
        simple = multigraph.simplify()
        engine = MatchEngine()
        assert engine.has_embedding(simple, simple)
        assert legacy_has_embedding(simple, simple)


# ----------------------------------------------------------------------
# Embedding-store differential properties
# ----------------------------------------------------------------------
class TestEmbeddingStoreProperties:
    @given(
        st.lists(labeled_multigraphs(max_vertices=5, max_lanes=7), min_size=3, max_size=5),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_extension_support_equals_full_search_and_legacy(self, multigraphs, cap):
        """Anchor extension, full search, and the legacy matcher agree.

        Mining a random (simplified-multigraph) corpus through the
        embedding store — including deliberately tiny anchor caps that
        force the overflow/fallback path — must yield exactly the
        patterns and supporting-TID sets of a store-starved miner
        (``anchor_budget=0`` stores no anchor, so every non-seed query
        takes the full search), and every support set must match a
        from-scratch ``legacy_has_embedding`` scan.
        """
        corpus = [multigraph.simplify() for multigraph in multigraphs]
        if all(graph.n_edges == 0 for graph in corpus):
            return
        engine = MatchEngine(anchor_cap=cap)
        with_store = FSGMiner(
            min_support=2, max_edges=3, runtime=SerialRuntime(engine=engine)
        ).mine(corpus)
        starved = MatchEngine(anchor_budget=0)
        without_store = FSGMiner(
            min_support=2, max_edges=3, runtime=SerialRuntime(engine=starved)
        ).mine(corpus)
        assert starved.stats.anchors_stored == starved.stats.anchor_extensions == 0

        def signature(result):
            return sorted(
                (
                    entry.pattern.n_vertices,
                    entry.pattern.n_edges,
                    tuple(sorted(entry.supporting_transactions)),
                )
                for entry in result.patterns
            )

        assert signature(with_store) == signature(without_store)
        for entry in with_store.patterns + without_store.patterns:
            legacy = frozenset(
                tid
                for tid, transaction in enumerate(corpus)
                if legacy_has_embedding(entry.pattern, transaction)
            )
            assert frozenset(entry.supporting_transactions) == legacy


# ----------------------------------------------------------------------
# Partitioning properties (Algorithm 2 invariants)
# ----------------------------------------------------------------------
class TestPartitioningProperties:
    @given(
        labeled_graphs(max_vertices=8, max_edges=16),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([PartitionStrategy.BREADTH_FIRST, PartitionStrategy.DEPTH_FIRST]),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_partitions_cover_every_edge_exactly_once(self, graph, k, strategy, seed):
        partitions = split_graph(graph, k, strategy=strategy, seed=seed)
        assert coverage_is_exact(graph, partitions)

    @given(
        labeled_graphs(max_vertices=8, max_edges=16),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_vertex_labels_match_source_graph(self, graph, k, seed):
        partitions = split_graph(graph, k, seed=seed)
        for partition in partitions:
            for vertex in partition.vertices():
                assert partition.vertex_label(vertex) == graph.vertex_label(vertex)


# ----------------------------------------------------------------------
# Binning properties
# ----------------------------------------------------------------------
class TestBinningProperties:
    @given(
        st.floats(min_value=-1e5, max_value=1e6, allow_nan=False),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_value_gets_a_valid_bin(self, value, count):
        binning = AttributeBinning.equal_width("X", 0.0, 1_000.0, count)
        index = binning.index_for(value)
        assert 0 <= index < count

    @given(
        st.lists(st.floats(min_value=0, max_value=1_000, allow_nan=False), min_size=2, max_size=30),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_binning_is_monotone(self, values, count):
        binning = AttributeBinning.equal_width("X", 0.0, 1_000.0, count)
        ordered = sorted(values)
        indices = [binning.index_for(value) for value in ordered]
        assert indices == sorted(indices)


# ----------------------------------------------------------------------
# Interestingness measure properties
# ----------------------------------------------------------------------
class TestInterestingnessProperties:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_confidence_bounded(self, both, antecedent, consequent):
        both = min(both, antecedent)
        assert 0.0 <= confidence(both, antecedent) <= 1.0

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_independence_gives_unit_lift_and_zero_leverage(self, p_a, p_c):
        both = p_a * p_c
        assert abs(lift(both, p_a, p_c) - 1.0) < 1e-9
        assert abs(leverage(both, p_a, p_c)) < 1e-9
