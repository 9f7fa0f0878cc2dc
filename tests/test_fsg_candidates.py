"""Tests for FSG candidate generation and deduplication."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.engine import MatchEngine
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.motifs import chain, hub_and_spoke
from repro.mining.fsg.candidates import (
    Candidate,
    deduplicate,
    edge_triples,
    extend_pattern,
    frequent_single_edges,
    generate_candidates,
    single_edge_pattern,
)
from repro.mining.fsg.candidates import _triple_sort_key
from repro.runtime.bitsets import bits_of


def per_transaction_sort_oracle(transactions, min_support):
    """The reference level-1 count: each transaction's triple set sorted
    by :func:`_triple_sort_key`, first sight fixing the mapping order."""
    occurrences: dict = {}
    for tid, transaction in enumerate(transactions):
        for triple in sorted(edge_triples(transaction), key=_triple_sort_key):
            occurrences.setdefault(triple, set()).add(tid)
    return {
        triple: frozenset(tids)
        for triple, tids in occurrences.items()
        if len(tids) >= min_support
    }


@st.composite
def labeled_corpora(draw):
    """Small random transactions over mixed-type labels (ints and strs)."""
    vertex_labels = ["hub", "stop", 3, "depot"]
    edge_labels = ["am", "pm", 0, 1]
    corpus = []
    for index in range(draw(st.integers(min_value=0, max_value=8))):
        graph = LabeledGraph(name=f"t{index}")
        n_vertices = draw(st.integers(min_value=1, max_value=6))
        for v in range(n_vertices):
            graph.add_vertex(f"v{v}", draw(st.sampled_from(vertex_labels)))
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            source = draw(st.integers(min_value=0, max_value=n_vertices - 1))
            target = draw(st.integers(min_value=0, max_value=n_vertices - 1))
            graph.add_edge(f"v{source}", f"v{target}", draw(st.sampled_from(edge_labels)))
        corpus.append(graph)
    return corpus


class TestSingleEdges:
    def test_single_edge_pattern_structure(self):
        pattern = single_edge_pattern("place", 3, "place")
        assert pattern.n_vertices == 2
        assert pattern.n_edges == 1
        assert pattern.edge_label("p0", "p1") == 3

    def test_edge_triples(self, triangle_graph):
        triples = edge_triples(triangle_graph)
        assert ("place", 1, "place") in triples
        assert len(triples) == 3

    def test_frequent_single_edges_respects_support(self, triangle_graph, star_graph):
        transactions = [triangle_graph, star_graph]
        frequent = frequent_single_edges(transactions, min_support=2)
        # No edge label triple occurs in both graphs (labels differ).
        assert frequent == {}
        frequent_low = frequent_single_edges(transactions, min_support=1)
        assert ("place", 0, "place") in frequent_low
        assert frequent_low[("place", 0, "place")] == frozenset({1})

    @settings(max_examples=60, deadline=None)
    @given(corpus=labeled_corpora(), min_support=st.integers(min_value=1, max_value=4))
    def test_frequent_single_edges_matches_per_transaction_sort(self, corpus, min_support):
        # Same triples, same tid sets and the same mapping order as the
        # per-transaction sort it replaced.
        expected = per_transaction_sort_oracle(corpus, min_support)
        assert list(frequent_single_edges(corpus, min_support).items()) == list(
            expected.items()
        )


class TestExtension:
    def test_extension_count_for_single_edge(self):
        base = single_edge_pattern("place", 0, "place")
        extensions = extend_pattern(base, [("place", 0, "place")])
        # Forward from each of 2 vertices in 2 directions (4) plus one
        # backward edge closing the pair (p1 -> p0).
        assert len(extensions) == 5
        assert all(ext.n_edges == 2 for ext, _ in extensions)

    def test_extension_descriptors_match_added_edge(self):
        base = single_edge_pattern("place", 0, "place")
        for extended, (src_pos, dst_pos, has_new) in extend_pattern(
            base, [("place", 0, "place")]
        ):
            order = list(extended.vertices())
            if has_new:
                # The brand-new vertex is appended last, and it is one of
                # the extension edge's endpoints.
                assert extended.n_vertices == base.n_vertices + 1
                assert base.n_vertices in (src_pos, dst_pos)
            else:
                assert extended.n_vertices == base.n_vertices
            assert extended.has_edge(order[src_pos], order[dst_pos])

    def test_extensions_preserve_labels(self):
        base = single_edge_pattern("place", 1, "place")
        extensions = extend_pattern(base, [("place", 2, "place")])
        for extension, _ in extensions:
            labels = sorted(edge.label for edge in extension.edges())
            assert labels == [1, 2]

    def test_no_extension_for_mismatched_vertex_labels(self):
        base = single_edge_pattern("depot", 1, "store")
        extensions = extend_pattern(base, [("factory", 1, "port")])
        assert extensions == []

    def test_backward_extension_closes_cycle(self):
        base = chain(2, edge_labels=[1, 1])
        extensions = extend_pattern(base, [("place", 1, "place")])
        has_cycle_closure = any(
            ext.has_edge("ch_2", "ch_0") for ext, _ in extensions
        )
        assert has_cycle_closure


class TestDeduplication:
    def test_isomorphic_candidates_merged(self):
        # Merged duplicates scan only where every parent is supported.
        first = Candidate(pattern=hub_and_spoke(2, prefix="a"), parent_bits=bits_of([1, 2]))
        second = Candidate(pattern=hub_and_spoke(2, prefix="b"), parent_bits=bits_of([2, 3]))
        unique = deduplicate([first, second], MatchEngine())
        assert len(unique) == 1
        assert unique[0].parent_bits == bits_of([2])

    def test_distinct_candidates_kept(self):
        first = Candidate(pattern=hub_and_spoke(2), parent_bits=bits_of([1]))
        second = Candidate(pattern=chain(2), parent_bits=bits_of([1]))
        assert len(deduplicate([first, second], MatchEngine())) == 2

    def test_generate_candidates_unique_up_to_isomorphism(self):
        seed = Candidate(pattern=single_edge_pattern("place", 0, "place"), parent_bits=bits_of([0, 1]))
        candidates = generate_candidates([seed], [("place", 0, "place")], MatchEngine())
        for i, first in enumerate(candidates):
            for second in candidates[i + 1:]:
                assert not are_isomorphic(first.pattern, second.pattern)
        # 2-edge connected patterns over one label: out-star, in-star, path, 2-cycle.
        assert len(candidates) == 4

    def test_generate_candidates_builds_no_index(self):
        # Candidates are compacted only by the session that counts them,
        # so generation leaves the engine's index count where it was.
        engine = MatchEngine()
        triples = [("place", 0, "place"), ("place", 1, "depot")]
        parents = [
            Candidate(pattern=single_edge_pattern(*triple), parent_bits=bits_of([0, 1]), uid=index)
            for index, triple in enumerate(triples)
        ]
        before = engine.stats.indexes_built
        candidates = generate_candidates(parents, triples, engine)
        assert candidates
        assert engine.stats.indexes_built == before
