"""Tests for FSG candidate generation and deduplication.

The integer generator in :mod:`repro.mining.fsg.candidates` is checked
against the labeled-graph generator it replaced, kept in
``tests/fsg_oracle.py``: same unique candidates in first-seen order, same
scan bitsets and derivations, and the same survivor graphs.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.compact import labeled_to_wire
from repro.graphs.engine import MatchEngine
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.motifs import chain, hub_and_spoke
from repro.mining.fsg import miner as miner_module
from repro.mining.fsg.candidates import (
    Candidate,
    deduplicate,
    edge_triples,
    frequent_single_edges,
    generate_candidates,
)
from repro.mining.fsg.candidates import _triple_sort_key
from repro.mining.fsg.miner import FSGMiner
from repro.runtime.bitsets import bits_of

import fsg_oracle
from fsg_oracle import LabeledCandidate, extend_pattern, single_edge_pattern


def per_transaction_sort_oracle(transactions, min_support):
    """The reference level-1 count: each transaction's triple set sorted
    by :func:`_triple_sort_key`, first sight fixing the mapping order.
    Self-loops are left out: a one-edge pattern has two distinct
    vertices."""
    occurrences: dict = {}
    for tid, transaction in enumerate(transactions):
        triples = {
            (transaction.vertex_label(edge.source), edge.label, transaction.vertex_label(edge.target))
            for edge in transaction.edges()
            if edge.source != edge.target
        }
        for triple in sorted(triples, key=_triple_sort_key):
            occurrences.setdefault(triple, set()).add(tid)
    return {
        triple: frozenset(tids)
        for triple, tids in occurrences.items()
        if len(tids) >= min_support
    }


@st.composite
def labeled_corpora(draw, min_size=0):
    """Small random transactions over mixed-type labels (ints and strs)."""
    vertex_labels = ["hub", "stop", 3, "depot"]
    edge_labels = ["am", "pm", 0, 1]
    corpus = []
    for index in range(draw(st.integers(min_value=min_size, max_value=8))):
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


def benchmark_shaped_corpus(n_transactions: int, seed: int) -> list[LabeledGraph]:
    """Transactions of the FSG benchmark's shape: 8 to 14 vertices over
    three labels, a few more edges than vertices over four labels."""
    rng = random.Random(seed)
    corpus = []
    for index in range(n_transactions):
        n_vertices = rng.randint(8, 14)
        graph = LabeledGraph(name=f"t{index}")
        for v in range(n_vertices):
            graph.add_vertex(f"v{v}", rng.choice(["depot", "hub", "stop"]))
        n_edges = rng.randint(n_vertices, n_vertices + 6)
        while graph.n_edges < n_edges:
            a, b = rng.sample(range(n_vertices), 2)
            if not graph.has_edge(f"v{a}", f"v{b}"):
                graph.add_edge(f"v{a}", f"v{b}", f"w{rng.randrange(4)}")
        corpus.append(graph)
    return corpus


def _candidate(graph: LabeledGraph, engine: MatchEngine, parent_bits=None) -> Candidate:
    """*graph* as an integer candidate over *engine*'s table."""
    _, labels, edges, _ = labeled_to_wire(graph, engine.table)
    return Candidate(labels=labels, edges=tuple(edges), parent_bits=parent_bits)


def _hub_last(graph: LabeledGraph) -> LabeledGraph:
    """*graph* with its vertices inserted in reverse: a different layout."""
    clone = LabeledGraph(name=graph.name)
    for vertex in reversed(list(graph.vertices())):
        clone.add_vertex(vertex, graph.vertex_label(vertex))
    for edge in graph.edges():
        clone.add_edge(edge.source, edge.target, edge.label)
    return clone


def _layout(graph: LabeledGraph) -> tuple:
    """Everything iteration order exposes: name, labels, successors and
    predecessors, each in insertion order."""
    return (
        graph.name,
        list(graph._vertex_labels.items()),
        [(vertex, list(targets.items())) for vertex, targets in graph._succ.items()],
        [(vertex, list(sources.items())) for vertex, sources in graph._pred.items()],
    )


class TestSingleEdges:
    def test_single_edge_pattern_structure(self):
        engine = MatchEngine()
        intern = engine.table.intern
        candidate = Candidate(
            labels=(intern("place"), intern("place")), edges=((0, 1, intern(3)),)
        )
        pattern = candidate.to_pattern(engine.table)
        assert pattern.n_vertices == 2
        assert pattern.n_edges == 1
        assert pattern.edge_label("p0", "p1") == 3
        assert _layout(pattern) == _layout(single_edge_pattern("place", 3, "place"))
        assert candidate.wire() == ("edge-pattern", candidate.labels, candidate.edges, ("p0", "p1"))

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

    def test_self_loops_support_no_single_edge(self):
        # A self-loop cannot host the two vertices of a one-edge pattern.
        looped = LabeledGraph(name="looped")
        looped.add_vertex("a", "A")
        looped.add_vertex("b", "A")
        looped.add_edge("a", "a", "e")
        joined = looped.copy(name="joined")
        joined.add_edge("a", "b", "e")
        assert frequent_single_edges([looped, looped, joined], min_support=1) == {
            ("A", "e", "A"): frozenset({2})
        }

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
    """The labeled oracle's own extension rules."""

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


class TestOracleDeduplication:
    """The labeled oracle's own dedup rules."""

    def test_isomorphic_candidates_merged(self):
        # Merged duplicates scan only where every parent is supported.
        first = LabeledCandidate(pattern=hub_and_spoke(2, prefix="a"), parent_bits=bits_of([1, 2]))
        second = LabeledCandidate(pattern=hub_and_spoke(2, prefix="b"), parent_bits=bits_of([2, 3]))
        unique = fsg_oracle.deduplicate([first, second], MatchEngine())
        assert len(unique) == 1
        assert unique[0].parent_bits == bits_of([2])

    def test_distinct_candidates_kept(self):
        first = LabeledCandidate(pattern=hub_and_spoke(2), parent_bits=bits_of([1]))
        second = LabeledCandidate(pattern=chain(2), parent_bits=bits_of([1]))
        assert len(fsg_oracle.deduplicate([first, second], MatchEngine())) == 2


class TestDeduplication:
    def test_isomorphic_candidates_merged(self):
        # Two layouts of one star: merged, scanning where both parents are.
        engine = MatchEngine()
        star = hub_and_spoke(2)
        first = _candidate(star, engine, bits_of([1, 2]))
        second = _candidate(_hub_last(star), engine, bits_of([2, 3]))
        assert first.edges != second.edges
        unique = deduplicate([first, second], engine)
        assert unique == [first]
        assert first.parent_bits == bits_of([2])

    def test_distinct_candidates_kept(self):
        engine = MatchEngine()
        first = _candidate(hub_and_spoke(2), engine, bits_of([1]))
        second = _candidate(chain(2), engine, bits_of([1]))
        assert deduplicate([first, second], engine) == [first, second]

    def test_labels_whose_str_forms_match_stay_apart(self):
        # 1 and "1" print alike but are different labels.
        engine = MatchEngine()
        same = hub_and_spoke(2, edge_labels=[1, 1])
        mixed = hub_and_spoke(2, edge_labels=[1, "1"])
        candidates = [_candidate(same, engine), _candidate(mixed, engine)]
        assert deduplicate(candidates, engine) == candidates

    def test_generate_candidates_unique_up_to_isomorphism(self):
        engine = MatchEngine()
        intern = engine.table.intern
        place, label = intern("place"), intern(0)
        seed = Candidate(labels=(place, place), edges=((0, 1, label),), parent_bits=bits_of([0, 1]))
        candidates = generate_candidates([seed], [(place, label, place)], engine)
        patterns = [candidate.to_pattern(engine.table) for candidate in candidates]
        for i, first in enumerate(patterns):
            for second in patterns[i + 1:]:
                assert not are_isomorphic(first, second)
        # 2-edge connected patterns over one label: out-star, in-star, path, 2-cycle.
        assert len(candidates) == 4

    def test_generate_candidates_builds_no_index(self):
        # Candidates are compacted only by the session that counts them,
        # and become graphs only if they survive.
        engine = MatchEngine()
        intern = engine.table.intern
        triples = [
            (intern("place"), intern(0), intern("place")),
            (intern("place"), intern(1), intern("depot")),
        ]
        parents = [
            Candidate(labels=(source, target), edges=((0, 1, edge),), parent_bits=bits_of([0, 1]), uid=index)
            for index, (source, edge, target) in enumerate(triples)
        ]
        before = engine.stats.indexes_built
        candidates = generate_candidates(parents, triples, engine)
        assert candidates
        assert engine.stats.indexes_built == before
        assert all(candidate.pattern is None for candidate in candidates)


def _mine_against_oracle(corpus, min_support, max_edges) -> int:
    """Mine *corpus*, re-running every level's generation on the labeled
    oracle from the same parents, and compare the two level by level.

    Returns the number of unique candidates compared.
    """
    calls = []
    generate = miner_module.generate_candidates

    def recording(parents, triples, engine):
        triples = list(triples)
        seen = [(parent.labels, parent.edges, parent.parent_bits, parent.uid) for parent in parents]
        unique = generate(parents, triples, engine)
        calls.append((seen, triples, engine.table, unique))
        return unique

    with mock.patch.object(miner_module, "generate_candidates", recording):
        result = FSGMiner(min_support=min_support, max_edges=max_edges).mine(corpus)

    oracle_engine = MatchEngine()
    oracle_of_uid: dict = {}
    compared = 0
    for seen, triples, table, unique in calls:
        label = table.label
        oracle_parents = []
        for labels, edges, parent_bits, uid in seen:
            if uid in oracle_of_uid:
                pattern = oracle_of_uid[uid].pattern
            else:
                # A level-1 parent: its one edge.
                ((_, _, edge),) = edges
                pattern = single_edge_pattern(label(labels[0]), label(edge), label(labels[1]))
            oracle_parents.append(LabeledCandidate(pattern=pattern, parent_bits=parent_bits, uid=uid))
        raw = fsg_oracle.raw_candidates(
            oracle_parents, [tuple(label(part) for part in triple) for triple in triples]
        )
        expected = fsg_oracle.deduplicate(raw, oracle_engine)
        # The oracle lists classes bucket by bucket; first-seen order is
        # the order of each class's first raw candidate.
        first_seen = {id(candidate): index for index, candidate in enumerate(raw)}
        expected.sort(key=lambda candidate: first_seen[id(candidate)])
        assert len(unique) == len(expected)
        for got, want in zip(unique, expected):
            assert (got.parent_bits, got.parent_uid, got.extension) == (
                want.parent_bits,
                want.parent_uid,
                want.extension,
            )
            name, labels, edges, names = labeled_to_wire(want.pattern, table)
            assert got.wire() == (name, labels, tuple(edges), names)
            if got.pattern is not None:
                # A survivor: the same graph, down to iteration order.
                assert _layout(got.pattern) == _layout(want.pattern)
            oracle_of_uid[got.uid] = want
        compared += len(unique)

    # Level-1 survivors are the single-edge patterns themselves.
    for entry in result.patterns:
        if entry.n_edges == 1:
            (edge,) = entry.pattern.edges()
            expected_pattern = single_edge_pattern(
                entry.pattern.vertex_label(edge.source),
                edge.label,
                entry.pattern.vertex_label(edge.target),
            )
            assert _layout(entry.pattern) == _layout(expected_pattern)
    return compared


class TestIntegerGeneratorMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        corpus=labeled_corpora(min_size=1),
        min_support=st.integers(min_value=1, max_value=3),
    )
    def test_random_corpora(self, corpus, min_support):
        _mine_against_oracle(corpus, min_support, max_edges=3)

    def test_benchmark_shaped_corpus(self):
        corpus = benchmark_shaped_corpus(400, seed=20050405)
        assert _mine_against_oracle(corpus, min_support=0.05, max_edges=4) > 1000
