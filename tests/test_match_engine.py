"""Differential tests: the indexed MatchEngine against the legacy pure-python path.

The engine must be a drop-in replacement for the original dict-of-dicts
backtracking matcher: on randomized labeled graphs, embedding sets,
isomorphism verdicts, and support counts have to agree exactly.  The
legacy implementations are kept in :mod:`repro.graphs.isomorphism` as the
``legacy_*`` functions precisely so these tests have an oracle.
"""

from __future__ import annotations

import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.canonical import CanonicalizationError, canonical_code
from repro.graphs.compact import CompactGraph, LabelTable, labeled_to_wire
from repro.graphs.engine import EmbeddingTask, MatchEngine
from repro.graphs.index import GraphIndex
from repro.graphs.isomorphism import (
    legacy_are_isomorphic,
    legacy_find_embeddings,
    legacy_has_embedding,
)
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.candidates import Candidate, deduplicate


def _random_graph(
    rng: random.Random,
    n_vertices: int,
    n_edges: int,
    n_vertex_labels: int = 3,
    n_edge_labels: int = 3,
    prefix: str = "v",
) -> LabeledGraph:
    graph = LabeledGraph(name="random")
    for index in range(n_vertices):
        graph.add_vertex(f"{prefix}{index}", f"L{rng.randrange(n_vertex_labels)}")
    vertices = [f"{prefix}{i}" for i in range(n_vertices)]
    if n_vertices < 2:
        return graph
    for _ in range(n_edges * 3):
        if graph.n_edges >= n_edges:
            break
        source, target = rng.sample(vertices, 2)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target, f"e{rng.randrange(n_edge_labels)}")
    return graph


def _random_pattern(rng: random.Random, target: LabeledGraph, n_edges: int) -> LabeledGraph:
    """A small pattern grown from a random connected piece of *target*."""
    edges = list(target.edges())
    rng.shuffle(edges)
    if not edges:
        return LabeledGraph(name="empty-pattern")
    chosen = [edges[0]]
    covered = {edges[0].source, edges[0].target}
    for edge in edges[1:]:
        if len(chosen) >= n_edges:
            break
        if edge.source in covered or edge.target in covered:
            chosen.append(edge)
            covered.update((edge.source, edge.target))
    pattern = LabeledGraph(name="sampled-pattern")
    renamed = {vertex: f"p{index}" for index, vertex in enumerate(sorted(covered, key=str))}
    for vertex in covered:
        pattern.add_vertex(renamed[vertex], target.vertex_label(vertex))
    for edge in chosen:
        pattern.add_edge(renamed[edge.source], renamed[edge.target], edge.label)
    return pattern


def _embedding_set(mappings: list[dict]) -> set[frozenset]:
    return {frozenset(mapping.items()) for mapping in mappings}


class TestDifferentialEmbeddings:
    @pytest.mark.parametrize("seed", range(12))
    def test_embedding_sets_match_legacy(self, seed):
        rng = random.Random(seed)
        engine = MatchEngine()
        target = _random_graph(rng, n_vertices=rng.randint(5, 14), n_edges=rng.randint(4, 24))
        for trial in range(4):
            pattern = _random_pattern(rng, target, n_edges=rng.randint(1, 4))
            expected = _embedding_set(legacy_find_embeddings(pattern, target))
            actual = _embedding_set(engine.find_embeddings(pattern, target))
            assert actual == expected

    @pytest.mark.parametrize("seed", range(12, 20))
    def test_unrelated_pattern_verdicts_match_legacy(self, seed):
        rng = random.Random(seed)
        engine = MatchEngine()
        target = _random_graph(rng, n_vertices=10, n_edges=15)
        for trial in range(6):
            pattern = _random_graph(
                rng, n_vertices=rng.randint(2, 4), n_edges=rng.randint(1, 4), prefix="q"
            )
            assert engine.has_embedding(pattern, target) == legacy_has_embedding(pattern, target)

    def test_empty_pattern_and_empty_target(self):
        engine = MatchEngine()
        empty = LabeledGraph()
        target = _random_graph(random.Random(1), 5, 6)
        assert engine.find_embeddings(empty, target) == [{}]
        assert engine.has_embedding(empty, empty)
        assert engine.find_embeddings(target, empty) == []

    def test_max_count_limits_results(self):
        rng = random.Random(3)
        engine = MatchEngine()
        target = _random_graph(rng, 10, 20, n_vertex_labels=1, n_edge_labels=1)
        pattern = _random_pattern(rng, target, 1)
        limited = engine.find_embeddings(pattern, target, max_count=2)
        assert len(limited) == 2


class TestDifferentialIsomorphism:
    @pytest.mark.parametrize("seed", range(20, 32))
    def test_verdicts_match_legacy(self, seed):
        rng = random.Random(seed)
        engine = MatchEngine()
        first = _random_graph(rng, rng.randint(3, 8), rng.randint(2, 10))
        # A structure-preserving rename of `first` (always isomorphic).
        renamed = LabeledGraph(name="renamed")
        for vertex in first.vertices():
            renamed.add_vertex(("moved", vertex), first.vertex_label(vertex))
        for edge in first.edges():
            renamed.add_edge(("moved", edge.source), ("moved", edge.target), edge.label)
        # An independent random graph (usually not isomorphic).
        other = _random_graph(rng, rng.randint(3, 8), rng.randint(2, 10), prefix="w")
        for left, right in [(first, renamed), (first, other), (renamed, other)]:
            assert engine.are_isomorphic(left, right) == legacy_are_isomorphic(left, right)


def _support(engine, pattern, tids=None, abort_below=None) -> frozenset[int]:
    """*pattern*'s support over *tids* (default: every slot) in one level scan."""
    if tids is None:
        tids = range(engine.n_transactions)
    (hits,) = engine.support_with_embeddings(
        [EmbeddingTask(pattern=pattern, tids=list(tids), abort_below=abort_below)]
    )
    return frozenset(hits)


class TestDifferentialSupport:
    @pytest.mark.parametrize("seed", range(32, 38))
    def test_support_matches_legacy_scan(self, seed):
        rng = random.Random(seed)
        engine = MatchEngine()
        transactions = [
            _random_graph(rng, rng.randint(4, 10), rng.randint(3, 14), prefix=f"t{i}_")
            for i in range(12)
        ]
        engine.add_transactions(transactions)
        pattern = _random_pattern(rng, transactions[rng.randrange(len(transactions))], 2)
        expected = frozenset(
            tid
            for tid, transaction in enumerate(transactions)
            if legacy_has_embedding(pattern, transaction)
        )
        assert _support(engine, pattern) == expected
        restricted = sorted(expected)[: max(1, len(expected) // 2)]
        assert _support(engine, pattern, restricted) == frozenset(restricted) & expected

    def test_released_transactions_free_slots_but_keep_tids(self):
        rng = random.Random(5)
        engine = MatchEngine()
        first_batch = [_random_graph(rng, 6, 8, prefix=f"a{i}_") for i in range(4)]
        tids = engine.add_transactions(first_batch)
        pattern = _random_pattern(rng, first_batch[0], 1)
        _support(engine, pattern)
        engine.release_transactions(tids)
        with pytest.raises(KeyError):
            _support(engine, pattern, tids)
        with pytest.raises(KeyError):
            engine.transaction(tids[0])
        # New registrations get fresh tids after the released slots.
        second_batch = [_random_graph(rng, 6, 8, prefix=f"b{i}_") for i in range(2)]
        new_tids = engine.add_transactions(second_batch)
        assert min(new_tids) > max(tids)
        assert _support(engine, pattern, new_tids) == frozenset(
            tid
            for tid, transaction in zip(new_tids, second_batch)
            if legacy_has_embedding(pattern, transaction)
        )

    def test_negative_and_unknown_tids_raise(self):
        rng = random.Random(7)
        engine = MatchEngine()
        graphs = [_random_graph(rng, 6, 8, prefix=f"n{i}_") for i in range(3)]
        tids = engine.add_transactions(graphs)
        pattern = _random_pattern(rng, graphs[0], 1)
        # A negative tid never aliases the newest transaction.
        for bad in (-1, len(tids)):
            with pytest.raises(KeyError, match="unknown transaction id"):
                engine.transaction(bad)
            with pytest.raises(KeyError, match="unknown transaction id"):
                _support(engine, pattern, [tids[0], bad])

    def test_caller_tids_are_kept_and_must_rise(self):
        # A shard engine files transactions under the runtime's global
        # tids: gaps are allowed, reuse is not.
        rng = random.Random(17)
        engine = MatchEngine()
        graphs = [_random_graph(rng, 5, 6, prefix=f"g{i}_") for i in range(4)]
        compacts = [CompactGraph.from_labeled(graph, engine.table) for graph in graphs]
        assert engine.add_compact_transactions(compacts[:2], [4, 9]) == [4, 9]
        assert engine.transaction(9) is compacts[1]
        with pytest.raises(ValueError, match="tids only rise"):
            engine.add_compact_transactions(compacts[2:3], [9])
        with pytest.raises(ValueError, match="tids only rise"):
            engine.add_compact_transactions(compacts[2:4], [12, 11])
        assert engine.n_transactions == 2  # a rejected call registers nothing
        assert engine.add_compact_transactions(compacts[2:3]) == [10]
        engine.release_transactions([4])
        with pytest.raises(KeyError, match="released"):
            engine.transaction(4)
        for hole in (5, -1, 11):
            with pytest.raises(KeyError, match="unknown transaction id"):
                engine.transaction(hole)
        pattern = _random_pattern(rng, graphs[1], 1)
        with pytest.raises(KeyError, match="unknown transaction id 5"):
            _support(engine, pattern, [5, 9])
        assert _support(engine, pattern, [9, 10]) == frozenset(
            tid
            for tid, graph in ((9, graphs[1]), (10, graphs[2]))
            if legacy_has_embedding(pattern, graph)
        )

    def test_self_loop_beside_an_isolated_vertex_is_searched_not_seeded(self):
        # A parentless two-vertex, one-edge pattern whose edge is a
        # self-loop: seeding pairs distinct vertices only, so the full
        # search must answer it.
        pattern = LabeledGraph(name="loop")
        pattern.add_vertex("a", "A")
        pattern.add_vertex("b", "A")
        pattern.add_edge("a", "a", "e")
        plain = LabeledGraph(name="plain")
        plain.add_vertex("u", "A")
        plain.add_vertex("v", "A")
        plain.add_edge("u", "v", "e")
        looped = LabeledGraph(name="looped")
        looped.add_vertex("u", "A")
        looped.add_vertex("w", "A")
        looped.add_edge("u", "u", "e")
        engine = MatchEngine()
        tids = engine.add_transactions([plain, looped])
        (hits,) = engine.support_with_embeddings([EmbeddingTask(pattern, tids, uid="loop")])
        assert hits == [tids[1]]
        for tid, graph in zip(tids, (plain, looped)):
            assert (tid in hits) == engine.has_embedding(pattern, graph)
            assert (tid in hits) == legacy_has_embedding(pattern, graph)
        assert engine.stats.anchor_seeds == 0

    def test_support_early_abort_stops_short_of_threshold(self):
        rng = random.Random(13)
        engine = MatchEngine()
        transactions = [_random_graph(rng, 6, 8, prefix=f"t{i}_") for i in range(10)]
        tids = engine.add_transactions(transactions)
        pattern = LabeledGraph()
        pattern.add_vertex("p0", "absent-label")
        pattern.add_vertex("p1", "absent-label")
        pattern.add_edge("p0", "p1", "absent-edge")
        partial = _support(engine, pattern, tids, abort_below=len(tids) + 5)
        assert len(partial) < len(tids) + 5
        assert engine.stats.support_aborts >= 1
        # A reachable threshold leaves the result exact.
        assert _support(engine, pattern, tids, abort_below=1) == frozenset()

    def test_mutated_graph_is_reindexed(self):
        engine = MatchEngine()
        target = LabeledGraph()
        target.add_vertex("a", "L")
        target.add_vertex("b", "L")
        target.add_edge("a", "b", "e")
        pattern = LabeledGraph()
        pattern.add_vertex("p0", "L")
        pattern.add_vertex("p1", "L")
        pattern.add_edge("p0", "p1", "x")
        assert not engine.has_embedding(pattern, target)
        target.add_edge("a", "b", "x")  # overwrite the label; bumps the version
        assert engine.has_embedding(pattern, target)


class TestCompactRoundTrip:
    @pytest.mark.parametrize("seed", range(40, 46))
    def test_lossless_conversion(self, seed):
        rng = random.Random(seed)
        graph = _random_graph(rng, rng.randint(0, 9), rng.randint(0, 12))
        table = LabelTable()
        compact = CompactGraph.from_labeled(graph, table)
        rebuilt = compact.to_labeled()
        assert set(rebuilt.vertices()) == set(graph.vertices())
        assert {v: rebuilt.vertex_label(v) for v in rebuilt.vertices()} == {
            v: graph.vertex_label(v) for v in graph.vertices()
        }
        assert set(rebuilt.edges()) == set(graph.edges())

    def test_int_edge_keys_self_loops_and_wire(self):
        graph = LabeledGraph(name="loops")
        for vertex, label in [("a", "A"), ("b", "B"), ("c", "A")]:
            graph.add_vertex(vertex, label)
        graph.add_edge("a", "b", "x")
        graph.add_edge("a", "a", "z")
        graph.add_edge("b", "a", "y")
        graph.add_edge("c", "b", "x")
        graph.add_edge("c", "c", "y")
        table = LabelTable()
        compact = CompactGraph.from_labeled(graph, table)
        n = compact.n_vertices
        position = {"a": 0, "b": 1, "c": 2}
        expected = [
            (position[edge.source], position[edge.target], table.lookup(edge.label))
            for edge in graph.edges()
        ]
        # One int key per edge, source * n_vertices + target, so the map
        # is never tracked by the collector.
        assert compact.edge_label_of == {
            source * n + target: label for source, target, label in expected
        }
        assert not gc.is_tracked(compact.edge_label_of)
        assert compact.edge_triples() == expected
        assert compact.has_edge(0, 0) and compact.has_edge(2, 2)
        assert not compact.has_edge(1, 1) and not compact.has_edge(1, 2)
        # The wire is the (source, target, label) list it always was.
        wire = compact.to_wire()
        assert wire == ("loops", compact.vertex_labels, expected, ("a", "b", "c"))
        assert pickle.dumps(wire, 4) == pickle.dumps(
            ("loops", compact.vertex_labels, expected, ("a", "b", "c")), 4
        )
        rebuilt = CompactGraph.from_wire(wire, table)
        assert rebuilt.edge_label_of == compact.edge_label_of
        assert rebuilt.to_wire() == wire
        assert pickle.loads(pickle.dumps(compact)).to_wire() == wire
        assert set(compact.to_labeled().edges()) == set(graph.edges())
        assert set(compact.edges()) == set(graph.edges())

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_vertices=st.integers(min_value=0, max_value=9),
        n_edges=st.integers(min_value=0, max_value=14),
        self_loops=st.integers(min_value=0, max_value=3),
    )
    def test_labeled_to_wire_matches_the_compacted_wire(
        self, seed, n_vertices, n_edges, self_loops
    ):
        rng = random.Random(seed)
        graph = _random_graph(rng, n_vertices, n_edges)
        vertices = list(graph.vertices())
        for _ in range(self_loops if vertices else 0):
            vertex = rng.choice(vertices)
            graph.add_edge(vertex, vertex, rng.choice(["x", 7]))
        built, compacted, reference = LabelTable(), LabelTable(), LabelTable()
        wire = labeled_to_wire(graph, built)
        # Reference: intern vertex labels, then edge labels in edges()
        # order, and let CompactGraph lay the wire out.
        position = {vertex: index for index, vertex in enumerate(vertices)}
        expected = CompactGraph(
            graph.name,
            [reference.intern(graph.vertex_label(vertex)) for vertex in vertices],
            [
                (position[edge.source], position[edge.target], reference.intern(edge.label))
                for edge in graph.edges()
            ],
            vertices,
            reference,
        ).to_wire()
        assert wire == expected
        assert wire == CompactGraph.from_labeled(graph, compacted).to_wire()
        assert pickle.dumps(wire, 4) == pickle.dumps(expected, 4)
        assert built.snapshot() == compacted.snapshot() == reference.snapshot()

    def test_shared_table_interning(self):
        table = LabelTable()
        first = table.intern("A")
        assert table.intern("A") == first
        assert table.lookup("missing") is None
        assert table.label(first) == "A"


def _benchmark_shaped_corpus(n_transactions: int, seed: int) -> list[LabeledGraph]:
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


class TestTransactionLayout:
    def test_registration_barely_grows_the_tracked_heap(self):
        # A registered transaction is its CompactGraph: tuples of ints,
        # which the collector untracks, and an int-keyed edge map it
        # never tracks.  Full collections walk every tracked object, so
        # this is what a mine's registration costs each one.
        corpus = _benchmark_shaped_corpus(500, seed=3)
        engine = MatchEngine()
        gc.collect()
        before = len(gc.get_objects())
        engine.add_transactions(corpus)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert grown <= 2 * len(corpus)

    def test_transaction_index_is_built_by_a_full_search_only(self):
        corpus = _benchmark_shaped_corpus(4, seed=5)
        engine = MatchEngine()
        tids = engine.add_transactions(corpus)
        assert engine.stats.indexes_built == 0
        # Seeding a single edge reads the snapshots, and checking tids
        # (the scan's ends, transaction(), release) builds nothing.
        edge = next(iter(corpus[0].edges()))
        seed = LabeledGraph(name="edge")
        seed.add_vertex("p0", corpus[0].vertex_label(edge.source))
        seed.add_vertex("p1", corpus[0].vertex_label(edge.target))
        seed.add_edge("p0", "p1", edge.label)
        (hits,) = engine.support_with_embeddings([EmbeddingTask(pattern=seed, tids=tids)])
        assert tids[0] in hits
        engine.transaction(tids[1])
        engine.release_transactions([tids[3]])
        assert engine._transaction_indexes == {}
        assert engine.stats.indexes_built == 1  # the pattern's
        # A two-edge pattern with no parent is searched in full: the
        # searched transaction gets an index, reused by the next search.
        path = _random_pattern(random.Random(1), corpus[1], 2)
        assert _support(engine, path, [tids[1]]) == {tids[1]}
        index = engine._transaction_indexes[tids[1]]
        assert index.compact is engine.transaction(tids[1])
        assert engine.stats.indexes_built == 3
        assert _support(engine, path, [tids[1]]) == {tids[1]}
        assert engine._transaction_indexes == {tids[1]: index}
        assert engine.stats.indexes_built == 3
        # Releasing the tid drops its index.
        engine.release_transactions([tids[1]])
        assert engine._transaction_indexes == {}


class TestIndexMemoization:
    def test_invariant_and_code_memoized(self):
        rng = random.Random(7)
        graph = _random_graph(rng, 5, 6)
        index = GraphIndex(CompactGraph.from_labeled(graph, LabelTable()))
        assert index.invariant() is index.invariant()
        assert index.canonical() == canonical_code(graph)

    def test_canonicalization_error_memoized(self):
        hub = LabeledGraph()
        hub.add_vertex("h", "hub")
        for spoke in range(9):
            hub.add_vertex(f"s{spoke}", "spoke")
            hub.add_edge("h", f"s{spoke}", "e")
        index = GraphIndex(CompactGraph.from_labeled(hub, LabelTable()))
        with pytest.raises(CanonicalizationError):
            index.canonical()
        with pytest.raises(CanonicalizationError):
            index.canonical()  # second probe reuses the memoized failure


class TestSymmetricDeduplication:
    def _symmetric_star(self, prefix: str) -> LabeledGraph:
        """A 9-spoke uniform star: 9! colour orderings defeat canonicalisation."""
        star = LabeledGraph(name=f"{prefix}-star")
        star.add_vertex(f"{prefix}h", "hub")
        for spoke in range(9):
            star.add_vertex(f"{prefix}s{spoke}", "spoke")
            star.add_edge(f"{prefix}h", f"{prefix}s{spoke}", "e")
        return star

    def test_dedup_survives_canonicalization_error(self):
        engine = MatchEngine()
        first = self._symmetric_star("a")
        second = self._symmetric_star("b")
        with pytest.raises(CanonicalizationError):
            engine.canonical_code(first)
        merged = deduplicate(
            [
                Candidate(pattern=first, parent_bits=0b011),
                Candidate(pattern=second, parent_bits=0b110),
            ],
            engine=engine,
        )
        assert len(merged) == 1
        assert merged[0].parent_bits == 0b010

    def test_dedup_keeps_nonisomorphic_symmetric_patterns(self):
        engine = MatchEngine()
        star = self._symmetric_star("a")
        other = self._symmetric_star("b")
        other.add_edge("bs0", "bs1", "x")  # break isomorphism, keep symmetry high
        merged = deduplicate(
            [
                Candidate(pattern=star, parent_bits=0b01),
                Candidate(pattern=other, parent_bits=0b10),
            ],
            engine=engine,
        )
        assert len(merged) == 2
