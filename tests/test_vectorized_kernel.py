"""Support-kernel edge cases, held against the legacy matcher.

The python scan behind :meth:`MatchEngine.support_with_embeddings` must
agree exactly with ``legacy_has_embedding`` on randomized multigraph
corpora, and keep doing so in the cases that are easy to get wrong: a
capped anchor store, empty and singleton supports, tid spaces crossing
the 64-bit word boundary, and engine state outliving
``release_transactions``.  (The module name is historical; it is kept
so that test ids stay stable.)

What is *not* asserted here: mid-scan abort timing or anchor-store
contents — ``tests/test_embedding_store.py`` pins those against its
transaction-major oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.engine import EmbeddingTask, MatchEngine
from repro.graphs.isomorphism import legacy_has_embedding
from repro.graphs.labeled_graph import LabeledGraph, LabeledMultiGraph
from repro.mining.fsg.miner import FSGMiner
from repro.runtime import bits_of, bits_to_buffer, tids_from_buffer, tids_of
from repro.runtime.bitsets import bits_to_span


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def multigraph_corpora(draw, max_transactions: int = 7):
    """A small corpus of simplified random multigraphs."""
    n_transactions = draw(st.integers(min_value=1, max_value=max_transactions))
    corpus = []
    for index in range(n_transactions):
        n_vertices = draw(st.integers(min_value=2, max_value=5))
        multigraph = LabeledMultiGraph(name=f"t{index}")
        for v in range(n_vertices):
            multigraph.add_vertex(f"v{v}", draw(st.sampled_from(["port", "yard"])))
        n_lanes = draw(st.integers(min_value=1, max_value=8))
        for _ in range(n_lanes):
            source = draw(st.integers(min_value=0, max_value=n_vertices - 1))
            target = draw(st.integers(min_value=0, max_value=n_vertices - 1))
            if source == target:
                continue
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                multigraph.add_edge(f"v{source}", f"v{target}", draw(st.sampled_from(["am", "pm"])))
        corpus.append(multigraph.simplify())
    return corpus


def _chain(name: str, labels: list[str], edge_label: str = "go") -> LabeledGraph:
    graph = LabeledGraph(name=name)
    for index, label in enumerate(labels):
        graph.add_vertex(f"v{index}", label)
    for index in range(len(labels) - 1):
        graph.add_edge(f"v{index}", f"v{index + 1}", edge_label)
    return graph


def _signature(result):
    return sorted(
        (
            entry.pattern.n_vertices,
            entry.pattern.n_edges,
            tuple(sorted(entry.supporting_transactions)),
        )
        for entry in result.patterns
    )


def _mine(corpus, anchor_cap: int = 8, min_support: int = 2, max_edges: int = 3):
    engine = MatchEngine(anchor_cap=anchor_cap)
    miner = FSGMiner(
        min_support=min_support,
        max_edges=max_edges,
        engine=engine,
    )
    return miner.mine(corpus)


def _legacy_supports(pattern, corpus) -> list[int]:
    return [
        tid for tid, transaction in enumerate(corpus) if legacy_has_embedding(pattern, transaction)
    ]


# ----------------------------------------------------------------------
# Differential properties: python kernel == legacy
# ----------------------------------------------------------------------
@given(corpus=multigraph_corpora())
@settings(max_examples=25, deadline=None)
def test_mining_differential_on_random_multigraph_corpora(corpus):
    """Every mined pattern's support equals the legacy matcher's."""
    for entry in _mine(corpus).patterns:
        assert sorted(entry.supporting_transactions) == _legacy_supports(entry.pattern, corpus)


@given(corpus=multigraph_corpora(), anchor_cap=st.integers(min_value=1, max_value=3))
@settings(max_examples=15, deadline=None)
def test_tiny_anchor_cap_never_changes_verdicts(corpus, anchor_cap):
    """A capped anchor store forces fallback paths; output must not move."""
    capped = _mine(corpus, anchor_cap=anchor_cap)
    assert _signature(capped) == _signature(_mine(corpus, anchor_cap=8))
    for entry in capped.patterns:
        assert sorted(entry.supporting_transactions) == _legacy_supports(entry.pattern, corpus)


@given(corpus=multigraph_corpora(max_transactions=4))
@settings(max_examples=15, deadline=None)
def test_task_level_differential_with_abort(corpus):
    """Raw support_with_embeddings batches agree with the legacy matcher.

    Without ``abort_below`` the tid lists must match exactly; with it,
    only the frequent verdict (and the full list of frequent tasks) is
    contractual: an aborted task returns a partial list.
    """
    patterns = [
        _chain("p1", ["port", "yard"]),
        _chain("p2", ["port", "yard", "port"]),
        _chain("p3", ["yard", "yard"], edge_label="pm"),
    ]

    def run(abort_below=None):
        engine = MatchEngine()
        tids = engine.add_transactions(corpus)
        tasks = [
            EmbeddingTask(pattern=pattern, tids=tids, uid=("p", index), abort_below=abort_below)
            for index, pattern in enumerate(patterns)
        ]
        return engine.support_with_embeddings(tasks)

    exact = run()
    for pattern, hits in zip(patterns, exact):
        assert hits == _legacy_supports(pattern, corpus)

    threshold = 2
    for full, aborted in zip(exact, run(abort_below=threshold)):
        if len(full) >= threshold:
            assert aborted == full
        else:
            assert len(aborted) < threshold


# ----------------------------------------------------------------------
# Edge cases: empty / singleton supports, tids across word boundaries
# ----------------------------------------------------------------------
def test_empty_and_singleton_supports():
    corpus = [_chain("only", ["port", "yard"])]
    absent = _chain("absent", ["dock", "dock"])
    present = _chain("present", ["port", "yard"])
    engine = MatchEngine()
    tids = engine.add_transactions(corpus)
    hits = engine.support_with_embeddings(
        [
            EmbeddingTask(pattern=absent, tids=tids, uid="absent"),
            EmbeddingTask(pattern=present, tids=tids, uid="present"),
            EmbeddingTask(pattern=present, tids=[], uid="no-tids"),
        ]
    )
    assert hits == [[], [0], []]


def test_supports_crossing_word_boundaries():
    """Corpora with > 64 transactions exercise multi-word tid spaces."""
    rng = random.Random(64)
    corpus = []
    for index in range(70):
        labels = ["port", "yard"] if rng.random() < 0.5 else ["yard", "port"]
        corpus.append(_chain(f"t{index}", labels))
    pattern = _chain("p", ["port", "yard"])
    oracle = _legacy_supports(pattern, corpus)
    assert any(tid >= 64 for tid in oracle)
    engine = MatchEngine()
    tids = engine.add_transactions(corpus)
    (hits,) = engine.support_with_embeddings([EmbeddingTask(pattern=pattern, tids=tids, uid="p")])
    assert hits == oracle


@given(
    tids=st.sets(st.integers(min_value=0, max_value=300), max_size=40),
    shift=st.sampled_from([0, 5, 64, 2048]),
)
@settings(max_examples=40, deadline=None)
def test_bitset_buffer_roundtrip(tids, shift):
    """Flat little-endian buffers round-trip tid sets across word edges,
    whole or with their leading zero bytes left out."""
    ordered = sorted(tid + shift for tid in tids)
    bits = bits_of(ordered)
    buffer = bits_to_buffer(bits)
    assert tids_from_buffer(buffer) == ordered
    assert tids_of(bits) == ordered
    offset, trimmed = bits_to_span(bits)
    assert tids_from_buffer(trimmed, offset) == ordered
    assert bits_to_buffer(bits) == bytes(offset) + trimmed


# ----------------------------------------------------------------------
# Invalidation: released transactions
# ----------------------------------------------------------------------
def test_release_transactions_invalidates_columns():
    """A released tid raises and frees its anchors; survivors still answer."""
    corpus = [_chain(f"t{index}", ["port", "yard", "port"]) for index in range(4)]
    pattern = _chain("p", ["port", "yard"])
    engine = MatchEngine()
    tids = engine.add_transactions(corpus)
    (before,) = engine.support_with_embeddings(
        [EmbeddingTask(pattern=pattern, tids=tids, uid="p")]
    )
    assert before == tids
    load = engine.anchor_load
    engine.release_transactions([1, 2])
    assert engine.anchor_load == load // 2
    with pytest.raises(KeyError):
        engine.support_with_embeddings([EmbeddingTask(pattern=pattern, tids=[1], uid="p2")])
    (after,) = engine.support_with_embeddings(
        [EmbeddingTask(pattern=pattern, tids=[0, 3], uid="p3")]
    )
    assert after == [0, 3]
