"""Tests for the incremental embedding store and bitset TID algebra.

The store answers level-(k+1) support queries by extending stored
level-k embeddings; everything here verifies the one property that
matters — anchors change wall-clock, never verdicts — plus the cap /
budget / lifecycle plumbing that keeps the store bounded.

:func:`transaction_major_supports` is the oracle for the engine's
pattern-major scan: the same anchor extension, seeding and fallback
logic, walked transaction by transaction through per-pair helper calls.
The two must agree on tid lists, stored anchors, their completeness,
store load and every engine counter.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.compact import CompactGraph, LabelTable
from repro.graphs.engine import EmbeddingTask, MatchEngine
from repro.graphs.isomorphism import legacy_find_embeddings, legacy_has_embedding
from repro.graphs.labeled_graph import LabeledGraph, LabeledMultiGraph
from repro.mining.fsg.miner import FSGMiner
from repro.runtime import SerialRuntime, ShardedEngine
from repro.runtime.bitsets import bits_of, is_contiguous, popcount, shift_bits, tids_of

from conftest import embedding_task, level_request


def _random_corpus(seed: int, n: int = 40) -> list[LabeledGraph]:
    rng = random.Random(seed)
    vertex_labels = ["a", "b", "c"]
    edge_labels = ["x", "y"]
    corpus: list[LabeledGraph] = []
    for index in range(n):
        graph = LabeledGraph(name=f"t{index}")
        n_vertices = rng.randint(5, 9)
        for vertex in range(n_vertices):
            graph.add_vertex(f"v{vertex}", rng.choice(vertex_labels))
        n_edges = rng.randint(n_vertices, n_vertices + 5)
        added = 0
        while added < n_edges:
            source, target = rng.sample(range(n_vertices), 2)
            if graph.has_edge(f"v{source}", f"v{target}"):
                continue
            graph.add_edge(f"v{source}", f"v{target}", rng.choice(edge_labels))
            added += 1
        corpus.append(graph)
    return corpus


def _signature(result):
    return sorted(
        (
            entry.pattern.n_vertices,
            entry.pattern.n_edges,
            tuple(sorted(entry.supporting_transactions)),
        )
        for entry in result.patterns
    )


def _edge_pattern() -> LabeledGraph:
    pattern = LabeledGraph(name="parent")
    pattern.add_vertex("p0", "a")
    pattern.add_vertex("p1", "b")
    pattern.add_edge("p0", "p1", "x")
    return pattern


def _extended_pattern() -> LabeledGraph:
    """The parent plus one forward edge ``p1 -y-> p2(c)``."""
    pattern = _edge_pattern()
    pattern.add_vertex("p2", "c")
    pattern.add_edge("p1", "p2", "y")
    return pattern


# ----------------------------------------------------------------------
# The transaction-major oracle
# ----------------------------------------------------------------------
class _OracleTask:
    """Per-task scan state of the transaction-major oracle."""

    def __init__(self, index, task: EmbeddingTask) -> None:
        self.index = index
        self.task = task
        self.hits: list[int] = []
        self.remaining = 0
        self.dead = False
        self.parent_entries = None
        self.parent_capped = frozenset()


def transaction_major_supports(engine: MatchEngine, tasks) -> list[list[int]]:
    """``engine.support_with_embeddings(tasks)``, scanned transaction-major.

    Every live task is visited per tid in ascending tid order, and each
    ``(task, tid)`` pair goes through :func:`_incremental_exists`.  Reads
    and writes the same engine state as the production scan — anchors,
    capped tids, store load, lazily built transaction indexes, counters —
    so both can be run on twin engines and compared field by field.
    """
    infos = [_OracleTask(engine._pattern_index(task.pattern), task) for task in tasks]
    stats = engine.stats
    stats.batch_calls += 1
    stats.batch_patterns += len(infos)
    per_tid: dict[int, list[int]] = {}
    for position, info in enumerate(infos):
        tids = list(info.task.tids)
        info.remaining = len(tids)
        abort_below = info.task.abort_below
        if abort_below is not None and info.remaining < abort_below:
            info.dead = True
            stats.support_aborts += 1
            continue
        if info.task.parent_uid is not None:
            info.parent_entries = engine._anchors.get(info.task.parent_uid)
            info.parent_capped = engine._capped.get(info.task.parent_uid, frozenset())
        for tid in tids:
            per_tid.setdefault(tid, []).append(position)

    for tid in sorted(per_tid):
        target = None
        for position in per_tid[tid]:
            info = infos[position]
            if info.dead:
                continue
            info.remaining -= 1
            if target is None:
                target = engine.transaction(tid)
            if _incremental_exists(engine, info, tid, target):
                info.hits.append(tid)
            abort_below = info.task.abort_below
            if abort_below is not None and len(info.hits) + info.remaining < abort_below:
                info.dead = True
                stats.support_aborts += 1
    return [info.hits for info in infos]


def _incremental_exists(engine, info: _OracleTask, tid, target) -> bool:
    """One (task, tid) verdict: extend anchors, seed, or fall back."""
    task = info.task
    pattern = info.index.compact
    if pattern.n_vertices == 0:
        return True
    if task.extension is not None and info.parent_entries is not None:
        parent_entry = info.parent_entries.get(tid)
        if parent_entry is not None:
            engine.stats.anchor_extensions += 1
            parent_complete = tid not in info.parent_capped
            found, embeddings, complete = _extend_anchors(
                engine, pattern, task.extension, parent_entry, parent_complete, target
            )
            if found:
                _store_anchors(engine, task.uid, tid, embeddings, complete)
                return True
            if parent_complete:
                engine.stats.anchor_complete_rejects += 1
                return False
    if (
        pattern.n_edges == 1
        and pattern.n_vertices == 2
        and task.extension is None
        and pattern.edge_triples()[0][0] != pattern.edge_triples()[0][1]
    ):
        # A one-edge pattern is seeded only when its edge joins its two
        # vertices; a self-loop beside an isolated vertex is searched.
        return _seed_single_edge(engine, info, tid, target)
    engine.stats.anchor_fallbacks += 1
    t_index = engine._transaction_index(tid, target)
    results = engine._compact_embeddings(info.index, t_index, max_count=engine.anchor_cap)
    if not results:
        return False
    embeddings = tuple(
        tuple(mapping[p_vertex] for p_vertex in range(pattern.n_vertices))
        for mapping in results
    )
    _store_anchors(engine, task.uid, tid, embeddings, len(results) < engine.anchor_cap)
    return True


def _edge_label(graph: CompactGraph, source: int, target: int):
    """The label id of the edge ``source -> target``, or ``None``."""
    for edge_source, edge_target, label_id in graph.edge_triples():
        if (edge_source, edge_target) == (source, target):
            return label_id
    return None


def _extend_anchors(engine, pattern, extension, parent_entry, parent_complete, target):
    """All (capped) one-edge extensions of the parent's anchors."""
    src_pos, dst_pos, has_new = extension
    edge_label = _edge_label(pattern, src_pos, dst_pos)
    cap = engine.anchor_cap
    out: list[tuple[int, ...]] = []
    capped = False
    if not has_new:
        for anchor in parent_entry:
            if _edge_label(target, anchor[src_pos], anchor[dst_pos]) == edge_label:
                out.append(anchor)
                if len(out) >= cap:
                    capped = True
                    break
    else:
        new_pos = pattern.n_vertices - 1
        new_label = pattern.vertex_labels[new_pos]
        if dst_pos == new_pos:
            adjacency, anchor_pos = target.out_adj, src_pos
        else:
            adjacency, anchor_pos = target.in_adj, dst_pos
        for anchor in parent_entry:
            for neighbour, label in adjacency[anchor[anchor_pos]]:
                if (
                    label == edge_label
                    and target.vertex_labels[neighbour] == new_label
                    and neighbour not in anchor
                ):
                    out.append(anchor + (neighbour,))
                    if len(out) >= cap:
                        capped = True
                        break
            if capped:
                break
    return bool(out), tuple(out), parent_complete and not capped


def _seed_single_edge(engine, info: _OracleTask, tid, target) -> bool:
    """Anchor a one-edge pattern from the transaction's labelled edges.

    The edges are taken in adjacency order: by source vertex, and in
    insertion order from each source (a stable sort of the edge list).
    """
    engine.stats.anchor_seeds += 1
    pattern = info.index.compact
    ((src_pos, dst_pos, edge_label),) = pattern.edge_triples()
    labels = target.vertex_labels
    pairs = [
        (source, dest)
        for source, dest, label in sorted(target.edge_triples(), key=lambda edge: edge[0])
        if label == edge_label
        and labels[source] == pattern.vertex_labels[src_pos]
        and labels[dest] == pattern.vertex_labels[dst_pos]
        and source != dest
    ]
    if not pairs:
        return False
    embedding_at = [0, 0]
    embeddings = []
    for t_src, t_dst in pairs[: engine.anchor_cap]:
        embedding_at[src_pos] = t_src
        embedding_at[dst_pos] = t_dst
        embeddings.append(tuple(embedding_at))
    _store_anchors(
        engine, info.task.uid, tid, tuple(embeddings), len(pairs) <= engine.anchor_cap
    )
    return True


def _store_anchors(engine, uid, tid, embeddings, complete) -> None:
    """Record *embeddings* under ``(uid, tid)`` if the budget allows."""
    if uid is None or not embeddings:
        return
    if engine._anchor_load + len(embeddings) > engine.anchor_budget:
        return
    per_tid = engine._anchors.setdefault(uid, {})
    previous = per_tid.get(tid)
    if previous is not None:
        engine._anchor_load -= len(previous)
    per_tid[tid] = embeddings
    if complete:
        engine._capped.get(uid, set()).discard(tid)
    else:
        engine._capped.setdefault(uid, set()).add(tid)
    engine._anchor_load += len(embeddings)
    engine.stats.anchors_stored += len(embeddings)


# ----------------------------------------------------------------------
# Random chained level batches
# ----------------------------------------------------------------------
VERTEX_LABELS = ["port", "yard"]
EDGE_LABELS = ["am", "pm"]


@st.composite
def multigraph_corpora(draw, max_transactions: int = 7):
    """A small corpus of simplified random multigraphs.

    Up to 8 vertices and 16 lanes over two labels each, so a pattern
    often has more embeddings than a small ``anchor_cap`` keeps.
    """
    n_transactions = draw(st.integers(min_value=1, max_value=max_transactions))
    corpus = []
    for index in range(n_transactions):
        n_vertices = draw(st.integers(min_value=2, max_value=8))
        multigraph = LabeledMultiGraph(name=f"t{index}")
        for v in range(n_vertices):
            multigraph.add_vertex(f"v{v}", draw(st.sampled_from(VERTEX_LABELS)))
        for _ in range(draw(st.integers(min_value=1, max_value=16))):
            source = draw(st.integers(min_value=0, max_value=n_vertices - 1))
            target = draw(st.integers(min_value=0, max_value=n_vertices - 1))
            if source == target:
                continue
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                multigraph.add_edge(
                    f"v{source}", f"v{target}", draw(st.sampled_from(EDGE_LABELS))
                )
        corpus.append(multigraph.simplify())
    return corpus


def _one_edge_extension(parent: LabeledGraph, rng: random.Random, name: str):
    """*parent* plus one random edge, with its extension descriptor.

    Compact positions follow vertex insertion order, and a new vertex is
    appended last, so positions in the descriptor are list indexes.
    """
    vertices = list(parent.vertices())
    n = len(vertices)
    child = parent.copy(name=name)
    label = rng.choice(EDGE_LABELS)
    missing = [
        (source, target)
        for source in range(n)
        for target in range(n)
        if source != target and not parent.has_edge(vertices[source], vertices[target])
    ]
    if missing and rng.random() < 0.4:
        source, target = rng.choice(missing)
        child.add_edge(vertices[source], vertices[target], label)
        return child, (source, target, False)
    child.add_vertex(f"n{n}", rng.choice(VERTEX_LABELS))
    anchor = rng.randrange(n)
    if rng.random() < 0.5:
        child.add_edge(vertices[anchor], f"n{n}", label)
        return child, (anchor, n, True)
    child.add_edge(f"n{n}", vertices[anchor], label)
    return child, (n, anchor, True)


def _grown_extension(parent: LabeledGraph, host: LabeledGraph, rng, name: str):
    """*parent* plus one edge *host* realises next to an embedding of it.

    Returns ``(child, extension)`` like :func:`_one_edge_extension`, or
    ``None`` when *parent* does not embed in *host* or no host edge
    touches the chosen embedding.
    """
    embeddings = legacy_find_embeddings(parent, host, max_count=8)
    if not embeddings:
        return None
    pattern_of = {image: vertex for vertex, image in rng.choice(embeddings).items()}
    position = {vertex: index for index, vertex in enumerate(parent.vertices())}
    options = []
    for edge in host.edges():
        source = pattern_of.get(edge.source)
        target = pattern_of.get(edge.target)
        if source is not None and target is not None:
            if not parent.has_edge(source, target):
                options.append((source, target, None, edge.label))
        elif source is not None:
            options.append((source, None, host.vertex_label(edge.target), edge.label))
        elif target is not None:
            options.append((None, target, host.vertex_label(edge.source), edge.label))
    if not options:
        return None
    source, target, new_label, label = rng.choice(options)
    child = parent.copy(name=name)
    n = len(position)
    if new_label is None:
        child.add_edge(source, target, label)
        return child, (position[source], position[target], False)
    child.add_vertex(f"n{n}", new_label)
    if target is None:
        child.add_edge(source, f"n{n}", label)
        return child, (position[source], n, True)
    child.add_edge(f"n{n}", target, label)
    return child, (n, position[target], True)


def _chained_levels(engine, corpus, rng: random.Random, n_levels: int, abort: bool):
    """Task factories for *n_levels* chained batches over *corpus*.

    Level 1 seeds single-edge patterns; every later level extends the
    previous level's patterns by one edge.  Scan sets are mostly the
    parent's hits, sometimes every tid (so some tids have no parent
    entry), and a few tasks are anonymous, search without a derivation,
    or name a parent that stored nothing.  Returns one callable per
    level mapping the previous level's ``(pattern, task, hits)`` triples
    to ``(pattern, task)`` pairs, each task compacted through *engine*'s
    table.
    """
    all_tids = list(range(len(corpus)))

    def threshold(tids):
        return rng.randint(1, len(tids) + 1) if abort and rng.random() < 0.7 else None

    def seeds(_previous):
        tasks = []
        for index in range(rng.randint(1, 4)):
            # Mostly an edge some transaction has, sometimes any triple.
            host = rng.choice(corpus)
            edges = list(host.edges())
            if edges and rng.random() < 0.8:
                edge = rng.choice(edges)
                labels = (
                    host.vertex_label(edge.source), host.vertex_label(edge.target), edge.label
                )
            else:
                labels = (
                    rng.choice(VERTEX_LABELS), rng.choice(VERTEX_LABELS), rng.choice(EDGE_LABELS)
                )
            pattern = LabeledGraph(name=f"s{index}")
            pattern.add_vertex("a", labels[0])
            pattern.add_vertex("b", labels[1])
            pattern.add_edge("a", "b", labels[2])
            uid = None if rng.random() < 0.1 else ("L1", index)
            task = embedding_task(engine, pattern, all_tids, uid=uid,
                                  abort_below=threshold(all_tids))
            tasks.append((pattern, task))
        return tasks

    def extensions(level):
        def build(previous):
            tasks = []
            for position, (parent, parent_task, hits) in enumerate(previous):
                for offset in range(rng.randint(1, 2)):
                    name = f"L{level}-{position}-{offset}"
                    grown = None
                    if hits and rng.random() < 0.8:
                        host = corpus[rng.choice(hits)]
                        grown = _grown_extension(parent, host, rng, name)
                    child, extension = grown or _one_edge_extension(parent, rng, name)
                    tids = all_tids if rng.random() < 0.25 else hits
                    parent_uid = parent_task.uid
                    roll = rng.random()
                    if roll < 0.1:
                        parent_uid, extension = None, None
                    elif roll < 0.15:
                        parent_uid = ("ghost", level)
                    uid = None if rng.random() < 0.1 else (f"L{level}", position, offset)
                    task = embedding_task(
                        engine, child, tids, uid=uid, parent_uid=parent_uid,
                        extension=extension, abort_below=threshold(tids),
                    )
                    tasks.append((child, task))
            return tasks
        return build

    return [seeds] + [extensions(level) for level in range(2, n_levels + 1)]


def _twin_engines(corpus, **engine_options):
    """Two engines over one label table, so one compact task serves both."""
    table = LabelTable()
    fast = MatchEngine(table, **engine_options)
    oracle = MatchEngine(table, **engine_options)
    fast.add_transactions(corpus)
    oracle.add_transactions(corpus)
    return fast, oracle


def _run_chain(corpus, rng, fast, oracle, n_levels, abort, check_state=True):
    previous = None
    for build in _chained_levels(fast, corpus, rng, n_levels, abort):
        level = build(previous)
        tasks = [task for _, task in level]
        got = fast.support_with_embeddings(tasks)
        want = transaction_major_supports(oracle, tasks)
        assert got == want
        if check_state:
            assert fast._anchors == oracle._anchors
            assert fast._capped == oracle._capped
            assert fast._transaction_indexes.keys() == oracle._transaction_indexes.keys()
            assert fast.anchor_load == oracle.anchor_load
            assert fast.stats == oracle.stats
        if not abort:
            for (pattern, task), hits in zip(level, got):
                assert hits == [
                    tid for tid in sorted(task.tids)
                    if legacy_has_embedding(pattern, corpus[tid])
                ]
        previous = [(pattern, task, hits) for (pattern, task), hits in zip(level, got)]


@given(
    corpus=multigraph_corpora(),
    seed=st.integers(min_value=0, max_value=10_000),
    anchor_cap=st.integers(min_value=1, max_value=8),
    n_levels=st.integers(min_value=2, max_value=3),
    abort=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_pattern_major_scan_matches_transaction_major_oracle(
    corpus, seed, anchor_cap, n_levels, abort
):
    """Tid lists, anchor entries, store load and every counter agree."""
    fast, oracle = _twin_engines(corpus, anchor_cap=anchor_cap)
    _run_chain(corpus, random.Random(seed), fast, oracle, n_levels, abort)


@given(
    corpus=multigraph_corpora(),
    seed=st.integers(min_value=0, max_value=10_000),
    anchor_budget=st.integers(min_value=1, max_value=5),
    abort=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_binding_anchor_budget_keeps_tid_lists(corpus, seed, anchor_budget, abort):
    """A binding budget stores in a different order; verdicts must not move."""
    fast, oracle = _twin_engines(corpus, anchor_cap=2, anchor_budget=anchor_budget)
    _run_chain(corpus, random.Random(seed), fast, oracle, 3, abort, check_state=False)
    assert fast.anchor_load <= anchor_budget


class TestBitsets:
    def test_round_trip_and_popcount(self):
        tids = [0, 3, 17, 64, 130]
        bits = bits_of(tids)
        assert tids_of(bits) == tids
        assert popcount(bits) == len(tids)
        assert bits_of([]) == 0 and tids_of(0) == []

    def test_set_algebra_matches_frozensets(self):
        first, second = {1, 4, 9, 70}, {4, 9, 12}
        assert tids_of(bits_of(first) & bits_of(second)) == sorted(first & second)
        assert tids_of(bits_of(first) | bits_of(second)) == sorted(first | second)

    def test_shift_and_translate(self):
        bits = bits_of([2, 5])
        assert tids_of(shift_bits(bits, 10)) == [12, 15]
        assert tids_of(shift_bits(shift_bits(bits, 10), -10)) == [2, 5]
        assert is_contiguous([7, 8, 9]) and not is_contiguous([7, 9])
        assert is_contiguous([])


def _store_starved(corpus, **options):
    """The store-off reference: mine with ``MatchEngine(anchor_budget=0)``.

    A zero budget stores no anchor, so every query past the seeded single
    edges takes the full indexed search.  Every support set is checked
    against a per-tid ``legacy_has_embedding`` scan on the way out.
    """
    engine = MatchEngine(anchor_budget=0)
    result = FSGMiner(runtime=SerialRuntime(engine=engine), **options).mine(corpus)
    assert engine.stats.anchors_stored == engine.stats.anchor_extensions == 0
    assert engine.stats.anchor_fallbacks > 0
    for entry in result.patterns:
        assert sorted(entry.supporting_transactions) == [
            tid
            for tid, transaction in enumerate(corpus)
            if legacy_has_embedding(entry.pattern, transaction)
        ]
    return result


class TestMiningEquivalence:
    @pytest.mark.parametrize("seed", [11, 29])
    def test_store_on_equals_store_off_serial(self, seed):
        corpus = _random_corpus(seed)
        on = FSGMiner(min_support=0.15, max_edges=4).mine(corpus)
        off = _store_starved(corpus, min_support=0.15, max_edges=4)
        assert _signature(on) == _signature(off)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_store_on_equals_store_off_sharded(self, shards):
        corpus = _random_corpus(5)
        reference = _store_starved(corpus, min_support=0.15, max_edges=4)
        runtime = ShardedEngine(shards=shards, backend="serial")
        try:
            sharded = FSGMiner(min_support=0.15, max_edges=4, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        assert _signature(sharded) == _signature(reference)

    def test_tiny_caps_force_fallback_but_not_divergence(self):
        # anchor_cap=1 overflows every multi-embedding anchor set and
        # anchor_budget=3 spills almost everything; support must not care.
        corpus = _random_corpus(17)
        engine = MatchEngine(anchor_cap=1, anchor_budget=3)
        runtime = SerialRuntime(engine=engine)
        capped = FSGMiner(min_support=0.15, max_edges=3, runtime=runtime).mine(corpus)
        reference = _store_starved(corpus, min_support=0.15, max_edges=3)
        assert _signature(capped) == _signature(reference)
        assert engine.stats.anchor_fallbacks > 0

    def test_anchors_are_retired_after_the_run(self):
        engine = MatchEngine()
        runtime = SerialRuntime(engine=engine)
        FSGMiner(min_support=0.2, max_edges=3, runtime=runtime).mine(
            _random_corpus(23)
        )
        assert engine.anchor_load == 0


class TestExtensionPaths:
    def _host(self) -> LabeledGraph:
        """Two disjoint a-x->b edges; only the second continues b-y->c."""
        host = LabeledGraph(name="host")
        for name, label in [
            ("u0", "a"), ("u1", "b"), ("u2", "a"), ("u3", "b"), ("u4", "c"),
        ]:
            host.add_vertex(name, label)
        host.add_edge("u0", "u1", "x")
        host.add_edge("u2", "u3", "x")
        host.add_edge("u3", "u4", "y")
        return host

    def test_capped_anchor_miss_falls_back_to_full_search(self):
        # With anchor_cap=1 only the first a-x->b embedding (u0, u1) is
        # stored, and it does not extend by y; the incomplete anchor set
        # must trigger the fallback, which finds the (u2, u3, u4) match.
        engine = MatchEngine(anchor_cap=1)
        (tid,) = engine.add_transactions([self._host()])
        parent, child = _edge_pattern(), _extended_pattern()
        assert engine.support_with_embeddings(
            [embedding_task(engine, parent, [tid], uid="parent")]
        ) == [[tid]]
        before = engine.stats.anchor_fallbacks
        result = engine.support_with_embeddings(
            [
                embedding_task(
                    engine,
                    child,
                    [tid],
                    uid="child",
                    parent_uid="parent",
                    extension=(1, 2, True),
                )
            ]
        )
        assert result == [[tid]]
        assert engine.stats.anchor_fallbacks > before
        assert legacy_has_embedding(child, self._host())

    def test_complete_anchor_miss_is_a_definitive_no(self):
        # With a roomy cap the parent's anchor set is complete, so a
        # child that extends nowhere is rejected without any search.
        host = self._host()
        host.remove_edge("u3", "u4")
        engine = MatchEngine(anchor_cap=8)
        (tid,) = engine.add_transactions([host])
        parent, child = _edge_pattern(), _extended_pattern()
        engine.support_with_embeddings(
            [embedding_task(engine, parent, [tid], uid="parent")]
        )
        before = engine.stats.anchor_fallbacks
        result = engine.support_with_embeddings(
            [
                embedding_task(
                    engine,
                    child,
                    [tid],
                    uid="child",
                    parent_uid="parent",
                    extension=(1, 2, True),
                )
            ]
        )
        assert result == [[]]
        assert engine.stats.anchor_fallbacks == before
        assert engine.stats.anchor_complete_rejects > 0

    def test_incomplete_parent_never_yields_complete_child(self):
        # Three a-x->b edges; anchor_cap=2 keeps the first two, so the
        # parent's set is incomplete.  The child b-y->c extends only the
        # first anchor without filling the cap — its set must still be
        # incomplete, or the grandchild c-z->d (present only past the
        # third edge) would be wrongly rejected.
        host = LabeledGraph(name="host")
        for index in range(3):
            host.add_vertex(f"a{index}", "a")
            host.add_vertex(f"b{index}", "b")
            host.add_vertex(f"c{index}", "c")
            host.add_edge(f"a{index}", f"b{index}", "x")
        host.add_edge("b0", "c0", "y")
        host.add_edge("b2", "c2", "y")
        host.add_vertex("d2", "d")
        host.add_edge("c2", "d2", "z")
        engine = MatchEngine(anchor_cap=2)
        (tid,) = engine.add_transactions([host])
        parent, child = _edge_pattern(), _extended_pattern()
        grandchild = child.copy(name="grandchild")
        grandchild.add_vertex("p3", "d")
        grandchild.add_edge("p2", "p3", "z")
        tasks = [
            [embedding_task(engine, parent, [tid], uid="parent")],
            [embedding_task(engine, child, [tid], uid="child",
                            parent_uid="parent", extension=(1, 2, True))],
            [embedding_task(engine, grandchild, [tid], uid="grandchild",
                            parent_uid="child", extension=(2, 3, True))],
        ]
        assert [engine.support_with_embeddings(level) for level in tasks] == [
            [[tid]], [[tid]], [[tid]]
        ]
        assert engine._capped == {"parent": {tid}, "child": {tid}}
        assert engine._anchors["child"][tid] == ((0, 1, 2),)

    def test_early_abort_returns_partial_below_threshold(self):
        corpus = [self._host() for _ in range(6)]
        engine = MatchEngine()
        tids = engine.add_transactions(corpus)
        impossible = LabeledGraph(name="absent")
        impossible.add_vertex("q0", "c")
        impossible.add_vertex("q1", "a")
        impossible.add_edge("q0", "q1", "x")
        (hits,) = engine.support_with_embeddings(
            [embedding_task(engine, impossible, tids, abort_below=4)]
        )
        assert len(hits) < 4
        assert engine.stats.support_aborts >= 1

    def test_registration_snapshots_the_transaction(self):
        # add_transactions compacts the graph, so an edge added afterwards
        # changes no support: not through the parent's stored anchors,
        # not through the full search.
        host = LabeledGraph(name="mutating")
        host.add_vertex("a", "a")
        host.add_vertex("b", "b")
        host.add_edge("a", "b", "x")
        engine = MatchEngine()
        (tid,) = engine.add_transactions([host])
        parent, child = _edge_pattern(), _extended_pattern()
        assert engine.support_with_embeddings(
            [embedding_task(engine, parent, [tid], uid="parent")]
        ) == [[tid]]
        assert engine.support_with_embeddings([embedding_task(engine, child, [tid])]) == [[]]
        host.add_vertex("c", "c")
        host.add_edge("b", "c", "y")
        assert legacy_has_embedding(child, host)
        extended = embedding_task(
            engine, child, [tid], uid="child", parent_uid="parent", extension=(1, 2, True)
        )
        assert engine.support_with_embeddings([extended]) == [[]]
        assert engine.support_with_embeddings([embedding_task(engine, child, [tid])]) == [[]]
        snapshot = engine.transaction(tid)
        assert isinstance(snapshot, CompactGraph)
        assert (snapshot.n_vertices, snapshot.n_edges) == (2, 1)

    def test_release_transactions_evicts_anchors(self):
        engine = MatchEngine()
        (tid,) = engine.add_transactions([self._host()])
        engine.support_with_embeddings(
            [embedding_task(engine, _edge_pattern(), [tid], uid="parent")]
        )
        assert engine.anchor_load > 0
        engine.release_transactions([tid])
        assert engine.anchor_load == 0

    def test_drop_anchors_frees_budget(self):
        engine = MatchEngine()
        (tid,) = engine.add_transactions([self._host()])
        engine.support_with_embeddings(
            [embedding_task(engine, _edge_pattern(), [tid], uid="parent")]
        )
        load = engine.anchor_load
        assert load > 0
        engine.drop_anchors(["parent", "never-stored"])
        assert engine.anchor_load == 0


class TestRuntimeLevelAPI:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_level_bitsets_match_serial(self, shards):
        corpus = _random_corpus(31, n=24)
        parent, child = _edge_pattern(), _extended_pattern()

        def level_bits(runtime):
            tids = runtime.add_transactions(corpus)
            bits = bits_of(tids)
            try:
                with runtime.open_session() as session:
                    (parent_bits,) = session.support_level(
                        [level_request(runtime, parent, bits, uid=("r", 0))]
                    )
                    (child_bits,) = session.support_level(
                        [
                            level_request(
                                runtime,
                                child,
                                parent_bits,
                                uid=("r", 1),
                                parent_uid=("r", 0),
                                extension=(1, 2, True),
                            )
                        ]
                    )
            finally:
                runtime.release_transactions(tids)
            return parent_bits, child_bits

        serial = level_bits(SerialRuntime())
        runtime = ShardedEngine(shards=shards, backend="serial")
        try:
            sharded = level_bits(runtime)
        finally:
            runtime.close()
        assert serial == sharded
        assert popcount(serial[1]) <= popcount(serial[0])

    def test_mutation_after_registration_agrees_across_runtimes(self):
        # Both runtimes snapshot at registration, so a pattern that only
        # an edge added afterwards completes is supported by neither.
        pattern = _extended_pattern()

        def support_after_mutation(runtime):
            host = LabeledGraph(name="host")
            host.add_vertex("a", "a")
            host.add_vertex("b", "b")
            host.add_edge("a", "b", "x")
            tids = runtime.add_transactions([host])
            host.add_vertex("c", "c")
            host.add_edge("b", "c", "y")
            try:
                with runtime.open_session() as session:
                    (bits,) = session.support_level(
                        [level_request(runtime, pattern, bits_of(tids))]
                    )
            finally:
                runtime.release_transactions(tids)
            return tids_of(bits)

        serial = support_after_mutation(SerialRuntime())
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            sharded = support_after_mutation(runtime)
        finally:
            runtime.close()
        assert {"serial": serial, "sharded": sharded} == {"serial": [], "sharded": []}
