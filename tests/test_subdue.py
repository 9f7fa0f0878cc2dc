"""Tests for the SUBDUE-style substructure discovery system.

The search works on ``(edge bits, vertex bits, order)`` instances over an
:class:`IntegerHost`.  The references here (pairwise-isomorphism
grouping, pricing a materialised compressed graph) and the frozenset
search in ``tests/subdue_oracle.py`` work on frozensets, over the caller's
ids or over a rank-id copy of the host; the helpers below convert between
the two forms.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subdue_oracle as oracle
from repro.core.config import ExperimentConfig
from repro.datasets.schema import Location
from repro.graphs.builders import build_od_graph
from repro.graphs.canonical import CanonicalizationError, canonical_code, graph_invariant
from repro.graphs.components import truncate_to_vertices
from repro.graphs.engine import MatchEngine
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.labeled_graph import Edge, LabeledGraph, VertexId
from repro.graphs.motifs import chain, hub_and_spoke
from repro.mining.subdue.evaluation import (
    EvaluationPrinciple,
    compression_counts,
    evaluate,
    mdl_value,
    size_value,
)
from repro.mining.subdue.expansion import expand_substructure, extend_instances, initial_substructures
from repro.mining.subdue.mdl import description_length, graph_size
from repro.mining.subdue.miner import SubdueMiner
from repro.mining.subdue.substructure import (
    Candidate,
    Instance,
    IntegerHost,
    Substructure,
    bit_positions,
    group_instances_by_pattern,
    instance_pattern,
    select_non_overlapping,
)
from repro.obs import Tracer, activate
from repro.scenarios.harness import pattern_code
from subdue_oracle import OracleInstance, OracleSubstructure


def _repeated_star_graph(copies: int = 4, spokes: int = 3) -> LabeledGraph:
    """A host graph containing several disjoint copies of the same star, connected by bridges."""
    host = LabeledGraph(name="repeated-stars")
    previous_hub = None
    for copy in range(copies):
        hub = f"hub{copy}"
        host.add_vertex(hub, "place")
        for spoke in range(spokes):
            leaf = f"leaf{copy}_{spoke}"
            host.add_vertex(leaf, "place")
            host.add_edge(hub, leaf, 1)
        if previous_hub is not None:
            host.add_edge(previous_hub, hub, 9)
        previous_hub = hub
    return host


def _ranked(host: LabeledGraph) -> LabeledGraph:
    """*host* with every vertex renamed to its rank in :class:`IntegerHost`."""
    return host.renamed({vertex: rank for rank, vertex in enumerate(IntegerHost(host).ids)})


def _integer_instance(host: IntegerHost, instance, in_ranks: bool = False) -> tuple:
    """A frozenset *instance* as an ``(edge bits, vertex bits, None)``
    triple over *host*; its ids are the caller's, or ranks if *in_ranks*."""
    rank = {vertex: index for index, vertex in enumerate(host.ids)}
    if in_ranks:
        rank = {index: index for index in rank.values()}
    last = host.n_edges - 1
    number = {(source, target): index for index, (source, target, _) in enumerate(host.edges)}
    edge_bits = 0
    for edge in instance.edges:
        edge_bits |= 1 << (last - number[rank[edge.source], rank[edge.target]])
    vertex_bits = 0
    for vertex in instance.vertices:
        vertex_bits |= 1 << rank[vertex]
    return edge_bits, vertex_bits, None


def _rank_instance(host: IntegerHost, edge_bits: int, vertex_bits: int, order=None) -> OracleInstance:
    """A bitset instance as a frozenset instance over ranks, its order kept."""
    return OracleInstance(
        vertices=frozenset(bit_positions(vertex_bits)),
        edges=frozenset([Edge(*edge) for edge in host.edges_of(edge_bits)]),
        order=order,
    )


def _as_oracle(host: IntegerHost, candidates: list[Candidate]) -> list[OracleSubstructure]:
    """*candidates* as frozenset substructures over ranks, recorded orders kept."""
    return [
        OracleSubstructure(
            pattern=candidate.pattern,
            instances=[_rank_instance(host, *instance) for instance in candidate.instances],
        )
        for candidate in candidates
    ]


def _children(instances: list[tuple]) -> dict:
    """Bitset instances as grouping input with no orders: each is read in
    rank order and keyed by its whole layout, as the children of a class
    too symmetric to canonicalise are, so any instances of any classes
    may be grouped together."""
    return {edge_bits: (vertex_bits, None, None) for edge_bits, vertex_bits, _ in instances}


def pairwise_grouping(
    host: LabeledGraph, instances: list[OracleInstance], engine: MatchEngine | None = None
) -> list[OracleSubstructure]:
    """Reference for :func:`group_instances_by_pattern`: pairwise isomorphism.

    Every instance builds its pattern and joins the first isomorphic class
    in its invariant bucket.  Classes come out in first-seen order of
    their invariant, then first-seen order within it.
    """
    isomorphic = engine.are_isomorphic if engine is not None else are_isomorphic
    buckets: dict[str, list[tuple[LabeledGraph, list[OracleInstance]]]] = {}
    for instance in instances:
        pattern = oracle.instance_pattern(host, instance)
        bucket = buckets.setdefault(graph_invariant(pattern), [])
        for existing_pattern, existing_instances in bucket:
            if isomorphic(existing_pattern, pattern):
                existing_instances.append(instance)
                break
        else:
            bucket.append((pattern, [instance]))
    return [
        OracleSubstructure(pattern=pattern, instances=grouped)
        for bucket in buckets.values()
        for pattern, grouped in bucket
    ]


def _grouping_view(substructures: list[OracleSubstructure]) -> list[tuple]:
    """Each class as (pattern vertices, pattern edges, instances), in order."""
    return [
        (
            [(vertex, sub.pattern.vertex_label(vertex)) for vertex in sub.pattern.vertices()],
            [(edge.source, edge.target, edge.label) for edge in sub.pattern.edges()],
            sub.instances,
        )
        for sub in substructures
    ]


@st.composite
def small_hosts(draw) -> LabeledGraph:
    """A random host: 4-10 vertices, 2 vertex labels, 2 edge labels."""
    n_vertices = draw(st.integers(min_value=4, max_value=10))
    host = LabeledGraph(name="random-host")
    for index in range(n_vertices):
        host.add_vertex(f"v{index}", draw(st.sampled_from(["depot", "place"])))
    vertex = st.integers(min_value=0, max_value=n_vertices - 1)
    for source, target, label in draw(
        st.lists(st.tuples(vertex, vertex, st.sampled_from([1, 2])), max_size=3 * n_vertices)
    ):
        if source != target:
            host.add_edge(f"v{source}", f"v{target}", label)
    return host


def _whole_instance(host: LabeledGraph, vertices: set[str]) -> Instance:
    """The instance covering *vertices* and every host edge between them."""
    edges = [edge for edge in host.edges() if edge.source in vertices and edge.target in vertices]
    return Instance(vertices=frozenset(vertices), edges=frozenset(edges))


def _two_nine_leaf_stars() -> tuple[LabeledGraph, list[Instance]]:
    """Two disjoint uniform 9-leaf out-stars, each one whole-star instance.

    The nine leaves share one refined colour, so canonicalising the star
    would take 9! orderings, above the 50,000 budget.  One hub sorts
    before its leaves and the other after them, so the two instances
    differ in layout and only the isomorphism fallback can merge them.
    """
    host = LabeledGraph(name="twin-stars")
    instances = []
    for copy, hub in enumerate(("a-hub", "z-hub")):
        leaves = {f"m{copy}_{leaf}" for leaf in range(9)}
        host.add_vertex(hub, "place")
        for leaf in sorted(leaves):
            host.add_vertex(leaf, "place")
            host.add_edge(hub, leaf, "w")
        instances.append(_whole_instance(host, {hub} | leaves))
    return host, instances


def compress_instances(
    host: LabeledGraph,
    instances: list[Instance],
    replacement_label: str = "SUB",
) -> LabeledGraph:
    """Collapse vertex-disjoint *instances* of *host* into single vertices.

    The materialised rewrite that :func:`compression_counts` counts
    without building.  Instance ``i`` becomes the vertex
    ``f"{replacement_label}_{i}"``, or, if the host already has a vertex
    of that name, that name with primes appended until it is free: a
    replacement never merges with a host vertex.  Edges with both ends in
    one instance are absorbed; every other edge, a self-loop outside the
    instances included, is kept, and edges that land on the same ordered
    pair merge into one.  The host is not modified.
    """
    owner: dict[VertexId, int] = {}
    for index, instance in enumerate(instances):
        for vertex in instance.vertices:
            if vertex in owner:
                raise ValueError("instances passed to compress_instances must be vertex-disjoint")
            owner[vertex] = index

    compressed = LabeledGraph(name=f"{host.name}-compressed")
    replacement_names = []
    for index in range(len(instances)):
        name = f"{replacement_label}_{index}"
        while host.has_vertex(name):
            name += "'"
        replacement_names.append(name)

    for vertex in host.vertices():
        if vertex in owner:
            continue
        compressed.add_vertex(vertex, host.vertex_label(vertex))
    for name in replacement_names:
        compressed.add_vertex(name, replacement_label)

    def resolve(vertex: VertexId) -> VertexId:
        if vertex in owner:
            return replacement_names[owner[vertex]]
        return vertex

    for edge in host.edges():
        source_owner = owner.get(edge.source)
        target_owner = owner.get(edge.target)
        if source_owner is not None and source_owner == target_owner:
            # Edge internal to an instance: absorbed by the replacement vertex.
            continue
        compressed.add_edge(resolve(edge.source), resolve(edge.target), edge.label)
    return compressed


def materialised_stats(host: LabeledGraph, substructure: Substructure) -> dict:
    """Reference for :func:`compression_counts`: build the compressed graph.

    Compresses *host* with :func:`compress_instances` and counts on the
    result.  Replacement vertices are the compressed vertices that are
    not host vertices, since their names are fresh.
    """
    instances = substructure.non_overlapping()
    compressed = compress_instances(host, instances)
    internal_edges = sum(instance.n_edges for instance in instances)
    merged_edges = max(0, (host.n_edges - internal_edges) - compressed.n_edges)
    replacements = {vertex for vertex in compressed.vertices() if not host.has_vertex(vertex)}
    boundary_edges = sum(
        1
        for edge in compressed.edges()
        if edge.source in replacements or edge.target in replacements
    )
    return {
        "compressed": compressed,
        "covered_vertices": sum(len(instance.vertices) for instance in instances),
        "merged_edges": merged_edges,
        "boundary_edges": boundary_edges + merged_edges,
    }


def materialised_mdl_value(host: LabeledGraph, substructure: Substructure) -> float:
    """Reference for :func:`mdl_value`, priced on the materialised graph."""
    n_vertex_labels = max(1, len(host.vertex_label_counts()))
    n_edge_labels = max(1, len(host.edge_label_counts()))
    original = description_length(host, n_vertex_labels, n_edge_labels)
    sub_dl = description_length(substructure.pattern, n_vertex_labels, n_edge_labels)
    stats = materialised_stats(host, substructure)
    compressed = stats["compressed"]
    compressed_dl = description_length(compressed, n_vertex_labels + 1, n_edge_labels)
    per_edge_bits = 2.0 * math.log2(max(2, compressed.n_vertices)) + math.log2(max(2, n_edge_labels))
    merged_bits = stats["merged_edges"] * per_edge_bits
    attachment_bits = stats["boundary_edges"] * math.log2(max(2, substructure.pattern.n_vertices))
    location_bits = stats["covered_vertices"] * math.log2(max(2, host.n_vertices))
    denominator = sub_dl + compressed_dl + merged_bits + attachment_bits + location_bits
    if denominator <= 0:
        return 0.0
    return original / denominator


def materialised_size_value(host: LabeledGraph, substructure: Substructure) -> float:
    """Reference for :func:`size_value`, priced on the materialised graph."""
    stats = materialised_stats(host, substructure)
    compressed_size = graph_size(stats["compressed"]) + stats["merged_edges"]
    denominator = graph_size(substructure.pattern) + compressed_size
    if denominator <= 0:
        return 0.0
    return graph_size(host) / denominator


@st.composite
def compression_cases(draw) -> tuple[LabeledGraph, list[Instance]]:
    """A random host plus random vertex-disjoint instances on it.

    4-12 vertices over 1-3 vertex labels and 1-3 edge labels, with
    self-loops.  Vertex ``v1`` is labelled ``SUB`` and vertex ``SUB_0``
    carries the first replacement's name, so the host meets the rewrite's
    label and names.  Each vertex joins one of up to four instances or
    none; each instance takes a random subset of the host edges inside it.
    """
    n_vertices = draw(st.integers(min_value=4, max_value=12))
    vertex_labels = ["SUB", "place", "depot"][: draw(st.integers(min_value=1, max_value=3))]
    edge_labels = [1, 2, 3][: draw(st.integers(min_value=1, max_value=3))]
    names = ["SUB_0"] + [f"v{index}" for index in range(1, n_vertices)]
    host = LabeledGraph(name="random-host")
    for name in names:
        host.add_vertex(name, "SUB" if name == "v1" else draw(st.sampled_from(vertex_labels)))
    vertex = st.sampled_from(names)
    for source, target, label in draw(
        st.lists(st.tuples(vertex, vertex, st.sampled_from(edge_labels)), max_size=3 * n_vertices)
    ):
        host.add_edge(source, target, label)
    owners = draw(st.lists(st.integers(min_value=-1, max_value=3), min_size=n_vertices, max_size=n_vertices))
    groups: dict[int, set[str]] = {}
    for name, owner in zip(names, owners):
        if owner >= 0:
            groups.setdefault(owner, set()).add(name)
    instances = []
    for owner in sorted(groups):
        members = groups[owner]
        inside = [edge for edge in host.edges() if edge.source in members and edge.target in members]
        edges = draw(st.lists(st.sampled_from(inside), unique=True)) if inside else []
        instances.append(Instance(vertices=frozenset(members), edges=frozenset(edges)))
    return host, instances


def _assert_recorded_orders(host: LabeledGraph, groups: list[OracleSubstructure]) -> None:
    """Every instance of a canonicalised class records a permutation of its
    vertices, and all of the class's instances read one layout in it; a
    class too symmetric to canonicalise records no order.  *host* is the
    rank-id copy the groups' ids refer to."""
    for group in groups:
        try:
            canonical_code(group.pattern)
        except CanonicalizationError:
            assert all(instance.order is None for instance in group.instances)
            continue
        layouts = set()
        for instance in group.instances:
            assert instance.order is not None
            assert len(instance.order) == len(instance.vertices)
            assert set(instance.order) == instance.vertices
            layouts.add(oracle.instance_layout(host, instance)[1])
        assert len(layouts) == 1


def _f1_host(n_vertices: int = 60) -> LabeledGraph:
    """Figure 1's host at scale 0.01: the OD_GW graph over Location ids."""
    config = ExperimentConfig(scale=0.01, seed=20050405)
    graph = build_od_graph(
        config.dataset(), edge_attribute="OD_GW", binning=config.binning(), vertex_labeling="uniform"
    )
    return truncate_to_vertices(graph, n_vertices)


class TestSubstructure:
    def test_instance_from_vertex(self, triangle_graph):
        # A seed instance is its one vertex: no edges, the vertex its order.
        host = IntegerHost(triangle_graph)
        (seed,) = initial_substructures(host)
        edge_bits, vertex_bits, order = seed.instances[0]
        instance = host.instance(edge_bits, vertex_bits)
        assert instance.vertices == frozenset({"a"})
        assert instance.n_edges == 0
        assert order == (0,)

    def test_instance_extension_and_overlap(self, triangle_graph):
        host = IntegerHost(triangle_graph)
        (seed,) = initial_substructures(host)
        source, target = seed.instances[0], seed.instances[1]
        children = extend_instances(host, Candidate(pattern=seed.pattern, instances=[source]))
        edge_bits, (vertex_bits, order, _) = next(iter(children.items()))
        assert edge_bits.bit_count() == 1
        assert vertex_bits & target[1]
        assert order == (0, 1)

    def test_instance_pattern_preserves_labels(self, triangle_graph):
        edges = list(triangle_graph.edges())
        instance = Instance(
            vertices=frozenset({edges[0].source, edges[0].target}), edges=frozenset({edges[0]})
        )
        host = IntegerHost(triangle_graph)
        edge_bits, vertex_bits, _ = _integer_instance(host, instance)
        pattern = instance_pattern(host, edge_bits, vertex_bits)
        assert pattern.n_edges == 1
        assert pattern.vertex_label(host.ids.index(edges[0].source)) == "place"

    def test_select_non_overlapping(self):
        host = _repeated_star_graph(copies=2)
        integer_host = IntegerHost(host)
        instances = [
            _whole_instance(host, {"hub0", "leaf0_0"}),
            _whole_instance(host, {"hub0", "leaf0_1"}),
            _whole_instance(host, {"hub1", "leaf1_0"}),
        ]
        disjoint = select_non_overlapping([_integer_instance(integer_host, instance) for instance in instances])
        assert len(disjoint) == 2

    def test_group_instances_by_pattern(self):
        host = _repeated_star_graph(copies=2, spokes=2)
        integer_host = IntegerHost(host)
        instances = [
            _integer_instance(
                integer_host, Instance(vertices=frozenset({e.source, e.target}), edges=frozenset({e}))
            )
            for e in host.edges()
        ]
        groups = group_instances_by_pattern(integer_host, _children(instances), MatchEngine())
        # Two pattern classes: the star edge (label 1) and the bridge edge (label 9).
        assert len(groups) == 2
        assert {len(g.instances) for g in groups} == {4, 1}


class TestGroupingOracle:
    """Grouping by canonical code matches the pairwise-isomorphism oracle."""

    @settings(max_examples=60, deadline=None)
    @given(host=small_hosts(), use_engine=st.booleans())
    def test_matches_pairwise_grouping(self, host, use_engine):
        # Every instance of a level, whatever its parent, grouped at once
        # and read in rank order.  *use_engine* picks the oracle's
        # matcher: the engine, or the legacy backtracking search that
        # shares no code with it.
        engine = MatchEngine()
        oracle_engine = engine if use_engine else None
        integer_host = IntegerHost(host)
        ranked = _ranked(host)
        level = [OracleInstance.from_vertex(vertex) for vertex in ranked.vertices()]
        for _ in range(3):
            extended: dict[tuple[frozenset, frozenset], OracleInstance] = {}
            for instance in level:
                for new_instance in oracle.expand_instance(ranked, instance):
                    extended[(new_instance.vertices, new_instance.edges)] = new_instance
            level = list(extended.values())
            if not level:
                break
            expected = _grouping_view(pairwise_grouping(ranked, level, engine=oracle_engine))
            children = _children([_integer_instance(integer_host, instance, in_ranks=True) for instance in level])
            groups = group_instances_by_pattern(integer_host, children, engine=engine)
            assert _grouping_view(_as_oracle(integer_host, groups)) == expected

    def test_invariant_collision_keeps_first_seen_class_order(self):
        # A directed 6-cycle and two directed triangles are both 1-in,
        # 1-out everywhere, so colour refinement cannot split them: one
        # invariant bucket, two classes, in first-seen order.
        host = LabeledGraph(name="cycles")
        sizes = {"c": 6, "t": 3, "u": 3, "d": 6}
        for ring, size in sizes.items():
            for index in range(size):
                host.add_edge(f"{ring}{index}", f"{ring}{(index + 1) % size}", "w")

        def rings(*names: str) -> Instance:
            return _whole_instance(
                host, {f"{ring}{index}" for ring in names for index in range(sizes[ring])}
            )

        hexagon, triangles, other_hexagon = rings("c"), rings("t", "u"), rings("d")
        instances = [hexagon, triangles, other_hexagon]
        integer_host = IntegerHost(host)
        triples = [_integer_instance(integer_host, instance) for instance in instances]
        assert graph_invariant(instance_pattern(integer_host, *triples[0][:2])) == graph_invariant(
            instance_pattern(integer_host, *triples[1][:2])
        )
        groups = group_instances_by_pattern(integer_host, _children(triples), MatchEngine())
        assert [
            [integer_host.instance(edge_bits, vertex_bits) for edge_bits, vertex_bits, _ in group.instances]
            for group in groups
        ] == [[hexagon, other_hexagon], [triangles]]
        expected = pairwise_grouping(_ranked(host), [_rank_instance(integer_host, *triple) for triple in triples])
        assert _grouping_view(_as_oracle(integer_host, groups)) == _grouping_view(expected)

    # *use_engine* picks the oracle's matcher, as in the property above.
    @pytest.mark.parametrize("use_engine", [False, True])
    def test_too_symmetric_patterns_fall_back_to_isomorphism(self, use_engine):
        host, instances = _two_nine_leaf_stars()
        integer_host = IntegerHost(host)
        triples = [_integer_instance(integer_host, instance) for instance in instances]
        engine = MatchEngine()
        with activate(Tracer()) as tracer:
            groups = group_instances_by_pattern(integer_host, _children(triples), engine=engine)
        assert tracer.metrics.counter_total("canonical_fallbacks") > 0
        assert len(groups) == 1
        assert [
            integer_host.instance(edge_bits, vertex_bits) for edge_bits, vertex_bits, _ in groups[0].instances
        ] == instances
        oracle_groups = pairwise_grouping(
            _ranked(host),
            [_rank_instance(integer_host, *triple) for triple in triples],
            engine=engine if use_engine else None,
        )
        assert _grouping_view(_as_oracle(integer_host, groups)) == _grouping_view(oracle_groups)


    @settings(max_examples=40, deadline=None)
    @given(host=small_hosts(), use_engine=st.booleans())
    def test_expansion_with_recorded_orders_matches_pairwise_grouping(self, host, use_engine):
        # Two levels through expand_substructure: level-1 instances read
        # their layout in seed order plus the new vertex, level-2 ones in
        # their parent class's canonical order plus the new vertex.  The
        # expected classes group the frozenset oracle's extensions.
        engine = MatchEngine()
        oracle_engine = engine if use_engine else None
        integer_host = IntegerHost(host)
        ranked = _ranked(host)
        frontier = initial_substructures(integer_host)
        for _ in range(2):
            children: list[Candidate] = []
            for parent in frontier:
                (oracle_parent,) = _as_oracle(integer_host, [parent])
                expected = pairwise_grouping(
                    ranked, oracle.extended_instances(ranked, oracle_parent), engine=oracle_engine
                )
                groups = expand_substructure(integer_host, parent, engine)
                assert _grouping_view(_as_oracle(integer_host, groups)) == _grouping_view(expected)
                _assert_recorded_orders(ranked, _as_oracle(integer_host, groups))
                children.extend(groups)
            frontier = children

    def test_children_of_a_too_symmetric_parent_take_the_sorted_order_key(self):
        # The nine-leaf star class records no order, so its children read
        # their layouts in sorted order.  A leaf edge leaves eight equal
        # leaves (8! orderings: canonicalisable); a hub edge keeps nine.
        host, stars = _two_nine_leaf_stars()
        for copy, hub in enumerate(("a-hub", "z-hub")):
            host.add_edge(f"m{copy}_0", f"x{copy}", "w")
            host.add_edge(hub, f"y{copy}", "v")
        integer_host = IntegerHost(host)
        ranked = _ranked(host)
        engine = MatchEngine()
        triples = [_integer_instance(integer_host, star) for star in stars]
        (parent,) = group_instances_by_pattern(integer_host, _children(triples), engine)
        assert all(order is None for _, _, order in parent.instances)
        extended = extend_instances(integer_host, parent)
        assert all(order is None for _, order, _ in extended.values())
        groups = expand_substructure(integer_host, parent, engine)
        (oracle_parent,) = _as_oracle(integer_host, [parent])
        expected = pairwise_grouping(ranked, oracle.extended_instances(ranked, oracle_parent), engine=engine)
        assert _grouping_view(_as_oracle(integer_host, groups)) == _grouping_view(expected)
        _assert_recorded_orders(ranked, _as_oracle(integer_host, groups))
        assert any(order is not None for group in groups for _, _, order in group.instances)


class TestExpansion:
    def test_initial_substructures_one_per_label(self):
        host = _repeated_star_graph()
        seeds = initial_substructures(IntegerHost(host))
        assert len(seeds) == 1
        assert len(seeds[0].instances) == host.n_vertices

    def test_initial_substructures_multiple_labels(self, triangle_graph):
        relabeled = triangle_graph.relabel_vertices({"a": "depot"})
        seeds = initial_substructures(IntegerHost(relabeled))
        assert len(seeds) == 2

    def test_expand_instance_adds_one_edge(self):
        host = _repeated_star_graph()
        integer_host = IntegerHost(host)
        (seed,) = initial_substructures(integer_host)
        hub = integer_host.ids.index("hub0")
        (instance,) = [instance for instance in seed.instances if instance[2] == (hub,)]
        extensions = extend_instances(integer_host, Candidate(pattern=seed.pattern, instances=[instance]))
        assert all(edge_bits.bit_count() == 1 for edge_bits in extensions)
        assert len(extensions) == 4  # 3 spokes + 1 bridge to hub1

    def test_expand_substructure_groups_by_pattern(self):
        host = IntegerHost(_repeated_star_graph())
        engine = MatchEngine()
        seeds = initial_substructures(host)
        level1 = expand_substructure(host, seeds[0], engine)
        labels = sorted(
            next(iter(sub.pattern.edges())).label for sub in level1
        )
        assert labels == [1, 9]


class TestMdlAndSize:
    def test_description_length_grows_with_graph(self):
        assert description_length(hub_and_spoke(5)) > description_length(hub_and_spoke(2))

    def test_description_length_empty_graph(self):
        assert description_length(LabeledGraph()) == 0.0

    def test_graph_size(self):
        assert graph_size(chain(3)) == 4 + 3

    def test_compression_with_frequent_substructure_beats_rare_one(self):
        host = _repeated_star_graph(copies=4, spokes=3)
        star = hub_and_spoke(3, edge_labels=[1, 1, 1])
        integer_host = IntegerHost(host)
        frequent_instances = []
        for copy in range(4):
            vertices = {f"hub{copy}"} | {f"leaf{copy}_{s}" for s in range(3)}
            edges = {e for e in host.edges() if e.source == f"hub{copy}" and e.label == 1}
            frequent_instances.append(
                _integer_instance(integer_host, Instance(vertices=frozenset(vertices), edges=frozenset(edges)))
            )
        rare_instances = frequent_instances[:1]
        frequent = Candidate(
            pattern=star, instances=frequent_instances, selection=select_non_overlapping(frequent_instances)
        )
        rare = Candidate(pattern=star, instances=rare_instances, selection=select_non_overlapping(rare_instances))
        assert mdl_value(integer_host, frequent) > mdl_value(integer_host, rare)
        assert size_value(integer_host, frequent) > size_value(integer_host, rare)

    def test_evaluate_dispatch(self):
        host = IntegerHost(_repeated_star_graph())
        engine = MatchEngine()
        seeds = initial_substructures(host)
        candidate = expand_substructure(host, seeds[0], engine)[0]
        candidate.selection = select_non_overlapping(candidate.instances)
        for principle in (EvaluationPrinciple.MDL, EvaluationPrinciple.SIZE):
            assert evaluate(host, candidate, principle) > 0

    def test_every_principle_runs_from_the_miner(self):
        # Every offered principle must score a candidate with what the
        # miner passes: the host alone, no example graphs.
        host = chain(5, edge_labels=[1, 1, 1, 1, 1])
        for principle in EvaluationPrinciple:
            assert SubdueMiner(principle=principle).mine(host).evaluated > 0


class TestCompression:
    def test_compress_replaces_instances(self):
        host = _repeated_star_graph(copies=3, spokes=2)
        instances = []
        for copy in range(3):
            vertices = {f"hub{copy}", f"leaf{copy}_0", f"leaf{copy}_1"}
            edges = {e for e in host.edges() if e.source == f"hub{copy}" and e.label == 1}
            instances.append(Instance(vertices=frozenset(vertices), edges=frozenset(edges)))
        compressed = compress_instances(host, oracle.select_non_overlapping(instances))
        # Each 3-vertex instance becomes one SUB vertex; bridges survive.
        assert compressed.n_vertices == 3
        assert compressed.n_edges == 2
        assert all(compressed.vertex_label(v) == "SUB" for v in compressed.vertices())

    def test_compress_instances_rejects_overlap(self, star_graph):
        overlapping = [
            Instance(vertices=frozenset({"hub", "s0"}), edges=frozenset()),
            Instance(vertices=frozenset({"hub", "s1"}), edges=frozenset()),
        ]
        with pytest.raises(ValueError):
            compress_instances(star_graph, overlapping)

    def test_replacement_never_merges_with_a_host_vertex_of_its_name(self):
        host = LabeledGraph(name="named-sub")
        for name in ("a", "b", "c", "d", "SUB_0"):
            host.add_vertex(name, "place")
        host.add_edge("a", "b", "w")
        host.add_edge("c", "d", "w")
        host.add_edge("SUB_0", "a", "w")
        instances = [_whole_instance(host, {"a", "b"}), _whole_instance(host, {"c", "d"})]
        compressed = compress_instances(host, instances)
        assert compressed.n_vertices == 3
        assert compressed.n_edges == 1
        assert compressed.vertex_label("SUB_0") == "place"
        replacements = [vertex for vertex in compressed.vertices() if not host.has_vertex(vertex)]
        assert replacements == ["SUB_0'", "SUB_1"]
        assert compressed.has_edge("SUB_0", "SUB_0'")

    def test_self_loop_outside_every_instance_is_kept(self):
        host = LabeledGraph(name="looped")
        for name in ("a", "b", "e"):
            host.add_vertex(name, "place")
        host.add_edge("a", "b", "w")
        host.add_edge("e", "e", "w")
        instance = _whole_instance(host, {"a", "b"})
        compressed = compress_instances(host, [instance])
        assert compressed.n_edges == 1
        assert compressed.has_edge("e", "e")
        integer_host = IntegerHost(host)
        counts = compression_counts(integer_host, [_integer_instance(integer_host, instance)])
        assert (counts.edges, counts.merged_edges) == (1, 0)

    def test_untouched_vertex_labelled_sub_adds_no_boundary_edges(self):
        # Only replacement vertices own boundary edges: a host vertex that
        # happens to carry the replacement label prices like any other.
        def host_with(label: str) -> LabeledGraph:
            host = LabeledGraph(name=f"label-{label}")
            for name in ("a", "b", "c", "d", "f"):
                host.add_vertex(name, "place")
            host.add_vertex("e", label)
            for source, target in (("a", "b"), ("c", "d"), ("e", "f")):
                host.add_edge(source, target, "w")
            return host

        values = []
        for label in ("SUB", "depot"):
            host = host_with(label)
            integer_host = IntegerHost(host)
            instances = [
                _integer_instance(integer_host, _whole_instance(host, vertices))
                for vertices in ({"a", "b"}, {"c", "d"})
            ]
            candidate = Candidate(
                pattern=instance_pattern(integer_host, *instances[0][:2]),
                instances=instances,
                selection=select_non_overlapping(instances),
            )
            assert compression_counts(integer_host, candidate.selection).boundary_edges == 0
            values.append(mdl_value(integer_host, candidate))
        assert values[0] == values[1]


class TestCountOnlyEvaluation:
    """Count-only evaluation over bitsets equals pricing the materialised
    compressed graph."""

    @settings(max_examples=200, deadline=None)
    @given(case=compression_cases())
    def test_matches_materialised_graph(self, case):
        host, instances = case
        integer_host = IntegerHost(host)
        triples = [_integer_instance(integer_host, instance) for instance in instances]
        if instances:
            pattern = instance_pattern(integer_host, *triples[0][:2])
        else:
            pattern = LabeledGraph(name="single")
            pattern.add_vertex("p0", "place")
        candidate = Candidate(pattern=pattern, instances=triples, selection=triples)
        substructure = Substructure(pattern=pattern, instances=instances, selection=instances)
        stats = materialised_stats(host, substructure)
        counts = compression_counts(integer_host, candidate.selection)
        assert counts.vertices == stats["compressed"].n_vertices
        assert counts.edges == stats["compressed"].n_edges
        assert counts.covered_vertices == stats["covered_vertices"]
        assert counts.merged_edges == stats["merged_edges"]
        assert counts.boundary_edges == stats["boundary_edges"]
        assert mdl_value(integer_host, candidate) == materialised_mdl_value(host, substructure)
        assert size_value(integer_host, candidate) == materialised_size_value(host, substructure)


class TestSubdueMiner:
    def test_finds_repeated_star(self):
        host = _repeated_star_graph(copies=4, spokes=3)
        miner = SubdueMiner(beam_width=4, max_best=3, max_substructure_edges=3, principle=EvaluationPrinciple.SIZE)
        result = miner.mine(host)
        assert len(result.best) >= 1
        top = result.top()
        assert top.n_non_overlapping >= 2
        assert top.value > 0

    def test_mdl_and_size_both_run(self):
        host = _repeated_star_graph(copies=3, spokes=2)
        for principle in (EvaluationPrinciple.MDL, EvaluationPrinciple.SIZE):
            result = SubdueMiner(principle=principle, max_substructure_edges=2, limit=100).mine(host)
            assert result.evaluated > 0
            assert result.elapsed_seconds >= 0

    @pytest.mark.parametrize("principle", list(EvaluationPrinciple))
    def test_principle_given_by_its_value(self, principle):
        host = _repeated_star_graph(copies=3, spokes=2)
        engine = MatchEngine()
        miner = SubdueMiner(principle=principle.value, max_substructure_edges=2, limit=100)
        assert miner.principle is principle
        results = [
            SubdueMiner(principle=given, max_substructure_edges=2, limit=100).mine(host)
            for given in (principle, principle.value)
        ]
        rows = [
            (
                result.evaluated,
                result.principle,
                [(pattern_code(engine, sub.pattern), sub.value, sub.non_overlapping()) for sub in result.best],
            )
            for result in results
        ]
        assert rows[0][0] > 0
        assert rows[0] == rows[1]

    def test_limit_bounds_evaluations(self):
        host = _repeated_star_graph(copies=4, spokes=4)
        result = SubdueMiner(limit=5, max_substructure_edges=4).mine(host)
        assert result.evaluated <= 5

    def test_min_instances_filters_singletons(self):
        host = chain(5, edge_labels=[1, 2, 3, 4, 5])
        result = SubdueMiner(min_instances=2, max_substructure_edges=2).mine(host)
        assert all(sub.n_non_overlapping >= 2 for sub in result.best)

    def test_empty_graph(self):
        result = SubdueMiner().mine(LabeledGraph())
        assert result.best == []

    @pytest.mark.parametrize(
        "name, value",
        [
            ("beam_width", -1),
            ("beam_width", 0),
            ("max_best", 0),
            ("min_instances", 0),
            ("limit", 0),
            ("limit", -5),
            ("max_instances", 0),
            ("max_substructure_edges", 0),
            ("principle", "bogus"),
        ],
    )
    def test_rejects_out_of_range_parameters(self, name, value):
        with pytest.raises(ValueError, match=name):
            SubdueMiner(**{name: value})

    def test_optional_caps_accept_none(self):
        miner = SubdueMiner(limit=None, max_instances=None, max_substructure_edges=2)
        assert miner.mine(_repeated_star_graph(copies=2, spokes=2)).evaluated > 0

    def test_beam_keeps_distinct_classes_that_share_an_invariant(self):
        # Two connected, non-isomorphic 6-vertex patterns that colour
        # refinement cannot tell apart; the beam must keep both.  Their
        # keys are what grouping records when it opens their classes.
        def pattern(edges):
            graph = LabeledGraph()
            for vertex in range(6):
                graph.add_vertex(f"v{vertex}", "L")
            for source, target in edges:
                graph.add_edge(f"v{source}", f"v{target}", "e")
            return graph

        first = pattern([(0, 4), (1, 2), (1, 4), (2, 0), (3, 0), (3, 5), (4, 5), (5, 2)])
        second = pattern([(0, 4), (1, 2), (2, 0), (3, 1), (3, 4), (4, 1), (5, 0), (5, 2)])
        assert graph_invariant(first) == graph_invariant(second)
        assert not are_isomorphic(first, second)
        kept = SubdueMiner._keep_best(
            [
                Candidate(pattern=first, instances=[], key=oracle.class_key(first), value=2.0),
                Candidate(pattern=second, instances=[], key=oracle.class_key(second), value=1.5),
            ],
            2,
        )
        assert [candidate.pattern for candidate in kept] == [first, second]


class TestHostIds:
    """The miner searches ranks of its host's ids and reports the caller's ids."""

    @staticmethod
    def _hosts() -> dict[str, LabeledGraph]:
        located = _f1_host(24)
        ranked = sorted(located.vertices(), key=str)
        return {
            "location": located,
            "str": located.renamed({vertex: str(vertex) for vertex in ranked}),
            # Four-digit ints: value order and str order agree.
            "int": located.renamed({vertex: 1000 + rank for rank, vertex in enumerate(ranked)}),
        }

    @staticmethod
    def _mine(host: LabeledGraph, principle: EvaluationPrinciple):
        miner = SubdueMiner(beam_width=4, max_best=4, max_substructure_edges=3, principle=principle, limit=80)
        return miner.mine(host)

    @pytest.mark.parametrize("principle", [EvaluationPrinciple.MDL, EvaluationPrinciple.SIZE])
    def test_rows_do_not_depend_on_the_vertex_id_type(self, principle):
        engine = MatchEngine()
        rows = {}
        for name, host in self._hosts().items():
            result = self._mine(host, principle)
            rows[name] = [
                (pattern_code(engine, sub.pattern), sub.value, sub.n_non_overlapping)
                for sub in result.best
            ]
        assert rows["location"]
        assert rows["location"] == rows["str"] == rows["int"]

    def test_best_carries_the_callers_ids_and_valued_selection(self):
        selections = {}
        for name, host in self._hosts().items():
            result = self._mine(host, EvaluationPrinciple.MDL)
            for sub in result.best:
                # The class pattern is its first instance's pattern.
                assert set(sub.pattern.vertices()) == sub.instances[0].vertices
                for instance in sub.instances:
                    assert all(host.has_vertex(vertex) for vertex in instance.vertices)
                    for edge in instance.edges:
                        assert host.edge_label(edge.source, edge.target) == edge.label
                        assert {edge.source, edge.target} <= instance.vertices
                selection = sub.non_overlapping()
                assert all(any(chosen is instance for instance in sub.instances) for chosen in selection)
                # The carried selection is the one the value came from.
                assert materialised_mdl_value(host, sub) == sub.value
                if name == "str":
                    assert selection == oracle.select_non_overlapping(sub.instances)
            if name == "location":
                assert all(
                    isinstance(vertex, Location) for sub in result.best for vertex in sub.pattern.vertices()
                )
            selections[name] = [
                [sorted(str(vertex) for vertex in chosen.vertices) for chosen in sub.non_overlapping()]
                for sub in result.best
            ]
        assert selections["location"] == selections["str"]

    def test_hierarchical_passes_on_the_f1_host(self):
        # SUBDUE's hierarchical mode run by hand: mine, collapse the top
        # substructure's non-overlapping instances into SUB{i} vertices,
        # and mine the compressed host again, for three passes or until
        # nothing repeats or the host stops shrinking.  The rows are
        # pinned from the materialising, Location-keyed implementation.
        miner = SubdueMiner(
            beam_width=4, max_best=3, max_substructure_edges=3, principle=EvaluationPrinciple.MDL, limit=100
        )
        host = _f1_host()
        passes = []
        for index in range(3):
            result = miner.mine(host)
            passes.append(result)
            top = result.top()
            if top is None or top.n_non_overlapping < miner.min_instances:
                break
            compressed = compress_instances(host, top.non_overlapping(), replacement_label=f"SUB{index}")
            if compressed.n_vertices + compressed.n_edges >= host.n_vertices + host.n_edges:
                break
            host = compressed
        engine = MatchEngine()
        rows = [
            [(pattern_code(engine, sub.pattern), round(sub.value, 9), sub.n_non_overlapping) for sub in result.best]
            for result in passes
        ]
        assert [result.evaluated for result in passes] == [100, 100, 98]
        assert rows == [
            [
                ("place,place|0-1:0", 1.033221883, 23),
                ("place,place,place|0-1:0,0-2:0", 1.026142513, 11),
                ("place,place,place,place|0-3:0,1-2:0,1-3:0", 1.009537957, 7),
            ],
            [
                ("SUB0,place|0-1:0", 1.011415371, 8),
                ("SUB0,place,place|0-2:0,1-0:0", 0.997619798, 3),
                ("SUB0,SUB0,place|0-1:2,0-2:0", 0.996986995, 5),
            ],
            [
                ("SUB0,SUB0,place|0-1:0,0-2:3", 1.000112245, 2),
                ("SUB0,SUB0,SUB0,place|0-2:0,0-3:3,2-1:0", 0.996706775, 2),
                ("SUB0,place|1-0:1", 0.996491214, 2),
            ],
        ]
