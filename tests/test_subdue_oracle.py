"""The integer SUBDUE search against the frozenset oracle.

:class:`~repro.mining.subdue.miner.SubdueMiner` searches bitset instances
over an integer host; ``tests/subdue_oracle.py`` holds the frozenset
search it replaced.  On every host both must evaluate the same number of
candidates and report the same best substructures: pattern vertices,
labels, edges and name, the exact value, the instances in order and the
non-overlapping selection.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExperimentConfig
from repro.graphs.builders import build_od_graph
from repro.graphs.components import truncate_to_vertices
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.subdue.evaluation import EvaluationPrinciple
from repro.mining.subdue.miner import SubdueMiner
from repro.obs import Tracer, activate

from subdue_oracle import oracle_mine


def _pattern_view(pattern: LabeledGraph) -> tuple:
    return (
        pattern.name,
        [(vertex, pattern.vertex_label(vertex)) for vertex in pattern.vertices()],
        [(edge.source, edge.target, edge.label) for edge in pattern.edges()],
    )


def _instances_view(instances) -> list[tuple]:
    return [(instance.vertices, instance.edges) for instance in instances]


def assert_matches_oracle(host: LabeledGraph, **options) -> None:
    """The miner and the oracle agree on *host* under *options*."""
    result = SubdueMiner(**options).mine(host)
    expected, evaluated = oracle_mine(host, **options)
    assert result.evaluated == evaluated
    assert len(result.best) == len(expected)
    for got, want in zip(result.best, expected):
        assert _pattern_view(got.pattern) == _pattern_view(want.pattern)
        assert got.value == want.value
        assert _instances_view(got.instances) == _instances_view(want.instances)
        assert _instances_view(got.non_overlapping()) == _instances_view(want.non_overlapping())


def _stars(host: LabeledGraph, leaves: int, label, edge_label) -> None:
    """Two disjoint uniform out-stars of *leaves* leaves each."""
    for copy in range(2):
        hub = f"hub{copy}"
        host.add_vertex(hub, label)
        for leaf in range(leaves):
            host.add_vertex(f"leaf{copy}_{leaf}", label)
            host.add_edge(hub, f"leaf{copy}_{leaf}", edge_label)


@st.composite
def hosts(draw, stars: bool = False) -> LabeledGraph:
    """A random host: 3-12 vertices with int or str ids (sometimes an int
    and a str of equal ``str``), 1-3 vertex labels, edge labels ``1``,
    ``"1"`` and ``2``, and self-loops; with *stars*, also two uniform
    stars of 9 or 10 leaves."""
    n_vertices = draw(st.integers(min_value=3, max_value=12))
    ids: list = [draw(st.sampled_from([index, str(index), f"v{index}"])) for index in range(n_vertices)]
    if draw(st.booleans()):
        twin = str(ids[0]) if isinstance(ids[0], int) else (int(ids[0]) if ids[0].isdigit() else 0)
        if twin not in ids:
            ids.append(twin)
    vertex_labels = draw(st.sampled_from([["place"], ["place", "depot"], ["place", "depot", 7]]))
    host = LabeledGraph(name="random-host")
    for vertex in ids:
        host.add_vertex(vertex, draw(st.sampled_from(vertex_labels)))
    vertex = st.sampled_from(ids)
    for source, target, label in draw(
        st.lists(st.tuples(vertex, vertex, st.sampled_from([1, "1", 2])), max_size=3 * len(ids))
    ):
        host.add_edge(source, target, label)
    if stars:
        _stars(host, draw(st.sampled_from([9, 10])), vertex_labels[0], 1)
    return host


@st.composite
def options(draw, host: LabeledGraph) -> dict:
    """Miner options: small beams, lists, limits and instance caps; no
    size cap on a host with stars."""
    has_stars = host.has_vertex("hub0")
    return {
        "beam_width": draw(st.integers(min_value=1, max_value=4)),
        "max_best": draw(st.integers(min_value=1, max_value=5)),
        "max_substructure_edges": None if has_stars else draw(st.sampled_from([None, 1, 2, 3, 4])),
        "limit": draw(st.sampled_from([None, 1, 2, 3, 5, 10, 40])),
        "principle": draw(st.sampled_from(list(EvaluationPrinciple))),
        "min_instances": draw(st.integers(min_value=1, max_value=3)),
        "max_instances": draw(st.sampled_from([None, 1, 2, 3, 5, 2_000])),
    }


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_matches_the_oracle_on_random_hosts(data):
    host = data.draw(hosts())
    assert_matches_oracle(host, **data.draw(options(host)))


# Growing a uniform star canonicalises its 8-leaf sub-star over 8!
# orderings, so star hosts take a second each: a few examples only.
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_matches_the_oracle_on_random_hosts_with_uniform_stars(data):
    host = data.draw(hosts(stars=True))
    assert_matches_oracle(host, **data.draw(options(host)))


def test_uniform_stars_take_the_too_symmetric_path():
    # Out-stars of 9 and 10 uniform leaves are too symmetric to
    # canonicalise, and the 10-star's parent is the 9-star, so the last
    # level is grouped by whole layouts.
    host = LabeledGraph(name="stars")
    _stars(host, 10, "place", "w")
    with activate(Tracer()) as tracer:
        result = SubdueMiner(max_substructure_edges=None, limit=None).mine(host)
    assert tracer.metrics.counter_total("canonical_fallbacks") > 0
    assert result.evaluated == 10
    assert_matches_oracle(host, max_substructure_edges=None, limit=None)


def _od_graph(attribute: str):
    config = ExperimentConfig(scale=0.01, seed=20050405)
    return build_od_graph(
        config.dataset(), edge_attribute=attribute, binning=config.binning(), vertex_labeling="uniform"
    )


def test_matches_the_oracle_on_the_f1_host():
    host = truncate_to_vertices(_od_graph("OD_GW"), 60)
    assert_matches_oracle(
        host,
        beam_width=4,
        max_best=5,
        max_substructure_edges=4,
        principle=EvaluationPrinciple.MDL,
        limit=400,
    )


@pytest.mark.parametrize("principle", list(EvaluationPrinciple))
@pytest.mark.parametrize("n_vertices", [20, 40, 60])
def test_matches_the_oracle_on_the_s51_hosts(n_vertices, principle):
    host = truncate_to_vertices(_od_graph("OD_TD"), n_vertices)
    assert_matches_oracle(
        host, beam_width=4, max_best=3, max_substructure_edges=6, principle=principle, limit=300
    )
