"""Substructure expansion: growing candidates by one edge at a time.

SUBDUE's search expands every instance of the current substructure by one
edge incident on the instance, then re-groups the extended instances by
the pattern they form.  Working at the instance level (rather than
re-running subgraph isomorphism against the whole host graph) keeps each
expansion step proportional to the number of instances times the local
edge density.  Instance vertices are walked in value order, so a host
handed to these helpers directly needs mutually orderable vertex ids
(:meth:`~repro.mining.subdue.miner.SubdueMiner.mine` ranks any host's
ids first).
"""

from __future__ import annotations

from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.subdue.substructure import (
    Instance,
    Substructure,
    group_instances_by_pattern,
)
from repro.obs.tracer import get_tracer


def initial_substructures(host: LabeledGraph, engine: MatchEngine) -> list[Substructure]:
    """One single-vertex substructure per distinct vertex label.

    Each substructure's instances are all host vertices carrying that
    label; these seed the beam search.  The seed vertex groups come
    straight from the label buckets of *host*'s index in *engine*: labels
    in first-seen vertex order, each label's vertices in host order.
    """
    index = engine.index_of(host)
    compact = index.compact
    substructures: list[Substructure] = []
    for label_id, bucket in index.by_label.items():
        label = compact.table.label(label_id)
        pattern = LabeledGraph(name=f"seed-{label}")
        pattern.add_vertex("p0", label)
        instances = [Instance.from_vertex(compact.vertex_ids[vertex]) for vertex in bucket]
        substructures.append(Substructure(pattern=pattern, instances=instances))
    return substructures


def expand_instance(host: LabeledGraph, instance: Instance) -> list[Instance]:
    """All one-edge extensions of *instance* using edges incident on it.

    Each extension carries *instance*'s recorded order plus the vertex it
    adds (see :meth:`Instance.extended_with`).
    """
    extensions: list[Instance] = []
    seen: set[frozenset] = set()
    for vertex in sorted(instance.vertices):
        for edge in host.incident_edges(vertex):
            if edge in instance.edges:
                continue
            extended = instance.extended_with(edge)
            key = extended.edges
            if key in seen:
                continue
            seen.add(key)
            extensions.append(extended)
    return extensions


def expand_substructure(
    host: LabeledGraph,
    substructure: Substructure,
    engine: MatchEngine,
) -> list[Substructure]:
    """Expand every instance by one edge and re-group by pattern.

    Duplicate instances (identical edge sets reached from different parent
    instances) are merged before grouping, which runs through *engine*
    (see :func:`~repro.mining.subdue.substructure.group_instances_by_pattern`).
    Each call is one ``subdue.expand`` span, its grouping included.
    """
    with get_tracer().span("subdue.expand"):
        extended: dict[tuple[frozenset, frozenset], Instance] = {}
        for instance in substructure.instances:
            for new_instance in expand_instance(host, instance):
                extended[(new_instance.vertices, new_instance.edges)] = new_instance
        if not extended:
            return []
        return group_instances_by_pattern(host, list(extended.values()), engine=engine)
