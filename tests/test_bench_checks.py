"""The benchmarks' output check: a digest over canonical codes.

``benchmarks/conftest.fsg_digest`` is what every support benchmark
compares across its modes.  It must tell apart results that a
``(n_vertices, n_edges, support)`` signature cannot — a wrong pattern of
the right size and support — and must not depend on vertex naming.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.results import FrequentSubgraph, FSGResult

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


def _bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _edge(source_label: str, target_label: str, names=("a", "b")) -> LabeledGraph:
    graph = LabeledGraph(name="p")
    graph.add_vertex(names[0], source_label)
    graph.add_vertex(names[1], target_label)
    graph.add_edge(names[0], names[1], "x")
    return graph


def _result(*patterns: LabeledGraph) -> FSGResult:
    return FSGResult(
        patterns=[
            FrequentSubgraph(pattern=pattern, support=2, supporting_transactions=frozenset({0, 1}))
            for pattern in patterns
        ]
    )


def _old_signature(result: FSGResult):
    return sorted(
        (entry.pattern.n_vertices, entry.pattern.n_edges, entry.support)
        for entry in result.patterns
    )


def test_wrong_pattern_of_right_size_and_support_changes_the_digest():
    fsg_digest = _bench_conftest().fsg_digest
    right = _result(_edge("depot", "hub"))
    wrong = _result(_edge("hub", "depot"))
    assert _old_signature(right) == _old_signature(wrong)
    assert fsg_digest(right) != fsg_digest(wrong)


def test_digest_ignores_vertex_names_and_pattern_order():
    fsg_digest = _bench_conftest().fsg_digest
    first = _result(_edge("depot", "hub"), _edge("stop", "stop"))
    renamed = _result(
        _edge("stop", "stop", names=("u", "v")), _edge("depot", "hub", names=("q", "r"))
    )
    assert fsg_digest(first) == fsg_digest(renamed)


def test_digest_covers_supporting_tids():
    fsg_digest = _bench_conftest().fsg_digest
    moved = _result(_edge("depot", "hub"))
    moved.patterns[0].supporting_transactions = frozenset({0, 2})
    assert fsg_digest(moved) != fsg_digest(_result(_edge("depot", "hub")))
