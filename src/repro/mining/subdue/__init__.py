"""Beam-search substructure discovery over a single labeled graph (SUBDUE).

Section 5.1 of the paper runs release 5.1 of the SUBDUE system on the
transportation graph.  SUBDUE discovers interesting, repetitive subgraphs
in a single labeled graph by beam search: starting from single-vertex
substructures, it repeatedly extends instances by one edge and evaluates
each candidate substructure with the Minimum Description Length (MDL)
principle or the Size principle.  (SUBDUE can also replace the
discovered substructure with a single vertex and repeat, for a
hierarchical description of the graph; the paper's runs do not, so that
mode is not offered here.)

This package reimplements that algorithm so the paper's observations can
be reproduced: MDL rewards many small (often single-edge) patterns when
all vertices carry the same label, the Size principle surfaces larger
substructures, and runtime grows steeply with graph size.
"""

from repro.mining.subdue.substructure import Instance, Substructure
from repro.mining.subdue.evaluation import EvaluationPrinciple
from repro.mining.subdue.mdl import description_length, graph_size
from repro.mining.subdue.miner import SubdueMiner, SubdueResult

__all__ = [
    "Instance",
    "Substructure",
    "EvaluationPrinciple",
    "description_length",
    "graph_size",
    "SubdueMiner",
    "SubdueResult",
]
