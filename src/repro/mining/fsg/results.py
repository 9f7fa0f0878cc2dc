"""Result containers for frequent-subgraph mining."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.motifs import MotifShape, classify_shape


@dataclass
class FrequentSubgraph:
    """A frequent connected subgraph and the transactions supporting it."""

    pattern: LabeledGraph
    support: int
    supporting_transactions: frozenset[int]

    @property
    def n_edges(self) -> int:
        """Number of edges in the pattern."""
        return self.pattern.n_edges

    @property
    def n_vertices(self) -> int:
        """Number of vertices in the pattern."""
        return self.pattern.n_vertices

    @property
    def shape(self) -> MotifShape:
        """The transportation motif shape of the pattern (labels ignored)."""
        return classify_shape(self.pattern)

    def relative_support(self, n_transactions: int) -> float:
        """Support as a fraction of the transaction count."""
        if n_transactions <= 0:
            raise ValueError("n_transactions must be positive")
        return self.support / n_transactions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrequentSubgraph(edges={self.n_edges}, vertices={self.n_vertices}, "
            f"support={self.support}, shape={self.shape.value})"
        )


@dataclass
class FSGResult:
    """The full output of one frequent-subgraph mining run."""

    patterns: list[FrequentSubgraph] = field(default_factory=list)
    n_transactions: int = 0
    min_support: int = 0
    levels_completed: int = 0
    candidates_generated: int = 0
    #: Mining-session counters per level (wire bytes shipped and the
    #: per-shard scan skew — see
    #: :data:`repro.runtime.base.SESSION_TELEMETRY_KEYS`), keyed by the
    #: level's edge count.  Serial runs report zeros.  A level's wall
    #: clock is its ``fsg.level`` span, and recoveries are counted by
    #: the runtime (``ShardedEngine.recovery``), not here.  Purely
    #: observational, never part of any digest.
    level_telemetry: dict[int, dict[str, float]] = field(
        default_factory=dict, compare=False
    )

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def session_totals(self) -> dict[str, float]:
        """Session telemetry summed across levels (empty dict when none)."""
        totals: dict[str, float] = {}
        for counters in self.level_telemetry.values():
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def by_size(self) -> dict[int, list[FrequentSubgraph]]:
        """Group the frequent patterns by edge count."""
        grouped: dict[int, list[FrequentSubgraph]] = {}
        for pattern in self.patterns:
            grouped.setdefault(pattern.n_edges, []).append(pattern)
        return grouped

    def shape_counts(self) -> dict[MotifShape, int]:
        """Histogram of motif shapes among the frequent patterns."""
        counts: dict[MotifShape, int] = {}
        for pattern in self.patterns:
            shape = pattern.shape
            counts[shape] = counts.get(shape, 0) + 1
        return counts

    def largest(self) -> FrequentSubgraph | None:
        """The frequent pattern with the most edges (ties broken by support)."""
        if not self.patterns:
            return None
        return max(self.patterns, key=lambda p: (p.n_edges, p.support))

    def top(self, count: int) -> list[FrequentSubgraph]:
        """The *count* most supported patterns, largest support first."""
        ordered = sorted(self.patterns, key=lambda p: (p.support, p.n_edges), reverse=True)
        return ordered[:count]
