"""Temporally repeated routes (Section 6): per-day partitioning with FSG.

The second study keeps the vertices' identities (each place gets a unique
latitude/longitude label) and asks which routes repeat *over time*: the
dataset is partitioned into one graph transaction per calendar date,
containing every OD pair active on that date; each per-day graph is split
into connected components, filtered, and mined with FSG at 5% support.
The headline result is a small hub-and-spoke distribution run repeated
across many dates (Figure 4), with edges labeled by gross-weight ranges.

Run with::

    python examples/temporal_mining.py [scale]
"""

from __future__ import annotations

import sys

from repro import TemporalMiningPipeline, generate_dataset
from repro.partitioning.temporal import partition_by_date
from repro.reporting.figures import render_pattern
from repro.reporting.tables import render_temporal_summary


def main(scale: float = 0.02) -> None:
    dataset = generate_dataset(scale=scale, seed=7)
    print(f"dataset: {len(dataset)} transactions over "
          f"{(dataset.date_range()[1] - dataset.date_range()[0]).days + 1} days\n")

    days = partition_by_date(dataset, edge_attribute="GROSS_WEIGHT", use_interval_labels=True)
    pipeline = TemporalMiningPipeline(
        min_support=0.05,
        max_vertex_labels=None,       # first look at everything (Table 2)
        max_pattern_edges=3,
    )
    outcome = pipeline.run(days)

    print(render_temporal_summary(outcome.raw_summary, title="Table 2 equivalent: per-day graph transactions"))
    print()
    print(render_temporal_summary(outcome.prepared_summary,
                                  title="Table 3 equivalent: after component split and filtering"))
    print()

    print(f"frequent patterns at 5% support: {len(outcome.mining)}")
    largest = outcome.mining.largest()
    if largest is not None:
        print()
        print(render_pattern(
            largest.pattern,
            title=f"Figure 4 equivalent: largest temporally repeated pattern "
                  f"(support {largest.support} transactions)",
        ))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
