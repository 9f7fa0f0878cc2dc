"""The Section 9 challenges, made measurable: periodicity, windows, interestingness.

The paper closes with a list of open problems for graph mining on
transportation data.  Three of them have concrete implementations in this
library, demonstrated here:

1. **Periodicity of routes** — which lanes repeat with a stable period
   (weekly distribution runs, every-other-day shuttles)?
2. **Patterns over a time window** — how many frequent patterns only exist
   when activity is viewed over a week rather than a single day?
3. **Interestingness of graph patterns** — rank the mined patterns by lift
   against a label-frequency null model and filter to maximal patterns, so
   the trivial single-edge output the paper complains about sinks to the
   bottom.

Run with::

    python examples/challenge_extensions.py [scale]
"""

from __future__ import annotations

import sys

from repro import FSGMiner, create_runtime, generate_dataset
from repro.partitioning.temporal import graphs_of, partition_by_date, prepare_temporal_transactions
from repro.partitioning.windows import partition_by_window, window_graphs
from repro.patterns.graph_interestingness import maximal_patterns, score_patterns
from repro.patterns.periodicity import period_histogram, periodic_lanes
from repro.reporting.figures import render_pattern


def main(scale: float = 0.02) -> None:
    dataset = generate_dataset(scale=scale, seed=7)
    print(f"dataset: {len(dataset)} transactions\n")

    # ------------------------------------------------------------------
    # 1. Periodicity of repeated routes
    # ------------------------------------------------------------------
    lanes = periodic_lanes(dataset, min_occurrences=6, min_regularity=0.7)
    print(f"periodic lanes detected: {len(lanes)}")
    print(f"period histogram (days -> lanes): {period_histogram(lanes)}")
    if lanes:
        strongest = lanes[0]
        print(f"most regular lane: {strongest.origin.label()} -> {strongest.destination.label()} "
              f"every {strongest.period_days} day(s), {strongest.occurrences} runs, "
              f"regularity {strongest.regularity:.0%}\n")

    # ------------------------------------------------------------------
    # 2. Patterns over a time window vs a single date
    # ------------------------------------------------------------------
    # REPRO_WORKERS / REPRO_BACKEND choose the runtime (serial by default).
    with create_runtime() as runtime:
        miner = FSGMiner(min_support=0.3, max_edges=2, runtime=runtime)
        daily = prepare_temporal_transactions(partition_by_date(dataset))
        weekly = partition_by_window(dataset, window_days=7)
        daily_count = len(miner.mine(graphs_of(daily))) if daily else 0
        weekly_count = len(miner.mine(window_graphs(weekly))) if weekly else 0
        print(f"frequent patterns at 30% support, per-date transactions:  {daily_count}")
        print(f"frequent patterns at 30% support, 7-day window view:      {weekly_count}")
        print(f"patterns only visible over a window: {max(0, weekly_count - daily_count)}\n")

        # --------------------------------------------------------------
        # 3. Interestingness and maximality of mined patterns
        # --------------------------------------------------------------
        transactions = window_graphs(weekly)
        result = miner.mine(transactions) if transactions else None
    if result is not None and len(result) > 0:
        maximal = maximal_patterns(result.patterns)
        scored = score_patterns(maximal, transactions)
        print(f"frequent patterns: {len(result)}; after maximality filter: {len(maximal)}")
        print("top patterns by interestingness (lift x size-weighted support, shape-boosted):")
        for score in scored[:3]:
            print(f"  lift={score.lift:6.2f}  shape={score.shape.value:14s} "
                  f"support={score.pattern.support}")
        print()
        print(render_pattern(scored[0].pattern.pattern, title="Most interesting pattern"))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
