"""Labeled metrics: the one registry behind every counter in the repo.

A :class:`MetricsRegistry` holds three instrument families keyed by
``(name, labels)``:

* **counters** — monotonically accumulated sums (engine search counts,
  wire bytes, anchor extensions...).  Merging registries adds counters key-wise,
  which makes the merge *order-independent and associative*: per-shard
  registries gathered in any order produce the same totals as one
  registry that observed everything serially.  This is the property the
  sharded runtime's piggybacked metric shipping relies on (and that
  ``tests/test_obs.py`` pins with a property test).
* **gauges** — last-known level values (per-level wall-clock).
  Merging keeps the *maximum*, the only simple rule that stays
  commutative when the same gauge arrives from several shards.
* **histograms** — ``(count, total, min, max)`` summaries for values
  whose distribution matters more than their sum (per-message wire
  cost, per-level durations).  Element-wise merge is again commutative.

The registry supersedes the repo's three historical channels —
``FSGResult.level_seconds``, ``FSGResult.level_telemetry``, and
``MatchEngine.stats_snapshot()`` — which now feed it through
:meth:`absorb` while remaining available as back-compat shims.

Labels are normalised to sorted ``(key, value)`` string tuples, so
``counter("hits", shard="0", level="2")`` and
``counter("hits", level="2", shard="0")`` address the same series.
"""

from __future__ import annotations

from typing import Iterable, Mapping

_LabelKey = tuple[tuple[str, str], ...]
_SeriesKey = tuple[str, _LabelKey]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class MetricsRegistry:
    """Labeled counters, gauges, and histogram summaries."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    #: The no-op registry reports itself disabled; a real one is live.
    enabled = True

    def __init__(self) -> None:
        self._counters: dict[_SeriesKey, float] = {}
        self._gauges: dict[_SeriesKey, float] = {}
        # value = [count, total, minimum, maximum]
        self._histograms: dict[_SeriesKey, list[float]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def counter(self, name: str, value: float = 1, **labels) -> None:
        """Add *value* to the counter series ``(name, labels)``."""
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge series ``(name, labels)`` to *value*."""
        self._gauges[(name, _label_key(labels))] = value

    def histogram(self, name: str, value: float, **labels) -> None:
        """Fold *value* into the histogram summary ``(name, labels)``."""
        key = (name, _label_key(labels))
        summary = self._histograms.get(key)
        if summary is None:
            self._histograms[key] = [1, value, value, value]
        else:
            summary[0] += 1
            summary[1] += value
            summary[2] = min(summary[2], value)
            summary[3] = max(summary[3], value)

    def absorb(self, counters: Mapping[str, float], **labels) -> None:
        """Fold a plain ``name -> value`` counter dict into the registry.

        The adapter for the legacy channels (engine stat snapshots,
        session telemetry records): every non-zero entry becomes a
        counter increment under *labels*.  Zero entries are skipped so
        absorbing a zeroed snapshot leaves no empty series behind.
        """
        for name, value in counters.items():
            if value:
                self.counter(name, value, **labels)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry, in place.

        Counters add, gauges keep the max, histograms combine summaries
        — every rule commutative and associative, so any merge order
        over any partition of the same observations yields identical
        registries.
        """
        for key, value in other._counters.items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, value in other._gauges.items():
            current = self._gauges.get(key)
            self._gauges[key] = value if current is None else max(current, value)
        for key, summary in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                self._histograms[key] = list(summary)
            else:
                mine[0] += summary[0]
                mine[1] += summary[1]
                mine[2] = min(mine[2], summary[2])
                mine[3] = max(mine[3], summary[3])

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        """The value of one counter series (0 when never incremented)."""
        return self._counters.get((name, _label_key(labels)), 0)

    def counter_total(self, name: str) -> float:
        """The sum of counter *name* across every label set."""
        return sum(
            value for (series, _), value in self._counters.items() if series == name
        )

    def counter_series(self, name: str) -> dict[_LabelKey, float]:
        """Every label set of counter *name* with its value."""
        return {
            labels: value
            for (series, labels), value in self._counters.items()
            if series == name
        }

    def counter_names(self) -> list[str]:
        """Sorted distinct counter names."""
        return sorted({series for series, _ in self._counters})

    def is_empty(self) -> bool:
        return not (self._counters or self._gauges or self._histograms)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical JSON-able form; series sorted by (name, labels)."""

        def _series(table: Mapping[_SeriesKey, object]) -> Iterable[_SeriesKey]:
            return sorted(table)

        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": self._counters[(name, labels)]}
                for name, labels in _series(self._counters)
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": self._gauges[(name, labels)]}
                for name, labels in _series(self._gauges)
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "count": summary[0],
                    "total": summary[1],
                    "min": summary[2],
                    "max": summary[3],
                }
                for (name, labels), summary in sorted(self._histograms.items())
            ],
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        for entry in snapshot.get("counters", ()):
            registry.counter(entry["name"], entry["value"], **entry.get("labels", {}))
        for entry in snapshot.get("gauges", ()):
            registry.gauge(entry["name"], entry["value"], **entry.get("labels", {}))
        for entry in snapshot.get("histograms", ()):
            key = (entry["name"], _label_key(entry.get("labels", {})))
            registry._histograms[key] = [
                entry["count"],
                entry["total"],
                entry["min"],
                entry["max"],
            ]
        return registry


class NullMetrics:
    """The no-op registry behind a disabled tracer.

    Every recording method is an empty-body call, so instrumented code
    can record unconditionally without a single branch on its own — the
    disabled cost is one attribute lookup plus one no-op call.
    """

    __slots__ = ()

    enabled = False

    def counter(self, name: str, value: float = 1, **labels) -> None:
        pass

    def gauge(self, name: str, value: float, **labels) -> None:
        pass

    def histogram(self, name: str, value: float, **labels) -> None:
        pass

    def absorb(self, counters: Mapping[str, float], **labels) -> None:
        pass

    def merge(self, other) -> None:
        pass

    def counter_value(self, name: str, **labels) -> float:
        return 0

    def counter_total(self, name: str) -> float:
        return 0

    def counter_series(self, name: str) -> dict:
        return {}

    def counter_names(self) -> list[str]:
        return []

    def is_empty(self) -> bool:
        return True

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}


#: Shared no-op registry (see :data:`repro.obs.tracer.NULL_TRACER`).
NULL_METRICS = NullMetrics()
