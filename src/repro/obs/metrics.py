"""Labeled counters: the one registry behind every counted fact in the repo.

A :class:`MetricsRegistry` holds monotonically accumulated sums (engine
search counts, wire bytes, anchor extensions, recoveries...) keyed by
``(name, labels)``.  Merging registries adds counters key-wise, which
makes the merge *order-independent and associative*: per-shard
registries gathered in any order produce the same totals as one
registry that observed everything serially.  This is the property the
sharded runtime's piggybacked metric shipping relies on (and that
``tests/test_obs.py`` pins with a property test).

Counters are the registry's only instrument.  Timings live in spans
(:mod:`repro.obs.tracer`): a level's wall clock is its ``fsg.level``
span, a recovery's is its ``runtime.recovery`` span, so no duration is
recorded twice.

Labels are normalised to sorted ``(key, value)`` string tuples, so
``counter("hits", shard="0", level="2")`` and
``counter("hits", level="2", shard="0")`` address the same series.
"""

from __future__ import annotations

from typing import Mapping

_LabelKey = tuple[tuple[str, str], ...]
_SeriesKey = tuple[str, _LabelKey]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class MetricsRegistry:
    """Labeled counters."""

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: dict[_SeriesKey, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def counter(self, name: str, value: float = 1, **labels) -> None:
        """Add *value* to the counter series ``(name, labels)``."""
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0) + value

    def absorb(self, counters: Mapping[str, float], **labels) -> None:
        """Fold a plain ``name -> value`` counter dict into the registry.

        The adapter for dict-shaped counters (engine stat deltas, session
        telemetry records): every non-zero entry becomes a counter
        increment under *labels*.  Zero entries are skipped so absorbing
        a zeroed snapshot leaves no empty series behind.
        """
        for name, value in counters.items():
            if value:
                self.counter(name, value, **labels)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry, in place.

        Counters add, a commutative and associative rule, so any merge
        order over any partition of the same observations yields
        identical registries.
        """
        for key, value in other._counters.items():
            self._counters[key] = self._counters.get(key, 0) + value

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
        return not self._counters

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical JSON-able form; series sorted by (name, labels)."""
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ],
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output.

        Only the ``counters`` key is read, so snapshots that also carry
        the ``gauges`` / ``histograms`` families older writers recorded
        still load, with those entries ignored.
        """
        registry = cls()
        for entry in snapshot.get("counters", ()):
            registry.counter(entry["name"], entry["value"], **entry.get("labels", {}))
        return registry


class NullMetrics:
    """The no-op registry behind a disabled tracer.

    Every recording method is an empty-body call, so instrumented code
    can record unconditionally without a single branch on its own — the
    disabled cost is one attribute lookup plus one no-op call.
    """

    __slots__ = ()

    def counter(self, name: str, value: float = 1, **labels) -> None:
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
        return {"counters": []}


#: Shared no-op registry (see :data:`repro.obs.tracer.NULL_TRACER`).
NULL_METRICS = NullMetrics()
