"""Edge-label binning strategy (Section 3 of the paper).

Labeling graph edges with the exact numeric values of weight, distance, or
transit hours would make almost every label unique, so no pattern would
ever be frequent.  The paper instead divides each attribute's range into a
small number of bins (seven for gross weight and ten for transit hours in
the reported experiments) and labels the edge with the bin.  Two loads of
49 and 52 tons then carry the same label and can support the same pattern.

:class:`BinningScheme` captures that mapping for the three numeric edge
attributes and produces both integer bin indices (compact labels used by
the miners) and interval strings (used when rendering figures such as the
weight-range labels of Figure 4).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.datasets.schema import Transaction

#: Attribute keys the binning scheme knows about.
BINNABLE_ATTRIBUTES: tuple[str, ...] = (
    "GROSS_WEIGHT",
    "MOVE_TRANSIT_HOURS",
    "TOTAL_DISTANCE",
)


@dataclass(frozen=True)
class Bin:
    """A half-open value interval ``[lower, upper)`` with an integer index."""

    index: int
    lower: float
    upper: float

    def contains(self, value: float) -> bool:
        """Whether *value* falls in this bin (upper bound exclusive)."""
        return self.lower <= value < self.upper

    def interval_label(self) -> str:
        """An interval string such as ``[0, 6500]``, as used in Figure 4."""
        return f"[{_format_number(self.lower)}, {_format_number(self.upper)}]"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.interval_label()


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def _build_bins(attribute: str, edges: Sequence[float]) -> list[Bin]:
    """Bins between consecutive *edges*.

    The edges must be finite, except a last ``+inf``, and strictly
    increasing; a NaN edge would compare false against every value.
    """
    ordered = list(edges)
    if len(ordered) < 2:
        raise ValueError(f"{attribute}: at least two bin edges are required")
    for edge in ordered[:-1]:
        if not math.isfinite(edge):
            raise ValueError(f"{attribute}: bin edge {edge!r} is not finite")
    if not (math.isfinite(ordered[-1]) or ordered[-1] == math.inf):
        raise ValueError(f"{attribute}: last bin edge {ordered[-1]!r} is neither finite nor +inf")
    if any(lower >= upper for lower, upper in zip(ordered, ordered[1:])):
        raise ValueError(f"{attribute}: bin edges must be strictly increasing")
    return [
        Bin(index=i, lower=ordered[i], upper=ordered[i + 1])
        for i in range(len(ordered) - 1)
    ]


@dataclass
class AttributeBinning:
    """Binning of a single numeric attribute into equal-width or custom bins."""

    attribute: str
    bins: list[Bin]

    @classmethod
    def equal_width(
        cls, attribute: str, lower: float, upper: float, count: int
    ) -> "AttributeBinning":
        """Create *count* equal-width bins covering ``[lower, upper]``.

        The final bin's upper edge is extended to positive infinity so any
        value at or above the nominal maximum still gets a label; the first
        bin similarly absorbs values below the nominal minimum.  Both
        bounds must be finite and *count* an integer (not a bool).
        """
        if isinstance(count, bool) or not isinstance(count, int):
            raise ValueError(f"{attribute}: bin count must be an integer, got {count!r}")
        if count < 1:
            raise ValueError(f"{attribute}: bin count must be at least 1")
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise ValueError(f"{attribute}: bounds [{lower!r}, {upper!r}] must be finite")
        if upper <= lower:
            raise ValueError(f"{attribute}: upper bound must exceed lower bound")
        width = (upper - lower) / count
        edges = [lower + i * width for i in range(count)]
        edges.append(float("inf"))
        bins = _build_bins(attribute, edges)
        return cls(attribute=attribute, bins=bins)

    @classmethod
    def from_edges(cls, attribute: str, edges: Sequence[float]) -> "AttributeBinning":
        """Create bins from an explicit, sorted edge list."""
        return cls(attribute=attribute, bins=_build_bins(attribute, edges))

    @property
    def count(self) -> int:
        """Number of bins."""
        return len(self.bins)

    def bin_for(self, value: float) -> Bin:
        """Return the bin containing *value* (values below the range clamp to bin 0).

        Non-finite values (NaN / ±inf) are rejected rather than silently
        landing in an arbitrary bin — a NaN compares false against every
        edge, so accepting it would make the label depend on the bisect
        implementation instead of the data.  Cleaning (see
        :func:`repro.datasets.schema.clean_mobility_records`) is expected
        to have removed or imputed such values first.
        """
        if not math.isfinite(value):
            raise ValueError(
                f"cannot bin non-finite {self.attribute} value {value!r}; "
                "clean or impute the record first"
            )
        lowers = [b.lower for b in self.bins]
        position = bisect_right(lowers, value) - 1
        if position < 0:
            position = 0
        return self.bins[position]

    def index_for(self, value: float) -> int:
        """Return the integer bin index for *value*."""
        return self.bin_for(value).index

    def label_for(self, value: float) -> str:
        """Return the interval-string label for *value*."""
        return self.bin_for(value).interval_label()


@dataclass
class BinningScheme:
    """Binning of all numeric edge attributes used by the graph builders."""

    attribute_binnings: dict[str, AttributeBinning] = field(default_factory=dict)

    def add(self, binning: AttributeBinning) -> None:
        """Register the binning of one attribute."""
        self.attribute_binnings[binning.attribute] = binning

    def binning_for(self, attribute: str) -> AttributeBinning:
        """Return the binning of *attribute*, raising ``KeyError`` if unknown."""
        if attribute not in self.attribute_binnings:
            raise KeyError(
                f"no binning registered for attribute {attribute!r}; "
                f"known attributes: {sorted(self.attribute_binnings)}"
            )
        return self.attribute_binnings[attribute]

    def bin_index(self, attribute: str, value: float) -> int:
        """Integer bin index of *value* under *attribute*'s binning."""
        return self.binning_for(attribute).index_for(value)

    def bin_label(self, attribute: str, value: float) -> str:
        """Interval-string label of *value* under *attribute*'s binning."""
        return self.binning_for(attribute).label_for(value)

    def label_counts(self) -> dict[str, int]:
        """Number of distinct labels (bins) per attribute."""
        return {name: binning.count for name, binning in self.attribute_binnings.items()}

    def transaction_value(self, transaction: Transaction, attribute: str) -> float:
        """Extract the raw numeric value of *attribute* from a transaction."""
        if attribute == "GROSS_WEIGHT":
            return transaction.gross_weight
        if attribute == "MOVE_TRANSIT_HOURS":
            return transaction.move_transit_hours
        if attribute == "TOTAL_DISTANCE":
            return transaction.total_distance
        raise KeyError(f"attribute {attribute!r} is not a binnable edge attribute")

    def edge_label(self, transaction: Transaction, attribute: str) -> int:
        """Bin index used as the edge label for *transaction* under *attribute*."""
        value = self.transaction_value(transaction, attribute)
        return self.bin_index(attribute, value)

    def edge_interval(self, transaction: Transaction, attribute: str) -> str:
        """Interval string used when rendering figures (e.g. Figure 4)."""
        value = self.transaction_value(transaction, attribute)
        return self.bin_label(attribute, value)


def default_binning_scheme(
    weight_bins: int = 7,
    hour_bins: int = 10,
    distance_bins: int = 10,
    max_weight: float = 70_000.0,
    max_hours: float = 200.0,
    max_distance: float = 3_500.0,
) -> BinningScheme:
    """Build the binning scheme used in the paper's experiments.

    The paper reports seven bins for gross weight and ten for transit
    hours; it does not state the distance bin count, so ten equal-width
    bins are used by default.  ``max_weight`` defaults to 70,000 pounds —
    the practical gross-weight range of truckload freight — so the seven
    weight bins separate light LTL loads from progressively heavier
    truckloads; the rare oversize loads (the paper notes a range of about
    500 tons) all land in the open-ended top bin.
    """
    scheme = BinningScheme()
    scheme.add(AttributeBinning.equal_width("GROSS_WEIGHT", 0.0, max_weight, weight_bins))
    scheme.add(AttributeBinning.equal_width("MOVE_TRANSIT_HOURS", 0.0, max_hours, hour_bins))
    scheme.add(AttributeBinning.equal_width("TOTAL_DISTANCE", 0.0, max_distance, distance_bins))
    return scheme


def bin_values(values: Iterable[float], binning: AttributeBinning) -> list[int]:
    """Convenience helper mapping an iterable of values to bin indices."""
    return [binning.index_for(value) for value in values]
