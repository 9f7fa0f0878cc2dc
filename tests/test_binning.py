"""Unit tests for the edge-label binning strategy (Section 3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.binning import (
    AttributeBinning,
    Bin,
    BinningScheme,
    bin_values,
    default_binning_scheme,
)


class TestBin:
    def test_contains_is_half_open(self):
        interval = Bin(index=0, lower=0.0, upper=10.0)
        assert interval.contains(0.0)
        assert interval.contains(9.999)
        assert not interval.contains(10.0)

    def test_interval_label(self):
        assert Bin(index=0, lower=0.0, upper=6500.0).interval_label() == "[0, 6500]"


class TestAttributeBinning:
    def test_equal_width_bin_count(self):
        binning = AttributeBinning.equal_width("GROSS_WEIGHT", 0.0, 700.0, 7)
        assert binning.count == 7

    def test_equal_width_requires_valid_range(self):
        with pytest.raises(ValueError):
            AttributeBinning.equal_width("X", 10.0, 10.0, 5)
        with pytest.raises(ValueError):
            AttributeBinning.equal_width("X", 0.0, 10.0, 0)

    def test_values_beyond_nominal_max_fall_in_last_bin(self):
        binning = AttributeBinning.equal_width("GROSS_WEIGHT", 0.0, 70.0, 7)
        assert binning.index_for(69.0) == 6
        assert binning.index_for(1_000_000.0) == 6

    def test_values_below_minimum_clamp_to_first_bin(self):
        binning = AttributeBinning.equal_width("GROSS_WEIGHT", 10.0, 80.0, 7)
        assert binning.index_for(-5.0) == 0

    def test_similar_values_share_a_bin(self):
        # The paper's motivating example: 49-ton and 52-ton loads should be equal.
        binning = AttributeBinning.equal_width("GROSS_WEIGHT", 0.0, 500.0, 7)
        assert binning.index_for(49.0) == binning.index_for(52.0)

    def test_from_edges_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            AttributeBinning.from_edges("X", [0.0, 5.0, 5.0])
        with pytest.raises(ValueError):
            AttributeBinning.from_edges("X", [5.0, 0.0])

    def test_bin_values_helper(self):
        binning = AttributeBinning.equal_width("X", 0.0, 10.0, 2)
        assert bin_values([1.0, 6.0, 9.0], binning) == [0, 1, 1]


class TestBinningScheme:
    def test_default_scheme_matches_paper_label_counts(self, binning):
        counts = binning.label_counts()
        assert counts["GROSS_WEIGHT"] == 7
        assert counts["MOVE_TRANSIT_HOURS"] == 10

    def test_unknown_attribute_raises(self, binning):
        with pytest.raises(KeyError):
            binning.binning_for("NOT_AN_ATTRIBUTE")

    def test_edge_label_extracts_transaction_value(self, binning, tiny_dataset):
        txn = tiny_dataset[0]
        label = binning.edge_label(txn, "GROSS_WEIGHT")
        assert label == binning.bin_index("GROSS_WEIGHT", txn.gross_weight)

    def test_edge_interval_format(self, binning, tiny_dataset):
        txn = tiny_dataset[0]
        interval = binning.edge_interval(txn, "GROSS_WEIGHT")
        assert interval.startswith("[") and "," in interval

    def test_transaction_value_unknown_attribute(self, binning, tiny_dataset):
        with pytest.raises(KeyError):
            binning.transaction_value(tiny_dataset[0], "ORIGIN_LATITUDE")

    def test_custom_granularity(self):
        scheme = default_binning_scheme(weight_bins=3, hour_bins=4, distance_bins=5)
        assert scheme.label_counts() == {
            "GROSS_WEIGHT": 3,
            "MOVE_TRANSIT_HOURS": 4,
            "TOTAL_DISTANCE": 5,
        }

    def test_binning_scheme_registration(self):
        scheme = BinningScheme()
        scheme.add(AttributeBinning.equal_width("GROSS_WEIGHT", 0, 100, 4))
        assert scheme.bin_index("GROSS_WEIGHT", 99.0) == 3


class TestNonFiniteRejection:
    def test_nan_and_infinities_are_rejected_with_a_cleaning_hint(self):
        binning = AttributeBinning.equal_width("GROSS_WEIGHT", 0.0, 70_000.0, 7)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="clean or impute"):
                binning.bin_for(bad)
            with pytest.raises(ValueError):
                binning.index_for(bad)

    def test_finite_extremes_still_bin(self):
        binning = AttributeBinning.equal_width("GROSS_WEIGHT", 0.0, 70_000.0, 7)
        assert binning.index_for(-1e12) == 0           # clamps below range
        assert binning.index_for(1e12) == 6            # open-ended top bin


#: Bounds, edges and values: any float (nan and +-inf included) or a bool.
_numbers = st.one_of(st.floats(), st.booleans())
#: Bin counts: small integers, floats (whole or not) and bools.
_counts = st.one_of(st.integers(min_value=-2, max_value=30), st.floats(), st.booleans())


def _built(attribute, build):
    """``build()``, or ``None`` when it rejects its input with a ValueError naming *attribute*."""
    try:
        return build()
    except ValueError as error:
        assert attribute in str(error)
        return None


def _assert_well_formed(binning, values):
    """Edges finite (a last +inf excepted) and strictly increasing; every
    finite value in range lands in a bin that contains it, in order."""
    edges = [interval.lower for interval in binning.bins] + [binning.bins[-1].upper]
    assert all(math.isfinite(edge) for edge in edges[:-1])
    assert math.isfinite(edges[-1]) or edges[-1] == math.inf
    assert all(lower < upper for lower, upper in zip(edges, edges[1:]))
    probes = list(values) + edges[:-1]
    probes += [lower + (upper - lower) / 2 for lower, upper in zip(edges, edges[1:-1])]
    probes = sorted(
        value for value in probes if math.isfinite(value) and edges[0] <= value < edges[-1]
    )
    indexes = []
    for value in probes:
        interval = binning.bin_for(value)
        assert interval.contains(value)
        indexes.append(interval.index)
    assert indexes == sorted(indexes)


class TestBinningFuzzing:
    @settings(max_examples=300, deadline=None)
    @given(lower=_numbers, upper=_numbers, count=_counts, values=st.lists(_numbers, max_size=8))
    def test_equal_width_builds_ordered_bins_or_raises_value_error(
        self, lower, upper, count, values
    ):
        binning = _built("W", lambda: AttributeBinning.equal_width("W", lower, upper, count))
        if binning is not None:
            assert binning.count == count
            _assert_well_formed(binning, values)

    @settings(max_examples=300, deadline=None)
    @given(edges=st.lists(_numbers, max_size=6), values=st.lists(_numbers, max_size=8))
    def test_from_edges_builds_ordered_bins_or_raises_value_error(self, edges, values):
        binning = _built("W", lambda: AttributeBinning.from_edges("W", edges))
        if binning is not None:
            _assert_well_formed(binning, values)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: AttributeBinning.equal_width("W", math.nan, 10.0, 3),
            lambda: AttributeBinning.equal_width("W", -math.inf, 10.0, 3),
            lambda: AttributeBinning.equal_width("W", 0.0, math.inf, 3),
            lambda: AttributeBinning.equal_width("W", 0.0, 10.0, 2.5),
            lambda: AttributeBinning.equal_width("W", 0.0, 10.0, True),
            lambda: AttributeBinning.from_edges("W", [0.0, math.nan, 10.0]),
            lambda: AttributeBinning.from_edges("W", [-math.inf, 0.0, 10.0]),
        ],
        ids=[
            "nan-lower", "-inf-lower", "inf-upper", "float-count", "bool-count",
            "nan-edge", "-inf-first-edge",
        ],
    )
    def test_non_finite_bounds_edges_and_bad_counts_are_rejected(self, build):
        with pytest.raises(ValueError, match="W"):
            build()
