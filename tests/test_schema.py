"""Unit tests for the transaction schema (Table 1)."""

from __future__ import annotations

from datetime import date

import pytest

from repro.datasets.schema import (
    ATTRIBUTE_DESCRIPTIONS,
    ATTRIBUTE_NAMES,
    Location,
    TransMode,
    Transaction,
    TransactionDataset,
)


def _make_transaction(**overrides) -> Transaction:
    values = dict(
        id=1,
        req_pickup_dt=date(2004, 3, 1),
        req_delivery_dt=date(2004, 3, 3),
        origin=Location(41.9, -87.6),
        destination=Location(33.7, -84.4),
        total_distance=716.0,
        gross_weight=30_000.0,
        move_transit_hours=17.5,
        trans_mode=TransMode.TRUCKLOAD,
    )
    values.update(overrides)
    return Transaction(**values)


class TestLocation:
    def test_coordinates_round_to_tenth_of_degree(self):
        location = Location(41.8781, -87.6298)
        assert location.latitude == pytest.approx(41.9)
        assert location.longitude == pytest.approx(-87.6)

    def test_locations_rounding_to_same_point_are_equal(self):
        assert Location(41.87, -87.62) == Location(41.91, -87.58)

    def test_label_format(self):
        assert Location(41.9, -87.6).label() == "41.9,-87.6"

    def test_as_tuple(self):
        assert Location(40.0, -80.0).as_tuple() == (40.0, -80.0)

    @pytest.mark.parametrize(
        "latitude, longitude",
        [
            (float("nan"), -87.6),
            (41.9, float("nan")),
            (float("inf"), -87.6),
            (41.9, float("-inf")),
            (500.0, -87.6),
            (90.06, -87.6),
            (-90.1, -87.6),
            (41.9, 180.1),
            (41.9, -200.0),
        ],
    )
    def test_non_finite_and_out_of_range_coordinates_rejected(self, latitude, longitude):
        with pytest.raises(ValueError, match="latitude|longitude"):
            Location(latitude, longitude)

    def test_extreme_valid_coordinates_are_kept(self):
        assert Location(90.0, 0.0).as_tuple() == (90.0, 0.0)
        assert Location(-90.04, 180.0).as_tuple() == (-90.0, 180.0)
        assert Location(0.0, -180.0).as_tuple() == (0.0, -180.0)

    def test_locations_are_hashable_and_usable_as_vertices(self):
        places = {Location(41.9, -87.6), Location(41.9, -87.6), Location(33.7, -84.4)}
        assert len(places) == 2


class TestTransaction:
    def test_attribute_names_match_table1(self):
        assert len(ATTRIBUTE_NAMES) == 11
        assert set(ATTRIBUTE_NAMES) == set(ATTRIBUTE_DESCRIPTIONS)

    def test_delivery_before_pickup_rejected(self):
        with pytest.raises(ValueError, match="delivery date precedes"):
            _make_transaction(req_delivery_dt=date(2004, 2, 1))

    @pytest.mark.parametrize(
        "field", ["total_distance", "gross_weight", "move_transit_hours"]
    )
    def test_negative_numeric_values_rejected(self, field):
        with pytest.raises(ValueError):
            _make_transaction(**{field: -1.0})

    @pytest.mark.parametrize(
        "field", ["total_distance", "gross_weight", "move_transit_hours"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numeric_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="non-finite"):
            _make_transaction(**{field: value})

    def test_od_pair(self):
        txn = _make_transaction()
        assert txn.od_pair == (Location(41.9, -87.6), Location(33.7, -84.4))

    def test_transit_days_inclusive(self):
        txn = _make_transaction()
        assert txn.transit_days == 3

    def test_active_dates_cover_window(self):
        txn = _make_transaction()
        actives = list(txn.active_dates())
        assert actives == [date(2004, 3, 1), date(2004, 3, 2), date(2004, 3, 3)]

    def test_record_round_trip(self):
        txn = _make_transaction()
        restored = Transaction.from_record(txn.as_record())
        assert restored == txn

    def test_with_id(self):
        txn = _make_transaction()
        assert txn.with_id(99).id == 99
        assert txn.id == 1


class TestTransactionDataset:
    def test_len_and_iteration(self, tiny_dataset):
        assert len(tiny_dataset) == 4
        assert len(list(tiny_dataset)) == 4

    def test_locations_origins_destinations(self, tiny_dataset):
        assert len(tiny_dataset.locations) == 3
        assert len(tiny_dataset.origins) == 2
        assert len(tiny_dataset.destinations) == 2

    def test_od_pairs_deduplicated(self, tiny_dataset):
        # Transactions 1 and 4 share the same OD pair.
        assert len(tiny_dataset.od_pairs) == 3

    def test_date_range(self, tiny_dataset):
        start, end = tiny_dataset.date_range()
        assert start == date(2004, 1, 5)
        assert end == date(2004, 1, 13)

    def test_date_range_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            TransactionDataset().date_range()

    def test_filter(self, tiny_dataset):
        heavy = tiny_dataset.filter(lambda txn: txn.gross_weight > 10_000)
        assert len(heavy) == 2

    def test_sample_reproducible(self, tiny_dataset):
        import random

        first = tiny_dataset.sample(2, random.Random(3))
        second = tiny_dataset.sample(2, random.Random(3))
        assert [t.id for t in first] == [t.id for t in second]

    def test_sample_larger_than_dataset_returns_all(self, tiny_dataset):
        assert len(tiny_dataset.sample(100, __import__("random").Random(1))) == 4

    def test_records_round_trip(self, tiny_dataset):
        records = tiny_dataset.to_records()
        rebuilt = TransactionDataset.from_records(records, name="tiny")
        assert [t.id for t in rebuilt] == [t.id for t in tiny_dataset]


class TestZoneDirectory:
    def _directory(self):
        from repro.datasets.schema import ZoneDirectory

        directory = ZoneDirectory()
        directory.add("riverside", Location(45.0, -122.9), synonyms=("riverside district", "RIV"))
        directory.add("midtown", Location(45.1, -122.8))
        return directory

    def test_resolves_canonical_synonym_and_messy_spellings(self):
        directory = self._directory()
        for spelling in ("riverside", "Riverside", "  RIVERSIDE DISTRICT ", "riv", "riverside-district"):
            zone = directory.resolve(spelling)
            assert zone is not None and zone.name == "riverside"

    def test_unknown_blank_and_non_string_resolve_to_none(self):
        directory = self._directory()
        assert directory.resolve("uncharted-17") is None
        assert directory.resolve("") is None
        assert directory.resolve("   ") is None
        assert directory.resolve(None) is None
        assert directory.resolve(42) is None

    def test_conflicting_spelling_is_a_programmer_error(self):
        directory = self._directory()
        with pytest.raises(ValueError, match="already maps to"):
            directory.add("other", Location(45.2, -122.7), synonyms=("RIV",))

    def test_zones_in_registration_order(self):
        directory = self._directory()
        assert [zone.name for zone in directory.zones()] == ["riverside", "midtown"]
        assert len(directory) == 2


class TestCleanMobilityRecords:
    def _zones(self):
        from repro.datasets.schema import ZoneDirectory

        directory = ZoneDirectory()
        directory.add("alpha", Location(45.0, -122.9), synonyms=("alpha district",))
        directory.add("beta", Location(45.1, -122.8))
        return directory

    def _record(self, **overrides):
        base = dict(
            trip_id=1,
            origin_zone="alpha",
            dest_zone="beta",
            origin_lat=45.01,
            origin_lon=-122.91,
            dest_lat=45.11,
            dest_lon=-122.81,
            pickup_date="2004-03-02",
            delivery_date="2004-03-04",
            distance_miles=120.0,
            weight_lb=20_000.0,
            transit_hours=30.0,
            mode="TL",
        )
        base.update(overrides)
        return base

    def _clean(self, records, **kwargs):
        from repro.datasets.schema import clean_mobility_records

        return clean_mobility_records(records, self._zones(), **kwargs)

    def test_clean_record_passes_through_untouched(self):
        dataset, report = self._clean([self._record()])
        assert len(dataset) == 1
        assert report.rows_dropped == 0
        assert report.imputed_values == 0
        assert report.clipped_coordinates == 0
        assert report.clamped_timestamps == 0
        txn = dataset[0]
        assert txn.origin == Location(45.01, -122.91)
        assert txn.trans_mode is TransMode.TRUCKLOAD

    def test_unresolvable_zone_and_missing_pickup_are_dropped(self):
        records = [
            self._record(),
            self._record(trip_id=2, origin_zone="uncharted-3"),
            self._record(trip_id=3, pickup_date="not a date"),
            self._record(trip_id=4, pickup_date=None),
            self._record(trip_id=None),
        ]
        dataset, report = self._clean(records)
        assert len(dataset) == 1
        assert report.dropped_unresolvable_zone == 1
        assert report.dropped_missing_critical == 3
        assert report.rows_dropped == 4

    def test_synonym_spellings_are_counted(self):
        records = [self._record(origin_zone="Alpha District", dest_zone="BETA")]
        _, report = self._clean(records)
        # "Alpha District" is a synonym; "BETA" is just a case variant of
        # the canonical name and must not count.
        assert report.synonyms_resolved == 1

    def test_numeric_dirt_is_imputed_with_the_lower_median(self):
        records = [
            self._record(trip_id=1, weight_lb=10_000.0),
            self._record(trip_id=2, weight_lb=20_000.0),
            self._record(trip_id=3, weight_lb=40_000.0),
            self._record(trip_id=4, weight_lb=None),
            self._record(trip_id=5, weight_lb=float("nan")),
            self._record(trip_id=6, weight_lb=-5.0),
        ]
        dataset, report = self._clean(records)
        assert report.imputed_values == 3
        # Lower median of [10k, 20k, 40k] is 20k.
        for tid in (4, 5, 6):
            assert dataset[tid - 1].gross_weight == 20_000.0

    def test_imputation_never_learns_from_dropped_rows(self):
        records = [
            self._record(trip_id=1, weight_lb=10_000.0),
            # Dropped row with a huge weight: must not move the median.
            self._record(trip_id=2, origin_zone="nowhere", weight_lb=1e9),
            self._record(trip_id=3, weight_lb=None),
        ]
        dataset, _ = self._clean(records)
        assert dataset[-1].gross_weight == 10_000.0

    def test_coordinate_outliers_clip_to_the_zone_centroid(self):
        records = [
            self._record(origin_lat=5.0),                      # 40 degrees off
            self._record(trip_id=2, dest_lat=None),            # missing
            self._record(trip_id=3, dest_lon=float("inf")),    # non-finite
        ]
        dataset, report = self._clean(records)
        assert report.clipped_coordinates == 3
        assert dataset[0].origin == Location(45.0, -122.9)
        assert dataset[1].destination == Location(45.1, -122.8)
        assert dataset[2].destination == Location(45.1, -122.8)

    def test_pickup_clamped_into_observation_window(self):
        window = (date(2004, 3, 1), date(2004, 3, 31))
        records = [self._record(pickup_date="2028-12-30", delivery_date=None)]
        dataset, report = self._clean(records, observation_window=window)
        assert dataset[0].req_pickup_dt == date(2004, 3, 31)
        # Clamp + delivery rebuild both count.
        assert report.clamped_timestamps == 2

    def test_implausible_delivery_is_rebuilt_from_transit_hours(self):
        records = [
            self._record(delivery_date="2004-02-01", transit_hours=30.0),  # before pickup
            self._record(trip_id=2, delivery_date="2028-12-30"),            # years later
        ]
        dataset, report = self._clean(records)
        assert report.clamped_timestamps == 2
        # ceil(30h / 24h) = 2 days after the 2004-03-02 pickup.
        assert dataset[0].req_delivery_dt == date(2004, 3, 4)
        assert dataset[1].req_delivery_dt == date(2004, 3, 4)

    def test_mode_imputed_from_weight(self):
        records = [
            self._record(mode=None, weight_lb=5_000.0),
            self._record(trip_id=2, mode="junk", weight_lb=30_000.0),
            self._record(trip_id=3, mode="partial"),
        ]
        dataset, _ = self._clean(records)
        assert dataset[0].trans_mode is TransMode.LESS_THAN_TRUCKLOAD
        assert dataset[1].trans_mode is TransMode.TRUCKLOAD
        assert dataset[2].trans_mode is TransMode.LESS_THAN_TRUCKLOAD

    def test_cleaning_is_independent_of_row_order(self):
        records = [
            self._record(trip_id=1, weight_lb=None),
            self._record(trip_id=2, weight_lb=12_000.0),
            self._record(trip_id=3, weight_lb=28_000.0),
        ]
        forward, _ = self._clean(records)
        backward, _ = self._clean(list(reversed(records)))
        by_id_fwd = {t.id: t for t in forward}
        by_id_bwd = {t.id: t for t in backward}
        assert by_id_fwd.keys() == by_id_bwd.keys()
        for tid in by_id_fwd:
            assert by_id_fwd[tid] == by_id_bwd[tid]
