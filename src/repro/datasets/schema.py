"""Transaction schema for the transportation network dataset.

Table 1 of the paper describes each OD (origin-destination) transaction
with eleven attributes: a unique identifier, requested pickup and delivery
dates, origin and destination coordinates (to the nearest 0.1 degree),
total road distance, gross weight, transit hours, and transport mode
(Truckload or Less-than-Truckload).

This module defines :class:`Transaction` (one row of the dataset),
:class:`Location` (a latitude/longitude pair used as a graph vertex), and
:class:`TransactionDataset` (an ordered collection with convenience
accessors used throughout the library).

It also owns the messy-ingest path: real mobility feeds arrive with
zone-name synonyms, missing values, and sensor outliers, and
:func:`clean_mobility_records` is the deterministic cleaner that turns
such raw records into Table-1 :class:`Transaction` rows —
:class:`ZoneDirectory` resolves zone naming, a two-pass median imputation
fills numeric gaps, and coordinate/timestamp outliers are clipped to the
zone centroid / observation window.  Every repair is counted in a
:class:`CleaningReport` so a pipeline can assert how dirty its input was.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence


class TransMode(str, enum.Enum):
    """Transport mode of a load.

    ``TL`` (Truckload) means the load fills a truck; ``LTL`` (Less than
    Truckload) means it shares a truck with other loads.  The paper's
    conventional-mining experiments (Section 7) find the mode is almost
    fully determined by gross weight.
    """

    TRUCKLOAD = "TL"
    LESS_THAN_TRUCKLOAD = "LTL"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Attribute names in the order used by Table 1 of the paper.
ATTRIBUTE_NAMES: tuple[str, ...] = (
    "ID",
    "REQ_PICKUP_DT",
    "REQ_DELIVERY_DT",
    "ORIGIN_LATITUDE",
    "ORIGIN_LONGITUDE",
    "DEST_LATITUDE",
    "DEST_LONGITUDE",
    "TOTAL_DISTANCE",
    "GROSS_WEIGHT",
    "MOVE_TRANSIT_HOURS",
    "TRANS_MODE",
)

#: Human-readable descriptions, mirroring Table 1.
ATTRIBUTE_DESCRIPTIONS: dict[str, str] = {
    "ID": "Unique transaction identifier.",
    "REQ_PICKUP_DT": "Requested date to pick up the load.",
    "REQ_DELIVERY_DT": "Requested delivery date.",
    "ORIGIN_LATITUDE": "Latitude of source (to nearest 0.1 degree).",
    "ORIGIN_LONGITUDE": "Longitude of source (to nearest 0.1 degree).",
    "DEST_LATITUDE": "Latitude of destination (to nearest 0.1 degree).",
    "DEST_LONGITUDE": "Longitude of destination (to nearest 0.1 degree).",
    "TOTAL_DISTANCE": "Road miles between origin and destination.",
    "GROSS_WEIGHT": "Weight of load.",
    "MOVE_TRANSIT_HOURS": "Hours needed to get from origin to destination.",
    "TRANS_MODE": "Truckload or Less than Truckload.",
}


def _round_coordinate(value: float) -> float:
    """Round a coordinate to the nearest 0.1 degree, as in the dataset."""
    return round(value, 1)


@dataclass(frozen=True, order=True)
class Location:
    """A latitude/longitude pair identifying a place in the network.

    Coordinates are stored to the nearest 0.1 degree, matching the
    resolution of the paper's dataset; two loads whose endpoints round to
    the same pair are treated as sharing a vertex.
    """

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        latitude = _round_coordinate(self.latitude)
        longitude = _round_coordinate(self.longitude)
        # NaN never equals itself, so a NaN coordinate would split one
        # place into many vertices; reject it with the out-of-range ones.
        if not (math.isfinite(latitude) and abs(latitude) <= 90):
            raise ValueError(f"latitude must be finite and within [-90, 90], got {self.latitude!r}")
        if not (math.isfinite(longitude) and abs(longitude) <= 180):
            raise ValueError(
                f"longitude must be finite and within [-180, 180], got {self.longitude!r}"
            )
        object.__setattr__(self, "latitude", latitude)
        object.__setattr__(self, "longitude", longitude)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(latitude, longitude)``."""
        return (self.latitude, self.longitude)

    @cached_property
    def _label(self) -> str:
        # Built once per object: temporal partitioning labels a vertex per
        # transaction endpoint, and SUBDUE ranks its host's vertices by it.
        return f"{self.latitude:.1f},{self.longitude:.1f}"

    def label(self) -> str:
        """A compact string label, used for vertex labeling in Section 6."""
        return self._label

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self._label


@dataclass(frozen=True)
class Transaction:
    """One origin-destination freight transaction (one row of Table 1)."""

    id: int
    req_pickup_dt: date
    req_delivery_dt: date
    origin: Location
    destination: Location
    total_distance: float
    gross_weight: float
    move_transit_hours: float
    trans_mode: TransMode

    def __post_init__(self) -> None:
        if self.req_delivery_dt < self.req_pickup_dt:
            raise ValueError(
                "delivery date precedes pickup date for transaction "
                f"{self.id}: {self.req_delivery_dt} < {self.req_pickup_dt}"
            )
        for field_name, noun in (
            ("total_distance", "distance"),
            ("gross_weight", "gross weight"),
            ("move_transit_hours", "transit hours"),
        ):
            value = getattr(self, field_name)
            # ``nan < 0`` is false, so the finiteness check must come first.
            if not math.isfinite(value):
                raise ValueError(f"non-finite {noun} for transaction {self.id}: {value!r}")
            if value < 0:
                raise ValueError(f"negative {noun} for transaction {self.id}")

    @property
    def od_pair(self) -> tuple[Location, Location]:
        """The (origin, destination) pair identifying the network edge."""
        return (self.origin, self.destination)

    @property
    def transit_days(self) -> int:
        """Number of calendar days between pickup and delivery, inclusive."""
        return (self.req_delivery_dt - self.req_pickup_dt).days + 1

    def active_dates(self) -> Iterator[date]:
        """Yield every date on which the load may be in transit.

        Section 6 of the paper treats an OD pair as an *active edge* on
        every date between the requested pickup and delivery dates; this
        iterator drives the temporal partitioning.
        """
        current = self.req_pickup_dt
        while current <= self.req_delivery_dt:
            yield current
            current += timedelta(days=1)

    def with_id(self, new_id: int) -> "Transaction":
        """Return a copy with a different identifier."""
        return replace(self, id=new_id)

    def as_record(self) -> dict[str, object]:
        """Return a flat dict keyed by the Table 1 attribute names."""
        return {
            "ID": self.id,
            "REQ_PICKUP_DT": self.req_pickup_dt.isoformat(),
            "REQ_DELIVERY_DT": self.req_delivery_dt.isoformat(),
            "ORIGIN_LATITUDE": self.origin.latitude,
            "ORIGIN_LONGITUDE": self.origin.longitude,
            "DEST_LATITUDE": self.destination.latitude,
            "DEST_LONGITUDE": self.destination.longitude,
            "TOTAL_DISTANCE": self.total_distance,
            "GROSS_WEIGHT": self.gross_weight,
            "MOVE_TRANSIT_HOURS": self.move_transit_hours,
            "TRANS_MODE": self.trans_mode.value,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "Transaction":
        """Build a transaction from a flat record produced by :meth:`as_record`.

        A missing field, a ``None`` value, or a value that does not parse
        as its column's type raises ``ValueError`` naming the field, as
        does every check :class:`Location` and :class:`Transaction` make.
        """

        def parsed(name: str, parse):
            if name not in record:
                raise ValueError(f"record has no {name} field")
            value = record[name]
            if value is None:
                raise ValueError(f"record field {name} is None")
            try:
                return parse(value)
            except (TypeError, ValueError, OverflowError) as error:
                raise ValueError(f"record field {name}={value!r}: {error}") from error

        def iso_date(value: object) -> date:
            return date.fromisoformat(str(value))

        return cls(
            id=parsed("ID", int),
            req_pickup_dt=parsed("REQ_PICKUP_DT", iso_date),
            req_delivery_dt=parsed("REQ_DELIVERY_DT", iso_date),
            origin=Location(
                parsed("ORIGIN_LATITUDE", float), parsed("ORIGIN_LONGITUDE", float)
            ),
            destination=Location(
                parsed("DEST_LATITUDE", float), parsed("DEST_LONGITUDE", float)
            ),
            total_distance=parsed("TOTAL_DISTANCE", float),
            gross_weight=parsed("GROSS_WEIGHT", float),
            move_transit_hours=parsed("MOVE_TRANSIT_HOURS", float),
            trans_mode=parsed("TRANS_MODE", lambda value: TransMode(str(value))),
        )


@dataclass
class TransactionDataset:
    """An ordered collection of :class:`Transaction` records.

    The dataset is the single entry point for every experiment: graph
    builders, temporal partitioning, and the conventional-mining feature
    extraction all consume it.
    """

    transactions: list[Transaction] = field(default_factory=list)
    name: str = "transportation-od"

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self.transactions[index]

    def add(self, transaction: Transaction) -> None:
        """Append a transaction to the dataset."""
        self.transactions.append(transaction)

    def extend(self, transactions: Iterable[Transaction]) -> None:
        """Append many transactions to the dataset."""
        self.transactions.extend(transactions)

    @property
    def locations(self) -> set[Location]:
        """All distinct locations appearing as an origin or destination."""
        found: set[Location] = set()
        for txn in self.transactions:
            found.add(txn.origin)
            found.add(txn.destination)
        return found

    @property
    def origins(self) -> set[Location]:
        """All distinct origin locations."""
        return {txn.origin for txn in self.transactions}

    @property
    def destinations(self) -> set[Location]:
        """All distinct destination locations."""
        return {txn.destination for txn in self.transactions}

    @property
    def od_pairs(self) -> set[tuple[Location, Location]]:
        """All distinct (origin, destination) pairs."""
        return {txn.od_pair for txn in self.transactions}

    def date_range(self) -> tuple[date, date]:
        """Earliest pickup date and latest delivery date in the dataset."""
        if not self.transactions:
            raise ValueError("cannot compute the date range of an empty dataset")
        earliest = min(txn.req_pickup_dt for txn in self.transactions)
        latest = max(txn.req_delivery_dt for txn in self.transactions)
        return (earliest, latest)

    def filter(self, predicate) -> "TransactionDataset":
        """Return a new dataset containing transactions matching *predicate*."""
        kept = [txn for txn in self.transactions if predicate(txn)]
        return TransactionDataset(transactions=kept, name=self.name)

    def sample(self, count: int, rng) -> "TransactionDataset":
        """Return a new dataset with *count* transactions sampled without replacement.

        ``rng`` is a :class:`random.Random` instance so sampling is
        reproducible; sampling more rows than exist returns a copy.
        """
        if count >= len(self.transactions):
            picked = list(self.transactions)
        else:
            picked = rng.sample(self.transactions, count)
        return TransactionDataset(transactions=picked, name=f"{self.name}-sample")

    def to_records(self) -> list[dict[str, object]]:
        """Return all transactions as flat records (Table 1 column names)."""
        return [txn.as_record() for txn in self.transactions]

    @classmethod
    def from_records(
        cls, records: Sequence[dict[str, object]], name: str = "transportation-od"
    ) -> "TransactionDataset":
        """Build a dataset from flat records."""
        return cls(
            transactions=[Transaction.from_record(record) for record in records],
            name=name,
        )


# ----------------------------------------------------------------------
# Messy-ingest cleaning: zone resolution, imputation, outlier clipping
# ----------------------------------------------------------------------
def _normalise_zone_name(raw: str) -> str:
    """Case/punctuation-insensitive key for zone-name lookups."""
    cleaned = raw.strip().lower()
    for punctuation in "-_./,":
        cleaned = cleaned.replace(punctuation, " ")
    return " ".join(cleaned.split())


@dataclass(frozen=True)
class Zone:
    """A named urban zone with the centroid its trips snap to."""

    name: str
    centroid: Location


class ZoneDirectory:
    """Canonical zone names plus the synonyms raw feeds use for them.

    Multi-source mobility data rarely agrees on naming — one feed says
    ``"Riverside"``, another ``"riverside dist."``, a third ``"RVS"``.
    The directory maps every registered spelling (canonical name and
    explicit synonyms, compared case- and punctuation-insensitively) to
    one :class:`Zone`; unknown names resolve to ``None`` and it is the
    cleaner's job to drop those rows.
    """

    def __init__(self) -> None:
        self._zones: list[Zone] = []
        self._lookup: dict[str, Zone] = {}

    def add(self, name: str, centroid: Location, synonyms: Sequence[str] = ()) -> Zone:
        """Register a zone under its canonical *name* and *synonyms*."""
        zone = Zone(name=name, centroid=centroid)
        for spelling in (name, *synonyms):
            key = _normalise_zone_name(spelling)
            existing = self._lookup.get(key)
            if existing is not None and existing.name != name:
                raise ValueError(
                    f"zone spelling {spelling!r} already maps to {existing.name!r}"
                )
            self._lookup[key] = zone
        self._zones.append(zone)
        return zone

    def resolve(self, raw: object) -> Zone | None:
        """The zone *raw* names, or ``None`` when unknown/blank."""
        if not isinstance(raw, str) or not raw.strip():
            return None
        return self._lookup.get(_normalise_zone_name(raw))

    def zones(self) -> list[Zone]:
        """Registered zones, in registration order."""
        return list(self._zones)

    def __len__(self) -> int:
        return len(self._zones)


@dataclass
class CleaningReport:
    """What :func:`clean_mobility_records` did to one raw feed.

    Counts, not samples: the report is meant for assertions ("this
    corpus had ~3% missing values and they were all imputed") and for
    logging, never for reconstructing the dropped rows.
    """

    rows_in: int = 0
    rows_kept: int = 0
    dropped_unresolvable_zone: int = 0
    dropped_missing_critical: int = 0
    synonyms_resolved: int = 0
    imputed_values: int = 0
    clipped_coordinates: int = 0
    clamped_timestamps: int = 0

    @property
    def rows_dropped(self) -> int:
        return self.dropped_unresolvable_zone + self.dropped_missing_critical


#: Numeric record fields the cleaner imputes, with the Transaction
#: attribute each feeds.
_NUMERIC_FIELDS = ("distance_miles", "weight_lb", "transit_hours")

#: How far (in degrees, either axis) a reported coordinate may sit from
#: its zone's centroid before it is treated as a sensor outlier.
_COORDINATE_TOLERANCE_DEGREES = 1.5

#: Longest plausible pickup-to-delivery span for a road move; anything
#: beyond this is treated as a corrupted timestamp and rebuilt.
_MAX_TRANSIT_DAYS = 31


def _finite_or_none(value: object) -> float | None:
    """*value* as a non-negative finite float, else ``None``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    number = float(value)
    if not math.isfinite(number) or number < 0:
        return None
    return number


def _lower_median(values: Sequence[float]) -> float:
    """The lower median — deterministic, no float averaging."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _parse_date(value: object) -> date | None:
    if isinstance(value, date):
        return value
    if isinstance(value, str):
        try:
            return date.fromisoformat(value.strip())
        except ValueError:
            return None
    return None


def _parse_mode(value: object) -> TransMode | None:
    if isinstance(value, TransMode):
        return value
    if not isinstance(value, str):
        return None
    text = value.strip().upper()
    if text in ("TL", "TRUCKLOAD", "FULL"):
        return TransMode.TRUCKLOAD
    if text in ("LTL", "LESS-THAN-TRUCKLOAD", "LESS THAN TRUCKLOAD", "PARTIAL"):
        return TransMode.LESS_THAN_TRUCKLOAD
    return None


def _clean_coordinate(
    raw_lat: object, raw_lon: object, centroid: Location
) -> tuple[Location, bool]:
    """A location near *centroid*, clipping outliers; returns (loc, clipped)."""
    lat = raw_lat if isinstance(raw_lat, (int, float)) and not isinstance(raw_lat, bool) else None
    lon = raw_lon if isinstance(raw_lon, (int, float)) and not isinstance(raw_lon, bool) else None
    if (
        lat is None
        or lon is None
        or not math.isfinite(float(lat))
        or not math.isfinite(float(lon))
        or abs(float(lat) - centroid.latitude) > _COORDINATE_TOLERANCE_DEGREES
        or abs(float(lon) - centroid.longitude) > _COORDINATE_TOLERANCE_DEGREES
    ):
        return centroid, True
    return Location(float(lat), float(lon)), False


def clean_mobility_records(
    records: Sequence[Mapping[str, object]],
    zones: ZoneDirectory,
    observation_window: tuple[date, date] | None = None,
    name: str = "mobility",
) -> tuple[TransactionDataset, CleaningReport]:
    """Deterministically clean raw mobility *records* into a dataset.

    Each record is a flat mapping with (possibly missing or garbage)
    keys ``trip_id``, ``origin_zone`` / ``dest_zone``, ``origin_lat`` /
    ``origin_lon`` / ``dest_lat`` / ``dest_lon``, ``pickup_date`` /
    ``delivery_date``, ``distance_miles`` / ``weight_lb`` /
    ``transit_hours``, and ``mode``.  The cleaning rules, in order:

    * rows whose zones the directory cannot resolve are dropped (zone
      identity is what graph vertices are built from — there is nothing
      sound to impute);
    * rows with no parseable pickup date are dropped (temporal
      partitioning cannot place them);
    * missing / non-finite / negative numerics are imputed with the
      **lower median** of the feed's valid values for that field (two
      passes over the input, so the result is independent of row order
      and of hash seeds);
    * coordinates missing or further than ±1.5° from the resolved zone's
      centroid are clipped to the centroid, so a GPS glitch can never
      mint a phantom graph vertex;
    * pickup dates outside *observation_window* (when given) are clamped
      into it, and a missing or pickup-preceding delivery date is
      rebuilt from the (possibly imputed) transit hours.

    Every repair increments the returned :class:`CleaningReport`.
    Records that name a zone through a synonym (any registered spelling
    other than the canonical name) count toward ``synonyms_resolved``.
    """
    report = CleaningReport(rows_in=len(records))

    # Pass 1: per-field medians over the valid values of rows that will
    # be kept, so imputation never learns from dropped garbage.
    valid_values: dict[str, list[float]] = {fieldname: [] for fieldname in _NUMERIC_FIELDS}
    keepable: list[tuple[Mapping[str, object], Zone, Zone, date]] = []
    for record in records:
        origin_zone = zones.resolve(record.get("origin_zone"))
        dest_zone = zones.resolve(record.get("dest_zone"))
        if origin_zone is None or dest_zone is None:
            report.dropped_unresolvable_zone += 1
            continue
        pickup = _parse_date(record.get("pickup_date"))
        if pickup is None or record.get("trip_id") is None:
            report.dropped_missing_critical += 1
            continue
        keepable.append((record, origin_zone, dest_zone, pickup))
        for fieldname in _NUMERIC_FIELDS:
            value = _finite_or_none(record.get(fieldname))
            if value is not None:
                valid_values[fieldname].append(value)
    medians = {
        fieldname: (_lower_median(values) if values else 0.0)
        for fieldname, values in valid_values.items()
    }

    # Pass 2: materialise cleaned transactions.
    transactions: list[Transaction] = []
    for record, origin_zone, dest_zone, pickup in keepable:
        for zone_key, zone in (("origin_zone", origin_zone), ("dest_zone", dest_zone)):
            if _normalise_zone_name(str(record[zone_key])) != _normalise_zone_name(zone.name):
                report.synonyms_resolved += 1

        numerics: dict[str, float] = {}
        for fieldname in _NUMERIC_FIELDS:
            value = _finite_or_none(record.get(fieldname))
            if value is None:
                value = medians[fieldname]
                report.imputed_values += 1
            numerics[fieldname] = value

        origin, clipped_origin = _clean_coordinate(
            record.get("origin_lat"), record.get("origin_lon"), origin_zone.centroid
        )
        destination, clipped_dest = _clean_coordinate(
            record.get("dest_lat"), record.get("dest_lon"), dest_zone.centroid
        )
        report.clipped_coordinates += int(clipped_origin) + int(clipped_dest)

        if observation_window is not None:
            window_start, window_end = observation_window
            clamped_pickup = min(max(pickup, window_start), window_end)
            if clamped_pickup != pickup:
                report.clamped_timestamps += 1
                pickup = clamped_pickup
        delivery = _parse_date(record.get("delivery_date"))
        # A delivery more than a month after pickup is as corrupt as one
        # before it: road transit is measured in days, and a teleported
        # pickup that was clamped above would otherwise drag its original
        # far-future delivery along.  Rebuild from transit hours instead.
        implausible = (
            delivery is not None
            and (delivery < pickup or (delivery - pickup).days > _MAX_TRANSIT_DAYS)
        )
        if delivery is None or implausible:
            transit_days = max(0, int(math.ceil(numerics["transit_hours"] / 24.0)))
            delivery = pickup + timedelta(days=transit_days)
            report.clamped_timestamps += 1

        mode = _parse_mode(record.get("mode"))
        if mode is None:
            # The paper's own observation: mode is almost fully determined
            # by gross weight, so it is the one field safely derivable.
            mode = (
                TransMode.LESS_THAN_TRUCKLOAD
                if numerics["weight_lb"] < 10_000.0
                else TransMode.TRUCKLOAD
            )
            report.imputed_values += 1

        transactions.append(
            Transaction(
                id=int(record["trip_id"]),  # type: ignore[arg-type]
                req_pickup_dt=pickup,
                req_delivery_dt=delivery,
                origin=origin,
                destination=destination,
                total_distance=numerics["distance_miles"],
                gross_weight=numerics["weight_lb"],
                move_transit_hours=numerics["transit_hours"],
                trans_mode=mode,
            )
        )
    report.rows_kept = len(transactions)
    return TransactionDataset(transactions=transactions, name=name), report
