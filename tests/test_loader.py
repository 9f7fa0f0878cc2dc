"""Tests for CSV persistence of transaction datasets."""

from __future__ import annotations

import csv
import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.loader import iter_records, load_csv, save_csv
from repro.datasets.schema import ATTRIBUTE_NAMES, TransactionDataset, TransMode


class TestCsvRoundTrip:
    def test_round_trip_preserves_transactions(self, tiny_dataset, tmp_path):
        path = save_csv(tiny_dataset, tmp_path / "tiny.csv")
        loaded = load_csv(path)
        assert len(loaded) == len(tiny_dataset)
        assert [t.as_record() for t in loaded] == [t.as_record() for t in tiny_dataset]

    def test_save_creates_parent_directories(self, tiny_dataset, tmp_path):
        path = save_csv(tiny_dataset, tmp_path / "nested" / "dir" / "tiny.csv")
        assert path.exists()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    def test_load_missing_columns_raises(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("ID,GROSS_WEIGHT\n1,100\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_csv(bad)

    def test_loaded_dataset_name_defaults_to_stem(self, tiny_dataset, tmp_path):
        path = save_csv(tiny_dataset, tmp_path / "shipments.csv")
        assert load_csv(path).name == "shipments"

    def test_iter_records_yields_all_columns(self, tiny_dataset, tmp_path):
        path = save_csv(tiny_dataset, tmp_path / "tiny.csv")
        records = list(iter_records(path))
        assert len(records) == len(tiny_dataset)
        assert set(records[0]) == set(ATTRIBUTE_NAMES)


class TestMalformedRows:
    """Each bad row fails with a ValueError, never a stray TypeError."""

    def _write(self, tiny_dataset, tmp_path, edit):
        """A saved CSV whose third line (second data row) went through *edit*."""
        path = save_csv(tiny_dataset, tmp_path / "bad.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        lines[2] = edit(header, lines[2].split(","))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_short_row_names_file_and_line(self, tiny_dataset, tmp_path):
        path = self._write(tiny_dataset, tmp_path, lambda header, row: ",".join(row[:-2]))
        with pytest.raises(ValueError, match=r"bad\.csv line 3: .*missing or extra fields"):
            load_csv(path)

    def test_long_row_names_file_and_line(self, tiny_dataset, tmp_path):
        path = self._write(tiny_dataset, tmp_path, lambda header, row: ",".join(row + ["9"]))
        with pytest.raises(ValueError, match=r"bad\.csv line 3: .*missing or extra fields"):
            load_csv(path)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("TOTAL_DISTANCE", "nan"),
            ("GROSS_WEIGHT", "inf"),
            ("MOVE_TRANSIT_HOURS", "nan"),
            ("ORIGIN_LATITUDE", "nan"),
            ("ORIGIN_LATITUDE", "500"),
            ("DEST_LONGITUDE", "-inf"),
        ],
    )
    def test_non_finite_or_out_of_range_value_rejected(
        self, tiny_dataset, tmp_path, column, value
    ):
        def edit(header, row):
            row[header.index(column)] = value
            return ",".join(row)

        path = self._write(tiny_dataset, tmp_path, edit)
        with pytest.raises(ValueError, match="non-finite|latitude|longitude"):
            load_csv(path)


# ----------------------------------------------------------------------
# Ingest fuzzing: a mutated record is accepted or rejected with ValueError
# ----------------------------------------------------------------------
def _coordinate(bound: float):
    return st.floats(-bound, bound).map(lambda value: round(value, 1))


@st.composite
def _valid_records(draw) -> dict[str, object]:
    pickup = draw(st.dates(min_value=date(2000, 1, 1), max_value=date(2010, 12, 31)))
    delivery = pickup + timedelta(days=draw(st.integers(0, 10)))
    return {
        "ID": draw(st.integers(0, 10**6)),
        "REQ_PICKUP_DT": pickup.isoformat(),
        "REQ_DELIVERY_DT": delivery.isoformat(),
        "ORIGIN_LATITUDE": draw(_coordinate(90)),
        "ORIGIN_LONGITUDE": draw(_coordinate(180)),
        "DEST_LATITUDE": draw(_coordinate(90)),
        "DEST_LONGITUDE": draw(_coordinate(180)),
        "TOTAL_DISTANCE": draw(st.floats(0, 5_000)),
        "GROSS_WEIGHT": draw(st.floats(0, 50_000)),
        "MOVE_TRANSIT_HOURS": draw(st.floats(0, 300)),
        "TRANS_MODE": draw(st.sampled_from([mode.value for mode in TransMode])),
    }


#: Stands for "delete the field" among the mutations.
_DROP = object()

_MUTATIONS = st.one_of(
    st.just(_DROP),
    st.sampled_from(
        [
            None,
            "",
            "abc",
            "nan",
            "-inf",
            float("nan"),
            float("inf"),
            10**400,
            "2005-02-30",
            "05/04/2005",
            "XL",
            "tl",
        ]
    ),
    st.text(alphabet="0123456789-.:eE+ nafiTLX", max_size=12),
    st.integers(),
    st.floats(),
)


def _mutated(record: dict[str, object], field: str, mutation: object) -> dict[str, object]:
    record = dict(record)
    if mutation is _DROP:
        del record[field]
    else:
        record[field] = mutation
    return record


def _accepted_or_value_error(load) -> None:
    # Any exception other than ValueError escapes and fails the test.
    try:
        load()
    except ValueError:
        pass


class TestIngestFuzzing:
    @given(
        record=_valid_records(),
        field=st.sampled_from(ATTRIBUTE_NAMES),
        mutation=_MUTATIONS,
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_record_is_accepted_or_rejected_with_value_error(
        self, record, field, mutation
    ):
        TransactionDataset.from_records([record])  # the base record is valid
        bad = _mutated(record, field, mutation)
        _accepted_or_value_error(lambda: TransactionDataset.from_records([bad]))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "fuzz.csv"
            # A dropped field drops its column; csv writes None as "".
            header = [name for name in ATTRIBUTE_NAMES if name in bad]
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.DictWriter(handle, fieldnames=header)
                writer.writeheader()
                writer.writerow(bad)
            _accepted_or_value_error(lambda: load_csv(path))

    @pytest.mark.parametrize("field", ["GROSS_WEIGHT", "ID", "TOTAL_DISTANCE"])
    def test_missing_or_none_field_is_named(self, tiny_dataset, field):
        record = tiny_dataset.to_records()[0]
        with pytest.raises(ValueError, match=f"no {field} field"):
            TransactionDataset.from_records([_mutated(record, field, _DROP)])
        with pytest.raises(ValueError, match=f"{field} is None"):
            TransactionDataset.from_records([_mutated(record, field, None)])
