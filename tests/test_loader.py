"""Tests for CSV persistence of transaction datasets."""

from __future__ import annotations

import pytest

from repro.datasets.loader import iter_records, load_csv, save_csv
from repro.datasets.schema import ATTRIBUTE_NAMES


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
