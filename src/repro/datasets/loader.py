"""CSV persistence for transaction datasets.

The paper's pipeline starts from a flat file of OD transactions.  This
module provides a simple, dependency-free round-trip between
:class:`~repro.datasets.schema.TransactionDataset` and CSV files using the
Table 1 column names, so generated datasets can be cached on disk and
reloaded by examples and benchmarks.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from repro.datasets.schema import ATTRIBUTE_NAMES, Transaction, TransactionDataset


def save_csv(dataset: TransactionDataset, path: str | Path) -> Path:
    """Write *dataset* to *path* as CSV with the Table 1 column names.

    Returns the path written.  Parent directories are created if needed.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(ATTRIBUTE_NAMES))
        writer.writeheader()
        for transaction in dataset:
            writer.writerow(transaction.as_record())
    return target


def load_csv(path: str | Path, name: str | None = None) -> TransactionDataset:
    """Load a dataset previously written by :func:`save_csv`.

    Raises ``FileNotFoundError`` if the file does not exist and
    ``ValueError`` if required columns are missing or a row has missing
    or extra fields (naming the file and line).  Rows whose values fail
    :class:`~repro.datasets.schema.Transaction` validation raise that
    ``ValueError``.
    """
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"dataset file not found: {source}")
    with source.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = set(ATTRIBUTE_NAMES) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"dataset file {source} is missing columns: {sorted(missing)}")
        transactions = []
        for row in reader:
            # DictReader pads a short row with None values and files the
            # surplus of a long row under the None key.
            if None in row or None in row.values():
                raise ValueError(
                    f"dataset file {source} line {reader.line_num}: expected "
                    f"{len(reader.fieldnames)} fields, the row has missing or extra fields"
                )
            transactions.append(Transaction.from_record(row))
    return TransactionDataset(transactions=transactions, name=name or source.stem)


def iter_records(path: str | Path) -> Iterable[dict[str, str]]:
    """Stream raw CSV records without building Transaction objects.

    Useful for the conventional-mining feature extraction, which works on
    flat records rather than typed transactions.
    """
    source = Path(path)
    with source.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            yield row
