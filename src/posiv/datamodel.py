"""Observation-level data types, validation, and CSV / JSON-lines ingestion.

A Dataset is an immutable column table. Two schemas exist: the edge level
(one row per item shown in a request) and the session level (one row per
request, produced by aggregation). CSV is the canonical interchange format:
mandatory header, UTF-8, "." decimals, optional values encoded as the empty
string. Opaque ids parse as unsigned 64-bit integers; anything non-numeric is
hashed with FNV-1a so fixtures stay portable.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import operator
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyDataset,
    InputError,
    IoFailure,
    MissingColumn,
    MixedArmsWithinUser,
)
from .rng import fnv1a64

# column kinds: id (uint64), int (int64), count (int64 >= 0), float, str
EDGE_SCHEMA: tuple[tuple[str, str, bool], ...] = (
    ("request_id", "id", True),
    ("user_id", "id", False),  # defaults to request_id when absent
    ("item_id", "id", True),
    ("position", "int", True),
    ("outcome", "int", True),
    ("arm", "str", False),
    ("reason", "str", False),
    ("relevance_score", "float", False),
    ("session_depth", "int", False),
)

SESSION_SCHEMA: tuple[tuple[str, str, bool], ...] = (
    ("request_id", "id", True),
    ("user_id", "id", True),
    ("arm", "str", False),
    ("reason_mode", "str", False),
    ("n_top_spot", "int", True),
    ("n_bottom_spot", "int", True),
    ("invite_total", "int", True),
)

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class EdgeObservation:
    """One (item, request, position) row: the unit of the edge-level analysis."""

    request_id: int
    user_id: int
    item_id: int
    position: int
    outcome: int
    arm: str | None = None
    reason: str | None = None
    relevance_score: float | None = None
    session_depth: int | None = None


class Dataset:
    """Immutable column table plus schema metadata and a lineage tag.

    Equality compares schema and cell values (NaN equals NaN); provenance and
    the drop/duplicate counters are lineage metadata and excluded. Arrays are
    write-protected, so a Dataset is safe to share across threads.
    """

    def __init__(
        self,
        data: Mapping[str, np.ndarray],
        schema: Sequence[tuple[str, str, bool]],
        provenance: str = "",
        n_dropped: int = 0,
        n_duplicates: int = 0,
    ):
        names = [name for name, _, _ in schema if name in data]
        lengths = {len(data[name]) for name in names}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: {sorted(lengths)}")
        self._data = {}
        for name in names:
            arr = np.asarray(data[name])
            arr.flags.writeable = False
            self._data[name] = arr
        self.schema = tuple(schema)
        self.provenance = provenance
        self.n_dropped = n_dropped
        self.n_duplicates = n_duplicates

    # -- basic access -------------------------------------------------------

    @property
    def n_rows(self) -> int:
        for arr in self._data.values():
            return len(arr)
        return 0

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._data.keys())

    def has_column(self, name: str) -> bool:
        return name in self._data

    def column(self, name: str) -> np.ndarray:
        if name not in self._data:
            raise MissingColumn(f"column {name!r} not present")
        return self._data[name]

    def subset(self, mask_or_index, provenance: str | None = None) -> "Dataset":
        data = {name: arr[mask_or_index] for name, arr in self._data.items()}
        return Dataset(
            data, self.schema, provenance if provenance is not None else self.provenance
        )

    def is_session_level(self) -> bool:
        return "n_top_spot" in self._data

    def __len__(self) -> int:
        return self.n_rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        for name in self.column_names:
            a, b = self._data[name], other._data[name]
            if a.shape != b.shape:
                return False
            if a.dtype.kind == "f":
                if not np.array_equal(a, b, equal_nan=True):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True

    def __repr__(self) -> str:
        cols = ", ".join(self.column_names)
        return f"Dataset({self.n_rows} rows; {cols})"

    def row_tuples(self) -> list[tuple]:
        """Rows as canonical tuples in column order (NaN normalized to None)."""
        cols = []
        for name in self.column_names:
            arr = self._data[name]
            if arr.dtype.kind == "f":
                cols.append([None if math.isnan(v) else float(v) for v in arr])
            elif arr.dtype.kind in "ui":
                cols.append([int(v) for v in arr])
            else:
                cols.append([str(v) for v in arr])
        return list(zip(*cols)) if cols else []


def from_edges(rows: Iterable[EdgeObservation], provenance: str = "") -> Dataset:
    """Build an edge-level Dataset from observation records.

    Intended for fixtures and tests; rows are trusted and must already satisfy
    the row invariants (this raises on violations instead of dropping).
    """
    rows = list(rows)
    if not rows:
        raise EmptyDataset("no observations")
    for r in rows:
        _check_edge_invariants(r)
    data: dict[str, np.ndarray] = {
        "request_id": np.array([r.request_id for r in rows], dtype=np.uint64),
        "user_id": np.array([r.user_id for r in rows], dtype=np.uint64),
        "item_id": np.array([r.item_id for r in rows], dtype=np.uint64),
        "position": np.array([r.position for r in rows], dtype=np.int64),
        "outcome": np.array([r.outcome for r in rows], dtype=np.int64),
    }
    if any(r.arm is not None for r in rows):
        data["arm"] = np.array([r.arm or "" for r in rows])
    if any(r.reason is not None for r in rows):
        data["reason"] = np.array([r.reason or "" for r in rows])
    if any(r.relevance_score is not None for r in rows):
        data["relevance_score"] = np.array(
            [math.nan if r.relevance_score is None else r.relevance_score for r in rows]
        )
    if any(r.session_depth is not None for r in rows):
        data["session_depth"] = np.array(
            [math.nan if r.session_depth is None else float(r.session_depth) for r in rows]
        )
    _require_constant_arm_per_user(data)
    return Dataset(data, EDGE_SCHEMA, provenance)


def _check_edge_invariants(r: EdgeObservation) -> None:
    if r.position < 1:
        raise ValueError(f"position must be >= 1, got {r.position}")
    if r.outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {r.outcome}")
    if r.session_depth is not None and r.session_depth < r.position:
        raise ValueError("session_depth below position")
    if r.relevance_score is not None and not (0.0 <= r.relevance_score <= 1.0):
        raise ValueError("relevance_score outside [0, 1]")


def parse_id(value: str) -> int:
    """Unsigned 64-bit id; non-numeric or out-of-range values get FNV-1a hashed."""
    if value.isdigit():
        n = int(value)
        if n <= _UINT64_MAX:
            return n
    return fnv1a64(value)


def _require_constant_arm_per_user(data: Mapping[str, np.ndarray]) -> None:
    if "arm" not in data or len(data["arm"]) == 0:
        return
    users = data["user_id"]
    arms = data["arm"]
    order = np.argsort(users, kind="stable")
    u, a = users[order], arms[order]
    boundary = np.flatnonzero(u[1:] == u[:-1])
    bad = boundary[a[boundary + 1] != a[boundary]]
    if bad.size:
        uid = int(u[bad[0]])
        raise MixedArmsWithinUser(
            f"arm varies within user_id {uid}; treatment must be user-randomized"
        )


def _read_columns(path: str) -> tuple[list[str], dict[str, Sequence[str]]]:
    """Header and raw cells by column name from CSV (by extension
    .jsonl/.ndjson: JSON lines).

    CSV keeps the csv.DictReader conventions: blank rows are skipped, short
    rows padded with "", extra cells ignored, and of repeated header names the
    last column wins. A JSON line's absent key or null value is "".
    """
    # Reading allocates a list per row and transposing an iterator per row;
    # with the cyclic collector running, those allocations trigger
    # collections that rescan every row read so far.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if str(path).endswith((".jsonl", ".ndjson")):
            with open(path, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            if not all(isinstance(rec, dict) for rec in records):
                raise InputError(f"JSON line in {path!r} is not an object")
            header = list(dict.fromkeys(k for rec in records for k in rec))
            return header, {
                key: ["" if (v := rec.get(key)) is None else str(v) for rec in records]
                for key in header
            }
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = list(filter(None, reader))
        width = len(header)
        if set(map(len, rows)) - {width}:  # some row is short or long
            rows = [row[:width] + [""] * (width - len(row)) for row in rows]
        columns = list(zip(*rows)) or [()] * width
        return header, dict(zip(header, columns))
    except OSError as exc:
        raise IoFailure(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON line in {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path!r} is not UTF-8: {exc}") from exc
    finally:
        if collecting:
            gc.enable()


def _id_column(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """uint64 ids and a mask of the cells that drop their row: empty, or a
    value parse_id rejects. parse_id runs once per distinct string."""
    values, failed = [], []
    distinct = dict.fromkeys(cells)
    for text in distinct:
        try:
            values.append(parse_id(text) if text else 0)
            failed.append(not text)
        except ValueError:  # a digit that int() rejects, such as "²"
            values.append(0)
            failed.append(True)
    codes = dict(zip(distinct, range(len(distinct))))
    index = np.fromiter(map(codes.__getitem__, cells), dtype=np.intp, count=len(cells))
    return np.array(values, dtype=np.uint64)[index], np.array(failed, dtype=bool)[index]


def _number_column(
    kind: str, name: str, cells: Sequence[str], missing: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """int64 or float64 values (0 where missing) and a mask of the present
    cells that drop their row.

    Python's own int/float convert the present cells in one pass; if that
    raises, the column is redone cell by cell and each cell that int/float
    rejects, or that overflows int64, fails alone. Then the range rules apply.
    """
    dtype, convert = (np.float64, float) if kind == "float" else (np.int64, int)
    values = np.zeros(len(cells), dtype=dtype)
    failed = np.zeros(len(cells), dtype=bool)
    present = np.flatnonzero(~missing)
    try:
        values[present] = np.array(
            list(map(convert, compress(cells, (~missing).tolist()))), dtype=dtype
        )
    except (ValueError, OverflowError):
        for i in present.tolist():
            try:
                values[i] = convert(cells[i])
            except (ValueError, OverflowError):
                failed[i] = True
    if kind == "float":
        failed |= ~np.isfinite(values)
        if name == "relevance_score":
            failed |= (values < 0.0) | (values > 1.0)
    elif name == "outcome":
        failed |= (values != 0) & (values != 1)
    elif name in ("position", "session_depth"):
        failed |= values < 1
    elif name in ("n_top_spot", "n_bottom_spot", "invite_total"):
        failed |= values < 0
    return values, failed & ~missing


def _count_duplicates(data: Mapping[str, np.ndarray]) -> int:
    """Number of rows equal to an earlier row in every column, with NaN equal
    to NaN and -0.0 equal to 0.0 as in row_tuples, from one lexsort."""
    keys = []
    for arr in data.values():
        if arr.dtype.kind == "f":
            canon = arr + 0.0
            canon[np.isnan(canon)] = np.nan
            keys.append(canon.view(np.uint64))
        elif arr.dtype.kind in "ui":
            keys.append(arr.astype(np.uint64, copy=False))
        else:
            keys.append(np.unique(arr, return_inverse=True)[1].astype(np.uint64))
    table = np.stack(keys)
    table = table[:, np.lexsort(table)]
    return int((table[:, 1:] == table[:, :-1]).all(axis=0).sum())


def load_dataset(path: str, schema_map: Mapping[str, str] | None = None) -> Dataset:
    """Load and validate a dataset (edge level, or session level when the
    header carries the session columns).

    schema_map maps canonical field names to source column names (identity by
    default). Rows failing type validation are dropped and counted; the count
    lands in the provenance tag. For edge files an absent user_id falls back
    to request_id, so each request is its own cluster.
    """
    header, table = _read_columns(path)

    session = (schema_map or {}).get("n_top_spot", "n_top_spot") in header
    schema = SESSION_SCHEMA if session else EDGE_SCHEMA
    colmap = {name: name for name, _, _ in schema}
    if schema_map:
        colmap.update({k: v for k, v in schema_map.items() if k in colmap})

    for name, _, req in schema:
        if req and colmap[name] not in header:
            raise MissingColumn(
                f"required field {name!r} (column {colmap[name]!r}) absent from {path!r}"
            )

    values: dict[str, np.ndarray | Sequence[str]] = {}
    missing: dict[str, np.ndarray] = {}
    n = len(table[colmap["request_id"]])
    drop = np.zeros(n, dtype=bool)
    for name, kind, req in schema:
        if colmap[name] not in header:
            continue
        cells = table[colmap[name]]
        empty = (
            np.fromiter(map(operator.not_, cells), dtype=bool, count=n)
            if "" in cells else np.zeros(n, dtype=bool)
        )
        if kind == "id":
            values[name], failed = _id_column(cells)
        elif kind == "str":
            values[name], failed = cells, np.zeros(n, dtype=bool)
        else:
            values[name], failed = _number_column(kind, name, cells, empty)
        missing[name] = empty
        drop |= failed | (empty if req else False)
    if session:
        # Counts of kept rows are >= 0, so their uint64 sum is exact where an
        # int64 sum of two large counts would wrap.
        size = values["n_top_spot"].view(np.uint64) + values["n_bottom_spot"].view(np.uint64)
        drop |= values["invite_total"].view(np.uint64) > size
    else:
        if "arm" in missing:
            drop |= missing["arm"]
        if "session_depth" in values:  # compared as int64, exact above 2**53
            drop |= ~missing["session_depth"] & (values["session_depth"] < values["position"])

    keep = ~drop
    dropped = int(drop.sum())
    if dropped == n:
        raise EmptyDataset(f"no valid rows in {path!r} ({dropped} dropped)")

    data: dict[str, np.ndarray] = {}
    for name, kind, _ in schema:
        if name not in values:
            continue
        if kind == "str":
            data[name] = np.array(list(compress(values[name], keep.tolist())))
        elif kind == "float" or name == "session_depth":  # NaN marks an empty cell
            data[name] = np.where(missing[name], math.nan, values[name])[keep]
        else:
            data[name] = values[name][keep]
    if "user_id" not in data:
        data["user_id"] = data["request_id"].copy()

    _require_constant_arm_per_user(data)

    n_dup = _count_duplicates(data)
    return Dataset(
        data, schema, f"load:{path} dropped={dropped} duplicates={n_dup}",
        n_dropped=dropped, n_duplicates=n_dup,
    )


def _format_column(kind: str, col: np.ndarray) -> list[str]:
    """CSV cells of one column: ids and ints as integers, floats as repr, and
    "" for NaN (an absent optional value)."""
    if kind == "str" or (kind != "float" and col.dtype.kind in "iu"):
        return list(map(str, col.tolist()))
    col = col.astype(np.float64, copy=False)
    absent = np.isnan(col)
    if kind == "float":
        cells = list(map(repr, col.tolist()))
    else:
        cells = list(map(str, map(int, np.where(absent, 0.0, col).tolist())))
    for i in np.flatnonzero(absent).tolist():
        cells[i] = ""
    return cells


def write_dataset(ds: Dataset, path: str) -> None:
    """Write a Dataset as canonical CSV; absent optional columns are omitted.

    Round-trips: load_dataset(write_dataset(ds)) compares equal to ds.
    """
    kinds = {n: k for n, k, _ in ds.schema}
    names = list(ds.column_names)
    columns = [_format_column(kinds[n], ds.column(n)) for n in names]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(zip(*columns))
    except OSError as exc:
        raise IoFailure(f"cannot write {path!r}: {exc}") from exc
