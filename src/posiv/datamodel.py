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
import json
import math
from dataclasses import dataclass
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


def _parse_cell(kind: str, name: str, value: str):
    """Parse one CSV cell. Returns None for an absent optional value.

    Raises ValueError when the value fails type or range validation.
    """
    if value == "":
        return None
    if kind == "id":
        return parse_id(value)
    if kind == "int":
        n = int(value)
        if name == "outcome" and n not in (0, 1):
            raise ValueError("outcome not binary")
        if name in ("position", "session_depth") and n < 1:
            raise ValueError(f"{name} below 1")
        if name in ("n_top_spot", "n_bottom_spot", "invite_total") and n < 0:
            raise ValueError(f"{name} negative")
        return n
    if kind == "float":
        x = float(value)
        if not math.isfinite(x):
            raise ValueError("non-finite value")
        if name == "relevance_score" and not (0.0 <= x <= 1.0):
            raise ValueError("relevance_score outside [0, 1]")
        return x
    return value


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


def _read_records(path: str) -> tuple[list[str], list[dict[str, str]]]:
    """Raw records from CSV (by extension .jsonl/.ndjson: JSON lines)."""
    try:
        if str(path).endswith((".jsonl", ".ndjson")):
            records = []
            keys: list[str] = []
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    obj = json.loads(line)
                    rec = {
                        k: ("" if v is None else str(v)) for k, v in obj.items()
                    }
                    for k in rec:
                        if k not in keys:
                            keys.append(k)
                    records.append(rec)
            return keys, records
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                return [], []
            return list(reader.fieldnames), [dict(r) for r in reader]
    except OSError as exc:
        raise IoFailure(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON line in {path!r}: {exc}") from exc


def _validate_edge_row(values: dict) -> None:
    if values.get("arm") is None and "arm" in values:
        raise ValueError("arm empty")
    depth, pos = values.get("session_depth"), values["position"]
    if depth is not None and depth < pos:
        raise ValueError("session_depth below position")


def _validate_session_row(values: dict) -> None:
    size = values["n_top_spot"] + values["n_bottom_spot"]
    if values["invite_total"] > size:
        raise ValueError("invite_total exceeds session size")


def load_dataset(path: str, schema_map: Mapping[str, str] | None = None) -> Dataset:
    """Load and validate a dataset (edge level, or session level when the
    header carries the session columns).

    schema_map maps canonical field names to source column names (identity by
    default). Rows failing type validation are dropped and counted; the count
    lands in the provenance tag. For edge files an absent user_id falls back
    to request_id, so each request is its own cluster.
    """
    header, records = _read_records(path)

    session = (schema_map or {}).get("n_top_spot", "n_top_spot") in header
    schema = SESSION_SCHEMA if session else EDGE_SCHEMA
    colmap = {name: name for name, _, _ in schema}
    if schema_map:
        colmap.update({k: v for k, v in schema_map.items() if k in colmap})

    required = [n for n, _, req in schema if req]
    for name in required:
        if colmap[name] not in header:
            raise MissingColumn(
                f"required field {name!r} (column {colmap[name]!r}) absent from {path!r}"
            )
    present = [n for n, _, _ in schema if colmap[n] in header]

    kinds = {n: k for n, k, _ in schema}
    parsed: dict[str, list] = {n: [] for n in present}
    dropped = 0
    for rec in records:
        try:
            values = {}
            for name in present:
                cell = rec.get(colmap[name])
                values[name] = _parse_cell(kinds[name], name, cell if cell is not None else "")
            for name in required:
                if values[name] is None:
                    raise ValueError(f"{name} empty")
            if session:
                _validate_session_row(values)
            else:
                _validate_edge_row(values)
        except (ValueError, TypeError):
            dropped += 1
            continue
        for name in present:
            parsed[name].append(values[name])

    if not parsed.get("request_id"):
        raise EmptyDataset(f"no valid rows in {path!r} ({dropped} dropped)")

    int_columns = {"position", "outcome", "n_top_spot", "n_bottom_spot", "invite_total"}
    data: dict[str, np.ndarray] = {}
    for name in present:
        kind = kinds[name]
        vals = parsed[name]
        if kind == "id":
            data[name] = np.array(vals, dtype=np.uint64)
        elif kind == "int" and name in int_columns:
            data[name] = np.array(vals, dtype=np.int64)
        elif kind == "int":
            data[name] = np.array(
                [math.nan if v is None else float(v) for v in vals]
            )
        elif kind == "float":
            data[name] = np.array([math.nan if v is None else v for v in vals])
        else:
            data[name] = np.array(["" if v is None else v for v in vals])
    if "user_id" not in data:
        data["user_id"] = data["request_id"].copy()

    _require_constant_arm_per_user(data)

    rows = Dataset(data, schema).row_tuples()
    n_dup = len(rows) - len(set(rows))
    return Dataset(
        data, schema, f"load:{path} dropped={dropped} duplicates={n_dup}",
        n_dropped=dropped, n_duplicates=n_dup,
    )


def _format_cell(kind: str, value) -> str:
    if kind == "id":
        return str(int(value))
    if kind == "int":
        if isinstance(value, float) or (hasattr(value, "dtype") and value.dtype.kind == "f"):
            return "" if math.isnan(float(value)) else str(int(value))
        return str(int(value))
    if kind == "float":
        return "" if math.isnan(float(value)) else repr(float(value))
    return str(value)


def write_dataset(ds: Dataset, path: str) -> None:
    """Write a Dataset as canonical CSV; absent optional columns are omitted.

    Round-trips: load_dataset(write_dataset(ds)) compares equal to ds.
    """
    kinds = {n: k for n, k, _ in ds.schema}
    names = list(ds.column_names)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            columns = [ds.column(n) for n in names]
            for i in range(ds.n_rows):
                writer.writerow(
                    [_format_cell(kinds[n], col[i]) for n, col in zip(names, columns)]
                )
    except OSError as exc:
        raise IoFailure(f"cannot write {path!r}: {exc}") from exc
