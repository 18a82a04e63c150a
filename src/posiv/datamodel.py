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
import io
import itertools
import json
import math
import os
import sys
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyDataset,
    InputError,
    IoFailure,
    MissingColumn,
    MixedArmsWithinUser,
)
from .rng import FNV_OFFSET, FNV_PRIME, fnv1a64, mix64

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
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_TENS = np.array([float(10**k) for k in range(23)])  # 10**k, exact as doubles up to k = 22
_BLOCK_ROWS = 1 << 14  # rows that write_dataset formats at a time
_SCAN_BYTES = 1 << 23  # bytes that _split_plain scans for separators at a time
# _HEAD_BYTES[k] keeps the first k bytes of a big-endian uint64 word
_HEAD_BYTES = np.array([(2**64 - 1) ^ ((1 << 64 - 8 * k) - 1) for k in range(9)], dtype=np.uint64)


class Dataset:
    """Immutable column table plus schema metadata and a lineage tag.

    A text ("str") column is held as a load builds it: codes of the
    smallest unsigned type into a <U array of the levels they show, each
    once, sorted by code point. So code order is string order, and code 0
    is build_design's baseline arm. A column named in `levels` is given as
    integer codes in [0, len(levels)) (else a ValueError) into levels that
    may be unsorted, repeated or unused; levels already in load form are
    kept as given, width included. Any other is given as its cells, each
    read as its str(). A subset keeps only the levels its rows show.

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
        levels: Mapping[str, np.ndarray] | None = None,
    ):
        names = [name for name, _, _ in schema if name in data]
        lengths = {len(data[name]) for name in names}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: {sorted(lengths)}")
        texts = {name for name, kind, _ in schema if kind == "str"}
        self._data, self._levels = {}, {}
        for name in names:
            arr = np.asarray(data[name])
            if name in texts:
                if levels is not None and name in levels:
                    lv = np.asarray(levels[name])
                    if arr.dtype.kind not in "iu" or arr.size and not (
                            0 <= arr.min() <= arr.max() < len(lv)):
                        raise ValueError(f"{name} codes must be integers in [0, {len(lv)})")
                    shown = np.zeros(len(lv), dtype=bool)
                    shown[arr] = True
                    if not (shown.all() and (lv[1:] > lv[:-1]).all()):
                        lv, inverse = np.unique(lv[shown], return_inverse=True)
                        recode = np.zeros(len(shown), dtype=np.min_scalar_type(len(lv)))
                        recode[shown] = inverse
                        arr, lv = recode[arr], np.array(lv.tolist(), dtype=str)
                else:  # cells, each read as its str()
                    if arr.dtype.kind != "U":
                        arr = np.array([str(v) for v in arr.tolist()], dtype=str)
                    lv, arr = np.unique(arr, return_inverse=True)
                arr = arr.astype(np.min_scalar_type(len(lv)), copy=False)
                self._levels[name] = lv
                lv.flags.writeable = False
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
        codes, levels = self.coded(name)
        return codes if levels is None else levels[codes]

    def coded(self, name: str) -> tuple[np.ndarray, np.ndarray | None]:
        """A text column's codes and levels, cell i being levels[codes[i]];
        any other column and None."""
        if name not in self._data:
            raise MissingColumn(f"column {name!r} not present")
        return self._data[name], self._levels.get(name)

    def subset(self, mask_or_index, provenance: str | None = None) -> "Dataset":
        data = {name: arr[mask_or_index] for name, arr in self._data.items()}
        return Dataset(
            data, self.schema, provenance if provenance is not None else self.provenance,
            levels=self._levels,
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
            a, b = self.column(name), other.column(name)
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
    order = np.argsort(data["user_id"], kind="stable")
    arms = data["arm"][order]
    users = data["user_id"][order]
    del order
    bad = np.flatnonzero((users[1:] == users[:-1]) & (arms[1:] != arms[:-1]))
    if bad.size:
        uid = int(users[bad[0]])
        raise MixedArmsWithinUser(
            f"arm varies within user_id {uid}; treatment must be user-randomized"
        )


class _Cells(NamedTuple):
    """One column's cells: cell i is the UTF-8 text data[start[i]:end[i]]."""

    data: bytes
    start: np.ndarray
    end: np.ndarray


def _encode(cells: Sequence[str]) -> _Cells:
    # surrogatepass keeps a lone surrogate from a JSON escape, as _texts
    # decodes it back.
    blobs = [cell.encode("utf-8", "surrogatepass") for cell in cells]
    lengths = np.fromiter(map(len, blobs), dtype=np.int64, count=len(blobs))
    end = np.cumsum(lengths)
    return _Cells(b"".join(blobs), end - lengths, end)


def _split_plain(data: bytes) -> tuple[list[str], dict[str, _Cells]] | None:
    """Header and cells of a plain CSV file, from one numpy scan for "," and
    newline, or None when the file needs the csv module: it holds a quote or
    a carriage return, its header or a row is blank, a row's width differs
    from the header's, or a cell has more bytes than csv.field_size_limit().

    In a plain file the csv module's cells are exactly the bytes between
    separators, so both paths give the same cells. A cell has at least as
    many bytes as characters, and the csv module counts characters against
    the limit, so it decides every cell that might exceed it.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    if data.startswith(b"\n") or b'"' in data or b"\r" in data:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # below 1 GiB an offset plus a cell's length fits in int32; each block's
    # offsets are cast before they are joined, so no whole-file mask or int64
    # offsets are held
    offset = np.int32 if len(data) < 2**30 else np.int64
    parts = []
    for lo in range(0, len(buf), _SCAN_BYTES):
        block = buf[lo : lo + _SCAN_BYTES]
        sep = block == ord(",")
        sep |= block == ord("\n")
        parts.append(np.flatnonzero(sep).astype(offset))
        parts[-1] += lo
    ends = np.concatenate(parts)
    del parts, sep
    line_ends = np.flatnonzero(buf[ends] == ord("\n"))
    width = int(line_ends[0]) + 1
    if (
        np.any(np.diff(line_ends) != width)
        or np.any(np.diff(ends[line_ends]) == 1)  # blank line
        # the longest cell, with no int64 copy of the offsets
        or max(int(ends[0]), int(np.diff(ends).max(initial=0)) - 1) > csv.field_size_limit()
    ):
        return None
    if buf.max() >= 0x80:
        data.decode("utf-8")  # raises on a file that is not UTF-8
    header = data[: ends[width - 1]].decode("utf-8").split(",")
    rows = len(ends) // width - 1
    return header, {  # a cell starts one byte after the separator before it
        name: _Cells(data, ends[width - 1 + j :: width][:rows] + 1, ends[width + j :: width])
        for j, name in enumerate(header)
    }


def _read_columns(path: str, digest=None) -> tuple[list[str], dict[str, _Cells]]:
    """Header and cells by column name from CSV (by extension .jsonl/.ndjson:
    JSON lines), the file's bytes read once and, given a hash object
    `digest`, fed to it.

    One leading UTF-8 byte-order mark is skipped. A plain CSV file, or one
    that differs only by "\r\n" line ends, is split from its bytes by
    _split_plain; any other goes through csv.reader, and both give the same
    cells. CSV keeps the csv.DictReader conventions: blank
    rows are skipped, short rows padded with "", extra cells ignored, and of
    repeated header names the last column wins. A cell longer than
    csv.field_size_limit() is an InputError. A JSON line's absent key or
    null value is "".
    """
    # csv.reader allocates a list per row; with the cyclic collector running,
    # those allocations trigger collections that rescan every row read so far.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if digest is not None:
            digest.update(data)
        if data.startswith(b"\xef\xbb\xbf"):
            data = data[3:]
        if str(path).endswith((".jsonl", ".ndjson")):
            lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            records = [json.loads(line) for line in lines if line.strip()]
            if not all(isinstance(rec, dict) for rec in records):
                raise InputError(f"JSON line in {path!r} is not an object")
            header = list(dict.fromkeys(k for rec in records for k in rec))
            return header, {
                key: _encode(["" if (v := rec.get(key)) is None else str(v) for rec in records])
                for key in header
            }
        if b"\r" in data and b'"' not in data:
            # outside quotes csv.reader ends a row at "\r\n", and no cell can hold one
            data = data.replace(b"\r\n", b"\n")
        plain = _split_plain(data)
        if plain is not None:
            return plain
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        header = next(reader, [])
        rows = list(filter(None, reader))
        width = len(header)
        if set(map(len, rows)) - {width}:  # some row is short or long
            rows = [row[:width] + [""] * (width - len(row)) for row in rows]
        columns = list(zip(*rows)) or [()] * width
        return header, dict(zip(header, map(_encode, columns)))
    except OSError as exc:
        raise IoFailure(f"cannot read {path!r}: {exc}") from exc
    except csv.Error as exc:
        raise InputError(f"cannot read {path!r} as CSV: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON line in {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path!r} is not UTF-8: {exc}") from exc
    finally:
        if collecting:
            gc.enable()


def _texts(cells: _Cells, index: np.ndarray) -> list[str]:
    """The indexed cells as str, for the Python converters."""
    data = cells.data
    return [
        data[s:e].decode("utf-8", "surrogatepass")
        for s, e in zip(cells.start[index].tolist(), cells.end[index].tolist())
    ]


def _plain_digits(
    cells: _Cells, limit: int, point: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """uint64 values, a mask of the plain cells and their count of fraction
    digits, parsed in numpy one byte place at a time. A plain cell is 1 to 20
    ASCII digits (24 bytes with point=True, of which one may be a "." with
    at most 22 digits after it) that, read without the point, make a value
    up to `limit`. Other cells read 0."""
    buf = np.frombuffer(cells.data, dtype=np.uint8)
    length = cells.end - cells.start
    most = 24 if point else 20
    plain = (length > 0) & (length <= most)
    value = np.zeros(len(length), dtype=np.uint64)
    at = np.full(len(length), most)  # the byte place of the point
    top = np.uint64(limit // 10)
    for k in range(most):
        rows = np.flatnonzero(plain & (length > k))
        if not rows.size:
            break
        b, v = buf[cells.start[rows] + k], value[rows]
        d = b - np.uint8(ord("0"))
        value[rows] = v * np.uint64(10) + d
        plain[rows] = (d < 10) & ((v < top) | ((v == top) & (d <= limit % 10)))
        if point:
            first = (b == ord(".")) & (at[rows] == most)
            dot = rows[first]
            at[dot], value[dot], plain[dot] = k, v[first], True
    scale = np.where(at < most, length - 1 - at, 0)
    plain &= (scale <= 22) & (length > (at < most))  # "." alone is not a number
    value[~plain] = 0
    scale[~plain] = 0
    return value, plain, scale


def _id_column(cells: _Cells, empty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """uint64 ids and a mask of the cells that drop their row: empty, or a
    value parse_id rejects.

    Plain digits are parsed in numpy, and so is the parse_id of an ASCII cell
    with a byte outside 0-9: its FNV-1a hash, taken one byte place at a time
    over the cells still live, longest first so that they are a prefix. Once
    fewer than 64 are live, a numpy pass costs more than hashing their next
    byte in Python, so they join the other cells, which parse_id reads once
    per distinct text."""
    values, plain, _ = _plain_digits(cells, _UINT64_MAX)
    failed = empty.copy()
    index = np.flatnonzero(~plain & ~empty)
    index = index[np.argsort(cells.start[index] - cells.end[index], kind="stable")]
    start = cells.start[index]
    length = cells.end[index] - start
    buf = np.frombuffer(cells.data, dtype=np.uint8)
    hashes = np.full(len(index), FNV_OFFSET, dtype=np.uint64)
    is_digits, is_ascii = np.ones(len(index), dtype=bool), np.ones(len(index), dtype=bool)
    k, live = 0, len(index)
    while (live := np.count_nonzero(length[:live] > k)) >= 64:
        b = buf[start[:live] + k]
        hashes[:live] = (hashes[:live] ^ b) * np.uint64(FNV_PRIME)
        is_digits[:live] &= b - np.uint8(ord("0")) < 10
        is_ascii[:live] &= b < 0x80
        k += 1
    hashed = is_ascii & ~is_digits
    hashed[:live] = False
    values[index[hashed]] = hashes[hashed]
    index = index[~hashed]
    texts = _texts(cells, index)
    parsed = dict.fromkeys(texts)
    for text in parsed:
        try:
            parsed[text] = parse_id(text)
        except ValueError:  # a digit that int() rejects, such as "²"
            pass
    ids = list(map(parsed.__getitem__, texts))
    failed[index] = [v is None for v in ids]
    values[index] = np.array([0 if v is None else v for v in ids], dtype=np.uint64)
    return values, failed


def _number_column(
    kind: str, name: str, cells: _Cells, missing: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """int64 or float64 values (0 where missing) and a mask of the present
    cells that drop their row.

    Int cells of plain digits up to 2**63 - 1 are parsed in numpy, and so
    are float cells of plain digits with at most one "." (Clinger's fast
    path): the mantissa m below 2**53 and 10**k for k <= 22 fraction digits
    are exact doubles, so m / 10**k is one correctly rounded division and
    equals float() of the cell to the bit. Python's own int/float convert
    the other present cells in one pass; if that raises, they are redone
    cell by cell and each cell that int/float rejects, or that overflows
    int64, fails alone. Then the range rules apply (_out_of_range).
    """
    if kind == "float":
        dtype, convert = np.float64, float
        digits, plain, scale = _plain_digits(cells, 2**53 - 1, point=True)
        values = digits / _TENS[scale]
    else:
        dtype, convert = np.int64, int
        digits, plain, _ = _plain_digits(cells, 2**63 - 1)
        values = digits.view(np.int64)
    index = np.flatnonzero(~plain & ~missing)
    failed = np.zeros(len(missing), dtype=bool)
    texts = _texts(cells, index)
    try:
        values[index] = np.array(list(map(convert, texts)), dtype=dtype)
    except (ValueError, OverflowError):
        for i, text in zip(index.tolist(), texts):
            try:
                values[i] = convert(text)
            except (ValueError, OverflowError):
                failed[i] = True
    return values, (failed | _out_of_range(kind, name, values)) & ~missing


def _out_of_range(kind: str, name: str, values: np.ndarray) -> np.ndarray | bool:
    """The values of a number column that the range rules reject."""
    if kind == "float":
        bad = ~np.isfinite(values)
        if name == "relevance_score":
            bad |= (values < 0.0) | (values > 1.0)
        return bad
    if name == "outcome":
        return (values != 0) & (values != 1)
    if name in ("position", "session_depth"):
        return values < 1
    if name in ("n_top_spot", "n_bottom_spot", "invite_total"):
        return values < 0
    return False


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as np.unique(values) gives them, from one
    sort: np.unique without a return_* flag imports numpy.ma."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def _text_column(cells: _Cells, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes and levels of the kept cells, the levels sorted by code point.

    Each cell is keyed by its bytes read as big-endian uint64 words, zero
    padded, so one word keys a cell of up to 8 bytes and word order is byte
    order, which for UTF-8 is code point order. The cells are ranked by the
    first word, then each rank is split by the rank of the next word, a rank
    being a binary search among the sorted distinct keys; one cell per level
    is decoded. Zero padding makes trailing NULs no part of a
    cell, as in a <U array."""
    index = np.flatnonzero(keep)
    start = cells.start[index]
    length = cells.end[index] - start
    data = cells.data.ljust(8, b"\0")  # a copy only for data under 8 bytes
    last = len(data) - 8
    window = np.ndarray((last + 1,), dtype=">u8", buffer=data, strides=(1,))
    for at in range(0, max(1, int(length.max())), 8):
        word = window[np.minimum(start + at, last)].astype(np.uint64)
        # a word that would run past the data was read from its last 8 bytes:
        # shift out the bytes before the cell's
        tail = np.flatnonzero(start + at > last)
        word[tail] <<= ((start[tail] + at - last) * 8).astype(np.uint64)
        word &= _HEAD_BYTES[np.clip(length - at, 0, 8)]
        rank = np.searchsorted(_distinct(word), word)
        if at:  # both ranks are below n, so the pair's key is below n**2
            codes *= rank.max() + 1
            codes += rank
            rank = np.searchsorted(_distinct(codes), codes)
        codes = rank
    first = np.empty(codes.max() + 1, dtype=np.intp)
    first[codes[::-1]] = np.arange(len(codes))[::-1]  # the last write is a level's first cell
    levels = np.array(_texts(cells, index[first]))
    return codes.astype(np.min_scalar_type(len(levels))), levels


def _key(arr: np.ndarray) -> np.ndarray:
    """A column's uint64 keys, equal where its cells are: floats with NaN as
    one NaN and -0.0 as 0.0, other columns (text as codes) cast."""
    if arr.dtype.kind == "f":
        canon = arr + 0.0
        canon[np.isnan(canon)] = np.nan
        return canon.view(np.uint64)
    return arr.astype(np.uint64, copy=False)


def _count_duplicates(data: Mapping[str, np.ndarray]) -> int:
    """Number of rows equal to an earlier row in every column, with NaN equal
    to NaN and -0.0 equal to 0.0. Text columns are given as codes.

    Equal rows hash alike, so only the rows whose hash repeats are compared
    exactly: one lexsort of their keys. Each column's keys are made as the
    hash takes them, so the count holds about three uint64 arrays of the
    rows at a time."""
    columns = list(data.values())
    row_hash = np.zeros(len(columns[0]), dtype=np.uint64)
    for arr in columns:
        row_hash ^= _key(arr)
        row_hash = mix64(row_hash)
    tied = np.sort(row_hash)
    repeats = tied[1:][tied[1:] == tied[:-1]]
    del tied
    rows = np.flatnonzero(np.isin(row_hash, repeats))
    table = np.stack([_key(arr[rows]) for arr in columns])
    table = table[:, np.lexsort(table)]
    return int((table[:, 1:] == table[:, :-1]).all(axis=0).sum())


# -- column sidecar -----------------------------------------------------------
#
# ".<name>.posiv" beside a data file holds the Dataset its last load built, or
# that a load of it would build, as write_dataset wrote it (_loaded): a
# magic line, the JSON header's length as 8 little-endian bytes, the header,
# then the payload: the columns in schema order and then each text column's
# levels, as raw native-order bytes, stably sorted by descending dtype
# alignment so that each array starts aligned, with nothing between them. No
# dtype is stored: each follows from the column's kind (_column_dtype).

_SIDECAR_MAGIC = b"posiv column sidecar 1\n"
_MAX_HEADER = 1 << 16  # bytes; a real header is well under 1 KiB
_HASH_BLOCK = 1 << 20  # bytes of the data file hashed at a time on a sidecar check


def _loader_digest() -> bytes | None:
    """SHA-256 of the loader's own source (this module and rng.py) and of
    the numpy and Python versions it runs on, or None where the source
    cannot be read: any edit to the loader changes every sidecar key."""
    import hashlib

    from . import rng

    digest = hashlib.sha256(f"{np.__version__} {sys.version}".encode("utf-8"))
    try:
        for source in (__file__, rng.__file__):
            with open(source, "rb") as fh:
                digest.update(fh.read())
    except (OSError, TypeError):  # TypeError: a module without a file
        return None
    return digest.digest()


def _sidecar_digest(schema_map: Mapping[str, str]):
    """A SHA-256 object fed all that a sidecar's key covers but the data
    file's bytes: the loader digest and the canonical schema_map. None where
    the loader digest is None."""
    import hashlib

    loader = _loader_digest()
    if loader is None:
        return None
    digest = hashlib.sha256(loader)
    digest.update(json.dumps(sorted(schema_map.items())).encode("utf-8"))
    return digest


def _sidecar_path(path: str) -> str:
    head, name = os.path.split(os.fspath(path))
    return os.path.join(head, f".{name}.posiv")


def _column_dtype(name: str, kind: str, n_levels: int) -> np.dtype:
    """The dtype of a loaded column: a text column's codes take the smallest
    unsigned type for its level count, and session_depth is float (NaN for
    an empty cell)."""
    if kind == "str":
        return np.min_scalar_type(n_levels)
    if kind == "float" or name == "session_depth":
        return np.dtype(np.float64)
    return np.dtype(np.uint64 if kind == "id" else np.int64)


def _hash_file(path: str, digest) -> None:
    """Feed the file's bytes to digest, _HASH_BLOCK at a time."""
    block = bytearray(_HASH_BLOCK)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(block):
            digest.update(view[:n])


def _write_sidecar(path: str, key: str, ds: Dataset) -> None:
    """Write ds as the sidecar of the file at path under key, to a temporary
    file in the same directory that then replaces the sidecar. Where a write
    fails, the temporary file is removed and no sidecar is written."""
    names = list(ds.column_names)
    levels = {name: lv for name in names if (lv := ds.coded(name)[1]) is not None}
    header = json.dumps({
        "key": key, "session": ds.is_session_level(), "rows": ds.n_rows,
        "dropped": ds.n_dropped, "duplicates": ds.n_duplicates, "columns": names,
        "levels": {name: [len(lv), lv.dtype.itemsize // 4] for name, lv in levels.items()},
    }).encode("utf-8")
    sidecar = _sidecar_path(path)
    temporary = f"{sidecar}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            fh.write(_SIDECAR_MAGIC + len(header).to_bytes(8, "little") + header)
            arrays = [ds.coded(name)[0] for name in names] + list(levels.values())
            for arr in sorted(arrays, key=lambda arr: -arr.dtype.alignment):
                fh.write(np.ascontiguousarray(arr))
        os.replace(temporary, sidecar)
    except OSError:
        try:
            os.remove(temporary)
        except OSError:
            pass


def _read_sidecar(path: str, digest) -> Dataset | None:
    """The Dataset held by the sidecar of the file at path, or None when
    there is none, its key is not digest's once fed the file's bytes, or it
    does not check out (_unpack)."""
    try:
        with open(_sidecar_path(path), "rb", buffering=0) as fh:
            if fh.read(len(_SIDECAR_MAGIC)) != _SIDECAR_MAGIC:
                return None
            size = int.from_bytes(fh.read(8), "little")
            if size > _MAX_HEADER:
                return None
            header = json.loads(fh.read(size))
            _hash_file(path, digest)
            if not isinstance(header, dict) or header.get("key") != digest.hexdigest():
                return None
            payload = fh.read()
    except (OSError, ValueError):  # ValueError: a header that is not UTF-8 JSON
        return None
    return _unpack(path, header, payload)


def _unpack(path: str, header: dict, payload: bytes) -> Dataset | None:
    """The Dataset of a sidecar's header and payload, or None unless each
    field has its type and range; the columns are ones a load returns, in
    schema order; the payload has the exact length they imply; and each text
    column's codes lie below its level count, and its levels are code points
    in strictly increasing order."""

    def whole(value, low: int) -> bool:
        return type(value) is int and value >= low

    session, names, levels = header.get("session"), header.get("columns"), header.get("levels")
    rows, dropped, n_dup = header.get("rows"), header.get("dropped"), header.get("duplicates")
    if not (type(session) is bool and whole(rows, 1) and whole(dropped, 0) and whole(n_dup, 0)
            and isinstance(names, list) and isinstance(levels, dict)):
        return None
    schema = SESSION_SCHEMA if session else EDGE_SCHEMA
    kinds = {name: kind for name, kind, _ in schema}
    required = {name for name, _, req in schema if req} | {"user_id"}
    texts = [name for name in kinds if name in names and kinds[name] == "str"]
    if (names != [name for name in kinds if name in names] or not required <= set(names)
            or sorted(levels) != sorted(texts)
            or not all(isinstance(v, list) and len(v) == 2 and whole(v[0], 1) and whole(v[1], 1)
                       and 4 * v[0] * v[1] <= len(payload) for v in levels.values())):
        return None
    arrays = [(_column_dtype(name, kinds[name], levels.get(name, [0])[0]), rows)
              for name in names]
    arrays += [(np.dtype((np.str_, levels[name][1])), levels[name][0]) for name in texts]
    if sum(dtype.itemsize * n for dtype, n in arrays) != len(payload):
        return None
    columns, at = [None] * len(arrays), 0
    for i in sorted(range(len(arrays)), key=lambda i: -arrays[i][0].alignment):
        dtype, n = arrays[i]
        columns[i] = np.frombuffer(payload, dtype=dtype, count=n, offset=at)
        at += dtype.itemsize * n
    data = dict(zip(names, columns))
    found = dict(zip(texts, columns[len(names):]))
    for name, lv in found.items():
        if (data[name].max() >= len(lv) or lv.view(np.uint32).max() > 0x10FFFF
                or not (lv[1:] > lv[:-1]).all()):
            return None
    return Dataset(
        data, schema, f"load:{path} dropped={dropped} duplicates={n_dup}",
        n_dropped=dropped, n_duplicates=n_dup, levels=found,
    )


def load_dataset(path: str, schema_map: Mapping[str, str] | None = None) -> Dataset:
    """Load and validate a dataset (edge level, or session level when the
    header carries the session columns).

    schema_map maps canonical field names of either schema to source column
    names (identity by default); any other value is an InputError. Rows
    failing type validation are dropped and counted; the count lands in the
    provenance tag. For edge files an absent user_id falls back to
    request_id, so each request is its own cluster.

    A load that parses a regular file writes what it built to a sidecar
    beside it (_write_sidecar), and a later load of the same bytes with the same
    schema_map by the same loader source builds the same Dataset from the
    sidecar without parsing. Any other sidecar is ignored and rewritten.
    write_dataset leaves the sidecar of the file it writes where it can.
    """
    schema_map = {} if schema_map is None else schema_map
    if not isinstance(schema_map, Mapping) or not all(
            isinstance(v, str) for v in schema_map.values()):
        raise InputError(f"schema_map must map field names to column names, got {schema_map!r}")
    unknown = set(schema_map) - {name for name, _, _ in EDGE_SCHEMA + SESSION_SCHEMA}
    if unknown:
        raise InputError(f"schema_map names unknown fields: {sorted(unknown)}")
    digest = _sidecar_digest(schema_map) if os.path.isfile(path) else None
    if digest is not None:
        ds = _read_sidecar(path, digest.copy())
        if ds is not None:
            return ds
    ds = _parse(path, schema_map, digest)
    if digest is not None:
        _write_sidecar(path, digest.hexdigest(), ds)
    return ds


def _parse(path: str, schema_map: Mapping[str, str], digest) -> Dataset:
    """load_dataset's Dataset parsed from the file, whose bytes are fed to
    the hash object digest when one is given."""
    header, table = _read_columns(path, digest)

    session = schema_map.get("n_top_spot", "n_top_spot") in header
    schema = SESSION_SCHEMA if session else EDGE_SCHEMA
    colmap = {name: name for name, _, _ in schema}
    colmap.update({k: v for k, v in schema_map.items() if k in colmap})

    for name, _, req in schema:
        if req and colmap[name] not in header:
            raise MissingColumn(
                f"required field {name!r} (column {colmap[name]!r}) absent from {path!r}"
            )

    values: dict[str, np.ndarray | Callable] = {}
    missing: dict[str, np.ndarray] = {}
    failed = np.zeros(len(table[colmap["request_id"]].start), dtype=bool)
    for name, kind, _ in schema:
        if colmap[name] not in header:
            continue
        cells = table[colmap[name]]
        missing[name] = cells.start == cells.end
        if kind == "id":
            values[name], bad = _id_column(cells, missing[name])
        elif kind == "str":
            values[name], bad = partial(_text_column, cells), False
        else:
            values[name], bad = _number_column(kind, name, cells, missing[name])
        failed |= bad
    # the cells are freed with the text columns, each once it is coded
    del table, cells
    return _assemble(path, schema, values, missing, failed)


def _assemble(
    path: str,
    schema: Sequence[tuple[str, str, bool]],
    values: dict[str, np.ndarray | Callable],
    missing: dict[str, np.ndarray],
    failed: np.ndarray,
) -> Dataset:
    """The Dataset a load builds from its columns as read from the cells:
    each column's values (ids as uint64, other numbers as int64 or float64,
    a text column as a function of the kept-row mask that returns its codes
    and levels) and mask of empty cells, and the mask of rows with a cell
    that failed its conversion or range rules (_out_of_range). session_depth
    may also come as floats, whole and below 2**53 in magnitude, with NaN
    where a cell is empty.

    Drops those rows and the rows with an empty id or required cell, an
    edge row with no arm or with a session_depth below its position, and a
    session row whose invite_total exceeds its two counts; gives an empty
    float or session_depth cell NaN and a file without user_id one cluster
    per request; then checks that arm is constant per user and counts the
    duplicate rows. values and missing are emptied as each column is
    built."""
    drop = failed.copy()
    for name, kind, req in schema:
        if name in missing and (req or kind == "id"):
            drop |= missing[name]
    if "n_top_spot" in values:
        # Counts of kept rows are >= 0, so their uint64 sum is exact where an
        # int64 sum of two large counts would wrap.
        size = values["n_top_spot"].view(np.uint64) + values["n_bottom_spot"].view(np.uint64)
        drop |= values["invite_total"].view(np.uint64) > size
    else:
        if "arm" in missing:
            drop |= missing["arm"]
        # int64, or whole floats below 2**53 in magnitude: exact either way
        if "session_depth" in values:
            drop |= ~missing["session_depth"] & (values["session_depth"] < values["position"])

    dropped = int(drop.sum())
    if dropped == len(drop):
        raise EmptyDataset(f"no valid rows in {path!r} ({dropped} dropped)")
    # With no row dropped, a column that needs no NaN fill is taken as it is.
    keep = ~drop
    rows = keep if dropped else slice(None)
    data: dict[str, np.ndarray] = {}
    levels: dict[str, np.ndarray] = {}
    for name, kind, _ in schema:
        if name not in values:
            continue
        column, empty = values.pop(name), missing.pop(name)
        if kind == "str":
            data[name], levels[name] = column(keep)
        elif (kind == "float" or name == "session_depth") and (
            column.dtype.kind != "f" or empty.any()
        ):  # NaN marks an empty cell
            data[name] = np.where(empty, math.nan, column)[rows]
        else:
            data[name] = column[rows]
    del drop, keep, rows, column, empty
    if "user_id" not in data:
        data["user_id"] = data["request_id"].copy()

    _require_constant_arm_per_user(data)

    n_dup = _count_duplicates(data)
    return Dataset(
        data, schema, f"load:{path} dropped={dropped} duplicates={n_dup}",
        n_dropped=dropped, n_duplicates=n_dup, levels=levels,
    )


def _quote(text: str) -> str:
    """text in quotes, each quote doubled, when it holds ",", a quote, "\\r"
    or "\\n": the cells csv.writer quotes, and also a bare carriage return,
    which csv.writer with a "\\n" line end leaves bare."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _patch(
    chars: np.ndarray, shown: np.ndarray, rows: np.ndarray, texts: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """chars and shown with the given rows replaced by the UTF-8 of texts,
    widened to fit the longest."""
    blobs = [text.encode("utf-8") for text in texts]
    width = max([chars.shape[1], *map(len, blobs)])
    if width > chars.shape[1]:
        pad = ((0, 0), (0, width - chars.shape[1]))
        chars, shown = np.pad(chars, pad), np.pad(shown, pad)
    chars[rows] = np.frombuffer(b"".join(b.ljust(width, b"\0") for b in blobs), np.uint8).reshape(
        len(rows), width
    )
    shown[rows] = np.arange(width) < np.array(list(map(len, blobs)))[:, None]
    return chars, shown


def _int_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decimal digits of integers, right-aligned with "-" before a negative
    one, one divmod by 10 a digit place."""
    negative = values < 0
    magnitude = values.astype(np.uint64)  # a negative int64 wraps to 2**64 - |v|
    magnitude[negative] = np.uint64(0) - magnitude[negative]
    length = np.searchsorted(_POW10[1:], magnitude, side="right") + 1
    places = int(length.max())
    length += negative
    width = int(length.max())
    chars = np.empty((len(values), width), dtype=np.uint8)
    for k in range(1, places + 1):
        magnitude, digit = np.divmod(magnitude, np.uint64(10))
        chars[:, width - k] = digit + np.uint64(ord("0"))
    rows = np.flatnonzero(negative)
    chars[rows, width - length[rows]] = ord("-")
    return chars, np.arange(width) >= width - length[:, None]


def _cells(kind: str, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One number column's CSV cells as a uint8 matrix, one row a cell, and
    the mask of its bytes that are shown. Ints take one divmod a digit
    place, floats one repr of the block's values."""
    if kind != "float" and values.dtype.kind in "iu":
        return _int_cells(values)
    values = values.astype(np.float64, copy=False)
    absent = np.isnan(values)
    if kind == "float":
        # repr of the list is each value's repr with ", " between them
        text = np.frombuffer(repr(values.tolist()).encode(), dtype=np.uint8)
        comma = np.flatnonzero(text == ord(","))
        start = np.concatenate(([1], comma + 2))
        length = np.append(comma, len(text) - 1) - start
        width = int(length.max())
        chars = np.append(text, np.zeros(width, np.uint8))[start[:, None] + np.arange(width)]
        shown = np.arange(width) < length[:, None]
    else:  # an int column held as float, as session_depth with NaN for absent
        exact = np.abs(values) < 2.0**63
        chars, shown = _int_cells(np.where(exact, values, 0.0).astype(np.int64))
        rows = np.flatnonzero(~exact & ~absent)
        if rows.size:  # write_dataset lets no inf reach int()
            chars, shown = _patch(chars, shown, rows, [str(int(v)) for v in values[rows].tolist()])
    shown[absent] = False
    return chars, shown


def _level_cells(name: str, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each level's CSV cell as _cells gives a column's, one row a level:
    its text quoted by _quote. A level that UTF-8 cannot encode, a lone
    surrogate as a JSON escape can give, is an InputError."""
    texts = levels.tolist()
    empty = np.zeros((len(levels), 0), dtype=np.uint8)
    try:
        return _patch(empty, empty.astype(bool), np.arange(len(levels)), list(map(_quote, texts)))
    except UnicodeEncodeError:
        bad = next(v for v in texts if any("\ud800" <= c <= "\udfff" for c in v))
        raise InputError(f"{name} level {bad!r} is not valid UTF-8: it holds a lone "
                         "surrogate") from None


def _format_block(columns: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The CSV bytes of the rows of one block, from each column's cell
    matrix and mask: the matrices and a separator column side by side, then
    one pass keeps the shown bytes in row order."""
    n = len(columns[0][0])
    comma, one = np.full((n, 1), ord(","), dtype=np.uint8), np.ones((n, 1), dtype=bool)
    matrices, masks = [], []
    for chars, shown in columns:
        matrices += [chars, comma]
        masks += [shown, one]
    matrices[-1] = np.full((n, 1), ord("\n"), dtype=np.uint8)
    if len(columns) == 1:  # csv.writer quotes a record that is one empty cell
        rows = np.flatnonzero(~masks[0].any(axis=1))
        if rows.size:
            matrices[0], masks[0] = _patch(matrices[0], masks[0], rows, ['""'] * len(rows))
    return np.hstack(matrices)[np.hstack(masks)]


def write_dataset(ds: Dataset, path: str) -> None:
    """Write a Dataset as canonical CSV; absent optional columns are omitted.

    The header, then one row per line ended by "\\n": ids and ints as
    integers, floats as their shortest round-trip repr, "" for NaN (an
    absent optional value), and text quoted by _quote. The rows are
    formatted in numpy and written _BLOCK_ROWS at a time, so formatting
    holds a block, not the file; a text column's levels are formatted once
    and each row gathers its level's bytes by code.
    Round-trips: load_dataset(write_dataset(ds)) compares equal to ds.

    The bytes are fed to a sidecar key's hash as they are written. Where
    _loaded can tell the Dataset that load_dataset of the file builds, that
    Dataset is written as the file's column sidecar, so the next load does
    not parse; in any other case none is written. That step does grow with
    the file: it shares the columns a load would not change, but holds the
    duplicate count's row hashes, about 28 bytes a row, and a copy of each
    column a load would change (rows dropped, NaN filled, codes). A text
    level that UTF-8 cannot encode is an InputError, raised
    before any file is written, and so is an infinite value in an id or int
    column held as floats.
    """
    kinds = {n: k for n, k, _ in ds.schema}
    names = list(ds.column_names)
    for name in names:  # one column's mask at a time; a text column's codes are ints
        column = ds.coded(name)[0]
        if kinds[name] != "float" and column.dtype.kind == "f" and np.isinf(column).any():
            raise InputError(f"{name} value {column[np.isinf(column)][0]} is not an integer")
    texts = {n: _level_cells(n, ds.coded(n)[1]) for n in names if kinds[n] == "str"}
    digest = _sidecar_digest({})

    def cells(name: str, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        if name in texts:
            codes = ds.coded(name)[0][rows]
            return texts[name][0][codes], texts[name][1][codes]
        return _cells(kinds[name], ds.column(name)[rows])

    blocks = itertools.chain(
        [(",".join(map(_quote, names)) + "\n").encode("utf-8")],
        (_format_block([cells(name, slice(lo, lo + _BLOCK_ROWS)) for name in names])
         for lo in range(0, ds.n_rows, _BLOCK_ROWS)),
    )
    try:
        with open(path, "wb") as fh:
            for block in blocks:
                fh.write(block)
                if digest is not None:
                    digest.update(block)
    except OSError as exc:
        raise IoFailure(f"cannot write {path!r}: {exc}") from exc
    if digest is not None and os.path.isfile(path):
        loaded = _loaded(ds, str(path))
        if loaded is not None:
            _write_sidecar(path, digest.hexdigest(), loaded)


def _loaded(ds: Dataset, path: str) -> Dataset | None:
    """The Dataset that load_dataset (no schema_map) builds from the file
    write_dataset wrote of ds at path, from ds's own columns, each read as
    a load reads its cells back (_read_back), then _assemble. None where
    that cannot be shown: the name loads as JSON lines, the header gives
    another schema or lacks a required column, a cell does not read back as
    its value, a text column's levels are not a <U array no wider than
    csv.field_size_limit() allows, or the load fails."""
    schema = SESSION_SCHEMA if ds.has_column("n_top_spot") else EDGE_SCHEMA
    if (path.endswith((".jsonl", ".ndjson")) or ds.schema != schema
            or not all(ds.has_column(name) for name, _, req in schema if req)):
        return None
    values: dict[str, np.ndarray | Callable] = {}
    missing: dict[str, np.ndarray] = {}
    failed = np.zeros(ds.n_rows, dtype=bool)
    for name, kind, _ in schema:
        if not ds.has_column(name):
            continue
        column, levels = ds.coded(name)
        if levels is not None:
            if levels.dtype.kind != "U" or levels.dtype.itemsize // 4 > csv.field_size_limit():
                return None
            levels = np.array(levels.tolist(), dtype=str)  # as wide as a load makes it
            values[name] = lambda keep, codes=column, levels=levels: (codes[keep], levels)
            missing[name] = (levels == "")[column]
            continue
        if kind == "float":
            column = column.astype(np.float64, copy=False)  # as _cells writes it
            missing[name] = np.isnan(column)
        else:
            read = _read_back(name, kind, column)
            if read is None:
                return None
            column, missing[name] = read
        values[name] = column
        failed |= _out_of_range(kind, name, column) & ~missing[name]
    try:
        return _assemble(path, schema, values, missing, failed)
    except (EmptyDataset, MixedArmsWithinUser):
        return None


def _read_back(
    name: str, kind: str, column: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """An id or int column as a load reads back its written cells, uint64
    or int64, and its mask of empty cells (NaN in a float column); None
    where a cell would read back as another value: a negative id, an int
    past int64, or a float that is not a whole number below 2**63 in
    magnitude, which _cells writes truncated. A float session_depth is kept
    as float64 (_assemble takes it so) and must be below 2**53."""
    dtype = np.dtype(np.uint64 if kind == "id" else np.int64)
    missing = np.zeros(len(column), dtype=bool)
    if column.dtype.kind == "f":
        missing = np.isnan(column)
        limit = 2.0**53 if name == "session_depth" else 2.0**63
        if not (missing | (np.trunc(column) == column) & (np.abs(column) < limit)).all():
            return None
        if name == "session_depth":
            return column.astype(np.float64, copy=False), missing
        column = np.where(missing, 0.0, column)
    elif column.dtype.kind not in "iu":
        return None
    if len(column) and (column.min() < 0 if kind == "id" else column.max() > 2**63 - 1):
        return None
    return column.astype(dtype, copy=False), missing
