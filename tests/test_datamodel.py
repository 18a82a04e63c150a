import csv
import io
import json
import math
import os
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from posiv import datamodel
from posiv.datamodel import (
    EDGE_SCHEMA,
    SESSION_SCHEMA,
    Dataset,
    _BLOCK_ROWS,
    _count_duplicates,
    _encode,
    _id_column,
    _number_column,
    _plain_digits,
    _read_columns,
    _require_constant_arm_per_user,
    _split_plain,
    _text_column,
    load_dataset,
    parse_id,
    write_dataset,
)
from posiv.errors import (
    EmptyDataset,
    InputError,
    IoFailure,
    MissingColumn,
    MixedArmsWithinUser,
    PosivError,
)
from posiv.prepare import aggregate_sessions, sample_one_per_request, slice_by_item, top_items
from posiv.rng import fnv1a64
from posiv.simulator import SimConfig, simulate

from conftest import edge_columns, row_tuples, table1_dataset

TABLE1_CSV = """Response,Item,Request,Position
1,1,1,1
0,2,1,2
0,3,1,3
0,1,2,1
1,3,2,2
0,6,2,3
"""

TABLE1_MAP = {
    "outcome": "Response",
    "item_id": "Item",
    "request_id": "Request",
    "position": "Position",
}


def test_load_table1_style_csv(tmp_path):
    path = tmp_path / "t1.csv"
    path.write_text(TABLE1_CSV, encoding="utf-8")
    ds = load_dataset(str(path), schema_map=TABLE1_MAP)
    assert ds.n_rows == 6
    req1 = ds.column("request_id") == np.uint64(1)
    assert sorted(ds.column("position")[req1]) == [1, 2, 3]
    # user_id falls back to request_id when absent
    assert np.array_equal(ds.column("user_id"), ds.column("request_id"))
    assert ds.n_dropped == 0


def test_load_empty_file_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("request_id,user_id,item_id,position,outcome,arm\n", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        load_dataset(str(path))


def test_invalid_outcome_row_dropped(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "request_id,user_id,item_id,position,outcome,arm\n"
        "1,1,10,1,0,control\n"
        "1,1,11,2,2,control\n",
        encoding="utf-8",
    )
    ds = load_dataset(str(path))
    assert ds.n_rows == 1
    assert ds.n_dropped == 1
    assert "dropped=1" in ds.provenance


def test_row_validation_rules(tmp_path):
    path = tmp_path / "rules.csv"
    path.write_text(
        "request_id,user_id,item_id,position,outcome,arm,relevance_score,session_depth\n"
        "1,1,10,1,0,control,0.5,3\n"      # valid
        "2,2,10,0,0,control,0.5,3\n"      # position < 1
        "3,3,10,2,0,control,1.5,3\n"      # relevance outside [0,1]
        "4,4,10,3,0,control,0.5,2\n"      # depth < position
        "5,5,10,1,0,control,,\n",          # optional blanks are fine
        encoding="utf-8",
    )
    ds = load_dataset(str(path))
    assert ds.n_rows == 2
    assert ds.n_dropped == 3
    assert math.isnan(ds.column("relevance_score")[1])


def test_missing_required_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("request_id,user_id,item_id,position\n1,1,1,1\n", encoding="utf-8")
    with pytest.raises(MissingColumn):
        load_dataset(str(path))


def test_mixed_arms_within_user(tmp_path):
    path = tmp_path / "mix.csv"
    path.write_text(
        "request_id,user_id,item_id,position,outcome,arm\n"
        "1,7,10,1,0,control\n"
        "2,7,11,1,0,treatment\n",
        encoding="utf-8",
    )
    with pytest.raises(MixedArmsWithinUser):
        load_dataset(str(path))


def test_duplicate_rows_kept_and_counted(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "request_id,user_id,item_id,position,outcome,arm\n"
        "1,1,10,1,0,control\n"
        "1,1,10,1,0,control\n",
        encoding="utf-8",
    )
    ds = load_dataset(str(path))
    assert ds.n_rows == 2
    assert ds.n_duplicates == 1


def test_non_numeric_ids_hashed_fnv1a(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text(
        "request_id,user_id,item_id,position,outcome,arm\n"
        "r-1,alice,camp_A,1,0,control\n",
        encoding="utf-8",
    )
    ds = load_dataset(str(path))
    assert int(ds.column("user_id")[0]) == fnv1a64("alice")
    assert int(ds.column("item_id")[0]) == fnv1a64("camp_A")
    assert parse_id("12345") == 12345
    assert parse_id(str(2**64)) == fnv1a64(str(2**64))


def test_round_trip_simulated_dataset(tmp_path):
    ds, _ = simulate(SimConfig(n_users=60, n_items=12, slots_per_request=4, seed=5))
    path = tmp_path / "rt.csv"
    write_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert back == ds


def test_round_trip_preserves_absent_columns(tmp_path):
    ds = Dataset(edge_columns([(1, 1, 5, 1, 0, "control"), (2, 2, 6, 1, 1, "treatment")]),
                 EDGE_SCHEMA)
    path = tmp_path / "opt.csv"
    write_dataset(ds, str(path))
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert "relevance_score" not in header
    assert "reason" not in header
    back = load_dataset(str(path))
    assert back == ds
    assert not back.has_column("session_depth")


def test_datasets_differing_in_one_way_compare_unequal():
    """Dataset equality, the oracle of every round-trip and sidecar test,
    holds across NaN cells and fails on each single difference: column
    names, length, one int cell, NaN against a number, one text level."""
    rows = [(1, 1, 5, 1, 0, "control", "r0", 0.5), (2, 2, 6, 2, 1, "treatment", "r1"),
            (3, 3, 6, 1, 0, "treatment", "r0", 0.25, 4.0)]
    data = edge_columns(rows)
    ds = Dataset(data, EDGE_SCHEMA)
    assert np.isnan(data["relevance_score"][1]) and np.isnan(data["session_depth"][0])
    assert ds == Dataset(edge_columns(rows), EDGE_SCHEMA)

    def changed(name, i, value):
        column = data[name].copy()
        column[i] = value
        return Dataset({**data, name: column}, EDGE_SCHEMA)

    others = {
        "column names": Dataset({k: v for k, v in data.items() if k != "session_depth"},
                                EDGE_SCHEMA),
        "length": Dataset({k: v[:-1] for k, v in data.items()}, EDGE_SCHEMA),
        "int cell": changed("position", 2, 3),
        "NaN against a number": changed("relevance_score", 1, 0.5),
        "text level": changed("reason", 1, "r2"),
    }
    for what, other in others.items():
        assert ds != other and other != ds, what


@pytest.mark.parametrize("codes", [[0, -1, 1], [0, 5, 1], [0.0, 1.0, 1.0]],
                         ids=["negative", "past-the-levels", "floats"])
def test_text_codes_outside_their_levels_raise(codes):
    """A text code must be an integer in [0, len(levels)): code -1 would
    read as the last level, and code 5 would fail later, in column() or
    write_dataset, with an IndexError."""
    data = edge_columns([(1, 1, 5, 1, 0), (2, 2, 6, 2, 1), (3, 3, 6, 1, 0)])
    with pytest.raises(ValueError, match=r"^arm codes must be integers in \[0, 2\)$"):
        Dataset({**data, "arm": np.array(codes)}, EDGE_SCHEMA,
                levels={"arm": np.array(["control", "treatment"])})


def test_write_to_bad_path_raises():
    ds = table1_dataset()
    with pytest.raises(IoFailure):
        write_dataset(ds, "")


def test_jsonl_ingestion(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"request_id": 1, "user_id": 1, "item_id": 3, "position": 1, "outcome": 0, "arm": "control"}\n'
        '{"request_id": 1, "user_id": 1, "item_id": 4, "position": 2, "outcome": 1, "arm": "control", "relevance_score": 0.25}\n',
        encoding="utf-8",
    )
    ds = load_dataset(str(path))
    assert ds.n_rows == 2
    assert ds.column("relevance_score")[1] == 0.25
    assert math.isnan(ds.column("relevance_score")[0])


def test_validation_is_order_independent(tmp_path):
    header = "request_id,user_id,item_id,position,outcome,arm\n"
    rows = [
        "1,1,10,1,0,control",
        "1,1,11,0,0,control",   # invalid
        "2,2,10,1,2,control",   # invalid
        "2,2,12,1,1,control",
        "3,3,13,2,0,treatment",
    ]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    path_a.write_text(header + "\n".join(rows) + "\n", encoding="utf-8")
    path_b.write_text(header + "\n".join(reversed(rows)) + "\n", encoding="utf-8")
    da, db = load_dataset(str(path_a)), load_dataset(str(path_b))
    assert da.n_dropped == db.n_dropped == 2
    assert sorted(row_tuples(da)) == sorted(row_tuples(db))


def test_dataset_columns_immutable():
    ds = table1_dataset()
    with pytest.raises(ValueError):
        ds.column("position")[0] = 99


# -- row-wise reference -------------------------------------------------------
# The cell-by-cell loader and writer that the column-wise load_dataset and
# write_dataset replaced, kept as oracles. They differ from the originals in
# two places. _rowwise_parse_cell checks the int64 range: the original ended
# in an OverflowError traceback on an int cell outside int64. _rowwise_write
# quotes a cell holding a bare "\r": the original's csv.writer with a "\n"
# line end left it unquoted, and the file read back with a row split in two.


def _rowwise_parse_cell(kind, name, value):
    if value == "":
        return None
    if kind == "id":
        return parse_id(value)
    if kind == "int":
        n = int(value)
        if not -(2**63) <= n < 2**63:
            raise ValueError(f"{name} outside int64")
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


def _rowwise_records(path):
    if str(path).endswith((".jsonl", ".ndjson")):
        records, keys = [], []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = {k: ("" if v is None else str(v)) for k, v in json.loads(line).items()}
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


def _rowwise_load(path, schema_map=None):
    header, records = _rowwise_records(path)
    session = (schema_map or {}).get("n_top_spot", "n_top_spot") in header
    schema = SESSION_SCHEMA if session else EDGE_SCHEMA
    colmap = {name: name for name, _, _ in schema}
    if schema_map:
        colmap.update({k: v for k, v in schema_map.items() if k in colmap})
    required = [n for n, _, req in schema if req]
    for name in required:
        if colmap[name] not in header:
            raise MissingColumn(name)
    present = [n for n, _, _ in schema if colmap[n] in header]
    kinds = {n: k for n, k, _ in schema}
    parsed = {n: [] for n in present}
    dropped = 0
    for rec in records:
        try:
            values = {}
            for name in present:
                cell = rec.get(colmap[name])
                values[name] = _rowwise_parse_cell(kinds[name], name, cell if cell is not None else "")
            for name in required:
                if values[name] is None:
                    raise ValueError(f"{name} empty")
            if session:
                if values["invite_total"] > values["n_top_spot"] + values["n_bottom_spot"]:
                    raise ValueError("invite_total exceeds session size")
            else:
                if values.get("arm") is None and "arm" in values:
                    raise ValueError("arm empty")
                depth = values.get("session_depth")
                if depth is not None and depth < values["position"]:
                    raise ValueError("session_depth below position")
        except (ValueError, TypeError):
            dropped += 1
            continue
        for name in present:
            parsed[name].append(values[name])
    if not parsed.get("request_id"):
        raise EmptyDataset(path)
    int_columns = {"position", "outcome", "n_top_spot", "n_bottom_spot", "invite_total"}
    data = {}
    for name in present:
        kind, vals = kinds[name], parsed[name]
        if kind == "id":
            data[name] = np.array(vals, dtype=np.uint64)
        elif kind == "int" and name in int_columns:
            data[name] = np.array(vals, dtype=np.int64)
        elif kind in ("int", "float"):
            data[name] = np.array([math.nan if v is None else float(v) for v in vals])
        else:
            data[name] = np.array(["" if v is None else v for v in vals])
    if "user_id" not in data:
        data["user_id"] = data["request_id"].copy()
    _require_constant_arm_per_user(data)
    rows = row_tuples(Dataset(data, schema))
    n_dup = len(rows) - len(set(rows))
    return Dataset(
        data, schema, f"load:{path} dropped={dropped} duplicates={n_dup}",
        n_dropped=dropped, n_duplicates=n_dup,
    )


def _rowwise_format_cell(kind, value):
    if kind == "id":
        return str(int(value))
    if kind == "int":
        if isinstance(value, float) or (hasattr(value, "dtype") and value.dtype.kind == "f"):
            return "" if math.isnan(float(value)) else str(int(value))
        return str(int(value))
    if kind == "float":
        return "" if math.isnan(float(value)) else repr(float(value))
    return str(value)


def _rowwise_write(ds, path):
    """Each row as csv.writer writes it with a "\r\n" line end, which quotes
    a cell holding "\r" or "\n", then ended by "\n" instead."""
    kinds = {n: k for n, k, _ in ds.schema}
    names = list(ds.column_names)
    columns = [ds.column(n) for n in names]
    rows = ([_rowwise_format_cell(kinds[n], col[i]) for n, col in zip(names, columns)]
            for i in range(ds.n_rows))
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\r\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in [names, *rows]:
            line.seek(0)
            line.truncate()
            writer.writerow(row)
            fh.write(line.getvalue()[:-2] + "\n")


def _assert_loads_like_rowwise(path, schema_map=None):
    """Same exception type, or the same columns to the byte (dtype included,
    so -0.0 and <U widths count) and the same counts and provenance. A
    sidecar that write_dataset left is deleted first, so the load parses."""
    _sidecar(path).unlink(missing_ok=True)
    try:
        want = _rowwise_load(str(path), schema_map)
    except PosivError as exc:
        with pytest.raises(type(exc)):
            load_dataset(str(path), schema_map)
        return None
    got = load_dataset(str(path), schema_map)
    assert got.column_names == want.column_names
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
    assert got == want
    assert (got.n_dropped, got.n_duplicates, got.provenance) == (
        want.n_dropped, want.n_duplicates, want.provenance
    )
    return got


EDGE_HEADER = "request_id,user_id,item_id,position,outcome,arm,reason,relevance_score,session_depth\n"

LOADER_CORPUS = {
    "id_cells.csv": EDGE_HEADER + (
        "1,1,+12,1,0,control,r1,0.5,3\n"
        "2,2, 7,1,0,control,r1,0.5,3\n"
        "3,3,1_0,1,0,control,r1,0.5,3\n"
        "4,4,²,1,0,control,r1,0.5,3\n"          # superscript two: isdigit, int() fails
        "5,5,٣,1,0,control,r1,0.5,3\n"          # Arabic-Indic three: read as 3
        "6,6,18446744073709551616,1,0,control,r1,0.5,3\n"
        "7,7,99999999999999999999,1,0,control,r1,0.5,3\n"
        "8,+12,12,1,0,treatment,r1,0.5,3\n"
        "٣,9,3,1,0,control,r1,0.5,3\n"
        "18446744073709551615,10,12,1,0,control,r1,0.5,3\n"
        "9223372036854775808,²,12,1,0,control,r1,0.5,3\n"
        ",11,12,1,0,control,r1,0.5,3\n"
        "12,12,0000000000000000000000001,1,0,control,r1,0.5,3\n"
    ),
    "float_cells.csv": EDGE_HEADER + "".join(
        f"{i},{i},5,1,0,control,r1,{cell},\n"
        for i, cell in enumerate([
            "nan", "NaN", "inf", "-inf", "-0.0", "0.0", "1e400", "-1e400", "1e-400",
            "5e-324", " 0.5", "0.1_5", "1_0", "٠.٥", "", "0x1p-1", "1.0000000000000002",
        ], start=1)
    ),
    "int_cells.csv": EDGE_HEADER + "".join(
        f"{i},{i},5,{pos},{out},control,r1,,{depth}\n"
        for i, (pos, out, depth) in enumerate([
            ("99999999999999999999999", "0", ""),
            ("-99999999999999999999999", "0", ""),
            ("9223372036854775807", "0", ""),
            ("9223372036854775808", "0", ""),
            ("1", "-9223372036854775809", ""),
            (" 7", "1", ""), ("+3", "1", ""), ("1_0", "0", ""), ("٣", "0", ""),
            ("²", "0", ""), ("1.0", "0", ""), ("2", "-0", ""), ("2", "0", "99999999999999999999"),
            ("9007199254740996", "0", "9007199254740995"),  # exact compare, not as float
            ("9007199254740995", "0", "9007199254740996"),
            ("3", "0", "2"), ("3", "0", "3"), ("0", "0", ""), ("", "0", ""), ("1", "", ""),
            ("0000000000000000000000001", "0", ""), ("007", "1", "0000000000000000000000009"),
        ], start=1)
    ),
    "shape_cells.csv": (
        EDGE_HEADER
        + "1,1,5,1,0,control,r1,0.5,3\n"
        + "\n\n"
        + "2,2,5,1,0,control\n"                      # short: optional cells empty
        + "3,3,5,1\n"                                # short: outcome missing
        + "4,4,5,1,0,control,r1,0.5,3,extra,cells\n"  # long
        + '5,5,5,1,0,"treat,ment","r""1,2",0.5,3\n'    # quoted commas and quotes
        + '"6","6","5","1","0","control","",,\n'
        + "\n"
    ),
    "repeated_header.csv": (
        "request_id,user_id,item_id,arm,position,outcome,arm,item_id\n"
        "1,1,5,first,1,0,second,6\n"
        "2,2,5,first,1,0,second\n"                   # last item_id padded to "": dropped
        "3,3,5,first,1,0\n"                          # last arm padded to "": dropped
        "4,4,5,,1,0,kept,7\n"
    ),
    "duplicates.csv": EDGE_HEADER + (
        "1,1,5,1,0,control,r1,,3\n"
        "1,1,5,1,0,control,r1,,3\n"                  # NaN equals NaN
        "2,2,5,1,0,control,r1,-0.0,3\n"
        "2,2,5,1,0,control,r1,0.0,3\n"               # -0.0 equals 0.0
        "2,2,5,1,0,control,r1,0,3\n"
        "3,3,7,1,0,control,r1,0.50,\n"
        "3,3,٧,1,0,control,r1,0.5,\n"           # same row once parsed
        "3,3,7,1,0,control,r1,0.5,\n"
        "4,4,7,1,0,control,r1,nan,\n"                # dropped, not a duplicate
        "4,4,7,1,0,control,r1,nan,\n"
        "5,5,7,1,0,control,r1,0.5,\n"
        "5,5,7,1,0,control,r2,0.5,\n"
    ),
    "session_cells.csv": (
        "request_id,user_id,arm,reason_mode,n_top_spot,n_bottom_spot,invite_total\n"
        "1,1,control,r1,2,3,5\n"
        "2,2,control,r1,2,3,6\n"                     # invite_total above the size
        "3,3,,r1,2,3,1\n"                            # empty arm is kept at session level
        "4,4,control,,-1,3,1\n"
        "5,5,control,r1,4611686018427387904,4611686018427387904,9223372036854775807\n"
        "6,6,control,r1,9223372036854775807,9223372036854775807,9223372036854775807\n"
        "7,7,control,r1,9223372036854775808,0,0\n"
        "8,,control,r1,1,1,1\n"                      # required user_id empty
        "9,9,control,r1,1,1,1\n"
        "9,9,control,r1,1,1,1\n"
    ),
    "all_dropped.csv": EDGE_HEADER + "1,1,5,0,0,control,r1,0.5,3\n\n",
    "header_only.csv": EDGE_HEADER,
    "empty.csv": "",
    "blank_first_line.csv": "\n" + EDGE_HEADER + "1,1,5,1,0,control,r1,0.5,3\n",
    "records.jsonl": "".join(
        json.dumps(rec) + "\n"
        for rec in [
            {"request_id": 1, "user_id": 1, "item_id": "camp-A", "position": 1, "outcome": 0,
             "arm": "control", "relevance_score": 0.25},
            {"request_id": 1, "user_id": 1, "item_id": 4, "position": 2, "outcome": 1,
             "arm": "control", "relevance_score": None, "session_depth": 4},
            {"request_id": 2, "user_id": 2, "item_id": 4, "position": 1.0, "outcome": 1,
             "arm": "treatment"},
            {"request_id": 3, "user_id": 3, "item_id": 4, "position": True, "outcome": 0,
             "arm": "treatment", "reason": "r,1"},
            {"request_id": 4, "user_id": 4, "item_id": 4, "position": "+2", "outcome": 0,
             "arm": "treatment", "relevance_score": "-0.0", "extra": [1, 2]},
            {"request_id": 4, "user_id": 4, "item_id": 4, "position": "+2", "outcome": 0,
             "arm": "treatment", "relevance_score": 0.0},
            {"request_id": 5, "user_id": None, "item_id": 4, "position": 1, "outcome": 0},
        ]
    ) + "\n",
}


@pytest.mark.parametrize("name", sorted(LOADER_CORPUS))
def test_loader_matches_rowwise_reference(tmp_path, name):
    path = tmp_path / name
    path.write_text(LOADER_CORPUS[name], encoding="utf-8")
    _assert_loads_like_rowwise(path)


def test_loader_matches_rowwise_reference_with_schema_map(tmp_path):
    path = tmp_path / "mapped.csv"
    path.write_text(
        "Response,Item,Request,Position,Item,Group,User\n"
        "1,1,1,1,9,control,5\n"
        "0,2,1,2,,control,5\n"
        "0,3,1,3,²,control,5\n"
        "0,1,2,1,8,treatment,6\n"
        "0,1,2,1,8,treatment,6\n"
        "1,3,2,99999999999999999999999,7,treatment,6\n",
        encoding="utf-8",
    )
    ds = _assert_loads_like_rowwise(path, {**TABLE1_MAP, "arm": "Group"})
    assert (ds.n_rows, ds.n_dropped, ds.n_duplicates) == (3, 3, 1)
    # no column maps to user_id, so it falls back to request_id
    assert np.array_equal(ds.column("user_id"), ds.column("request_id"))


def test_loader_trap_cells_outcomes(tmp_path):
    """The parse contract on the trap cells, stated without the oracle."""
    path = tmp_path / "ids.csv"
    path.write_text(LOADER_CORPUS["id_cells.csv"], encoding="utf-8")
    ds = load_dataset(str(path))
    items = ds.column("item_id").tolist()
    assert items[:6] == [
        fnv1a64("+12"), fnv1a64(" 7"), fnv1a64("1_0"), 3,
        fnv1a64("18446744073709551616"), fnv1a64("99999999999999999999"),
    ]
    assert 2**64 - 1 in ds.column("request_id").tolist()
    assert ds.n_dropped == 3  # "²" as item and user id, and the empty request id

    path = tmp_path / "ints.csv"
    path.write_text(LOADER_CORPUS["int_cells.csv"], encoding="utf-8")
    ds = load_dataset(str(path))
    assert 2**63 - 1 in ds.column("position").tolist()
    assert not any(p > 2**63 - 1 for p in ds.column("position").tolist())
    assert 9007199254740996 not in ds.column("position").tolist()
    assert 9007199254740995 in ds.column("position").tolist()


def test_empty_user_id_cell_drops_its_row(tmp_path):
    path = tmp_path / "uid.csv"
    path.write_text(
        "request_id,user_id,item_id,position,outcome,arm\n"
        "1,,10,1,0,control\n"
        "2,2,10,1,0,control\n",
        encoding="utf-8",
    )
    ds = load_dataset(str(path))
    assert (ds.n_rows, ds.n_dropped) == (1, 1)
    assert ds.column("user_id").tolist() == [2]


def test_int64_overflow_cell_drops_its_row(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(
        "request_id,user_id,item_id,position,outcome,arm\n"
        "1,1,10,99999999999999999999999,0,control\n"
        "2,2,10,1,0,control\n",
        encoding="utf-8",
    )
    ds = load_dataset(str(path))
    assert (ds.n_rows, ds.n_dropped) == (1, 1)
    assert "dropped=1" in ds.provenance


def test_unreadable_records_are_input_errors(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"request_id,user_id,item_id,position,outcome,arm\n1,1,10,1,0,caf\xe9\n")
    with pytest.raises(InputError):
        load_dataset(str(path))
    path = tmp_path / "list.jsonl"
    path.write_text('{"request_id": 1}\n[1, 2]\n', encoding="utf-8")
    with pytest.raises(InputError):
        load_dataset(str(path))


def _with_injected_rows(ds, path, seed):
    """Write ds row-wise and splice in broken copies and exact duplicates."""
    _rowwise_write(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header, rows = lines[0], lines[1:]
    names = header.strip().split(",")
    rng = np.random.default_rng(seed)
    breaks = {"position": ["0", "x", "99999999999999999999"], "outcome": ["2", ""],
              "relevance_score": ["1.5", "nan", "-0.0", ""], "arm": [""],
              "item_id": ["²", "+12", " 7"], "request_id": [""], "session_depth": ["0", ""]}
    extra = []
    for k in rng.choice(len(rows), 30, replace=False):
        cells = rows[k].rstrip("\n").split(",")
        name = rng.choice([n for n in names if n in breaks])
        cells[names.index(name)] = rng.choice(breaks[name])
        extra.append(",".join(cells) + "\n")
    extra.extend(rows[k] for k in rng.choice(len(rows), 10, replace=False))
    for line in extra:
        rows.insert(int(rng.integers(0, len(rows) + 1)), line)
    path.write_text(header + "".join(rows), encoding="utf-8")


@pytest.mark.parametrize("mode", ["pymk", "ads"])
def test_loader_matches_rowwise_reference_on_simulated_logs(tmp_path, mode):
    ds, _ = simulate(SimConfig(n_users=150, n_items=15, slots_per_request=5,
                               marketplace_mode=mode, seed=3))
    path = tmp_path / f"{mode}.csv"
    _with_injected_rows(ds, path, seed=7)
    got = _assert_loads_like_rowwise(path)
    assert got.n_dropped > 0 and got.n_duplicates >= 10


_TRAP_CELLS = {
    "id": ["1", "2", "+12", " 7", "1_0", "²", "٣", "18446744073709551615",
           "18446744073709551616", "0000000000000000000000001", "007", "1\x00", "x", ""],
    "position": ["1", "2", "3", "0", "-1", " 2", "+3", "1_0", "٣", "²", "1.0",
                 "99999999999999999999999", "9223372036854775807", "9223372036854775808",
                 "18446744073709551615", "18446744073709551616",
                 "0000000000000000000000001", "007", "2\x00", ""],
    "outcome": ["0", "1", "2", "-0", "", "x"],
    "relevance_score": ["0.5", "0", "-0.0", "0.0", "1", "nan", "inf", "1e400", "1e-400",
                        "1.5", "", " 0.25", "0.5\x00"],
    "session_depth": ["1", "3", "10", "0", "", "99999999999999999999"],
    "arm": ["control", "", "a,b", 'q"t', "a\x00", "treatment-with-a-long-label"],
    "reason": ["r1", "r2", "", "r,3", "\x00"],
}


@st.composite
def _trap_files(draw, plain=False):
    """Header names and rows of trap cells. With plain=True every row is full
    width and no cell needs quoting, so the file takes the byte front-end."""
    names = ["request_id", "user_id", "item_id", "position", "outcome"] + draw(
        st.lists(st.sampled_from(["arm", "reason", "relevance_score", "session_depth"]),
                 unique=True)
    )
    rows = []
    for i in range(draw(st.integers(min_value=1, max_value=25))):
        row = []
        for name in names:
            cells = _TRAP_CELLS.get(name, _TRAP_CELLS["id"])
            row.append(draw(st.sampled_from(
                [c for c in cells if not plain or ("," not in c and '"' not in c)]
            )))
        # One user per row keeps MixedArmsWithinUser rare. The user_id cell is
        # never empty: the row-wise loader ended in a TypeError on that.
        row[names.index("user_id")] = draw(st.sampled_from([f"u{i}", str(i), "+12", "²"]))
        if not plain:
            row = row[: draw(st.integers(min_value=len(row) - 1, max_value=len(row)))]
        rows.append(row)
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return names, rows


@settings(max_examples=60, deadline=None)
@given(_trap_files())
def test_loader_matches_rowwise_reference_on_random_trap_cells(tmp_path_factory, table):
    names, rows = table
    path = tmp_path_factory.mktemp("traps") / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(rows)
    _assert_loads_like_rowwise(path)


@settings(max_examples=60, deadline=None)
@given(_trap_files(plain=True))
def test_byte_front_end_matches_rowwise_reference_on_plain_trap_cells(tmp_path_factory, table):
    names, rows = table
    path = tmp_path_factory.mktemp("plain") / "t.csv"
    path.write_text("".join(",".join(row) + "\n" for row in [names, *rows]), encoding="utf-8")
    assert _split_plain(path.read_bytes()) is not None
    _assert_loads_like_rowwise(path)


def _assert_front_ends_agree(path):
    """Load the file as written, then again with its first header name quoted,
    which sends it through csv.reader without changing any cell: the same
    exception type, or byte-identical columns, counts and provenance."""
    text = path.read_text(encoding="utf-8")
    try:
        want = load_dataset(str(path))
    except PosivError as exc:
        want = type(exc)
    path.write_text('"' + text.replace(",", '",', 1), encoding="utf-8")
    assert _split_plain(path.read_bytes()) is None
    if isinstance(want, type):
        with pytest.raises(want):
            load_dataset(str(path))
        return
    got = load_dataset(str(path))
    assert got.column_names == want.column_names
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
    assert (got.n_dropped, got.n_duplicates, got.provenance) == (
        want.n_dropped, want.n_duplicates, want.provenance
    )


@pytest.mark.parametrize(
    "name",
    sorted(n for n, text in LOADER_CORPUS.items()
           if n.endswith(".csv") and "," in text.partition("\n")[0]),
)
def test_front_ends_agree_on_loader_corpus(tmp_path, name):
    path = tmp_path / name
    path.write_text(LOADER_CORPUS[name], encoding="utf-8")
    _assert_front_ends_agree(path)


@pytest.mark.parametrize("mode", ["pymk", "ads"])
def test_front_ends_agree_on_simulated_logs(tmp_path, mode):
    ds, _ = simulate(SimConfig(n_users=150, n_items=15, slots_per_request=5,
                               marketplace_mode=mode, seed=3))
    path = tmp_path / f"{mode}.csv"
    _with_injected_rows(ds, path, seed=7)
    assert _split_plain(path.read_bytes()) is not None
    _assert_front_ends_agree(path)


@pytest.mark.parametrize("mode", ["pymk", "ads"])
def test_a_crlf_file_without_quotes_takes_the_byte_path(tmp_path, monkeypatch, mode):
    """A file with "\r\n" line ends and no quote loads as its "\n" twin,
    to the byte, without csv.reader."""
    ds, _ = simulate(SimConfig(n_users=150, n_items=15, slots_per_request=5,
                               marketplace_mode=mode, seed=3))
    path = tmp_path / f"{mode}.csv"
    _with_injected_rows(ds, path, seed=7)
    want = load_dataset(str(path))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", no_reader)
    got = load_dataset(str(path))
    assert got.column_names == want.column_names
    for name in want.column_names:
        a, b = got.coded(name)[0], want.coded(name)[0]
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
        assert np.array_equal(got.coded(name)[1], want.coded(name)[1]), name
    assert (got.n_rows, got.n_dropped, got.n_duplicates, got.provenance) == (
        want.n_rows, want.n_dropped, want.n_duplicates, want.provenance
    )


@pytest.mark.parametrize("quoted", [False, True])
def test_cell_over_the_csv_field_limit_is_an_input_error(tmp_path, quoted):
    """Both front-ends apply csv.field_size_limit(), which counts characters."""
    limit = csv.field_size_limit()
    header = ('"request_id"' if quoted else "request_id") + ",user_id,item_id,position,outcome,arm\n"
    path = tmp_path / "long.csv"
    for arm, ok in [("a" * limit, True), ("é" * limit, True), ("a" * (limit + 1), False)]:
        path.write_text(header + f"1,1,5,1,0,{arm}\n2,2,5,1,0,b\n", encoding="utf-8")
        if ok:
            assert load_dataset(str(path)).column("arm")[0] == arm
        else:
            with pytest.raises(InputError, match="field limit"):
                load_dataset(str(path))


def _with_text_ids(ds: Dataset, path) -> Dataset:
    """Write ds with its user and item ids as labels (user-000123,
    campaign-00042), as in a log keyed by text; returns ds with the ids
    those labels load as."""
    write_dataset(ds, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    names = lines[0].split(",")
    forms = {names.index("user_id"): "user-{:06d}", names.index("item_id"): "campaign-{:05d}"}
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        for j, form in forms.items():
            row[j] = form.format(int(row[j]))
    path.write_text("".join(",".join(row) + "\n" for row in [names, *rows]), encoding="utf-8")
    columns = {name: ds.column(name) for name in ds.column_names}
    for j in forms:
        columns[names[j]] = np.array([fnv1a64(row[j]) for row in rows], dtype=np.uint64)
    return Dataset(columns, ds.schema)


def test_load_peak_memory_is_a_small_multiple_of_the_columns(tmp_path):
    """tracemalloc peak of one load of a plain 20k-row file, against the
    bytes of the columns it returns: a pymk file with numeric ids (3.0x when
    this bound was set, 3.9x before floats were parsed in numpy; the
    csv.reader load it replaced peaked at 7.9x), and an ads file whose user
    and item ids are text (3.5x, 4.6x before)."""
    for mode in ("pymk", "ads"):
        ds, _ = simulate(SimConfig(n_users=2000, n_items=100, slots_per_request=10,
                                   n_reasons=22, marketplace_mode=mode, seed=1))
        path = tmp_path / f"{mode}.csv"
        if mode == "pymk":
            write_dataset(ds, str(path))
            _sidecar(path).unlink()  # so that the load parses
        else:
            ds = _with_text_ids(ds, path)
        tracemalloc.start()
        try:
            got = load_dataset(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == ds and got.n_rows == 20_000, mode
        assert peak <= 4 * sum(got.column(n).nbytes for n in got.column_names), mode


def test_write_peak_memory_is_bounded_by_a_block(tmp_path):
    """write_dataset formats a block of rows at a time, so its tracemalloc
    peak at 200k rows is about its peak at 20k rows, not ten times it (the
    per-cell writer it replaced peaked at 11.8 MB and 117 MB). The sidecar
    step that follows (_loaded) shares every column a load would not change
    and holds the duplicate count's row hashes, 28 bytes a row when its
    bound was set: below a block's peak at 200k rows, above it from about
    210k rows on."""
    big, _ = simulate(SimConfig(n_users=20_000, n_items=100, slots_per_request=10,
                                n_reasons=22, seed=1))
    peaks = []
    for n in (20_000, 200_000):
        ds = big.subset(np.arange(n))
        tracemalloc.start()
        try:
            write_dataset(ds, str(tmp_path / "w.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert _sidecar(tmp_path / "w.csv").exists()
    assert peaks[1] <= 1.5 * peaks[0], peaks
    tracemalloc.start()
    try:
        datamodel._loaded(ds, str(tmp_path / "w.csv"))
        step = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step <= 32 * ds.n_rows, step


def _random_id_cells(rng, n):
    """n id cells of 1 to 64 characters: ASCII text, all-digit (leading
    zeros included, so a long cell can still be a small number), and text
    with non-ASCII characters, some of them digits that are not 0-9."""
    ascii_chars = [chr(c) for c in range(0x20, 0x7F) if chr(c) not in ',"']
    other = ["é", "²", "٣", "€", "𝟘", "ß", "a", "7"]
    cells = []
    for kind, length in zip(rng.integers(0, 3, n), rng.integers(1, 65, n)):
        if kind == 0:
            cells.append("".join(rng.choice(ascii_chars, length)))
        elif kind == 1:
            zeros = int(rng.integers(0, length + 1))
            cells.append("0" * zeros + "".join(rng.choice(list("0123456789"), length - zeros)))
        else:
            cells.append("".join(rng.choice(other + ascii_chars[:4], length)))
    return cells


@pytest.mark.parametrize("front_end", ["plain", "csv.reader", "jsonl"])
@pytest.mark.parametrize("seed", [0, 1])
def test_id_column_matches_parse_id(tmp_path, front_end, seed):
    """Each id cell loads as parse_id reads it, or drops its row where
    parse_id raises, over enough cells that most are hashed in numpy and the
    longest are left to Python."""
    rng = np.random.default_rng(seed)
    cells = _random_id_cells(rng, 3000)
    cells += ["0000000000000000000000001", "99999999999999999999", "18446744073709551615",
              "18446744073709551616", "²", "٣", "user-000001", "x" * 500] * 20
    if front_end == "jsonl":
        cells.append("\ud800")  # a lone surrogate from a JSON escape: parse_id raises
        path = tmp_path / "ids.jsonl"
        path.write_text("".join(json.dumps({"item_id": c}) + "\n" for c in cells),
                        encoding="utf-8")
    else:
        path = tmp_path / "ids.csv"
        header = "item_id" if front_end == "plain" else '"item_id"'
        path.write_text(header + "\n" + "".join(c + "\n" for c in cells), encoding="utf-8")
        assert (_split_plain(path.read_bytes()) is not None) == (front_end == "plain")
    column = _read_columns(str(path))[1]["item_id"]
    values, failed = _id_column(column, column.start == column.end)
    want = []
    for cell in cells:
        try:
            want.append(parse_id(cell))
        except ValueError:
            want.append(None)
    assert failed.tolist() == [w is None for w in want]
    assert values[~failed].tolist() == [w for w in want if w is not None]
    assert len(set(map(len, cells))) == 65 and None in want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=19), st.booleans()), min_size=1, max_size=40),
       st.integers(min_value=0, max_value=3))
def test_text_column_codes_cells_as_numpy_unique(cells, gap):
    """_text_column's levels and codes are np.unique's over the kept cells
    as a <U array: code point order, non-ASCII and NUL included. Each cell
    here is followed by `gap` separator bytes only, so the cells near the
    end take the word read back from the last 8 bytes, and data under 8
    bytes is padded."""
    if not any(kept for _, kept in cells):
        cells[0] = (cells[0][0], True)
    blobs = [text.encode("utf-8") + b"," * gap for text, _ in cells]
    end = np.cumsum([len(b) for b in blobs]) - gap
    length = np.array([len(text.encode("utf-8")) for text, _ in cells])
    keep = np.array([kept for _, kept in cells])
    codes, levels = _text_column(datamodel._Cells(b"".join(blobs), end - length, end), keep)
    want_levels, want_codes = np.unique(np.array([t for t, kept in cells if kept]),
                                        return_inverse=True)
    assert levels.tolist() == want_levels.tolist()
    assert codes.tolist() == want_codes.tolist()
    assert codes.dtype == np.uint8


@st.composite
def _tied_tables(draw):
    """Columns of every edge kind over few values, so rows tie often, plus
    rows that tie on every number and differ in a string column, in A, B, A
    order (a duplicate the number columns alone cannot tell)."""
    n = draw(st.integers(min_value=1, max_value=30))
    pick = lambda values: draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    data = {
        "request_id": np.array(pick([0, 1, 2**64 - 1]), dtype=np.uint64),
        "user_id": np.array(pick([0, 1]), dtype=np.uint64),
        "item_id": np.array(pick([5]), dtype=np.uint64),
        "position": np.array(pick([1, 2, -1]), dtype=np.int64),
        "outcome": np.array(pick([0, 1]), dtype=np.int64),
        "arm": np.array(pick(["A", "B"])),
        "reason": np.array(pick(["", "r", "é"])),
        "relevance_score": np.array(pick([0.0, -0.0, math.nan, 0.5])),
        "session_depth": np.array(pick([math.nan, 3.0])),
    }
    for i in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)):
        for name in data:
            value = data[name][i]
            data[name] = np.concatenate([data[name], [value, value, value]]).astype(data[name].dtype)
        data["arm"][-3:] = ["A", "B", "A"]
    return data


def _rowwise_duplicates(data):
    rows = row_tuples(Dataset(data, EDGE_SCHEMA))
    return len(rows) - len(set(rows))


def _coded(data):
    """The columns as load_dataset gives them to _count_duplicates: text as
    codes into its sorted levels."""
    ds = Dataset(data, EDGE_SCHEMA)
    return {name: ds.coded(name)[0] for name in ds.column_names}


@settings(max_examples=200, deadline=None)
@given(_tied_tables())
def test_count_duplicates_matches_rowwise_reference(data):
    assert _count_duplicates(_coded(data)) == _rowwise_duplicates(data)


def test_count_duplicates_with_every_row_hashed_alike(tmp_path, monkeypatch):
    """With a constant row hash every row is a candidate, so the count comes
    from the exact comparison alone."""
    monkeypatch.setattr(datamodel, "mix64", lambda x: np.zeros(len(x), dtype=np.uint64))
    ds, _ = simulate(SimConfig(n_users=150, n_items=15, slots_per_request=5, seed=3))
    path = tmp_path / "pymk.csv"
    _with_injected_rows(ds, path, seed=7)
    assert _assert_loads_like_rowwise(path).n_duplicates >= 10
    path = tmp_path / "duplicates.csv"
    path.write_text(LOADER_CORPUS["duplicates.csv"], encoding="utf-8")
    assert _assert_loads_like_rowwise(path).n_duplicates == 5
    arm = np.array(["A", "B", "A"])
    data = {name: np.zeros(3, dtype=np.uint64) for name in ("request_id", "user_id", "item_id")}
    assert _count_duplicates(_coded({**data, "arm": arm})) == 1


def test_writer_matches_rowwise_reference_bytes(tmp_path):
    edge = Dataset(
        {
            "request_id": np.array([1, 2**63, 2**64 - 1, 0, 10**19, 99], dtype=np.uint64),
            "user_id": np.array([2**63 + 1, 0, 7, 8, 9, 10], dtype=np.uint64),
            "item_id": np.array([3, 2**64 - 2, 9, 10, 11, 12], dtype=np.uint64),
            "position": np.array([1, 2, 2**63 - 1, -(2**63), -5, -10], dtype=np.int64),
            "outcome": np.array([0, 1, 0, -1, 1, 0], dtype=np.int64),
            "arm": np.array(["control", "a,b", 'q"t', "é", "a\rb", "naïve\n"]),
            "reason": np.array(["", "r,1", '"', "x\x00y", "€", "\r"]),
            "relevance_score": np.array([-0.0, 5e-324, 1e16, 1e-05, math.nan, 0.1]),
            "session_depth": np.array([math.nan, 3.0, 1e16, -2.0, 2.0**63, -(2.0**64)]),
        },
        EDGE_SCHEMA,
    )
    ds, _ = simulate(SimConfig(n_users=40, n_items=6, slots_per_request=4, seed=2))
    tiled = edge.subset(np.arange(_BLOCK_ROWS + 1) % edge.n_rows)
    cases = {
        "edge": edge,
        "simulated": ds,
        "sessions": aggregate_sessions(ds, 2),
        "one_row": edge.subset(np.array([1])),
        "no_rows": edge.subset(np.array([], dtype=np.intp)),
        "one_column": Dataset({"reason": edge.column("reason")}, EDGE_SCHEMA),
        "object_text": Dataset({"arm": edge.column("arm").astype(object),
                                "reason": np.array([1, None, "a,b", "", b"x", 2.5], dtype=object)},
                               EDGE_SCHEMA),
        "block_minus_1": tiled.subset(np.arange(_BLOCK_ROWS - 1)),
        "block": tiled.subset(np.arange(_BLOCK_ROWS)),
        "block_plus_1": tiled,
    }
    for name, case in cases.items():
        want, got = tmp_path / f"{name}.want.csv", tmp_path / f"{name}.got.csv"
        _rowwise_write(case, want)
        write_dataset(case, str(got))
        assert got.read_bytes() == want.read_bytes(), name


def test_text_with_a_carriage_return_round_trips(tmp_path):
    """A bare "\r" in a text cell is quoted, so the row reads back whole (the
    csv.writer it replaced left it bare: the file read back one row short)."""
    ds = Dataset(edge_columns(
        (i, i, 5, 1, 0, arm, reason)
        for i, (arm, reason) in enumerate(
            [("a\rb", "r"), ("c", "\r"), ("d\r\n", "x\ry,z"), ("e", 'q"\r')], start=1
        )
    ), EDGE_SCHEMA)
    path = tmp_path / "cr.csv"
    write_dataset(ds, str(path))
    assert path.read_bytes().count(b"\n") == ds.n_rows + 1 + 1  # one \n inside a cell
    got = _assert_loads_like_rowwise(path)
    assert got == ds and got.n_dropped == 0


def _decimal_cells():
    """Cells at the edges of the numpy decimal parse: mantissas at 2**53 - 1,
    2**53 and 2**53 + 1, 15 to 19 significant digits, 22 and 23 fraction
    digits, and forms that float() reads but the digit scan leaves to it."""
    rng = np.random.default_rng(5)
    cells = []
    for m in (2**53 - 1, 2**53, 2**53 + 1):
        digits = str(m)
        cells += [digits[:k] + "." + digits[k:] for k in range(len(digits) + 1)]
        cells += [digits, "0." + digits, "0." + "0" * (22 - len(digits)) + digits,
                  "0." + "0" * (23 - len(digits)) + digits]
    for n in range(15, 20):
        for _ in range(20):
            digits = "".join(rng.choice(list("0123456789"), n))
            k = int(rng.integers(0, n + 1))
            cells += [digits[:k] + "." + digits[k:], "0." + digits]
    cells += ["0." + "0" * 21 + "1", "0." + "0" * 22 + "1", "1." + "0" * 22, "1." + "0" * 23,
              "." + "0" * 21 + "1", "." + "0" * 22 + "1", "." + "9" * 22, "." + "9" * 23,
              "0" * 22 + ".5", "0" * 23 + ".5", "0007", "00.50", "1.", ".5", "-0.5", "+0.5",
              "1e-05", " 0.5", "0.5 ", "1_0.5", "0.0", "1.0", "0", "1", ".", "..5", "1.2.3",
              "1,5", "0x1p-1", "nan", "٠.٥", "9" * 25, "0." + "9" * 22, "1" * 16 + "." + "1"]
    return cells


def test_decimal_cells_parse_exactly_as_float(tmp_path):
    """Each present float cell is parsed to the bit as float() parses it,
    or fails where float() raises or gives a value that is not finite; the
    digit scan takes exactly the cells of at most 24 bytes with one "." at
    most, 22 fraction digits at most and a mantissa below 2**53."""
    cells = _decimal_cells()
    column = _encode(cells)
    values, failed = _number_column("float", "score", column, column.start == column.end)
    for cell, value, bad in zip(cells, values.tolist(), failed.tolist()):
        try:
            want = float(cell)
        except ValueError:
            want = math.nan
        assert bad == (not math.isfinite(want)), cell
        if not bad:
            assert np.float64(value).tobytes() == np.float64(want).tobytes(), cell
    plain = _plain_digits(column, 2**53 - 1, point=True)[1]
    for cell, taken in zip(cells, plain.tolist()):
        int_part, point, fraction = cell.partition(".")
        digits = int_part + fraction
        want = (0 < len(cell) <= 24 and digits.isdigit() and digits.isascii()
                and len(fraction) <= 22 and int(digits) < 2**53)
        assert taken == want, cell


@pytest.mark.parametrize("quoted", [False, True])
def test_decimal_cells_load_like_rowwise_on_both_front_ends(tmp_path, quoted):
    """The decimal corpus as relevance scores, scaled into [0, 1] where a
    cell's value lies above 1, through the byte front end and csv.reader."""
    cells = []
    for cell in _decimal_cells():
        digits = cell.replace(".", "", 1)
        plain = digits.isascii() and digits.isdigit()
        cells.append("0." + digits if plain and float(cell) > 1 else cell)
    header = EDGE_HEADER.replace("request_id", '"request_id"' if quoted else "request_id", 1)
    path = tmp_path / "decimals.csv"
    path.write_text(header + "".join(
        f"{i},{i},5,1,0,control,r1,{cell},\n" for i, cell in enumerate(cells, start=1)
        if "," not in cell
    ), encoding="utf-8")
    assert (_split_plain(path.read_bytes()) is None) == quoted
    got = _assert_loads_like_rowwise(path)
    assert got.n_rows > len(cells) // 2


# -- column sidecar -------------------------------------------------------------


_PARSE = datamodel._parse


@pytest.fixture
def parses(monkeypatch):
    """The paths load_dataset parsed, in order; a sidecar hit parses none."""
    seen = []

    def counting(path, *args):
        seen.append(path)
        return _PARSE(path, *args)

    monkeypatch.setattr(datamodel, "_parse", counting)
    return seen


def _sidecar(path):
    return path.parent / f".{path.name}.posiv"


def _assert_same_load(got, want):
    """Codes, levels and dtypes to the byte, counters and provenance: what
    Dataset.__eq__ leaves out."""
    assert got.column_names == want.column_names and got.schema == want.schema
    for name in want.column_names:
        for a, b in zip(got.coded(name), want.coded(name)):
            assert (a is None) == (b is None), name
            if b is not None:
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
    assert (got.n_dropped, got.n_duplicates, got.provenance) == (
        want.n_dropped, want.n_duplicates, want.provenance
    )


def _fresh_parse(path, schema_map=None):
    """The file's load parsed, with no sidecar read or written."""
    return _PARSE(str(path), schema_map or {}, None)


def _sidecar_case(tmp_path, name):
    """A data file of each kind the sidecar must round-trip, and its
    schema_map. The sidecar write_dataset leaves is deleted, so the first
    load parses and writes its own."""
    ds, _ = simulate(SimConfig(n_users=150, n_items=15, slots_per_request=5,
                               marketplace_mode="ads", n_reasons=4, seed=3))
    path = tmp_path / name
    if name == "plain.csv":
        write_dataset(ds, str(path))
    elif name == "crlf_quoted.csv":
        write_dataset(ds, str(path))
        text = path.read_text(encoding="utf-8")
        path.write_bytes(('"' + text.replace(",", '",', 1)).replace("\n", "\r\n").encode())
        assert _split_plain(path.read_bytes()) is None
    elif name == "lines.jsonl":
        path.write_text(
            '{"request_id": 1, "user_id": 1, "item_id": "a", "position": 1, "outcome": 0,'
            ' "arm": "contr\\u00f4le", "reason": "r\\ud800", "relevance_score": null}\n'
            '{"request_id": 2, "user_id": 2, "item_id": 4, "position": 2, "outcome": 1,'
            ' "arm": "treatment", "reason": "\\u20ac", "relevance_score": 0.25}\n'
            '{"request_id": 2, "user_id": 2, "item_id": 4, "position": 2, "outcome": 1,'
            ' "arm": "treatment", "reason": "\\u20ac", "relevance_score": 0.25}\n',
            encoding="utf-8",
        )
    elif name == "dirty.csv":
        _with_injected_rows(ds, path, seed=7)
    elif name == "sessions.csv":
        write_dataset(aggregate_sessions(ds, 2), str(path))
    else:  # renamed columns and no user_id
        path.write_text(TABLE1_CSV, encoding="utf-8")
        return path, TABLE1_MAP
    _sidecar(path).unlink(missing_ok=True)
    return path, None


SIDECAR_CASES = ["plain.csv", "crlf_quoted.csv", "lines.jsonl", "dirty.csv", "sessions.csv",
                 "table1.csv"]


@pytest.mark.parametrize("name", SIDECAR_CASES)
def test_a_sidecar_hit_equals_a_fresh_parse(tmp_path, parses, name):
    path, schema_map = _sidecar_case(tmp_path, name)
    want = _fresh_parse(path, schema_map)
    parses.clear()
    miss = load_dataset(str(path), schema_map)
    assert _sidecar(path).is_file() and parses == [str(path)]
    hit = load_dataset(str(path), schema_map)
    assert parses == [str(path)]
    _assert_same_load(miss, want)
    _assert_same_load(hit, want)
    if name == "dirty.csv":
        assert hit.n_dropped > 0 and hit.n_duplicates > 0
    if name == "lines.jsonl":
        assert hit.n_duplicates == 1 and "r\ud800" in hit.column("reason").tolist()
    # the provenance names the path given, not the one the sidecar was written for
    assert load_dataset(path, schema_map).provenance == f"load:{path} " + (
        f"dropped={want.n_dropped} duplicates={want.n_duplicates}")


def test_other_bytes_of_the_same_size_and_mtime_miss(tmp_path, parses):
    path, _ = _sidecar_case(tmp_path, "plain.csv")
    first = load_dataset(str(path))
    stat = path.stat()
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    assert lines[1].split(",")[4] == "0"  # outcome of the first row
    cells = lines[1].split(",")
    cells[4] = "1"
    path.write_text(lines[0] + ",".join(cells) + "".join(lines[2:]), encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    second = load_dataset(str(path))
    assert len(parses) == 2 and second.column("outcome")[0] == 1 != first.column("outcome")[0]
    _assert_same_load(second, _fresh_parse(path))
    _assert_same_load(load_dataset(str(path)), second)  # the rewritten sidecar
    assert len(parses) == 2


def test_another_schema_map_misses_and_rewrites_the_sidecar(tmp_path, parses):
    path = tmp_path / "two_outcomes.csv"
    path.write_text("request_id,user_id,item_id,position,outcome,clicked,arm\n"
                    "1,1,10,1,0,1,control\n2,2,10,1,1,1,treatment\n", encoding="utf-8")
    clicked = {"outcome": "clicked"}
    for schema_map, outcomes, n_parses in [(None, [0, 1], 1), (None, [0, 1], 1),
                                           (clicked, [1, 1], 2), (clicked, [1, 1], 2),
                                           (None, [0, 1], 3)]:
        ds = load_dataset(str(path), schema_map)
        assert ds.column("outcome").tolist() == outcomes and len(parses) == n_parses


def _sidecar_parts(blob):
    magic = datamodel._SIDECAR_MAGIC
    at = len(magic) + 8
    size = int.from_bytes(blob[len(magic):at], "little")
    return json.loads(blob[at:at + size]), blob[at + size:]


def _sidecar_blob(header, payload):
    text = json.dumps(header).encode("utf-8")
    return datamodel._SIDECAR_MAGIC + len(text).to_bytes(8, "little") + text + payload


def _offset(header, name):
    """Payload offset of a column, or of its levels given name + " levels"."""
    kinds = {n: k for n, k, _ in (SESSION_SCHEMA if header["session"] else EDGE_SCHEMA)}
    arrays = [(n, datamodel._column_dtype(n, kinds[n], header["levels"].get(n, [0])[0]),
               header["rows"]) for n in header["columns"]]
    arrays += [(n + " levels", np.dtype((np.str_, width)), count)
               for n, (count, width) in header["levels"].items()]
    at = 0
    for n, dtype, count in sorted(arrays, key=lambda a: -a[1].alignment):
        if n == name:
            return at
        at += dtype.itemsize * count
    raise KeyError(name)


def _patched(blob, name, at, data):
    header, payload = _sidecar_parts(blob)
    at += _offset(header, name)
    return _sidecar_blob(header, payload[:at] + data + payload[at + len(data):])


def _with_header(blob, **fields):
    header, payload = _sidecar_parts(blob)
    return _sidecar_blob({**header, **fields}, payload)


BAD_SIDECARS = {
    "empty": lambda blob, other: b"",
    "magic only": lambda blob, other: datamodel._SIDECAR_MAGIC,
    "truncated by a byte": lambda blob, other: blob[:-1],
    "truncated by half": lambda blob, other: blob[:len(blob) // 2],
    "a byte too long": lambda blob, other: blob + b"\0",
    "a row too few": lambda blob, other: _with_header(blob, rows=_sidecar_parts(blob)[0]["rows"] - 1),
    "garbage": lambda blob, other: np.random.default_rng(5).bytes(len(blob)),
    "another file's": lambda blob, other: other,
    "huge header length": lambda blob, other: (
        datamodel._SIDECAR_MAGIC + (2**62).to_bytes(8, "little") + blob[len(datamodel._SIDECAR_MAGIC) + 8:]),
    "header not JSON": lambda blob, other: blob.replace(b'{"key"', b'{"key\xff', 1),
    "header a list": lambda blob, other: _sidecar_blob([1], _sidecar_parts(blob)[1]),
    "a row too many": lambda blob, other: _with_header(blob, rows=_sidecar_parts(blob)[0]["rows"] + 1),
    "rows as text": lambda blob, other: _with_header(blob, rows=str(_sidecar_parts(blob)[0]["rows"])),
    "negative drops": lambda blob, other: _with_header(blob, dropped=-1),
    "a session file": lambda blob, other: _with_header(blob, session=True),
    "columns out of order": lambda blob, other: _with_header(
        blob, columns=_sidecar_parts(blob)[0]["columns"][::-1]),
    "an unknown column": lambda blob, other: _with_header(
        blob, columns=_sidecar_parts(blob)[0]["columns"] + ["n_top_spot"]),
    "no levels": lambda blob, other: _with_header(blob, levels={}),
    "levels of a number column": lambda blob, other: _with_header(
        blob, levels={**_sidecar_parts(blob)[0]["levels"], "position": [1, 1]}),
    "a huge level width": lambda blob, other: _with_header(
        blob, levels={**_sidecar_parts(blob)[0]["levels"], "arm": [2, 2**40]}),
    "a code past the levels": lambda blob, other: _patched(blob, "arm", 0, b"\x07"),
    "levels out of order": lambda blob, other: _patched(
        blob, "arm levels", 0, "treatment".encode("utf-32-le") + "control\0\0".encode("utf-32-le")),
    "a level past U+10FFFF": lambda blob, other: _patched(  # in order, as its first character
        blob, "arm levels", 4 * 9, (0x110000).to_bytes(4, "little")),
}


@pytest.mark.parametrize("bad", sorted(BAD_SIDECARS))
def test_a_bad_sidecar_is_ignored_and_rewritten(tmp_path, parses, bad):
    path, _ = _sidecar_case(tmp_path, "plain.csv")
    other = tmp_path / "other.csv"
    other.write_text(TABLE1_CSV, encoding="utf-8")
    load_dataset(str(other), TABLE1_MAP)
    want = load_dataset(str(path))
    good = _sidecar(path).read_bytes()
    assert _sidecar_parts(good)[0]["levels"]["arm"] == [2, 9]  # control, treatment
    _sidecar(path).write_bytes(BAD_SIDECARS[bad](good, _sidecar(other).read_bytes()))
    parses.clear()
    _assert_same_load(load_dataset(str(path)), want)
    assert parses == [str(path)]
    assert _sidecar(path).read_bytes() == good


def test_a_changed_loader_source_misses(tmp_path, parses, monkeypatch):
    path, _ = _sidecar_case(tmp_path, "plain.csv")
    want = load_dataset(str(path))
    monkeypatch.setattr(datamodel, "_loader_digest", lambda: b"an edited loader")
    _assert_same_load(load_dataset(str(path)), want)
    _assert_same_load(load_dataset(str(path)), want)
    assert len(parses) == 2
    monkeypatch.setattr(datamodel, "_loader_digest", lambda: None)  # source unreadable
    _sidecar(path).unlink()
    _assert_same_load(load_dataset(str(path)), want)
    assert len(parses) == 3 and not _sidecar(path).exists()


@pytest.mark.parametrize("error, text", [
    (EmptyDataset, "request_id,user_id,item_id,position,outcome,arm\n1,1,10,0,0,control\n"),
    (MissingColumn, "request_id,user_id,item_id,position\n1,1,1,1\n"),
    (MixedArmsWithinUser, "request_id,user_id,item_id,position,outcome,arm\n"
                          "1,7,10,1,0,control\n2,7,11,1,0,treatment\n"),
])
def test_a_failed_load_leaves_no_sidecar(tmp_path, parses, error, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    messages = []
    for _ in range(2):
        with pytest.raises(error) as exc:
            load_dataset(str(path))
        messages.append(str(exc.value))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]
    assert len(parses) == 2 and messages[0] == messages[1]


def test_a_failed_sidecar_write_leaves_no_file(tmp_path, parses, monkeypatch):
    path, _ = _sidecar_case(tmp_path, "plain.csv")

    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing)
    want = _fresh_parse(path)
    for _ in range(2):
        _assert_same_load(load_dataset(str(path)), want)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.csv"]
    assert len(parses) == 2


def test_a_sidecar_hit_peak_memory_is_about_the_columns(tmp_path, parses):
    """tracemalloc peak of a hit on a 20k-row ads file with text ids,
    against the bytes of the coded columns and levels it returns: the
    payload is read once and the columns are views of it."""
    ds, _ = simulate(SimConfig(n_users=2000, n_items=100, slots_per_request=10,
                               n_reasons=22, marketplace_mode="ads", seed=1))
    path = tmp_path / "ads.csv"
    want = _with_text_ids(ds, path)
    load_dataset(str(path))
    tracemalloc.start()
    try:
        got = load_dataset(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and got.n_rows == 20_000 and len(parses) == 1
    coded = sum(a.nbytes for n in got.column_names for a in got.coded(n) if a is not None)
    assert peak <= 1.5 * coded, (peak, coded)


def _parsed_sidecar(path):
    """The sidecar that a load of path which parses it writes; raises as
    that load does."""
    digest = datamodel._sidecar_digest({})
    ds = _PARSE(str(path), {}, digest)
    datamodel._write_sidecar(str(path), digest.hexdigest(), ds)
    return _sidecar(path).read_bytes()


def _written_sidecar(ds, path):
    """Write ds to path; the sidecar write_dataset left, which is then
    deleted, or None."""
    write_dataset(ds, str(path))
    if not _sidecar(path).exists():
        return None
    blob = _sidecar(path).read_bytes()
    _sidecar(path).unlink()
    return blob


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", ["pymk", "ads"])
def test_the_writers_sidecar_is_the_one_a_parse_writes(tmp_path, parses, mode, seed):
    """write_dataset leaves the sidecar of the bytes it wrote, byte for byte
    the one that a load which parses them writes, for simulate's files and
    for prepare's samples, sessions and item slices of them; a load then
    parses nothing."""
    ds, _ = simulate(SimConfig(n_users=300, n_items=20, slots_per_request=5, n_reasons=6,
                               marketplace_mode=mode, seed=seed))
    for name, written in [("simulated", ds), ("sampled", sample_one_per_request(ds, seed)),
                          ("sessions", aggregate_sessions(ds, 2)),
                          ("item", slice_by_item(ds, top_items(ds, 1), seed))]:
        path = tmp_path / f"{name}.csv"
        write_dataset(written, str(path))
        _assert_same_load(load_dataset(str(path)), _fresh_parse(path))
        assert parses == [], name
        blob = _sidecar(path).read_bytes()
        _sidecar(path).unlink()
        assert blob == _parsed_sidecar(path), name


_NAN_PAYLOAD = np.array([0x7FF8000000000123, 0xFFF8000000000000], dtype=np.uint64).view(float)


def _odd(schema=EDGE_SCHEMA, levels=None, **change):
    """A small Dataset with the given columns changed; a column given as
    None is left out."""
    data = {
        "request_id": np.array([1, 2, 3, 4], dtype=np.uint64),
        "user_id": np.array([1, 2, 3, 4], dtype=np.uint64),
        "item_id": np.array([5, 6, 5, 6], dtype=np.uint64),
        "position": np.array([1, 2, 1, 3], dtype=np.int64),
        "outcome": np.array([0, 1, 1, 0], dtype=np.int64),
        "arm": np.array(["control", "treatment", "control", "treatment"]),
        "reason": np.array(["a", "b", "a", "c"]),
        "relevance_score": np.array([0.5, 0.25, 0.75, 1.0]),
        "session_depth": np.array([3.0, 4.0, 2.0, 3.0]),
    }
    data.update(change)
    return Dataset({k: v for k, v in data.items() if v is not None}, schema, levels=levels)


# name: (the Dataset, whether write_dataset leaves a sidecar)
ODD_DATASETS = {
    "unused and empty levels": (lambda: _odd(
        arm=np.array([1, 2, 0, 2], np.uint8), reason=np.array([0, 1, 0, 1], np.uint8),
        levels={"arm": np.array(["", "control", "treatment", "unused"]),
                "reason": np.array(["", "r", "unused"])}), True),
    "levels wider than the ones in use": (lambda: _odd(
        reason=np.array([2, 0, 2, 0], np.uint16),
        levels={"reason": np.array(["a", "a much wider level", "b"])}), True),
    "levels wider than their text": (lambda: _odd(
        reason=np.array([0, 1, 0, 1], np.uint8),
        levels={"reason": np.array(["a", "b"], dtype="<U4")}), True),
    "levels out of order and repeated": (lambda: _odd(
        reason=np.array([0, 1, 2, 3], np.int64),
        levels={"reason": np.array(["b", "a", "b", "\u20ac,\"q\"\r\n"])}), True),
    "-0.0 and NaN payloads": (lambda: _odd(
        relevance_score=np.array([-0.0, _NAN_PAYLOAD[0], _NAN_PAYLOAD[1], 0.0])), True),
    "NaN session_depth": (lambda: _odd(session_depth=np.array([np.nan, 4.0, np.nan, 3.0])), True),
    "int session_depth": (lambda: _odd(session_depth=np.array([3, 4, 2, 3], np.int32)), True),
    "a non-integral session_depth": (lambda: _odd(session_depth=np.array([2.5, 4, 2, 3])), False),
    "a session_depth past int64": (lambda: _odd(session_depth=np.array([3, 4, 2, 2.0**63])),
                                   False),
    "a session_depth below the position": (lambda: _odd(
        session_depth=np.array([3.0, 1.0, 2.0, 3.0])), True),
    "out-of-range scores and positions": (lambda: _odd(
        relevance_score=np.array([1.5, -0.1, 0.5, np.inf]),
        position=np.array([0, -3, 1, 2])), True),
    "duplicate rows": (lambda: _odd(request_id=np.array([1, 1, 1, 2], np.uint64),
                                    user_id=np.array([1, 1, 1, 2], np.uint64),
                                    item_id=np.array([5, 5, 5, 6], np.uint64),
                                    position=np.array([1, 1, 1, 3]),
                                    outcome=np.array([0, 0, 0, 1]),
                                    arm=np.array(["control"] * 3 + ["treatment"]),
                                    reason=np.array(["a", "a", "a", "c"]),
                                    relevance_score=np.array([0.5, 0.5, 0.5, 0.1]),
                                    session_depth=np.array([3.0, 3.0, 3.0, 4.0])), True),
    "ids at and above 2**63": (lambda: _odd(
        request_id=np.array([2**63, 2**64 - 1, 2**63 - 1, 7], np.uint64),
        item_id=np.array([2**63, 5, 5, 2**64 - 1], np.uint64)), True),
    "negative ids": (lambda: _odd(request_id=np.array([-5, 2, 3, 4])), False),
    "ids as whole floats": (lambda: _odd(item_id=np.array([5.0, 6.0, 2.0**62, 6.0])), True),
    "an empty float id": (lambda: _odd(user_id=np.array([1.0, np.nan, 3.0, 4.0])), True),
    "an outcome past int64": (lambda: _odd(outcome=np.array([0, 2**64 - 1, 1, 0], np.uint64)),
                              False),
    "no user_id": (lambda: _odd(user_id=None), True),
    "no optional column": (lambda: _odd(user_id=None, arm=None, reason=None,
                                        relevance_score=None, session_depth=None), True),
    "no required column": (lambda: _odd(outcome=None), False),
    "mixed arms within a user": (lambda: _odd(user_id=np.array([1, 1, 2, 2], np.uint64)), False),
    "every row dropped": (lambda: _odd(position=np.array([0, 0, 0, 0])), False),
    "a used level past the CSV field limit": (lambda: _odd(
        reason=np.array(["a", "x" * (csv.field_size_limit() + 1), "a", "c"])), False),
    "sessions": (lambda: aggregate_sessions(_odd(), 2), True),
    "sessions with an invite past the counts": (lambda: Dataset({
        "request_id": np.array([1, 2], np.uint64), "user_id": np.array([1, 2], np.uint64),
        "n_top_spot": np.array([1, 0]), "n_bottom_spot": np.array([0, 2]),
        "invite_total": np.array([2, 1])}, SESSION_SCHEMA), True),
    "a session schema without n_top_spot": (lambda: Dataset({
        "request_id": np.array([1, 2], np.uint64), "user_id": np.array([1, 2], np.uint64),
        "n_bottom_spot": np.array([0, 2]), "invite_total": np.array([0, 1])},
        SESSION_SCHEMA), False),
}


@pytest.mark.parametrize("case", sorted(ODD_DATASETS))
def test_the_writer_leaves_no_sidecar_or_the_one_a_parse_writes(tmp_path, case):
    make, leaves = ODD_DATASETS[case]
    path = tmp_path / "odd.csv"
    got = _written_sidecar(make(), path)
    assert (got is not None) == leaves
    try:
        want = _parsed_sidecar(path)
    except InputError:  # a load of the file fails
        assert got is None
        return
    assert got is None or got == want


def test_a_json_lines_name_gets_no_sidecar(tmp_path):
    """write_dataset writes CSV whatever the name; a load reads a .jsonl
    name as JSON lines, so no sidecar would be the load's."""
    path = tmp_path / "odd.jsonl"
    assert _written_sidecar(_odd(), path) is None
    with pytest.raises(InputError):
        load_dataset(str(path))


def test_a_failed_write_leaves_no_sidecar_and_no_temporary_file(tmp_path, monkeypatch):
    lone = _odd(reason=np.array(["a", "r\ud800", "a", "c"]))
    with pytest.raises(InputError, match="reason level 'r\\\\ud800' is not valid UTF-8"):
        write_dataset(lone, str(tmp_path / "lone.csv"))
    assert list(tmp_path.iterdir()) == []
    # an int column held as floats, as session_depth with NaN for absent, has
    # no integer cell for an infinite value
    for depth in (math.inf, -math.inf):
        infinite = _odd(session_depth=np.array([depth, 2.0, 3.0, math.nan]))
        with pytest.raises(InputError, match=f"session_depth value {depth} is not an integer"):
            write_dataset(infinite, str(tmp_path / "inf.csv"))
        assert list(tmp_path.iterdir()) == []
    # a subset drops the level its rows no longer show, so the write cannot fail
    unused = lone.subset(np.array([0, 2, 3]))
    write_dataset(unused, str(tmp_path / "unused.csv"))
    assert load_dataset(str(tmp_path / "unused.csv")) == unused
    (tmp_path / "unused.csv").unlink()
    (tmp_path / ".unused.csv.posiv").unlink()
    with pytest.raises(IoFailure):
        write_dataset(_odd(), str(tmp_path))  # a directory
    assert list(tmp_path.iterdir()) == []

    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing)
    write_dataset(_odd(), str(tmp_path / "full.csv"))
    assert [p.name for p in tmp_path.iterdir()] == ["full.csv"]


@pytest.mark.parametrize("name", ["plain.csv", "crlf_quoted.csv", "lines.jsonl"])
def test_a_byte_order_mark_is_skipped(tmp_path, name):
    """A file saved as "CSV UTF-8" starts with the UTF-8 byte-order mark;
    one leading mark is no part of the first header name."""
    path, _ = _sidecar_case(tmp_path, name)
    marked = tmp_path / ("marked" + path.suffix)
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    got, want = load_dataset(str(marked)), load_dataset(str(path))
    assert got == want and got.n_rows == want.n_rows > 0
    assert (_split_plain(path.read_bytes()) is None) == (name != "plain.csv")
    twice = tmp_path / "twice.csv"  # a second mark is a character of the header
    twice.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())
    if name != "lines.jsonl":
        with pytest.raises(MissingColumn):
            load_dataset(str(twice))


def test_split_plain_in_blocks_matches_one_scan(tmp_path, monkeypatch):
    ds, _ = simulate(SimConfig(n_users=150, n_items=15, slots_per_request=5, seed=3))
    path = tmp_path / "pymk.csv"
    write_dataset(ds, str(path))
    data = path.read_bytes()
    want = _split_plain(data)
    for block in (1, 7, 64, len(data) - 1, len(data)):
        monkeypatch.setattr(datamodel, "_SCAN_BYTES", block)
        header, table = _split_plain(data)
        assert header == want[0]
        for name, cells in table.items():
            assert np.array_equal(cells.start, want[1][name].start), (block, name)
            assert np.array_equal(cells.end, want[1][name].end), (block, name)
            assert cells.start.dtype == np.int32
