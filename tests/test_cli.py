import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import posiv
from posiv.cli import build_parser, main
from posiv.datamodel import Dataset, load_dataset, write_dataset
from posiv.prepare import top_items
from posiv.rng import fnv1a64
from posiv.simulator import SimConfig, simulate
from posiv.tables import STAR_NOTE, format_value

ADS_CONFIG = dict(
    n_users=400, n_items=12, requests_per_user=2, slots_per_request=5,
    effect_slope_mean=-0.01, effect_slope_sd=0.004, confound_strength=0.1,
    instrument_strength=0.6, instrument_share_negative=0.5,
    base_rate=0.25, marketplace_mode="ads", n_reasons=5, seed=11,
)

PYMK_CONFIG = dict(
    n_users=600, n_items=30, requests_per_user=1, slots_per_request=6,
    effect_slope_mean=-0.04, effect_slope_sd=0.0, confound_strength=0.5,
    instrument_strength=0.8, instrument_share_negative=0.5,
    base_rate=0.55, marketplace_mode="pymk", n_reasons=8, seed=12,
)

# flags that keep each data command small on the ads_outdir file
QUICK_FLAGS = {"estimate": ["--spec", "spec1", "--item", "1"],
               "diagnose": ["--top-n", "3"], "report": ["--top-n", "3"]}


@pytest.fixture
def ads_outdir(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ADS_CONFIG), encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_simulate_writes_dataset_and_truth(ads_outdir):
    assert (ads_outdir / "dataset.csv").exists()
    truth = json.loads((ads_outdir / "truth.json").read_text(encoding="utf-8"))
    assert truth["marketplace_mode"] == "ads"
    assert truth["clip_rate"] < 0.01
    assert len(truth["slopes"]) == ADS_CONFIG["n_items"]


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ADS_CONFIG), encoding="utf-8")
    # the same fields under "sim", beside a schema_map, make the same files
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"sim": ADS_CONFIG, "schema_map": {"arm": "group"}}),
                      encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(nested), "--out", str(out2)]) == 0
    assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()
    assert (out1 / "truth.json").read_bytes() == (out2 / "truth.json").read_bytes()


def test_simulate_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**ADS_CONFIG, "n_slots": 3}), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("config, message", [
    ({"sim": {"n_users": 10}, "n_items": 3}, """config keys beside "sim": ['n_items']"""),
    ({"sim": "abc"}, """config "sim" must be an object, got 'abc'"""),
    ([ADS_CONFIG], "config JSON must be an object"),
], ids=["key-beside-sim", "sim-not-an-object", "config-an-array"])
def test_simulate_bad_sim_object_exits_2(tmp_path, capsys, config, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_simulate_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {str(tmp_path)!r}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
def test_simulate_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    """A seed is taken modulo 2**64 by the random streams, so --seed 2**70
    would write seed 0's data under a truth.json that says 2**70."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ADS_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    assert f"must be {'>= 0' if seed == '-1' else f'< {2**64}'}, got {seed}" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text(json.dumps({**ADS_CONFIG, "seed": int(seed)}), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("schema_map, message", [
    ([1], "schema_map must map field names to column names, got [1]"),
    ("arm", "schema_map must map field names to column names, got 'arm'"),
    ({"arm": 5}, "schema_map must map field names to column names, got {'arm': 5}"),
    ({"reqest_id": "request_id"}, "schema_map names unknown fields: ['reqest_id']"),
], ids=["list", "string", "number-value", "misspelt-field"])
def test_bad_schema_map_exits_2(ads_outdir, tmp_path, capsys, schema_map, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_map": schema_map}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["estimate", str(ads_outdir / "dataset.csv"), "--spec", "spec1",
                 "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "prepare", "diagnose", "report"])
def test_a_data_command_checks_config_keys_as_simulate_does(ads_outdir, tmp_path, capsys,
                                                             command):
    """A misspelt key exits 2 with simulate's message; a config that
    simulate takes, its fields under "sim" beside a schema_map, loads."""
    data, cfg = str(ads_outdir / "dataset.csv"), tmp_path / "cfg.json"
    flags = QUICK_FLAGS.get(command, [])
    for config, message in [
        ({"schema_mapp": {"arm": "arm"}}, "unknown simulator config keys: ['schema_mapp']"),
        ({"n_userz": 5}, "unknown simulator config keys: ['n_userz']"),
        ({"sim": ADS_CONFIG, "n_items": 3}, """config keys beside "sim": ['n_items']"""),
    ]:
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "bad"
        assert main([command, data, *flags, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    cfg.write_text(json.dumps({"sim": ADS_CONFIG, "schema_map": {"arm": "arm"}}),
                   encoding="utf-8")
    assert main([command, data, *flags, "--config", str(cfg),
                 "--out", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("given, seen", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", None, None]),
    ({"MKL_NUM_THREADS": "3"}, [None, None, "3"]),
], ids=["unset", "openblas-given", "mkl-given"])
def test_the_cli_pins_one_blas_thread_unless_one_is_given(given, seen):
    """BLAS sums in an order set by its thread count, so a process that
    imports posiv.cli runs one thread, unless any of the three is set."""
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    src = str(Path(posiv.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in names}
    env.update(given, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", (
        f"import os, posiv.cli; print([os.environ.get(n) for n in {names!r}])"
    )], env=env, check=True, capture_output=True, text=True).stdout
    assert out == f"{seen!r}\n"


def test_simulate_non_numeric_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**ADS_CONFIG, "effect_slope_sd": "x"}), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: effect_slope_sd must be a finite number, got 'x'\n"


def test_unwritable_output_exits_2(ads_outdir, tmp_path, capsys):
    data = str(ads_outdir / "dataset.csv")
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    (tmp_path / "est" / "table.txt").mkdir(parents=True)
    for argv in (
        ["simulate", "--out", str(a_file)],  # the output directory is a file
        ["diagnose", data, "--out", str(a_file / "x")],  # its parent is a file
        ["estimate", data, "--spec", "spec1", "--out", str(tmp_path / "est")],  # table.txt is a directory
    ):
        assert main(argv) == 2
        # spec1 on this file also warns of a weak first stage
        lines = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("error: [Errno ")


def test_missing_data_file_exits_2(tmp_path, capsys):
    code = main(["estimate", str(tmp_path / "none.csv"), "--spec", "spec1",
                 "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("command", ["prepare", "diagnose"])
def test_cell_over_the_csv_field_limit_exits_2(tmp_path, capsys, command):
    data = tmp_path / "long.csv"
    data.write_text(
        "request_id,user_id,item_id,position,outcome,arm\n"
        f"1,1,5,1,0,{'x' * 200_000}\n2,2,5,1,0,control\n",
        encoding="utf-8",
    )
    assert main([command, str(data), "--out", str(tmp_path / "out")]) == 2
    assert "field larger than field limit (131072)" in capsys.readouterr().err


def test_a_level_that_utf8_cannot_encode_exits_2_and_writes_nothing(tmp_path, capsys):
    """A JSON-lines load keeps a lone surrogate from a "\\ud800" escape as a
    text level; writing it is an input error, not a traceback."""
    data = tmp_path / "lone.jsonl"
    data.write_text(
        '{"request_id": 1, "user_id": 1, "item_id": 4, "position": 1, "outcome": 0,'
        ' "arm": "control", "reason": "r\\ud800"}\n'
        '{"request_id": 2, "user_id": 2, "item_id": 4, "position": 2, "outcome": 1,'
        ' "arm": "treatment", "reason": "s"}\n', encoding="utf-8")
    out = tmp_path / "out"
    assert main(["prepare", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: reason level 'r\\ud800' is not valid UTF-8: it holds a lone surrogate\n")
    assert list(out.iterdir()) == []


def test_a_load_of_a_file_posiv_wrote_parses_nothing(tmp_path, monkeypatch):
    """simulate and prepare leave the column sidecar of each file they
    write, so the commands that load those files never parse."""
    from posiv import datamodel

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PYMK_CONFIG), encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    def parse(*args):
        raise AssertionError("parsed")

    monkeypatch.setattr(datamodel, "_parse", parse)
    data = str(out / "dataset.csv")
    assert main(["prepare", data, "--out", str(tmp_path / "sampled"), "--sample-seed", "3"]) == 0
    assert main(["prepare", data, "--out", str(tmp_path / "sessions"),
                 "--session-top-cut", "4"]) == 0
    assert main(["estimate", str(tmp_path / "sampled" / "prepared.csv"), "--spec", "spec3",
                 "--no-sample", "--out", str(tmp_path / "spec3")]) == 0
    assert main(["estimate", data, "--spec", "spec5", "--out", str(tmp_path / "spec5")]) == 0
    assert load_dataset(str(tmp_path / "sessions" / "prepared.csv")).is_session_level()


def test_estimate_table_and_json_agree(ads_outdir, tmp_path, capsys):
    out = tmp_path / "est"
    code = main([
        "estimate", str(ads_outdir / "dataset.csv"), "--spec", "spec2",
        "--item", "1", "--out", str(out),
    ])
    assert code == 0
    table = (out / "table.txt").read_text(encoding="utf-8")
    assert table.rstrip().endswith(STAR_NOTE)
    payload = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    assert payload["method"] == "2SLS"
    lines = table.splitlines()
    for name, coef, se, star in zip(
        payload["names"], payload["coef"], payload["se"], payload["stars"]
    ):
        idx = next(i for i, l in enumerate(lines) if l.startswith(name))
        assert format_value(coef) + star in lines[idx]
        assert f"({format_value(se)})" in lines[idx + 1]
    captured = capsys.readouterr()
    assert "Dependent variable:" in captured.out


def _varied_depth_dataset():
    # raw simulations serve a fixed slot count; splice three runs with
    # different depths so the session columns have full-rank variation
    from posiv.datamodel import Dataset

    parts = []
    for i, slots in enumerate((2, 5, 8)):
        cfg = {**PYMK_CONFIG, "slots_per_request": slots, "seed": 70 + i}
        parts.append(simulate(SimConfig(**cfg))[0])
    data = {}
    for name in parts[0].column_names:
        cols = []
        for i, part in enumerate(parts):
            col = part.column(name)
            if name in ("request_id", "user_id"):
                col = col + np.uint64(10_000_000 * i)
            cols.append(col)
        data[name] = np.concatenate(cols)
    return Dataset(data, parts[0].schema, "spliced")


def test_estimate_ols_spec_on_session_level(tmp_path):
    data = tmp_path / "pymk.csv"
    write_dataset(_varied_depth_dataset(), str(data))
    out = tmp_path / "sess"
    code = main([
        "estimate", str(data), "--spec", "specA2", "--out", str(out),
        "--session-top-cut", "3",
    ])
    assert code == 0
    payload = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    assert payload["method"] == "OLS"
    assert "n_top_spot" in payload["names"]


def test_estimate_accepts_session_level_file(tmp_path):
    from posiv.prepare import aggregate_sessions

    sess = aggregate_sessions(_varied_depth_dataset(), top_cut=3)
    data = tmp_path / "sessions.csv"
    write_dataset(sess, str(data))
    out = tmp_path / "out"
    code = main(["estimate", str(data), "--spec", "specA2", "--out", str(out)])
    assert code == 0
    # a session-level file is not aggregated again, so a top cut would go unused
    assert main(["estimate", str(data), "--spec", "specA2", "--session-top-cut", "3",
                 "--out", str(tmp_path / "cut")]) == 2


def test_estimate_json_format_prints_payload(ads_outdir, tmp_path, capsys):
    out = tmp_path / "estj"
    code = main([
        "estimate", str(ads_outdir / "dataset.csv"), "--spec", "spec1",
        "--item", "1", "--out", str(out), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "2SLS"
    assert payload == json.loads((out / "fit.json").read_text(encoding="utf-8"))


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ADS_CONFIG), encoding="utf-8")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                 "--seed", "99"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    t1 = json.loads((out1 / "truth.json").read_text(encoding="utf-8"))
    t2 = json.loads((out2 / "truth.json").read_text(encoding="utf-8"))
    assert t1["seed"] == 99 and t2["seed"] == ADS_CONFIG["seed"]
    assert (out1 / "dataset.csv").read_bytes() != (out2 / "dataset.csv").read_bytes()


def test_estimate_custom_spec_file(ads_outdir, tmp_path):
    spec = {
        "name": "custom-ils",
        "level": "edge",
        "outcome": "outcome",
        "endogenous": ["position"],
        "instruments": "arm",
        "controls": [],
        "method": "ILS",
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "ils"
    code = main([
        "estimate", str(ads_outdir / "dataset.csv"), "--spec", str(path),
        "--item", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    assert payload["method"] == "ILS"


def test_prepare_sample_and_sessions(tmp_path):
    ds, _ = simulate(SimConfig(**PYMK_CONFIG))
    data = tmp_path / "pymk.csv"
    write_dataset(ds, str(data))

    out = tmp_path / "prep"
    assert main(["prepare", str(data), "--out", str(out), "--sample-seed", "5"]) == 0
    from posiv.datamodel import load_dataset

    prepared = load_dataset(str(out / "prepared.csv"))
    req = prepared.column("request_id")
    assert len(np.unique(req)) == len(req)

    out2 = tmp_path / "sess"
    assert main(["prepare", str(data), "--out", str(out2), "--session-top-cut", "4"]) == 0
    sess = load_dataset(str(out2 / "prepared.csv"))
    assert sess.is_session_level()
    assert sess.n_rows == len(np.unique(ds.column("request_id")))

    out3 = tmp_path / "top"
    assert main(["prepare", str(data), "--out", str(out3), "--top-n", "7"]) == 0
    lines = (out3 / "top_items.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "item_id,n_rows"
    assert len(lines) == 8
    for line in lines[1:]:
        item, n_rows = map(int, line.split(","))
        assert n_rows == int((ds.column("item_id") == np.uint64(item)).sum())


def test_diagnose_forest_and_csv(ads_outdir, tmp_path):
    out = tmp_path / "diag"
    code = main([
        "diagnose", str(ads_outdir / "dataset.csv"), "--top-n", "8", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "first_stage.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "item_id,coef,se,ci_low,ci_high,status,classification"
    assert len(lines) - 1 == 8  # min(top_n, items)
    svg = (out / "first_stage.svg").read_text(encoding="utf-8")
    assert svg.count("<circle") == 8


def test_diagnose_top_n_larger_than_items(ads_outdir, tmp_path):
    out = tmp_path / "diag2"
    code = main([
        "diagnose", str(ads_outdir / "dataset.csv"), "--top-n", "99", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "first_stage.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) - 1 == ADS_CONFIG["n_items"]


def test_diagnose_all_null_when_no_instrument(tmp_path):
    cfg_dict = {**ADS_CONFIG, "instrument_strength": 0.0, "n_users": 300}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_dict), encoding="utf-8")
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
    out = tmp_path / "diag"
    assert main([
        "diagnose", str(sim_out / "dataset.csv"), "--top-n", "6", "--out", str(out),
    ]) == 0
    rows = (out / "first_stage.csv").read_text(encoding="utf-8").splitlines()[1:]
    classes = [r.rsplit(",", 1)[1] for r in rows]
    assert classes.count("null") >= 5


def test_report_bars_and_summary(ads_outdir, tmp_path, capsys):
    out = tmp_path / "rep"
    code = main([
        "report", str(ads_outdir / "dataset.csv"), "--specs", "spec1,spec2,spec3",
        "--top-n", "5", "--k1", "2", "--k2", "1", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "effects.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) - 1 == 15  # 5 items x 3 specs
    svg = (out / "effects.svg").read_text(encoding="utf-8")
    assert svg.count("<rect") == 1 + 15 + 3
    captured = capsys.readouterr()
    assert "spec1: tau(2->1)" in captured.out


def test_report_svg_escapes_a_spec_name_into_well_formed_xml(ads_outdir, tmp_path):
    """A spec named with &, < and > still gives an effects.svg that parses as
    XML, whose legend text reads the name as given."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "iv<pos>&co", "level": "edge", "outcome": "outcome",
                                "endogenous": ["position"], "instruments": "arm"}),
                    encoding="utf-8")
    out = tmp_path / "rep"
    assert main(["report", str(ads_outdir / "dataset.csv"), "--specs", f"spec1,{spec}",
                 "--top-n", "3", "--out", str(out)]) == 0
    root = ET.parse(out / "effects.svg").getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "iv<pos>&co" in texts and "spec1" in texts


@pytest.mark.parametrize("flags", [["--k1", "6"], ["--k2", "6"], ["--k1", "9", "--k2", "7"]])
def test_report_positions_past_the_data_exit_2(ads_outdir, tmp_path, capsys, flags):
    # the file has 5 slots: a tau from or to position 6 extrapolates past every row
    out = tmp_path / "rep"
    assert main(["report", str(ads_outdir / "dataset.csv"), "--specs", "spec1",
                 *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]} {flags[1]} is past the last position")
    assert err.count("\n") == 1 and "(5)" in err
    assert not out.exists()
    assert main(["report", str(ads_outdir / "dataset.csv"), "--specs", "spec1",
                 "--k1", "5", "--k2", "1", "--out", str(out)]) == 0
    assert "spec1: tau(5->1)" in capsys.readouterr().out


def test_every_argument_has_help():
    sub = next(a for a in build_parser()._actions if a.choices and a.dest == "command")
    missing = [f"{command} {action.option_strings or action.dest}"
               for command, parser in sub.choices.items() for action in parser._actions
               if not (action.help or "").strip()]
    assert not missing


def test_report_tau_band_on_pymk_slopes(tmp_path, capsys):
    # slopes drawn inside [-0.063, -0.038]; the one-rank-down summary value
    # must land in the same band
    cfg = dict(
        n_users=20000, n_items=30, requests_per_user=1, slots_per_request=6,
        effect_slope_mean=-0.0505, effect_slope_sd=0.004, confound_strength=0.5,
        instrument_strength=0.8, instrument_share_negative=0.5,
        base_rate=0.62, marketplace_mode="pymk", n_reasons=8, seed=21,
    )
    ds, truth = simulate(SimConfig(**cfg))
    assert truth.slopes.min() > -0.063 and truth.slopes.max() < -0.038
    data = tmp_path / "pymk.csv"
    write_dataset(ds, str(data))
    out = tmp_path / "rep"
    code = main([
        "report", str(data), "--specs", "spec4", "--top-n", "8",
        "--k1", "1", "--k2", "2", "--out", str(out),
    ])
    assert code == 0
    summary = next(
        l for l in capsys.readouterr().out.splitlines() if l.startswith("spec4: tau")
    )
    tau = float(summary.split("=")[1].split("(")[0].strip())
    assert -0.063 <= tau <= -0.038


def test_estimation_error_exits_1(tmp_path, capsys):
    # single-arm data makes the instrument a constant column
    header = "request_id,user_id,item_id,position,outcome,arm,relevance_score\n"
    rows = [
        f"{i},{i},{1 + i % 3},{1 + i % 4},0,control,0.5\n" for i in range(1, 40)
    ]
    data = tmp_path / "flat.csv"
    data.write_text(header + "".join(rows), encoding="utf-8")
    code = main(["estimate", str(data), "--spec", "spec1", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_weak_instrument_warns_on_stderr_exit_0(tmp_path, capsys):
    cfg_dict = {**ADS_CONFIG, "instrument_strength": 0.02, "n_users": 500, "seed": 31}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_dict), encoding="utf-8")
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
    out = tmp_path / "est"
    code = main([
        "estimate", str(sim_out / "dataset.csv"), "--spec", "spec1",
        "--item", "1", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "weak instruments" in captured.err


def test_report_singleton(ads_outdir, tmp_path, capsys):
    out = tmp_path / "rep1"
    code = main([
        "report", str(ads_outdir / "dataset.csv"), "--specs", "spec1",
        "--top-n", "1", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "effects.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) - 1 == 1
    assert "se n/a" in capsys.readouterr().out


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_one_failing_item_leaves_the_others_reported(ads_outdir, tmp_path, capsys):
    ds = load_dataset(str(ads_outdir / "dataset.csv"))
    bad = str(top_items(ds, 1)[0])
    single_arm = (ds.column("item_id") == int(bad)) & (ds.column("arm") == "treatment")
    data = tmp_path / "one_bad.csv"
    write_dataset(ds.subset(~single_arm), str(data))
    n = ADS_CONFIG["n_items"]

    rep = tmp_path / "rep"
    assert main(["report", str(data), "--specs", "spec3,spec1,spec2", "--top-n", str(n),
                 "--out", str(rep)]) == 0
    out = capsys.readouterr().out
    status = {(r["item_id"], r["spec"]): r for r in _csv_rows(rep / "effects.csv")}
    assert len(status) == 3 * n
    for spec in ("spec1", "spec2"):
        row = status[(bad, spec)]
        assert (row["status"], row["coef"]) == ("ConstantColumn", "")
    assert status[(bad, "spec3")]["status"] == "ok"  # OLS needs no instrument
    assert all(r["status"] == "ok" and r["coef"] for (i, _), r in status.items() if i != bad)
    assert "spec1: tau(2->1)" in out and f"{n - 1} items)" in out
    assert f"failed items: 1 of {n}, ConstantColumn=1" in out
    assert (rep / "effects.svg").read_text(encoding="utf-8").count("<rect") == 1 + 3 * (n - 1) + 3

    diag = tmp_path / "diag"
    assert main(["diagnose", str(data), "--top-n", str(n), "--out", str(diag)]) == 0
    rows = {r["item_id"]: r for r in _csv_rows(diag / "first_stage.csv")}
    assert (rows[bad]["status"], rows[bad]["coef"], rows[bad]["classification"]) == (
        "ConstantColumn", "", "")
    assert all(r["status"] == "ok" and r["classification"] for i, r in rows.items() if i != bad)
    assert (diag / "first_stage.svg").read_text(encoding="utf-8").count("<circle") == n - 1
    assert f"failed items: 1 of {n}, ConstantColumn=1" in capsys.readouterr().out


def test_every_item_failing_exits_1_and_input_errors_exit_2(tmp_path, capsys):
    header = "request_id,user_id,item_id,position,outcome,arm\n"
    rows = [f"{i},{i},{1 + i % 3},{1 + i % 4},0,control\n" for i in range(1, 40)]
    data = tmp_path / "flat.csv"
    data.write_text(header + "".join(rows), encoding="utf-8")
    out = tmp_path / "diag"
    assert main(["diagnose", str(data), "--out", str(out)]) == 1
    assert "every item failed" in capsys.readouterr().err
    assert [r["status"] for r in _csv_rows(out / "first_stage.csv")] == ["ConstantColumn"] * 3
    report = tmp_path / "report"
    assert main(["report", str(data), "--specs", "spec1", "--out", str(report)]) == 1
    assert ("every item failed; failed items: 3 of 3, ConstantColumn=3"
            in capsys.readouterr().err)
    assert [r["status"] for r in _csv_rows(report / "effects.csv")] == ["ConstantColumn"] * 3
    assert sorted(p.name for p in report.iterdir()) == ["effects.csv"]  # no SVG
    # spec2 needs relevance_score, which this file lacks: the whole run is an input error
    assert main(["report", str(data), "--specs", "spec1,spec2", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["diagnose", "--top-n", "0"],
    ["prepare", "--top-n", "0"],
    ["report", "--top-n", "0"],
    ["report", "--k1", "0"],
    ["report", "--k2", "-1"],
    ["prepare", "--session-top-cut", "-1"],
    ["estimate", "--spec", "spec1", "--session-top-cut", "-1"],
    ["diagnose", "--top-n", "many"],
    ["diagnose", "--seed", "3"],
    ["estimate", "--spec", "spec1", "--format", "csv"],
    ["prepare", "--item", "1", "--top-n", "3"],
    ["prepare", "--item", "1", "--session-top-cut", "4"],
    ["estimate", "--spec", "specA2", "--item", "999999"],
    ["estimate", "--spec", "specA1", "--no-sample"],
    ["estimate", "--spec", "spec1", "--session-top-cut", "4"],
    ["report", "--specs", "nope"],
    ["report", "--specs", ","],
    ["prepare", "--top-n", "3", "--sample-seed", "1"],
    ["prepare", "--session-top-cut", "4", "--sample-seed", "1"],
    ["estimate", "--spec", "spec1", "--no-sample", "--sample-seed", "1"],
    ["estimate", "--spec", "specA2", "--sample-seed", "1"],
    ["report", "--specs", "spec1,spec1"],
    ["report", "--specs", "spec2, spec1,spec2"],
    ["prepare", "--sample-seed", "-1"],
    ["prepare", "--sample-seed", str(2**64)],
    ["estimate", "--spec", "spec1", "--sample-seed", "-1"],
    ["report", "--sample-seed", str(2**70)],
])
def test_bad_arguments_exit_2_before_any_work(ads_outdir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(ads_outdir / "dataset.csv"), *argv[1:], "--out", str(out)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_sample_seed_chooses_among_repeats_in_item_slices(tmp_path):
    # every item shown in a request appears there twice, at two positions
    # with opposite outcomes, so a per-item slice must pick one row each
    ds, _ = simulate(SimConfig(**ADS_CONFIG))
    twin = {name: ds.column(name) for name in ds.column_names}
    twin["position"] = twin["position"] % ADS_CONFIG["slots_per_request"] + 1
    twin["outcome"] = 1 - twin["outcome"]
    data = tmp_path / "repeated.csv"
    doubled = {name: np.concatenate([ds.column(name), twin[name]]) for name in twin}
    write_dataset(Dataset(doubled, ds.schema), str(data))

    outputs = {}
    for seed in ("0", "3"):
        rep, prep = tmp_path / f"rep{seed}", tmp_path / f"prep{seed}"
        assert main(["report", str(data), "--specs", "spec1", "--top-n", "2",
                     "--sample-seed", seed, "--out", str(rep)]) == 0
        assert main(["prepare", str(data), "--item", "1", "--sample-seed", seed,
                     "--out", str(prep)]) == 0
        # --no-sample leaves the item slice, which still draws with the seed
        assert main(["estimate", str(data), "--spec", "spec1", "--item", "1", "--no-sample",
                     "--sample-seed", seed, "--format", "json", "--out", str(prep)]) == 0
        outputs[seed] = [(rep / "effects.csv").read_bytes(),
                         (prep / "prepared.csv").read_bytes(),
                         (prep / "fit.json").read_bytes()]
    assert outputs["0"][0] != outputs["3"][0]
    assert outputs["0"][1] != outputs["3"][1]
    assert outputs["0"][2] != outputs["3"][2]


def test_item_flag_reads_a_text_id_as_the_loader_does(ads_outdir, tmp_path, capsys):
    """--item campaign-00003 names the rows whose item_id cell reads
    campaign-00003, which the loader hashes with FNV-1a: the same outputs
    as --item with that hash, and the text kept in the "not present"
    message."""
    lines = (ads_outdir / "dataset.csv").read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("item_id")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[column] = f"campaign-{int(row[column]):05d}"
    data = tmp_path / "campaigns.csv"
    data.write_text("".join(",".join(r) + "\n" for r in [lines[0].split(","), *rows]),
                    encoding="utf-8")
    outputs = {}
    for item in ("campaign-00003", str(fnv1a64("campaign-00003"))):
        out = tmp_path / item
        assert main(["prepare", str(data), "--item", item, "--out", str(out)]) == 0
        assert main(["estimate", str(data), "--spec", "spec1", "--item", item,
                     "--out", str(out)]) == 0
        outputs[item] = [(out / name).read_bytes() for name in ("prepared.csv", "fit.json")]
    assert outputs["campaign-00003"] == outputs[str(fnv1a64("campaign-00003"))]
    assert outputs["campaign-00003"][0].count(b"\n") > 1
    capsys.readouterr()
    for command in (["prepare"], ["estimate", "--spec", "spec1"]):
        code = main([command[0], str(data), *command[1:], "--item", "campaign-99999",
                     "--out", str(tmp_path / "none")])
        assert code == 2
        assert "error: item campaign-99999 not present" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # a digit that int() rejects: no row has it
        main(["prepare", str(data), "--item", "²", "--out", str(tmp_path / "none")])
    assert exc.value.code == 2 and "--item" in capsys.readouterr().err


def _run_main(commands: list[list[str]], then: str) -> str:
    """Stdout of a fresh interpreter that runs main() on each argv, asserts
    each exits 0, then runs the code in `then`."""
    src = str(Path(posiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", (
        "import contextlib, io, sys; from posiv.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert [main(argv) for argv in {commands!r}] == {[0] * len(commands)!r}\n"
        + then
    )], env=env, check=True, capture_output=True, text=True).stdout


def test_cli_import_leaves_scipy_stats_out(ads_outdir, tmp_path):
    """posiv's t and F tails are its own, so no command loads scipy, whose
    import costs a fitting process about 0.2 s: diagnose, report and
    estimate fit in one process that ends with no scipy module loaded."""
    data, out = str(ads_outdir / "dataset.csv"), str(tmp_path)
    _run_main([
        ["diagnose", data, "--top-n", "3", "--out", out],
        ["report", data, "--top-n", "3", "--out", out],
        ["estimate", data, "--spec", "spec1", "--item", "1", "--out", out],
    ], "assert not [name for name in sys.modules if name.split('.')[0] == 'scipy']\n")


def _run_script(name: str, *argv: str) -> str:
    """The stdout of scripts/<name> run with argv to its end in a fresh
    interpreter in which scipy cannot be imported."""
    script = str(Path(__file__).resolve().parents[1] / "scripts" / name)
    src = str(Path(posiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", (
        "import runpy, sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.argv = {[script, *argv]!r}\n"
        f"runpy.run_path({script!r}, run_name='__main__')\n"
    )], env=env, check=True, capture_output=True, text=True).stdout


def test_coverage_script_runs_without_scipy():
    """scripts/run_coverage_study.py takes its t critical value from
    posiv.tails, so it runs to its coverage line without scipy."""
    out = _run_script("run_coverage_study.py", "--reps", "2", "--users", "300")
    assert out.startswith("coverage ") and out.rstrip().endswith("(nominal 0.95)")


def test_recovery_script_prints_a_row_per_confounding_level():
    """scripts/run_recovery_study.py fits 2SLS and OLS per seed and prints
    finite bias, RMSE and first-stage F for each of its four levels."""
    lines = _run_script("run_recovery_study.py", "--seeds", "2", "--users", "300").splitlines()
    assert lines[0] == "true slope -0.04; 2 seeds x 300 users"
    assert lines[1].split() == ["confound", "2SLS", "mean", "2SLS", "rmse", "OLS", "mean",
                                "OLS", "rmse", "minF"]
    rows = np.array([line.split() for line in lines[2:]], dtype=float)
    assert rows.shape == (4, 6) and np.isfinite(rows).all()
    assert rows[:, 0].tolist() == [-0.5, 0.0, 0.25, 0.5]


def test_demo_report_script_writes_every_artifact(tmp_path):
    """scripts/make_demo_report.py runs simulate, diagnose and report and
    renders a three-spec table for the busiest campaign into one directory."""
    out = _run_script("make_demo_report.py", "--out", str(tmp_path))
    assert out.rstrip().endswith(f"artifacts in {tmp_path}/")
    for name in ("sim_config.json", "dataset.csv", "truth.json", "first_stage.csv",
                 "first_stage.svg", "effects.csv", "effects.svg", "campaign_table.txt"):
        assert (tmp_path / name).stat().st_size > 0, name
    table = (tmp_path / "campaign_table.txt").read_text(encoding="utf-8")
    assert "Ad click (campaign " in table and table in out
    with open(tmp_path / "effects.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["item_id", "spec", "coef", "se", "status"] and len(rows) == 1 + 5 * 3


@pytest.mark.parametrize("command, layers", [
    ("simulate", ["cli", "datamodel", "errors", "rng", "simulator", "specs"]),
    ("prepare", ["cli", "datamodel", "errors", "prepare", "rng", "specs"]),
    ("estimate", ["cli", "datamodel", "errors", "estimator", "prepare", "rng", "specs",
                  "tables", "tails"]),
    ("diagnose", ["cli", "datamodel", "errors", "estimator", "plots", "prepare", "rng",
                  "specs", "tails"]),
    ("report", ["cli", "datamodel", "errors", "estimator", "plots", "prepare", "rng",
                "specs", "tables", "tails"]),
])
def test_a_command_loads_only_its_own_layers(ads_outdir, tmp_path, command, layers):
    """Each command imports the layers it runs when it runs, so simulate
    compiles no estimator, prepare, tails, tables or plots, and prepare no
    estimator, tails, tables, plots or simulator. No command loads numpy.ma,
    which a plain np.unique(x) imports (about 18 ms a process)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ADS_CONFIG), encoding="utf-8")
    source = ["--config", str(cfg)] if command == "simulate" else [str(ads_outdir / "dataset.csv")]
    flags = QUICK_FLAGS.get(command, [])
    loaded = _run_main([[command, *source, *flags, "--out", str(tmp_path / "out")]],
                       "print(*sorted(m for m in sys.modules if m.startswith('posiv.')))\n"
                       "print('numpy.ma' in sys.modules)\n")
    posiv_modules, numpy_ma = loaded.splitlines()
    assert posiv_modules.split() == [f"posiv.{name}" for name in layers]
    assert numpy_ma == "False"
