"""Smoke test of the benchmark harness's worker (perfbench/worker.py) on
small inputs, so an API change that breaks the benchmark fails here too."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from posiv.datamodel import write_dataset

from test_batch import _mixed_items

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


def _worker(*argv: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, str(WORKER), *argv], env=env, check=True,
                   capture_output=True, text=True)


def test_worker_traces_report_and_diagnose(tmp_path):
    """cli-trace runs each command in process with every layer wrapped: both
    exit 0, and the trace names the fits each command makes."""
    data = tmp_path / "mixed.csv"
    write_dataset(_mixed_items(), str(data))
    runs = {"report": ["--specs", "spec1,spec2,spec3", "--top-n", "99"], "diagnose": []}
    for command, flags in runs.items():
        out = tmp_path / f"{command}.json"
        _worker("cli-trace", str(out), "--", command, str(data), *flags,
                "--out", str(tmp_path / command))
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["rc"] == 0
        want = (["estimator.fit_2sls", "estimator.fit_ols"] if command == "report"
                else ["estimator.first_stage"])
        assert all(name in doc["calls"] for name in want)


def test_worker_runs_the_recovery_monte_carlo(tmp_path):
    """mc replicates the recovery workload's simulate, sample, design and
    fits over two seeds of a 600-user config, traced, with no failure."""
    spec = importlib.util.spec_from_file_location("inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    config, out = tmp_path / "mc.json", tmp_path / "out.json"
    config.write_text(json.dumps({"sim": {**inputs.MC_SIM, "n_users": 600}, "seeds": [1, 2]}),
                      encoding="utf-8")
    _worker("mc", str(config), str(out), "--trace")
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["failed"] == 0 and doc["replications"] == 2
    assert len(doc["iv"]) == len(doc["ols"]) == 2
