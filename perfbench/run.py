#!/usr/bin/env python3
"""Benchmark of the posiv pipeline: three workloads, end to end and by layer.

Run from the repository root; nothing needs installing:

    python3 perfbench/run.py --workload pymk-pipeline --seed 1 --seconds 10 --trace 0

Workloads (closed loop, one client, sequential):
  pymk-pipeline  CLI simulate -> prepare -> prepare --session-top-cut ->
                 estimate spec5 -> estimate spec3 on a 120k-row pymk log
  ads-campaigns  CLI diagnose and report over all 1200 campaigns of an ads
                 file with hashed ids, malformed rows and duplicates
  recovery-mc    in-process Monte Carlo: simulate, sample, spec5/spec3
                 designs, 2SLS and OLS over a fixed list of seeds

Each CLI command runs in its own child process (`python -m posiv.cli`, with
src/ on PYTHONPATH); its wall time and peak RSS come from os.wait4. Rounds
repeat until --seconds have passed, always finishing the round. --trace 0
prints the end-to-end metrics; --trace 1 adds one traced round, run with every
posiv layer wrapped (perfbench/tracer.py), and prints the per-layer metrics.
The last line of stdout is the JSON result; outputs are checked against
computations made apart from posiv (perfbench/checks.py).
"""

import os

# One BLAS thread here and in every child: the timings should not depend on
# how many of the machine's CPUs happen to be free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
PY = sys.executable

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
STAGES = ("simulate_s", "prepare_s", "estimate_s", "diagnose_s", "report_s")
TIMED = ("datamodel.load_dataset", "datamodel.write_dataset", "simulator.simulate",
         "prepare.sample_one_per_request", "prepare.slice_by_item", "prepare.top_items",
         "prepare.build_design", "prepare.aggregate_sessions", "estimator.fit_2sls",
         "estimator.fit_ols", "estimator.first_stage", "estimator.cluster_cov",
         "estimator.svd", "tables.render_table", "tables.fits_to_json",
         "plots.forest_svg", "plots.bars_svg")
CALLED = ("prepare.slice_by_item", "prepare.build_design", "estimator.cluster_cov",
          "estimator.svd")
COUNTED = ("datamodel.rows_loaded", "datamodel.rows_dropped", "datamodel.rows_duplicate",
           "datamodel.rows_written", "simulator.rows", "prepare.design_cells",
           "estimator.svd.cells", "estimator.fits")
PER_LAYER = {
    **{name: "s" for name in STAGES},
    "replications_per_s": "1/s",
    **{f"{name}.s": "s" for name in TIMED},
    **{f"{name}.calls": "count" for name in CALLED},
    **{name: "count" for name in COUNTED},
    "cli.import.s": "s", "cli.self.s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    stage: str
    started: float
    wall_s: float
    peak_mb: float
    rc: int
    span_file: Path | None = None


def run_child(stage: str, argv: list[str], log: Path, span_file: Path | None = None) -> Child:
    with open(log, "ab") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(stage, started, wall, usage.ru_maxrss / 1024.0, proc.returncode, span_file)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class Run:
    """One invocation: counts operations and collects check failures."""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.log = work / "children.log"
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, fn, *args) -> None:
        # A check that cannot even read an output (a missing file, item or
        # column) is a failed check, not a crash of the benchmark.
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")

    def count(self, children: list[Child]) -> bool:
        self.attempted += len(children)
        bad = [c for c in children if c.rc != 0]
        self.failed += len(bad)
        for c in bad:
            print(f"{c.stage} exited {c.rc}; see {self.log}", file=sys.stderr)
        return not bad


# -- CLI workloads ------------------------------------------------------------

class CliWorkload:
    """Rounds of posiv CLI commands, one child process per command."""

    setup_repeats = 5  # setup_s is the median of this many set-ups

    def setup_once(self, run: Run) -> None:
        raise NotImplementedError

    def ops(self, run: Run, out: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check_round(self, run: Run, out: Path) -> None:
        raise NotImplementedError

    def check_end(self, run: Run, traced: list[dict]) -> None:
        pass

    def round(self, run: Run, out: Path, traced: bool) -> list[Child]:
        shutil.rmtree(out, ignore_errors=True)  # no check may read a stale output
        children = []
        for k, (stage, args) in enumerate(self.ops(run, out)):
            if traced:
                span = out / f"trace-{k}.json"
                argv = [PY, str(HERE / "worker.py"), "cli-trace", str(span), "--", *args]
            else:
                span, argv = None, [PY, "-m", "posiv.cli", *args]
            children.append(run_child(stage, argv, run.log, span))
        if run.count(children):
            self.check_round(run, out)
        return children

    def measure(self, run: Run, seconds: float, trace: bool) -> dict:
        setup = statistics.median(timed(lambda: self.setup_once(run))
                                  for _ in range(self.setup_repeats))
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(self.round(run, run.work / "untraced", traced=False))
        walls = [sum(c.wall_s for c in r) for r in rounds]
        metrics = {
            "setup_s": setup,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": max(c.peak_mb for r in rounds for c in r),
        }
        if not trace:
            return metrics
        layer = zeroed_layer()
        for name in STAGES:
            stage = name[:-2]
            layer[name] = float(statistics.median(
                sum(c.wall_s for c in r if c.stage == stage) for r in rounds))
        traced = self.round(run, run.work / "traced", traced=True)
        spans = []
        for child in (c for c in traced if c.rc == 0):
            doc = json.loads(child.span_file.read_text())
            spans.append(doc)
            add_spans(layer, doc)
            layer["cli.import.s"] += doc["imported_at"] - child.started
            layer["cli.self.s"] += doc["command_s"] - doc["top_level_s"]
        layer["trace.wall_s"] = sum(c.wall_s for c in traced)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - metrics["wall_s"]
        self.check_end(run, spans)
        return layer


def zeroed_layer() -> dict:
    return {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}


def add_spans(layer: dict, doc: dict) -> None:
    for name in TIMED:
        layer[f"{name}.s"] += doc["seconds"].get(name, 0.0)
    for name in CALLED:
        layer[f"{name}.calls"] += doc["calls"].get(name, 0)
    for name in COUNTED:
        layer[name] += doc["counts"].get(name, 0)


class PymkPipeline(CliWorkload):
    """The CLI path of a pooled PYMK analysis on one clean numeric-id log."""

    def setup_once(self, run: Run) -> None:
        self.config = run.work / "sim.json"
        inputs.write_config(self.config, inputs.PYMK_SIM, run.seed)
        child = run_child("setup", [PY, "-c", "import posiv.cli"], run.log)
        if child.rc != 0:
            raise SystemExit(f"importing posiv.cli failed; see {run.log}")

    def ops(self, run: Run, out: Path) -> list[tuple[str, list[str]]]:
        data, sample = str(out / "dataset.csv"), ["--sample-seed", str(run.seed)]
        return [
            ("simulate", ["simulate", "--config", str(self.config), "--out", str(out)]),
            ("prepare", ["prepare", data, "--out", str(out / "sampled"), *sample]),
            ("prepare", ["prepare", data, "--out", str(out / "sessions"),
                         "--session-top-cut", "4"]),
            ("estimate", ["estimate", data, "--spec", "spec5", "--out",
                          str(out / "spec5"), *sample]),
            ("estimate", ["estimate", data, "--spec", "spec3", "--out",
                          str(out / "spec3"), *sample]),
        ]

    def check_round(self, run: Run, out: Path) -> None:
        run.check("pymk-pipeline", checks.check_pymk, out, inputs.PYMK_SIM)


class AdsCampaigns(CliWorkload):
    """Per-campaign first stages and effects over every item of an ads file."""

    setup_repeats = 3  # each set-up simulates and rewrites the whole file

    def setup_once(self, run: Run) -> None:
        raw = run.work / "raw"
        self.data = run.work / "campaigns.csv"
        inputs.write_config(run.work / "sim.json", inputs.ADS_SIM, run.seed)
        child = run_child("setup", [PY, "-m", "posiv.cli", "simulate", "--config",
                                    str(run.work / "sim.json"), "--out", str(raw)], run.log)
        if child.rc != 0:
            raise SystemExit(f"simulating the ads file failed; see {run.log}")
        self.truth = raw / "truth.json"
        self.clean = inputs.rewrite_ads(raw / "dataset.csv", self.data, run.seed)

    def ops(self, run: Run, out: Path) -> list[tuple[str, list[str]]]:
        data, every = str(self.data), ["--top-n", str(inputs.ADS_SIM["n_items"])]
        return [
            ("diagnose", ["diagnose", data, *every, "--out", str(out / "diagnose")]),
            ("report", ["report", data, "--specs", "spec1,spec2,spec3", *every,
                        "--sample-seed", str(run.seed), "--out", str(out / "report")]),
        ]

    def check_round(self, run: Run, out: Path) -> None:
        run.check("diagnose", checks.check_diagnose, out / "diagnose" / "first_stage.csv",
                  self.clean, self.truth)
        run.check("report", checks.check_report, out / "report" / "effects.csv", self.clean)

    def check_end(self, run: Run, traced: list[dict]) -> None:
        for doc in traced:
            c = doc["counts"]
            run.check("traced load", checks.check_load_counts, c["datamodel.rows_loaded"],
                      c["datamodel.rows_dropped"], c["datamodel.rows_duplicate"], self.clean)

    def measure(self, run: Run, seconds: float, trace: bool) -> dict:
        metrics = super().measure(run, seconds, trace)
        sys.path.insert(0, str(SRC))
        from posiv.datamodel import load_dataset

        ds = load_dataset(str(self.data))
        run.check("load", checks.check_load_counts, ds.n_rows, ds.n_dropped,
                  ds.n_duplicates, self.clean)
        return metrics


# -- recovery-mc --------------------------------------------------------------

class RecoveryMc:
    """Monte Carlo recovery study in one child process, no file I/O."""

    setup_repeats = 5

    def measure(self, run: Run, seconds: float, trace: bool) -> dict:
        config = run.work / "mc.json"
        config.write_text(json.dumps({"sim": inputs.MC_SIM,
                                      "seeds": inputs.mc_seeds(run.seed)}))

        def worker(out: Path, *flags: str) -> Child:
            argv = [PY, str(HERE / "worker.py"), "mc", str(config), str(out), *flags]
            child = run_child("mc", argv, run.log)
            if child.rc != 0:
                raise SystemExit(f"recovery-mc worker exited {child.rc}; see {run.log}")
            return child

        setup = statistics.median(worker(run.work / "setup.json", "--setup-only").wall_s
                                  for _ in range(self.setup_repeats))
        child = worker(run.work / "untraced.json", "--seconds", str(seconds))
        doc = self.result(run, run.work / "untraced.json")
        wall = statistics.median(doc["round_s"])
        metrics = {"setup_s": setup, "wall_s": wall, "peak_rss_mb": child.peak_mb}
        if not trace:
            return metrics
        worker(run.work / "traced.json", "--trace")
        spans = self.result(run, run.work / "traced.json")
        layer = zeroed_layer()
        add_spans(layer, spans)
        layer["replications_per_s"] = doc["replications"] / wall
        layer["trace.wall_s"] = spans["round_s"][0]
        layer["trace.overhead_s"] = layer["trace.wall_s"] - wall
        return layer

    def result(self, run: Run, path: Path) -> dict:
        doc = json.loads(path.read_text())
        run.attempted += doc["replications"] * len(doc["round_s"])
        run.failed += doc["failed"]
        if not doc["failed"]:
            run.check("recovery-mc", checks.check_recovery, doc["iv"], doc["ols"],
                      inputs.MC_SIM["effect_slope_mean"])
        return doc


WORKLOADS = {"pymk-pipeline": PymkPipeline, "ads-campaigns": AdsCampaigns,
             "recovery-mc": RecoveryMc}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "posiv" / "cli.py").is_file():
        print(f"error: no posiv sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work, args.seed)
    values = WORKLOADS[args.workload]().measure(run, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    if not run.problems:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
