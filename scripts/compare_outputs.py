#!/usr/bin/env python3
"""Run one command matrix on two source trees and compare every output byte.

    python scripts/compare_outputs.py PARENT_TREE CHANGE_TREE KIND=DATA...

Each tree is a checkout of posiv (its src/ goes on PYTHONPATH). Every
command runs once per tree with OPENBLAS_NUM_THREADS=1, writing into its own
output directory. Then every output file, stdout and stderr (the output
directory masked) and the exit code are compared; the script prints each
difference and exits 1 if there is any, 0 if everything is identical.

KIND says which commands run on the file DATA:

    ads    diagnose --top-n 1200; report --specs spec1,spec2,spec3
           --top-n 1200 --sample-seed 5 (the benchmark's ads file,
           perfbench/inputs.py rewrite_ads)
    mixed  diagnose --top-n 99; at sample seeds 0 and 3, report spec1-3 and
           report spec4, spec5 and an ILS JSON spec with --k1 3 --k2 1, all
           --top-n 99; estimate --format json of spec1, spec4 and spec5 for
           items 3, 4 and 7 (tests/test_batch.py's mixed fixture as a CSV)
    pymk   estimate --format json of spec1, spec3, spec4, spec5, spec6 and
           spec7, and of a JSON spec with endogenous position and
           relevance_score on arm*reason, which fits two endogenous columns
           where spec6 exits 1 on a constant session_depth (a `posiv
           simulate` file in pymk mode)
    prepare  prepare with --sample-seed 77, with --session-top-cut 4, with
           --item 7 and with --top-n 10; estimate --spec specA2 --format
           json (an edge-level file, such as the pymk one)
    simulate  simulate --config DATA (DATA a simulator config JSON), which
           writes dataset.csv and truth.json

Column sidecars (.*.posiv) are not compared: their key covers the loader's
own source, so they differ between trees whose loader differs.

perfbench/worker.py mc also runs once per tree, on PARENT_TREE's
perfbench/inputs.py MC_SIM over mc_seeds(77), and its estimates and failure
count are compared (its round times are not). Needs only the standard
library and numpy.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

# the JSON specs some commands name, by file stem
SPECS = {
    "ils": {"name": "ils", "level": "edge", "outcome": "outcome", "endogenous": ["position"],
            "instruments": "arm", "method": "ILS"},
    "two_endogenous": {"name": "two_endogenous", "level": "edge", "outcome": "outcome",
                       "endogenous": ["position", "relevance_score"],
                       "instruments": "arm*reason"},
}


def commands(kind: str, data: str, specs: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(name, posiv arguments without --out) of every command on one file;
    specs maps each SPECS stem to its file."""
    if kind == "ads":
        every = ["--top-n", "1200"]
        return [("diagnose", ["diagnose", data, *every]),
                ("report", ["report", data, "--specs", "spec1,spec2,spec3", *every,
                            "--sample-seed", "5"])]
    if kind == "mixed":
        every = ["--top-n", "99"]
        out = [("diagnose", ["diagnose", data, *every])]
        for seed in ("0", "3"):
            out.append((f"report-spec1-3-seed{seed}",
                        ["report", data, "--specs", "spec1,spec2,spec3", *every,
                         "--sample-seed", seed]))
            out.append((f"report-spec4-5-ils-seed{seed}",
                        ["report", data, "--specs", f"spec4,spec5,{specs['ils']}", *every,
                         "--sample-seed", seed, "--k1", "3", "--k2", "1"]))
        for spec in ("spec1", "spec4", "spec5"):
            for item in ("3", "4", "7"):
                out.append((f"estimate-{spec}-item{item}",
                            ["estimate", data, "--spec", spec, "--item", item,
                             "--format", "json"]))
        return out
    if kind == "pymk":
        return [(f"estimate-{spec}", ["estimate", data, "--spec", specs.get(spec, spec),
                                      "--format", "json"])
                for spec in ("spec1", "spec3", "spec4", "spec5", "spec6", "spec7",
                             "two_endogenous")]
    if kind == "prepare":
        return [(f"prepare{flag}-{value}", ["prepare", data, flag, value])
                for flag, value in (("--sample-seed", "77"), ("--session-top-cut", "4"),
                                    ("--item", "7"), ("--top-n", "10"))] + [
            ("estimate-specA2", ["estimate", data, "--spec", "specA2", "--format", "json"])]
    if kind == "simulate":
        return [("simulate", ["simulate", "--config", data])]
    raise SystemExit(f"unknown kind {kind!r}: use ads, mixed, pymk, prepare or simulate")


def run(tree: Path, argv: list[str], out: Path) -> tuple[int, str, str]:
    """Run argv with tree's src/ first on the path; return (rc, stdout,
    stderr) with out masked."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    out.mkdir(parents=True)
    done = subprocess.run([sys.executable, *argv], env=env, cwd=out, capture_output=True,
                          text=True)
    return done.returncode, done.stdout.replace(str(out), "<OUT>"), \
        done.stderr.replace(str(out), "<OUT>")


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and not (p.name.startswith(".") and p.name.endswith(".posiv"))}


def compare(name: str, got: list, out: list[Path]) -> list[str]:
    """The differences between the parent's and the change's run of one
    command: exit code, stdout, stderr, then each output file."""
    diffs = []
    if got[0][0] != got[1][0]:
        diffs.append(f"{name}: exit code {got[0][0]} on the parent, {got[1][0]} on the change")
    for what, a, b in zip(("stdout", "stderr"), got[0][1:], got[1][1:]):
        if a != b:
            lines = difflib.unified_diff(a.splitlines(), b.splitlines(), "parent", "change",
                                         lineterm="", n=0)
            diffs.append(f"{name}: {what} differs:\n" + "\n".join(list(lines)[:12]))
    parent, change = files(out[0]), files(out[1])
    for path in sorted(parent.keys() | change.keys()):
        if path not in parent or path not in change:
            diffs.append(f"{name}: {path} only in the {'change' if path in change else 'parent'}")
        elif parent[path] != change[path]:
            diffs.append(f"{name}: {path} differs")
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("data", nargs="+", help="KIND=PATH, KIND one of ads, mixed, pymk, prepare, simulate")
    args = ap.parse_args()
    trees = (args.parent.resolve(), args.change.resolve())

    with tempfile.TemporaryDirectory(prefix="compare_outputs.") as tmp:
        work = Path(tmp)
        specs = {}
        for stem, spec in SPECS.items():
            specs[stem] = str(work / f"{stem}.json")
            Path(specs[stem]).write_text(json.dumps(spec), encoding="utf-8")
        diffs, n_files, exits = [], 0, []
        for k, arg in enumerate(args.data):
            kind, sep, data = arg.partition("=")
            if not sep:
                raise SystemExit(f"{arg!r} is not KIND=PATH")
            data = str(Path(data).resolve())
            for name, argv in commands(kind, data, specs):
                label = f"{kind}[{k}] {name}"
                out = [work / side / str(k) / name for side in ("parent", "change")]
                got = [run(tree, ["-m", "posiv.cli", *argv, "--out", "."], o)
                       for tree, o in zip(trees, out)]
                diffs += compare(label, got, out)
                n_files += len(files(out[0]))
                exits.append(got[0][0])

        inputs = runpy.run_path(str(trees[0] / "perfbench" / "inputs.py"))
        config = work / "mc.json"
        config.write_text(json.dumps({"sim": inputs["MC_SIM"], "seeds": inputs["mc_seeds"](77)}))
        docs = []
        for tree, side in zip(trees, ("parent", "change")):
            out = work / side / "mc"
            rc, _, err = run(tree, [str(tree / "perfbench" / "worker.py"), "mc", str(config),
                                    str(out / "mc.json")], out)
            if rc != 0:
                diffs.append(f"worker.py mc exited {rc} on the {side}:\n{err}")
                doc = {}
            else:
                doc = json.loads((out / "mc.json").read_text())
                doc.pop("round_s")
            docs.append(doc)
        if docs[0] != docs[1]:
            diffs.append(f"worker.py mc differs:\n--- parent\n{docs[0]}\n--- change\n{docs[1]}")

    for line in diffs:
        print(line)
    failing = sum(rc != 0 for rc in exits)
    print(f"{len(exits)} posiv commands ({failing} exiting non-zero on the parent) and "
          f"worker.py mc on each tree, {n_files} output files: "
          + (f"{len(diffs)} differences" if diffs else "all identical"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
