#!/usr/bin/env python3
"""Count the minor page faults of a recovery-mc round on one or more trees.

    python scripts/count_faults.py TREE [TREE ...] [--pairs N] [--seconds S]

Each tree is a checkout of posiv. For each of N passes, the trees take
turns, in reverse order on every other pass: perfbench/worker.py mc runs
once with --setup-only (import and one warm-up replication) and once with
--seconds S (the same, then whole rounds of replications), each under
os.wait4. The difference of the two runs' minor faults over the number of
rounds is the faults per round; the first rounds can fault more than later
ones, so compare trees at equal S. Every run uses the first tree's
perfbench/inputs.py MC_SIM and mc_seeds(77), the recovery-mc workload at
the benchmark's usual seed, with cwd at the tree's root and its src/ on
PYTHONPATH, as perfbench/run.py starts it. One line per run: faults per
round, the median round time and the peak RSS (ru_maxrss) of the timed run.
Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = ("import json, sys; sys.path.insert(0, 'perfbench'); import inputs; "
          "json.dump({'sim': inputs.MC_SIM, 'seeds': inputs.mc_seeds(77)}, sys.stdout)")


def wait4(tree: Path, argv: list[str]):
    """Run argv in tree as perfbench/run.py runs a child; its rusage."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.Popen([sys.executable, *argv], cwd=tree, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"{' '.join(argv)} failed in {tree}")
    return usage


def measure(tree: Path, config: Path, out: Path, seconds: float) -> dict:
    worker = ["perfbench/worker.py", "mc", str(config), str(out)]
    setup = wait4(tree, [*worker, "--setup-only"])
    timed = wait4(tree, [*worker, "--seconds", str(seconds)])
    rounds = json.loads(out.read_text())["round_s"]
    return {"faults": (timed.ru_minflt - setup.ru_minflt) / len(rounds),
            "round_s": statistics.median(rounds), "rounds": len(rounds),
            "maxrss_mb": timed.ru_maxrss / 1024.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", type=Path)
    ap.add_argument("--pairs", type=int, default=4, help="passes over the trees (default 4)")
    ap.add_argument("--seconds", type=float, default=5.0, help="timed run length (default 5)")
    args = ap.parse_args()
    trees = [t.resolve() for t in args.trees]
    got = {t: [] for t in trees}
    with tempfile.TemporaryDirectory(prefix="count_faults.") as tmp:
        config, out = Path(tmp) / "mc.json", Path(tmp) / "out.json"
        config.write_text(subprocess.run(
            [sys.executable, "-c", CONFIG], cwd=trees[0], check=True,
            capture_output=True, text=True).stdout)
        for k in range(args.pairs):
            for tree in trees if k % 2 == 0 else trees[::-1]:
                m = measure(tree, config, out, args.seconds)
                got[tree].append(m)
                print(f"pass {k + 1} {tree}: {m['faults']:.0f} minor faults per round, "
                      f"median round {m['round_s']:.4f} s over {m['rounds']}, "
                      f"ru_maxrss {m['maxrss_mb']:.2f} MB", flush=True)
    for tree, ms in got.items():
        print(f"{tree}: faults per round {min(m['faults'] for m in ms):.0f}-"
              f"{max(m['faults'] for m in ms):.0f}, median round "
              f"{statistics.median(m['round_s'] for m in ms):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
