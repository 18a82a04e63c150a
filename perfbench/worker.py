"""Child-process side of the benchmark; run.py starts it with src/ on the path.

    worker.py cli-trace OUT.json -- <posiv cli arguments>
        run one CLI command in-process with every posiv layer wrapped, and
        write the spans and counts to OUT.json.
    worker.py mc CONFIG.json OUT.json [--seconds S] [--trace] [--setup-only]
        the recovery Monte Carlo: import, one warm-up replication, then whole
        rounds over the configured seeds until S seconds have passed (one
        round when traced), writing round times and estimates to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

from tracer import Tracer


def cli_trace(out: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()  # imports posiv.cli and every layer it uses
    # perf_counter reads CLOCK_MONOTONIC, which every process on the host
    # shares, so run.py subtracts its spawn time from this to get cli.import.s
    imported_at = time.perf_counter()
    import posiv.cli

    rc = posiv.cli.main(argv)
    command_s = time.perf_counter() - imported_at
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "imported_at": imported_at, "command_s": command_s,
                   **tracer.summary()}, fh)
    return rc


def mc(config_path: str, out: str, seconds: float, trace: bool, setup_only: bool) -> int:
    from posiv import errors, estimator, prepare, simulator, specs

    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    sim, seeds = config["sim"], config["seeds"]

    def replicate(seed):
        ds, _ = simulator.simulate(simulator.SimConfig(**sim, seed=seed))
        sampled = prepare.sample_one_per_request(ds, seed)
        spec5 = prepare.build_design(sampled, specs.get_spec("spec5"))
        spec3 = prepare.build_design(sampled, specs.get_spec("spec3"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            iv = estimator.fit_2sls(spec5).coefficient("position")
        ols = estimator.fit_ols(spec3).coefficient("position")
        return iv, ols

    replicate(seeds[0])
    if setup_only:
        return 0
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    rounds, failed, estimates = [], 0, None
    start = time.perf_counter()
    while not rounds or (not trace and time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        results = []
        for seed in seeds:
            try:
                results.append(replicate(seed))
            except errors.PosivError as exc:
                print(f"seed {seed}: {exc}", file=sys.stderr)
                failed += 1
        rounds.append(time.perf_counter() - t0)
        if estimates is None:
            estimates = results
        elif results != estimates:
            print("replications differ between rounds", file=sys.stderr)
            return 3
    doc = {"round_s": rounds, "replications": len(seeds), "failed": failed,
           "iv": [e[0] for e in estimates], "ols": [e[1] for e in estimates]}
    if tracer:
        doc.update(tracer.summary())
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "cli-trace":
        sep = sys.argv.index("--")
        return cli_trace(sys.argv[2], sys.argv[sep + 1:])
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["mc"])
    ap.add_argument("config")
    ap.add_argument("out")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    return mc(args.config, args.out, args.seconds, args.trace, args.setup_only)


if __name__ == "__main__":
    sys.exit(main())
