#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of one build.

    python3 perfbench/steady.py [--runs 10] [--seed 1]

Run from the root of the repository. It builds once, then runs every
workload of BENCHMARK.json `--runs` times in each of two sets A and B, for
BENCHMARK.json's `run_seconds` each, alternating which set goes first and
giving every run its own seed. For every workload and end-to-end metric it
prints each set's median and quartiles, their spread (the distance between
the quartiles as a share of the median), the median `host.ref_ns` of each
set, and whether the sets agree within the metric's bound: each spread
within the bound, and the two medians apart by no more than the bound, in
either direction. `setup_s` has no spread test, only the median one: each
run's figure is the median of a few cold set-ups, each a single warm-up
round per job count, so it spreads like one round does; what guards it is
that the medians of two sets agree. It also requires every run to be correct and the share of
failed operations to be the same in every run. Exits 1 when a run fails or
a check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def one_run(binary, workload, seed, seconds, env):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    stamp = json.loads(lines[-2])["stamp"]
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "host.ref_ns": stamp["host.ref_ns"],
        "correct": result["correct"],
        "failed_share": result["failed"] / result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed; every run gets its own")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    binary = run.build()
    if binary is None:
        raise SystemExit("the build failed")
    env = dict(os.environ, PERFBENCH_REV=run.revision())
    workloads = [w["name"] for w in bench["workloads"]]
    sets = [{w: [] for w in workloads} for _ in range(2)]
    seed = args.seed
    for i in range(args.runs):
        for w in workloads:
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[s][w].append(one_run(binary, w, seed, bench["run_seconds"], env))
                seed += 1
        print(f"round {i + 1}/{args.runs} done", file=sys.stderr)

    ok = True
    for w in workloads:
        refs = [statistics.median(r["host.ref_ns"] for r in runs[w]) for runs in sets]
        shares = [sorted({r["failed_share"] for r in runs[w]}) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs[w])
        same_share = all(len(s) == 1 for s in shares) and len({s[0] for s in shares}) == 1
        ok &= correct and same_share
        print(f"\n{w}: host.ref_ns median " + " / ".join(f"{x:.0f}" for x in refs)
              + f"; correct {correct}; failed share {shares}")
        print(f"  {'metric':<18} {'bound':>6}  {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for s, runs in enumerate(sets):
                q1, q2, q3, spread = quartiles([r["metrics"][name] for r in runs[w]])
                stats.append((q2, spread))
                print(f"  {name:<18} {bound:>6}  {'AB'[s]:>3} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>7.3f}")
            verdicts = []
            spread_tested = name != "setup_s"
            for s, (_, spread) in enumerate(stats if spread_tested else []):
                fits = spread <= bound
                ok &= fits
                third = "within a third" if spread <= bound / 3 else "above a third"
                verdicts.append(f"{'AB'[s]} spread {'fits' if fits else 'EXCEEDS'} ({third})")
            (a, _), (b, _) = stats
            apart = abs(b - a) / a
            fits = apart <= bound
            ok &= fits
            verdicts.append(f"B vs A apart by {apart:.3f}: {'agree' if fits else 'DISAGREE'}")
            print(f"  {'':<18} {'':>6}  => " + "; ".join(verdicts))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
