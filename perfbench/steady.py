"""Steadiness check: run workloads over several seeds and compare the
spread of every end-to-end metric with its bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...]

Each run is a fresh ``perfbench/run.py`` process with the next seed and
the run length from ``BENCHMARK.json``.  Prints, per workload and
metric, the median, the quartiles, the interquartile spread as a share
of the median and the metric's bound; also the failed share of each
workload (it must not vary).

Exits 1 when a spread exceeds its bound, when the failed share varies
or when a run is incorrect: the acceptance rule for two sets of runs of
one commit.  A spread above a third of its bound is flagged but does
not fail: it leaves little room for the second set's median to agree
with the first.  ``setup_s`` is held to its median only, not to its
spread: a run times its set-up a few times, not over the whole run, so
that spread is wide; its median is what a later change must not worsen.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

from common import spread

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    print(f"  {workload} seed {seed}: {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(args.first_seed,
                                     args.first_seed + args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        wrong = sum(not r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, failed share "
              f"{sorted(shares)}, incorrect runs {wrong}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            share = spread(values)
            flag = ""
            if name != "setup_s" and share > bound:
                flag = "  > bound"
                steady = False
            elif name != "setup_s" and share > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:<14}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}"
                  f"{share:>9.3f}{bound:>7.2f}{flag}")
        steady = steady and len(shares) == 1 and not wrong
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
