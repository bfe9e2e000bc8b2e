"""Per-layer table of one traced run.

    python3 perfbench/trace_table.py --workload ring_sweep [--seed 1]

Runs ``perfbench/run.py --trace 1`` and prints every per-layer metric
(times and counts per timed pass) with ``trace.coverage`` (the stage
layers' self time over the traced wall, per computing process) and
``trace.overhead`` (traced over untraced pass time, both measured in
that run).
"""

import argparse
import json
import sys

from steady import ROOT, run_once


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    result = run_once(args.workload, args.seed, spec["run_seconds"], trace=1)
    print(f"{args.workload} seed {args.seed}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for layer in spec["per_layer"]:
        m = result["metrics"][layer["name"]]
        print(f"  {layer['name']:<26}{m['value']:>14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
