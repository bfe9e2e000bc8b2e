"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload ring_sweep --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` reports the end-to-end metrics, measured with nothing
wrapped; ``--trace 1`` reports the per-layer table instead (times and
counts per timed pass, ``trace.coverage`` and ``trace.overhead``).  The
result line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; what the checks found goes to stderr.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.common import (WORK_DIR, WORK_ROOT, BenchError,  # noqa
                              use_repo_sources)

WORKLOADS = ("ring_sweep", "unroll_sweep", "service_mix", "fig6_pool")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    use_repo_sources()
    import repro.runner  # noqa: F401  (the import is part of set-up)
    import repro.analysis.experiments  # noqa: F401
    from perfbench import service, sweeps

    import_s = time.perf_counter() - _T0
    if name in ("ring_sweep", "unroll_sweep"):
        return sweeps.run_serial(name, seed, seconds, trace, import_s)
    if name == "fig6_pool":
        return sweeps.run_fig6(seed, seconds, trace, import_s)
    return service.run_service(seed, seconds, trace, import_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "service_mix":
        # unwind on SIGTERM, so a stopped run still stops its daemon.
        # Not for the pool workload: forked pool workers would inherit
        # the handler, and Pool.terminate() relies on SIGTERM killing them
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:     # another run's directory is still there
            pass
    for problem in result.pop("problems"):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
