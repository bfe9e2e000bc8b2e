"""Run the sweep daemon with the per-layer wrappers installed.

``python3 perfbench/daemon_main.py STATS_JSON <repro-vliw arguments>``:
the traced service_mix passes start the daemon through this launcher
instead of ``python -m repro.cli``; when the daemon has drained and
stopped, the layer totals and the spec-memo sizes go to STATS_JSON.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import LayerTrace  # noqa: E402


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    trace = LayerTrace()
    trace.install()
    from repro.cli import main as cli_main
    from repro.service import jobspec

    try:
        return cli_main(argv)
    finally:
        stats = trace.local.snapshot()
        stats["memo"] = {"loop": len(jobspec._LOOP_MEMO),
                         "machine": len(jobspec._MACHINE_MEMO)}
        pathlib.Path(stats_path).write_text(json.dumps(stats))


if __name__ == "__main__":
    sys.exit(main())
