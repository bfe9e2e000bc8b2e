"""End-to-end benchmark of the repro-vliw compiler, runner and service.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line; see ``README.md`` in
this directory for the workloads, the metrics and how to read them.
"""
