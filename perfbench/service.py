"""The service_mix workload: a closed-loop HTTP client against the daemon.

Each pass starts ``repro-vliw --jobs 1 --cache-dir <fresh> serve`` in its
own process (so every pass begins with an empty cache and empty spec
memos, and pays the same compiles and generator replays), sends the
seeded request stream, in an order of its own, over two keep-alive
connections -- each sends its next request only after the previous
reply -- and stops the daemon with SIGTERM.  Daemon start is set-up; the request stream is timed.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import shutil
import signal
import subprocess
import sys
import threading
import time

from . import inputs
from .common import (BENCH_DIR, ROOT, WORK_DIR, BenchError, env_with_sources,
                     median, metric, pid_peak_rss_mb, rate_from_passes,
                     repeat_passes, tail_percentile)
from .layers import LayerTrace, layer_metrics
from .sweeps import SIM_SAMPLE, outcome_metrics, recompile_and_check

CONNECTIONS = 2
MIN_PASSES = 5
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Daemon:
    """One daemon process on an ephemeral port."""

    def __init__(self, index: int, traced: bool) -> None:
        self.dir = WORK_DIR / f"service-{index}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log_path = self.dir / "daemon.log"
        self.stats_path = self.dir / "layers.json"
        args = ["--jobs", "1", "--cache-dir", str(self.dir / "cache"),
                "serve", "--port", "0", "--no-trace"]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "daemon_main.py"),
                   str(self.stats_path)] + args
        else:
            cmd = [sys.executable, "-m", "repro.cli"] + args
        t0 = time.perf_counter()
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=self._log, cwd=ROOT,
                                     env=env_with_sources())
        self.port = self._wait_listening()
        self.start_s = time.perf_counter() - t0

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            marker = "listening on http://127.0.0.1:"
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise BenchError(f"daemon did not start: {text[-2000:]}")

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM, wait for the drain; kill if it wedges."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError("daemon did not drain within "
                                 f"{STOP_TIMEOUT_S:g}s of SIGTERM")
        self._log.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def send_stream(port: int, stream: list, order: list
                ) -> tuple[float, list, list]:
    """``(seconds, per-request seconds, replies)`` of one pass, which
    sends the requests of *stream* in *order*; both lists follow the
    stream."""
    replies: list = [None] * len(stream)
    latencies: list = [None] * len(stream)
    bodies = [json.dumps({"jobs": specs}).encode() for specs in stream]
    cursor = iter(order)
    lock = threading.Lock()
    errors: list = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                t0 = time.perf_counter()
                conn.request("POST", "/jobs", bodies[i],
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = response.read()
                latencies[i] = time.perf_counter() - t0
                if response.status != 200:
                    raise BenchError(f"HTTP {response.status}: "
                                     f"{payload[:300]!r}")
                replies[i] = json.loads(payload)["results"]
        except Exception as exc:  # reported, and the run fails
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}")
    return wall, latencies, replies


class ServicePass:
    """One pass: a fresh daemon, the stream, SIGTERM."""

    def __init__(self, stream: list, seed: int) -> None:
        self.stream = stream
        self.seed = seed
        self.index = 0
        self.starts: list[float] = []
        #: traced passes: daemon layer totals, /metrics.json snapshots
        self.layer = LayerTrace()
        self.snapshots: list = []

    def __call__(self, use_trace: bool) -> tuple:
        """``(seconds, per-request seconds, replies, daemon peak RSS)``."""
        daemon = Daemon(self.index, use_trace)
        order = inputs.pass_order(len(self.stream), self.seed, self.index)
        self.index += 1
        try:
            self.starts.append(daemon.start_s)
            wall, latencies, replies = send_stream(daemon.port, self.stream,
                                                   order)
            peak = pid_peak_rss_mb(daemon.proc.pid)
            snapshot = daemon.get_json("/metrics.json") if use_trace \
                else None
        finally:
            daemon.stop()
        if use_trace:
            stats = json.loads(daemon.stats_path.read_text())
            snapshot["memo"] = stats.pop("memo")
            self.layer.local.merge(stats)
            self.snapshots.append(snapshot)
        daemon.cleanup()
        return wall, latencies, replies, peak


def run_service(seed: int, seconds: float, traced: bool,
                import_s: float) -> dict:
    from repro.workloads.kernels import KERNELS
    from repro.workloads.synth import SynthConfig

    stream = inputs.service_stream(sorted(KERNELS), SynthConfig().n_loops,
                                   inputs.rng_for("service_mix", seed))
    n_specs = sum(len(specs) for specs in stream)
    WORK_DIR.mkdir(parents=True, exist_ok=True)

    run_pass = ServicePass(stream, seed)
    run_pass(False)                     # warm-up
    plain, traced_out = repeat_passes(run_pass, seconds, traced, MIN_PASSES)
    problems, quality = check_replies(
        stream, [p[2] for p in plain + traced_out], seed)
    # an operation is one job spec answered, as in jobs_per_s
    result = {"correct": not problems,
              "attempted": len(plain + traced_out) * n_specs,
              "failed": 0, "problems": problems}
    walls = [p[0] for p in plain]
    if not traced:
        rss = [p[3] for p in plain if p[3] is not None]
        if not rss:
            raise BenchError("could not read the daemon's peak RSS")
        latencies = [t for p in plain for t in p[1]]
        result["metrics"] = {
            "setup_s": metric(import_s + median(run_pass.starts), "s"),
            "jobs_per_s": metric(rate_from_passes(n_specs, walls), "1/s"),
            "lat_ms_p50": metric(1000 * tail_percentile(latencies, 50), "ms"),
            "lat_ms_p99": metric(1000 * tail_percentile(latencies, 99), "ms"),
            "peak_rss_mb": metric(median(rss), "MiB"),
            "ii_over_mii": metric(quality["ii_over_mii"], "ratio"),
            "dyn_ipc": metric(quality["dyn_ipc"], "ops/cycle"),
        }
    else:
        snaps = run_pass.snapshots
        n = len(snaps)

        def mean(get) -> float:
            return sum(get(snap) for snap in snaps) / n
        svc = {
            "submit_s": mean(lambda m: m["service"]["submit_s"]),
            "jobs_per_batch": mean(lambda m: m["service"]["batch_jobs"]
                                   / max(1, m["service"]["batches"])),
            "dedup_jobs": mean(lambda m: m["service"]["dedup_inflight"]),
            "cache_hits": mean(lambda m: m["service"]["served_from_cache"]),
            "compiled": mean(lambda m: m["service"]["compiled"]),
            "loop_memo": mean(lambda m: m["memo"]["loop"]),
            "machine_memo": mean(lambda m: m["memo"]["machine"]),
        }
        arena = {key: sum(m["arena"][key] for m in snaps)
                 for key in ("hits", "allocs")}
        result["metrics"] = layer_metrics(
            run_pass.layer, [p[0] for p in traced_out], walls, quality,
            arena=arena, service=svc)
    return result


def job_for(spec: dict, corpus: list):
    """The in-process job for *spec*, built without the service's parser:
    synth loop *i* is loop *i* of the generated corpus."""
    from repro.machine.presets import clustered_machine, qrf_machine
    from repro.runner import CompileJob, PipelineOptions
    from repro.workloads.kernels import KERNELS

    loop = spec["loop"]
    ddg = (KERNELS[loop["kernel"]]() if "kernel" in loop
           else corpus[loop["synth"]["index"]].copy())
    machine = spec["machine"]
    m = (qrf_machine(machine["n_fus"]) if machine["kind"] == "qrf"
         else clustered_machine(machine["n_clusters"]))
    return CompileJob(ddg, m, PipelineOptions(**spec.get("options", {})))


def check_replies(stream: list, replies_by_pass: list, seed: int
                  ) -> tuple[list, dict]:
    """Every reply equals in-process ``execute_job`` for its spec, in
    every pass; every distinct job's schedule passes the checker."""
    from repro.runner import execute_job
    from repro.workloads.synth import generate_corpus

    corpus = generate_corpus()
    problems: list[str] = []
    distinct: dict = {}
    for replies in replies_by_pass:
        for specs, reply in zip(stream, replies):
            if len(reply) != len(specs):
                problems.append(f"{len(reply)} results for {len(specs)} "
                                f"specs")
                continue
            for spec, record in zip(specs, reply):
                distinct.setdefault(inputs.spec_identity(spec),
                                    (spec, []))[1].append(record)
    rng = inputs.rng_for("service_mix", seed, "simulate")
    simulated = set(rng.sample(sorted(distinct),
                               min(SIM_SAMPLE, len(distinct))))
    results = []
    deepest = 0
    for ident, (spec, records) in sorted(distinct.items()):
        job = job_for(spec, corpus)
        local = execute_job(job)
        results.append(local)
        want = {"key": local.key,
                "outcome": dataclasses.asdict(local.outcome),
                "extras": local.extras}
        for record in records:
            got = {k: record.get(k) for k in want}
            if got != want:
                problems.append(f"{ident}: reply differs from in-process "
                                f"execute_job")
                break
        if local.outcome.failed:
            problems.append(f"{ident}: failed ({local.outcome.error})")
            continue
        found, peak = recompile_and_check(job, local.outcome,
                                          simulate=ident in simulated)
        problems += found
        deepest = max(deepest, peak)
    quality = outcome_metrics(results)
    quality["peak_queue_depth"] = deepest
    return problems, quality
