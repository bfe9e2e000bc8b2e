"""Per-layer attribution for traced runs.

Wraps the program's public entry points from the outside and records,
per layer, the call count, the total time and the self time (total
minus the time of wrapped calls nested inside it).  Nothing here runs
in an untraced run: ``LayerTrace.install`` patches the entry points and
``uninstall`` restores the originals.

Pool workers are forked after the patches are in place, so they record
too; each job's delta rides home on the result's extras and is merged
into ``remote`` -- kept apart from the local spans because worker time
runs in parallel with the parent's wait inside ``PoolSession.run``.

``trace.coverage`` is the stage layers' self time, here and in the
workers, over the traced wall times the number of computing processes
(the pool's workers in ``fig6_pool``, else one).  The envelope layers
(``ENVELOPES``) are left out: their self time is what no stage explains.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable

from .common import median, metric

#: extras key carrying a pool worker's per-job layer delta
WORKER_KEY = "perfbench_layers"
#: layers that wrap a whole job, sweep or pool round trip rather than one
#: stage: their self time is whatever no stage covers, so it does not
#: count towards ``trace.coverage``
ENVELOPES = frozenset({"runner.execute", "runner.pool",
                       "analysis.experiment"})


class Stats:
    """Accumulated totals: ``time[name] = [total, self]``, counters."""

    def __init__(self) -> None:
        self.time: dict = defaultdict(lambda: [0.0, 0.0])
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)

    def snapshot(self) -> dict:
        return {"time": {k: list(v) for k, v in self.time.items()},
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def merge(self, snap: dict, minus: "dict | None" = None) -> None:
        """Add *snap* (less *minus*, an earlier snapshot of the same
        process)."""
        minus = minus or {"time": {}, "calls": {}, "counts": {}}
        for k, (tot, own) in snap["time"].items():
            base = minus["time"].get(k, (0.0, 0.0))
            self.time[k][0] += tot - base[0]
            self.time[k][1] += own - base[1]
        for k, v in snap["calls"].items():
            self.calls[k] += v - minus["calls"].get(k, 0)
        for k, v in snap["counts"].items():
            self.counts[k] += v - minus["counts"].get(k, 0)


class LayerTrace:
    def __init__(self) -> None:
        self.local = Stats()
        self.remote = Stats()
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.local.counts[name] += n

    def timed(self, name: str, fn: Callable,
              after: "Callable | None" = None) -> Callable:
        """*fn* recorded as layer *name*; ``after(result, args, kwargs)``
        may add counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dur
                with self._lock:
                    acc = self.local.time[name]
                    acc[0] += dur
                    acc[1] += dur - nested
                    self.local.calls[name] += 1
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every public entry point the per-layer table reports."""
        import repro.runner
        from repro.analysis import experiments
        from repro.ir.ddg import Ddg
        from repro.runner import cache, executor, job, pipeline, pool
        from repro.sched import ims, partition
        from repro.sched.schedule import ModuloSchedule
        from repro.sched.strategies import ims as ims_strategy
        from repro.sched.strategies import sms
        from repro.service import daemon

        p = self.patch
        p(pipeline, "unroll", self.timed("ir.unroll", pipeline.unroll))
        p(pipeline, "insert_copies",
          self.timed("ir.copyins", pipeline.insert_copies))
        lower = self.timed("ir.lowering", Ddg.arrays, self._after_lowering)
        original_arrays = Ddg.arrays

        def arrays(ddg):
            if ddg._edge_cache.get("arrays") is None:
                return lower(ddg)
            return original_arrays(ddg)
        p(Ddg, "arrays", arrays)
        for module in (pipeline, partition, ims, sms):
            p(module, "mii_report",
              self.timed("sched.mii", module.mii_report))
        p(pipeline, "partitioned_schedule",
          self.timed("sched.partition", pipeline.partitioned_schedule,
                     self._after_partition))
        for cls in (ims_strategy.ImsStrategy, sms.SmsStrategy):
            p(cls, "schedule", self.timed("sched.schedule", cls.schedule,
                                          self._after_engine))
        p(ModuloSchedule, "validate",
          self.timed("sched.validate", ModuloSchedule.validate))
        p(pipeline, "allocate_for_schedule",
          self.timed("regalloc.allocate", pipeline.allocate_for_schedule))
        p(pipeline, "verify_schedule",
          self.timed("verify.verify", pipeline.verify_schedule,
                     self._after_verify))
        p(job, "job_key", self.timed("runner.fingerprint", job.job_key))
        p(cache.ShardedResultCache, "get",
          self.timed("runner.cache_get", cache.ShardedResultCache.get,
                     self._after_cache_get))
        p(cache.ShardedResultCache, "put_many",
          self.timed("runner.cache_put",
                     cache.ShardedResultCache.put_many))
        # a job's time outside the stages above: pipeline glue and
        # result assembly
        execute = self.timed("runner.execute", pipeline.execute_job)
        p(repro.runner, "execute_job", execute)
        p(executor, "execute_job", execute)
        p(pool.PoolSession, "run", self._pool_run(pool.PoolSession.run))
        p(pool, "execute_job", self._worker_job(execute))
        p(daemon, "parse_jobs",
          self.timed("service.parse", daemon.parse_jobs))
        p(experiments, "fig6_ii_variation",
          self.timed("analysis.experiment", experiments.fig6_ii_variation))

    # ------------------------------------------------------------ hooks

    def _after_lowering(self, arrays, args, kwargs) -> None:
        self.count("ir.lowerings")
        self.count("ir.body_ops", arrays.n)

    def _after_partition(self, sched, args, kwargs) -> None:
        self.count("sched.placements", sched.stats.attempts)
        self.count("sched.evictions", sched.stats.evictions)
        self.count("sched.ii_probes", sched.stats.iis_tried)

    def _after_engine(self, result, args, kwargs) -> None:
        self.count("sched.ii_probes", result.schedule.stats.iis_tried)

    def _after_verify(self, verdict, args, kwargs) -> None:
        if not verdict.ok:
            self.count("verify.rejected")

    def _after_cache_get(self, hit, args, kwargs) -> None:
        self.count("runner.cache_hits" if hit is not None
                   else "runner.cache_misses")

    def _pool_run(self, run: Callable) -> Callable:
        timed_run = self.timed("runner.pool", run)
        trace = self

        def pool_run(session, jobs, on_result, *args, **kwargs):
            def merge(seq, result):
                delta = result.extras.pop(WORKER_KEY, None)
                if delta is not None:
                    with trace._lock:
                        trace.remote.merge(delta)
                        trace.remote.counts["runner.worker_busy_s"] += \
                            result.wall_s
                on_result(seq, result)
            spawns = session.spawns
            try:
                return timed_run(session, jobs, merge, *args, **kwargs)
            finally:
                trace.count("runner.pool_spawns", session.spawns - spawns)
        return pool_run

    def _worker_job(self, execute_job: Callable) -> Callable:
        """In a pool worker: run the job, attach this job's layer delta
        (the worker's stats start as a copy of the parent's)."""
        from repro.sched import arena_counters
        trace = self

        def execute(job):
            before = trace.local.snapshot()
            arena = arena_counters()
            result = execute_job(job)
            after_arena = arena_counters()
            for key in ("hits", "allocs"):
                trace.local.counts[f"arena.{key}"] += (after_arena[key]
                                                       - arena[key])
            delta = Stats()
            delta.merge(trace.local.snapshot(), minus=before)
            result.extras[WORKER_KEY] = delta.snapshot()
            return result
        return execute

    # ---------------------------------------------------------- reading

    def combined(self) -> Stats:
        out = Stats()
        out.merge(self.local.snapshot())
        out.merge(self.remote.snapshot())
        return out

    def stage_seconds(self) -> float:
        """Self time of the stage layers, here and in pool workers."""
        return sum(own for stats in (self.local, self.remote)
                   for name, (_tot, own) in stats.time.items()
                   if name not in ENVELOPES)


# ---------------------------------------------------------------------------
# per-layer table
# ---------------------------------------------------------------------------

def layer_metrics(layer: LayerTrace, traced_walls: list, plain_walls: list,
                  quality: dict, *, arena: dict,
                  replay_rate: float = 0.0, n_workers: int = 1,
                  service: "dict | None" = None) -> dict:
    """Every per-layer metric, per timed pass."""
    n = len(traced_walls)
    stats = layer.combined()
    counts = stats.counts

    def own(name: str) -> float:
        return stats.time[name][1] / n if name in stats.time else 0.0

    def per_pass(name: str) -> float:
        return counts.get(name, 0.0) / n

    arena_hits = arena["hits"] + counts.get("arena.hits", 0)
    arena_all = arena_hits + arena["allocs"] + counts.get("arena.allocs", 0)
    gets = counts.get("runner.cache_hits", 0) + \
        counts.get("runner.cache_misses", 0)
    pool_s = stats.time["runner.pool"][0] if "runner.pool" in stats.time \
        else 0.0
    service = service or {}
    values = {
        "ir.unroll_s": own("ir.unroll"),
        "ir.copyins_s": own("ir.copyins"),
        "ir.lowering_s": own("ir.lowering"),
        "ir.lowerings": per_pass("ir.lowerings"),
        "ir.body_ops": per_pass("ir.body_ops"),
        "sched.mii_s": own("sched.mii"),
        "sched.partition_s": own("sched.partition"),
        "sched.schedule_s": own("sched.schedule"),
        "sched.validate_s": own("sched.validate"),
        "sched.placements": per_pass("sched.placements"),
        "sched.evictions": per_pass("sched.evictions"),
        "sched.ii_probes": per_pass("sched.ii_probes"),
        "sched.arena_hit_ratio": arena_hits / arena_all if arena_all else 0.0,
        "regalloc.allocate_s": own("regalloc.allocate"),
        "regalloc.queues_per_loop": quality.get("queues_per_loop", 0.0),
        "regalloc.peak_queue_depth": quality.get("peak_queue_depth", 0),
        "verify.verify_s": own("verify.verify"),
        "verify.rejected": per_pass("verify.rejected"),
        "runner.execute_s": own("runner.execute"),
        "runner.fingerprint_s": own("runner.fingerprint"),
        "runner.cache_get_s": own("runner.cache_get"),
        "runner.cache_hit_ratio": (counts.get("runner.cache_hits", 0) / gets
                                   if gets else 0.0),
        "runner.cache_put_s": own("runner.cache_put"),
        "runner.pool_s": own("runner.pool"),
        "runner.pool_spawns": per_pass("runner.pool_spawns"),
        "runner.worker_busy_ratio": (
            counts.get("runner.worker_busy_s", 0.0) / (n_workers * pool_s)
            if pool_s else 0.0),
        "runner.replay_jobs_per_s": replay_rate,
        "service.parse_s": own("service.parse"),
        "service.submit_s": service.get("submit_s", 0.0),
        "service.jobs_per_batch": service.get("jobs_per_batch", 0.0),
        "service.dedup_jobs": service.get("dedup_jobs", 0.0),
        "service.cache_hits": service.get("cache_hits", 0.0),
        "service.compiled": service.get("compiled", 0.0),
        "service.loop_memo": service.get("loop_memo", 0.0),
        "service.machine_memo": service.get("machine_memo", 0.0),
        "analysis.experiment_s": own("analysis.experiment"),
        "trace.coverage": (layer.stage_seconds()
                           / (n_workers * sum(traced_walls))),
        "trace.overhead": median(traced_walls) / median(plain_walls),
    }
    return {name: metric(value, LAYER_UNITS[name])
            for name, value in values.items()}


#: unit of every per-layer metric (times and counts are per timed pass)
LAYER_UNITS = {
    "ir.unroll_s": "s", "ir.copyins_s": "s", "ir.lowering_s": "s",
    "ir.lowerings": "count", "ir.body_ops": "count",
    "sched.mii_s": "s", "sched.partition_s": "s", "sched.schedule_s": "s",
    "sched.validate_s": "s", "sched.placements": "count",
    "sched.evictions": "count", "sched.ii_probes": "count",
    "sched.arena_hit_ratio": "ratio",
    "regalloc.allocate_s": "s", "regalloc.queues_per_loop": "queues",
    "regalloc.peak_queue_depth": "count",
    "verify.verify_s": "s", "verify.rejected": "count",
    "runner.execute_s": "s", "runner.fingerprint_s": "s",
    "runner.cache_get_s": "s",
    "runner.cache_hit_ratio": "ratio", "runner.cache_put_s": "s",
    "runner.pool_s": "s", "runner.pool_spawns": "count",
    "runner.worker_busy_ratio": "ratio", "runner.replay_jobs_per_s": "1/s",
    "service.parse_s": "s", "service.submit_s": "s",
    "service.jobs_per_batch": "count", "service.dedup_jobs": "count",
    "service.cache_hits": "count", "service.compiled": "count",
    "service.loop_memo": "count", "service.machine_memo": "count",
    "analysis.experiment_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}
