"""The compile-sweep workloads: ring_sweep, unroll_sweep and fig6_pool.

Every run builds its inputs from the seed, makes one untimed warm-up
pass, then timed passes until the run length is used up, each over
fresh copies of the loops (the front-end memo is keyed by loop
identity, so reused loop objects would skip the front end).  Afterwards
it checks every distinct job: the timed outcome must be identical in
every pass and equal to an untimed recompile, whose schedule then goes
through the benchmark's own checker (and, for a seeded subsample,
through the simulator against the sequential reference).
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field

from . import inputs
from .checker import check_schedule, check_simulation, queue_peak
from .common import (WORK_DIR, BenchError, children_peak_rss_mb, median,
                     metric, rate_from_passes, repeat_passes,
                     self_peak_rss_mb, tail_percentile)
from .layers import LayerTrace, layer_metrics

#: passes a run always times, however short its length (the p99 of the
#: per-job latency needs ten samples beyond it)
MIN_PASSES = 5
#: corpus generations timed in set-up; their median is reported
SETUP_REPEATS = 3
#: distinct jobs per run that also go through the simulator
SIM_SAMPLE = 8


@dataclass
class Plan:
    """One workload's inputs: source loops and ``(loop index, machine,
    options)`` job specs; ``failing`` are the specs expected to fail."""

    loops: list
    specs: list
    failing: set = field(default_factory=set)


def load_corpus() -> tuple[list, list, float]:
    """``(corpus, kernels, median generation seconds)``."""
    from repro.workloads.kernels import all_kernels
    from repro.workloads.synth import generate_corpus

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpus = generate_corpus()
        kernels = all_kernels()
        times.append(time.perf_counter() - t0)
    return corpus, kernels, median(times)


def ring_plan(corpus, kernels, seed: int) -> Plan:
    from repro.machine.presets import clustered_machine
    from repro.runner import PipelineOptions

    picked = inputs.corpus_sample(corpus, inputs.RING_SHAPE,
                                  inputs.rng_for("ring_sweep", seed),
                                  inputs.corpus_cost(["ring"]),
                                  inputs.RING_EXCLUDED)
    loops = [corpus[i] for i in picked] + list(kernels)
    machines = {n: clustered_machine(n) for n in inputs.RING_CLUSTERS}
    options = PipelineOptions(copies=True, allocate=True, verify=True)
    specs = [(i, m, options) for m in machines.values()
             for i in range(len(loops))]
    failing = set()
    for index, n in inputs.RING_FAILING:
        loops.append(corpus[index])
        failing.add(len(specs))
        specs.append((len(loops) - 1, machines[n], options))
    return Plan(loops, specs, failing)


def unroll_plan(corpus, kernels, seed: int) -> Plan:
    from repro.machine.presets import qrf_machine
    from repro.runner import PipelineOptions

    picked = inputs.corpus_sample(corpus, inputs.UNROLL_SHAPE,
                                  inputs.rng_for("unroll_sweep", seed),
                                  inputs.corpus_cost(["unroll"]),
                                  inputs.UNROLL_EXCLUDED)
    loops = [corpus[i] for i in picked] + list(kernels)
    machines = {n: qrf_machine(n) for n in inputs.UNROLL_FUS}
    options = {s: PipelineOptions(do_unroll=True, copies=True,
                                  allocate=True, verify=True, scheduler=s)
               for s in inputs.UNROLL_SCHEDULERS}
    specs = [(i, m, o) for o in options.values() for m in machines.values()
             for i in range(len(loops))]
    failing = set()
    position: dict[int, int] = {}
    for index, n, scheduler in inputs.UNROLL_FAILING:
        if index not in position:
            position[index] = len(loops)
            loops.append(corpus[index])
        failing.add(len(specs))
        specs.append((position[index], machines[n], options[scheduler]))
    return Plan(loops, specs, failing)


def fresh_jobs(plan: Plan) -> list:
    from repro.runner import CompileJob

    copies = [ddg.copy() for ddg in plan.loops]
    return [CompileJob(copies[i], m, o) for i, m, o in plan.specs]


def serial_pass(plan: Plan, keep: "list | None" = None
                ) -> tuple[float, list, list]:
    """``(seconds, per-job seconds, results)`` of one pass; the jobs go
    to *keep* (only the last pass's loops stay alive)."""
    from repro.runner import execute_job

    jobs = fresh_jobs(plan)
    latencies = []
    results = []
    clock = time.perf_counter
    start = clock()
    for job in jobs:
        t0 = clock()
        results.append(execute_job(job))
        latencies.append(clock() - t0)
    wall = clock() - start
    if keep is not None:
        keep[:] = jobs
    return wall, latencies, results


def outcome_metrics(results) -> dict:
    """ΣII/ΣMII, execution-weighted dynamic IPC and mean queue count of
    the successful jobs (deterministic for a seed)."""
    ok = [r.outcome for r in results if not r.outcome.failed]
    if not ok:
        raise BenchError("no job compiled")
    queues = [o.total_queues for o in ok if o.total_queues is not None]
    return {
        "ii_over_mii": sum(o.ii for o in ok) / sum(o.mii for o in ok),
        "dyn_ipc": (sum(o.total_ops for o in ok)
                    / sum(o.total_cycles for o in ok)),
        "queues_per_loop": sum(queues) / len(queues) if queues else 0.0,
    }


def check_jobs(jobs, passes_results, seed: int, workload: str,
               failing: set) -> tuple[list[str], int]:
    """Every pass identical; failures exactly the expected ones; every
    successful job's recompiled schedule legal; a seeded subsample
    simulated.  Also ``(problems, deepest queue)``: each expected
    failure, recompiled without the program's verifier, must be a legal
    schedule whose queues are deeper than the machine's nominal
    positions -- the one rule it broke is the depth rule that
    ``QueueBudget`` says is measured, not enforced."""
    problems: list[str] = []
    deepest = 0
    first = passes_results[0]
    for k, results in enumerate(passes_results[1:], start=1):
        if results != first:
            problems.append(f"pass {k} results differ from pass 0")
    ok_positions = []
    for pos, result in enumerate(first):
        expected_failure = pos in failing
        if result.outcome.failed != expected_failure:
            problems.append(f"{result.outcome.loop} on "
                            f"{result.outcome.machine}: failed="
                            f"{result.outcome.failed} ({result.outcome.error})")
        elif expected_failure and not (result.outcome.error or "").startswith(
                "VerificationError"):
            problems.append(f"{result.outcome.loop}: unexpected failure "
                            f"kind {result.outcome.error}")
        elif not expected_failure:
            ok_positions.append(pos)
        else:
            found, peak = recompile_and_check(jobs[pos], None)
            problems += found
            deepest = max(deepest, peak)
            if peak <= jobs[pos].machine.queue_budget.positions:
                problems.append(f"{result.outcome.loop} on "
                                f"{result.outcome.machine}: rejected, yet "
                                f"its queues fit {peak} deep")
    rng = inputs.rng_for(workload, seed, "simulate")
    simulated = set(rng.sample(ok_positions,
                               min(SIM_SAMPLE, len(ok_positions))))
    for pos in ok_positions:
        found, peak = recompile_and_check(jobs[pos], first[pos].outcome,
                                          simulate=pos in simulated)
        problems += found
        deepest = max(deepest, peak)
    return problems, deepest


def recompile_and_check(job, outcome, simulate: bool = False
                        ) -> tuple[list[str], int]:
    """Recompile *job* untimed; the outcome must equal the timed one and
    the schedule must pass the benchmark's checker (and, if asked, the
    simulator-versus-reference check).  ``(problems, deepest queue)``.

    ``outcome=None`` marks a job the program's verifier rejects: it is
    recompiled without the verifier, and only its schedule is checked.
    """
    from repro.runner import compile_loop

    kwargs = job.options.compile_kwargs()
    if outcome is None:
        kwargs["verify"] = False
    compiled = compile_loop(job.ddg, job.machine, **kwargs)
    where = f"{job.ddg.name} on {job.machine.name}"
    if outcome is not None and compiled.outcome != outcome:
        return [f"{where}: recompiled outcome differs"], 0
    if compiled.outcome.failed:
        return [f"{where}: no schedule to check"], 0
    problems = check_schedule(compiled.schedule, job.machine, compiled.usage,
                              max_depth=compiled.outcome.max_queue_depth)
    if compiled.schedule.ii != compiled.outcome.ii:
        problems.append("outcome II is not the schedule's")
    peak = 0
    if compiled.usage is not None:
        peak = queue_peak(compiled.schedule, job.machine, compiled.usage)
        if simulate and not problems:
            problems += check_simulation(compiled.schedule, compiled.usage,
                                         job.machine)
    return [f"{where}: {p}" for p in problems], peak


# ---------------------------------------------------------------------------
# serial sweeps
# ---------------------------------------------------------------------------

def run_serial(workload: str, seed: int, seconds: float, traced: bool,
               import_s: float) -> dict:
    corpus, kernels, corpus_s = load_corpus()
    plan = (ring_plan if workload == "ring_sweep" else unroll_plan)(
        corpus, kernels, seed)
    warm_s, _lat, _res = serial_pass(plan)
    setup_s = import_s + corpus_s + warm_s

    layer = LayerTrace() if traced else None
    arena0 = _arena()
    jobs: list = []
    plain, traced_out = repeat_passes(
        lambda use_trace: _maybe_traced(layer if use_trace else None,
                                        serial_pass, plan, jobs),
        seconds, traced, MIN_PASSES)
    peak = self_peak_rss_mb()
    passes = plain + traced_out
    all_results = [results for _w, _l, results in passes]
    problems, deepest = check_jobs(jobs, all_results, seed, workload,
                                   plan.failing)
    quality = outcome_metrics(all_results[0])
    quality["peak_queue_depth"] = deepest
    result = {
        "correct": not problems,
        "attempted": len(passes) * len(plan.specs),
        "failed": len(passes) * len(plan.failing),
        "problems": problems,
    }
    walls = [p[0] for p in plain]
    if layer is None:
        latencies = [t for p in plain for t in p[1]]
        result["metrics"] = {
            "setup_s": metric(setup_s, "s"),
            "jobs_per_s": metric(rate_from_passes(len(plan.specs), walls),
                                 "1/s"),
            "lat_ms_p50": metric(1000 * tail_percentile(latencies, 50), "ms"),
            "lat_ms_p99": metric(1000 * tail_percentile(latencies, 99), "ms"),
            "peak_rss_mb": metric(peak, "MiB"),
            "ii_over_mii": metric(quality["ii_over_mii"], "ratio"),
            "dyn_ipc": metric(quality["dyn_ipc"], "ops/cycle"),
        }
    else:
        result["metrics"] = layer_metrics(
            layer, [p[0] for p in traced_out], walls, quality,
            arena=_arena_delta(arena0))
    return result


def _maybe_traced(layer, run_pass, *args):
    """One pass, with the layer wrappers installed when *layer* is set."""
    if layer is None:
        return run_pass(*args)
    layer.install()
    try:
        return run_pass(*args)
    finally:
        layer.uninstall()


def _arena() -> dict:
    from repro.sched import arena_counters
    return dict(arena_counters())


def _arena_delta(before: dict) -> dict:
    after = _arena()
    return {k: after[k] - before[k] for k in ("hits", "allocs")}


# ---------------------------------------------------------------------------
# fig6_pool
# ---------------------------------------------------------------------------

FIG6_WORKERS = 2


def fig6_pass(loops_src: list, index: int
              ) -> tuple[float, float, object, object]:
    """One cold sweep into a fresh cache, then its replay from a fresh
    handle on the same store: ``(cold s, replay s, cold, replay)``."""
    from repro.analysis import experiments
    from repro.runner import RunnerConfig, ShardedResultCache
    from repro.runner.pool import close_all_sessions

    loops = [ddg.copy() for ddg in loops_src]
    store = WORK_DIR / f"fig6-cache-{index}"
    shutil.rmtree(store, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        cold = experiments.fig6_ii_variation(loops, runner=RunnerConfig(
            n_workers=FIG6_WORKERS, cache=ShardedResultCache(store)))
        t1 = time.perf_counter()
        replay = experiments.fig6_ii_variation(loops, runner=RunnerConfig(
            n_workers=FIG6_WORKERS, cache=ShardedResultCache(store)))
        t2 = time.perf_counter()
    finally:
        # one pass is one `repro-vliw --jobs 2 experiment` invocation:
        # its worker pool and payload tables end with it
        close_all_sessions()
        shutil.rmtree(store, ignore_errors=True)
    return t1 - t0, t2 - t1, cold, replay


class RunJobsRecorder:
    """Keeps the ``(jobs, results)`` of every sweep wave that
    ``fig6_ii_variation`` runs -- one list append per wave, so it stays
    on in timed passes.  Only the first two waves keep their jobs (and
    so their loops) alive; later ones keep ``None``."""

    def __init__(self) -> None:
        self.calls: list = []

    def __enter__(self) -> "RunJobsRecorder":
        from repro.analysis import experiments
        self._original = original = experiments.run_jobs

        def run_jobs(jobs, config=None):
            jobs = list(jobs)
            results = original(jobs, config)
            self.calls.append((jobs if len(self.calls) < 2 else None,
                               results))
            return results
        experiments.run_jobs = run_jobs
        return self

    def __exit__(self, *exc) -> None:
        from repro.analysis import experiments
        experiments.run_jobs = self._original


def run_fig6(seed: int, seconds: float, traced: bool,
             import_s: float) -> dict:
    corpus, kernels, corpus_s = load_corpus()
    picked = inputs.corpus_sample(corpus, inputs.FIG6_SHAPE,
                                  inputs.rng_for("fig6_pool", seed),
                                  inputs.corpus_cost(["ring", "unroll"]))
    loops = [corpus[i] for i in picked] + list(kernels)
    n_jobs = 2 * len(inputs.RING_CLUSTERS) * len(loops)
    WORK_DIR.mkdir(parents=True, exist_ok=True)

    layer = LayerTrace() if traced else None
    with RunJobsRecorder() as recorder:
        t_warm = time.perf_counter()
        fig6_pass(loops, 0)
        setup_s = import_s + corpus_s + time.perf_counter() - t_warm
        recorder.calls.clear()
        arena0 = _arena()
        count = iter(range(1, 1 << 30))
        passes, traced_passes = repeat_passes(
            lambda use_trace: _maybe_traced(layer if use_trace else None,
                                            fig6_pass, loops, next(count)),
            seconds, traced, MIN_PASSES)
    peak = max(self_peak_rss_mb(), children_peak_rss_mb())
    problems = check_fig6(recorder.calls, passes + traced_passes, seed)
    quality = outcome_metrics(recorder.calls[0][1] + recorder.calls[1][1])
    n_passes = len(passes) + len(traced_passes)
    result = {"correct": not problems,
              "attempted": n_passes * 2 * n_jobs, "failed": 0,
              "problems": problems}
    if layer is None:
        # worker-side compile time of each cold job: the pool hides
        # per-job timing from the caller
        walls = [r.wall_s for _jobs, results in recorder.calls[0::4] +
                 recorder.calls[1::4] for r in results]
        result["metrics"] = {
            "setup_s": metric(setup_s, "s"),
            "jobs_per_s": metric(rate_from_passes(
                n_jobs, [p[0] for p in passes]), "1/s"),
            "lat_ms_p50": metric(1000 * tail_percentile(walls, 50), "ms"),
            "lat_ms_p99": metric(1000 * tail_percentile(walls, 99), "ms"),
            "peak_rss_mb": metric(peak, "MiB"),
            "ii_over_mii": metric(quality["ii_over_mii"], "ratio"),
            "dyn_ipc": metric(quality["dyn_ipc"], "ops/cycle"),
        }
    else:
        arena = _arena_delta(arena0)
        result["metrics"] = layer_metrics(
            layer, [p[0] + p[1] for p in traced_passes],
            [p[0] + p[1] for p in passes], quality, arena=arena,
            replay_rate=rate_from_passes(
                n_jobs, [p[1] for p in passes]),
            n_workers=FIG6_WORKERS)
    return result


def check_fig6(calls: list, passes: list, seed: int) -> list[str]:
    """Replay equals cold run, every pass equals the first, parallel
    results equal serial ``execute_job`` on a seeded subsample, and every
    successful job's recompiled schedule is legal."""
    from repro.runner import execute_job

    problems: list[str] = []
    if len(calls) != 4 * len(passes):
        return [f"expected 4 sweep waves per pass, saw {len(calls)}"]
    cold0 = passes[0][2]
    for k, (_c, _r, cold, replay) in enumerate(passes):
        if replay != cold:
            problems.append(f"pass {k}: replayed Fig. 6 differs from cold")
        if cold != cold0:
            problems.append(f"pass {k}: Fig. 6 differs from pass 0")
    for k in range(len(passes)):
        for wave in (0, 1):
            _jobs, cold = calls[4 * k + wave]
            _jobs, replay = calls[4 * k + 2 + wave]
            if replay != cold or not all(r.cached for r in replay):
                problems.append(f"pass {k} wave {wave}: replay is not the "
                                f"cached cold result")
            if [r.outcome for r in cold] != \
                    [r.outcome for r in calls[wave][1]]:
                problems.append(f"pass {k} wave {wave}: outcomes differ "
                                f"from pass 0")
    rng = inputs.rng_for("fig6_pool", seed, "serial")
    for wave in (0, 1):
        jobs, results = calls[wave]
        serial = set(rng.sample(range(len(jobs)), min(24, len(jobs))))
        for pos, (job, result) in enumerate(zip(jobs, results)):
            where = f"{job.ddg.name} on {job.machine.name}"
            if result.outcome.failed:
                problems.append(f"{where}: failed ({result.outcome.error})")
                continue
            if pos in serial and execute_job(job) != result:
                problems.append(f"{where}: parallel result differs from "
                                f"serial execute_job")
            problems += recompile_and_check(job, result.outcome)[0]
    return problems
