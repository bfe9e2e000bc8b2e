"""The benchmark's schedule checker accepts the program's schedules and
rejects every corruption in the verifier's mutation corpus."""

import pytest

from repro.machine.presets import clustered_machine, qrf_machine
from repro.regalloc.queues import allocate_for_schedule
from repro.runner import compile_loop
from repro.verify.mutate import mutation_corpus
from repro.workloads.kernels import kernel

from perfbench.checker import (check_schedule, check_simulation,
                               queue_peak, res_mii)

KERNELS = ("daxpy", "fir4", "iir1", "cmul", "hydro1", "redtree", "rec3",
           "state2", "wide8")
MACHINES = (clustered_machine(4), clustered_machine(6), qrf_machine(4),
            qrf_machine(12))


def _compiled(name, machine):
    compiled = compile_loop(kernel(name), machine, copies=True,
                            allocate=True)
    assert not compiled.outcome.failed
    return compiled


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("name", KERNELS)
def test_accepts_program_schedules(name, machine):
    compiled = _compiled(name, machine)
    assert check_schedule(compiled.schedule, machine, compiled.usage) == []
    assert check_simulation(compiled.schedule, compiled.usage, machine) == []
    assert compiled.schedule.ii >= res_mii(compiled.schedule.ddg, machine)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("name", KERNELS)
def test_rejects_every_mutant(name, machine):
    """Every corrupted schedule is rejected.  ``shrink-queue`` corrupts
    the machine, not the schedule: it lowers the nominal queue positions
    below the schedule's peak.  Queue depth is measured, not enforced
    (``QueueBudget``), so the checker accepts that schedule and
    ``queue_peak`` measures a depth above the shrunk positions."""
    compiled = _compiled(name, machine)
    mutants = mutation_corpus(compiled.schedule, machine, seed=7, rounds=3)
    assert mutants
    clustered = hasattr(machine, "n_clusters")
    for mutant in mutants:
        try:
            usage = allocate_for_schedule(
                mutant.schedule, mutant.machine if clustered else None)
        except (KeyError, ValueError):  # the corruption breaks allocation
            usage = None
        problems = check_schedule(mutant.schedule, mutant.machine, usage)
        if mutant.name == "shrink-queue":
            assert problems == []
            assert queue_peak(mutant.schedule, mutant.machine, usage) > \
                mutant.machine.queue_budget.positions
        else:
            assert problems, f"{mutant.name}: {mutant.description}"


def test_queue_replay_rejects_fifo_reordering():
    # two values written 1 cycle apart whose reads swap order
    from perfbench.checker import _replay_queue
    assert _replay_queue([(0, 5), (1, 3)], 4, "q")[0]
    assert _replay_queue([(0, 3), (1, 4)], 4, "q") == ([], 2)


def test_queue_depth_is_measured_not_enforced():
    # three instances of a 9-cycle lifetime overlap at II 4: a legal
    # queue three deep, whatever the machine's nominal positions
    from perfbench.checker import _replay_queue
    assert _replay_queue([(0, 9)], 4, "q") == ([], 3)


@pytest.mark.parametrize("name", KERNELS)
def test_reported_depth_must_cover_the_replayed_peak(name):
    machine = clustered_machine(4)
    compiled = _compiled(name, machine)
    depth = compiled.outcome.max_queue_depth
    assert check_schedule(compiled.schedule, machine, compiled.usage,
                          max_depth=depth) == []
    if depth > 1:
        assert check_schedule(compiled.schedule, machine, compiled.usage,
                              max_depth=0)


def test_rejects_ii_below_own_res_mii():
    import dataclasses

    machine = qrf_machine(4)
    for name in KERNELS:
        sched = _compiled(name, machine).schedule
        bound = res_mii(sched.ddg, machine)
        if bound < 2:
            continue
        squeezed = dataclasses.replace(sched, ii=bound - 1)
        assert any("ResMII" in p for p in check_schedule(squeezed, machine))
        return
    pytest.fail("no kernel with ResMII >= 2 on the 4-FU machine")
