"""The benchmark's own schedule checks, written apart from ``repro.verify``.

``check_schedule`` re-derives every property a legal modulo schedule of
a clustered queue machine must have from the loop, the machine
description and the schedule alone, and returns the violations it found
(an empty list means the schedule is legal):

* every op of the loop is placed exactly once, at a cycle >= 0, on a
  cluster that exists;
* every dependence edge holds: ``sigma(dst) + d*II >= sigma(src) + lat``,
  plus the inter-cluster latency when a DATA edge crosses clusters;
* per cluster, the ops of each FU pool on every modulo row fit the
  pool's capacity;
* every cross-cluster DATA edge goes to an adjacent ring cluster;
* II is at least a ResMII computed here from op counts and capacities;
* when the program's queue allocation is given: every DATA edge sits in
  exactly one queue of the right queue set, and the values sharing a
  queue leave it in the order they entered (checked by replaying the
  periodic writes and reads).  Queue depth is measured, not enforced:
  ``QueueBudget`` says the allocator reports the positions a queue needs
  rather than failing, so the only depth check is that no queue holds
  more values in steady state than the depth the program reports for
  the schedule (``max_depth``, when given).

``check_simulation`` runs the program's VLIW simulator and compares the
tokens it delivers with the sequential reference of ``repro.sim.reference``.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.ir.ddg import DepKind
from repro.ir.operations import FuType

#: FU pool that executes each FU class (MOVE runs on the copy unit)
_POOL = {FuType.LS: FuType.LS, FuType.ADD: FuType.ADD,
         FuType.MUL: FuType.MUL, FuType.COPY: FuType.COPY,
         FuType.MOVE: FuType.COPY}


def _cluster_fus(machine) -> tuple[dict, int, int]:
    """``(per-cluster unit counts, n_clusters, inter-cluster latency)``."""
    if hasattr(machine, "n_clusters"):
        return (dict(machine.cluster.fus.counts), machine.n_clusters,
                machine.inter_cluster_latency)
    return dict(machine.fus.counts), 1, 0


def _hops(a: int, b: int, n: int) -> int:
    d = (a - b) % n
    return min(d, n - d)


def res_mii(ddg, machine) -> int:
    """max over pools of ceil(ops using the pool / units machine-wide)."""
    units, n_clusters, _ = _cluster_fus(machine)
    demand = Counter(_POOL[ddg.op(o).fu_type] for o in ddg.op_ids)
    bound = 1
    for pool, n_ops in demand.items():
        total = units.get(pool, 0) * n_clusters
        if total == 0:
            raise ValueError(f"{machine.name} has no {pool.value} unit")
        bound = max(bound, -(-n_ops // total))
    return bound


def check_schedule(sched, machine, usage=None,
                   max_depth: Optional[int] = None) -> list[str]:
    """Violations of *sched* on *machine* (and of *usage*, the program's
    queue allocation for it, when given; *max_depth* is the queue depth
    the program reports for it)."""
    ddg = sched.ddg
    ii = sched.ii
    sigma = sched.sigma
    units, n_clusters, xlat = _cluster_fus(machine)
    cluster = {o: sched.cluster_of.get(o, 0) for o in sigma}
    problems: list[str] = []

    ops = set(ddg.op_ids)
    if set(sigma) != ops:
        problems.append(f"placed ops differ from the loop's: missing "
                        f"{sorted(ops - set(sigma))}, unknown "
                        f"{sorted(set(sigma) - ops)}")
    for o in sorted(ops & set(sigma)):
        if sigma[o] < 0:
            problems.append(f"op {o} issues at cycle {sigma[o]}")
        if not 0 <= cluster[o] < n_clusters:
            problems.append(f"op {o} on cluster {cluster[o]} of "
                            f"{n_clusters}")
    if problems:
        return problems

    if ii < res_mii(ddg, machine):
        problems.append(f"II {ii} below ResMII {res_mii(ddg, machine)}")

    for e in ddg.edges():
        crossing = cluster[e.src] != cluster[e.dst]
        need = e.latency + (xlat if crossing and e.kind is DepKind.DATA
                            else 0)
        if sigma[e.dst] + e.distance * ii < sigma[e.src] + need:
            problems.append(f"edge {e.src}->{e.dst} (lat {e.latency}, "
                            f"d {e.distance}) broken at II {ii}")
        if crossing and e.kind is DepKind.DATA and \
                _hops(cluster[e.src], cluster[e.dst], n_clusters) > 1:
            problems.append(f"value {e.src}->{e.dst} crosses clusters "
                            f"{cluster[e.src]}->{cluster[e.dst]}, not "
                            f"ring neighbours")

    rows = Counter((cluster[o], _POOL[ddg.op(o).fu_type], sigma[o] % ii)
                   for o in ops)
    for (cl, pool, row), used in sorted(rows.items(),
                                        key=lambda kv: str(kv[0])):
        if used > units.get(pool, 0):
            problems.append(f"cluster {cl} row {row}: {used} ops on "
                            f"{units.get(pool, 0)} {pool.value} unit(s)")

    if usage is not None and not problems:
        problems += _check_queues(sched, usage, cluster, n_clusters,
                                  max_depth)
    return problems


def _queue_set(src_cl: int, dst_cl: int, n: int) -> tuple[str, int]:
    if src_cl == dst_cl:
        return "private", src_cl
    if (src_cl + 1) % n == dst_cl:
        return "ring_cw", src_cl
    return "ring_ccw", src_cl


def _queue_contents(sched, usage, cluster, n_clusters
                    ) -> tuple[list[str], list[tuple[str, list]]]:
    """``(problems, [(queue name, [(write, read)] of its values)])``:
    every DATA edge must sit in exactly one queue of its queue set."""
    ii = sched.ii
    sigma = sched.sigma
    problems: list[str] = []
    lifetimes = {}
    for e in sched.ddg.data_edges():
        start = sigma[e.src] + e.latency
        end = sigma[e.dst] + e.distance * ii
        lifetimes[(e.src, e.dst, e.key)] = (
            start, end, _queue_set(cluster[e.src], cluster[e.dst],
                                   n_clusters))
    seen: Counter = Counter()
    queues = []
    for loc, alloc in usage.by_location.items():
        where = (loc.kind.value, loc.cluster)
        for q_index, queue in enumerate(alloc.queues):
            members = []
            for lt in queue:
                edge = (lt.producer, lt.consumer, lt.edge_key)
                seen[edge] += 1
                if edge not in lifetimes:
                    problems.append(f"queue {where}#{q_index} holds "
                                    f"{edge}, not a value of the loop")
                    continue
                start, end, home = lifetimes[edge]
                if home != where:
                    problems.append(f"value {edge} allocated in {where}, "
                                    f"belongs in {home}")
                members.append((start, end))
            queues.append((f"{where}#{q_index}", members))
    for edge in lifetimes:
        if seen[edge] != 1:
            problems.append(f"value {edge} sits in {seen[edge]} queues")
    return problems, queues


def _check_queues(sched, usage, cluster, n_clusters,
                  max_depth: Optional[int]) -> list[str]:
    problems, queues = _queue_contents(sched, usage, cluster, n_clusters)
    for name, members in queues:
        found, peak = _replay_queue(members, sched.ii, name)
        problems += found
        if max_depth is not None and peak > max_depth:
            problems.append(f"queue {name}: {peak} values live, the "
                            f"program reports depth {max_depth}")
    return problems


def queue_peak(sched, machine, usage) -> int:
    """The most values any queue of *usage* holds in steady state."""
    _units, n_clusters, _x = _cluster_fus(machine)
    cluster = {o: sched.cluster_of.get(o, 0) for o in sched.sigma}
    _problems, queues = _queue_contents(sched, usage, cluster, n_clusters)
    return max((_replay_queue(members, sched.ii, name)[1]
                for name, members in queues), default=0)


def _replay_queue(members: list[tuple[int, int]], ii: int,
                  name: str) -> tuple[list[str], int]:
    """Replay the periodic writes and reads of one queue over enough
    iterations to reach steady state: one write and one read per cycle,
    first in first out.  Returns the violations and the steady-state
    peak of values held."""
    if not members:
        return [], 0
    periods = max(end - start for start, end in members) // ii + 3
    tokens = [(start + k * ii, end + k * ii)
              for start, end in members for k in range(periods)]
    writes = sorted(w for w, _ in tokens)
    reads = sorted(r for _, r in tokens)
    problems = []
    if len(set(writes)) != len(writes):
        problems.append(f"queue {name}: two writes in one cycle")
    if len(set(reads)) != len(reads):
        problems.append(f"queue {name}: two reads in one cycle")
    if [r for _, r in sorted(tokens)] != reads:
        problems.append(f"queue {name}: values leave out of order")
    # steady-state occupancy at each phase: an instance written at w and
    # read at r holds a position over [w, r)
    base = (max(end for _, end in members) // ii + 1) * ii
    peak = max(sum((base + phase - start) // ii
                   - (base + phase - end) // ii
                   for start, end in members)
               for phase in range(ii))
    return problems, peak


def check_simulation(sched, usage, machine,
                     iterations: Optional[int] = None) -> list[str]:
    """Run ``repro.sim.vliwsim`` and compare every token it delivers with
    the sequential reference."""
    from repro.sim import qrf
    from repro.sim.reference import enumerate_expected, value_token
    from repro.sim.vliwsim import SimulationError, simulate

    units, _n, _x = _cluster_fus(machine)
    n = iterations or sched.stage_count + 3
    delivered: list = []
    original_pop = qrf.FifoQueue.pop

    def recording_pop(self, cycle):
        token = original_pop(self, cycle)
        delivered.append(token)
        return token

    qrf.FifoQueue.pop = recording_pop
    try:
        report = simulate(sched, usage, iterations=n, capacities=units)
    except SimulationError as exc:
        return [f"simulator diverged: {exc}"]
    finally:
        qrf.FifoQueue.pop = original_pop
    expected = [c.token for c in enumerate_expected(sched.ddg, n)]
    # the last d values of every distance-d edge are drained by the
    # epilogue
    expected += [value_token(e.src, k) for e in sched.ddg.data_edges()
                 for k in range(n - e.distance, n)]
    if Counter(delivered) != Counter(expected):
        return [f"simulator delivered {len(delivered)} tokens, reference "
                f"expects {len(expected)}; multisets differ"]
    if report.ops_executed != n * len(sched.ddg.op_ids):
        return [f"simulator executed {report.ops_executed} ops, expected "
                f"{n * len(sched.ddg.op_ids)}"]
    return []
