"""Seeded inputs of every workload.

The seed picks the corpus sample and the service request stream; the
program only ever receives the generated loops, machines and job specs.

Samples are stratified so that two seeds give workloads of the same
size and cost.  Two strata are in every sample: the heaviest loops (body
ops x trip count), which dominate the execution-weighted IPC of Fig. 8,
and the costliest to compile, which make the latency tail.  The seed
then draws one loop from each of ``n_strata`` equal strata of the
remaining corpus ordered by compile cost.  The costs (``corpus_cost.json``) were measured once, when the
benchmark was written, and are part of the benchmark's inputs: later
versions of the program draw the same samples.

Jobs that fail on every run, whatever the seed, because of a known fault
(``verify_schedule`` enforces the 16-position queue depth that
``QueueBudget`` says is only measured) are appended to every pass as a
fixed list, and the loops that fail anywhere on a workload's machines
are kept out of the seeded draw: the failed share of a run is then the
same for every seed and run length.  The lists come from compiling the
whole corpus on each workload's machines; ``README.md`` shows how to
repeat that screen.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass
from typing import Sequence

COST_FILE = pathlib.Path(__file__).resolve().parent / "corpus_cost.json"

#: ring machines of Section 4 (clusters), and the QRF points spanning
#: Fig. 8's 4-18 FUs used by the unroll sweep
RING_CLUSTERS = (4, 5, 6)
UNROLL_FUS = (4, 8, 12, 18)
UNROLL_SCHEDULERS = ("ims", "sms")

#: (synth index, clusters) pairs whose schedule the verifier rejects
#: for queue depth; run in every ring_sweep pass
RING_FAILING = ((116, 5), (328, 6), (817, 4), (869, 6), (1157, 6))
#: (synth index, FUs, scheduler) jobs run in every unroll_sweep pass
UNROLL_FAILING = ((241, 18, "ims"), (241, 18, "sms"))
#: loops that fail on some unroll_sweep machine/scheduler (kept out of
#: the seeded draw; screened over all of 4..18 FUs with both schedulers)
UNROLL_EXCLUDED = frozenset({55, 119, 174, 241, 268, 293, 381, 468, 543,
                             636, 709, 903, 1157, 1221})
RING_EXCLUDED = frozenset(i for i, _ in RING_FAILING)


@dataclass(frozen=True)
class SampleShape:
    n_heavy: int
    n_costly: int
    n_strata: int


RING_SHAPE = SampleShape(n_heavy=40, n_costly=8, n_strata=80)
UNROLL_SHAPE = SampleShape(n_heavy=16, n_costly=4, n_strata=16)
FIG6_SHAPE = SampleShape(n_heavy=30, n_costly=16, n_strata=24)


def rng_for(workload: str, seed: int, purpose: str = "") -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{purpose}")


def corpus_cost(kinds: Sequence[str]) -> list[float]:
    """Recorded compile seconds per corpus loop, summed over *kinds*
    (``"ring"``, ``"unroll"``)."""
    table = json.loads(COST_FILE.read_text())
    return [sum(costs) for costs in zip(*(table[k] for k in kinds))]


def corpus_sample(corpus: Sequence, shape: SampleShape, rng: random.Random,
                  cost: Sequence[float],
                  excluded: frozenset = frozenset()) -> list[int]:
    """Indices into *corpus*: the heavy and costly strata plus one seeded
    draw from each cost stratum of the rest, in corpus order."""
    eligible = [i for i in range(len(corpus)) if i not in excluded]

    def weight(i: int) -> int:
        return corpus[i].n_ops * corpus[i].trip_count

    heavy = sorted(eligible, key=lambda i: (-weight(i), i))[:shape.n_heavy]
    rest = sorted(set(eligible) - set(heavy), key=lambda i: (cost[i], i))
    heavy += rest[len(rest) - shape.n_costly:]
    rest = rest[:len(rest) - shape.n_costly]
    width = len(rest) / shape.n_strata
    drawn = [rest[int(k * width) + rng.randrange(max(1, int(width)))]
             for k in range(shape.n_strata)]
    return sorted(heavy + drawn)


# ---------------------------------------------------------------------------
# service_mix request stream
# ---------------------------------------------------------------------------

#: synth loops of the stream.  The first request for synth loop *i*
#: replays the corpus generator up to *i* on the daemon's event loop, so
#: its cost grows with *i*.  The last SERVICE_DEEP loops of the corpus
#: are in every stream (like the sweeps' costly stratum): their replays
#: are the deepest, cost the same, and together form the latency tail
#: that the p99 measures.  The seed draws one more loop from each of
#: SERVICE_STRATA equal strata of the rest of the corpus, in antithetic
#: pairs (offset u in one stratum, width - 1 - u in the next), so the
#: drawn loops span the corpus while their replays add up to the same
#: depth for every seed.
SERVICE_DEEP = 3
SERVICE_STRATA = 4
SERVICE_MACHINES = ({"kind": "qrf", "n_fus": 4}, {"kind": "qrf", "n_fus": 12},
                    {"kind": "clustered", "n_clusters": 4},
                    {"kind": "clustered", "n_clusters": 6})
SERVICE_OPTIONS = (None, {"do_unroll": True})
#: Zipf exponent of spec popularity, and the sends of the most popular
#: spec; rank r is sent max(1, round(SERVICE_TOP / r**SERVICE_ZIPF)) times.
#: These, and the request sizes cycling through 1..SERVICE_MAX_SPECS,
#: are assumptions about the traffic, not measured: the repository keeps
#: no request records.
SERVICE_ZIPF = 1.1
SERVICE_TOP = 180
SERVICE_MAX_SPECS = 6


def service_synth_indices(n_loops: int, rng: random.Random) -> list[int]:
    """The stream's synth loops: one seeded draw per stratum of an
    *n_loops* corpus less its deepest SERVICE_DEEP loops, then those."""
    rest = n_loops - SERVICE_DEEP
    width = rest // SERVICE_STRATA
    drawn = []
    for k in range(0, SERVICE_STRATA, 2):
        offset = rng.randrange(width)
        drawn += [k * width + offset, (k + 2) * width - 1 - offset]
    return drawn + list(range(rest, n_loops))


def service_universe(kernel_names: Sequence[str], n_loops: int,
                     rng: random.Random) -> list[dict]:
    """Every job spec the stream sends, most popular first: the kernels'
    specs in seeded order, then the synth loops' specs, which are the
    least popular (sent once each).  Popular synth specs would put every
    generator replay at the start of the stream, where replays on the
    two connections would overlap and double each other's latency."""
    synth = service_synth_indices(n_loops, rng)
    groups = []
    for loops in ([{"kernel": name} for name in sorted(kernel_names)],
                  [{"synth": {"index": i}} for i in synth]):
        specs = []
        for loop in loops:
            for machine in SERVICE_MACHINES:
                for options in SERVICE_OPTIONS:
                    spec: dict = {"loop": loop, "machine": machine}
                    if options is not None:
                        spec["options"] = options
                    specs.append(spec)
        rng.shuffle(specs)
        groups += specs
    return groups


def service_stream(kernel_names: Sequence[str], n_loops: int,
                   rng: random.Random) -> list[list[dict]]:
    """The request bodies' job lists, in send order.

    Every spec of the universe is sent, the popular ones many times
    (Zipf counts, fixed per rank), so every stream compiles the same
    number of distinct jobs; the seed picks the drawn synth loops, which
    spec holds which rank, the send order and how the sends are cut into
    requests of 1-6 specs.  Each pass sends these requests in its own
    order (``pass_order``).
    """
    universe = service_universe(kernel_names, n_loops, rng)
    sends = [spec for rank, spec in enumerate(universe, start=1)
             for _ in range(max(1, round(SERVICE_TOP
                                         / rank ** SERVICE_ZIPF)))]
    rng.shuffle(sends)
    # request sizes cycle through 1..6 (a fixed multiset, so every
    # stream has the same request count), in seeded order
    sizes = []
    while sum(sizes) < len(sends):
        sizes.append(len(sizes) % SERVICE_MAX_SPECS + 1)
    sizes[-1] -= sum(sizes) - len(sends)
    rng.shuffle(sizes)
    requests = []
    for size in sizes:
        requests.append(sends[:size])
        sends = sends[size:]
    return requests


def pass_order(n_requests: int, seed: int, index: int) -> list[int]:
    """The order in which pass *index* sends the stream's requests.  The
    work of a pass does not depend on it, but which requests overlap on
    the two connections does; a fresh order per pass averages that over
    the passes instead of fixing it per seed."""
    order = list(range(n_requests))
    rng_for("service_mix", seed, f"order:{index}").shuffle(order)
    return order


def spec_identity(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)

