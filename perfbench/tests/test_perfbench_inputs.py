"""Seeded inputs: the same seed gives the same workload, twice."""

from repro.workloads.kernels import KERNELS
from repro.workloads.synth import SynthConfig

from perfbench import inputs


class _Loop:
    def __init__(self, n_ops, trip_count):
        self.n_ops, self.trip_count = n_ops, trip_count


CORPUS = [_Loop(4 + i % 37, 10 + (i * 7919) % 500) for i in range(400)]
COST = [((i * 104729) % 97) / 1000 for i in range(400)]


def test_sample_repeats_for_a_seed():
    first = inputs.corpus_sample(CORPUS, inputs.RING_SHAPE,
                                 inputs.rng_for("ring_sweep", 3), COST)
    again = inputs.corpus_sample(CORPUS, inputs.RING_SHAPE,
                                 inputs.rng_for("ring_sweep", 3), COST)
    other = inputs.corpus_sample(CORPUS, inputs.RING_SHAPE,
                                 inputs.rng_for("ring_sweep", 4), COST)
    assert first == again
    assert first != other
    shape = inputs.RING_SHAPE
    size = shape.n_heavy + shape.n_costly + shape.n_strata
    assert len(first) == len(set(first)) == size


def test_sample_keeps_excluded_loops_out_and_fixed_strata_in():
    excluded = frozenset(range(0, 400, 3))
    shape = inputs.FIG6_SHAPE
    heavy = sorted(range(400), key=lambda i: -CORPUS[i].n_ops
                   * CORPUS[i].trip_count)[:shape.n_heavy]
    costly = sorted(set(range(400)) - set(heavy),
                    key=lambda i: (COST[i], i))[-shape.n_costly:]
    for seed in range(5):
        picked = inputs.corpus_sample(CORPUS, shape,
                                      inputs.rng_for("fig6_pool", seed),
                                      COST)
        assert set(heavy) | set(costly) <= set(picked)
        picked = inputs.corpus_sample(CORPUS, inputs.FIG6_SHAPE,
                                      inputs.rng_for("fig6_pool", seed),
                                      COST, excluded)
        assert not set(picked) & excluded


def test_service_stream_repeats_for_a_seed():
    def stream(seed):
        return inputs.service_stream(sorted(KERNELS), SynthConfig().n_loops,
                                     inputs.rng_for("service_mix", seed))
    first = stream(11)
    assert first == stream(11)
    assert first != stream(12)
    assert len(first) == len(stream(12))
    assert all(1 <= len(r) <= inputs.SERVICE_MAX_SPECS for r in first)
    synth = {s["loop"]["synth"]["index"] for r in first for s in r
             if "synth" in s["loop"]}
    assert len(synth) == inputs.SERVICE_DEEP + inputs.SERVICE_STRATA


def test_service_synth_loops_span_the_corpus():
    n = SynthConfig().n_loops
    deep = list(range(n - inputs.SERVICE_DEEP, n))
    width = (n - inputs.SERVICE_DEEP) // inputs.SERVICE_STRATA
    depths = set()
    for seed in range(20):
        picked = inputs.service_synth_indices(
            n, inputs.rng_for("service_mix", seed))
        assert picked[inputs.SERVICE_STRATA:] == deep
        for k, index in enumerate(picked[:inputs.SERVICE_STRATA]):
            assert k * width <= index < (k + 1) * width
        depths.add(sum(picked))
    # antithetic pairs: every seed replays the generator to the same depth
    assert len(depths) == 1


def test_cost_table_covers_the_corpus():
    assert len(inputs.corpus_cost(["ring", "unroll"])) == \
        SynthConfig().n_loops


def test_pass_order_repeats_and_varies_by_pass():
    first = inputs.pass_order(50, 7, 1)
    assert first == inputs.pass_order(50, 7, 1)
    assert sorted(first) == list(range(50))
    assert first != inputs.pass_order(50, 7, 2)
