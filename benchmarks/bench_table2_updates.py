"""Table 2: batch & single update times, +/-.

Paper shape to reproduce: DHL+/DHL- are ~3-4x faster than IncH2H+/- on
every network; decreases are cheaper than increases for both methods;
single updates cost more per edge than batched ones.
"""

from __future__ import annotations

import pytest

from conftest import quiet

from repro.experiments.workloads import double_weights, restore_weights

METHODS = ["DHL", "IncH2H"]


def _index(method, name, dhl_indexes, inch2h_indexes):
    return dhl_indexes[name] if method == "DHL" else inch2h_indexes[name]


@pytest.mark.benchmark(group="table2-batch-increase")
@pytest.mark.parametrize("method", METHODS)
def test_batch_increase(
    benchmark, method, dataset, dhl_indexes, inch2h_indexes, update_batches
):
    index = _index(method, dataset, dhl_indexes, inch2h_indexes)
    batch = update_batches[dataset]
    inc, dec = double_weights(batch), restore_weights(batch)
    benchmark.extra_info["batch_size"] = len(batch)
    benchmark.pedantic(
        lambda: index.increase(inc),
        setup=quiet(lambda: index.decrease(dec)),
        rounds=5,
        iterations=1,
    )
    index.decrease(dec)


@pytest.mark.benchmark(group="table2-batch-decrease")
@pytest.mark.parametrize("method", METHODS)
def test_batch_decrease(
    benchmark, method, dataset, dhl_indexes, inch2h_indexes, update_batches
):
    index = _index(method, dataset, dhl_indexes, inch2h_indexes)
    batch = update_batches[dataset]
    inc, dec = double_weights(batch), restore_weights(batch)
    benchmark.extra_info["batch_size"] = len(batch)
    benchmark.pedantic(
        lambda: index.decrease(dec),
        setup=quiet(lambda: index.increase(inc)),
        rounds=5,
        iterations=1,
    )
    index.decrease(dec)


@pytest.mark.benchmark(group="table2-single")
@pytest.mark.parametrize("method", METHODS)
def test_single_updates(
    benchmark, method, dataset, dhl_indexes, inch2h_indexes, update_batches
):
    """Single-update setting: one edge doubled then restored per call."""
    index = _index(method, dataset, dhl_indexes, inch2h_indexes)
    batch = update_batches[dataset][:50]

    def cycle():
        for u, v, w in batch:
            index.increase([(u, v, 2 * w)])
            index.decrease([(u, v, w)])

    benchmark.extra_info["updates_per_round"] = 2 * len(batch)
    benchmark(cycle)
