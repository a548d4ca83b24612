"""The simulator and the campaign layer build no reference cycles.

``Environment.run`` pauses the cyclic garbage collector for the length
of its loop (``docs/performance.md``, "Kernel — no reference cycles,
collector paused in ``run()``").  That is only safe while everything a
simulation discards is freed by reference counting alone, so every
case below runs with the collector off and then asks it to find
garbage: it must find none.  A campaign run keeps to the same rule, so
its records are freed the moment the caller drops them.

Failing runs are out of scope: an exception's traceback is a cycle by
design (frame → traceback → frame).
"""

import dataclasses
import gc
from collections import Counter

import pytest

from repro.campaigns import (
    CampaignSpec,
    UnitSpec,
    execute_unit,
    freeze_params,
    run_campaign,
    shard_specs,
)
from repro.campaigns.shards import BROADCAST_CELL_KIND
from repro.campaigns.store import SqliteStore
from repro.network.topology import Mesh
from repro.traffic.workload import MixedTrafficConfig, MixedTrafficSimulation


def cyclic_garbage(run):
    """Run ``run()`` with the collector off; count what only it can free.

    Returns ``(count, kinds)``: the objects a full collection found
    unreachable afterwards, and their type names for the failure
    message.
    """
    was_enabled = gc.isenabled()
    while gc.collect():  # earlier tests' garbage, finalizers included
        pass
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return found, kinds.most_common(8)


def broadcast_unit(algorithm, kind="broadcast", **params):
    return UnitSpec(
        experiment="fig1",
        kind=kind,
        algorithm=algorithm,
        dims=(4, 4, 4),
        length_flits=64,
        seed=0,
        replication=0,
        params=freeze_params(
            sources_count=params.pop("sources_count", 2),
            startup_latency=1.5,
            **params,
        ),
    )


def traffic_unit(shards=None):
    return UnitSpec(
        experiment="fig3",
        kind="traffic",
        algorithm="DB",
        dims=(4, 4, 4),
        length_flits=32,
        seed=0,
        load=2.0,
        params=freeze_params(
            broadcast_fraction=0.1,
            batch_size=8,
            num_batches=5,
            discard=1,
            max_sim_time_us=30_000.0,
            shards=shards,
        ),
    )


def cell_unit():
    return broadcast_unit("EDN", kind=BROADCAST_CELL_KIND, sources_count=4)


@pytest.mark.parametrize("engine", ["batched", "event"])
@pytest.mark.parametrize("algorithm", ["RD", "EDN", "DB", "AB"])
def test_broadcast_unit_is_cycle_free(algorithm, engine):
    found, kinds = cyclic_garbage(
        lambda: execute_unit(broadcast_unit(algorithm), engine=engine)
    )
    assert found == 0, kinds


@pytest.mark.parametrize("engine", ["batched", "event"])
def test_broadcast_cell_is_cycle_free(engine):
    found, kinds = cyclic_garbage(
        lambda: execute_unit(cell_unit(), engine=engine)
    )
    assert found == 0, kinds


def test_broadcast_shard_is_cycle_free():
    shard = shard_specs(cell_unit(), 2)[0]
    found, kinds = cyclic_garbage(lambda: execute_unit(shard))
    assert found == 0, kinds


def test_campaign_run_into_sqlite_is_cycle_free(tmp_path):
    units = tuple(
        dataclasses.replace(broadcast_unit("DB"), replication=r)
        for r in range(2)
    )
    spec = CampaignSpec(name="cycles", seed=0, units=units)
    store = SqliteStore(str(tmp_path / "cycles.sqlite"))
    records = []
    found, kinds = cyclic_garbage(
        lambda: records.extend(run_campaign(spec, store=store))
    )
    assert [r.ok for r in records] == [True, True]
    assert found == 0, kinds


def test_traffic_unit_is_cycle_free():
    found, kinds = cyclic_garbage(lambda: execute_unit(traffic_unit()))
    assert found == 0, kinds


def test_traffic_shard_is_cycle_free():
    shard = shard_specs(traffic_unit(shards=2))[0]
    found, kinds = cyclic_garbage(lambda: execute_unit(shard))
    assert found == 0, kinds


@pytest.mark.parametrize("algorithm", ["EDN", "DB", "AB"])
def test_capped_traffic_run_with_worms_in_flight_is_cycle_free(algorithm):
    # A 6 µs cap at a load this high stops the run with worms queued
    # for channels, holding channels and holding in the heap.
    config = MixedTrafficConfig(
        load_messages_per_ms=60.0,
        batch_size=8,
        num_batches=5,
        max_sim_time_us=6.0,
        seed=1,
    )
    stats = []

    def run():
        simulation = MixedTrafficSimulation(Mesh((4, 4, 4)), algorithm, config)
        stats.append(simulation.run())

    found, kinds = cyclic_garbage(run)
    (result,) = stats
    assert result.saturated
    assert result.operations_completed < result.operations_generated
    assert found == 0, kinds
