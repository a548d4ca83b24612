"""Per-layer probes: fixed micro-measurements beside each traced workload.

Spans round public calls cannot see inside a layer, so each layer also
gets a probe: one fixed operation, timed from outside, repeated enough
for a stable median.  A probe group runs right after its workload's
traced pass, as ``probe.*`` sibling spans under the same root, and its
numbers land in that workload's section — the workload whose
end-to-end metric the probed layer should move (README, interaction
table).  ``metrics/``, ``routing/`` and ``analysis/`` get no probe:
their time is inside their callers' spans.

Counts taken from the simulator's own profile (events per operation,
batched-hop ratio, channel waits) repeat exactly and are labelled
``exact``; everything else is host time.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from typing import Callable, Dict, List

from harness import (
    ALGORITHMS,
    COORDINATOR_STOP,
    ROOT,
    Report,
    Scratch,
    Size,
    median,
    unit_docs,
    units_from_docs,
)
from loadgen import Connection, Request, sample_requests
from spans import SpanRecorder

from repro.campaigns.aggregate import aggregate
from repro.campaigns.pool import register_unit_runner, run_campaign
from repro.campaigns.remote import HttpStore
from repro.campaigns.spec import CampaignSpec, UnitSpec
from repro.campaigns.store import (
    JsonlStore,
    SharedDirStore,
    SqliteStore,
    UnitRecord,
)
from repro.core.executors import EventDrivenExecutor
from repro.core.registry import get_algorithm
from repro.experiments.common import paper_config, random_sources
from repro.experiments.config import FIG1_SIZES
from repro.network.network import NetworkConfig, NetworkSimulator
from repro.network.topology import Mesh
from repro.obs.simprof import SimProfile
from repro.service.estimator import EstimatorService, spec_for_query
from repro.sim.batch import plan_broadcast, sweep_broadcasts
from repro.traffic.workload import MixedTrafficConfig, MixedTrafficSimulation

BIG = (16, 16, 16)


@register_unit_runner("ledger-noop")
def _noop_unit(spec: UnitSpec) -> Dict[str, int]:
    """Costs nothing: what is left is the pool's own dispatch tax."""
    return {"ok": 1}


def _each(fn: Callable[[object], object], items) -> List[float]:
    """Wall of ``fn(item)`` for every item."""
    out = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        out.append(time.perf_counter() - t0)
    return out


def _times(fn: Callable[[], object], repeats: int) -> List[float]:
    return _each(lambda _: fn(), range(repeats))


class _Group:
    """Shared context of one probe group: the live workload (its seed,
    size, scratch space and report), the recorder and the traced
    pass's outcome."""

    def __init__(self, workload, recorder, outcome):
        self.workload = workload
        self.recorder: SpanRecorder = recorder
        self.report: Report = workload.report
        self.scratch: Scratch = workload.scratch
        self.seed: int = workload.seed
        self.size: Size = workload.size
        self.outcome = outcome
        self.smoke = self.size.name == "smoke"

    def repeats(self, full: int) -> int:
        return 1 if self.smoke else full

    def probe(self, name: str):
        return self.recorder.span(f"probe.{name}")


# ------------------------------------------------------- fig1_idle: core, batch
def _fig1_probes(g: _Group) -> None:
    add = g.report.add
    mesh = Mesh(BIG)
    sources = random_sources(BIG, 8, g.seed)
    for name in ALGORITHMS:
        algorithm = get_algorithm(name)(mesh)
        with g.probe(f"core.schedule.{name}"):
            walls = _each(algorithm.build_schedule, sources[: g.repeats(8)])
        add(f"core.schedule_ms.{name}", sum(walls) / len(walls) * 1e3, "ms", len(walls))

    ab = get_algorithm("AB")(mesh)
    with g.probe("network.build"):
        walls = _times(
            lambda: NetworkSimulator(mesh, paper_config(ab.ports_required)), g.repeats(3)
        )
    add("network.build_ms.16x16x16", median(walls) * 1e3, "ms", len(walls))
    with g.probe("core.event_broadcast"):
        network = NetworkSimulator(mesh, paper_config(ab.ports_required))
        executor = EventDrivenExecutor(network, adaptive_routing=type(ab).make_routing(mesh))
        schedule = ab.schedule(sources[0])
        walls = _times(lambda: executor.execute(schedule, 100), 1)
    add("core.event_broadcast_ms.AB", walls[0] * 1e3, "ms", 1)

    node_index = {coord: i for i, coord in enumerate(mesh.nodes())}
    edn = get_algorithm("EDN")(mesh)
    with g.probe("sim.batch_plan"):
        schedules = [edn.schedule(s) for s in sources[: g.repeats(4)]]
        walls = _each(lambda s: plan_broadcast(s, node_index, len(node_index)), schedules)
    add("sim.batch_plan_ms", sum(walls) / len(walls) * 1e3, "ms", len(walls))
    db = get_algorithm("DB")(mesh)
    config = paper_config(db.ports_required)
    with g.probe("sim.batch_sweep"):
        many = random_sources(BIG, g.repeats(64), g.seed + 1)
        plans = [plan_broadcast(db.schedule(s), node_index, len(node_index)) for s in many]
        plans = [p for p in plans if p is not None]
        walls = _times(
            lambda: sweep_broadcasts(
                plans, startup=config.startup_latency,
                hop_time=config.timing.header_hop_time,
                body=config.timing.body_time(100), length_flits=100,
                ports=db.ports_required,
            ),
            g.repeats(3),
        )
    add("sim.batch_sweep_us_per_source", median(walls) / len(plans) * 1e6, "us", len(plans))

    from repro.core.batch_broadcast import run_batch_broadcasts

    with g.probe("sim.batch_ratio"):
        profile = SimProfile()
        for dims in FIG1_SIZES:
            for name in ALGORITHMS:
                run_batch_broadcasts(
                    name, dims, random_sources(dims, 1, g.seed), 100, profile=profile
                )
    attempted = profile.batch_sources_batched + profile.batch_sources_fallback
    add("sim.batch_ratio", profile.batch_batched_ratio, "ratio", attempted, time="exact")
    _declare_and_aggregate(g, "fig1")


def _declare_and_aggregate(g: _Group, experiment: str) -> None:
    with g.probe(f"experiments.declare.{experiment}"):
        walls = _times(g.workload.declare, g.repeats(5))
    g.report.add(f"experiments.declare_ms.{experiment}", median(walls) * 1e3, "ms", len(walls))
    records = g.outcome.records
    with g.probe(f"aggregate.{experiment}"):
        walls = _times(lambda: aggregate(experiment, records), g.repeats(5))
    g.report.add(f"aggregate.{experiment}_ms", median(walls) * 1e3, "ms", len(walls))


# ------------------------------------------- fig3_loaded: sim kernel, wormhole
def _fig3_probes(g: _Group) -> None:
    add = g.report.add
    mesh = Mesh((8, 8, 8))
    with g.probe("network.build"):
        walls = _times(
            lambda: NetworkSimulator(mesh, NetworkConfig(ports_per_node=3)), g.repeats(5)
        )
    add("network.build_ms.8x8x8", median(walls) * 1e3, "ms", len(walls))
    config = MixedTrafficConfig(
        load_messages_per_ms=8.0, seed=g.seed,
        batch_size=g.size.fig3_batch_size if g.smoke else 25,
        num_batches=g.size.fig3_batches if g.smoke else 21,
    )
    with g.probe("sim.traffic_point"):
        simulation = MixedTrafficSimulation(mesh, "DB", config)
        t0 = time.perf_counter()
        stats = simulation.run()
        wall = time.perf_counter() - t0
    profile = simulation.network.env.profile()
    ops = stats.operations_completed
    hops = profile["worm_hops_batched"] + profile["worm_hops_slow"]
    add("sim.events_per_s", profile["dispatched"] / wall, "1/s", profile["dispatched"])
    add("sim.events_per_op", profile["dispatched"] / ops, "count", ops, time="exact")
    add("sim.heap_peak", profile["heap_peak"], "count", 1, time="exact")
    add("network.hops_per_s", hops / wall, "1/s", hops)
    add("network.hops_batched_ratio", profile["worm_batched_ratio"], "ratio", hops, time="exact")
    add("network.channel_waits_per_op", profile["channel_waits"] / ops, "count", ops, time="exact")
    _declare_and_aggregate(g, "fig3")


# -------------------------------- campaign_fabric: pool, stores, remote, obs
def _fabric_probes(g: _Group) -> None:
    add = g.report.add
    n = g.size.probe_noop_units
    noop = CampaignSpec(
        "ledger-noop", g.seed,
        [UnitSpec("ledger", "ledger-noop", "RD", (1,), 1, g.seed, replication=i)
         for i in range(n)],
    )
    with g.probe("pool.noop"):
        wall = _times(lambda: run_campaign(noop, workers=2), 1)[0]
    add("pool.noop_units_per_s", n / wall, "1/s", n)

    # Synthetic records: real unit specs (distinct hashes) carrying one
    # real result, so stores hold production-shaped rows without the
    # probe simulating thousands of units.
    count = g.size.probe_records
    result = g.outcome.records[0].result
    units = units_from_docs(unit_docs(g.seed, 1_000_000, count + 200))
    records = [
        UnitRecord(u.unit_hash, u.experiment, u.as_dict(), result, elapsed_s=0.003)
        for u in units
    ]
    base, extra = records[:count], records[count:]
    rng = random.Random(g.seed)
    backends = {
        "jsonl": JsonlStore(g.scratch.path("probe.jsonl")),
        "sqlite": SqliteStore(g.scratch.path("probe.sqlite")),
        "shared": SharedDirStore(g.scratch.path("probe-shared")),
    }
    for backend, store in backends.items():
        with g.probe(f"store.{backend}"):
            add(f"store.{backend}.append_us", sum(_each(store.append, base)) / count * 1e6,
                "us", count)
            picks = [rng.choice(base).unit_hash for _ in range(20 if backend == "jsonl" else 200)]
            walls = _each(store.get, picks)
            add(f"store.{backend}.get_us", median(walls) * 1e6, "us", len(walls))
            walls = _times(store.records, g.repeats(3))
            add(f"store.{backend}.records_ms", median(walls) * 1e3, "ms", len(walls))
            if store.supports_leases:
                def claim_release(record):
                    store.try_claim(record.unit_hash, "ledger-probe")
                    store.release(record.unit_hash, "ledger-probe")

                walls = _each(claim_release, extra)
                add(f"store.{backend}.claim_release_us", median(walls) * 1e6, "us", len(walls))

    backing = SqliteStore(g.scratch.path("probe-remote.sqlite"))
    for record in base[:200]:
        backing.append(record)
    server = g.scratch.serve(
        "campaign", "serve", "--store", str(backing.path), stop_signal=COORDINATOR_STOP
    )
    try:
        remote = HttpStore(server.url)
        some = extra[: 10 if g.smoke else 50]
        with g.probe("remote.rpc"):
            walls = _each(lambda r: remote.get(r.unit_hash), base[: len(some)])
            add("remote.rpc_get_ms", median(walls) * 1e3, "ms", len(walls))
            walls = _each(remote.append, some)
            add("remote.rpc_append_ms", median(walls) * 1e3, "ms", len(walls))

            def claim_release(record):
                remote.try_claim(record.unit_hash, "ledger-probe")
                remote.release(record.unit_hash, "ledger-probe")

            walls = _each(claim_release, some)
            add("remote.rpc_claim_release_ms", median(walls) * 1e3, "ms", len(walls))
            walls = _times(remote.records, g.repeats(3))
            add("remote.rpc_records_ms", median(walls) * 1e3, "ms", len(walls))
    finally:
        g.report.check(server.stop() == 0, "probe coordinator exited non-zero")

    obs_units = units_from_docs(unit_docs(g.seed, 2_000_000, g.size.probe_obs_units))
    spec = CampaignSpec("ledger-obs", g.seed, obs_units)
    walls = {}
    for mode in ("off", "on"):
        store = SqliteStore(g.scratch.path(f"probe-obs-{mode}.sqlite"))
        trace_dir = g.scratch.path("probe-obs-trace") if mode == "on" else None
        with g.probe(f"obs.trace_{mode}"):
            walls[mode] = _times(
                lambda: run_campaign(spec, workers=2, store=store, trace_dir=trace_dir), 1
            )[0]
    add("obs.trace_overhead_share", walls["on"] / walls["off"] - 1.0, "ratio", len(obs_units))


# ----------------------------------------------- serve_oracle: service, cli
def _serve_probes(g: _Group) -> None:
    add = g.report.add
    docs = g.workload.hit_docs
    picks = random.Random(g.seed).sample(docs, min(len(docs), 10 if g.smoke else 40))
    with g.probe("service.spec_for_query"):
        walls = _each(spec_for_query, picks * 5)
    add("service.spec_for_query_us", median(walls) * 1e6, "us", len(walls))

    store_path, url = g.workload.store_path, g.workload.server.url
    with g.probe("service.query_hit"):
        with EstimatorService(JsonlStore(store_path)) as service:
            walls = _each(service.query, picks)
    hit_us = median(walls) * 1e6
    add("service.query_hit_us", hit_us, "us", len(walls))
    closed_p50_ms = g.outcome.detail["serve_closed_p50_ms"][0]
    add("service.http_overhead_ms", closed_p50_ms - hit_us / 1e3, "ms", len(walls))

    requests = sample_requests(
        [Request("POST", "/v1/query", d) for d in picks], len(picks), g.seed
    )
    with g.probe("service.http_fresh_conn"):
        walls = []
        for request in requests:
            t0 = time.perf_counter()
            with Connection(url) as conn:
                status, _ = conn.exchange(request)
            walls.append(time.perf_counter() - t0)
            g.report.check(status == 200, "fresh-connection hit failed")
    add("service.http_fresh_conn_ms", median(walls) * 1e3, "ms", len(walls))

    with g.probe("cli.import"):
        walls = _times(
            lambda: subprocess.run(
                [sys.executable, "-m", "repro", "list"], cwd=ROOT, check=True,
                stdout=subprocess.DEVNULL,
            ),
            g.repeats(5),
        )
    add("cli.import_ms", median(walls) * 1e3, "ms", len(walls))


GROUPS = {
    "fig1_idle": _fig1_probes,
    "fig3_loaded": _fig3_probes,
    "campaign_fabric": _fabric_probes,
    "serve_oracle": _serve_probes,
}


def run_group(workload, recorder, outcome) -> None:
    GROUPS[workload.name](_Group(workload, recorder, outcome))
