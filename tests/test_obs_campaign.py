"""Tracing producers in the campaign engine and simulation kernel.

End-to-end checks that the span/event producers wired into
`repro.campaigns.pool`, `repro.campaigns.store.TracedStore` and the
DES kernel (`Environment.profile()`) emit what `docs/observability.md`
promises — and that tracing never changes a result.
"""

import warnings

import pytest

from repro.campaigns import CampaignSpec, run_campaign
from repro.campaigns.pool import lease_heartbeat
from repro.campaigns.store import (
    ResultStore,
    SqliteStore,
    TracedStore,
    UnitRecord,
)
from repro.experiments.common import broadcast_units
from repro.obs.trace import ListSink, Tracer, read_trace_dir
from repro.sim.engine import Environment


def small_spec(name="traced", seed=3, shards=1):
    units = broadcast_units(
        "fig1", [(4, 4, 4)], ["RD", "DB"], 64, "smoke", seed=seed,
        shards=shards,
    )
    return CampaignSpec(name=name, seed=seed, units=tuple(units))


def spans_by_name(records):
    by_name = {}
    for record in records:
        if record.get("type") == "span":
            by_name.setdefault(record["name"], []).append(record)
    return by_name


def events_by_name(records):
    by_name = {}
    for record in records:
        if record.get("type") == "event":
            by_name.setdefault(record["name"], []).append(record)
    return by_name


# ---------------------------------------------------------- traced runs
def test_traced_run_spools_spans_and_changes_nothing(tmp_path):
    spec = small_spec()
    plain = run_campaign(spec)
    traced = run_campaign(spec, trace_dir=tmp_path / "spool")
    assert traced == plain  # tracing must never perturb results

    records = read_trace_dir(tmp_path / "spool")
    spans = spans_by_name(records)
    (campaign,) = spans["campaign"]
    assert campaign["args"]["campaign"] == "traced"
    assert campaign["args"]["units"] == len(spec)
    executes = spans["unit.execute"]
    assert {s["args"]["unit"] for s in executes} == {
        u.unit_hash for u in spec.units
    }
    # Serial run: every execute nests inside the campaign span.
    assert all(s["parent"] == campaign["id"] for s in executes)


def test_traced_sharded_run_emits_merge_spans(tmp_path):
    spec = small_spec(name="sharded", shards=2)
    records_plain = run_campaign(spec, shards=2)
    run_campaign(spec, shards=2, trace_dir=tmp_path / "spool")
    spool = read_trace_dir(tmp_path / "spool")
    spans = spans_by_name(spool)
    merges = spans["unit.merge"]
    assert {m["args"]["unit"] for m in merges} == {
        u.unit_hash for u in spec.units
    }
    assert all(m["args"]["shards"] >= 2 for m in merges)
    # One shard execute per fanned-out slice, more than one per parent.
    assert len(spans["unit.execute"]) > len(merges)
    assert run_campaign(spec, shards=2) == records_plain


def test_traced_lease_store_emits_claims(tmp_path):
    spec = small_spec(name="leases")
    store = SqliteStore(tmp_path / "leases.sqlite")
    run_campaign(spec, store=store, trace_dir=tmp_path / "spool")
    records = read_trace_dir(tmp_path / "spool")
    events = events_by_name(records)
    assert {e["args"]["unit"] for e in events["lease.claim"]} == {
        u.unit_hash for u in spec.units
    }
    spans = spans_by_name(records)
    assert spans["store.try_claim"]  # TracedStore wrapped the claims
    assert all(s["args"]["granted"] for s in spans["store.try_claim"])


def test_traced_cache_hits(tmp_path):
    spec = small_spec(name="cached")
    warm = ResultStore(tmp_path / "warm.jsonl")
    run_campaign(spec, store=warm)
    run_campaign(spec, cache=[warm], trace_dir=tmp_path / "spool")
    records = read_trace_dir(tmp_path / "spool")
    hits = events_by_name(records)["cache.hit"]
    assert {e["args"]["unit"] for e in hits} == {
        u.unit_hash for u in spec.units
    }
    assert spans_by_name(records).get("unit.execute") is None  # all cached


def test_traced_store_delegates(tmp_path):
    inner = ResultStore(tmp_path / "s.jsonl")
    sink = ListSink()
    store = TracedStore(inner, Tracer(sink, pid=1))
    assert store.backend == inner.backend
    assert store.supports_leases == inner.supports_leases
    assert store.path == inner.path
    assert store.describe() == inner.describe()
    assert store.records() == {}
    names = {r["name"] for r in sink.records if r.get("type") == "span"}
    assert "store.records" in names


class AppendReleaseOnlyStore:
    """A store wrapper written before ``append_and_release`` existed."""

    backend = "wrapped"

    def __init__(self, inner):
        self.inner = inner

    def append(self, record):
        self.inner.append(record)

    def release(self, unit_hash, owner):
        self.inner.release(unit_hash, owner)


def test_traced_store_lands_through_a_wrapper_without_the_method(tmp_path):
    inner = SqliteStore(tmp_path / "s.sqlite")
    record = UnitRecord(
        unit_hash="a" * 16, experiment="x", spec={}, result={"v": 1}
    )
    assert inner.try_claim(record.unit_hash, "me", ttl_s=30)
    sink = ListSink()
    store = TracedStore(AppendReleaseOnlyStore(inner), Tracer(sink, pid=1))
    store.append_and_release(record, "me")
    assert inner.get(record.unit_hash) == record
    assert inner.leased_hashes() == set()
    names = [r["name"] for r in sink.records if r.get("type") == "span"]
    assert names == ["store.append_and_release"]


# ------------------------------------------------------ heartbeat surfacing
class FailingLeaseStore:
    """Lease-capable store whose refreshes always fail."""

    supports_leases = True

    def try_claim(self, unit_hash, owner, ttl_s):
        raise OSError("store unreachable")


def test_heartbeat_failure_warns_and_traces():
    sink = ListSink()
    tracer = Tracer(sink, pid=1, role="worker")
    store = FailingLeaseStore()
    with pytest.warns(RuntimeWarning, match="lease heartbeat .* failed"):
        with lease_heartbeat(
            store, "a" * 40, "owner", ttl_s=0.06, tracer=tracer
        ):
            import time

            time.sleep(0.2)  # several beat attempts at ttl/3 cadence
    errors = events_by_name(sink.records)["heartbeat.error"]
    assert errors
    assert errors[0]["args"]["unit"] == "a" * 40
    assert "unreachable" in errors[0]["args"]["error"]


def test_heartbeat_success_beats_silently():
    class CountingStore:
        supports_leases = True
        claims = 0

        def try_claim(self, unit_hash, owner, ttl_s):
            CountingStore.claims += 1
            return True

    sink = ListSink()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the test
        with lease_heartbeat(
            CountingStore(), "b" * 40, "owner", ttl_s=0.06,
            tracer=Tracer(sink, pid=1),
        ):
            import time

            time.sleep(0.15)
    assert CountingStore.claims >= 1
    assert events_by_name(sink.records)["heartbeat.beat"]


# ------------------------------------------------------------ kernel profile
def test_environment_profile_counts_kernel_work():
    env = Environment()

    def model(env):
        for _ in range(5):
            yield env.timeout(1.0)
        yield env.hold(2.0)

    env.process(model(env))
    env.run()
    prof = env.profile()
    assert prof["timeouts"] >= 5
    assert prof["holds"] >= 1
    assert prof["dispatched"] == (
        prof["holds"] + prof["timeouts"] + prof["events"]
    )
    assert prof["heap_peak"] >= 1
    # Recycled timeouts register as pool hits after the first miss.
    assert prof["timeout_pool_hits"] >= 1
    assert 0.0 <= prof["timeout_pool_hit_rate"] <= 1.0


def test_profile_nonzero_on_fastpath_broadcast():
    from repro.core.executors import EventDrivenExecutor
    from repro.core.registry import get_algorithm
    from repro.experiments.common import paper_config
    from repro.network.network import NetworkSimulator
    from repro.network.topology import Mesh

    mesh = Mesh((4, 4, 4))
    algorithm = get_algorithm("DB")(mesh)
    network = NetworkSimulator(mesh, paper_config(algorithm.ports_required))
    outcome = EventDrivenExecutor(network).execute(
        algorithm.schedule((0, 0, 0)), 32
    )
    assert len(outcome.arrivals) == 63

    prof = network.env.profile()
    assert prof["dispatched"] > 0
    assert prof["heap_peak"] >= 1
    # The idle-network fast path claims header hops in batched windows.
    assert prof["worm_hops_batched"] > 0
    assert prof["worm_batched_ratio"] > 0.5
