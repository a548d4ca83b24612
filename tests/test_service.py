"""Tests for the live estimator service (``repro serve``).

The contract under test, per layer:

* **query → unit mapping** — :func:`spec_for_query` builds the same
  content-hashed :class:`UnitSpec` a campaign grid would, canonical
  params and all, and rejects malformed documents loudly (a typo must
  not silently hash to a different unit).
* **the cache** — a repeated query answers from the store without
  simulating (proven by arming ``REPRO_FAIL_UNITS`` for the unit: any
  execution would raise), and a miss simulated by the service lands a
  record byte-identical to ``campaign run`` executing the same unit.
* **the held miss** — a miss's reply waits for the drain thread to
  land the record, so a small miss answers ``hit`` in one call; a
  unit still simulating after ``MISS_HOLD_S`` answers ``pending`` with
  a ticket.  The ticket path is driven deterministically by gating the
  drain thread's ``run_campaign`` on a test-owned event, and the
  one-reply path by lengthening the bound (the hold ends as soon as the
  record lands, so a long bound only removes the race with the host's
  speed).
* **determinism** — the whole request loop runs off the injected
  clock, so a scripted clock makes ``/v1/stats`` percentiles exactly
  hand-computable (nearest-rank over the scripted answer latencies).
* **lifecycle** — SIGTERM drains gracefully: in-flight work finishes,
  leases are released, exit status 0 (the subprocess test drives the
  real ``repro serve`` and ``repro campaign serve`` CLIs).
"""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaigns import CampaignSpec, open_store, run_campaign
from repro.obs.trace import ListSink, Tracer
from repro.service import (
    EstimatorServer,
    EstimatorService,
    ServiceError,
    estimator,
    spec_for_query,
)

# Small enough to simulate in well under a second.
QUERY = {"algorithm": "DB", "dims": [4, 4, 4], "length_flits": 16}
OTHER_QUERY = {"algorithm": "RD", "dims": [4, 4, 4], "length_flits": 16}


def seed_store(store, doc=QUERY):
    """Pre-compute ``doc``'s unit via the ordinary campaign path."""
    spec = spec_for_query(doc)
    run_campaign(
        CampaignSpec(name="seed", seed=spec.seed, units=(spec,)), store=store
    )
    return spec


@pytest.fixture
def long_hold(monkeypatch):
    """Hold a miss's reply until its record lands, however slow the host."""
    monkeypatch.setattr(estimator, "MISS_HOLD_S", 60.0)


class Gate:
    """Blocks the drain thread's ``run_campaign`` until ``open`` is set;
    ``entered`` is set once the drain thread has reached it."""

    def __init__(self):
        self.entered = threading.Event()
        self.open = threading.Event()


@pytest.fixture
def gate(monkeypatch):
    gate = Gate()
    real_run_campaign = estimator.run_campaign

    def gated(*args, **kwargs):
        gate.entered.set()
        gate.open.wait(30)
        return real_run_campaign(*args, **kwargs)

    monkeypatch.setattr(estimator, "run_campaign", gated)
    yield gate
    gate.open.set()  # never leave a drain thread parked


def http_get(url):
    with urllib.request.urlopen(url, timeout=10) as reply:
        return json.loads(reply.read())


def http_post(url, doc):
    request = urllib.request.Request(
        url, data=json.dumps(doc).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as reply:
        return json.loads(reply.read())


# ------------------------------------------------------- query → unit
def test_spec_for_query_matches_campaign_grid_construction():
    spec = spec_for_query(QUERY)
    assert spec.kind == "broadcast"
    assert spec.algorithm == "DB"
    assert spec.dims == (4, 4, 4)
    assert spec.length_flits == 16
    assert spec.seed == 0
    assert spec.experiment == "service"
    # params canonicalise exactly like campaign grids: key order in
    # the JSON document must not change the unit hash.
    a = spec_for_query({**QUERY, "params": {"b": 2, "a": 1}})
    b = spec_for_query({**QUERY, "params": {"a": 1, "b": 2}})
    assert a.unit_hash == b.unit_hash
    assert a.unit_hash != spec.unit_hash


def test_spec_for_query_load_selects_traffic():
    spec = spec_for_query({**QUERY, "load": 0.02, "seed": 7})
    assert spec.kind == "traffic"
    assert spec.load == 0.02
    assert spec.seed == 7


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {},
        {"algorithm": "DB"},
        {"dims": [4, 4]},
        {"algorithm": "nope", "dims": [4, 4]},
        {"algorithm": "DB", "dims": []},
        {"algorithm": "DB", "dims": [4, 0]},
        {"algorithm": "DB", "dims": ["x"]},
        {"algorithm": "DB", "dims": [4, 4], "length_flits": 0},
        {"algorithm": "DB", "dims": [4, 4], "replication": -1},
        {"algorithm": "DB", "dims": [4, 4], "load": 0},
        {"algorithm": "DB", "dims": [4, 4], "load": "heavy"},
        {"algorithm": "DB", "dims": [4, 4], "params": [1, 2]},
        {"algorithm": "DB", "dims": [4, 4], "lenght_flits": 8},  # typo
        # Non-finite loads would store NaN results no JSON reply can carry.
        {"algorithm": "DB", "dims": [4, 4], "load": "nan"},
        {"algorithm": "DB", "dims": [4, 4], "load": "inf"},
        {"algorithm": "DB", "dims": [4, 4], "load": float("nan")},
        {"algorithm": "DB", "dims": [4, 4], "load": float("inf")},
        {"algorithm": "DB", "dims": [4, 4], "load": "0.02"},
        {"algorithm": "DB", "dims": [4, 4], "load": True},
        # Integer fields must not be split, truncated or coerced.
        {"algorithm": "DB", "dims": "444"},
        {"algorithm": "DB", "dims": [8.9, 8, 8]},
        {"algorithm": "DB", "dims": [8.0, 8, 8]},
        {"algorithm": "DB", "dims": [True, 4]},
        {"algorithm": "DB", "dims": {"4": 1, "8": 1}},
        {"algorithm": "DB", "dims": [4, 4], "length_flits": 16.5},
        {"algorithm": "DB", "dims": [4, 4], "length_flits": "16"},
        {"algorithm": "DB", "dims": [4, 4], "seed": 1.5},
        {"algorithm": "DB", "dims": [4, 4], "seed": False},
        {"algorithm": "DB", "dims": [4, 4], "replication": 0.9},
    ],
)
def test_spec_for_query_rejects_malformed_documents(doc):
    with pytest.raises(ServiceError):
        spec_for_query(doc)


# ------------------------------------------------------------ the cache
def test_cache_hit_answers_without_simulating(tmp_path, monkeypatch):
    store = open_store(tmp_path / "svc.sqlite")
    spec = seed_store(store)
    # Arm fault injection for exactly this unit: had the service tried
    # to simulate, the attempt would raise and persist a failure
    # record — the hit answer proves nothing executed.
    monkeypatch.setenv("REPRO_FAIL_UNITS", spec.unit_hash)
    with EstimatorService(store, retries=0) as service:
        answer = service.query(QUERY)
        assert answer["status"] == "hit"
        assert answer["result"] == store.get(spec.unit_hash).result
        assert answer["unit"] == spec.unit_hash
        assert service.wait_idle(10)
    assert store.get(spec.unit_hash).ok  # no failure record appeared


def test_miss_simulates_byte_identical_to_campaign_run(tmp_path, long_hold):
    doc = {**QUERY, "seed": 3}
    spec = spec_for_query(doc)
    svc_store = open_store(tmp_path / "svc.sqlite")
    with EstimatorService(svc_store) as service:
        # A small miss answers in one call: the reply is held until the
        # drain thread lands the record.
        first = service.query(doc)
        assert first["status"] == "hit"
        assert first["ticket"] == first["unit"] == spec.unit_hash
        stats = service.stats()
    assert stats["answers"] == 1  # the held reply is one answer
    assert stats["counters"]["svc.answer.hit"] == 1
    # The reference path: the ordinary campaign machinery executing
    # the same unit into a fresh store.
    ref_store = open_store(tmp_path / "ref.sqlite")
    run_campaign(
        CampaignSpec(name="ref", seed=spec.seed, units=(spec,)),
        store=ref_store,
    )
    mine = svc_store.get(spec.unit_hash)
    ref = ref_store.get(spec.unit_hash)
    assert mine == ref  # UnitRecord equality excludes elapsed_s by design

    def canonical(record):
        data = {
            key: value
            for key, value in record.to_dict().items()
            if key != "elapsed_s"
        }
        return json.dumps(data, sort_keys=True)

    assert canonical(mine) == canonical(ref)
    assert first["result"] == ref.result


def test_pending_ticket_redeems_once_simulated(tmp_path, gate, monkeypatch):
    store = open_store(tmp_path / "svc.sqlite")
    with EstimatorService(store) as service:
        # The drain thread is parked, so the hold expires: pending.
        first = service.query(QUERY)
        assert first["status"] == "pending"
        assert first["queued"]
        ticket = first["ticket"]
        early = service.result(ticket)
        assert early["status"] == "pending"
        assert early["queued"]
        # A redeem is held like a query: it answers hit in one call
        # once the gate opens and the record lands.
        monkeypatch.setattr(estimator, "MISS_HOLD_S", 60.0)
        threading.Timer(0.05, gate.open.set).start()
        redeemed = service.result(ticket)
        assert redeemed["status"] == "hit"
        assert redeemed["result"]["delivered"] > 0
        counters = service.stats()["counters"]
    assert counters["svc.answer.pending"] == 2
    assert counters["svc.answer.hit"] == 1
    assert counters["svc.hold_expired"] == 2
    assert counters["svc.redeems"] == 2


def test_duplicate_misses_enqueue_once(tmp_path, gate):
    store = open_store(tmp_path / "svc.sqlite")
    sink = ListSink()
    with EstimatorService(store, tracer=Tracer(sink, role="svc")) as service:
        for _ in range(5):
            answer = service.query(QUERY)
            assert answer["status"] == "pending"
            assert answer["queued"]
        gate.open.set()
        assert service.wait_idle(60)
        assert service.query(QUERY)["status"] == "hit"
    enqueues = [r for r in sink.records if r.get("name") == "svc.enqueue"]
    simulates = [r for r in sink.records if r.get("name") == "svc.simulate"]
    assert len(enqueues) == 1
    assert len(simulates) == 1
    names = {r.get("name") for r in sink.records}
    assert {"svc.query", "svc.hit", "svc.drain"} <= names


def test_failed_unit_reports_failure_without_resimulating(
    tmp_path, monkeypatch, gate
):
    monkeypatch.setenv("REPRO_FAIL_UNITS", "*")
    store = open_store(tmp_path / "svc.sqlite")
    sink = ListSink()
    with EstimatorService(
        store, retries=1, tracer=Tracer(sink, role="svc")
    ) as service:
        # Parked drain thread: pending whatever the retry backoff is.
        assert service.query(QUERY)["status"] == "pending"
        gate.open.set()
        assert service.wait_idle(60)
        answer = service.query(QUERY)
        assert answer["status"] == "failed"
        assert "InjectedFailureError" in answer["error"]
        assert answer["attempts"] == 2  # 1 retry → 2 attempts, then quarantine
        # A known-poisonous unit is not re-enqueued (its budget is spent).
        assert service.query(QUERY)["status"] == "failed"
        assert service.wait_idle(10)
    record = store.get(spec_for_query(QUERY).unit_hash)
    assert record.failed
    enqueues = [r for r in sink.records if r.get("name") == "svc.enqueue"]
    assert len(enqueues) == 1


def test_close_wakes_replies_held_on_dropped_misses(tmp_path, gate, long_hold):
    store = open_store(tmp_path / "svc.sqlite")
    service = EstimatorService(store)
    answers = {}

    def ask(name, doc):
        answers[name] = service.query(doc)

    # ``running`` is taken by the (parked) drain thread; ``queued``
    # waits behind it.  Both replies are held.
    running = threading.Thread(target=ask, args=("running", QUERY))
    running.start()
    assert gate.entered.wait(10)
    queued = threading.Thread(target=ask, args=("queued", OTHER_QUERY))
    queued.start()
    deadline = time.monotonic() + 10
    while service.status()["inflight"] < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert service.status()["inflight"] == 2
    closer = threading.Thread(target=service.close)
    closer.start()
    # The gate is still shut: only close() can have released this reply.
    queued.join(10)
    assert not queued.is_alive()
    assert answers["queued"]["status"] == "pending"
    assert answers["queued"]["queued"] is False
    # The running unit finishes; its held reply answers in one call.
    gate.open.set()
    closer.join(60)
    running.join(60)
    assert not closer.is_alive() and not running.is_alive()
    assert answers["running"]["status"] == "hit"
    assert store.leased_hashes() == set()


def test_close_stops_enqueueing_but_hits_still_answer(tmp_path):
    store = open_store(tmp_path / "svc.sqlite")
    seed_store(store)
    service = EstimatorService(store)
    service.close()
    assert service.query(QUERY)["status"] == "hit"
    miss = service.query(OTHER_QUERY)
    assert miss["status"] == "pending"
    assert not miss["queued"]  # draining: nothing new enters the queue
    service.close()  # idempotent


# --------------------------------------------------- deterministic time
class ScriptedClock:
    """Clock whose readings are fixed in advance (exact binary floats)."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_stats_percentiles_match_hand_computed_stream(tmp_path):
    store = open_store(tmp_path / "svc.sqlite")
    seed_store(store)
    # One reading for construction, then a (start, end) pair per query:
    # answer latencies 0.25, 0.5, 1.0, 0.75 — exact in binary, so the
    # stats must match the hand computation to the last bit.
    clock = ScriptedClock(
        [0.0, 1.0, 1.25, 2.0, 2.5, 4.0, 5.0, 6.0, 6.75]
    )
    service = EstimatorService(store, clock=clock)
    try:
        latencies = [service.query(QUERY)["answer_latency_s"] for _ in range(4)]
    finally:
        service.close()
    assert latencies == [0.25, 0.5, 1.0, 0.75]
    stats = service.stats()
    assert stats["answers"] == 4
    assert stats["counters"]["svc.queries"] == 4
    assert stats["counters"]["svc.answer.hit"] == 4
    slo = stats["answer_latency_s"]
    # Nearest-rank over sorted [0.25, 0.5, 0.75, 1.0]: rank(q) =
    # max(1, ceil(4q)) → p50 is the 2nd value, p95/p99 the 4th.
    assert slo == {
        "count": 4,
        "mean": 0.625,
        "p50": 0.5,
        "p95": 1.0,
        "p99": 1.0,
    }


def nearest_rank(values, q):
    """The textbook nearest-rank percentile: the smallest value whose
    cumulative share of the sorted stream reaches ``q``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@pytest.fixture(scope="module")
def hit_store(tmp_path_factory):
    store = open_store(tmp_path_factory.mktemp("svc") / "svc.sqlite")
    seed_store(store)
    return store


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=1e6)),
        max_size=40,
    )
)
def test_stats_match_nearest_rank_oracle_for_any_stream(hit_store, answers):
    # Each answer is a hit query or an unknown-ticket redeem whose
    # scripted latency is ``end - 0.0``, i.e. exactly the drawn float.
    readings = [0.0]
    for _, latency_s in answers:
        readings += [0.0, latency_s]
    service = EstimatorService(hit_store, clock=ScriptedClock(readings))
    try:
        for is_query, _ in answers:
            if is_query:
                service.query(QUERY)
            else:
                service.result("no-such-ticket")
    finally:
        service.close()
    stats = service.stats()
    counters = stats["counters"]
    assert list(counters) == sorted(counters)
    assert (
        stats["answers"]
        == len(answers)
        == counters.get("svc.queries", 0) + counters.get("svc.redeems", 0)
        == sum(
            value
            for name, value in counters.items()
            if name.startswith("svc.answer.")
        )
    )
    latencies = [latency_s for _, latency_s in answers]
    if not latencies:
        assert "answer_latency_s" not in stats
        return
    slo = stats["answer_latency_s"]
    assert slo["count"] == len(latencies)
    assert slo["mean"] == pytest.approx(math.fsum(latencies) / len(latencies))
    for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        assert slo[key] == nearest_rank(latencies, q)


def test_status_uptime_uses_injected_clock(tmp_path):
    store = open_store(tmp_path / "svc.sqlite")
    clock = ScriptedClock([10.0, 17.5])
    service = EstimatorService(store, clock=clock)
    try:
        status = service.status()
    finally:
        service.close()
    assert status["uptime_s"] == 7.5
    assert status["ok"]
    assert status["backend"] == "sqlite"
    assert status["service"] == "estimator"


# ----------------------------------------------------------- HTTP layer
def test_http_endpoints_round_trip(tmp_path, long_hold):
    store = open_store(tmp_path / "svc.sqlite")
    service = EstimatorService(store)
    with EstimatorServer(service, port=0) as server:
        status = http_get(f"{server.url}/v1/status")
        assert status["ok"]
        assert status["service"] == "estimator"
        first = http_post(f"{server.url}/v1/query", QUERY)
        assert first["status"] == "hit"  # a held miss: one round trip
        redeemed = http_get(
            f"{server.url}/v1/result?ticket={first['ticket']}"
        )
        assert redeemed["status"] == "hit"
        assert redeemed["result"] == first["result"]
        again = http_post(f"{server.url}/v1/query", QUERY)
        assert again["status"] == "hit"
        assert again["result"] == first["result"]
        stats = http_get(f"{server.url}/v1/stats")
        assert stats["answers"] == 3  # held miss, redeem, hit
        assert stats["counters"]["svc.answer.hit"] == 3
        assert stats["answer_latency_s"]["p95"] > 0
    # The drain released every lease the miss simulation took.
    assert store.leased_hashes() == set()


def test_identical_concurrent_misses_simulate_once(tmp_path, long_hold):
    # More clients than cores, and a short switch interval, so a lost
    # update to the in-flight table would show as a second enqueue.
    store = open_store(tmp_path / "svc.sqlite")
    sink = ListSink()
    service = EstimatorService(store, tracer=Tracer(sink, role="svc"))
    doc = {**QUERY, "seed": 11}
    answers = [None] * 4
    start = threading.Barrier(len(answers))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with EstimatorServer(service, port=0) as server:

            def post(slot):
                start.wait(10)
                answers[slot] = http_post(f"{server.url}/v1/query", doc)

            clients = [
                threading.Thread(target=post, args=(slot,))
                for slot in range(len(answers))
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(30)
                assert not client.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [a["status"] for a in answers] == ["hit"] * len(answers)
    assert all(a["result"] == answers[0]["result"] for a in answers)
    names = [r.get("name") for r in sink.records]
    assert names.count("svc.enqueue") == 1
    assert names.count("svc.simulate") == 1


# ------------------------------------------------------- graceful drain
@pytest.mark.parametrize(
    "command", [["serve"], ["campaign", "serve"]], ids=["serve", "campaign"]
)
def test_repro_serve_sigterm_drains_cleanly(tmp_path, command):
    """Drive the real CLI: boot, use, SIGTERM, assert a clean exit.

    Both serve commands share one serve loop, so the estimator and the
    campaign coordinator drain the same way.
    """
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [repo_src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    store_path = tmp_path / "svc.sqlite"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            *command,
            "--store",
            str(store_path),
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        url = None
        for _ in range(50):
            line = proc.stdout.readline()
            if "listening on" in line:
                url = line.rsplit(" ", 1)[-1].strip()
                break
        assert url, "server never reported its URL"
        if command == ["serve"]:
            ticket = http_post(f"{url}/v1/query", QUERY)["ticket"]
            deadline = time.monotonic() + 60
            answer = {"status": "pending"}
            while (
                answer["status"] == "pending"
                and time.monotonic() < deadline
            ):
                answer = http_get(f"{url}/v1/result?ticket={ticket}")
                time.sleep(0.05)
            assert answer["status"] == "hit"
        else:
            assert http_get(f"{url}/v1/status")["ok"]
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "drained cleanly" in out
    if command == ["serve"]:
        # The drain left no lease behind and the answer is durable.
        store = open_store(store_path)
        assert store.leased_hashes() == set()
        assert store.get(ticket).ok
