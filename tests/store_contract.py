"""Backend-agnostic conformance suite for the `CampaignStore` contract.

`StoreContract` is a plain mixin: a test module inherits from it and
provides a ``store_factory`` fixture — a zero-argument callable that
returns a NEW store handle onto the SAME backing state each time it is
called (two handles model two cooperating worker pools).  Every test
here must pass for every backend — jsonl, sqlite, shared-dir, and the
HTTP network store — which is what makes the lease/merge invariants in
`run_campaign` backend-independent facts rather than per-backend luck.

The contract being pinned down:

* records/append/get round-trip every field; ``get`` of an unknown
  hash is ``None``; re-appending a hash is last-record-wins.
* ``try_claim`` is exclusive while a lease is live (for backends with
  ``supports_leases``), refreshable by its owner, released only by its
  owner, stolen after the TTL expires or immediately when the owner is
  a dead local process.
* claim and release are safe under *ambiguous retries* (the first
  attempt landed but its acknowledgement was lost): release is
  idempotent for the owning caller and never drops a peer's later
  lease, re-claiming one's own lease is a granted refresh.
* append-then-release ordering: once a unit's hash is claimable again,
  either its record is visible or the unit never ran.  The landing
  operation ``append_and_release`` keeps the same guarantees: a second
  handle sees the record and no lease, a non-owner's call stores the
  record and leaves the holder's lease alone, and a retry after
  success is a no-op.
* parent merges are idempotent across handles: the second pool to
  observe a completed parent adopts the stored record instead of
  appending a duplicate.
* failure records (``status="failed"`` carrying the error payload) are
  first-class: they round-trip with their attempt ledger, surface in
  ``records()``/``get`` but never in ``completed_hashes()`` (so a
  racing pool sees the quarantine), and a later successful record
  overwrites them.
"""

import socket
import subprocess
import time

from repro.campaigns.pool import register_unit_runner
from repro.campaigns.spec import CampaignSpec, UnitSpec, freeze_params
from repro.campaigns.store import (
    DEFAULT_LEASE_TTL_S,
    STATUS_FAILED,
    UnitRecord,
)


@register_unit_runner("contract-noop")
def _run_contract_noop(spec):
    return {"replication": spec.replication}


def _record(unit_hash, value, experiment="contract"):
    """A minimal well-formed unit record."""
    return UnitRecord(
        unit_hash=unit_hash,
        experiment=experiment,
        spec={"algorithm": "DB", "dims": [4, 4, 4]},
        result={"value": value},
    )


def _failure(unit_hash, attempts=3, experiment="contract"):
    """A minimal well-formed failure record (what `unit_failed` persists)."""
    return UnitRecord(
        unit_hash=unit_hash,
        experiment=experiment,
        spec={"algorithm": "DB", "dims": [4, 4, 4]},
        result={
            "error": "ValueError",
            "message": "boom",
            "traceback_digest": "feedfacefeedface",
            "attempts": attempts,
            "owner": "host:1:cafe",
        },
        status=STATUS_FAILED,
    )


class StoreContract:
    """Mixin of contract tests; parametrize via a `store_factory` fixture."""

    # ----------------------------------------------------------- records
    def test_append_get_records_round_trip(self, store_factory):
        store = store_factory()
        assert store.records() == {}
        assert store.get("missing" * 2) is None
        rec = _record("a" * 16, 1.5)
        store.append(rec)
        assert store.get("a" * 16) == rec
        assert store.records() == {"a" * 16: rec}
        assert store.completed_hashes() == {"a" * 16}

    def test_records_visible_through_second_handle(self, store_factory):
        writer, reader = store_factory(), store_factory()
        writer.append(_record("b" * 16, 2.0))
        assert reader.get("b" * 16) == _record("b" * 16, 2.0)
        assert reader.completed_hashes() == {"b" * 16}

    def test_reappend_is_last_record_wins(self, store_factory):
        store = store_factory()
        store.append(_record("c" * 16, 1.0))
        store.append(_record("c" * 16, 9.0))
        assert store.get("c" * 16).result["value"] == 9.0
        assert len(store.records()) == 1

    def test_duplicate_identical_append_is_idempotent(self, store_factory):
        # A retried append (same bytes, possibly through another handle)
        # must leave exactly one logical record with unchanged content.
        first, second = store_factory(), store_factory()
        rec = _record("d" * 16, 3.0)
        first.append(rec)
        second.append(rec)
        assert first.records() == {"d" * 16: rec}
        assert second.records() == {"d" * 16: rec}

    # ----------------------------------------------------------- failures
    def test_failure_record_round_trips(self, store_factory):
        store = store_factory()
        failure = _failure("f" * 16, attempts=3)
        store.append(failure)
        got = store.get("f" * 16)
        assert got == failure
        assert got.failed and not got.ok
        assert got.attempts == 3
        assert got.failure_reason == "ValueError: boom"
        assert "f" * 16 in store.records()
        # A failed unit is NOT complete: racing pools must still see it
        # as work (pending or quarantined, depending on the budget).
        assert store.completed_hashes() == set()

    def test_success_overwrites_failure_record(self, store_factory):
        store = store_factory()
        store.append(_failure("g" * 16))
        store.append(_record("g" * 16, 4.0))  # the retry that worked
        got = store.get("g" * 16)
        assert got.ok and not got.failed
        assert got.result == {"value": 4.0}
        assert store.completed_hashes() == {"g" * 16}
        assert len(store.records()) == 1

    def test_quarantine_visible_across_handles(self, store_factory):
        # Pool A exhausts a unit's retry budget and persists the failure
        # record; pool B (a different handle onto the same state) must
        # read the same attempt ledger so it skips the unit instead of
        # burning its own budget on a known-poisonous one.
        writer, reader = store_factory(), store_factory()
        writer.append(_failure("i" * 16, attempts=5))
        seen = reader.get("i" * 16)
        assert seen is not None and seen.failed
        assert seen.attempts == 5
        assert "i" * 16 not in reader.completed_hashes()
        assert reader.records()["i" * 16].failure_reason == "ValueError: boom"

    # ------------------------------------------------------------ leases
    def test_claim_exclusivity(self, store_factory):
        alice, bob = store_factory(), store_factory()
        assert alice.try_claim("h1", "alice", ttl_s=30)
        if not alice.supports_leases:
            # Leaseless backends grant everything and report no leases:
            # correctness then rests on idempotent merges alone.
            assert bob.try_claim("h1", "bob", ttl_s=30)
            assert alice.leased_hashes() == set()
            return
        assert not bob.try_claim("h1", "bob", ttl_s=30)
        assert alice.try_claim("h1", "alice", ttl_s=30)  # refresh own lease
        assert bob.leased_hashes() == {"h1"}

    def test_release_is_owner_only(self, store_factory):
        store = store_factory()
        if not store.supports_leases:
            store.release("h1", "anyone")  # must not raise
            return
        assert store.try_claim("h1", "alice", ttl_s=30)
        store.release("h1", "bob")  # not the owner: no-op
        assert store.leased_hashes() == {"h1"}
        store.release("h1", "alice")
        assert store.leased_hashes() == set()
        assert store.try_claim("h1", "bob", ttl_s=30)

    def test_stale_lease_is_stolen(self, store_factory):
        store = store_factory()
        if not store.supports_leases:
            return
        assert store.try_claim("h1", "crashed", ttl_s=0.01)
        time.sleep(0.05)
        assert store.leased_hashes() == set()  # expired
        assert store.try_claim("h1", "successor", ttl_s=30)
        assert not store.try_claim("h1", "crashed", ttl_s=30)

    def test_heartbeat_refresh_extends_lease(self, store_factory):
        store = store_factory()
        if not store.supports_leases:
            return
        assert store.try_claim("h1", "alice", ttl_s=0.25)
        for _ in range(4):  # keep beating past the original deadline
            time.sleep(0.08)
            assert store.try_claim("h1", "alice", ttl_s=0.25)
        assert not store.try_claim("h1", "bob", ttl_s=30)

    def test_dead_local_owner_lease_is_stolen_immediately(
        self, store_factory
    ):
        store = store_factory()
        if not store.supports_leases:
            return
        proc = subprocess.Popen(["true"])
        proc.wait()  # a pid that certainly no longer exists
        dead_owner = f"{socket.gethostname()}:{proc.pid}:deadbeef"
        assert store.try_claim("h1", dead_owner, ttl_s=3600)
        # Long TTL, but the owner process is gone: steal without waiting.
        assert store.try_claim("h1", "successor", ttl_s=30)
        # A live lease from another *host* is untouchable until the TTL.
        assert store.try_claim("h2", f"otherhost:{proc.pid}:cafe", ttl_s=3600)
        assert not store.try_claim("h2", "successor", ttl_s=30)

    def test_default_ttl_accepted(self, store_factory):
        store = store_factory()
        assert store.try_claim("h1", "alice", ttl_s=DEFAULT_LEASE_TTL_S)

    # ------------------------------------------- ambiguous-retry safety
    # A network store may have to *retry* a claim or release whose
    # first attempt landed but whose acknowledgement was lost.  The
    # retry then re-executes against changed state, so both operations
    # must be safe to repeat: release is idempotent for the owning
    # caller, claim-by-current-owner is a refresh.

    def test_release_retry_is_idempotent_for_owner(self, store_factory):
        store = store_factory()
        assert store.try_claim("h1", "alice", ttl_s=30)
        store.release("h1", "alice")
        store.release("h1", "alice")  # the ambiguous retry: a no-op
        assert store.leased_hashes() == set()
        if store.supports_leases:
            assert store.try_claim("h1", "bob", ttl_s=30)

    def test_stale_release_retry_preserves_next_owners_lease(
        self, store_factory
    ):
        # Alice releases; Bob claims; Alice's *retried* release (the
        # lost-acknowledgement case) arrives late.  It must not drop
        # Bob's lease — only the (unit, owner) pair is ever released.
        alice, bob = store_factory(), store_factory()
        if not alice.supports_leases:
            return
        assert alice.try_claim("h1", "alice", ttl_s=30)
        alice.release("h1", "alice")
        assert bob.try_claim("h1", "bob", ttl_s=30)
        alice.release("h1", "alice")  # late retry
        assert bob.leased_hashes() == {"h1"}
        assert not alice.try_claim("h1", "alice", ttl_s=30)

    def test_release_after_expiry_and_steal_is_noop(self, store_factory):
        # Alice's lease expires mid-release-retry and Bob steals the
        # unit; Alice's release, reading a lease that stops being hers
        # under her feet, must leave Bob's fresh lease intact.
        alice, bob = store_factory(), store_factory()
        if not alice.supports_leases:
            return
        assert alice.try_claim("h1", "alice", ttl_s=0.01)
        time.sleep(0.05)
        assert bob.try_claim("h1", "bob", ttl_s=30)
        alice.release("h1", "alice")
        assert bob.leased_hashes() == {"h1"}
        assert not alice.try_claim("h1", "alice", ttl_s=30)

    def test_reclaim_by_owner_is_refresh_not_reexecution(
        self, store_factory
    ):
        # A claim retried after an ambiguous failure re-claims a lease
        # the caller already holds.  That must be a *refresh* — granted
        # and extending the expiry — never contention with oneself.
        store = store_factory()
        if not store.supports_leases:
            assert store.try_claim("h1", "alice", ttl_s=30)
            assert store.try_claim("h1", "alice", ttl_s=30)
            return
        assert store.try_claim("h1", "alice", ttl_s=0.25)
        assert store.try_claim("h1", "alice", ttl_s=30)  # the retry
        time.sleep(0.3)  # past the original expiry
        assert store.leased_hashes() == {"h1"}  # refreshed, still live
        assert not store.try_claim("h1", "bob", ttl_s=30)

    # ----------------------------------------------- ordering / handoff
    def test_append_then_release_visibility(self, store_factory):
        # Pool A lands a unit and releases its lease; pool B, on winning
        # the subsequent claim, must already see the record via get().
        a, b = store_factory(), store_factory()
        assert a.try_claim("e" * 16, "pool-a", ttl_s=30)
        a.append(_record("e" * 16, 7.0))
        a.release("e" * 16, "pool-a")
        assert b.try_claim("e" * 16, "pool-b", ttl_s=30)
        assert b.get("e" * 16) == _record("e" * 16, 7.0)
        b.release("e" * 16, "pool-b")

    def test_append_and_release_then_claim_visibility(self, store_factory):
        # The same hand-off as above, landed through the one operation.
        a, b = store_factory(), store_factory()
        assert a.try_claim("e" * 16, "pool-a", ttl_s=30)
        a.append_and_release(_record("e" * 16, 7.0), "pool-a")
        assert b.try_claim("e" * 16, "pool-b", ttl_s=30)
        assert b.get("e" * 16) == _record("e" * 16, 7.0)
        b.release("e" * 16, "pool-b")

    # ------------------------------------------------ append_and_release
    def test_append_and_release_seen_by_second_handle(self, store_factory):
        writer, reader = store_factory(), store_factory()
        assert writer.try_claim("j" * 16, "alice", ttl_s=30)
        writer.append_and_release(_record("j" * 16, 5.0), "alice")
        assert reader.get("j" * 16) == _record("j" * 16, 5.0)
        assert reader.completed_hashes() == {"j" * 16}
        assert reader.leased_hashes() == set()

    def test_append_and_release_by_non_owner_keeps_peer_lease(
        self, store_factory
    ):
        alice, bob = store_factory(), store_factory()
        assert alice.try_claim("k" * 16, "alice", ttl_s=30)
        bob.append_and_release(_record("k" * 16, 6.0), "bob")
        assert alice.get("k" * 16) == _record("k" * 16, 6.0)
        if not alice.supports_leases:
            return
        assert alice.leased_hashes() == {"k" * 16}
        assert not bob.try_claim("k" * 16, "bob", ttl_s=30)
        assert alice.try_claim("k" * 16, "alice", ttl_s=30)

    def test_append_and_release_retry_is_noop(self, store_factory):
        # The first call landed but its acknowledgement was lost; the
        # retry, arriving after a peer claimed the unit, must neither
        # duplicate the record nor drop the peer's lease.
        alice, bob = store_factory(), store_factory()
        rec = _record("l" * 16, 8.0)
        assert alice.try_claim("l" * 16, "alice", ttl_s=30)
        alice.append_and_release(rec, "alice")
        alice.append_and_release(rec, "alice")  # the ambiguous retry
        assert alice.records() == {"l" * 16: rec}
        assert alice.leased_hashes() == set()
        if not alice.supports_leases:
            return
        assert bob.try_claim("l" * 16, "bob", ttl_s=30)
        alice.append_and_release(rec, "alice")  # a late retry
        assert bob.records() == {"l" * 16: rec}
        assert bob.leased_hashes() == {"l" * 16}
        assert not alice.try_claim("l" * 16, "alice", ttl_s=30)

    def test_idempotent_parent_merge_across_handles(self, store_factory):
        # Two pools sharing the backend both finish a sharded parent;
        # `run_campaign` adopts the stored record on the second merge,
        # so both runs return identical records and the store holds one.
        from repro.campaigns import run_campaign

        units = tuple(
            UnitSpec(
                experiment="contract",
                kind="contract-noop",
                algorithm="DB",
                dims=(4, 4, 4),
                length_flits=8,
                seed=0,
                replication=replication,
                params=freeze_params(),
            )
            for replication in range(3)
        )
        spec = CampaignSpec(name="contract-merge", seed=0, units=units)
        first = run_campaign(spec, store=store_factory())
        second = run_campaign(spec, store=store_factory())
        assert first == second
        assert len(store_factory().records()) == len(units)
