"""The tail-following `JsonlStore` handle cache.

A handle decodes each appended line once and afterwards answers
``get``/``records`` from memory after one ``stat``.  These tests pin
the cost model by counting decodes (no timing), check the cache
against a fresh handle after every kind of file mutation, and pin that
callers cannot corrupt the shared cache through returned objects.
"""

import json
import os
import pickle
import sys
import threading

import pytest

from repro.campaigns.store import STATUS_FAILED, JsonlStore, UnitRecord
from repro.cli import _cmd_retry_failed


def _record(i, value=None):
    return UnitRecord(
        unit_hash=f"h{i:05d}",
        experiment="tail",
        spec={"algorithm": "DB", "dims": [4, 4, 4], "i": i},
        result={"value": i if value is None else value},
    )


def _line(record):
    return json.dumps(record.to_dict(), sort_keys=True) + "\n"


@pytest.fixture
def decodes(monkeypatch):
    """Count `UnitRecord.from_dict` calls (one per decoded line)."""
    calls = []
    original = UnitRecord.from_dict.__func__

    def counting(cls, data):
        calls.append(data["unit_hash"])
        return original(cls, data)

    monkeypatch.setattr(UnitRecord, "from_dict", classmethod(counting))
    return calls


# ------------------------------------------------------------------ cost
def test_warm_gets_decode_nothing_and_an_append_decodes_one_line(
    tmp_path, decodes
):
    path = tmp_path / "c.jsonl"
    path.write_text("".join(_line(_record(i)) for i in range(1000)))
    store = JsonlStore(path)
    assert store.get("h00000") == _record(0)
    assert len(decodes) == 1000

    decodes.clear()
    for i in range(100):
        assert store.get(f"h{i * 7:05d}") == _record(i * 7)
    assert decodes == []

    store.append(_record(1000))
    assert store.get("h01000") == _record(1000)
    assert decodes == ["h01000"]

    # A torn write is re-read only from its own start once completed.
    torn = _line(_record(1001))
    decodes.clear()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(torn[:20])
        handle.flush()
        assert store.get("h01001") is None
        handle.write(torn[20:])
    assert store.get("h01001") == _record(1001)
    assert decodes == ["h01001"]

    decodes.clear()
    assert len(JsonlStore(path).records()) == 1002  # a new handle: cold
    assert len(decodes) == 1002


def test_pickled_handle_carries_only_its_path(tmp_path):
    path = tmp_path / "c.jsonl"
    store = JsonlStore(path)
    store.append(_record(0))
    store.records()
    small = len(pickle.dumps(store))
    store.extend(_record(i) for i in range(1, 500))
    assert len(store.records()) == 500
    assert len(pickle.dumps(store)) == small
    clone = pickle.loads(pickle.dumps(store))
    assert clone.path == path
    assert clone.records() == store.records()


# ---------------------------------------------------- fresh-handle oracle
def _rewrite_in_place(path, text):
    with open(path, "r+", encoding="utf-8") as handle:
        handle.seek(0)
        handle.write(text)
        handle.truncate()


def _mutations(path):
    """Scripted file mutations, each a (name, callable) step."""
    peer = JsonlStore(path)  # a second handle onto the same file

    def append(i):
        return lambda: peer.append(_record(i))

    def raw(text):
        def write():
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(text)

        return write

    torn = _line(_record(3))
    cut = len(torn) // 2
    replacement = path.with_name("replacement.jsonl")

    def replace_with_new_inode():
        # The first line is as long as the one it replaces, so only the
        # inode tells the handle that its consumed prefix is gone.
        replacement.write_text(_line(_record(5)) + _line(_record(6)))
        os.replace(replacement, path)

    def grow_in_place():
        # Same inode, longer file, and (unlike an append) new content
        # where the handle's consumed prefix used to be.
        _rewrite_in_place(
            path, "".join(_line(_record(i, value=-i)) for i in range(50, 60))
        )

    return [
        ("append", append(1)),
        ("append", append(2)),
        ("torn write with no newline", raw(torn[:cut])),
        ("that line completed", raw(torn[cut:])),
        ("garbage line mid-file", raw("{not json\n")),
        ("append after garbage", append(4)),
        ("valid unterminated tail", raw(torn.rstrip("\n"))),
        ("tail completed", raw("\n")),
        ("truncate", lambda: _rewrite_in_place(path, _line(_record(9)))),
        ("os.replace with a new inode", replace_with_new_inode),
        ("in-place rewrite to a longer file", grow_in_place),
        ("append through a second handle", append(70)),
        ("file removed", lambda: os.unlink(path)),
        ("file recreated", append(80)),
    ]


def test_long_lived_handle_matches_a_fresh_handle_after_every_mutation(
    tmp_path,
):
    path = tmp_path / "c.jsonl"
    live = JsonlStore(path)
    assert live.records() == {}
    for step, mutate in _mutations(path):
        mutate()
        expected = JsonlStore(path).records()
        assert live.records() == expected, step
        probes = set(expected) | {f"h{i:05d}" for i in range(100)}
        for unit_hash in probes:
            assert live.get(unit_hash) == expected.get(unit_hash), step


def test_valid_unterminated_tail_is_read_but_not_consumed(tmp_path):
    path = tmp_path / "c.jsonl"
    store = JsonlStore(path)
    store.append(_record(0))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(_line(_record(1, value="first")).rstrip("\n"))
    assert store.get("h00001").result == {"value": "first"}
    # The writer was mid-line: what it finishes must be what we see.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n" + _line(_record(1, value="second")))
    assert store.get("h00001").result == {"value": "second"}
    assert store.records() == JsonlStore(path).records()


def test_one_handle_shared_by_threads_never_loses_or_repeats_a_line(
    tmp_path,
):
    path = tmp_path / "c.jsonl"
    shared = JsonlStore(path)
    writer = JsonlStore(path)
    done = threading.Event()
    errors = []

    def read():
        seen = 0
        while not done.is_set():
            records = shared.records()
            if len(records) < seen or any(
                shared.get(h) != r for h, r in records.items()
            ):
                errors.append(len(records))
                return
            seen = len(records)

    readers = [threading.Thread(target=read) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers:
            thread.start()
        for i in range(300):
            writer.append(_record(i))
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert errors == []
    assert shared.records() == JsonlStore(path).records()
    assert len(shared.records()) == 300


# -------------------------------------------------------------- aliasing
def test_mutating_returned_records_does_not_change_the_cache(tmp_path):
    store = JsonlStore(tmp_path / "c.jsonl")
    store.extend([_record(0), _record(1)])
    snapshot = store.records()
    snapshot.pop("h00000")
    snapshot["h00001"] = _record(99)
    snapshot["h00002"] = _record(2)
    assert store.get("h00000") == _record(0)
    assert store.get("h00001") == _record(1)
    assert store.get("h00002") is None
    assert set(store.records()) == {"h00000", "h00001"}


def test_query_answer_result_is_a_copy(tmp_path):
    from repro.service import EstimatorService, spec_for_query

    query = {"algorithm": "DB", "dims": [4, 4, 4], "length_flits": 16}
    spec = spec_for_query(query)
    store = JsonlStore(tmp_path / "svc.jsonl")
    store.append(
        UnitRecord(
            unit_hash=spec.unit_hash,
            experiment=spec.experiment,
            spec=spec.as_dict(),
            result={"network_latency": 1.5},
        )
    )
    with EstimatorService(store) as service:
        first = service.query(query)
        assert first["status"] == "hit"
        first["result"]["network_latency"] = -1.0
        first["result"]["injected"] = True
        assert service.query(query)["result"] == {"network_latency": 1.5}
    assert store.get(spec.unit_hash).result == {"network_latency": 1.5}


def test_retry_failed_does_not_mutate_cached_failure_records(
    tmp_path, capsys
):
    store = JsonlStore(tmp_path / "c.jsonl")
    failed = UnitRecord(
        unit_hash="bad",
        experiment="tail",
        spec={},
        result={"error": "RuntimeError", "attempts": 3},
        status=STATUS_FAILED,
    )
    store.append(failed)
    held = store.get("bad")

    class _Spec:
        name = "tail"

    assert _cmd_retry_failed(_Spec(), store) == 0
    assert held.result["attempts"] == 3  # the old object is untouched
    assert store.get("bad").attempts == 0
    assert "reset 1 of 1" in capsys.readouterr().out


def test_decode_line_skips_non_object_json(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '["unit_hash", "experiment", "spec", "result"]\n'
        + '"unit_hash experiment spec result"\n'
        + _line(_record(0))
    )
    assert set(JsonlStore(path).records()) == {"h00000"}
