"""Tests for the command-line interface (`repro.cli`)."""

import re

import pytest

from repro.campaigns.shards import shard_specs
from repro.campaigns.store import SqliteStore, UnitRecord, make_failure_record
from repro.cli import _parse_coord, _parse_dims, main
from repro.experiments.runner import campaign_for


def test_parse_dims():
    assert _parse_dims("8x8x8") == (8, 8, 8)
    assert _parse_dims("4X4") == (4, 4)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_dims("8x8xa")


def test_parse_coord():
    assert _parse_coord("3,4,5") == (3, 4, 5)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_coord("3;4")


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "table2" in out


def test_cli_list_one_experiment_per_line(capsys):
    from repro.experiments.runner import EXPERIMENTS

    main(["list"])
    lines = capsys.readouterr().out.strip().splitlines()
    # header + one line per experiment + the campaign subcommand
    assert len(lines) == 1 + len(EXPERIMENTS) + 1
    assert any(
        line.split()[0] == "fig1" and "latency" in line for line in lines
    )
    assert any(line.split()[0] == "campaign" for line in lines)


def test_cli_broadcast(capsys):
    assert main(["broadcast", "--algo", "AB", "--dims", "4x4x4"]) == 0
    out = capsys.readouterr().out
    assert "network latency" in out
    assert "63 nodes" in out


def test_cli_broadcast_custom_source(capsys):
    assert main(
        ["broadcast", "--algo", "DB", "--dims", "4x4", "--source", "1,2",
         "--flits", "16"]
    ) == 0
    out = capsys.readouterr().out
    assert "(1, 2)" in out


def test_cli_compare(capsys):
    assert main(["compare", "--dims", "4x4x4", "--flits", "32"]) == 0
    out = capsys.readouterr().out
    assert "RD" in out and "AB" in out and "steps" in out


def test_cli_experiment_table2(capsys):
    assert main(["table2", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "ABIMR%" in out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_rejects_unknown_algo():
    with pytest.raises(SystemExit):
        main(["broadcast", "--algo", "XYZ"])


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--engine", "event"],
        ["campaign", "run", "fig1", "--schedule", "adaptive"],
    ],
)
def test_cli_rejects_removed_dispatch_flags(argv, capsys):
    # The engine is REPRO_BROADCAST_ENGINE and dispatch order follows
    # --workers; neither is a flag.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_help_lists_no_engine_or_schedule(capsys):
    from repro.experiments.runner import EXPERIMENTS

    actions = ("run", "status", "aggregate", "trace", "retry-failed")
    commands = [[name] for name in EXPERIMENTS]
    commands += [["campaign", action] for action in actions]
    for command in commands:
        with pytest.raises(SystemExit) as exc:
            main(command + ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--engine" not in out and "--schedule" not in out, command


def test_cli_broadcast_profile(capsys):
    assert main(
        ["broadcast", "--algo", "DB", "--dims", "4x4x4", "--profile"]
    ) == 0
    out = capsys.readouterr().out
    assert "kernel profile" in out
    assert "events dispatched" in out
    assert "wormhole hops" in out


def test_cli_campaign_traced_run_trace_and_status(tmp_path, capsys):
    store = str(tmp_path / "fig1.sqlite")
    spool = str(tmp_path / "spool")
    args = ["fig1", "--scale", "smoke", "--store", store]

    # trace before any run: nothing to export
    assert main(["campaign", "trace"] + args) == 1
    assert "no trace" in capsys.readouterr().out

    assert main(["campaign", "run", "--trace", spool] + args) == 0
    out = capsys.readouterr().out
    assert "trace spooled to " + spool in out

    assert main(["campaign", "trace", "--trace", spool] + args) == 0
    out = capsys.readouterr().out
    assert "units traced: 32" in out and "exported" in out
    assert (tmp_path / "spool" / "trace.json").is_file()

    assert main(["campaign", "status", "--trace", spool] + args) == 0
    out = capsys.readouterr().out
    assert "32/32" in out  # the pinned headline is untouched
    assert "traced: 32 executed unit(s)" in out

    # Untraced runs print no trace line at all.
    assert main(["campaign", "run"] + args) == 0
    assert "trace" not in capsys.readouterr().out


def test_cli_campaign_status_json(tmp_path, capsys):
    import json

    store = str(tmp_path / "fig1.jsonl")
    args = ["fig1", "--scale", "smoke", "--store", store]
    assert main(["campaign", "run"] + args) == 0
    capsys.readouterr()
    assert main(["campaign", "status", "--json"] + args) == 0
    (payload,) = json.loads(capsys.readouterr().out)
    assert payload["campaign"] == "fig1-smoke-s0"
    assert payload["completed"] == payload["total"] == 32
    assert payload["trace"]["available"] is False
    assert len(payload["units"]) == 32
    unit = payload["units"][0]
    assert set(unit) >= {"unit", "hash", "state", "elapsed_s"}
    assert unit["state"] == "completed"


# ------------------------------------------------------ status agreement
# `campaign status` text is a rendering of the `--json` document, so the
# two must report the same counts for every store state.  Each case
# builds its state directly — ok records carry an empty result, which
# status never reads — and returns the CLI arguments plus an optional
# extra check on (doc, text).

HEADLINE = re.compile(
    r"campaign \S+ \[\w+\]: (?P<completed>\d+)/(?P<total>\d+) units"
    r" complete,(?: (?P<failed>\d+) failed \((?P<quarantined>\d+)"
    r" quarantined\),)? (?P<leased>\d+) leased \(in flight\)"
    r" \((?:complete|(?P<pending>\d+) pending)\)"
)
PEER = "worker-elsewhere"


def _ok(unit):
    return UnitRecord(
        unit_hash=unit.unit_hash,
        experiment=unit.experiment,
        spec=unit.as_dict(),
        result={},
    )


def _db_cell(spec):
    [cell] = [
        u for u in spec.units if u.algorithm == "DB" and u.dims == (4, 4, 4)
    ]
    return cell


def _status_empty(store, tmp_path):
    return ["fig1", "--scale", "smoke"], None


def _status_partial(store, tmp_path):
    spec = campaign_for("fig1", "smoke", 0)
    for unit in spec.units[:5]:
        store.append(_ok(unit))
    assert store.try_claim(spec.units[5].unit_hash, PEER, ttl_s=60)
    return ["fig1", "--scale", "smoke"], None


def _status_failed(store, tmp_path):
    spec = campaign_for("fig1", "smoke", 0)
    store.append(_ok(spec.units[0]))
    for unit, attempts in ((spec.units[1], 3), (spec.units[2], 1)):
        store.append(
            make_failure_record(unit, RuntimeError("boom"), attempts=attempts)
        )

    def check(doc, text):
        assert (doc["failed"], doc["quarantined"]) == (2, 1)
        assert "[quarantined] — RuntimeError: boom" in text

    return ["fig1", "--scale", "smoke"], check


def _status_failed_leased(store, tmp_path):
    """A failed unit a peer pool is retrying: one record plus a lease."""
    spec = campaign_for("fig1", "smoke", 0)
    store.append(_ok(spec.units[1]))
    failed = spec.units[0]
    store.append(make_failure_record(failed, RuntimeError("boom"), attempts=1))
    assert store.try_claim(failed.unit_hash, PEER, ttl_s=60)

    def check(doc, text):
        assert (doc["leased"], doc["failed"]) == (1, 0)
        [unit] = [u for u in doc["units"] if u["hash"] == failed.unit_hash]
        assert unit["state"] == "leased"
        assert unit["failure"]["reason"] == "RuntimeError: boom"
        assert "failed after 1 attempt(s) [in flight]" in text

    return ["fig1", "--scale", "smoke"], check


def _status_shards_in_flight(store, tmp_path):
    spec = campaign_for("fig1", "smoke", 0, shards=2)
    cell = _db_cell(spec)
    first, second = shard_specs(cell, 2)
    store.append(_ok(first))
    assert store.try_claim(second.unit_hash, PEER, ttl_s=60)
    store.append(_ok(spec.units[0]))
    # A landed shard whose owner has not released its lease yet is
    # landed, not in flight.
    other = spec.units[1]
    landed = shard_specs(other, 2)[0]
    assert store.try_claim(landed.unit_hash, PEER, ttl_s=60)
    store.append(_ok(landed))

    def check(doc, text):
        [unit] = [u for u in doc["units"] if u["hash"] == cell.unit_hash]
        assert unit["shards"] == {"planned": 2, "landed": 1, "in_flight": 1}
        assert f"{cell}: 1/2 shards, 0 to run, 1 in flight" in text
        [unit] = [u for u in doc["units"] if u["hash"] == other.unit_hash]
        assert unit["shards"] == {"planned": 2, "landed": 1, "in_flight": 0}
        assert f"{other}: 1/2 shards, 1 to run" in text

    return ["fig1", "--scale", "smoke", "--shards", "2"], check


def _status_auto_overlap(store, tmp_path):
    """Shards of two abandoned plans (3-way and 2-way) of one cell."""
    cell = _db_cell(campaign_for("fig1", "quick", 0, shards=2))
    for shard in shard_specs(cell, 3)[:2] + shard_specs(cell, 2)[:1]:
        store.append(_ok(shard))

    def check(doc, text):
        [unit] = [u for u in doc["units"] if u["hash"] == cell.unit_hash]
        assert unit["sources"] == {"covered": 4, "total": 5, "auto_shards": 3}
        assert "shards" not in unit
        assert f"{cell}: 4/5 sources in 3 auto shard(s)" in text

    return ["fig1", "--scale", "quick", "--shards", "auto"], check


def _status_traced_sharded(store, tmp_path):
    """Both shards of one cell executed and merged under a trace spool."""
    import itertools

    from repro.obs.trace import JsonlSink, Tracer, worker_trace_path

    spec = campaign_for("fig1", "smoke", 0, shards=2)
    cell = _db_cell(spec)
    spool = tmp_path / "spool"
    tracer = Tracer(
        JsonlSink(worker_trace_path(spool, "worker", 1)),
        role="worker",
        clock=itertools.count(0.0, 0.25).__next__,
        pid=1,
    )
    for shard in shard_specs(cell, 2):
        tracer.event("lease.claim", cat="lease", unit=shard.unit_hash)
        with tracer.span("unit.execute", cat="unit", unit=shard.unit_hash):
            pass
        store.append(_ok(shard))
    with tracer.span("unit.merge", cat="unit", unit=cell.unit_hash):
        pass
    store.append(_ok(cell))
    tracer.close()

    def check(doc, text):
        assert doc["trace"]["executed"] == 2
        assert "traced: 2 executed unit(s)" in text
        assert [s["hash"] for s in doc["trace"]["slowest"]] == [
            s.unit_hash for s in shard_specs(cell, 2)
        ]
        assert doc["trace"]["claim_to_start_mean_s"] == 0.25

    return ["fig1", "--scale", "smoke", "--shards", "2",
            "--trace", str(spool)], check


def _assert_status_agrees(doc, text):
    headline = HEADLINE.match(text)
    assert headline, text
    counts = {k: int(v or 0) for k, v in headline.groupdict().items()}
    assert {k: doc[k] for k in counts} == counts
    assert (
        doc["completed"] + doc["leased"] + doc["failed"] + doc["pending"]
        == doc["total"]
    )
    lines = text.splitlines()
    failures = [u for u in doc["units"] if "failure" in u]
    assert sum(": failed after " in line for line in lines) == len(failures)
    for unit in doc["units"]:
        if unit["state"] == "completed":
            continue
        if "shards" in unit:
            shards = unit["shards"]
            prefix = (
                f"  {unit['unit']}: {shards['landed']}/{shards['planned']}"
                " shards"
            )
            assert any(line.startswith(prefix) for line in lines), prefix
        if "sources" in unit:
            sources = unit["sources"]
            prefix = (
                f"  {unit['unit']}: {sources['covered']}/{sources['total']}"
                f" sources in {sources['auto_shards']} auto shard(s)"
            )
            assert any(line.startswith(prefix) for line in lines), prefix
    traced = re.search(r"traced: (\d+) executed unit\(s\)", text)
    assert doc["trace"]["executed"] == (int(traced.group(1)) if traced else 0)


@pytest.mark.parametrize(
    "build",
    [
        _status_empty,
        _status_partial,
        _status_failed,
        _status_failed_leased,
        _status_shards_in_flight,
        _status_auto_overlap,
        _status_traced_sharded,
    ],
    ids=lambda build: build.__name__[len("_status_"):],
)
def test_cli_status_text_and_json_agree(build, tmp_path, capsys):
    import json

    path = tmp_path / "campaign.sqlite"
    args, check = build(SqliteStore(path), tmp_path)
    args += ["--store", str(path)]
    assert main(["campaign", "status"] + args) == 0
    text = capsys.readouterr().out
    assert main(["campaign", "status", "--json"] + args) == 0
    (doc,) = json.loads(capsys.readouterr().out)
    _assert_status_agrees(doc, text)
    if check is not None:
        check(doc, text)
