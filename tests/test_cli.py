"""Tests for the command-line interface (`repro.cli`)."""

import pytest

from repro.cli import _parse_coord, _parse_dims, main


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

    actions = ("run", "status", "aggregate", "fit-cost", "trace", "retry-failed")
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
