"""Tier-1 smoke test of the stack ledger (tens of units and queries).

Runs every workload of BENCHMARK.json once untraced and once traced at
``--size smoke`` and checks the harness itself: every declared metric
comes out exactly once with its unit, the span forest is well-formed,
a corrupted golden fails the run, and subprocess servers and scratch
directories are gone even when a check blows up.
"""

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import run  # noqa: F401 - bootstraps sys.path for the imports below
import compare
import harness
import loadgen
import workloads
from spans import SpanRecorder

DECLARED = json.loads(harness.BENCHMARK_JSON.read_text())
GOLDENS = json.loads(harness.GOLDENS_JSON.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_emits_every_declared_metric(workload, tmp_path):
    report = run.measure(
        workload, 0, harness.SMOKE, {run.UNTRACED, run.TRACED}, GOLDENS,
        trace_path=tmp_path / "trace.json",
    )
    assert report.failed == 0, report.failures
    for section in ("end_to_end", "per_layer"):
        line = run.contract_line(report, DECLARED[section])
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in DECLARED[section]}
        for entry in DECLARED[section]:
            assert NAME.match(entry["name"])
            assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert all(NAME.match(name) and m.unit for name, m in report.metrics.items())

    recorder = report.recorder
    assert recorder.problems() == []
    roots = [s for s in recorder.spans if s.parent is None]
    assert [s.name for s in roots] == [f"ledger.{workload}"]
    main_lane = [
        own for s, own in zip(recorder.spans, recorder.self_times()) if s.lane == 0
    ]
    assert sum(main_lane) == pytest.approx(roots[0].duration, rel=0.02)
    dumped = json.loads((tmp_path / "trace.json").read_text())
    assert len(dumped["spans"]) == len(recorder.spans)


def test_corrupted_golden_makes_run_exit_nonzero(tmp_path, capsys):
    bad = json.loads(harness.GOLDENS_JSON.read_text())
    bad["smoke"]["fig3_loaded"]["0"] = "0" * 64
    goldens = tmp_path / "goldens.json"
    goldens.write_text(json.dumps(bad))
    argv = ["--workload", "fig3_loaded", "--size", "smoke", "--trace", "0",
            "--out", str(tmp_path / "out.json"), "--goldens", str(goldens)]
    assert run.main(argv) == 1  # the same run passes with the real goldens above
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_unit_generation_rule_is_enforced():
    units = harness.units_from_docs(harness.unit_docs(3, 0, 500))
    assert len({u.unit_hash for u in units}) == 500
    assert max(u.replication for u in units) < harness.MAX_REPLICATION
    docs = harness.unit_docs(3, 0, 2)
    with pytest.raises(AssertionError, match="duplicate"):
        harness.units_from_docs(docs + docs[:1])
    with pytest.raises(AssertionError, match="replication"):
        harness.units_from_docs([dict(docs[0], replication=4)])


def test_servers_reaped_and_scratch_removed_when_the_run_raises(monkeypatch):
    seen = {}

    def exploding_run(self, recorder):
        seen.update(server=self.server, scratch=self.scratch.dir)
        assert self.server.proc.poll() is None and self.scratch.dir.exists()
        raise RuntimeError("run blew up")

    monkeypatch.setattr(workloads.ServeOracle, "run", exploding_run)
    with pytest.raises(RuntimeError, match="blew up"):
        run.measure("serve_oracle", 0, harness.SMOKE, {run.UNTRACED}, GOLDENS)
    assert seen["server"].proc.poll() is not None
    assert not seen["scratch"].exists()


def test_span_self_times_and_malformed_trees():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("ledger.root"):                 # 0 .. 7
        with recorder.span("store.get", trace="u1"):   # 1 .. 4
            with recorder.span("units.execute"):       # 2 .. 3
                pass
        with recorder.span("store.append"):            # 5 .. 6
            pass
    assert recorder.problems() == []
    assert recorder.self_times() == [3.0, 2.0, 1.0, 1.0]
    assert recorder.self_by_layer() == {"ledger": 3.0, "store": 3.0, "units": 1.0}
    assert recorder.spans[2].trace == "u1"  # inherited from the parent
    recorder.spans[2].end = 9.0  # child now outlives its parent
    assert any("not inside" in p for p in recorder.problems())


def test_open_loop_counts_latency_from_the_intended_send_time():
    class Slow(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):
            time.sleep(0.02)
            body = b"{}"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Slow)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        requests = [loadgen.Request("GET", "/")] * 8
        # 5 ms apart on one connection, 20 ms each: the queue grows, and
        # the last request is charged for the stall it waited out.
        result = loadgen.open_loop(url, requests, rate_per_s=200.0, connections=1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert [r.status for r in result.replies] == [200] * 8
    last = result.replies[-1]
    assert last.late_ms > 60  # sent >= 7 x 20 ms after start, due at 35 ms
    assert last.latency_ms > last.late_ms + 15  # the stall is in the latency


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict(steady, [80.0, 81.0, 79.0], 0.1, "higher") == "regressed"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], 0.1, "higher") == "improved"
    assert compare.verdict(steady, [105.0, 104.0, 106.0], 0.1, "higher") == "unchanged"
    assert compare.verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], 0.1, "lower") == "regressed"
    # one run a side: the spread is unknown, nothing beyond the bound resolves
    assert compare.verdict([100.0], [80.0], 0.1, "higher") == "unresolved"
    assert compare.verdict([100.0], [105.0], 0.1, "higher") == "unchanged"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, [101.0, 99.0, 100.0], 0.1, "lower") == "unresolved"
    side_a = {("w", "sim.events_per_op"): [{"value": 5.0, "unit": "count", "time": "exact"}]}
    side_b = {("w", "sim.events_per_op"): [{"value": 6.0, "unit": "count", "time": "exact"}]}
    assert compare.compare(side_a, side_a, {})[0]["verdict"] == "unchanged"
    assert compare.compare(side_a, side_b, {})[0]["verdict"] == "regressed"
