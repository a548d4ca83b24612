#!/usr/bin/env python3
"""Validate a campaign trace spool (and its Perfetto export).

Checks the invariants the tracing subsystem promises, so CI can run a
traced campaign and fail loudly when a producer drifts from the record
schema of :mod:`repro.obs.trace`:

* every ``*.jsonl`` spool file opens with a ``meta`` record carrying
  the current ``TRACE_SCHEMA`` and a consistent pid;
* pool workers never touch the store: no spool whose ``meta`` role is
  ``worker`` holds a ``lease``-, ``store``- or ``rpc``-category record
  (the coordinating process makes every store call of a campaign);
* every span is well-formed (required fields, ``end_s >= start_s``)
  and every event carries a timestamp;
* there is at least one ``campaign`` span, and every ``unit.execute``
  span falls inside a campaign span's wall-clock window (the
  cross-process monotonic-clock alignment the exporter relies on);
* on lease-capable stores (any ``lease.*`` event present), every
  executed unit was claimed or stolen first, and its earliest claim
  precedes the execute span's start;
* every ``unit.merge`` span names its unit and a shard count;
* every ``rpc.*`` event (a distributed run through the HTTP
  coordinator) names the operation it carries;
* every failure-domain event is well-formed: ``unit.error`` names its
  unit, error and attempt number, ``unit.retry`` its unit, attempt and
  backoff, ``unit.quarantine`` its unit and final attempt count, and
  ``pool.respawn`` how many units the crash charged an attempt;
* an exported Chrome trace (``--chrome``) parses and contains only
  well-formed ``X``/``i``/``M`` events with non-negative durations.

Usage::

    python tools/check_trace.py campaigns/fig3-quick-s0.sqlite.traces
    python tools/check_trace.py <spool-dir> --chrome <spool-dir>/trace.json

Exit status 0 when every check passes, 1 otherwise (with one line per
violation).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.obs.trace import TRACE_SCHEMA, read_trace_file  # noqa: E402

SPAN_FIELDS = ("name", "cat", "id", "pid", "tid", "start_s", "end_s", "args")
EVENT_FIELDS = ("name", "cat", "pid", "tid", "ts_s", "args")

#: Record categories only the coordinating process may produce.
STORE_CATEGORIES = ("lease", "store", "rpc")

#: Slack (seconds) allowed when comparing timestamps across processes.
#: The clocks share one monotonic origin; this only absorbs float
#: rounding, not genuine skew.
EPS = 1e-6


def check_spool(trace_dir: Path):
    """Validate every spool file; returns (records, problems)."""
    problems = []
    records = []
    files = sorted(trace_dir.glob("*.jsonl"))
    if not files:
        return records, [f"{trace_dir}: no *.jsonl spool files"]
    for path in files:
        file_records = read_trace_file(path)
        if not file_records:
            problems.append(f"{path.name}: no loadable records")
            continue
        metas = [r for r in file_records if r.get("type") == "meta"]
        if not metas:
            problems.append(f"{path.name}: missing meta record")
        for meta in metas:
            if meta.get("schema") != TRACE_SCHEMA:
                problems.append(
                    f"{path.name}: schema {meta.get('schema')!r}"
                    f" != {TRACE_SCHEMA}"
                )
        pids = {r.get("pid") for r in file_records if "pid" in r}
        if len(pids) > 1:
            problems.append(f"{path.name}: mixed pids {sorted(pids)}")
        if any(meta.get("role") == "worker" for meta in metas):
            touched = sorted(
                {
                    r["cat"]
                    for r in file_records
                    if r.get("type") != "meta"
                    and r.get("cat") in STORE_CATEGORIES
                }
            )
            if touched:
                problems.append(
                    f"{path.name}: worker spool holds {touched} records"
                    " (pool workers must not touch the store)"
                )
        for record in file_records:
            kind = record.get("type")
            if kind == "span":
                missing = [f for f in SPAN_FIELDS if f not in record]
                if missing:
                    problems.append(
                        f"{path.name}: span missing {missing}: {record}"
                    )
                    continue
                if record["end_s"] < record["start_s"]:
                    problems.append(
                        f"{path.name}: span {record['name']!r} ends"
                        f" before it starts"
                    )
            elif kind == "event":
                missing = [f for f in EVENT_FIELDS if f not in record]
                if missing:
                    problems.append(
                        f"{path.name}: event missing {missing}: {record}"
                    )
            elif kind != "meta":
                problems.append(f"{path.name}: unknown record type {kind!r}")
        records.extend(file_records)
    return records, problems


def check_structure(records):
    """Cross-file invariants: campaign window, claims, merges."""
    problems = []
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]

    campaigns = [s for s in spans if s.get("name") == "campaign"]
    if not campaigns:
        problems.append("no campaign span recorded")

    executes = [s for s in spans if s.get("name") == "unit.execute"]
    for span in executes:
        inside = any(
            c["start_s"] - EPS <= span["start_s"]
            and span["end_s"] <= c["end_s"] + EPS
            for c in campaigns
        )
        if campaigns and not inside:
            unit = span.get("args", {}).get("unit", "?")
            problems.append(
                f"unit.execute {unit[:12]} outside every campaign span"
                " (clock misalignment?)"
            )
        if "unit" not in span.get("args", {}):
            problems.append("unit.execute span without a unit argument")

    lease_events = [e for e in events if e.get("cat") == "lease"]
    claims = {}
    for event in lease_events:
        if event["name"] in ("lease.claim", "lease.steal"):
            unit = event.get("args", {}).get("unit")
            if unit is not None:
                # The earliest claim, not the first one read: a pool that
                # absorbs a peer's landed record logs a late claim too,
                # and its spool file may sort first.
                ts = event["ts_s"]
                claims[unit] = min(ts, claims.get(unit, ts))
    if lease_events:
        for span in executes:
            unit = span.get("args", {}).get("unit")
            if unit is None:
                continue
            if unit not in claims:
                problems.append(
                    f"unit {unit[:12]} executed without a lease.claim/steal"
                )
            elif claims[unit] > span["start_s"] + EPS:
                problems.append(
                    f"unit {unit[:12]} claimed after its execute span began"
                )

    for span in spans:
        if span.get("name") == "unit.merge":
            args = span.get("args", {})
            if "unit" not in args:
                problems.append("unit.merge span without a unit argument")
            if not args.get("shards"):
                problems.append("unit.merge span without a shard count")

    rpc_events = [e for e in events if e.get("cat") == "rpc"]
    for event in rpc_events:
        if not event.get("args", {}).get("op"):
            problems.append(
                f"rpc event {event.get('name')!r} without an op argument"
            )

    #: failure-domain event name → args every producer must attach.
    failure_schema = {
        "unit.error": ("unit", "error", "attempt"),
        "unit.retry": ("unit", "attempt", "backoff_s"),
        "unit.quarantine": ("unit", "attempts"),
        "pool.respawn": ("lost",),
    }
    failure_counts = {name: 0 for name in failure_schema}
    for event in events:
        required = failure_schema.get(event.get("name"))
        if required is None:
            continue
        failure_counts[event["name"]] += 1
        missing = [f for f in required if f not in event.get("args", {})]
        if missing:
            problems.append(
                f"{event['name']} event missing args {missing}: {event}"
            )

    return problems, {
        "spans": len(spans),
        "events": len(events),
        "executed": len(executes),
        "claimed": len(claims),
        "merged": sum(1 for s in spans if s.get("name") == "unit.merge"),
        "rpc": len(rpc_events),
        "rpc_retries": sum(
            1 for e in rpc_events if e.get("name") == "rpc.retry"
        ),
        "errors": failure_counts["unit.error"],
        "retries": failure_counts["unit.retry"],
        "quarantined": failure_counts["unit.quarantine"],
        "respawns": failure_counts["pool.respawn"],
    }


def check_chrome(path: Path):
    """Validate an exported Chrome trace document."""
    problems = []
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"{path}: not valid JSON ({exc})"]
    trace_events = document.get("traceEvents")
    if not isinstance(trace_events, list) or not trace_events:
        return [f"{path}: missing or empty traceEvents"]
    for event in trace_events:
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"{path.name}: unknown phase {ph!r}")
        elif ph == "X" and (
            "ts" not in event or event.get("dur", -1.0) < 0.0
        ):
            problems.append(
                f"{path.name}: X event {event.get('name')!r}"
                " without ts/non-negative dur"
            )
        elif ph == "i" and "ts" not in event:
            problems.append(
                f"{path.name}: instant {event.get('name')!r} without ts"
            )
        if "name" not in event:
            problems.append(f"{path.name}: event without a name")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace_dir", help="campaign trace spool directory")
    parser.add_argument(
        "--chrome",
        default=None,
        metavar="FILE",
        help="also validate an exported Chrome trace JSON",
    )
    parser.add_argument(
        "--expect-units",
        type=int,
        default=None,
        metavar="N",
        help="require exactly N executed units in the spool",
    )
    args = parser.parse_args(argv)

    trace_dir = Path(args.trace_dir)
    if not trace_dir.is_dir():
        print(f"FAIL: {trace_dir} is not a directory")
        return 1

    records, problems = check_spool(trace_dir)
    structure_problems, counts = check_structure(records)
    problems.extend(structure_problems)
    if args.expect_units is not None and counts["executed"] != args.expect_units:
        problems.append(
            f"expected {args.expect_units} executed unit(s),"
            f" found {counts['executed']}"
        )
    if args.chrome:
        problems.extend(check_chrome(Path(args.chrome)))

    for problem in problems:
        print(f"FAIL: {problem}")
    verdict = "FAIL" if problems else "ok"
    rpc_note = ""
    if counts["rpc"]:
        rpc_note = (
            f", {counts['rpc']} rpc ({counts['rpc_retries']} retried)"
        )
    failure_note = ""
    if counts["errors"] or counts["respawns"]:
        failure_note = (
            f", {counts['errors']} error(s) ({counts['retries']} retried,"
            f" {counts['quarantined']} quarantined,"
            f" {counts['respawns']} respawn(s))"
        )
    print(
        f"{verdict}: {trace_dir} — {counts['spans']} span(s),"
        f" {counts['events']} event(s), {counts['executed']} executed,"
        f" {counts['claimed']} claimed, {counts['merged']} merged"
        + rpc_note
        + failure_note
        + (f"; {len(problems)} problem(s)" if problems else "")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
