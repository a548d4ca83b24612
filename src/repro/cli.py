"""Command-line interface.

Regenerate any of the paper's tables/figures::

    repro fig1 --scale quick
    repro table2 --scale full --seed 7 --workers 8
    repro list

run a parallel, resumable campaign (results land in a pluggable store
— JSONL, SQLite or a lease-arbitrated shared directory — and a re-run
skips every already-completed unit)::

    repro campaign run fig4 --scale full --workers 8
    repro campaign run fig4 --scale full --store-backend sqlite
    repro campaign status fig4 --scale full
    repro campaign aggregate fig4 --scale full --out fig4.csv

shard the heavy units themselves (traffic points fan out into K
independent, mergeable replications; broadcast cells slice their
source axis — so even a single slow unit spreads over the worker
fleet, and ``auto`` gives each broadcast cell one shard per worker;
status reports per-unit shard progress)::

    repro campaign run fig4 --scale full --shards 8 --workers 8
    repro campaign status fig4 --scale full --shards 8
    repro campaign run fig1 --scale full --shards auto --workers 8

serve a store over HTTP so a fleet of hosts sharing nothing but a URL
drains one campaign (claim/heartbeat/append become API calls with
bounded retry and idempotent appends)::

    repro campaign serve --store campaigns/fig4-full-s0.sqlite --port 8931
    repro campaign run fig4 --scale full --workers 8 \
        --store http://coordinator:8931            # any number of hosts
    repro campaign status fig4 --scale full --store http://coordinator:8931

or run a one-off broadcast and print its profile::

    repro broadcast --algo AB --dims 8x8x8 --source 3,4,5

See ``docs/campaigns.md`` for store backends, dispatch order and the
multi-host lease protocol.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.comparison import compare_algorithms
from repro.campaigns.aggregate import failed_records
from repro.campaigns.pool import TooManyFailuresError, run_campaign
from repro.campaigns.remote import DEFAULT_PORT, StoreUnreachableError
from repro.campaigns.store import (
    BACKENDS,
    CampaignStore,
    default_store_path,
    open_store,
)
from repro.core.adaptive_broadcast import AdaptiveBroadcast
from repro.core.executors import EventDrivenExecutor
from repro.core.registry import algorithm_names, get_algorithm
from repro.experiments.common import failure_note
from repro.experiments.reporting import format_table
from repro.experiments.runner import EXPERIMENTS, campaign_for, run_experiment
from repro.network.network import NetworkConfig, NetworkSimulator
from repro.network.topology import Mesh
from repro.obs.trace import (
    export_chrome_trace,
    read_trace_dir,
    summarize_trace,
    trace_dir_for,
)
from repro.service.estimator import DEFAULT_SERVICE_PORT

__all__ = ["main"]

CAMPAIGN_HELP = "run experiment campaigns (parallel, resumable)"

#: Fidelity levels every experiment declares, cheapest first.
SCALES = ("smoke", "quick", "full")


def _parse_dims(text: str):
    try:
        return tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}; use e.g. 8x8x8")


def _parse_coord(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coordinate {text!r}; use e.g. 3,4,5")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {text!r}")
    return value


def _shards_arg(text: str):
    """``--shards`` value: a positive count or the literal ``auto``."""
    if text.strip().lower() == "auto":
        return "auto"
    return _positive_int(text)


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _add_experiment_options(
    parser: argparse.ArgumentParser, workers: bool = True
) -> None:
    parser.add_argument("--scale", default="quick", choices=SCALES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards",
        type=_shards_arg,
        default=1,
        metavar="K",
        help=(
            "split each heavy unit into K mergeable sub-units so workers"
            " can parallelise inside it: traffic points (fig3/fig4) run K"
            " independent replications, broadcast cells slice their"
            " source axis; 'auto' gives each broadcast cell one shard per"
            " worker and leaves traffic points whole; 1 = the original"
            " per-unit protocol"
        ),
    )
    parser.add_argument(
        "--store-backend",
        default=None,
        choices=sorted(BACKENDS) + ["http"],
        help=(
            "campaign store backend (default: inferred from --store's"
            " suffix or URL scheme, else jsonl; http needs --store"
            " http://host:port pointing at `repro campaign serve`)"
        ),
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "spool span traces of the run (campaign/unit/merge spans,"
            " lease and cache events, store op latencies) as per-process"
            " JSONL files into DIR (default: the <store>.traces directory"
            " next to the campaign store); export with"
            " `repro campaign trace`"
        ),
    )
    parser.add_argument(
        "--retries",
        type=_nonneg_int,
        default=2,
        metavar="N",
        help=(
            "re-execute a failing unit up to N times with exponential"
            " backoff before quarantining it via its persisted failure"
            " record (default 2; racing pools share one budget through"
            " the store)"
        ),
    )
    parser.add_argument(
        "--max-failures",
        type=_nonneg_int,
        default=None,
        metavar="N",
        help=(
            "abort the run once more than N units are quarantined"
            " (default: never abort — healthy units all complete and"
            " failed cells are reported; 0 = strict fail-fast on the"
            " first error, the pre-failure-domain behaviour)"
        ),
    )
    if workers:
        parser.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            metavar="N",
            help=(
                "shard simulation units over N worker processes; with"
                " N > 1 the largest estimated units start first"
            ),
        )


def _add_server_arguments(
    parser: argparse.ArgumentParser,
    *,
    store_help: str,
    backends: List[str],
    port: int,
    spool: str,
) -> None:
    """The arguments ``campaign serve`` and ``serve`` share."""
    parser.add_argument(
        "--store", required=True, metavar="PATH", help=store_help
    )
    parser.add_argument(
        "--store-backend",
        default=None,
        choices=backends,
        help="store backend (default: inferred from --store)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (0.0.0.0 to accept remote clients)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=port,
        help=f"port to listen on (default {port}; 0 = ephemeral)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            f"spool {spool} into DIR (default: the store's trace"
            " directory)"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On the Performance of Broadcast Algorithms in"
            " Interconnection Networks' (Al-Dubai & Ould-Khaoua, ICPP 2005)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    for experiment in EXPERIMENTS.values():
        p = sub.add_parser(experiment.id, help=experiment.title)
        _add_experiment_options(p)
        p.add_argument(
            "--store",
            default=None,
            metavar="PATH",
            help=(
                "also persist/reuse unit results in a campaign store"
                " (resumable; see --store-backend)"
            ),
        )
        p.add_argument(
            "--out",
            default=None,
            metavar="FILE",
            help="also save the rows to FILE (.json or .csv)",
        )

    camp = sub.add_parser("campaign", help=CAMPAIGN_HELP)
    camp_sub = camp.add_subparsers(dest="campaign_command", required=True)
    for action, help_text in (
        ("run", "execute a campaign's pending units (resumes from --store)"),
        ("status", "show completed/pending unit counts"),
        ("aggregate", "rebuild result rows from a (complete) store"),
        (
            "trace",
            "merge a traced run's span spools and export Perfetto JSON",
        ),
        (
            "retry-failed",
            "clear quarantined/failed unit records so the next run"
            " retries them with a fresh budget",
        ),
    ):
        cp = camp_sub.add_parser(action, help=help_text)
        cp.add_argument("experiment", choices=sorted(EXPERIMENTS))
        _add_experiment_options(cp, workers=(action == "run"))
        if action == "status":
            cp.add_argument(
                "--json",
                action="store_true",
                dest="as_json",
                help=(
                    "machine-readable status: units by state, per-unit"
                    " elapsed time, shard progress and trace availability"
                ),
            )
        cp.add_argument(
            "--store",
            default=None,
            metavar="PATH",
            help=(
                "unit-result store: a .jsonl/.sqlite file or a shared"
                " directory (default: campaigns/<name>.<backend>)"
            ),
        )
        if action == "run":
            cp.add_argument(
                "--cache",
                action="append",
                default=None,
                metavar="PATH",
                help=(
                    "extra read-only store(s) to reuse matching unit"
                    " results from (repeatable); sibling-scale stores"
                    " in the campaigns/ directory are found"
                    " automatically"
                ),
            )
        if action in ("run", "aggregate"):
            cp.add_argument(
                "--out",
                default=None,
                metavar="FILE",
                help="also save the aggregated rows to FILE (.json or .csv)",
            )
        if action == "trace":
            cp.add_argument(
                "--out",
                default=None,
                metavar="FILE",
                help=(
                    "where to write the Chrome-trace-event JSON (default:"
                    " <trace-dir>/trace.json); load it in Perfetto"
                    " (https://ui.perfetto.dev) or chrome://tracing"
                ),
            )

    sv = camp_sub.add_parser(
        "serve",
        help=(
            "serve a campaign store over HTTP so remote pools"
            " (--store http://host:port) can drain it"
        ),
    )
    _add_server_arguments(
        sv,
        store_help=(
            "the local backing store to serve (.jsonl/.sqlite/directory)"
        ),
        backends=sorted(BACKENDS),
        port=DEFAULT_PORT,
        spool=(
            "the coordinator's rpc.* events (claims granted, appends"
            " deduped) as a server-<pid>.jsonl file"
        ),
    )

    srv = sub.add_parser(
        "serve",
        help=(
            "run the live estimator: answer latency queries from a"
            " campaign store, simulating misses on demand"
        ),
    )
    _add_server_arguments(
        srv,
        store_help=(
            "the campaign store answering queries"
            " (.jsonl/.sqlite/directory, or http://host:port of a"
            " `repro campaign serve` coordinator)"
        ),
        backends=sorted(BACKENDS) + ["http"],
        port=DEFAULT_SERVICE_PORT,
        spool=(
            "the service's svc.* spans (queries, hits, enqueues, miss"
            " simulations, the drain) as a service-<pid>.jsonl file"
        ),
    )
    srv.add_argument(
        "--retries",
        type=_nonneg_int,
        default=2,
        metavar="N",
        help=(
            "retry budget for each miss simulation before its failure"
            " record quarantines the unit (default 2)"
        ),
    )

    b = sub.add_parser("broadcast", help="run one broadcast and print stats")
    b.add_argument("--algo", default="DB", choices=algorithm_names())
    b.add_argument("--dims", type=_parse_dims, default=(8, 8, 8))
    b.add_argument("--source", type=_parse_coord, default=None)
    b.add_argument("--flits", type=int, default=100)
    b.add_argument(
        "--profile",
        action="store_true",
        help=(
            "also print the kernel's profiling counters (events by"
            " category, heap high-water mark, pool hit rates, channel"
            " wait time, wormhole batching ratio)"
        ),
    )

    c = sub.add_parser("compare", help="analytic comparison of all algorithms")
    c.add_argument("--dims", type=_parse_dims, default=(8, 8, 8))
    c.add_argument("--flits", type=int, default=100)
    return parser


def _cmd_list() -> int:
    print("experiments:")
    for experiment_id in sorted(EXPERIMENTS):
        print(f"  {experiment_id:<18s} {EXPERIMENTS[experiment_id].title}")
    print(f"  {'campaign':<18s} {CAMPAIGN_HELP}")
    return 0


def _cmd_broadcast(args) -> int:
    mesh = Mesh(args.dims)
    cls = get_algorithm(args.algo)
    algorithm = cls(mesh)
    source = args.source or tuple(d // 2 for d in args.dims)
    schedule = algorithm.schedule(source)
    network = NetworkSimulator(
        mesh, NetworkConfig(ports_per_node=algorithm.ports_required)
    )
    routing = (
        AdaptiveBroadcast.make_routing(mesh) if algorithm.adaptive else None
    )
    outcome = EventDrivenExecutor(network, adaptive_routing=routing).execute(
        schedule, args.flits
    )
    print(
        f"{args.algo} broadcast on {'x'.join(map(str, args.dims))} from"
        f" {source} (L={args.flits} flits)"
    )
    print(f"  steps:            {schedule.num_steps}")
    print(f"  worms launched:   {schedule.total_sends()}")
    print(f"  delivered:        {outcome.delivered_count} nodes")
    print(f"  network latency:  {outcome.network_latency:.3f} us")
    print(f"  mean latency:     {outcome.mean_latency:.3f} us")
    print(f"  CV of arrivals:   {outcome.coefficient_of_variation:.4f}")
    if args.profile:
        prof = network.env.profile()
        print("kernel profile:")
        print(
            f"  events dispatched: {prof['dispatched']}"
            f" (holds {prof['holds']}, timeouts {prof['timeouts']},"
            f" other {prof['events']})"
        )
        print(f"  heap peak:         {prof['heap_peak']}")
        print(
            f"  timeout pool:      {prof['timeout_pool_hit_rate']:.1%} hit"
            f" ({prof['timeout_pool_hits']} hits,"
            f" {prof['timeout_pool_misses']} misses)"
        )
        print(
            f"  channel waits:     {prof['channel_waits']}"
            f" (mean {prof['mean_channel_wait_s']:.4f} us simulated)"
        )
        print(
            f"  wormhole hops:     {prof['worm_batched_ratio']:.1%} batched"
            f" ({prof['worm_hops_batched']} batched,"
            f" {prof['worm_hops_slow']} per-hop)"
        )
    return 0


def _cmd_compare(args) -> int:
    rows = [r.as_dict() for r in compare_algorithms(args.dims, args.flits)]
    print(format_table(rows))
    return 0


def _save(rows, out: Optional[str]) -> None:
    if out:
        from repro.experiments.export import save_rows

        path = save_rows(rows, out)
        print(f"\nrows saved to {path}")


def _campaign_store(
    args, spec, default_backend: Optional[str] = "jsonl"
) -> Optional[CampaignStore]:
    """Resolve --store/--store-backend to a concrete store.

    An explicit path or URL wins (backend inferred from its suffix /
    scheme unless --store-backend pins it); otherwise the backend's
    conventional ``campaigns/<name>.<ext>`` location is used, with
    ``default_backend`` standing in for an absent --store-backend
    (``None``: no store at all, the experiment commands' default).
    The http backend has no conventional location — it always needs
    the coordinator's URL.
    """
    if args.store:
        return open_store(args.store, args.store_backend)
    backend = args.store_backend or default_backend
    if backend is None:
        return None
    if backend == "http":
        raise SystemExit(
            "repro: --store-backend http needs the coordinator's URL:"
            " --store http://host:port (start one with"
            " `repro campaign serve`)"
        )
    return open_store(default_store_path(spec.name, backend), backend)


def _trace_dir(args, spec, store: Optional[CampaignStore]) -> Optional[Path]:
    """Resolve ``--trace[=DIR]`` for an executing command.

    ``None`` means tracing is off.  A bare ``--trace`` spools next to
    the campaign store (``<store>.traces``) or, with no store, into
    the default campaigns/ layout.
    """
    trace = getattr(args, "trace", None)
    if trace is None:
        return None
    if trace:
        return Path(trace)
    if store is not None:
        return trace_dir_for(store)
    return default_store_path(spec.name, "jsonl").with_suffix(".traces")


def _status_trace_dir(args, store: CampaignStore) -> Path:
    """Where ``campaign status``/``trace`` look for spooled traces."""
    trace = getattr(args, "trace", None)
    if trace:
        return Path(trace)
    return trace_dir_for(store)


def _default_layout_stores(args, scales, backends) -> List[CampaignStore]:
    """Open every store of the experiment/seed that exists in the
    default ``campaigns/`` layout, over ``scales`` x ``backends``."""
    stores = []
    for scale in scales:
        name = campaign_for(args.experiment, scale, args.seed).name
        for backend in backends:
            path = default_store_path(name, backend)
            if path.exists():
                stores.append(open_store(path, backend))
    return stores


def _campaign_caches(args, spec) -> List[CampaignStore]:
    """Cache stores for ``campaign run``: explicit --cache paths plus
    any sibling-scale store of the same experiment/seed/backend found
    in the default campaigns/ layout (so a ``full`` run reuses every
    overlapping unit a ``quick`` or ``smoke`` run already computed)."""
    caches = [open_store(path) for path in (getattr(args, "cache", None) or [])]
    if not args.store:  # sibling discovery needs the default layout
        caches += _default_layout_stores(
            args,
            [scale for scale in SCALES if scale != args.scale],
            [args.store_backend or "jsonl"],
        )
    return caches


def _cell_coverage(sources: int, slices) -> dict:
    """Source coverage of an auto-sharded broadcast cell.

    ``slices`` are the ``(lo, hi)`` source ranges of the cell's stored
    shards.  Slices from several abandoned plans may overlap, so the
    coverage is their interval union.  A slice reaching past the cell
    belongs to a *larger-scale* plan of the same cell key (the key
    strips the replication count) — drop it, so coverage never exceeds
    the cell and never claims a merge this cell's plans cannot fire.
    """
    own = sorted(s for s in slices if s[1] <= sources)
    covered, reach = 0, 0
    for lo, hi in own:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return {"covered": covered, "total": sources, "auto_shards": len(own)}


def _campaign_status_dict(
    spec,
    store: CampaignStore,
    shards=1,
    trace_dir: Optional[Path] = None,
    retries: int = 2,
) -> dict:
    """Status of ``spec`` in one store (``campaign status --json``).

    The only status code that reads the store: one ``records()``
    snapshot and one ``leased_hashes()`` call, so every fact comes
    from one view of it (over ``HttpStore`` each read is an RPC).
    :func:`_campaign_status` renders this dict as text.

    Each unit has exactly one ``state``, by precedence ``completed``
    → ``leased`` → ``failed`` → ``pending``: a failed unit a peer pool
    has claimed again is in flight, and keeps its ``failure`` detail
    (error, message, reason, attempts, quarantined under ``retries``).
    The four state counts sum to ``total``; ``quarantined`` counts the
    failed units whose stored attempts exceed ``retries``.

    Sharded units count as one unit each, with ``shards`` progress
    (``planned``/``landed``/``in_flight``) for a planned fan-out.
    Broadcast cells under ``--shards auto`` have no pre-agreed plan
    (the executing pools pick the fan-out), so an incomplete one gets
    ``sources`` coverage (``covered``/``total``/``auto_shards``)
    inferred from the shard records the store holds.  When a trace
    spool exists, units carry their span timings and ``trace``
    summarises every traced unit, shards included.
    """
    from repro.campaigns.shards import (
        BROADCAST_CELL_KIND,
        BROADCAST_SHARD_KIND,
        broadcast_cell_key,
        cell_sources,
        planned_shards,
        shard_specs,
    )

    records = store.records()
    leased = store.leased_hashes()
    landed = {h for h, r in records.items() if r.ok}
    auto = shards == "auto"
    slices_by_cell: dict = {}
    if auto:
        # The fan-out of an auto cell is whatever the executing pools
        # picked, so read the plan off the stored shard records.
        for unit_hash in landed:
            shard_spec = records[unit_hash].unit_spec
            if shard_spec.kind != BROADCAST_SHARD_KIND:
                continue
            offset = int(shard_spec.param("source_offset", 0))
            count = int(shard_spec.param("source_count", 0))
            slices_by_cell.setdefault(
                broadcast_cell_key(shard_spec), []
            ).append((offset, offset + count))
    traced: dict = {}
    trace_available = trace_dir is not None and trace_dir.is_dir()
    if trace_available:
        traced = summarize_trace(read_trace_dir(trace_dir)).get("units", {})

    units = []
    counts = {"completed": 0, "leased": 0, "failed": 0, "pending": 0}
    quarantined = 0
    for unit in spec.units:
        unit_hash = unit.unit_hash
        record = records.get(unit_hash)
        if unit_hash in landed:
            state = "completed"
        elif unit_hash in leased:
            state = "leased"
        elif record is not None:
            state = "failed"
        else:
            state = "pending"
        counts[state] += 1
        entry: dict = {"unit": str(unit), "hash": unit_hash, "state": state}
        if state == "completed":
            entry["elapsed_s"] = record.elapsed_s
        elif record is not None:
            in_quarantine = record.attempts > retries
            if state == "failed" and in_quarantine:
                quarantined += 1
            entry["failure"] = {
                "error": record.result.get("error", ""),
                "message": record.result.get("message", ""),
                "reason": record.failure_reason,
                "attempts": record.attempts,
                "quarantined": in_quarantine,
            }
        if auto and unit.kind == BROADCAST_CELL_KIND:
            if state != "completed":
                entry["sources"] = _cell_coverage(
                    cell_sources(unit),
                    slices_by_cell.get(broadcast_cell_key(unit), []),
                )
        else:
            fan_out = planned_shards(unit, requested=shards)
            if fan_out > 1:
                plan = {s.unit_hash for s in shard_specs(unit, fan_out)}
                entry["shards"] = {
                    "planned": len(plan),
                    "landed": len(plan & landed),
                    "in_flight": len((plan & leased) - landed),
                }
        timing = traced.get(unit_hash)
        if timing:
            entry["trace"] = timing
        units.append(entry)

    trace = {
        "dir": str(trace_dir) if trace_dir is not None else None,
        "available": trace_available,
        "executed": 0,
    }
    execs = {
        h: t["spans"]["unit.execute"]
        for h, t in traced.items()
        if t.get("spans", {}).get("unit.execute")
    }
    if execs:
        queues = [t["queued_s"] for t in traced.values() if "queued_s" in t]
        slowest = sorted(execs.items(), key=lambda kv: -kv[1])[:3]
        trace.update(
            executed=len(execs),
            execute_mean_s=sum(execs.values()) / len(execs),
            execute_max_s=max(execs.values()),
            claim_to_start_mean_s=(
                sum(queues) / len(queues) if queues else None
            ),
            slowest=[{"hash": h, **traced[h]} for h, _ in slowest],
        )
    return {
        "campaign": spec.name,
        "backend": store.backend,
        "store": str(store.path),
        "total": len(spec.units),
        **counts,
        "quarantined": quarantined,
        "trace": trace,
        "units": units,
    }


def _campaign_status(status: dict) -> str:
    """Render a :func:`_campaign_status_dict` document as text.

    A headline with the four state counts, then one line per unit
    with a failure record (attempts, ``[quarantined]`` once the stored
    attempts exceed the retry budget, ``[in flight]`` while a peer
    retries it), one progress line per incomplete sharded unit
    (``2/4 shards, merge pending``) or auto-sharded cell (source
    coverage), and — from a traced run — the timing summary with the
    three slowest units.
    """
    done = status["completed"] == status["total"]
    failed_note = (
        f" {status['failed']} failed ({status['quarantined']} quarantined),"
        if status["failed"]
        else ""
    )
    lines = [
        f"campaign {status['campaign']} [{status['backend']}]:"
        f" {status['completed']}/{status['total']} units complete,"
        f"{failed_note}"
        f" {status['leased']} leased (in flight)"
        f" ({'complete' if done else str(status['pending']) + ' pending'})"
        f" — store: {status['store']}"
    ]
    for unit in status["units"]:
        failure = unit.get("failure")
        if failure is None:
            continue
        tag = " [quarantined]" if failure["quarantined"] else ""
        if unit["state"] == "leased":
            tag += " [in flight]"
        lines.append(
            f"  {unit['unit']}: failed after {failure['attempts']}"
            f" attempt(s){tag} — {failure['reason']}"
        )
    for unit in status["units"]:
        if unit["state"] == "completed":
            continue
        if "sources" in unit:
            cov = unit["sources"]
            covered, sources = cov["covered"], cov["total"]
            note = (
                "merge pending" if covered >= sources
                else f"{sources - covered} sources to run"
            )
            lines.append(
                f"  {unit['unit']}: {covered}/{sources} sources in"
                f" {cov['auto_shards']} auto shard(s), {note}"
            )
        elif "shards" in unit:
            progress = unit["shards"]
            planned, landed = progress["planned"], progress["landed"]
            in_flight = progress["in_flight"]
            if landed == planned:
                note = "merge pending"
            else:
                # Same convention as the headline: in-flight (leased)
                # shards are not part of the to-run count.
                note = f"{planned - landed - in_flight} to run"
                if in_flight:
                    note += f", {in_flight} in flight"
            lines.append(
                f"  {unit['unit']}: {landed}/{planned} shards, {note}"
            )

    trace = status["trace"]
    if trace["executed"]:
        line = (
            f"  traced: {trace['executed']} executed unit(s) in {trace['dir']}"
            f" — execute mean {trace['execute_mean_s']:.2f}s,"
            f" max {trace['execute_max_s']:.2f}s"
        )
        if trace["claim_to_start_mean_s"] is not None:
            line += (
                f"; claim-to-start mean {trace['claim_to_start_mean_s']:.2f}s"
            )
        lines.append(line)
        for slow in trace["slowest"]:
            parts = ", ".join(
                f"{name.split('.', 1)[-1]} {dur:.2f}s"
                for name, dur in sorted(slow["spans"].items())
            )
            if "queued_s" in slow:
                parts += f", queued {slow['queued_s']:.2f}s"
            lines.append(f"    {slow['hash'][:12]}: {parts}")
    return "\n".join(lines)


def _cmd_campaign_trace(args, spec) -> int:
    """Merge a traced campaign's spool files and export Perfetto JSON."""
    store = _campaign_store(args, spec)
    trace_dir = _status_trace_dir(args, store)
    if not trace_dir.is_dir():
        print(
            f"campaign trace: no trace spool at {trace_dir};"
            f" run the campaign with --trace first"
        )
        return 1
    records = read_trace_dir(trace_dir)
    if not records:
        print(f"campaign trace: {trace_dir} holds no trace records")
        return 1
    out = Path(args.out) if args.out else trace_dir / "trace.json"
    export_chrome_trace(records, out)
    summary = summarize_trace(records)
    roles = list(summary["processes"].values())
    print(
        f"campaign {spec.name}: {summary['spans']} spans,"
        f" {summary['events']} events from {len(roles)} process(es)"
        f" ({roles.count('pool')} pool, {roles.count('worker')} worker)"
        f" over {summary['wall_s']:.2f}s"
    )
    print(f"  units traced: {len(summary['units'])}")
    failures = summary.get("failures", {})
    if failures:
        print(
            "  failure events: "
            + ", ".join(
                f"{name} x{count}"
                for name, count in sorted(failures.items())
            )
        )
    rpc = summary.get("rpc", {})
    if rpc:
        retries = rpc.get("rpc.retry", 0)
        calls = sum(n for name, n in rpc.items() if name != "rpc.retry")
        print(
            f"  coordinator rpc: {calls} call event(s),"
            f" {retries} retry(ies) — distributed run"
        )
    print(
        f"  exported {out} — open it in Perfetto (https://ui.perfetto.dev)"
        f" or chrome://tracing"
    )
    return 0


def _serve_until_signalled(
    args, role: str, events: str, title: str, build
) -> int:
    """Serve until SIGINT/SIGTERM, then close the server and exit 0.

    The loop of both serve commands.  ``build(store, tracer)`` returns the server and the banner lines
    after the first, which ends with the URL that scripts parse.
    Process managers (and coreutils ``timeout``) may deliver a signal
    more than once; only the first starts the close, so a repeat
    cannot interrupt it.
    """
    import os
    import signal

    from repro.obs.trace import NULL_TRACER, JsonlSink, Tracer, worker_trace_path

    store = open_store(args.store, args.store_backend)
    tracer = NULL_TRACER
    if args.trace is not None:
        spool_dir = Path(args.trace) if args.trace else trace_dir_for(store)
        tracer = Tracer(
            JsonlSink(worker_trace_path(spool_dir, role, os.getpid())),
            role=role,
        )
        print(f"{events} events spooling to {spool_dir}")
    server, hints = build(store, tracer)
    draining = False

    def _graceful(signum: int, frame) -> None:
        nonlocal draining
        if draining:
            return
        draining = True
        raise KeyboardInterrupt(f"signal {signum}")

    restore = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            restore.append((sig, signal.signal(sig, _graceful)))
        except (ValueError, OSError):  # pragma: no cover - platform
            pass
    print(f"{title} listening on {server.url}")
    print("\n".join(hints), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print(f"{title}: draining", flush=True)
    finally:
        draining = True  # ignore repeated signals for the whole close
        try:
            server.close()
            tracer.close()
        finally:
            for sig, previous in restore:
                signal.signal(sig, previous)
    print(f"{title}: drained cleanly")
    return 0


def _cmd_campaign_serve(args) -> int:
    """Run the campaign coordinator until SIGINT/SIGTERM.

    The service is stateless beyond its bounded append-dedup window:
    every record and lease lives in the backing store, so killing and
    restarting the coordinator mid-campaign is safe — clients retry,
    then resume.
    """
    from repro.campaigns.remote import CampaignCoordinator

    def build(backing, tracer):
        coordinator = CampaignCoordinator(
            backing, host=args.host, port=args.port, tracer=tracer
        )
        return coordinator, [
            f"  backing store: {backing.describe()}",
            f"  point worker pools at it with: --store {coordinator.url}",
        ]

    return _serve_until_signalled(
        args, "server", "rpc", "campaign coordinator", build
    )


def _cmd_serve(args) -> int:
    """Run the live estimator until SIGINT/SIGTERM, then drain.

    The listener stops accepting, the in-flight miss simulation
    finishes and releases its lease through the ordinary campaign
    machinery, and the process exits 0 — every answered record is
    already in the store, so a restart resumes with a warm cache.
    """
    from repro.service import EstimatorServer, EstimatorService

    def build(store, tracer):
        service = EstimatorService(store, tracer=tracer, retries=args.retries)
        server = EstimatorServer(service, host=args.host, port=args.port)
        return server, [
            f"  answer cache: {store.describe()}",
            f"  query it with: curl -X POST {server.url}/v1/query"
            " -d '{\"algorithm\": \"DB\", \"dims\": [8, 8, 8]}'",
        ]

    return _serve_until_signalled(
        args, "service", "svc", "estimator service", build
    )


def _cmd_campaign(args) -> int:
    if args.campaign_command == "serve":
        return _cmd_campaign_serve(args)
    spec = campaign_for(
        args.experiment, args.scale, args.seed, shards=args.shards
    )
    if args.campaign_command == "trace":
        return _cmd_campaign_trace(args, spec)
    if args.campaign_command == "status":
        # No explicit store: report every backend found in the default
        # layout (per-backend totals), not just the jsonl one.
        if args.store or args.store_backend:
            stores = [_campaign_store(args, spec)]
        else:
            stores = _default_layout_stores(
                args, [args.scale], sorted(BACKENDS)
            ) or [_campaign_store(args, spec)]
        docs = [
            _campaign_status_dict(
                spec,
                store,
                shards=args.shards,
                trace_dir=_status_trace_dir(args, store),
                retries=args.retries,
            )
            for store in stores
        ]
        if args.as_json:
            import json

            print(json.dumps(docs, indent=2))
        else:
            print("\n".join(_campaign_status(doc) for doc in docs))
        return 0

    store = _campaign_store(args, spec)
    if args.campaign_command == "retry-failed":
        return _cmd_retry_failed(spec, store)
    if args.campaign_command == "run":
        trace_dir = _trace_dir(args, spec, store)
        records = run_campaign(
            spec,
            workers=args.workers,
            store=store,
            progress=print,
            cache=_campaign_caches(args, spec),
            shards=args.shards,
            trace_dir=trace_dir,
            retries=args.retries,
            max_failures=args.max_failures,
        )
        if trace_dir is not None:
            print(
                f"trace spooled to {trace_dir} — export with"
                f" `repro campaign trace {args.experiment}"
                f" --scale {args.scale}`"
            )
    else:  # aggregate
        stored = store.records_for(spec)
        records = [r for r in stored if r is not None]
        pending = len(spec) - len(records)
        if pending:  # aggregate needs every unit
            resume = (
                f"repro campaign run {args.experiment}"
                f" --scale {args.scale} --seed {args.seed}"
            )
            if args.shards != 1:
                resume += f" --shards {args.shards}"
            if args.store:
                resume += f" --store {args.store}"
            if args.store_backend:
                resume += f" --store-backend {args.store_backend}"
            print(
                f"campaign {spec.name}: only {len(records)}/{len(spec)}"
                f" units in {store.path}; run `{resume}` to finish it first"
            )
            return 1
    failed = failed_records(records)
    experiment = EXPERIMENTS[args.experiment]
    rows = experiment.aggregate(records)
    print(experiment.format(rows))
    for record in failed:
        print(failure_note(record), file=sys.stderr)
    if failed:
        print(
            f"campaign {spec.name}: {len(failed)} unit(s) failed —"
            f" inspect with `repro campaign status {args.experiment}"
            f" --scale {args.scale}`, reset budgets with"
            f" `repro campaign retry-failed {args.experiment}"
            f" --scale {args.scale}`",
            file=sys.stderr,
        )
    _save(rows, getattr(args, "out", None))
    return 1 if failed else 0


def _cmd_retry_failed(spec, store: CampaignStore) -> int:
    """``campaign retry-failed``: reset failed units' retry budgets.

    Re-appends every failure record in the store (units *and* shards)
    with its attempt ledger zeroed — last-wins on every backend — so
    the next ``campaign run`` treats those units as never attempted
    instead of quarantined.  The failure metadata stays visible in
    ``campaign status`` until a successful run overwrites the record.
    """
    from dataclasses import replace

    failed = [r for r in store.records().values() if r.failed]
    reset = [r for r in failed if r.attempts > 0]
    for record in reset:
        result = dict(record.result)
        result["attempts"] = 0
        store.append(replace(record, result=result))
    print(
        f"campaign {spec.name} [{store.backend}]: reset"
        f" {len(reset)} of {len(failed)} failed record(s);"
        f" the next run retries them with a fresh budget"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro`` console script)."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "broadcast":
            return _cmd_broadcast(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "serve":
            return _cmd_serve(args)
        spec = campaign_for(
            args.command, args.scale, args.seed, shards=args.shards
        )
        store = _campaign_store(args, spec, default_backend=None)
        trace_dir = _trace_dir(args, spec, store)
        rows, text = run_experiment(
            args.command,
            args.scale,
            args.seed,
            workers=args.workers,
            store=store,
            shards=args.shards,
            spec=spec,
            trace_dir=trace_dir,
            retries=args.retries,
            max_failures=args.max_failures,
        )
        print(text)
        if trace_dir is not None:
            print(f"\ntrace spooled to {trace_dir}")
        _save(rows, getattr(args, "out", None))
        return 0
    except StoreUnreachableError as exc:
        # A down/unreachable coordinator is an operational condition,
        # not a bug: one actionable line, not a traceback.
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except TooManyFailuresError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # The pool already released its leases and printed a takeover
        # summary; exit with the conventional SIGINT status.
        print("repro: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:  # e.g. `repro fig1 | head`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
