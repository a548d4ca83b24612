"""Campaign engine: parallel, resumable, multi-host experiment orchestration.

An experiment campaign is a declarative grid of independent simulation
*units* — one (algorithm, dims, message length, load, seed, replication)
point each — executed by a multiprocessing worker pool and merged back
into the row shapes the reporting/export layers consume.

Core pieces:

* :mod:`repro.campaigns.spec` — :class:`UnitSpec` / :class:`CampaignSpec`,
  declarative unit grids with stable content hashing;
* :mod:`repro.campaigns.pool` — serial or ``ProcessPoolExecutor``-based
  dispatch (``run_campaign``): declaration order in-process,
  largest-estimated-cost first across workers, byte-identical either
  way;
* :mod:`repro.campaigns.store` — the :class:`CampaignStore` contract and
  its local backends (append-only JSONL, SQLite in WAL mode, and a
  lease-arbitrated shared directory for multi-host fleets), giving
  crash-resumable and shareable campaigns;
* :mod:`repro.campaigns.remote` — the distributed fabric: a thin HTTP
  coordinator (``repro campaign serve``) exposing any local backend's
  operations as API calls, and :class:`HttpStore`, the client backend
  (``--store http://host:port``) with bounded retry and idempotent
  appends, so hosts sharing nothing but a URL drain one campaign;
* :mod:`repro.campaigns.units` — the unit runners ("broadcast",
  "broadcast-cell", "broadcast-shard", "traffic", "traffic-shard")
  that turn one :class:`UnitSpec` into a result record;
* :mod:`repro.campaigns.shards` — the parent→shard relationship: a
  heavy traffic point with ``shards=K`` fans out into K independent
  per-substream replications, a broadcast cell slices its source axis
  (fan-out picked at dispatch time, ``--shards auto`` inverting the
  fitted cost model), and a deterministic reducer fires when the last
  shard lands (``repro fig3 --shards 4 --workers 4``,
  ``repro fig1 --shards auto --workers 8``);
* :mod:`repro.campaigns.aggregate` — merges unit records back into the
  per-experiment row dataclasses.

Determinism contract: a unit derives every random draw it needs from
the campaign's master seed via the :class:`repro.sim.rng.RandomStreams`
spawn-key scheme (never from process-local state), so running a
campaign with ``--workers 4``, in any dispatch order, on any
store backend — or split across several cooperating pools — produces
rows identical to the serial run, and a crashed campaign resumes
exactly where it stopped.

See ``docs/campaigns.md`` for the store-backend contract, the lease
protocol and a multi-host walkthrough, and ``docs/architecture.md``
for how the campaigns layer sits atop the rest of the stack.
"""

from repro.campaigns.aggregate import (
    aggregate,
    failed_records,
    register_aggregator,
)
from repro.campaigns.costmodel import (
    CostModel,
    auto_shard_count,
    fit_cost_model,
    load_cost_model,
    load_default_cost_model,
)
from repro.campaigns.pool import (
    TooManyFailuresError,
    WorkerCrashError,
    estimate_unit_cost,
    execute_unit,
    order_units,
    register_unit_runner,
    run_campaign,
)
from repro.campaigns.shards import (
    merge_shard_records,
    planned_shards,
    shard_specs,
    unit_shards,
)
from repro.campaigns.remote import (
    CampaignCoordinator,
    HttpStore,
    StoreUnreachableError,
)
from repro.campaigns.spec import CampaignSpec, UnitSpec, freeze_params
from repro.campaigns.store import (
    BACKENDS,
    CampaignStore,
    JsonlStore,
    ResultStore,
    SharedDirStore,
    SqliteStore,
    UnitRecord,
    default_store_path,
    make_failure_record,
    open_store,
)

__all__ = [
    "BACKENDS",
    "CampaignCoordinator",
    "CampaignSpec",
    "CampaignStore",
    "CostModel",
    "HttpStore",
    "JsonlStore",
    "ResultStore",
    "SharedDirStore",
    "SqliteStore",
    "StoreUnreachableError",
    "TooManyFailuresError",
    "UnitRecord",
    "UnitSpec",
    "WorkerCrashError",
    "aggregate",
    "auto_shard_count",
    "default_store_path",
    "estimate_unit_cost",
    "execute_unit",
    "failed_records",
    "fit_cost_model",
    "freeze_params",
    "make_failure_record",
    "load_cost_model",
    "load_default_cost_model",
    "merge_shard_records",
    "open_store",
    "order_units",
    "planned_shards",
    "register_aggregator",
    "register_unit_runner",
    "run_campaign",
    "shard_specs",
    "unit_shards",
]
