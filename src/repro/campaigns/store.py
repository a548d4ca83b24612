"""Campaign result stores: one contract, three backends.

A store persists :class:`UnitRecord` objects keyed by unit content
hash and, optionally, arbitrates *leases* so several worker pools can
share one store without executing a unit twice.  The contract is
:class:`CampaignStore`; the backends are:

``jsonl``  (:class:`JsonlStore`)
    The original append-only JSONL file.  Single writer, zero setup,
    crash-resumable (a truncated tail line is tolerated and re-run).
``sqlite`` (:class:`SqliteStore`)
    One SQLite database in WAL mode.  Safe for many concurrent worker
    pools on one host; leases live in a second table.
``shared`` (:class:`SharedDirStore`)
    A plain directory (one JSON file per record) that any shared
    filesystem (NFS, …) can host.  Processes on *different hosts*
    claim units by atomically creating per-unit lease files
    (``O_CREAT | O_EXCL``), so a fleet can drain one campaign together.

A fourth backend lives in :mod:`repro.campaigns.remote`:

``http``   (:class:`~repro.campaigns.remote.HttpStore`)
    A network client for a ``repro campaign serve`` coordinator —
    ``open_store("http://host:8931")`` — so hosts sharing nothing but
    a URL drain one campaign (no shared mount required).

Usage::

    from repro.campaigns.store import open_store

    store = open_store("campaigns/fig4-full-s0.sqlite")   # inferred
    store = open_store("campaigns/fig4", backend="shared")  # explicit
    run_campaign(spec, workers=8, store=store)

Every backend reads and writes the same :class:`UnitRecord` payloads,
so aggregating a campaign from any backend yields byte-identical rows
(see ``docs/campaigns.md`` for the full contract and lease protocol).
"""

from __future__ import annotations

import abc
import json
import os
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set

from repro.campaigns.spec import CampaignSpec, UnitSpec

__all__ = [
    "STATUS_FAILED",
    "STATUS_OK",
    "UnitRecord",
    "CampaignStore",
    "JsonlStore",
    "ResultStore",
    "SqliteStore",
    "SharedDirStore",
    "BACKENDS",
    "DEFAULT_LEASE_TTL_S",
    "TracedStore",
    "open_store",
    "default_store_path",
    "make_failure_record",
    "make_owner_id",
]

_REQUIRED_KEYS = ("unit_hash", "experiment", "spec", "result")

#: How long a claimed-but-unfinished unit stays reserved before other
#: pools may steal it (i.e. how long a crashed worker can block a unit).
#: Executing processes heartbeat their lease every TTL/3
#: (:func:`repro.campaigns.pool.lease_heartbeat`), so the TTL may sit
#: far below the longest unit's duration — it only bounds crash
#: recovery, not unit length.  Clocks across hosts sharing a store
#: must agree to well within TTL/3.
DEFAULT_LEASE_TTL_S = 120.0

#: record status values — ``"ok"`` is a completed result, ``"failed"``
#: a persisted failure (exception metadata in ``result``; see
#: :func:`make_failure_record`).  Failure records make unit failure
#: *data*: they resume, replicate across backends, arbitrate retry
#: budgets between racing pools, and quarantine poison units.
STATUS_OK = "ok"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class UnitRecord:
    """The persisted outcome of one executed unit.

    A record is either a completed result (``status == "ok"``, the
    default) or a persisted *failure* (``status == "failed"``), whose
    ``result`` carries the exception metadata instead of simulation
    output: ``{"error", "message", "traceback_digest", "attempts",
    "owner"}`` (see :func:`make_failure_record`).  Failure records are
    what lets a campaign treat a raising unit as data — they survive
    restarts, replicate through every backend, and carry the shared
    attempt count racing pools use to honour one retry budget.

    Example::

        record = UnitRecord(
            unit_hash=spec.unit_hash,
            experiment=spec.experiment,
            spec=spec.as_dict(),
            result={"network_latency": 12.5},
        )
        store.append(record)
    """

    unit_hash: str
    experiment: str
    spec: Dict[str, Any]
    result: Dict[str, Any]
    #: wall-clock metadata; excluded from equality so serial, parallel
    #: and store-resumed records with identical results compare equal.
    elapsed_s: float = field(default=0.0, compare=False)
    #: ``"ok"`` or ``"failed"`` (:data:`STATUS_OK` / :data:`STATUS_FAILED`).
    status: str = STATUS_OK

    @property
    def unit_spec(self) -> UnitSpec:
        """The record's spec, reconstructed as a :class:`UnitSpec`."""
        return UnitSpec.from_dict(self.spec)

    @property
    def ok(self) -> bool:
        """True iff this record is a completed result."""
        return self.status == STATUS_OK

    @property
    def failed(self) -> bool:
        """True iff this record is a persisted failure."""
        return self.status == STATUS_FAILED

    @property
    def attempts(self) -> int:
        """Execution attempts recorded so far (0 for ok records)."""
        if not self.failed:
            return 0
        try:
            return int(self.result.get("attempts", 1))
        except (TypeError, ValueError):
            return 1

    @property
    def failure_reason(self) -> str:
        """Human-readable ``Type: message`` for a failure record."""
        if not self.failed:
            return ""
        error = str(self.result.get("error", "Error"))
        message = str(self.result.get("message", ""))
        return f"{error}: {message}" if message else error

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "unit_hash": self.unit_hash,
            "experiment": self.experiment,
            "spec": self.spec,
            "result": self.result,
            "elapsed_s": self.elapsed_s,
        }
        # Emitted only when set, so ok records keep their historical
        # byte layout (resume/golden-diff paths hash stored bytes).
        if self.status != STATUS_OK:
            data["status"] = self.status
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "UnitRecord":
        return cls(
            unit_hash=data["unit_hash"],
            experiment=data["experiment"],
            spec=dict(data["spec"]),
            result=dict(data["result"]),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            status=str(data.get("status", STATUS_OK)),
        )


def make_failure_record(
    spec: UnitSpec, exc: BaseException, attempts: int, owner: str = ""
) -> UnitRecord:
    """A :data:`STATUS_FAILED` record describing one unit's failure.

    The exception is flattened to data — type name, message, and a
    16-hex digest of the traceback (enough to tell two failure *sites*
    apart without persisting unbounded text) — plus the attempt count,
    which is the cross-pool retry ledger: racing pools read it back
    under the unit's lease and resume the shared budget instead of
    restarting their own.
    """
    import hashlib
    import traceback

    tb_text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return UnitRecord(
        unit_hash=spec.unit_hash,
        experiment=spec.experiment,
        spec=spec.as_dict(),
        result={
            "error": type(exc).__name__,
            "message": str(exc),
            "traceback_digest": hashlib.sha256(
                tb_text.encode("utf-8")
            ).hexdigest()[:16],
            "attempts": int(attempts),
            "owner": owner,
        },
        status=STATUS_FAILED,
    )


def make_owner_id() -> str:
    """A lease owner token unique across hosts, processes and runs.

    The ``host:pid:nonce`` shape is load-bearing: a claimant on the
    same host can recognise a lease whose owner process has died (see
    :func:`owner_is_dead_local`) and steal it without waiting out the
    TTL — the common "killed the run, restarted it" case resumes
    immediately.
    """
    import socket

    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def owner_is_dead_local(owner: str) -> bool:
    """True iff ``owner`` names a process on *this* host that no
    longer exists.

    Standard pidfile semantics (with the standard pid-recycling
    caveat, which only re-opens the harmless double-execution window).
    Unknown token shapes and other hosts are conservatively presumed
    alive — they must wait out the lease TTL.
    """
    import socket

    host, _, rest = owner.partition(":")
    pid_text, _, _ = rest.partition(":")
    if host != socket.gethostname():
        return False
    try:
        pid = int(pid_text)
    except ValueError:
        return False
    if pid <= 0 or pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # pragma: no cover - exists, not ours
        return False
    return False


class CampaignStore(abc.ABC):
    """Storage contract for campaign unit records.

    A backend must persist records durably-enough that a crashed run
    loses at most the units in flight, and must key everything by the
    unit's content hash — the hash *is* the identity, which is what
    makes resume, cross-scale caching and multi-pool sharing work.

    Lease protocol (optional — backends with
    ``supports_leases = False`` run the single-pool fast path):

    1. a pool calls :meth:`try_claim` with its owner token before
       executing a unit; ``False`` means another live pool holds it;
    2. the executing pool calls :meth:`append` and then
       :meth:`release` when the unit completes;
    3. a lease older than its TTL is *stale* (the claimant crashed)
       and :meth:`try_claim` may steal it.

    Claiming is advisory for correctness of results (units are pure,
    so a double execution wastes time but cannot change a row) and
    load-bearing only for efficiency — which is why the default
    implementation simply always grants the claim.
    """

    #: short backend id ("jsonl", "sqlite", "shared"); set per subclass.
    backend: str = "?"
    #: whether :meth:`try_claim` actually arbitrates between pools.
    supports_leases: bool = False

    path: Path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.path}>"

    def describe(self) -> str:
        """Human-readable identity for progress/status lines."""
        return f"{self.backend}:{self.path}"

    # ------------------------------------------------------------ records
    @abc.abstractmethod
    def records(self) -> Dict[str, UnitRecord]:
        """All stored records, keyed by unit hash (last record wins)."""

    @abc.abstractmethod
    def append(self, record: UnitRecord) -> None:
        """Durably store one record (creating the store on demand)."""

    def get(self, unit_hash: str) -> Optional[UnitRecord]:
        """The stored record for one unit, or ``None``.

        This default decodes the whole store per call, so every shipped
        backend overrides it: ``sqlite``, ``shared`` and ``http`` with a
        point lookup, ``jsonl`` with its handle's tail-following cache
        (one ``stat`` plus a dict lookup).  The pool calls it after every
        successful claim to close the
        finished-and-released race (a completing pool appends *before*
        releasing, so a freshly claimable unit either has a record or
        truly never ran).
        """
        return self.records().get(unit_hash)

    def completed_hashes(self) -> Set[str]:
        """Hashes of every unit with a stored *ok* result.

        Failure records (``status == "failed"``) are deliberately
        excluded: a failed unit is not complete — it is retryable (or
        quarantined), and resume/status logic must see it as such.
        Use :meth:`records` to observe failure records.
        """
        return {h for h, record in self.records().items() if record.ok}

    def records_for(self, spec: CampaignSpec) -> List[Optional[UnitRecord]]:
        """Stored records for a campaign's units, in declaration order
        (``None`` where a unit has not completed yet)."""
        stored = self.records()
        return [stored.get(unit.unit_hash) for unit in spec.units]

    # ------------------------------------------------------------- leases
    def try_claim(
        self, unit_hash: str, owner: str, ttl_s: float = DEFAULT_LEASE_TTL_S
    ) -> bool:
        """Reserve a unit for ``owner``; ``True`` iff the claim holds.

        Re-claiming a unit you already own is a *refresh*: it must be
        granted and must extend the lease's expiry, so a claim retried
        after an ambiguous failure (the first attempt landed but its
        acknowledgement was lost) re-executes harmlessly.  The base
        implementation has no peers to arbitrate against and always
        grants the claim.
        """
        return True

    def release(self, unit_hash: str, owner: str) -> None:
        """Drop ``owner``'s lease on a unit (no-op if not held).

        Idempotent for the owning caller: re-releasing an
        already-released lease is a no-op, and a stale release retried
        after a peer has since claimed the unit must leave the peer's
        lease intact — only the pair (unit, owner) is ever dropped.
        """

    def leased_hashes(self) -> Set[str]:
        """Hashes currently under a live (unexpired) lease."""
        return set()


class JsonlStore(CampaignStore):
    """Append-only JSONL file of :class:`UnitRecord` lines.

    The store is append-only; if a unit somehow appears twice the last
    record wins.  Reads tolerate a corrupt/truncated tail so a crashed
    writer never poisons the campaign.  Single-writer: it grants every
    claim, so two pools sharing one JSONL file would duplicate work
    (use ``sqlite`` or ``shared`` for that).

    Each handle follows the file's tail: it keeps the decoded records,
    the byte offset just past the last complete line it consumed and
    the file's ``(st_dev, st_ino)``, so :meth:`get` and :meth:`records`
    cost one ``stat`` plus a dict lookup / copy and decode only lines
    appended since the previous call.  A handle re-reads from byte 0
    when the file is gone, has shrunk, has a new inode, or the byte
    before its offset is no longer a newline (an in-place rewrite).
    An unterminated last line is decoded while it is valid but never
    consumed, so a torn write is re-read once it is completed.  The
    cache holds every record in memory and is per handle; pickling
    drops it, so pool workers receive only the path.

    Example::

        store = JsonlStore("campaigns/fig1-quick-s0.jsonl")
        run_campaign(spec, store=store)      # first run: executes
        run_campaign(spec, store=store)      # re-run: all cached
    """

    backend = "jsonl"
    #: per-handle state that pickling drops (rebuilt by the receiver)
    _CACHE_ATTRS = (
        "_lock", "_records", "_offset", "_seen", "_identity", "_tail"
    )

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._forget()

    def __getstate__(self) -> Dict[str, Any]:
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in self._CACHE_ATTRS
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._forget()

    def _forget(self) -> None:
        self._records: Dict[str, UnitRecord] = {}
        #: byte offset just past the last complete line consumed
        self._offset = 0
        #: bytes examined so far: ``_offset`` plus the unterminated tail
        self._seen = 0
        self._identity: Optional[tuple] = None
        #: the decoded unterminated last line, if it is a valid record
        self._tail: Optional[UnitRecord] = None

    def _refresh(self) -> None:
        """Catch up with the file (caller holds ``_lock``)."""
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            self._forget()
            return
        identity = (st.st_dev, st.st_ino)
        if identity == self._identity and st.st_size == self._seen:
            return
        try:
            handle = self.path.open("rb")
        except FileNotFoundError:
            self._forget()
            return
        with handle:
            st = os.fstat(handle.fileno())
            identity = (st.st_dev, st.st_ino)
            if identity != self._identity:
                self._forget()
            elif self._offset:
                # A shrunk or rewritten file fails this probe (past EOF
                # it reads b""); an append never does.
                handle.seek(self._offset - 1)
                if handle.read(1) != b"\n":
                    self._forget()
            self._identity = identity
            handle.seek(self._offset)
            chunk = handle.read()
        end = chunk.rfind(b"\n") + 1
        for line in chunk[:end].split(b"\n"):
            record = _decode_line(line)
            if record is not None:
                self._records[record.unit_hash] = record
        self._tail = _decode_line(chunk[end:])
        self._offset += end
        self._seen = self._offset + len(chunk) - end

    def records(self) -> Dict[str, UnitRecord]:
        with self._lock:
            self._refresh()
            records = dict(self._records)
            tail = self._tail
        if tail is not None:
            records[tail.unit_hash] = tail
        return records

    def get(self, unit_hash: str) -> Optional[UnitRecord]:
        with self._lock:
            self._refresh()
            tail = self._tail
            if tail is not None and tail.unit_hash == unit_hash:
                return tail
            return self._records.get(unit_hash)

    def append(self, record: UnitRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def _decode_line(line: bytes) -> Optional[UnitRecord]:
    """One JSONL line as a record, or ``None`` if blank, corrupt (a
    crash-truncated write; the unit re-runs) or missing a key."""
    line = line.strip()
    if not line:
        return None
    try:
        data = json.loads(line)
    except ValueError:
        return None
    if not isinstance(data, dict):
        return None
    if not all(key in data for key in _REQUIRED_KEYS):
        return None
    return UnitRecord.from_dict(data)


#: Backwards-compatible name: the original store class was ``ResultStore``.
ResultStore = JsonlStore

#: Connections a forked child inherited from its parent's
#: :class:`SqliteStore` handles; kept referenced so the child never
#: closes them.
_INHERITED_CONNECTIONS: List[sqlite3.Connection] = []


class SqliteStore(CampaignStore):
    """SQLite-backed store, safe for concurrent pools on one host.

    The database runs in WAL mode so many processes can append records
    while readers aggregate; leases live in a second table and are
    arbitrated by SQLite's own locking.

    Each handle keeps one connection per process and reuses it for
    every operation, guarded by the handle's lock so threads can share
    the handle: closing a database's last open connection checkpoints
    its WAL and deletes the ``-wal``/``-shm`` files, which would make
    every operation rebuild the WAL.  Each operation is one transaction
    and leaves no statement or read transaction open, so other
    processes' writes show at the next call.  The handle re-opens when
    the file is gone or has a new ``(st_dev, st_ino)``, and in a forked
    child, which never uses or closes its parent's connection.
    Pickling drops the connection, so pool workers receive only the
    path.

    Example::

        store = SqliteStore("campaigns/fig4-full-s0.sqlite")
        # terminal 1 and terminal 2, simultaneously:
        #   repro campaign run fig4 --scale full --workers 4 \\
        #       --store-backend sqlite
        # each pool claims disjoint units; no unit runs twice.
    """

    backend = "sqlite"
    supports_leases = True
    #: per-process handle state that pickling drops (rebuilt by the receiver)
    _HANDLE_ATTRS = (
        "_lock", "_con", "_pid", "_identity", "_wal_ready", "_schema_ready"
    )

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS records ("
        " unit_hash TEXT PRIMARY KEY, experiment TEXT NOT NULL,"
        " spec TEXT NOT NULL, result TEXT NOT NULL,"
        " elapsed_s REAL NOT NULL DEFAULT 0.0,"
        " status TEXT NOT NULL DEFAULT 'ok')",
        "CREATE TABLE IF NOT EXISTS leases ("
        " unit_hash TEXT PRIMARY KEY, owner TEXT NOT NULL,"
        " expires_at REAL NOT NULL)",
    )

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._reset()

    def __getstate__(self) -> Dict[str, Any]:
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in self._HANDLE_ATTRS
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._reset()

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._con: Optional[sqlite3.Connection] = None
        self._pid = os.getpid()
        self._identity: Optional[tuple] = None
        self._wal_ready = False
        self._schema_ready = False

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """One transaction on this process's connection, under the lock."""
        if self._pid != os.getpid():
            # A forked child.  Closing the parent's connection here
            # could checkpoint and delete the parent's live WAL, so it
            # stays referenced (never collected) and unused.
            if self._con is not None:
                _INHERITED_CONNECTIONS.append(self._con)
            self._reset()
        with self._lock:
            con = self._open()
            with con:
                yield con

    def _open(self) -> sqlite3.Connection:
        """The handle's connection, re-opened when the file is gone or
        replaced; the WAL pragma and schema DDL run on each new
        connection until they have succeeded (caller holds ``_lock``)."""
        try:
            st = os.stat(self.path)
            identity: Optional[tuple] = (st.st_dev, st.st_ino)
        except FileNotFoundError:
            identity = None
        con = self._con
        if con is None or identity is None or identity != self._identity:
            if con is not None:
                self._con = None
                try:
                    # Closing a moved database leaves its -wal/-shm
                    # behind, and a new connection at this path would
                    # replay those frames into the new file: empty the
                    # old WAL first.
                    con.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                except sqlite3.Error:
                    pass  # best effort: the old file is not the store now
                finally:
                    con.close()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            con = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
            con.execute("PRAGMA busy_timeout=30000")
            st = os.stat(self.path)
            self._con = con
            self._identity = (st.st_dev, st.st_ino)
            self._wal_ready = self._schema_ready = False
        if not self._wal_ready:
            try:
                con.execute("PRAGMA journal_mode=WAL")
                self._wal_ready = True
            except sqlite3.OperationalError:
                # Switching journal modes takes an exclusive lock the
                # busy handler cannot wait out while a peer pool holds
                # a shared lock mid-conversion (two pools racing to
                # open a fresh store).  WAL is a throughput preference,
                # not a correctness requirement: proceed in the current
                # mode and try again on the next call.
                pass
        if not self._schema_ready:
            for statement in self._SCHEMA:
                con.execute(statement)
            try:
                # Databases created before failure records existed lack
                # the status column; CREATE IF NOT EXISTS leaves them
                # untouched, so migrate in place.
                con.execute(
                    "ALTER TABLE records ADD COLUMN"
                    " status TEXT NOT NULL DEFAULT 'ok'"
                )
            except sqlite3.OperationalError:
                pass  # column already present (fresh schema)
            self._schema_ready = True
        return con

    def records(self) -> Dict[str, UnitRecord]:
        if not self.path.exists():
            return {}
        with self._connect() as con:
            rows = con.execute(
                "SELECT unit_hash, experiment, spec, result, elapsed_s,"
                " status FROM records"
            ).fetchall()
        return {
            unit_hash: UnitRecord(
                unit_hash=unit_hash,
                experiment=experiment,
                spec=json.loads(spec),
                result=json.loads(result),
                elapsed_s=elapsed_s,
                status=status,
            )
            for unit_hash, experiment, spec, result, elapsed_s, status in rows
        }

    def get(self, unit_hash: str) -> Optional[UnitRecord]:
        if not self.path.exists():
            return None
        with self._connect() as con:
            row = con.execute(
                "SELECT unit_hash, experiment, spec, result, elapsed_s,"
                " status FROM records WHERE unit_hash = ?",
                (unit_hash,),
            ).fetchone()
        if row is None:
            return None
        return UnitRecord(
            unit_hash=row[0],
            experiment=row[1],
            spec=json.loads(row[2]),
            result=json.loads(row[3]),
            elapsed_s=row[4],
            status=row[5],
        )

    def append(self, record: UnitRecord) -> None:
        with self._connect() as con:
            con.execute(
                "INSERT OR REPLACE INTO records"
                " (unit_hash, experiment, spec, result, elapsed_s, status)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    record.unit_hash,
                    record.experiment,
                    json.dumps(record.spec, sort_keys=True),
                    json.dumps(record.result, sort_keys=True),
                    record.elapsed_s,
                    record.status,
                ),
            )

    def try_claim(
        self, unit_hash: str, owner: str, ttl_s: float = DEFAULT_LEASE_TTL_S
    ) -> bool:
        now = time.time()
        with self._connect() as con:
            con.execute("DELETE FROM leases WHERE expires_at <= ?", (now,))
            con.execute(
                "INSERT OR IGNORE INTO leases VALUES (?, ?, ?)",
                (unit_hash, owner, now + ttl_s),
            )
            con.execute(
                "UPDATE leases SET expires_at = ?"
                " WHERE unit_hash = ? AND owner = ?",
                (now + ttl_s, unit_hash, owner),
            )
            row = con.execute(
                "SELECT owner FROM leases WHERE unit_hash = ?", (unit_hash,)
            ).fetchone()
            if row and row[0] != owner and owner_is_dead_local(row[0]):
                # The holder is a dead process on this host: take over
                # without waiting out the TTL.
                con.execute(
                    "UPDATE leases SET owner = ?, expires_at = ?"
                    " WHERE unit_hash = ? AND owner = ?",
                    (owner, now + ttl_s, unit_hash, row[0]),
                )
                row = con.execute(
                    "SELECT owner FROM leases WHERE unit_hash = ?",
                    (unit_hash,),
                ).fetchone()
        return bool(row) and row[0] == owner

    def release(self, unit_hash: str, owner: str) -> None:
        if not self.path.exists():
            return
        with self._connect() as con:
            con.execute(
                "DELETE FROM leases WHERE unit_hash = ? AND owner = ?",
                (unit_hash, owner),
            )

    def leased_hashes(self) -> Set[str]:
        if not self.path.exists():
            return set()
        with self._connect() as con:
            rows = con.execute(
                "SELECT unit_hash FROM leases WHERE expires_at > ?",
                (time.time(),),
            ).fetchall()
        return {unit_hash for (unit_hash,) in rows}


class SharedDirStore(CampaignStore):
    """Shared-directory store for multi-host campaigns.

    Layout (everything under one directory, so the whole store moves
    with a single ``rsync``/bind-mount)::

        <dir>/records/<unit_hash>.json   one file per completed unit
        <dir>/leases/<unit_hash>.lease   {"owner": ..., "expires_at": ...}

    Records are written atomically (temp file + ``os.replace``) so a
    reader never sees a half-written result.  Claims rely only on
    ``open(O_CREAT | O_EXCL)`` — atomic on POSIX filesystems including
    NFS — and stale leases are stolen by first renaming the expired
    lease file away (exactly one stealer wins the rename) and then
    re-attempting the exclusive create.

    Example (two hosts, one NFS mount)::

        # host A and host B, simultaneously:
        #   repro campaign run fig4 --scale full --workers 8 \\
        #       --store-backend shared --store /mnt/shared/fig4-full-s0
        # whichever host claims a unit first runs it; the other skips.
    """

    backend = "shared"
    supports_leases = True

    def __init__(self, path: str | Path):
        self.path = Path(path)

    @property
    def _records_dir(self) -> Path:
        return self.path / "records"

    @property
    def _leases_dir(self) -> Path:
        return self.path / "leases"

    def records(self) -> Dict[str, UnitRecord]:
        records: Dict[str, UnitRecord] = {}
        if not self._records_dir.is_dir():
            return records
        for entry in sorted(self._records_dir.glob("*.json")):
            try:
                data = json.loads(entry.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError):
                continue  # partially copied / corrupt record; re-runs
            if not all(key in data for key in _REQUIRED_KEYS):
                continue
            record = UnitRecord.from_dict(data)
            records[record.unit_hash] = record
        return records

    def get(self, unit_hash: str) -> Optional[UnitRecord]:
        entry = self._records_dir / f"{unit_hash}.json"
        try:
            data = json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not all(key in data for key in _REQUIRED_KEYS):
            return None
        return UnitRecord.from_dict(data)

    def append(self, record: UnitRecord) -> None:
        self._records_dir.mkdir(parents=True, exist_ok=True)
        final = self._records_dir / f"{record.unit_hash}.json"
        tmp = self._records_dir / f".{record.unit_hash}.{uuid.uuid4().hex}.tmp"
        tmp.write_text(
            json.dumps(record.to_dict(), sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, final)

    # ------------------------------------------------------------- leases
    def _lease_path(self, unit_hash: str) -> Path:
        return self._leases_dir / f"{unit_hash}.lease"

    def _read_lease(self, path: Path) -> Optional[Dict[str, Any]]:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if "owner" not in data or "expires_at" not in data:
            return None
        return data

    def _create_lease(self, path: Path, owner: str, ttl_s: float) -> bool:
        # Write the payload to a private temp file, then hard-link it
        # to the lease name: link() is atomic and fails if the name
        # exists, and — unlike open(O_EXCL) followed by write() — the
        # lease can never be observed empty, so a peer cannot misread
        # a half-created lease as corrupt and steal it.
        payload = json.dumps(
            {"owner": owner, "expires_at": time.time() + ttl_s}
        )
        tmp = path.with_name(path.name + f".{uuid.uuid4().hex}.new")
        tmp.write_text(payload, encoding="utf-8")
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:  # pragma: no cover - best effort
                pass
        return True

    def try_claim(
        self, unit_hash: str, owner: str, ttl_s: float = DEFAULT_LEASE_TTL_S
    ) -> bool:
        self._leases_dir.mkdir(parents=True, exist_ok=True)
        lease = self._lease_path(unit_hash)
        if self._create_lease(lease, owner, ttl_s):
            return True
        data = self._read_lease(lease)
        if data is not None and data["owner"] == owner:
            # Refresh our own lease (atomic replace; we already own it).
            tmp = lease.with_name(lease.name + f".{uuid.uuid4().hex}.tmp")
            tmp.write_text(
                json.dumps({"owner": owner, "expires_at": time.time() + ttl_s}),
                encoding="utf-8",
            )
            os.replace(tmp, lease)
            return True
        if (
            data is not None
            and data["expires_at"] > time.time()
            and not owner_is_dead_local(str(data["owner"]))
        ):
            return False  # live lease held by another pool
        # Stale (or unreadable) lease: steal it.  Renaming the old file
        # away is the arbitration point — os.rename fails for everyone
        # but the first stealer — after which exactly one contender can
        # win the O_EXCL create.
        tomb = lease.with_name(lease.name + f".stale.{uuid.uuid4().hex}")
        try:
            os.rename(lease, tomb)
        except FileNotFoundError:
            pass  # someone else already removed/stole it
        else:
            try:
                os.unlink(tomb)
            except FileNotFoundError:  # pragma: no cover - best effort
                pass
        return self._create_lease(lease, owner, ttl_s)

    def release(self, unit_hash: str, owner: str) -> None:
        # A release may be *retried* after an ambiguous failure (the
        # first attempt landed but its acknowledgement was lost), by
        # which time a peer may have stolen the expired lease.  A
        # plain read-check-unlink would then delete the peer's fresh
        # lease, so the delete is arbitrated like a steal: rename the
        # file away (exactly one contender wins), re-check the owner
        # on the renamed copy, and put it back if it turned out to be
        # someone else's.  Releasing a lease we no longer (or never)
        # held is a no-op — idempotent for the owning caller.
        lease = self._lease_path(unit_hash)
        data = self._read_lease(lease)
        if data is None or data["owner"] != owner:
            return
        tomb = lease.with_name(lease.name + f".release.{uuid.uuid4().hex}")
        try:
            os.rename(lease, tomb)
        except FileNotFoundError:
            return  # already released (e.g. by our first attempt)
        data = self._read_lease(tomb)
        if data is not None and data["owner"] != owner:
            # We raced a stealer between the read and the rename: the
            # file we took out of service is the *peer's* lease now.
            # Restore it (unless the peer already wrote a newer one).
            try:
                os.link(tomb, lease)
            except FileExistsError:  # pragma: no cover - peer re-leased
                pass
        try:
            os.unlink(tomb)
        except FileNotFoundError:  # pragma: no cover - best effort
            pass

    def leased_hashes(self) -> Set[str]:
        if not self._leases_dir.is_dir():
            return set()
        now = time.time()
        live: Set[str] = set()
        for entry in self._leases_dir.glob("*.lease"):
            data = self._read_lease(entry)
            if data is not None and data["expires_at"] > now:
                live.add(entry.name[: -len(".lease")])
        return live


class TracedStore(CampaignStore):
    """A store wrapper that times every backend operation as a span.

    Wraps any :class:`CampaignStore` and forwards each call, recording
    a ``store.*`` span (category ``store``) with the backend id and —
    where one applies — the unit hash, so a trace shows exactly how
    much campaign wall time went to store I/O vs simulation.

    The tracer is duck-typed (anything with ``span()``), which keeps
    this module free of an ``repro.obs`` import; the campaign pool
    wraps its store in one of these only when tracing is enabled, so
    untraced runs never pay the indirection.
    """

    def __init__(self, inner: CampaignStore, tracer: Any):
        self.inner = inner
        self.tracer = tracer

    @property
    def backend(self) -> str:  # type: ignore[override]
        return self.inner.backend

    @property
    def supports_leases(self) -> bool:  # type: ignore[override]
        return self.inner.supports_leases

    @property
    def path(self) -> Path:  # type: ignore[override]
        return self.inner.path

    def describe(self) -> str:
        return self.inner.describe()

    def records(self) -> Dict[str, UnitRecord]:
        with self.tracer.span(
            "store.records", cat="store", backend=self.inner.backend
        ) as span:
            records = self.inner.records()
            span.set(count=len(records))
        return records

    def append(self, record: UnitRecord) -> None:
        with self.tracer.span(
            "store.append",
            cat="store",
            backend=self.inner.backend,
            unit=record.unit_hash,
        ):
            self.inner.append(record)

    def get(self, unit_hash: str) -> Optional[UnitRecord]:
        with self.tracer.span(
            "store.get", cat="store", backend=self.inner.backend, unit=unit_hash
        ) as span:
            record = self.inner.get(unit_hash)
            span.set(hit=record is not None)
        return record

    def completed_hashes(self) -> Set[str]:
        return self.inner.completed_hashes()

    def try_claim(
        self, unit_hash: str, owner: str, ttl_s: float = DEFAULT_LEASE_TTL_S
    ) -> bool:
        with self.tracer.span(
            "store.try_claim",
            cat="store",
            backend=self.inner.backend,
            unit=unit_hash,
        ) as span:
            granted = self.inner.try_claim(unit_hash, owner, ttl_s=ttl_s)
            span.set(granted=granted)
        return granted

    def release(self, unit_hash: str, owner: str) -> None:
        with self.tracer.span(
            "store.release",
            cat="store",
            backend=self.inner.backend,
            unit=unit_hash,
        ):
            self.inner.release(unit_hash, owner)

    def leased_hashes(self) -> Set[str]:
        with self.tracer.span(
            "store.leased_hashes", cat="store", backend=self.inner.backend
        ):
            return self.inner.leased_hashes()


#: backend id → store class (the ``--store-backend`` choices).
BACKENDS: Dict[str, type] = {
    "jsonl": JsonlStore,
    "sqlite": SqliteStore,
    "shared": SharedDirStore,
}

_SUFFIX_BACKENDS = {
    ".jsonl": "jsonl",
    ".json": "jsonl",
    ".sqlite": "sqlite",
    ".sqlite3": "sqlite",
    ".db": "sqlite",
}


def default_store_path(
    name: str, backend: str = "jsonl", root: str | Path = "campaigns"
) -> Path:
    """The conventional store location for a campaign ``name``.

    ``campaigns/<name>.jsonl`` / ``campaigns/<name>.sqlite`` /
    ``campaigns/<name>`` (a directory) depending on the backend.
    """
    root = Path(root)
    if backend == "jsonl":
        return root / f"{name}.jsonl"
    if backend == "sqlite":
        return root / f"{name}.sqlite"
    if backend == "shared":
        return root / name
    if backend == "http":
        raise ValueError(
            "the http backend has no default store location; pass the"
            " coordinator's URL explicitly (--store http://host:port)"
        )
    raise ValueError(f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}")


def open_store(path: str | Path, backend: Optional[str] = None) -> CampaignStore:
    """Open a campaign store, inferring the backend when not given.

    Inference: an ``http(s)://`` URL means the :class:`HttpStore`
    client for a ``repro campaign serve`` coordinator; a known file
    suffix (``.jsonl``/``.json`` → jsonl, ``.sqlite``/``.sqlite3``/
    ``.db`` → sqlite) wins next; an existing directory or a
    suffix-less path means ``shared``; anything else falls back to
    ``jsonl``.
    """
    text = str(path)
    is_url = text.startswith(("http://", "https://"))
    if backend == "http" or (backend is None and is_url):
        if not is_url:
            raise ValueError(
                "the http backend needs a coordinator URL"
                f" (http://host:port), got {text!r}"
            )
        # Imported lazily: remote depends on this module, not vice versa.
        from repro.campaigns.remote import HttpStore

        return HttpStore(text)
    if is_url:
        raise ValueError(
            f"backend {backend!r} cannot open a URL store ({text!r});"
            " use --store-backend http"
        )
    if backend is not None:
        try:
            cls = BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; choose from"
                f" {sorted(BACKENDS) + ['http']}"
            ) from None
        return cls(path)
    p = Path(path)
    inferred = _SUFFIX_BACKENDS.get(p.suffix.lower())
    if inferred is not None:
        return BACKENDS[inferred](p)
    if p.is_dir() or not p.suffix:
        return SharedDirStore(p)
    return JsonlStore(p)
