"""A small seeded HTTP load generator: open loop and closed loop.

The library core of ROADMAP's ``repro loadgen``.

* **Open loop** (:func:`open_loop`): requests leave on a fixed-interval
  schedule whatever the server does — independent users.  Each
  request's latency is counted from its *intended* send time, so a
  stall charges every request it delayed (no coordinated omission),
  and how late the generator itself ran is reported beside it.
* **Closed loop** (:func:`closed_loop`): each client sends its next
  request only when the previous reply is in — callers that wait.

Time is a parameter: the schedule is computed from an injected
``clock`` / ``sleep`` pair.  Connections are persistent HTTP/1.1 over
plain sockets, at most one per client thread, and the generator never
sets ``TCP_NODELAY`` or ``TCP_QUICKACK``: a server that writes its
headers and body as two segments pays Nagle + delayed ACK on a
persistent connection, and that cost must stay visible here.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence
from urllib.parse import urlsplit

from spans import NULL_RECORDER

__all__ = [
    "Connection",
    "LoadResult",
    "Reply",
    "Request",
    "closed_loop",
    "open_loop",
    "percentile",
    "sample_requests",
]


@dataclass(frozen=True)
class Request:
    method: str
    path: str
    body: Optional[Dict[str, Any]] = None
    #: caller's label, carried through to the reply (and the span's trace id)
    key: str = ""


@dataclass
class Reply:
    request: Request
    status: int
    doc: Any
    intended: float
    sent: float
    received: float

    @property
    def latency_ms(self) -> float:
        return (self.received - self.intended) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.intended) * 1e3


@dataclass
class LoadResult:
    replies: List[Reply] = field(default_factory=list)
    wall_s: float = 0.0

    def latencies_ms(self) -> List[float]:
        return [r.latency_ms for r in self.replies]

    def late_ms(self) -> List[float]:
        return [r.late_ms for r in self.replies]


def percentile(values: Sequence[float], q: float) -> float:
    """Empirical order statistic (nearest rank), ``0 < q <= 1``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * q // 1))  # ceil(n * q)
    return ordered[int(rank) - 1]


def sample_requests(
    pool: Sequence[Request], count: int, seed: int
) -> List[Request]:
    """``count`` requests drawn (with replacement) from ``pool`` by seed."""
    rng = random.Random(seed)
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


class Connection:
    """One persistent HTTP/1.1 connection (JSON in, JSON out)."""

    def __init__(self, url: str, timeout_s: float = 30.0):
        split = urlsplit(url)
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.sock = socket.create_connection((self.host, self.port), timeout_s)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        try:
            self.reader.close()
        finally:
            self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def exchange(self, request: Request) -> tuple:
        """Send one request, read its reply: ``(status, doc)``."""
        body = b""
        head = f"{request.method} {request.path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if request.body is not None:
            body = json.dumps(request.body).encode()
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        self.sock.sendall(head.encode() + b"\r\n" + body)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        raw = self.reader.read(length) if length else b""
        try:
            doc = json.loads(raw) if raw else None
        except ValueError:
            doc = None
        return status, doc


def _exchange(conn, request, intended, clock, recorder, parent, out):
    with recorder.span("client.request", trace=request.key or None, parent=parent):
        sent = clock()
        try:
            status, doc = conn.exchange(request)
        except (OSError, ValueError) as exc:
            status, doc = 0, {"error": repr(exc)}
        received = clock()
    out.append(Reply(request, status, doc, intended, sent, received))


def _run_threads(targets: List[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    url: str,
    requests: Sequence[Request],
    rate_per_s: float,
    connections: int = 2,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    recorder=NULL_RECORDER,
    parent=None,
) -> LoadResult:
    """Send ``requests`` at a fixed ``rate_per_s``, round-robin over
    ``connections`` persistent connections (one thread each)."""
    interval = 1.0 / rate_per_s
    lanes: List[List[Reply]] = [[] for _ in range(connections)]
    conns = [Connection(url) for _ in range(connections)]
    start = clock() + interval

    def lane(k: int) -> None:
        for i in range(k, len(requests), connections):
            intended = start + i * interval
            delay = intended - clock()
            if delay > 0:
                sleep(delay)
            _exchange(
                conns[k], requests[i], intended, clock, recorder, parent, lanes[k]
            )

    try:
        _run_threads([lambda k=k: lane(k) for k in range(connections)])
    finally:
        for conn in conns:
            conn.close()
    replies = sorted((r for lane_ in lanes for r in lane_), key=lambda r: r.intended)
    return LoadResult(replies, clock() - start)


def closed_loop(
    url: str,
    requests: Sequence[Request],
    clients: int = 2,
    until: Optional[float] = None,
    clock: Callable[[], float] = time.perf_counter,
    recorder=NULL_RECORDER,
    parent=None,
) -> LoadResult:
    """``clients`` threads, one connection each, back to back.

    Client ``k`` takes requests ``k, k + clients, …``.  With ``until``
    (a ``clock`` deadline) each client cycles its share until the
    deadline instead of stopping at the end of the list.
    """
    lanes: List[List[Reply]] = [[] for _ in range(clients)]
    conns = [Connection(url) for _ in range(clients)]
    start = clock()

    def client(k: int) -> None:
        share = requests[k::clients]
        i = 0
        while share and (until is not None or i < len(share)):
            now = clock()
            if until is not None and now >= until:
                break
            _exchange(
                conns[k], share[i % len(share)], now, clock, recorder, parent, lanes[k]
            )
            i += 1

    try:
        _run_threads([lambda k=k: client(k) for k in range(clients)])
    finally:
        for conn in conns:
            conn.close()
    replies = sorted((r for lane_ in lanes for r in lane_), key=lambda r: r.sent)
    return LoadResult(replies, clock() - start)
