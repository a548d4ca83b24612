"""HTTP front for the live estimator (``repro serve``).

A deliberately thin adapter: every endpoint maps 1:1 to an
:class:`~repro.service.estimator.EstimatorService` method, mirroring
the campaign coordinator's handler idiom (JSON in, JSON out, typed
errors → status codes).

========================  ======  =======================================
endpoint                  method  service call
========================  ======  =======================================
``/v1/query``             POST    :meth:`EstimatorService.query`
``/v1/result?ticket=<h>`` GET     :meth:`EstimatorService.result`
``/v1/stats``             GET     :meth:`EstimatorService.stats`
``/v1/status``            GET     :meth:`EstimatorService.status`
``/v1/health``            GET     alias of ``/v1/status``
========================  ======  =======================================

Malformed queries (:class:`ServiceError`) reply 400; anything the
store throws replies 500 so open-loop clients retry.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, urlsplit

from repro.campaigns.remote import RequestBodyError, read_json_body
from repro.service.estimator import (
    DEFAULT_SERVICE_PORT,
    EstimatorService,
    ServiceError,
)

__all__ = ["API_PREFIX", "EstimatorServer"]

API_PREFIX = "/v1"


class _EstimatorHandler(BaseHTTPRequestHandler):
    """Request handler: routes ``/v1/<op>`` to the estimator service."""

    server_version = "repro-estimator/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args: Any) -> None:  # pragma: no cover
        pass  # svc events go to the service's tracer, not stderr

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, payload: Optional[Dict[str, Any]]) -> None:
        service: EstimatorService = self.server.service  # type: ignore[attr-defined]
        split = urlsplit(self.path)
        if not split.path.startswith(API_PREFIX + "/"):
            self._reply(404, {"error": f"unknown path {split.path!r}"})
            return
        op = split.path[len(API_PREFIX) + 1 :]
        query = {
            key: values[0] for key, values in parse_qs(split.query).items()
        }
        try:
            if op == "query":
                if payload is None:
                    self._reply(400, {"error": "POST a JSON query document"})
                    return
                self._reply(200, service.query(payload))
            elif op == "result":
                if "ticket" not in query:
                    self._reply(400, {"error": "missing 'ticket' parameter"})
                    return
                self._reply(200, service.result(query["ticket"]))
            elif op == "stats":
                self._reply(200, service.stats())
            elif op in ("status", "health"):
                self._reply(200, service.status())
            else:
                self._reply(404, {"error": f"unknown operation {op!r}"})
        except ServiceError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # store hiccup: open-loop client retries
            self._reply(500, {"error": repr(exc)})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(None)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            payload = read_json_body(self)
        except RequestBodyError as exc:
            self._reply(exc.status, {"error": str(exc)})
            return
        self._dispatch(payload)


class EstimatorServer:
    """Serve one :class:`EstimatorService` over HTTP.

    Example::

        service = EstimatorService(open_store("campaigns/oracle.sqlite"))
        with EstimatorServer(service, port=0) as server:
            urlopen(f"{server.url}/v1/status")
        # __exit__ stops the listener and drains the service.
    """

    def __init__(
        self,
        service: EstimatorService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_SERVICE_PORT,
    ):
        self.service = service
        self._server = ThreadingHTTPServer((host, port), _EstimatorHandler)
        self._server.daemon_threads = True
        self._server.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "EstimatorServer":
        """Serve from a daemon thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="estimator-server",
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` path)."""
        self._server.serve_forever(poll_interval=0.2)

    def close(self) -> None:
        """Stop the listener, then drain the service (in that order:
        no new queries can arrive while the in-flight unit finishes)."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.close()

    def __enter__(self) -> "EstimatorServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
