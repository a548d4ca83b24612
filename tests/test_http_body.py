"""The status-code contract of the one HTTP front both servers share.

The campaign coordinator and ``repro serve`` are both a
``JsonApiServer``: an unknown path or operation replies 404, a missing
field or malformed request 400, a malformed or negative
``Content-Length`` 400 and an oversized one 413 without the body being
read (either way the server closes that connection and keeps serving
others), and a backing-store failure 500 so clients retry.
"""

import http.client
import json
import urllib.error
import urllib.request
from collections import namedtuple
from urllib.parse import urlsplit

import pytest

from repro.campaigns import open_store
from repro.campaigns.remote import MAX_BODY_BYTES, CampaignCoordinator
from repro.service import EstimatorServer, EstimatorService

#: One running front: its URL, backing store, a POST endpoint and a GET
#: endpoint that reads one record from the store.
Front = namedtuple("Front", "url store post_path read_path")


@pytest.fixture(params=["coordinator", "estimator"])
def front(request, tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    if request.param == "coordinator":
        with CampaignCoordinator(store, port=0) as coordinator:
            yield Front(
                coordinator.url, store, "/v1/append", "/v1/record?unit=abc"
            )
    else:
        with EstimatorServer(EstimatorService(store), port=0) as server:
            yield Front(
                server.url, store, "/v1/query", "/v1/result?ticket=abc"
            )


def _post_with_length(url, path, length, body=b""):
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Length", length)
        conn.endheaders()
        if body:
            conn.send(body)
        reply = conn.getresponse()
        return reply.status, reply.getheader("Connection"), json.loads(
            reply.read()
        )
    finally:
        conn.close()


def _error_status(url, method="GET", body=None):
    """The status and JSON error of a request that must fail."""
    request = urllib.request.Request(url, data=body, method=method)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    return excinfo.value.code, json.loads(excinfo.value.read())["error"]


@pytest.mark.parametrize(
    "length,status",
    [
        ("abc", 400),
        ("-5", 400),
        ("1.5", 400),
        (str(MAX_BODY_BYTES + 1), 413),
    ],
)
def test_bad_content_length_is_refused_and_the_server_survives(
    front, length, status
):
    url, path = front.url, front.post_path
    code, connection, payload = _post_with_length(url, path, length)
    assert code == status
    assert connection == "close"
    assert "error" in payload
    # The handler thread neither crashed nor wedged the listener.
    code, _, payload = _post_with_length(url, path, "9", b"not json!")
    assert code == 400
    assert payload == {"error": "request body is not valid JSON"}


@pytest.mark.parametrize(
    "front,method,path,body,status,reason",
    [
        ("coordinator", "GET", "/nope", None, 404, "unknown path"),
        ("coordinator", "GET", "/v1/nope", None, 404, "unknown operation"),
        ("coordinator", "POST", "/v1/claim", b"{}", 400, "missing field"),
        ("estimator", "GET", "/nope", None, 404, "unknown path"),
        ("estimator", "GET", "/v1/nope", None, 404, "unknown operation"),
        ("estimator", "GET", "/v1/result", None, 400, "missing field"),
        ("estimator", "POST", "/v1/query", b"not json", 400, "not valid"),
        ("estimator", "POST", "/v1/query", b"[1, 2]", 400, "JSON object"),
        (
            "estimator",
            "POST",
            "/v1/query",
            b'{"algorithm": "nope", "dims": [4]}',
            400,
            "unknown algorithm",
        ),
    ],
    indirect=["front"],
    ids=[
        "coordinator-unknown-path",
        "coordinator-unknown-op",
        "coordinator-missing-field",
        "estimator-unknown-path",
        "estimator-unknown-op",
        "estimator-missing-ticket",
        "estimator-not-json",
        "estimator-not-object",
        "estimator-bad-query",
    ],
)
def test_http_error_codes(front, method, path, body, status, reason):
    code, error = _error_status(f"{front.url}{path}", method, body)
    assert code == status
    assert reason in error


def test_store_failure_replies_500(front, monkeypatch):
    # Raw urllib, not HttpStore: its retries would hide the 500.
    def unavailable(unit_hash):
        raise OSError("backing store unavailable")

    monkeypatch.setattr(front.store, "get", unavailable)
    code, error = _error_status(f"{front.url}{front.read_path}")
    assert code == 500
    assert "backing store unavailable" in error
