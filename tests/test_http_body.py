"""Request-body limits shared by both HTTP fronts.

The campaign coordinator and ``repro serve`` read POST bodies through
one helper: a malformed or negative ``Content-Length`` replies 400, an
oversized one 413 without the body being read, and either way the
server closes that connection and keeps serving others.
"""

import http.client
import json
from urllib.parse import urlsplit

import pytest

from repro.campaigns import open_store
from repro.campaigns.remote import MAX_BODY_BYTES, CampaignCoordinator
from repro.service import EstimatorServer, EstimatorService


@pytest.fixture(params=["coordinator", "estimator"])
def server_url(request, tmp_path):
    store = open_store(tmp_path / "s.sqlite")
    if request.param == "coordinator":
        with CampaignCoordinator(store, port=0) as coordinator:
            yield coordinator.url, "/v1/append"
    else:
        with EstimatorServer(EstimatorService(store), port=0) as server:
            yield server.url, "/v1/query"


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
    server_url, length, status
):
    url, path = server_url
    code, connection, payload = _post_with_length(url, path, length)
    assert code == status
    assert connection == "close"
    assert "error" in payload
    # The handler thread neither crashed nor wedged the listener.
    code, _, payload = _post_with_length(url, path, "9", b"not json!")
    assert code == 400
    assert payload == {"error": "request body is not valid JSON"}
