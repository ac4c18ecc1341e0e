"""Golden wire bytes: absolute SHA-256 of served HTTP bodies.

``tests/test_golden_digests.py`` pins what the store holds; this module
pins what the serving tier sends.  The served store is John's running
example as ``test_john_quickstart`` builds it, but file-backed and
sharded, so a cold read renders over John's shard replica and the warm
read of the same target is a cache hit validated over that same
replica.  Both reads of every target must hash to the pinned value.  Q3 and Q6 are the canned questions that bind named parameters.

``/v1/orchestrator`` is not pinned: its body carries store-clock
fields.

The bodies carry float ``repr``s, so the hashes are platform data: they
were captured with Python 3.11.7 and NumPy 2.4.6.  To regenerate, serve
the store and edit the constants below; there is no switch for it.
"""

import hashlib
import http.client
import json

import pytest

from repro.app.cli import build_system
from repro.data import john_profile
from repro.serve import InsightServer

from test_golden_digests import JOHN_QUICKSTART

WIRE_SHA256 = {
    "/v1/insights?user=john": (
        "782326c0e01acba7320b0e060a4a336d549de15742ee60dc4ee0bd7d4bb82365"
    ),
    "/v1/insights?user=john&plans=3": (
        "ec7d9a7e77bf497a1bdc1faadcef242ccb2be5275b7ef2788dda85fcb5a835f7"
    ),
    "/v1/q/q3?user=john&feature=monthly_debt": (
        "d329997f784a8a3a2f1762045bb1af9d27d2876ede7210c556f3df2d8550a159"
    ),
    "/v1/q/q6?user=john&alpha=0.4321": (
        "d1bffc2b003d839cd6362c35a716f183661dc44b80829cddeac22d48d48b036e"
    ),
}


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    db = tmp_path_factory.mktemp("wire") / "john.db"
    system = build_system(n_per_year=60, db=str(db), db_backend="sharded")
    system.create_session(
        "john",
        john_profile(),
        user_constraints=["annual_income <= base_annual_income * 1.2"],
    )
    server = InsightServer(system.store, system.time_values)
    server.start_background()
    yield system, server
    server.stop_background()
    system.store.close()


def test_served_store_is_the_golden_quickstart(served):
    system, _ = served
    assert system.store.backend.name == "sharded"
    assert system.store.contents_digest() == JOHN_QUICKSTART


@pytest.mark.parametrize("path", sorted(WIRE_SHA256))
def test_cold_and_warm_bodies(served, path):
    _, server = served
    hits = server.cache.stats.hits
    for read in ("cold", "warm"):
        status, body = http_get(server.port, path)
        assert status == 200, (read, body)
        assert hashlib.sha256(body).hexdigest() == WIRE_SHA256[path], read
    # the warm read was answered from the cache, not re-rendered
    assert server.cache.stats.hits == hits + 1
    # the cold render and the warm hit read through one replica of
    # John's shard
    stats = json.loads(http_get(server.port, "/v1/stats")[1])
    assert stats["pool"]["opens"] == 1
