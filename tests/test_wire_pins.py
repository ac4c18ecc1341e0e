"""Golden wire bytes: absolute SHA-256 of served HTTP bodies.

``tests/test_golden_digests.py`` pins what the store holds; this module
pins what the serving tier sends.  The served store is John's running
example as ``test_john_quickstart`` builds it, but file-backed and
sharded, so a cold read renders over John's shard replica and the warm
read of the same target is a cache hit validated over that same
replica.  Both reads of every target must hash to the pinned value.
Q3 interpolates its feature column and Q6 binds named parameters.

The targets cover every request shape a render takes: the default
bundle, a budget bundle (a budget of 2.0 reaches a Q7 answer for John;
0.3–1.0 reach none) and each with a plan set; Q2, Q5 and Q7 with a
plan set; Q3 for features that cover one time point each
(``monthly_debt`` t=4, ``loan_amount`` t=3) and for one that covers
none (``household``).

``/v1/orchestrator`` carries store-clock fields (``now`` and the
freshness ages); it is pinned with those fields set to ``null`` before
hashing.

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
    "/v1/insights?user=john&budget=2.0": (
        "895d9c8d36f6dee57c1fde788240319303cc78d739db1391947bccbd986bc0b3"
    ),
    "/v1/insights?user=john&budget=2.0&plans=3": (
        "9abd04c02a3981ad99f5e8e1778738dc581e927464992e5d2e6c8a53082df950"
    ),
    "/v1/q/q2?user=john&plans=3": (
        "2e6b28a770c117c7649ac36ad7b6e7df8367f22424592e98beccc654e4965ba0"
    ),
    "/v1/q/q5?user=john&plans=3": (
        "bf7b58b0edec4f19474144995ee02dd762b1ad1af0a28dc135cb7868a521411a"
    ),
    "/v1/q/q7?user=john&budget=2.0&plans=3": (
        "416b802608cff20c477778b5dae4b9a22fa552cdfae940dd0e036c0ebe5932e5"
    ),
    "/v1/q/q3?user=john&feature=loan_amount": (
        "48f0d53ac7c5e0aaea00cbc61718507fe9b2c2e1d82a46940734d24f60dfd2fc"
    ),
    "/v1/q/q3?user=john&feature=household": (
        "b7a8edfe8bcb07ae58c9434a64fbfda60ca1b5d29897e4c3d6d20ac46b125c3d"
    ),
}

#: ``/v1/orchestrator`` with its store-clock fields set to ``null``,
#: re-serialised canonically (sorted keys, no whitespace)
ORCHESTRATOR_MASKED_SHA256 = (
    "7c5e3b9a5908063ae6517521f216e821a635a75179a896e933b60c62e4edff50"
)
ORCHESTRATOR_CLOCK_FIELDS = ("now",)
FRESHNESS_CLOCK_FIELDS = ("now", "max_age", "mean_age", "weighted_mean_age")


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


def masked_orchestrator(body):
    payload = json.loads(body)
    for name in ORCHESTRATOR_CLOCK_FIELDS:
        payload[name] = None
    for name in FRESHNESS_CLOCK_FIELDS:
        payload["freshness"][name] = None
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def test_orchestrator_body_with_clock_fields_masked(served):
    _, server = served
    for read in ("first", "second"):
        status, body = http_get(server.port, "/v1/orchestrator")
        assert status == 200, (read, body)
        digest = hashlib.sha256(masked_orchestrator(body)).hexdigest()
        assert digest == ORCHESTRATOR_MASKED_SHA256, read
