"""repro.serve.server: routing contract, determinism, isolation, faults."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.pipeline.config import ExperimentConfig
from repro.resilience import ENV_FAULTS, clear_plan_cache
from repro.serve import FastHTTPServer, ServeApp, ServeSettings
from repro.serve.indices import build_index
from repro.store import Manifest

CONFIG = ExperimentConfig(scale="tiny", seed=0).scaled_down(400)

MANIFEST = Manifest(
    config=CONFIG,
    spread_pairs=(("restaurants", "phone"),),
    traffic_sites=("imdb",),
    artifacts=(),
)


@pytest.fixture(scope="module")
def index():
    return build_index(MANIFEST)


@pytest.fixture()
def app(index):
    instance = ServeApp(index, ServeSettings())
    yield instance
    instance.close()


@pytest.fixture(autouse=True)
def no_faults(monkeypatch):
    monkeypatch.delenv(ENV_FAULTS, raising=False)
    clear_plan_cache()
    yield
    clear_plan_cache()


def get(app: ServeApp, path: str) -> tuple[int, dict]:
    status, body = app.handle(path)
    return status, json.loads(body)


# -- golden responses under the fixed seed ----------------------------------


def test_healthz_summary(app, index):
    status, payload = get(app, "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["seed"] == 0
    assert payload["index_fingerprint"] == index.identity
    (pair,) = payload["pairs"]
    assert pair["domain"] == "restaurants"
    assert pair["attribute"] == "phone"
    assert pair["n_entities"] == index.pairs[("restaurants", "phone")].n_entities
    assert payload["traffic_sites"] == ["imdb"]


def test_entity_endpoint_matches_index(app, index):
    pair = index.pairs[("restaurants", "phone")]
    status, payload = get(app, "/v1/entity/restaurants/5/sites")
    assert status == 200
    assert payload["entity_index"] == 5
    assert payload["entity"] == pair.entity_label(5)
    expected = [pair.site_host(int(s)) for s in pair.sites_of_entity(5)]
    assert payload["sites"] == expected
    assert payload["n_sites"] == len(expected)
    # Catalog-id addressing resolves to the same response.
    __, by_id = get(app, f"/v1/entity/restaurants/{pair.entity_label(5)}/sites")
    assert by_id == payload


def test_site_endpoint_lists_entities(app, index):
    pair = index.pairs[("restaurants", "phone")]
    host = pair.site_host(0)
    status, payload = get(app, f"/v1/site/{host}/entities")
    assert status == 200
    (match,) = payload["matches"]
    expected = [pair.entity_label(int(e)) for e in pair.entities_on_site(0)]
    assert match["entities"] == expected
    assert match["n_entities"] == len(expected)
    assert match["truncated"] is False


def test_coverage_endpoint_matches_table(app, index):
    pair = index.pairs[("restaurants", "phone")]
    status, payload = get(app, "/v1/coverage/restaurants?k=2&t=3")
    assert status == 200
    assert payload["coverage"] == pytest.approx(pair.coverage_at(2, 3), abs=1e-6)
    # Defaults: k=1, t=n_sites.
    __, defaulted = get(app, "/v1/coverage/restaurants")
    assert defaulted["k"] == 1
    assert defaulted["t"] == pair.n_sites


def test_demand_endpoint_matches_table(app, index):
    status, payload = get(app, "/v1/demand/imdb?n_reviews=8&source=browse")
    assert status == 200
    expected = index.demand["imdb"].lookup("browse", 8)
    assert payload["mean_normalized_demand"] == expected["mean_normalized_demand"]
    assert payload["source"] == "browse"


def test_setcover_endpoint_matches_index(app, index):
    pair = index.pairs[("restaurants", "phone")]
    status, payload = get(app, "/v1/setcover/restaurants?budget=5")
    assert status == 200
    direct = pair.set_cover(5)
    assert payload["selected"] == direct["selected"]
    assert payload["gains"] == direct["gains"]
    assert payload["coverage"] == direct["coverage"]


# -- 404/400 contract --------------------------------------------------------


@pytest.mark.parametrize(
    "path",
    [
        "/",
        "/v1/nope",
        "/v1/entity/restaurants/0",  # missing /sites suffix
        "/v1/entity/unknown-domain/0/sites",
        "/v1/entity/restaurants/999999/sites",
        "/v1/site/no-such-host.example/entities",
        "/v1/coverage/unknown-domain",
        "/v1/demand/not-a-traffic-site?n_reviews=1",
    ],
)
def test_unknown_things_404(app, path):
    status, payload = get(app, path)
    assert status == 404
    assert payload["status"] == 404
    assert "error" in payload


@pytest.mark.parametrize(
    "path",
    [
        "/v1/coverage/restaurants?k=999",
        "/v1/coverage/restaurants?t=0",
        "/v1/coverage/restaurants?k=abc",
        "/v1/demand/imdb",  # n_reviews is required
        "/v1/demand/imdb?n_reviews=-1",
        "/v1/demand/imdb?n_reviews=2&source=carrier-pigeon",
        "/v1/setcover/restaurants?budget=0",
        "/v1/setcover/restaurants?budget=100000",
    ],
)
def test_bad_parameters_400(app, path):
    status, payload = get(app, path)
    assert status == 400
    assert payload["status"] == 400


# -- response-cache byte identity -------------------------------------------


PROBE_PATHS = (
    "/v1/entity/restaurants/2/sites",
    "/v1/site/{host}/entities",
    "/v1/coverage/restaurants?k=3&t=5",
    "/v1/demand/imdb?n_reviews=16",
    "/v1/setcover/restaurants?budget=10",
)


def test_responses_byte_identical_with_and_without_rcache(index):
    cached = ServeApp(index, ServeSettings())
    uncached = ServeApp(index, ServeSettings(response_cache_entries=0))
    assert uncached.rcache is None
    host = index.pairs[("restaurants", "phone")].site_host(1)
    try:
        for template in PROBE_PATHS:
            path = template.format(host=host)
            cold = cached.handle(path)
            warm = cached.handle(path)  # now served from the LRU
            bare = uncached.handle(path)
            assert cold == warm == bare
        assert cached.rcache.stats()["hits"] >= len(PROBE_PATHS)
    finally:
        cached.close()
        uncached.close()


def test_concurrent_identical_clients_get_identical_bytes(app):
    path = "/v1/setcover/restaurants?budget=20"
    results: list[tuple[int, bytes]] = [None] * 8  # type: ignore[list-item]

    def worker(slot: int) -> None:
        results[slot] = app.handle(path)

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(status == 200 for status, __ in results)
    assert len({body for __, body in results}) == 1


def test_batcher_coalesces_concurrent_identical_queries(index, monkeypatch):
    """Identical queries arriving while one is in flight share its run.

    The leader is held for 0.3 s by an injected hang: unblocked, it
    finishes its lookup before a follower thread is even scheduled.
    """
    monkeypatch.setenv(ENV_FAULTS, "op=hang,task=serve:setcover,seconds=0.3")
    clear_plan_cache()
    app = ServeApp(index, ServeSettings(response_cache_entries=0))
    barrier = threading.Barrier(6)
    answers: list[tuple[int, bytes]] = []

    def worker() -> None:
        barrier.wait()
        answers.append(app.handle("/v1/setcover/restaurants?budget=50"))

    threads = [threading.Thread(target=worker) for __ in range(6)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        stats = app.batcher.stats()
        assert stats["launched"] + stats["coalesced"] == 6
        assert stats["coalesced"] >= 1
        assert stats["inflight"] == 0
        assert len(answers) == 6
        assert len(set(answers)) == 1 and answers[0][0] == 200
    finally:
        app.close()


# -- isolation and fault injection ------------------------------------------


def test_wedged_handlers_hold_only_their_own_requests(index, monkeypatch):
    """Hung handlers hold their own requests; other requests still answer.

    Nine distinct set-cover queries hang (one more than a pool of eight
    query threads could absorb); a point lookup must answer well before
    any hang ends.  Every bound is a fraction of the hang, so the
    verdict does not depend on the host's speed.
    """
    hang = 4.0
    wedged = 9
    monkeypatch.setenv(
        ENV_FAULTS, f"op=hang,task=serve:setcover,times=99,seconds={hang}"
    )
    clear_plan_cache()
    app = ServeApp(index, ServeSettings())
    hung = [
        threading.Thread(
            target=app.handle,
            args=(f"/v1/setcover/restaurants?budget={budget}",),
            daemon=True,
        )
        for budget in range(1, wedged + 1)
    ]
    for thread in hung:
        thread.start()
    polls = int(hang / 2 / 0.01)
    for __ in range(polls):
        if app.batcher.stats()["inflight"] == wedged:
            break
        time.sleep(0.01)
    assert app.batcher.stats()["inflight"] == wedged
    answers: list[tuple[int, dict]] = []
    lookup = threading.Thread(
        target=lambda: answers.append(get(app, "/v1/coverage/restaurants?k=1&t=1")),
        daemon=True,
    )
    lookup.start()
    lookup.join(timeout=hang / 2)
    assert not lookup.is_alive(), "a point lookup queued behind hung handlers"
    assert answers[0][0] == 200
    # The hung requests answer once their handlers return.
    for thread in hung:
        thread.join(timeout=3 * hang)
    assert not any(thread.is_alive() for thread in hung)
    assert app.batcher.stats()["inflight"] == 0


def test_injected_error_surfaces_as_500(app, monkeypatch):
    monkeypatch.setenv(ENV_FAULTS, "op=error,task=serve:demand,times=99")
    clear_plan_cache()
    status, payload = get(app, "/v1/demand/imdb?n_reviews=4")
    assert status == 500
    assert "injected" in payload["error"]


# -- metrics -----------------------------------------------------------------


def test_metrics_counters_track_requests(app):
    get(app, "/v1/entity/restaurants/1/sites")
    get(app, "/v1/entity/restaurants/1/sites")
    get(app, "/v1/coverage/restaurants?t=0")  # a 400
    get(app, "/no-such-route")  # a 404
    status, payload = get(app, "/metrics")
    assert status == 200
    endpoints = payload["endpoints"]
    assert endpoints["entity"]["requests"] == 2
    assert endpoints["entity"]["latency"]["count"] == 2
    assert endpoints["entity"]["statuses"]["200"] == 2
    assert endpoints["coverage"]["statuses"]["400"] == 1
    assert endpoints["unknown"]["statuses"]["404"] == 1
    assert payload["requests_total"] == 4
    assert payload["batcher"]["inflight"] == 0
    assert payload["index_build_seconds"] >= 0


# -- the HTTP shell ----------------------------------------------------------


def test_http_server_round_trip(index):
    app = ServeApp(index, ServeSettings(port=0))
    server = FastHTTPServer(app)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}/healthz", timeout=10
        ) as response:
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        direct = app.handle("/v1/coverage/restaurants?k=1&t=2")[1]
        with urllib.request.urlopen(
            f"http://{host}:{port}/v1/coverage/restaurants?k=1&t=2", timeout=10
        ) as response:
            assert response.read() == direct
    finally:
        server.shutdown()
        thread.join(timeout=5)
        app.close()
