"""Multi-run serving: RunRouter prefix routing, the sharded registry,
and the peak-RSS accounting the storage ladder reports."""

from __future__ import annotations

import http.client
import json
import os
import socket

import pytest

from repro.perf import peak_rss_mb, rss_high_water_mb
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.runall import write_manifest
from repro.resilience import ENV_FAULTS, clear_plan_cache
from repro.serve import (
    WORKER_HEADER,
    FastHTTPServer,
    RunRouter,
    ServeApp,
    ServeSettings,
    ShardPlan,
    ShardedServer,
    build_index,
    load_manifest,
)
from repro.store import Manifest


@pytest.fixture(autouse=True)
def no_faults(monkeypatch):
    monkeypatch.delenv(ENV_FAULTS, raising=False)
    clear_plan_cache()
    yield
    clear_plan_cache()


def manifest_for(seed: int) -> Manifest:
    return Manifest(
        config=ExperimentConfig(scale="tiny", seed=seed).scaled_down(400),
        spread_pairs=(("restaurants", "phone"),),
        traffic_sites=("imdb",),
        artifacts=(),
    )


def write_run(root, seed: int):
    config = ExperimentConfig(scale="tiny", seed=seed).scaled_down(400)
    path = write_manifest(root, config, ["table1.txt"])
    payload = json.loads(path.read_text())
    payload["spread_pairs"] = [["restaurants", "phone"]]
    payload["traffic_sites"] = ["imdb"]
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def router():
    apps = {
        "alpha": ServeApp(
            build_index(manifest_for(0)), ServeSettings(response_cache_entries=0)
        ),
        "beta": ServeApp(
            build_index(manifest_for(1)), ServeSettings(response_cache_entries=0)
        ),
    }
    routed = RunRouter(apps, "alpha")
    yield routed
    routed.close()


# ------------------------------------------------------------ RunRouter


def test_runs_listing(router):
    status, body = router.handle("/v1/runs")
    assert status == 200
    payload = json.loads(body)
    assert payload["default_run"] == "alpha"
    assert [run["run_id"] for run in payload["runs"]] == ["alpha", "beta"]
    for run in payload["runs"]:
        assert run["backend"] == "ram"
        assert run["seed"] in (0, 1)
        assert len(run["index_fingerprint"]) == 64


def test_prefixed_routes_hit_the_named_run(router):
    direct = router.apps["beta"].handle("/v1/coverage/restaurants?k=1&t=2")
    routed = router.handle("/v1/run/beta/coverage/restaurants?k=1&t=2")
    assert routed == direct


def test_legacy_routes_hit_the_default_run(router):
    direct = router.apps["alpha"].handle("/v1/coverage/restaurants?k=1&t=2")
    assert router.handle("/v1/coverage/restaurants?k=1&t=2") == direct
    assert router.handle("/healthz") == router.apps["alpha"].handle("/healthz")


def test_default_run_prefix_matches_legacy(router):
    legacy = router.handle("/v1/coverage/restaurants?k=1&t=2")
    prefixed = router.handle("/v1/run/alpha/coverage/restaurants?k=1&t=2")
    assert prefixed == legacy


def test_unknown_run_is_a_404_naming_the_registry(router):
    status, body = router.handle("/v1/run/gamma/healthz")
    assert status == 404
    payload = json.loads(body)
    assert "gamma" in payload["error"]
    assert "alpha" in payload["error"] and "beta" in payload["error"]


def test_run_healthz_and_metrics_unwrap(router):
    status, body = router.handle("/v1/run/beta/healthz")
    assert status == 200
    assert json.loads(body)["seed"] == 1
    status, body = router.handle("/v1/run/beta/metrics")
    assert status == 200
    assert "requests_total" in json.loads(body)


def test_router_quacks_like_an_app(router):
    assert router.worker_id == router.apps["alpha"].worker_id


def test_router_rejects_unknown_default():
    with pytest.raises(ValueError, match="default run"):
        RunRouter({}, "missing")


def test_router_behind_the_http_shell(router):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname()[:2], timeout=10)
        conn, __ = listener.accept()
    FastHTTPServer(router).process_connection(conn)
    with client:
        client.sendall(b"GET /v1/runs HTTP/1.1\r\nHost: t\r\n\r\n")
        response = http.client.HTTPResponse(client)
        response.begin()
        assert response.status == 200
        assert response.getheader(WORKER_HEADER) == "0"
        assert json.loads(response.read())["default_run"] == "alpha"


# ------------------------------------------------------ sharded registry


def test_sharded_server_serves_extra_runs(tmp_path):
    alpha, beta = tmp_path / "alpha", tmp_path / "beta"
    alpha.mkdir()
    beta.mkdir()
    write_run(alpha, seed=0)
    write_run(beta, seed=1)
    server = ShardedServer(
        manifest_path=alpha,
        settings=ServeSettings(port=0),
        plan=ShardPlan(workers=2),
        extra_runs={"beta": beta},
        default_run="alpha",
    )
    host, port = server.start()
    try:
        pids = server.worker_pids()
        assert len(pids) == 2 and all(pid > 0 for pid in pids)

        def get(path):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            conn.close()
            return response.status, body

        status, body = get("/v1/runs")
        assert status == 200
        payload = json.loads(body)
        assert payload["default_run"] == "alpha"
        assert {run["run_id"] for run in payload["runs"]} == {"alpha", "beta"}
        status, body = get("/v1/run/beta/healthz")
        assert status == 200
        assert json.loads(body)["seed"] == 1
        status, __ = get("/v1/coverage/restaurants?k=1&t=2")
        assert status == 200
    finally:
        server.stop()
    assert server.worker_pids() == []


def test_sharded_server_rejects_colliding_run_ids(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    write_run(run, seed=0)
    index = build_index(load_manifest(run))
    with pytest.raises(ValueError, match="collides"):
        ShardedServer(
            index=index,
            manifest_path=run,
            settings=ServeSettings(port=0),
            extra_runs={"default": run},
            default_run="default",
        )


def test_sharded_server_builder_is_injectable(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    write_run(run, seed=0)
    seen = []

    def builder(manifest):
        seen.append(manifest)
        return build_index(manifest)

    server = ShardedServer(
        manifest_path=run,
        settings=ServeSettings(port=0),
        builder=builder,
    )
    assert len(seen) == 1
    assert server.index.identity == build_index(seen[0]).identity


# ----------------------------------------------------------------- RSS


def test_rss_high_water_mb_self_is_positive():
    value = rss_high_water_mb()
    assert value is not None and value > 0


def test_rss_high_water_mb_by_pid_matches_self():
    by_pid = rss_high_water_mb(os.getpid())
    if by_pid is None:
        pytest.skip("/proc not available on this platform")
    assert by_pid == pytest.approx(rss_high_water_mb(), rel=0.25)


def test_peak_rss_mb_over_pids():
    assert peak_rss_mb([]) is None
    assert peak_rss_mb([2**30]) is None  # no such pid
    own = peak_rss_mb([os.getpid()])
    if own is not None:
        assert own > 0
