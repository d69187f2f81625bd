"""repro.serve.sharding + fasthttp: bytes, determinism, protocol, lifecycle."""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.runall import write_manifest
from repro.serve import ServeApp, ServeSettings, WORKER_HEADER
from repro.serve.indices import build_index
from repro.serve.loadgen import (
    Connection,
    LoadPlan,
    OpenLoadPlan,
    build_open_schedule,
    build_streams,
    fetch,
    run_load,
    run_open_load,
)
from repro.serve.sharding import ShardPlan, ShardedServer
from repro.store import Manifest
from tests.processes import (
    LIFECYCLE_BOUND_S,
    children,
    eventually,
    exited,
    needs_proc,
)

CONFIG = ExperimentConfig(scale="tiny", seed=0).scaled_down(400)

MANIFEST = Manifest(
    config=CONFIG,
    spread_pairs=(("restaurants", "phone"),),
    traffic_sites=("imdb",),
    artifacts=(),
)

PROBE_PATHS = (
    "/healthz",
    "/v1/entity/restaurants/5/sites",
    "/v1/site/site-000000.restaurants-phone.example.com/entities",
    "/v1/coverage/restaurants?k=1&t=10",
    "/v1/demand/imdb?n_reviews=4&source=search",
    "/v1/setcover/restaurants?budget=5",
)


@pytest.fixture(scope="module")
def index():
    return build_index(MANIFEST)


@pytest.fixture(scope="module")
def expected_bodies(index):
    """Golden bytes straight from an in-process app (no HTTP shell)."""
    app = ServeApp(index, ServeSettings(response_cache_entries=0))
    bodies = {}
    for path in PROBE_PATHS:
        status, body = app.handle(path)
        assert status == 200
        bodies[path] = body
    app.close()
    return bodies


def _get_bodies(host, port, paths, keep_alive=True):
    """Fetch paths over HTTP; returns (bodies, worker_ids)."""
    bodies, workers = [], []
    headers = {} if keep_alive else {"Connection": "close"}
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for path in paths:
            connection.request("GET", path, headers=headers)
            response = connection.getresponse()
            bodies.append(response.read())
            workers.append(response.getheader(WORKER_HEADER))
            assert response.status == 200, path
            if not keep_alive:
                connection.close()
                connection = http.client.HTTPConnection(host, port, timeout=30)
    finally:
        connection.close()
    return bodies, workers


# -- plan units ----------------------------------------------------------------


def test_shard_plan_validation():
    with pytest.raises(ValueError):
        ShardPlan(workers=0)
    with pytest.raises(ValueError):
        ShardPlan(reload_poll_seconds=-1.0)


def test_sharded_server_needs_index_or_manifest():
    with pytest.raises(ValueError, match="index or a manifest_path"):
        ShardedServer()


def test_hot_reload_needs_manifest(index):
    with pytest.raises(ValueError, match="manifest_path to watch"):
        ShardedServer(index=index, plan=ShardPlan(reload_poll_seconds=1.0))


# -- the fast HTTP shell (one in-process worker) -------------------------------


@pytest.fixture()
def fast_server(index):
    """A one-worker deployment's ``(host, port)``."""
    server, host, port = _start(index, 1)
    yield host, port
    server.stop()


def test_loadgen_client_reads_what_http_client_reads(fast_server):
    """fetch() returns http.client's status and body bytes, 200 and 404."""
    host, port = fast_server
    for path, expected_status in (("/healthz", 200), ("/v1/nope", 404)):
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            reference = (response.status, response.read())
        finally:
            connection.close()
        assert reference[0] == expected_status
        assert fetch(host, port, path) == reference
    # Pipelined on one connection, answers come back in order with the
    # worker header.
    connection = Connection(host, port)
    try:
        connection.send(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/nope HTTP/1.1\r\n\r\n"
        )
        first, second = connection.read_response(), connection.read_response()
    finally:
        connection.close()
    assert first == (200, "0", fetch(host, port, "/healthz")[1])
    assert second[:2] == (404, "0")


def test_fasthttp_pipelined_requests_one_write(fast_server, expected_bodies):
    host, port = fast_server
    paths = ["/healthz", "/v1/coverage/restaurants?k=1&t=10", "/healthz"]
    batch = b"".join(
        f"GET {p} HTTP/1.1\r\nHost: t\r\n\r\n".encode() for p in paths
    )
    with socket.create_connection((host, port), timeout=10) as conn:
        conn.sendall(batch)
        received = bytearray()
        while received.count(b"HTTP/1.1 200") < 3:
            chunk = conn.recv(65536)
            assert chunk, "server closed mid-pipeline"
            received += chunk
    text = bytes(received)
    assert text.count(f"{WORKER_HEADER}: 0".encode()) == 3
    for path in set(paths):
        assert expected_bodies[path] in text


def test_fasthttp_responses_match_app_bytes(fast_server, expected_bodies):
    host, port = fast_server
    bodies, workers = _get_bodies(host, port, PROBE_PATHS)
    assert bodies == [expected_bodies[p] for p in PROBE_PATHS]
    assert set(workers) == {"0"}


def test_fasthttp_http10_closes_by_default(fast_server):
    host, port = fast_server
    with socket.create_connection((host, port), timeout=10) as conn:
        conn.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
        received = bytearray()
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break  # closed after the response, as HTTP/1.0 demands
            received += chunk
    assert received.startswith(b"HTTP/1.1 200")


def test_fasthttp_rejects_non_get_and_closes(fast_server):
    host, port = fast_server
    with socket.create_connection((host, port), timeout=10) as conn:
        conn.sendall(b"POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        received = bytearray()
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            received += chunk
    assert received.startswith(b"HTTP/1.1 501")


def test_fasthttp_rejects_malformed_request_line(fast_server):
    host, port = fast_server
    with socket.create_connection((host, port), timeout=10) as conn:
        conn.sendall(b"NONSENSE\r\n\r\n")
        received = bytearray()
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            received += chunk
    assert received.startswith(b"HTTP/1.1 400")


# -- ShardedServer: one worker in-process, more forked -------------------------


def _start(index, workers):
    server = ShardedServer(
        index=index,
        settings=ServeSettings(host="127.0.0.1", port=0),
        plan=ShardPlan(workers=workers),
    )
    host, port = server.start()
    return server, host, port


def test_one_worker_serves_in_process(index, expected_bodies):
    children = set(multiprocessing.active_children())
    server, host, port = _start(index, 1)
    try:
        assert server.worker_pids() == [os.getpid()]
        assert set(multiprocessing.active_children()) == children
        bodies, workers = _get_bodies(host, port, PROBE_PATHS)
    finally:
        server.stop()
    assert bodies == [expected_bodies[p] for p in PROBE_PATHS]
    assert set(workers) == {"0"}
    assert server.worker_pids() == []
    assert _port_free(port)
    # Only forked workers switch the cyclic collector off.
    assert gc.isenabled()


def test_one_worker_needs_no_fork(index, expected_bodies, monkeypatch):
    methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    server, host, port = _start(index, 1)
    try:
        bodies, __ = _get_bodies(host, port, PROBE_PATHS)
    finally:
        server.stop()
    assert bodies == [expected_bodies[p] for p in PROBE_PATHS]
    with pytest.raises(RuntimeError, match="fork start method"):
        _start(index, 2)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_one_accept_loop_at_every_worker_count(index, workers):
    """The supervisor runs the only accept loop, forked workers or not."""
    before = set(threading.enumerate())
    server, __, __ = _start(index, workers)
    try:
        started = set(threading.enumerate()) - before
    finally:
        server.stop()
    assert [thread.name for thread in started] == ["serve-router"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_silent_connection_does_not_hold_the_accept_loop(index, workers):
    """Every worker holds a client that connected and sent nothing; a
    fresh connection is still accepted and answered."""
    server, host, port = _start(index, workers)
    try:
        with contextlib.ExitStack() as stack:
            for __ in range(workers):
                stack.enter_context(
                    socket.create_connection((host, port), timeout=30)
                )
            assert _fresh_get(host, port)[0] == 200
    finally:
        server.stop()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_responses_byte_identical_across_worker_counts(
    index, expected_bodies, workers
):
    server, host, port = _start(index, workers)
    try:
        bodies, __ = _get_bodies(host, port, PROBE_PATHS)
    finally:
        server.stop()
    assert bodies == [expected_bodies[p] for p in PROBE_PATHS]


def test_responses_byte_identical_with_and_without_keep_alive(
    index, expected_bodies
):
    server, host, port = _start(index, 2)
    try:
        pooled, __ = _get_bodies(host, port, PROBE_PATHS, keep_alive=True)
        fresh, __ = _get_bodies(host, port, PROBE_PATHS, keep_alive=False)
    finally:
        server.stop()
    expected = [expected_bodies[p] for p in PROBE_PATHS]
    assert pooled == expected
    assert fresh == expected


def test_router_round_robin_attribution_is_deterministic(index):
    server, host, port = _start(index, 3)
    try:
        seen = []
        for __ in range(7):
            connection = http.client.HTTPConnection(host, port, timeout=30)
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            seen.append(response.getheader(WORKER_HEADER))
            connection.close()
    finally:
        server.stop()
    # Sequential connections land on workers strictly round-robin.
    assert seen == ["0", "1", "2", "0", "1", "2", "0"]


def test_open_loop_attribution_reproducible_across_runs(index):
    """Same seed, same worker count -> identical per-worker counts."""
    app = ServeApp(index, ServeSettings(response_cache_entries=0))
    summary = json.loads(app.handle("/healthz")[1])
    app.close()
    plan = OpenLoadPlan(seed=7, rate=400.0, duration_seconds=0.5, connections=2)
    streams = build_streams(summary, plan.closed_plan())
    schedules = build_open_schedule(plan)

    server, host, port = _start(index, 2)
    try:
        first = run_open_load(host, port, streams, schedules, plan.rate)
        second = run_open_load(host, port, streams, schedules, plan.rate)
    finally:
        server.stop()
    assert first.transport_errors == 0 and second.transport_errors == 0
    assert first.stream_sha256 == second.stream_sha256
    assert first.worker_requests == second.worker_requests
    # Round-robin over two connections splits the stream exactly.
    assert sorted(first.worker_requests) == ["0", "1"]
    assert sum(first.worker_requests.values()) == plan.requests


def test_closed_loop_records_per_worker_counts(index):
    """Each closed-loop client holds one connection, so two clients meet
    both workers of a two-worker router."""
    app = ServeApp(index, ServeSettings(response_cache_entries=0))
    summary = json.loads(app.handle("/healthz")[1])
    app.close()
    streams = build_streams(summary, LoadPlan(seed=7, clients=2, requests=20))
    server, host, port = _start(index, 2)
    try:
        result = run_load(host, port, streams)
    finally:
        server.stop()
    assert result.transport_errors == 0
    assert sorted(result.worker_requests) == ["0", "1"]
    assert sum(result.worker_requests.values()) == 20


def test_worker_metrics_report_worker_id(index):
    server, host, port = _start(index, 2)
    try:
        connection = http.client.HTTPConnection(host, port, timeout=30)
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        payload = json.loads(response.read())
        header = response.getheader(WORKER_HEADER)
        connection.close()
    finally:
        server.stop()
    assert str(payload["worker"]) == header
    assert payload["index_fingerprint"] == index.identity


# -- lifecycle of a forked deployment -------------------------------------------


def _port_free(port):
    """True when a new server could listen on ``127.0.0.1:port``."""
    try:
        socket.create_server(("127.0.0.1", port)).close()
    except OSError:
        return False
    return True


def _fresh_get(host, port):
    """One GET /healthz on its own connection; returns (status, worker)."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        return response.status, response.getheader(WORKER_HEADER)
    finally:
        connection.close()


def _python(*argv, **popen):
    """Start ``python -u *argv`` with this checkout's ``repro`` importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-u", *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        **popen,
    )


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A run directory whose manifest serves MANIFEST's pair and site."""
    root = tmp_path_factory.mktemp("lifecycle-run")
    path = write_manifest(root, CONFIG, [])
    payload = json.loads(path.read_text())
    payload["spread_pairs"] = [list(pair) for pair in MANIFEST.spread_pairs]
    payload["traffic_sites"] = list(MANIFEST.traffic_sites)
    path.write_text(json.dumps(payload))
    return root


@contextlib.contextmanager
def _serving_two_workers(run_dir, **popen):
    """``repro serve RUN --workers 2 --port 0``; yields (process, port, workers)."""
    serve = _python(
        "-m", "repro", "serve", str(run_dir),
        "--workers", "2", "--port", "0", "--no-cache",
        **popen,
    )
    try:
        banner = ""
        while "serving on" not in banner:
            banner = serve.stdout.readline()
            assert banner, "repro serve exited before serving"
        port = int(re.search(r":(\d+) with 2 workers", banner).group(1))
        workers = children(serve.pid)
        assert len(workers) == 2, workers
        assert _fresh_get("127.0.0.1", port)[0] == 200
        yield serve, port, workers
    finally:
        serve.kill()
        serve.wait()
        for stream in (serve.stdout, serve.stderr):
            if stream is not None:
                stream.close()


@needs_proc
def test_sigterm_stops_supervisor_and_workers(run_dir):
    with _serving_two_workers(run_dir) as (serve, port, workers):
        serve.send_signal(signal.SIGTERM)
        assert serve.wait(timeout=LIFECYCLE_BOUND_S) == 0
    assert eventually(lambda: all(exited(pid) for pid in workers))
    assert eventually(lambda: _port_free(port))


@needs_proc
def test_ctrl_c_stops_workers_without_tracebacks(run_dir):
    """A terminal's Ctrl-C sends SIGINT to the whole process group."""
    with _serving_two_workers(
        run_dir, stderr=subprocess.PIPE, start_new_session=True
    ) as (serve, port, workers):
        os.killpg(serve.pid, signal.SIGINT)
        assert serve.wait(timeout=LIFECYCLE_BOUND_S) == 0
        assert eventually(lambda: all(exited(pid) for pid in workers))
        assert "Traceback" not in serve.stderr.read()
    assert eventually(lambda: _port_free(port))


_SUPERVISOR = """
import json, sys, time
from repro.serve import ServeSettings, ShardPlan, ShardedServer
server = ShardedServer(
    manifest_path=sys.argv[1],
    settings=ServeSettings(host="127.0.0.1", port=0),
    plan=ShardPlan(workers=2),
)
host, port = server.start()
print(json.dumps({"port": port, "pids": server.worker_pids()}))
time.sleep(600)
"""


@needs_proc
def test_workers_exit_when_supervisor_is_killed(run_dir):
    supervisor = _python("-c", _SUPERVISOR, str(run_dir))
    try:
        started = json.loads(supervisor.stdout.readline())
        port, workers = started["port"], started["pids"]
        assert len(workers) == 2
        assert _fresh_get("127.0.0.1", port)[0] == 200
    finally:
        supervisor.kill()  # SIGKILL: no handler runs, stop() never does
        supervisor.wait()
        supervisor.stdout.close()
    assert eventually(lambda: all(exited(pid) for pid in workers))
    assert eventually(lambda: _port_free(port))


@pytest.mark.parametrize(
    ("workers", "expected"),
    [(2, ["1"] * 8), (3, ["1", "2"] * 4)],
    ids=["2-workers", "3-workers"],
)
def test_dead_worker_is_routed_around(index, workers, expected):
    """After SIGKILL on worker 0, the rest answer every connection in turn."""
    server, host, port = _start(index, workers)
    try:
        victim = server.worker_pids()[0]  # worker 0
        os.kill(victim, signal.SIGKILL)
        assert eventually(lambda: victim not in server.worker_pids())
        answers = [_fresh_get(host, port) for __ in range(8)]
    finally:
        server.stop()
    assert answers == [(200, worker) for worker in expected]
