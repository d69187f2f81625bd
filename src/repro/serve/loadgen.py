"""Seeded load generators for the serve tier (``repro serve-bench``).

Two measurement models over the same deterministic request streams:

- **Closed loop** (:func:`run_load`, the PR4-compatible default): each
  client waits for a response before sending its next request over an
  ``http.client`` connection.  Latency is request-to-response;
  throughput is self-limiting — the server can never look overloaded
  because the clients slow down with it.
- **Open loop** (:func:`run_open_load`): requests are *scheduled* by a
  seeded Poisson arrival process at a configured offered rate and sent
  when their arrival time comes due, whether or not earlier responses
  are back.  Latency is completion minus **scheduled arrival**, so
  queueing delay (including generator lag — coordinated omission) is
  charged to the server.  :func:`find_knee` sweeps offered rates to
  locate the knee: the highest rate whose p99 stays under budget.

Determinism contract: the request stream is a pure function of
``(healthz summary, LoadPlan)``.  Each client derives its own seed with
the pipeline's CRC stream-derivation formula and draws from an
independent ``numpy`` generator, so streams are reproducible per client
regardless of thread interleaving; ``request_stream_sha256`` in the
report is the proof — two runs with the same seed against the same
index hash identically.  Open-loop arrival schedules extend the same
contract: each connection runs an independent seeded Poisson process
(their superposition is Poisson at the offered rate), so the full
(path, arrival) timeline is reproducible from the plan alone.

Responses carry the shard id in the ``X-Repro-Worker`` header; the
open-loop client records per-worker counts so a report shows exactly
how the kernel (or the round-robin router) spread the connections.

Popularity follows the paper's head/tail framing: entity picks are
Zipf-distributed over the catalog (rank 1 hottest), site picks are Zipf
over the size-ranked host head, and coverage depths are Zipf over
``t`` so shallow top-t queries dominate — the shape a real query
service absorbs.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import http.client
import json
import socket
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.io import atomic_write_text

__all__ = [
    "LoadPlan",
    "LoadResult",
    "OpenLoadPlan",
    "OpenLoadResult",
    "build_open_schedule",
    "build_streams",
    "find_knee",
    "open_rate_summary",
    "run_load",
    "run_open_load",
    "stream_digest",
    "write_bench_report",
    "write_open_bench_report",
]

#: Endpoint mix (weights sum to 100): point reads dominate, and set
#: cover (a slice of the compiled greedy order) is a tenth of it.
_ENDPOINT_WEIGHTS = (
    ("entity", 40),
    ("site", 20),
    ("coverage", 15),
    ("demand", 15),
    ("setcover", 10),
)

_SETCOVER_BUDGETS = (5, 10, 20, 50)
_REVIEW_COUNTS = (0, 1, 2, 4, 8, 16, 64, 256, 1024)
_DEMAND_SOURCES = ("search", "browse")

#: Status code recorded for client-side transport failures.
CLIENT_ERROR_STATUS = 599


@dataclass(frozen=True)
class LoadPlan:
    """Knobs of one load-generation run."""

    seed: int = 7
    clients: int = 4
    requests: int = 200
    zipf_exponent: float = 1.1

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")


def _client_seed(plan: LoadPlan, client: int) -> int:
    """Per-client stream seed (same formula the pipeline uses)."""
    label = f"serve-bench:client:{client}"
    return (plan.seed * 7_368_787 + zlib.crc32(label.encode())) & 0x7FFFFFFF


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    """Zipf probability vector over ranks ``1..n``."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def build_streams(summary: dict, plan: LoadPlan) -> list[list[str]]:
    """Deterministic per-client request paths from a ``/healthz`` summary.

    Args:
        summary: The server's ``/healthz`` payload (``pairs`` with
            ``domain``/``attribute``/``n_entities``/``n_sites``/``ks``/
            ``top_hosts``, plus ``traffic_sites``).
        plan: Seed and sizing.

    Returns:
        ``plan.clients`` path lists whose lengths sum to
        ``plan.requests`` (earlier clients absorb the remainder).
    """
    pairs = summary["pairs"]
    traffic_sites = summary["traffic_sites"]
    if not pairs:
        raise ValueError("healthz summary lists no (domain, attribute) pairs")
    endpoints = [name for name, __ in _ENDPOINT_WEIGHTS]
    mix = np.asarray([w for __, w in _ENDPOINT_WEIGHTS], dtype=np.float64)
    mix /= mix.sum()
    probs_cache: dict[int, np.ndarray] = {}

    def zipf_pick(rng: np.random.Generator, n: int) -> int:
        if n not in probs_cache:
            probs_cache[n] = _zipf_probs(n, plan.zipf_exponent)
        return int(rng.choice(n, p=probs_cache[n]))

    base, remainder = divmod(plan.requests, plan.clients)
    streams: list[list[str]] = []
    for client in range(plan.clients):
        count = base + (1 if client < remainder else 0)
        rng = np.random.default_rng(_client_seed(plan, client))
        paths: list[str] = []
        for __ in range(count):
            endpoint = endpoints[int(rng.choice(len(endpoints), p=mix))]
            pair = pairs[int(rng.integers(len(pairs)))]
            domain, attribute = pair["domain"], pair["attribute"]
            if endpoint == "entity":
                entity = zipf_pick(rng, pair["n_entities"])
                paths.append(
                    f"/v1/entity/{domain}/{entity}/sites?attribute={attribute}"
                )
            elif endpoint == "site":
                hosts = pair["top_hosts"]
                host = hosts[zipf_pick(rng, len(hosts))]
                paths.append(
                    f"/v1/site/{host}/entities"
                    f"?domain={domain}&attribute={attribute}"
                )
            elif endpoint == "coverage":
                k = int(pair["ks"][int(rng.integers(len(pair["ks"])))])
                top_t = zipf_pick(rng, pair["n_sites"]) + 1
                paths.append(
                    f"/v1/coverage/{domain}"
                    f"?attribute={attribute}&k={k}&t={top_t}"
                )
            elif endpoint == "demand":
                site = traffic_sites[int(rng.integers(len(traffic_sites)))]
                reviews = _REVIEW_COUNTS[int(rng.integers(len(_REVIEW_COUNTS)))]
                source = _DEMAND_SOURCES[int(rng.integers(2))]
                paths.append(
                    f"/v1/demand/{site}?n_reviews={reviews}&source={source}"
                )
            else:  # setcover
                budget = _SETCOVER_BUDGETS[
                    int(rng.integers(len(_SETCOVER_BUDGETS)))
                ]
                paths.append(
                    f"/v1/setcover/{domain}"
                    f"?attribute={attribute}&budget={budget}"
                )
        streams.append(paths)
    return streams


def stream_digest(streams: list[list[str]]) -> str:
    """sha256 over the full request stream (client-major order)."""
    hasher = hashlib.sha256()
    for client, paths in enumerate(streams):
        for path in paths:
            hasher.update(f"{client}:{path}\n".encode("utf-8"))
    return hasher.hexdigest()


def _endpoint_of(path: str) -> str:
    """Logical endpoint name of a request path (metrics cardinality)."""
    segments = [s for s in path.split("?", 1)[0].split("/") if s]
    if len(segments) >= 2 and segments[0] == "v1":
        return segments[1]
    return segments[0] if segments else "unknown"


@dataclass
class LoadResult:
    """Measured outcome of one closed-loop run."""

    wall_seconds: float
    stream_sha256: str
    latencies: dict[str, list[float]] = field(repr=False, default_factory=dict)
    statuses: dict[str, int] = field(default_factory=dict)
    transport_errors: int = 0

    @property
    def total_requests(self) -> int:
        """Requests completed (including error responses)."""
        return sum(len(samples) for samples in self.latencies.values())

    @property
    def throughput_rps(self) -> float:
        """Aggregate requests per second over the wall-clock window."""
        return self.total_requests / self.wall_seconds if self.wall_seconds else 0.0

    def all_latencies(self) -> list[float]:
        """Every latency sample, across endpoints."""
        merged: list[float] = []
        for samples in self.latencies.values():
            merged.extend(samples)
        return merged


def _percentile(samples: list[float], q: float) -> float:
    """Exact nearest-rank percentile of a sample list (0.0 when empty)."""
    if not samples:
        return 0.0
    ranked = sorted(samples)
    rank = max(1, int(np.ceil(q * len(ranked))))
    return ranked[rank - 1]


def _latency_summary(samples: list[float]) -> dict[str, float]:
    """p50/p95/p99/mean/max in milliseconds."""
    if not samples:
        return {name: 0.0 for name in ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms")}
    return {
        "p50_ms": round(_percentile(samples, 0.50) * 1000.0, 3),
        "p95_ms": round(_percentile(samples, 0.95) * 1000.0, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1000.0, 3),
        "mean_ms": round(sum(samples) / len(samples) * 1000.0, 3),
        "max_ms": round(max(samples) * 1000.0, 3),
    }


def run_load(
    host: str,
    port: int,
    streams: list[list[str]],
    timeout: float = 30.0,
    keep_alive: bool = True,
) -> LoadResult:
    """Drive the request streams closed-loop; one thread per client.

    Each client owns one pooled keep-alive connection (re-opened after
    a transport failure, with the failure recorded as status 599) and
    issues its stream strictly in order, waiting for each response —
    the classic closed-loop model, so measured latency includes the
    full server-side queueing the concurrency level induces.

    ``keep_alive=False`` reverts to one connection per request
    (``Connection: close``), the PR4 behavior — useful for measuring
    exactly what connection reuse buys.  The request streams (and so
    the printed stream sha256) are identical either way.
    """
    lock = threading.Lock()
    result = LoadResult(wall_seconds=0.0, stream_sha256=stream_digest(streams))

    def record(endpoint: str, status: int, seconds: float) -> None:
        with lock:
            result.latencies.setdefault(endpoint, []).append(seconds)
            key = str(status)
            result.statuses[key] = result.statuses.get(key, 0) + 1
            if status == CLIENT_ERROR_STATUS:
                result.transport_errors += 1

    close_header = {} if keep_alive else {"Connection": "close"}

    def client_loop(paths: list[str]) -> None:
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            for path in paths:
                started = time.perf_counter()
                try:
                    connection.request("GET", path, headers=close_header)
                    response = connection.getresponse()
                    response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    status = CLIENT_ERROR_STATUS
                if status == CLIENT_ERROR_STATUS or not keep_alive:
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                record(
                    _endpoint_of(path), status, time.perf_counter() - started
                )
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client_loop, args=(paths,), daemon=True)
        for paths in streams
        if paths
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_seconds = time.perf_counter() - started
    return result


def write_bench_report(
    path: str | Path,
    plan: LoadPlan,
    result: LoadResult,
    server_metrics: dict | None = None,
    target: str = "",
    rss_mb: float | None = None,
) -> dict:
    """Write the BENCH_PR4-style JSON report; returns the payload.

    ``rss_mb`` is the server-side peak resident set (max over workers,
    from :func:`repro.perf.peak_rss_mb`) — the storage-tier benchmarks
    compare backends on it.
    """
    payload = {
        "benchmark": "repro serve closed-loop load generator",
        "target": target,
        "plan": {
            "seed": plan.seed,
            "clients": plan.clients,
            "requests": plan.requests,
            "zipf_exponent": plan.zipf_exponent,
        },
        "request_stream_sha256": result.stream_sha256,
        "wall_seconds": round(result.wall_seconds, 3),
        "throughput_rps": round(result.throughput_rps, 2),
        "latency_ms": _latency_summary(result.all_latencies()),
        "per_endpoint": {
            endpoint: {
                "count": len(samples),
                **_latency_summary(samples),
            }
            for endpoint, samples in sorted(result.latencies.items())
        },
        "statuses": dict(sorted(result.statuses.items())),
        "transport_errors": result.transport_errors,
    }
    if server_metrics is not None:
        payload["server_metrics"] = server_metrics
    if rss_mb is not None:
        payload["rss_mb"] = rss_mb
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# -- open-loop generation ------------------------------------------------------


@dataclass(frozen=True)
class OpenLoadPlan:
    """Knobs of one open-loop run (offered rate, not concurrency)."""

    seed: int = 7
    rate: float = 2000.0
    duration_seconds: float = 2.0
    connections: int = 2
    zipf_exponent: float = 1.1

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")

    @property
    def requests(self) -> int:
        """Requests scheduled over the run (``rate × duration``)."""
        return max(1, round(self.rate * self.duration_seconds))

    def closed_plan(self) -> LoadPlan:
        """The equivalent :class:`LoadPlan` (stream generation reuse)."""
        return LoadPlan(
            seed=self.seed,
            clients=self.connections,
            requests=self.requests,
            zipf_exponent=self.zipf_exponent,
        )

    def at_rate(self, rate: float) -> "OpenLoadPlan":
        """This plan with a different offered rate (sweep steps)."""
        return OpenLoadPlan(
            seed=self.seed,
            rate=rate,
            duration_seconds=self.duration_seconds,
            connections=self.connections,
            zipf_exponent=self.zipf_exponent,
        )


def _connection_seed(plan: OpenLoadPlan, connection: int) -> int:
    """Per-connection arrival-stream seed (CRC derivation formula)."""
    label = f"serve-bench:arrivals:{connection}"
    return (plan.seed * 7_368_787 + zlib.crc32(label.encode())) & 0x7FFFFFFF


def build_open_schedule(plan: OpenLoadPlan) -> list[np.ndarray]:
    """Per-connection Poisson arrival times (seconds from run start).

    Each connection draws its own exponential inter-arrivals at
    ``rate / connections`` from an independent seeded generator — the
    superposition of the per-connection processes is Poisson at the
    offered rate, and every connection's timeline is reproducible on
    its own.  Lengths match the per-connection stream lengths produced
    by :func:`build_streams` for :meth:`OpenLoadPlan.closed_plan`.
    """
    closed = plan.closed_plan()
    base, remainder = divmod(closed.requests, closed.clients)
    per_connection_rate = plan.rate / plan.connections
    schedules: list[np.ndarray] = []
    for connection in range(plan.connections):
        count = base + (1 if connection < remainder else 0)
        rng = np.random.default_rng(_connection_seed(plan, connection))
        gaps = rng.exponential(1.0 / per_connection_rate, count)
        schedules.append(np.cumsum(gaps))
    return schedules


@dataclass
class OpenLoadResult:
    """Measured outcome of one open-loop run."""

    offered_rate: float
    wall_seconds: float
    stream_sha256: str
    latencies: dict[str, list[float]] = field(repr=False, default_factory=dict)
    statuses: dict[str, int] = field(default_factory=dict)
    worker_requests: dict[str, int] = field(default_factory=dict)
    transport_errors: int = 0

    @property
    def total_requests(self) -> int:
        """Requests completed (including error responses)."""
        return sum(len(samples) for samples in self.latencies.values())

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second over the wall-clock window."""
        return self.total_requests / self.wall_seconds if self.wall_seconds else 0.0

    def all_latencies(self) -> list[float]:
        """Every latency sample (completion − scheduled arrival)."""
        merged: list[float] = []
        for samples in self.latencies.values():
            merged.extend(samples)
        return merged


class _ResponseReader:
    """Minimal HTTP/1.x response scanner over a raw socket."""

    __slots__ = ("sock", "buf")

    def __init__(self, sock: socket.socket) -> None:
        """Wrap ``sock``; responses are read strictly in order."""
        self.sock = sock
        self.buf = bytearray()

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def next_response(self) -> tuple[int, str | None]:
        """Read one response; returns ``(status, worker_id_header)``."""
        while True:
            end = self.buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        head = bytes(self.buf[:end])
        del self.buf[: end + 4]
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        worker: str | None = None
        for line in lines[1:]:
            lowered = line.lower()
            if lowered.startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
            elif lowered.startswith(b"x-repro-worker:"):
                worker = line.split(b":", 1)[1].strip().decode("ascii")
        while len(self.buf) < length:
            self._fill()
        del self.buf[:length]
        return status, worker


def run_open_load(
    host: str,
    port: int,
    streams: list[list[str]],
    schedules: list[np.ndarray],
    offered_rate: float,
    timeout: float = 30.0,
) -> OpenLoadResult:
    """Drive the streams open-loop against ``host:port``.

    Connections are established sequentially **before** any traffic
    starts (so round-robin routers assign connection ``i`` to worker
    ``i mod W`` deterministically), then each gets a writer thread that
    sends every request the moment its scheduled arrival comes due —
    never waiting for responses — and a reader thread that matches
    responses FIFO (the server answers each connection in order) and
    records latency as completion minus *scheduled* arrival.  A
    generator running behind schedule therefore inflates latency rather
    than silently shedding load: coordinated omission is charged, not
    hidden.

    Args:
        host: Server host.
        port: Server port.
        streams: Per-connection request paths (:func:`build_streams`).
        schedules: Per-connection arrival times
            (:func:`build_open_schedule`); shapes must match ``streams``.
        offered_rate: The offered rate the schedules encode (recorded
            in the result).
        timeout: Socket timeout for connect/read.

    Returns:
        An :class:`OpenLoadResult`; requests left unanswered by a
        transport failure are counted as status 599 without latency
        samples.
    """
    if len(streams) != len(schedules):
        raise ValueError("streams and schedules must align per connection")
    for paths, times in zip(streams, schedules):
        if len(paths) != len(times):
            raise ValueError("per-connection stream/schedule length mismatch")

    lock = threading.Lock()
    result = OpenLoadResult(
        offered_rate=offered_rate,
        wall_seconds=0.0,
        stream_sha256=stream_digest(streams),
    )

    def record(endpoint: str, status: int, seconds: float, worker: str | None) -> None:
        with lock:
            result.latencies.setdefault(endpoint, []).append(seconds)
            key = str(status)
            result.statuses[key] = result.statuses.get(key, 0) + 1
            if worker is not None:
                result.worker_requests[worker] = (
                    result.worker_requests.get(worker, 0) + 1
                )

    def record_failures(count: int) -> None:
        with lock:
            key = str(CLIENT_ERROR_STATUS)
            result.statuses[key] = result.statuses.get(key, 0) + count
            result.transport_errors += count

    sockets: list[socket.socket] = []
    for __ in streams:
        sock = socket.create_connection((host, port), timeout=timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        sockets.append(sock)

    start = time.perf_counter()

    def writer(sock: socket.socket, paths, times, pending) -> None:
        payloads = [
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin-1")
            for path in paths
        ]
        i, n = 0, len(paths)
        try:
            while i < n:
                now = time.perf_counter() - start
                if times[i] > now:
                    # Clamp at 0: the clock can advance past times[i]
                    # between the check and the subtraction, and a
                    # negative argument raises ValueError.
                    time.sleep(min(0.002, max(0.0, times[i] - now)))
                    continue
                # Send every request already due as one write — natural
                # pipelining when the generator runs behind schedule.
                batch = bytearray()
                while i < n and times[i] <= now:
                    pending.append((paths[i], float(times[i])))
                    batch += payloads[i]
                    i += 1
                sock.sendall(batch)
        except OSError:
            pass  # the reader observes and accounts for the failure

    def reader(sock: socket.socket, total: int, pending) -> None:
        parser = _ResponseReader(sock)
        completed = 0
        try:
            while completed < total:
                status, worker = parser.next_response()
                finished = time.perf_counter() - start
                path, scheduled = pending.popleft()
                record(_endpoint_of(path), status, finished - scheduled, worker)
                completed += 1
        except (OSError, ConnectionError, ValueError, IndexError):
            record_failures(total - completed)

    threads: list[threading.Thread] = []
    for sock, paths, times in zip(sockets, streams, schedules):
        pending: collections.deque = collections.deque()
        threads.append(
            threading.Thread(
                target=writer, args=(sock, paths, times, pending), daemon=True
            )
        )
        threads.append(
            threading.Thread(
                target=reader, args=(sock, len(paths), pending), daemon=True
            )
        )
    # A cyclic-GC pass over the generator's growing sample lists stalls
    # every writer thread at once — tens of milliseconds charged to
    # whatever requests were in flight.  Nothing here allocates cycles,
    # so pause the collector for the measured window.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        if gc_was_enabled:
            gc.enable()
    result.wall_seconds = time.perf_counter() - start
    for sock in sockets:
        try:
            sock.close()
        except OSError:
            pass
    return result


def open_rate_summary(result: OpenLoadResult) -> dict:
    """One sweep row: rate, achieved throughput, latency, errors."""
    samples = result.all_latencies()
    return {
        "offered_rate_rps": round(result.offered_rate, 2),
        "throughput_rps": round(result.throughput_rps, 2),
        "completed": result.total_requests,
        "transport_errors": result.transport_errors,
        "p50_ms": round(_percentile(samples, 0.50) * 1000.0, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1000.0, 3),
    }


def find_knee(
    host: str,
    port: int,
    summary: dict,
    plan: OpenLoadPlan,
    rates: list[float],
    p99_budget_ms: float,
    timeout: float = 30.0,
) -> tuple[dict, OpenLoadResult | None]:
    """Sweep offered rates ascending; find the p99-under-budget knee.

    A rate *passes* when its open-loop p99 (against scheduled arrivals)
    stays within ``p99_budget_ms`` and no transport errors occurred.
    The sweep stops at the first failing rate — beyond saturation the
    latency-vs-rate curve only gets worse — and the knee is the last
    passing rate.

    Returns:
        A ``(sweep, knee_result)`` pair.  ``sweep`` is the JSON-safe
        ``{"p99_budget_ms", "rates": [row...], "knee_rate_rps",
        "knee": row | None}`` record where each row is
        :func:`open_rate_summary` output plus ``"ok"``.
        ``knee_result`` is the full :class:`OpenLoadResult` of the knee
        rung (None when no rate passed) — report *that* run rather than
        re-measuring, so the headline numbers are the very samples that
        established the knee.
    """
    if not rates:
        raise ValueError("need at least one rate to sweep")
    rows: list[dict] = []
    knee: dict | None = None
    knee_result: OpenLoadResult | None = None
    for rate in sorted(rates):
        step = plan.at_rate(rate)
        streams = build_streams(summary, step.closed_plan())
        schedules = build_open_schedule(step)
        result = run_open_load(
            host, port, streams, schedules, rate, timeout=timeout
        )
        row = open_rate_summary(result)
        row["ok"] = (
            row["p99_ms"] <= p99_budget_ms and result.transport_errors == 0
        )
        rows.append(row)
        if row["ok"]:
            knee = row
            knee_result = result
        else:
            break
    sweep = {
        "p99_budget_ms": p99_budget_ms,
        "rates": rows,
        "knee_rate_rps": knee["offered_rate_rps"] if knee else 0.0,
        "knee": knee,
    }
    return sweep, knee_result


def write_open_bench_report(
    path: str | Path,
    plan: OpenLoadPlan,
    result: OpenLoadResult,
    sweep: dict | None = None,
    server_metrics: dict | None = None,
    target: str = "",
    warmup: dict | None = None,
    rss_mb: float | None = None,
) -> dict:
    """Write the BENCH_PR7-style open-loop JSON report; returns it.

    ``rss_mb``: server-side peak resident set in MB (max over workers).
    """
    payload = {
        "benchmark": "repro serve open-loop load generator",
        "mode": "open",
        "target": target,
        "plan": {
            "seed": plan.seed,
            "rate": plan.rate,
            "duration_seconds": plan.duration_seconds,
            "connections": plan.connections,
            "zipf_exponent": plan.zipf_exponent,
        },
        "request_stream_sha256": result.stream_sha256,
        "offered_rate_rps": round(result.offered_rate, 2),
        "wall_seconds": round(result.wall_seconds, 3),
        "throughput_rps": round(result.throughput_rps, 2),
        "latency_ms": _latency_summary(result.all_latencies()),
        "per_endpoint": {
            endpoint: {
                "count": len(samples),
                **_latency_summary(samples),
            }
            for endpoint, samples in sorted(result.latencies.items())
        },
        "per_worker": dict(sorted(result.worker_requests.items())),
        "statuses": dict(sorted(result.statuses.items())),
        "transport_errors": result.transport_errors,
    }
    if sweep is not None:
        payload["sweep"] = sweep
    if server_metrics is not None:
        payload["server_metrics"] = server_metrics
    if warmup is not None:
        payload["warmup"] = warmup
    if rss_mb is not None:
        payload["rss_mb"] = rss_mb
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload
