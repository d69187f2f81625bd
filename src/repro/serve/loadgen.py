"""Seeded load generators for the serve tier (``repro serve-bench``).

Two measurement models replay the same deterministic request streams
through one HTTP client, :class:`Connection`:

- **Closed loop** (:func:`run_load`, the default): each client thread
  sends a request and waits for its response before sending the next.
  Latency runs from the send to the response; throughput is
  self-limiting — the server can never look overloaded because the
  clients slow down with it.
- **Open loop** (:func:`run_open_load`): requests are *scheduled* by a
  seeded Poisson arrival process at a configured offered rate and sent
  when their arrival time comes due, whether or not earlier responses
  are back.  Latency is completion minus **scheduled arrival**, so
  queueing delay (including generator lag — coordinated omission) is
  charged to the server.  :func:`find_knee` sweeps offered rates to
  locate the knee: the highest rate whose p99 stays under budget.

Both loops fill one :class:`LoadResult`, and :func:`write_bench_report`
writes either one as JSON.  Responses carry the shard id in the
``X-Repro-Worker`` header, and both loops count requests per worker, so
a report shows exactly how the round-robin router spread the
connections.

Determinism contract: the request stream is a pure function of
``(healthz summary, LoadPlan)``.  Each client seeds its own ``numpy``
generator with :func:`repro.perf.derive_seed`, the pipeline's stream
derivation, so streams are reproducible per client regardless of
thread interleaving; ``request_stream_sha256`` in the report is the
proof — two runs with the same seed against the same index hash
identically.  Open-loop arrival schedules extend the same contract:
each connection runs an independent seeded Poisson process (their
superposition is Poisson at the offered rate), so the full
(path, arrival) timeline is reproducible from the plan alone.

Popularity follows the paper's head/tail framing: entity picks are
Zipf-distributed over the catalog (rank 1 hottest), site picks are Zipf
over the size-ranked host head, and coverage depths are Zipf over
``t`` so shallow top-t queries dominate — the shape a real query
service absorbs.

The server never imports this module (``repro.serve`` does not
re-export it), so a ``repro serve`` process carries no client code.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.io import atomic_write_text
from repro.perf import derive_seed

__all__ = [
    "Connection",
    "LoadPlan",
    "LoadResult",
    "OpenLoadPlan",
    "build_open_schedule",
    "build_streams",
    "fetch",
    "find_knee",
    "latency_summary",
    "open_rate_summary",
    "run_load",
    "run_open_load",
    "stream_digest",
    "write_bench_report",
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
        rng = np.random.default_rng(
            derive_seed(plan.seed, f"serve-bench:client:{client}")
        )
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
    """Measured outcome of one closed- or open-loop run.

    ``offered_rate`` is the open loop's offered req/s and None for a
    closed loop.  The loops' threads record through :meth:`record`.
    """

    wall_seconds: float
    stream_sha256: str
    latencies: dict[str, list[float]] = field(repr=False, default_factory=dict)
    statuses: dict[str, int] = field(default_factory=dict)
    worker_requests: dict[str, int] = field(default_factory=dict)
    transport_errors: int = 0
    offered_rate: float | None = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(
        self,
        status: int,
        endpoint: str | None = None,
        seconds: float = 0.0,
        worker: str | None = None,
        count: int = 1,
    ) -> None:
        """Count ``count`` requests that ended in ``status``.

        ``endpoint`` adds ``seconds`` as one latency sample under that
        endpoint; requests a failure left unanswered pass none.
        ``worker`` is the ``X-Repro-Worker`` id of the answering shard.
        """
        with self._lock:
            key = str(status)
            self.statuses[key] = self.statuses.get(key, 0) + count
            if status == CLIENT_ERROR_STATUS:
                self.transport_errors += count
            if worker is not None:
                self.worker_requests[worker] = (
                    self.worker_requests.get(worker, 0) + count
                )
            if endpoint is not None:
                self.latencies.setdefault(endpoint, []).append(seconds)

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


def latency_summary(samples: list[float]) -> dict[str, float]:
    """p50/p95/p99/mean/max in milliseconds (nearest rank ``ceil(q·n)``)."""
    if not samples:
        return {name: 0.0 for name in ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms")}
    return {
        "p50_ms": round(_percentile(samples, 0.50) * 1000.0, 3),
        "p95_ms": round(_percentile(samples, 0.95) * 1000.0, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1000.0, 3),
        "mean_ms": round(sum(samples) / len(samples) * 1000.0, 3),
        "max_ms": round(max(samples) * 1000.0, 3),
    }


# -- the client ----------------------------------------------------------------


def _request_bytes(host: str, path: str, keep_alive: bool = True) -> bytes:
    """One GET request head; ``keep_alive=False`` asks the server to close."""
    close = "" if keep_alive else "Connection: close\r\n"
    return f"GET {path} HTTP/1.1\r\nHost: {host}\r\n{close}\r\n".encode("latin-1")


class Connection:
    """One HTTP/1.1 client connection over a raw socket.

    :meth:`send` writes request bytes (one request or a pipelined
    batch) and :meth:`read_response` reads the answers strictly in
    order, as the server sends them.  Bodies are framed by
    ``Content-Length``, the only framing the serve tier's HTTP shell
    (:mod:`repro.serve.fasthttp`) emits.
    """

    __slots__ = ("sock", "_buf")

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        """Connect to ``host:port`` with Nagle's algorithm off."""
        self.sock = socket.create_connection((host, port), timeout=timeout)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._buf = bytearray()

    def send(self, data: bytes) -> None:
        """Write ``data`` whole."""
        self.sock.sendall(data)

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def read_response(self) -> tuple[int, str | None, bytes]:
        """Read one response: ``(status, X-Repro-Worker header, body)``."""
        while True:
            end = self._buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        head = bytes(self._buf[:end])
        del self._buf[: end + 4]
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
        while len(self._buf) < length:
            self._fill()
        body = bytes(self._buf[:length])
        del self._buf[:length]
        return status, worker, body

    def close(self) -> None:
        """Close the socket."""
        try:
            self.sock.close()
        except OSError:
            pass


def fetch(host: str, port: int, path: str, timeout: float = 30.0) -> tuple[int, bytes]:
    """One GET on its own connection: ``(status, body)``."""
    connection = Connection(host, port, timeout)
    try:
        connection.send(_request_bytes(host, path, keep_alive=False))
        status, __, body = connection.read_response()
    finally:
        connection.close()
    return status, body


# -- closed-loop generation ----------------------------------------------------


def run_load(
    host: str,
    port: int,
    streams: list[list[str]],
    timeout: float = 30.0,
    keep_alive: bool = True,
) -> LoadResult:
    """Drive the request streams closed-loop; one thread per client.

    Each client holds one keep-alive :class:`Connection` (opened by its
    first request, and re-opened after a transport failure, which is
    recorded as status 599) and issues its stream strictly in order,
    waiting for each response — the classic closed-loop model, so
    measured latency includes the full server-side queueing the
    concurrency level induces.  Latency runs from the send, including
    the connect when the request had to open the connection.

    ``keep_alive=False`` sends ``Connection: close`` and reconnects for
    every request — useful for measuring exactly what connection reuse
    buys.  The request streams (and so the printed stream sha256) are
    identical either way.
    """
    result = LoadResult(wall_seconds=0.0, stream_sha256=stream_digest(streams))

    def client_loop(paths: list[str]) -> None:
        connection: Connection | None = None
        try:
            for path in paths:
                started = time.perf_counter()
                worker = None
                try:
                    if connection is None:
                        connection = Connection(host, port, timeout)
                    connection.send(_request_bytes(host, path, keep_alive))
                    status, worker, __ = connection.read_response()
                except (OSError, ValueError, IndexError):
                    status = CLIENT_ERROR_STATUS
                if connection is not None and (
                    status == CLIENT_ERROR_STATUS or not keep_alive
                ):
                    connection.close()
                    connection = None
                result.record(
                    status,
                    _endpoint_of(path),
                    time.perf_counter() - started,
                    worker,
                )
        finally:
            if connection is not None:
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
    plan: LoadPlan | OpenLoadPlan,
    result: LoadResult,
    server_metrics: dict | None = None,
    target: str = "",
    rss_mb: float | None = None,
    sweep: dict | None = None,
    warmup: dict | None = None,
) -> dict:
    """Write the JSON report of a closed or open run; returns the payload.

    A result with an ``offered_rate`` is an open-loop run: its report
    adds ``mode`` and ``offered_rate_rps`` to the closed-loop keys, and
    its plan lists rate, duration and connections.  ``rss_mb`` is the
    server-side peak resident set (max over workers, from
    :func:`repro.perf.peak_rss_mb`) — the storage-tier benchmarks
    compare backends on it.  ``sweep`` and ``warmup`` are
    :func:`find_knee`'s table and the unmeasured warmup run's record.
    """
    open_loop = result.offered_rate is not None
    payload = {
        "benchmark": (
            f"repro serve {'open' if open_loop else 'closed'}-loop load generator"
        ),
        "target": target,
        "plan": dataclasses.asdict(plan),
        "request_stream_sha256": result.stream_sha256,
        "wall_seconds": round(result.wall_seconds, 3),
        "throughput_rps": round(result.throughput_rps, 2),
        "latency_ms": latency_summary(result.all_latencies()),
        "per_endpoint": {
            endpoint: {
                "count": len(samples),
                **latency_summary(samples),
            }
            for endpoint, samples in sorted(result.latencies.items())
        },
        "per_worker": dict(sorted(result.worker_requests.items())),
        "statuses": dict(sorted(result.statuses.items())),
        "transport_errors": result.transport_errors,
    }
    if open_loop:
        payload["mode"] = "open"
        payload["offered_rate_rps"] = round(result.offered_rate, 2)
    optional = {
        "sweep": sweep,
        "server_metrics": server_metrics,
        "warmup": warmup,
        "rss_mb": rss_mb,
    }
    payload.update((key, value) for key, value in optional.items() if value is not None)
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
        rng = np.random.default_rng(
            derive_seed(plan.seed, f"serve-bench:arrivals:{connection}")
        )
        gaps = rng.exponential(1.0 / per_connection_rate, count)
        schedules.append(np.cumsum(gaps))
    return schedules


def run_open_load(
    host: str,
    port: int,
    streams: list[list[str]],
    schedules: list[np.ndarray],
    offered_rate: float,
    timeout: float = 30.0,
) -> LoadResult:
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
        A :class:`LoadResult`; requests left unanswered by a transport
        failure are counted as status 599 without latency samples.
    """
    if len(streams) != len(schedules):
        raise ValueError("streams and schedules must align per connection")
    for paths, times in zip(streams, schedules):
        if len(paths) != len(times):
            raise ValueError("per-connection stream/schedule length mismatch")

    result = LoadResult(
        wall_seconds=0.0,
        stream_sha256=stream_digest(streams),
        offered_rate=offered_rate,
    )
    connections = [Connection(host, port, timeout) for __ in streams]
    start = time.perf_counter()

    def writer(connection: Connection, paths, times, pending) -> None:
        payloads = [_request_bytes(host, path) for path in paths]
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
                connection.send(batch)
        except OSError:
            pass  # the reader observes and accounts for the failure

    def reader(connection: Connection, total: int, pending) -> None:
        completed = 0
        try:
            while completed < total:
                status, worker, __ = connection.read_response()
                finished = time.perf_counter() - start
                path, scheduled = pending.popleft()
                result.record(
                    status, _endpoint_of(path), finished - scheduled, worker
                )
                completed += 1
        except (OSError, ValueError, IndexError):
            result.record(CLIENT_ERROR_STATUS, count=total - completed)

    threads: list[threading.Thread] = []
    for connection, paths, times in zip(connections, streams, schedules):
        pending: collections.deque = collections.deque()
        threads.append(
            threading.Thread(
                target=writer, args=(connection, paths, times, pending), daemon=True
            )
        )
        threads.append(
            threading.Thread(
                target=reader, args=(connection, len(paths), pending), daemon=True
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
        result.wall_seconds = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
        for connection in connections:
            connection.close()
    return result


def open_rate_summary(result: LoadResult) -> dict:
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
) -> tuple[dict, LoadResult | None]:
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
        ``knee_result`` is the full :class:`LoadResult` of the knee
        rung (None when no rate passed) — report *that* run rather than
        re-measuring, so the headline numbers are the very samples that
        established the knee.
    """
    if not rates:
        raise ValueError("need at least one rate to sweep")
    rows: list[dict] = []
    knee: dict | None = None
    knee_result: LoadResult | None = None
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
