"""Seeded request streams and a one-thread HTTP load generator.

Everything the server receives is built here from ``(seed, /healthz
summary)``: the request paths, their order and the open-loop arrival
schedule.  :func:`plan_digest` hashes all of it, so two runs with the same
seed provably send the same bytes at the same offsets.

The generator is one thread driving at most ``CONNECTIONS`` keep-alive
sockets through ``select``:

- :func:`closed_loop` keeps one request outstanding per connection and
  sends the next the moment a response lands (capacity);
- :func:`open_loop` sends each request when its scheduled arrival comes
  due, whether or not earlier responses are back, and charges latency
  from the *scheduled* arrival, so a server stall is counted against
  every request queued behind it.  ``lateness`` (send time - due time)
  says how far the generator itself ran behind.
"""

from __future__ import annotations

import collections
import hashlib
import os
import select
import socket
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

#: Keep-alive connections (and the generator's only thread drives them).
CONNECTIONS = 2

SETCOVER_BUDGETS = (5, 10, 20, 50)
REVIEW_COUNTS = (0, 1, 2, 4, 8, 16, 64, 256, 1024)
DEMAND_SOURCES = ("search", "browse")


@dataclass(frozen=True)
class Mix:
    """Endpoint weights and Zipf exponent of one traffic shape."""

    weights: tuple[tuple[str, int], ...]
    zipf: float


#: Head-heavy: the endpoint mix `repro serve-bench` ships with.
HOT = Mix(
    weights=(
        ("entity", 40),
        ("site", 20),
        ("coverage", 15),
        ("demand", 15),
        ("setcover", 10),
    ),
    zipf=1.1,
)

#: Long tail of point lookups: no set cover, nearly flat popularity.
COLD = Mix(
    weights=(("entity", 40), ("site", 20), ("coverage", 15), ("demand", 15)),
    zipf=0.3,
)


def derive_seed(seed: int, label: str) -> int:
    """Independent sub-seed for one named stream of a run."""
    return (int(seed) * 7_368_787 + zlib.crc32(label.encode())) & 0x7FFFFFFF


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    """Cumulative Zipf(``exponent``) distribution over ranks ``1..n``."""
    cdf = np.cumsum(1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent)
    return cdf / cdf[-1]


def build_stream(summary: dict, mix: Mix, seed: int, count: int, label: str) -> list[str]:
    """``count`` request paths over the index that ``summary`` describes.

    Pairs are picked uniformly; entities, top hosts and coverage depths
    follow Zipf(``mix.zipf``) (rank 0 hottest) so the head is as
    concentrated as the workload asks.  Demand and set-cover parameters
    are uniform.
    """
    pairs = summary["pairs"]
    sites = summary["traffic_sites"]
    if not pairs or not sites:
        raise ValueError("healthz summary lists no pairs or traffic sites")
    rng = np.random.default_rng(derive_seed(seed, f"stream:{label}"))
    names = [name for name, __ in mix.weights]
    weights = np.asarray([w for __, w in mix.weights], dtype=np.float64)
    endpoint = rng.choice(len(names), size=count, p=weights / weights.sum()).tolist()
    pair_pick = rng.integers(len(pairs), size=count).tolist()
    popularity = rng.random(count).tolist()
    pick = rng.integers(1 << 30, size=count).tolist()
    cdfs: dict[int, np.ndarray] = {}

    def zipf_rank(n: int, u: float) -> int:
        cdf = cdfs.get(n)
        if cdf is None:
            cdf = cdfs[n] = _zipf_cdf(n, mix.zipf)
        return min(int(np.searchsorted(cdf, u, side="right")), n - 1)

    paths: list[str] = []
    for i in range(count):
        name = names[endpoint[i]]
        pair = pairs[pair_pick[i]]
        domain, attribute, u, r = pair["domain"], pair["attribute"], popularity[i], pick[i]
        if name == "entity":
            entity = zipf_rank(pair["n_entities"], u)
            paths.append(f"/v1/entity/{domain}/{entity}/sites?attribute={attribute}")
        elif name == "site":
            host = pair["top_hosts"][zipf_rank(len(pair["top_hosts"]), u)]
            paths.append(f"/v1/site/{host}/entities?domain={domain}&attribute={attribute}")
        elif name == "coverage":
            k = pair["ks"][r % len(pair["ks"])]
            top_t = zipf_rank(pair["n_sites"], u) + 1
            paths.append(f"/v1/coverage/{domain}?attribute={attribute}&k={k}&t={top_t}")
        elif name == "demand":
            site = sites[int(u * len(sites))]
            reviews = REVIEW_COUNTS[r % len(REVIEW_COUNTS)]
            source = DEMAND_SOURCES[(r >> 8) % 2]
            paths.append(f"/v1/demand/{site}?n_reviews={reviews}&source={source}")
        else:
            budget = SETCOVER_BUDGETS[r % len(SETCOVER_BUDGETS)]
            paths.append(f"/v1/setcover/{domain}?attribute={attribute}&budget={budget}")
    return paths


def build_schedule(seed: int, rate: float, count: int, label: str) -> list[np.ndarray]:
    """Per-connection Poisson arrival offsets (seconds) for ``count`` requests.

    Request ``i`` goes to connection ``i % CONNECTIONS``; each connection
    draws exponential gaps at ``rate / CONNECTIONS`` from its own seed,
    so the superposition is Poisson at ``rate``.
    """
    schedules = []
    for conn in range(CONNECTIONS):
        n = len(range(conn, count, CONNECTIONS))
        rng = np.random.default_rng(derive_seed(seed, f"arrivals:{label}:{conn}"))
        schedules.append(np.cumsum(rng.exponential(CONNECTIONS / rate, n)))
    return schedules


def plan_digest(parts: list[tuple[str, list[str], list[np.ndarray] | None]]) -> str:
    """sha256 over every phase's paths and arrival offsets (in µs)."""
    hasher = hashlib.sha256()
    for label, paths, schedule in parts:
        hasher.update(f"phase:{label}:{len(paths)}\n".encode())
        for path in paths:
            hasher.update(path.encode() + b"\n")
        for times in schedule or ():
            hasher.update(np.round(times * 1e6).astype(np.int64).tobytes())
    return hasher.hexdigest()


@dataclass
class PhaseResult:
    """What one load phase observed."""

    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    done_s: list[float] = field(default_factory=list)  # completion offsets
    statuses: dict[int, int] = field(default_factory=dict)
    transport_errors: int = 0

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    @property
    def failed(self) -> int:
        bad = sum(n for status, n in self.statuses.items() if status != 200)
        return bad + self.transport_errors

    def windows(self, window_s: float) -> list[list[float]]:
        """Latencies of the requests completed in each whole ``window_s``
        of the phase."""
        slots: list[list[float]] = [[] for __ in range(int(self.wall_s / window_s))]
        for done, latency in zip(self.done_s, self.latencies_s):
            slot = int(done / window_s)
            if slot < len(slots):
                slots[slot].append(latency)
        return slots


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


class _Conn:
    """One keep-alive connection: outgoing bytes and a response parser."""

    __slots__ = ("sock", "out", "buf", "pending")

    def __init__(self, port: int) -> None:
        self.sock = _connect(port)
        self.out = bytearray()
        self.buf = bytearray()
        self.pending: collections.deque[float] = collections.deque()  # due or send times

    def flush(self) -> None:
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def responses(self) -> list[int]:
        """Read what is available; return the statuses completed."""
        try:
            chunk = self.sock.recv(1 << 18)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        done = []
        while True:
            end = self.buf.find(b"\r\n\r\n")
            if end < 0:
                break
            head = bytes(self.buf[:end]).lower()
            start = head.find(b"content-length:")
            length = 0
            if start >= 0:
                length = int(head[start + 15 :].split(b"\r\n", 1)[0])
            if len(self.buf) < end + 4 + length:
                break
            done.append(int(head[9:12]))
            del self.buf[: end + 4 + length]
        return done

    def close(self) -> None:
        self.sock.close()


def _request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("latin-1")


def _record(result: PhaseResult, status: int, latency: float, done: float) -> None:
    result.latencies_s.append(latency)
    result.done_s.append(done)
    result.statuses[status] = result.statuses.get(status, 0) + 1


def closed_loop(
    port: int, paths: list[str], seconds: float | None, connections: int = CONNECTIONS
) -> PhaseResult:
    """One request outstanding per connection, in ``paths`` order.

    With ``seconds`` the loop cycles through ``paths`` until that much
    time has passed; with None it sends every path exactly once.  Each
    completion is recorded with its request-to-response latency.
    """
    result = PhaseResult()
    conns = [_Conn(port) for __ in range(connections)]
    payloads = [_request(p) for p in paths]
    sent = 0
    start = time.perf_counter()

    def send(conn: _Conn) -> None:
        nonlocal sent
        now = time.perf_counter()
        if seconds is None and sent >= len(payloads):
            return
        if seconds is not None and now - start >= seconds:
            return
        conn.out += payloads[sent % len(payloads)]
        conn.pending.append(now)
        sent += 1
        conn.flush()

    try:
        for conn in conns:
            send(conn)
        while any(c.pending for c in conns):
            watch = [c.sock for c in conns if c.pending]
            readable, __, __ = select.select(watch, [], [], 10.0)
            if not readable:
                raise TimeoutError("no response within 10 s")
            for conn in conns:
                if conn.sock in readable:
                    for status in conn.responses():
                        now = time.perf_counter()
                        _record(result, status, now - conn.pending.popleft(), now - start)
                        send(conn)
    except (OSError, ConnectionError, ValueError):
        result.transport_errors += sum(len(c.pending) for c in conns)
    finally:
        result.wall_s = time.perf_counter() - start
        for conn in conns:
            conn.close()
    return result


def open_loop(port: int, paths: list[str], schedule: list[np.ndarray]) -> PhaseResult:
    """Send ``paths`` on their Poisson ``schedule``; latency from due time.

    Request ``i`` rides connection ``i % CONNECTIONS`` and is due at
    ``schedule[i % CONNECTIONS][i // CONNECTIONS]`` seconds after start.
    Between arrivals the loop waits in ``select`` (microsecond timeout),
    reading responses as they land.
    """
    result = PhaseResult()
    conns = [_Conn(port) for __ in range(CONNECTIONS)]
    queues = [
        ([_request(p) for p in paths[c::CONNECTIONS]], schedule[c].tolist())
        for c in range(CONNECTIONS)
    ]
    nxt = [0] * CONNECTIONS
    remaining = len(paths)
    start = time.perf_counter()
    try:
        while remaining:
            now = time.perf_counter() - start
            upcoming = float("inf")
            for c, conn in enumerate(conns):
                payloads, due = queues[c]
                i = nxt[c]
                while i < len(due) and due[i] <= now:
                    conn.out += payloads[i]
                    conn.pending.append(due[i])
                    result.lateness_s.append(now - due[i])
                    i += 1
                nxt[c] = i
                if i < len(due):
                    upcoming = min(upcoming, due[i])
                conn.flush()
            wait = max(0.0, upcoming - (time.perf_counter() - start))
            watch = [c.sock for c in conns if c.pending]
            writers = [c.sock for c in conns if c.out]
            if not watch and not writers:
                time.sleep(min(wait, 1.0))
                continue
            readable, __, __ = select.select(watch, writers, [], min(wait, 1.0))
            for conn in conns:
                if conn.sock not in readable:
                    continue
                statuses = conn.responses()
                finished = time.perf_counter() - start
                for status in statuses:
                    _record(result, status, finished - conn.pending.popleft(), finished)
                    remaining -= 1
    except (OSError, ConnectionError, ValueError):
        result.transport_errors += remaining
    finally:
        result.wall_s = time.perf_counter() - start
        for conn in conns:
            conn.close()
    return result


def fetch(port: int, path: str) -> tuple[int, bytes]:
    """One blocking GET on a fresh connection: ``(status, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n".encode("latin-1")
        )
        data = bytearray()
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    head, __, body = bytes(data).partition(b"\r\n\r\n")
    return int(head[9:12]), body


def thread_budget() -> int:
    """Threads and connections the generator may use: the host's CPUs."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
