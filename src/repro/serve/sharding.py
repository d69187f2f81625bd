"""The serve tier's one host: ``repro serve`` with any ``--workers``.

The paper's query workloads are read-only over immutable run artifacts
— an embarrassingly shardable serving problem that a single GIL-bound
process cannot scale.  :class:`ShardedServer` builds the index **once**
and runs every worker the same way: a per-worker
:class:`~repro.serve.server.ServeApp` (own caches, own metrics, shared
immutable index pages), optionally a
:class:`~repro.serve.reload.ManifestWatcher` for hot index reload, and
the pipelined :class:`~repro.serve.fasthttp.FastHTTPServer` shell.
Whether to fork follows from the worker count:

- **one worker** runs in the calling process on a listener thread — no
  fork, so it works on platforms without ``fork`` and leaves the
  caller's garbage collector alone;
- **N > 1 workers** are forked children that inherit the index
  copy-on-write.  The supervisor owns the only listening socket (each
  worker closes its inherited copy) and passes each accepted
  connection's file descriptor to a worker over a Unix socketpair
  (``SCM_RIGHTS`` via :func:`socket.send_fds`), strictly round-robin
  in accept order.  Workers serve the connection through
  :meth:`~repro.serve.fasthttp.FastHTTPServer.process_connection`.
  Round-robin dispatch makes per-worker request attribution
  reproducible and spreads even two keep-alive connections over two
  workers (``docs/serving.md`` records why this is the one mechanism).

Lifecycle of a forked deployment: the supervisor holds the far end of
every worker's channel, so when it exits — through
:meth:`ShardedServer.stop` or killed by any signal — each worker reads
EOF and exits.  A worker that dies leaves the rotation; its share of
new connections goes to the live workers, and nothing respawns it.

Forked supervision needs ``fork``: worker entry points are bound
methods, which only works because ``fork`` inherits state instead of
pickling it.  :meth:`ShardedServer.start` raises on platforms without
it when more than one worker is asked for.
"""

from __future__ import annotations

import errno
import gc
import multiprocessing
import os
import signal
import socket
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.serve.fasthttp import FastHTTPServer, listen
from repro.serve.indices import build_index
from repro.serve.reload import ManifestWatcher
from repro.serve.server import RunRouter, ServeApp, ServeSettings
from repro.store.backend import QueryIndex
from repro.store.manifest import load_manifest

__all__ = ["ShardPlan", "ShardedServer"]

_READY_TIMEOUT = 60.0

#: glibc's ``mallopt`` parameter number for the arena cap (malloc.h).
_M_ARENA_MAX = -8
#: Malloc arenas a serve host may use.  Requests render on short-lived
#: connection threads, and glibc gives each new thread its own arena
#: up to 8 per core, which grows peak RSS with connection churn.
_MALLOC_ARENAS = 2


def _cap_malloc_arenas() -> None:
    """Cap glibc's malloc arenas at :data:`_MALLOC_ARENAS`.

    Forked workers inherit the cap.  A no-op where the C library has
    no ``mallopt`` (not glibc).
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, _MALLOC_ARENAS)


def _freeze_gc() -> None:
    """Take a forked worker's heap out of the cyclic collector.

    The worker's heap is an immutable index plus str->bytes LRU caches:
    reference counting reclaims everything, and cyclic collections over
    the (large, long-lived) cache dicts cost tens of milliseconds each —
    a visible p99 stall.  Freeze the inherited heap out of the collector
    and turn the cycle collector off, as read-mostly servers
    conventionally do.  An in-process worker shares the caller's
    collector and does not call this.
    """
    gc.freeze()
    gc.disable()


@dataclass(frozen=True)
class ShardPlan:
    """Knobs of the sharded deployment.

    Attributes:
        workers: Workers to run (>= 1); one runs in-process, more are
            forked behind the supervisor's connection router.
        reload_poll_seconds: Manifest poll interval for hot index
            reload; 0 disables the watcher.
    """

    workers: int = 2
    reload_poll_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.reload_poll_seconds < 0:
            raise ValueError("reload_poll_seconds must be >= 0")


class ShardedServer:
    """Host ``N`` serve workers behind one port (in-process when N is 1)."""

    def __init__(
        self,
        index: QueryIndex | None = None,
        manifest_path: str | Path | None = None,
        settings: ServeSettings | None = None,
        plan: ShardPlan | None = None,
        builder=None,
        extra_runs: dict[str, str | Path] | None = None,
        default_run: str = "default",
    ) -> None:
        """Prepare (but do not start) a deployment.

        Args:
            index: Pre-built serving index; forked workers inherit it.
                ``None`` builds it here from ``manifest_path``.
            manifest_path: The run directory or ``manifest.json``;
                required when ``index`` is None or hot reload is on.
            settings: Per-worker :class:`ServeSettings` (host/port/...).
            plan: Shard count and reload cadence.
            builder: ``manifest -> index`` callable for building and
                hot-reloading indices; defaults to
                :func:`~repro.serve.indices.build_index`.  The CLI
                binds the selected ``--backend`` here.
            extra_runs: Additional runs to serve behind a
                :class:`~repro.serve.server.RunRouter` — a
                ``run_id -> manifest path`` map.  Their indices are
                built once here (via ``builder``) and shared by every
                worker.
            default_run: Registry name of the primary run (the one
                legacy unprefixed routes hit) when ``extra_runs`` is
                non-empty.

        Raises:
            ValueError: Neither an index nor a manifest path was given,
                hot reload was requested without a manifest path, or an
                extra run reuses ``default_run``'s name.
        """
        self.settings = settings or ServeSettings()
        self.plan = plan or ShardPlan()
        self.manifest_path = (
            None if manifest_path is None else Path(manifest_path)
        )
        self.builder = builder if builder is not None else build_index
        if index is None:
            if self.manifest_path is None:
                raise ValueError("need an index or a manifest_path")
            index = self.builder(load_manifest(self.manifest_path))
        if self.plan.reload_poll_seconds > 0 and self.manifest_path is None:
            raise ValueError("hot reload needs a manifest_path to watch")
        self.default_run = default_run
        self.extra_runs = {
            run_id: Path(path) for run_id, path in (extra_runs or {}).items()
        }
        if default_run in self.extra_runs:
            raise ValueError(
                f"extra run {default_run!r} collides with the default run"
            )
        # Extra-run indices are built once, pre-fork, for the same
        # copy-on-write sharing the primary index gets.
        self.extra_indices: dict[str, QueryIndex] = {
            run_id: self.builder(load_manifest(path))
            for run_id, path in sorted(self.extra_runs.items())
        }
        self.index = index
        self._server: FastHTTPServer | None = None  # the in-process worker
        self._server_thread: threading.Thread | None = None
        self._watchers: list[ManifestWatcher] = []
        self._processes: list = []
        self._channels: list[socket.socket] = []
        self._listener: socket.socket | None = None
        self._router_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self.server_address: tuple[str, int] | None = None

    # -- parent side ----------------------------------------------------------

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (for RSS attribution).

        An in-process worker is this process.
        """
        if self._server is not None:
            return [os.getpid()]
        return [
            process.pid
            for process in self._processes
            if process.pid is not None and process.is_alive()
        ]

    def start(self) -> tuple[str, int]:
        """Bind, start the workers, wait until all accept; returns (host, port).

        Raises:
            RuntimeError: More than one worker on a platform without
                the ``fork`` start method, or a forked worker that
                never became ready.
        """
        _cap_malloc_arenas()
        host, port = self.settings.host, self.settings.port
        if self.plan.workers == 1:
            sock = listen(host, port)
            app, self._watchers = self._worker_app(0)
            self._server = FastHTTPServer(app, sock)
            self._server_thread = threading.Thread(
                target=self._server.serve_forever,
                daemon=True,
                name="serve-accept",
            )
            self._server_thread.start()
            self.server_address = sock.getsockname()[:2]
            return self.server_address
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                f"{self.plan.workers} workers need the fork start method, "
                "which this platform lacks; serve with one worker"
            )
        ctx = multiprocessing.get_context("fork")
        self._listener = listen(host, port)
        self.server_address = self._listener.getsockname()[:2]

        ready_events = []
        for worker_id in range(self.plan.workers):
            ready = ctx.Event()
            ready_events.append(ready)
            parent_end, child_end = socket.socketpair(
                socket.AF_UNIX, socket.SOCK_STREAM
            )
            self._channels.append(parent_end)
            process = ctx.Process(
                target=self._worker,
                args=(worker_id, child_end, ready),
                daemon=True,
                name=f"serve-shard-{worker_id}",
            )
            process.start()
            self._processes.append(process)
            child_end.close()  # the worker owns its end now

        for worker_id, ready in enumerate(ready_events):
            if not ready.wait(timeout=_READY_TIMEOUT):
                exitcode = self._processes[worker_id].exitcode
                self.stop()
                raise RuntimeError(
                    f"worker {worker_id} never became ready "
                    f"(exitcode {exitcode})"
                )
        self._router_thread = threading.Thread(
            target=self._route_accepts, daemon=True, name="serve-router"
        )
        self._router_thread.start()
        return self.server_address

    def _route_accepts(self) -> None:
        """Accept loop: hand each connection fd to live workers round-robin.

        A channel that refuses the fd belongs to a dead worker: it
        leaves the rotation and the same connection goes to the next
        live worker.  Only when no worker is left is it closed unanswered.
        """
        assert self._listener is not None
        channels = list(self._channels)
        turn = 0
        while not self._stopping.is_set():
            try:
                conn, __ = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            while channels:
                turn %= len(channels)
                try:
                    socket.send_fds(channels[turn], [b"c"], [conn.fileno()])
                except OSError:
                    del channels[turn]  # route around the dead worker
                    continue
                turn += 1
                break
            conn.close()  # the worker holds its own duplicate now

    def stop(self) -> None:
        """Tear the deployment down (idempotent)."""
        self._stopping.set()
        if self._server is not None:
            self._server.shutdown()
            self._server_thread.join(timeout=5.0)
            for watcher in self._watchers:
                watcher.stop()
            self._server = self._server_thread = None
            self._watchers = []
        if self._listener is not None:
            # Wake the router's accept() so it observes the stop flag;
            # close() alone does not interrupt a parked accept.
            try:
                with socket.create_connection(self.server_address, timeout=1.0):
                    pass
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._router_thread is not None:
            self._router_thread.join(timeout=5.0)
            self._router_thread = None
        for channel in self._channels:
            try:
                channel.close()  # EOF tells the worker loop to exit
            except OSError:
                pass
        self._channels = []
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=10.0)
        self._processes = []

    # -- worker side ----------------------------------------------------------

    def _worker_app(
        self, worker_id: int
    ) -> tuple["ServeApp | RunRouter", list[ManifestWatcher]]:
        """Build one worker's app(s) over the shared indices.

        One :class:`ServeApp` per registered run (own caches and
        metrics over the shared immutable index pages); a
        :class:`RunRouter` fronts them when extra runs are registered.
        Each run gets its own watcher so runs hot-reload independently.
        """
        app = ServeApp(self.index, self.settings, worker_id=worker_id)
        watchers: list[ManifestWatcher] = []
        if self.plan.reload_poll_seconds > 0 and self.manifest_path is not None:
            watchers.append(
                ManifestWatcher(
                    self.manifest_path,
                    app,
                    self.plan.reload_poll_seconds,
                    builder=self.builder,
                ).start()
            )
        handler: ServeApp | RunRouter = app
        if self.extra_runs:
            apps = {self.default_run: app}
            for run_id, run_index in sorted(self.extra_indices.items()):
                run_app = ServeApp(run_index, self.settings, worker_id=worker_id)
                apps[run_id] = run_app
                if self.plan.reload_poll_seconds > 0:
                    watchers.append(
                        ManifestWatcher(
                            self.extra_runs[run_id],
                            run_app,
                            self.plan.reload_poll_seconds,
                            builder=self.builder,
                        ).start()
                    )
            handler = RunRouter(apps, self.default_run)
        return handler, watchers

    def _worker(self, worker_id: int, channel: socket.socket, ready) -> None:
        """Forked worker body: serve connections passed over ``channel``.

        Exits when ``channel`` reads EOF, which happens once the
        supervisor closes it in :meth:`stop` or dies.  A terminal's
        Ctrl-C reaches the whole process group; the worker ignores it
        and leaves the stopping to its supervisor.
        """
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # CONC003 suppressed: touching the pre-fork sockets here is
        # deliberate fork-fd hygiene — the child closes its inherited
        # copy of the listener and of every parent-side channel end, so
        # the supervisor holds the only ones: its exit, by any means,
        # frees the port and reads as EOF on every worker's channel.
        for sock in (self._listener, *self._channels):  # reprolint: disable=CONC003
            try:
                sock.close()
            except OSError:
                pass
        app, __ = self._worker_app(worker_id)
        _freeze_gc()
        server = FastHTTPServer(app, bind=False)
        ready.set()
        while True:
            try:
                msg, fds, __, __addr = socket.recv_fds(channel, 16, 4)
            except OSError as exc:
                if exc.errno == errno.EINTR:
                    continue
                break
            if not msg and not fds:
                break  # supervisor closed the channel: shut down
            for fd in fds:
                server.process_connection(socket.socket(fileno=fd))
