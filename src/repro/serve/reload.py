"""Hot index reload: swap serving indices when the manifest changes.

A long-lived serve worker should not need a restart when ``repro all``
rewrites a run's ``manifest.json`` (a re-run at a new seed, an
incremental batch, a corrected config).  :class:`ManifestWatcher` polls
the manifest with two gates:

1. **mtime** — cheap; unchanged mtime means no further work at all.
2. **config fingerprint** — :func:`repro.store.manifest_identity`
   of the re-parsed manifest.  A rewrite that produces the same config
   (``touch``, a byte-identical re-run) is recorded and skipped; only a
   genuinely different index identity triggers a rebuild.

Rebuilds go through the cache-aware :func:`~repro.serve.indices.build_index`
(warm artifact cache → pure deserialization) and land via
:meth:`~repro.serve.server.ServeApp.swap_index`, which replaces the
whole epoch (index + caches) in one reference assignment — in-flight
requests finish on the epoch they captured, so a swap never drops or
tears a response.  The chaos suite points ``op=stall`` cache faults at
a rebuild while hammering requests to prove exactly that.

Failures (a half-written manifest read mid-``atomic_publish``, a
rebuild error) are recorded on :attr:`ManifestWatcher.last_error` and
retried on the next poll — the worker keeps serving the old epoch, by
design, because a stale index beats a dead server.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from repro.pipeline.config import MANIFEST_NAME
from repro.serve.indices import build_index
from repro.serve.server import ServeApp
from repro.store.manifest import load_manifest, manifest_identity

__all__ = ["ManifestWatcher"]


class ManifestWatcher:
    """Poll a run manifest and hot-swap a :class:`ServeApp`'s index."""

    def __init__(
        self,
        manifest_path: str | Path,
        app: ServeApp,
        poll_seconds: float = 2.0,
        builder=None,
    ) -> None:
        """Watch ``manifest_path`` (file or run directory) for ``app``.

        Args:
            manifest_path: ``manifest.json`` or the directory holding it.
            app: The app whose index generations this watcher manages.
            poll_seconds: Sleep between mtime checks.
            builder: ``manifest -> index`` callable; defaults to
                :func:`~repro.serve.indices.build_index`.  The CLI binds
                the selected ``--backend`` here so a reload rebuilds
                into the same storage tier it serves from.

        Raises:
            ValueError: Non-positive poll interval.
        """
        if poll_seconds <= 0:
            raise ValueError(f"poll_seconds must be positive, got {poll_seconds}")
        location = Path(manifest_path)
        if location.is_dir():
            location = location / MANIFEST_NAME
        self.path = location
        self.app = app
        self.builder = builder if builder is not None else build_index
        self.poll_seconds = float(poll_seconds)
        self.last_error: str | None = None
        self.reloads = 0
        self.checks = 0
        self._known_mtime = self._mtime()
        self._known_identity = app.index.identity
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _mtime(self) -> float:
        """Manifest mtime; -1.0 when it is (momentarily) absent."""
        try:
            return os.stat(self.path).st_mtime
        except OSError:
            return -1.0

    def check_once(self) -> bool:
        """One poll step; returns True when an index swap happened.

        Split out from the thread loop so tests (and the chaos suite)
        can drive reload decisions deterministically.
        """
        self.checks += 1
        mtime = self._mtime()
        if mtime < 0 or mtime == self._known_mtime:
            return False
        try:
            manifest = load_manifest(self.path)
            identity = manifest_identity(manifest)
            if identity == self._known_identity:
                # Rewritten but equivalent: remember the mtime so the
                # next poll is cheap again, and keep the live epoch.
                self._known_mtime = mtime
                self.last_error = None
                return False
            index = self.builder(manifest)
        except Exception as exc:
            # Keep serving the old epoch; a torn read of a mid-publish
            # manifest or a failed rebuild (including an out-of-core
            # store compile whose blobs failed digest verification —
            # e.g. an injected ``op=corrupt`` fault) retries on the
            # next poll.
            self.last_error = f"{type(exc).__name__}: {exc}"
            return False
        self.app.swap_index(index)
        self._known_mtime = mtime
        self._known_identity = identity
        self.reloads += 1
        self.last_error = None
        return True

    def run(self) -> None:
        """Poll until :meth:`stop` (the worker thread body)."""
        while not self._stop.wait(self.poll_seconds):
            self.check_once()

    def start(self) -> "ManifestWatcher":
        """Start the watcher on a daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.run, daemon=True, name="serve-reload"
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the polling thread (idempotent, joins briefly)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.poll_seconds + 1.0)
            self._thread = None
