"""The serve tier's one HTTP/1.1 shell, tuned for the hot path.

Every ``repro serve`` worker answers through this shell: the one
in-process worker and each forked shard alike.  Generic stdlib request
parsing (``readline`` loops, header objects, date formatting) would
spend most of a cached request's budget, so this is a lean
thread-per-connection loop that

- reads into one per-connection buffer and scans for complete request
  heads (requests are GET-only, so a head is the whole request);
- handles **pipelined** requests back-to-back, batching every response
  produced from the same buffered chunk into a single ``sendall`` —
  the write syscall amortizes across the pipeline depth;
- answers through :meth:`repro.serve.server.ServeApp.handle` on the
  connection's own thread, so routing, caching, metrics, and fault
  injection live in the transport-free app, not here, and a request
  that stalls holds only its own connection;
- honors keep-alive semantics: HTTP/1.1 persists unless the request
  says ``Connection: close``, HTTP/1.0 closes unless it says
  ``keep-alive``, and non-GET methods get a 501 and a close (a body we
  never parse must not poison the framing).

The worker id travels on the ``X-Repro-Worker`` response header so the
load generator can attribute every response to the shard that produced
it.  The shell owns no listener: :mod:`repro.serve.sharding` accepts
every connection and hands it to :meth:`process_connection`, in
process for one worker and over a forked worker's channel for more.
"""

from __future__ import annotations

import socket
import threading

from repro.serve.server import RunRouter, ServeApp

__all__ = ["FastHTTPServer"]

_RECV_SIZE = 1 << 16
#: A request head larger than this without a terminator is hostile.
_MAX_HEAD = 1 << 16

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    501: "Not Implemented",
}

_TERMINATOR = b"\r\n\r\n"


class FastHTTPServer:
    """Thread-per-connection pipelining HTTP shell over a `ServeApp`."""

    def __init__(self, app: ServeApp | RunRouter) -> None:
        """Wrap ``app``, which owns routing, caching and metrics."""
        self.app = app
        # Responses embed the worker id once; precompute the suffix.
        self._worker_suffix = (
            f"X-Repro-Worker: {app.worker_id}\r\n\r\n".encode("ascii")
        )

    def process_connection(self, conn: socket.socket) -> None:
        """Serve one accepted connection on its own daemon thread.

        The supervisor's accept loop calls this for the in-process
        worker; a forked worker calls it with each connection whose
        file descriptor the supervisor passed it.
        """
        threading.Thread(
            target=self._serve_connection,
            args=(conn,),
            daemon=True,
            name="serve-conn",
        ).start()

    # -- the connection loop --------------------------------------------------

    def _respond(self, head: bytes, out: bytearray) -> bool:
        """Append the response for one request head; True to keep alive."""
        line_end = head.find(b"\r\n")
        request_line = head if line_end < 0 else head[:line_end]
        parts = request_line.split()
        if len(parts) != 3:
            self._append(out, 400, b'{"error":"malformed request line"}\n')
            return False
        method, target, version = parts
        lowered = head.lower()
        if version == b"HTTP/1.1":
            keep_alive = b"connection: close" not in lowered
        elif version == b"HTTP/1.0":
            keep_alive = b"connection: keep-alive" in lowered
        else:
            self._append(out, 400, b'{"error":"unsupported protocol"}\n')
            return False
        if method != b"GET":
            # A request body would desynchronize the buffer scan; close.
            self._append(out, 501, b'{"error":"GET only"}\n')
            return False
        status, body = self.app.handle(target.decode("latin-1"))
        self._append(out, status, body)
        return keep_alive

    def _append(self, out: bytearray, status: int, body: bytes) -> None:
        """Serialize one response onto the connection's output batch."""
        reason = _REASONS.get(status, "Status")
        out += (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        ).encode("ascii")
        out += self._worker_suffix
        out += body

    def _serve_connection(self, conn: socket.socket) -> None:
        """Buffer-scan loop: parse, handle, batch-write, repeat."""
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        buf = bytearray()
        out = bytearray()
        try:
            while True:
                # Drain every complete pipelined request already buffered.
                keep_alive = True
                while keep_alive:
                    end = buf.find(_TERMINATOR)
                    if end < 0:
                        if len(buf) > _MAX_HEAD:
                            self._append(
                                out, 400, b'{"error":"request head too large"}\n'
                            )
                            keep_alive = False
                        break
                    head = bytes(buf[: end + 2])
                    del buf[: end + 4]
                    keep_alive = self._respond(head, out)
                if out:
                    conn.sendall(out)
                    out = bytearray()
                if not keep_alive:
                    return
                chunk = conn.recv(_RECV_SIZE)
                if not chunk:
                    return
                buf += chunk
        except OSError:
            pass  # peer went away mid-exchange; nothing to answer
        finally:
            try:
                conn.close()
            except OSError:
                pass
