"""Online serving: a sharded, read-optimized query service (``repro serve``).

The batch pipeline (``repro all``) computes the paper's artifacts once;
this subsystem turns them into the indices a production system would
*serve* — the Google-Dataset-Search shape of the workload.  The
cooperating pieces:

- :mod:`repro.serve.indices` — immutable indices opened from a run's
  :data:`~repro.pipeline.config.MANIFEST_NAME` manifest over the
  compiled store in :mod:`repro.store`: CSR entity↔site adjacency per
  (domain, attribute), per-site k-coverage tables, demand-vs-reviews
  lookup tables, and catalog id arrays.  ``build_index(..., backend=)``
  picks the residency (``ram`` loads the blobs, ``mmap`` maps them) —
  byte-identical responses (see ``docs/storage.md``).
- :mod:`repro.serve.server` — the transport-free JSON request core
  (``/v1/entity``, ``/v1/site`` with pagination cursors,
  ``/v1/coverage``, ``/v1/demand``, ``/v1/setcover``, ``/healthz``,
  ``/metrics``), answered on each connection's own thread, with
  fault-injectable handlers (``--inject-faults``) and epoch-swappable
  indices (hot reload).
- :mod:`repro.serve.fasthttp` — the one HTTP shell: pipelining
  keep-alive HTTP/1.1 (batched writes, buffer-scan parsing).
- :mod:`repro.serve.sharding` — the host every ``repro serve`` runs
  under: one worker in-process, or N forked workers, each inheriting
  the index built once in the parent, fed round-robin by the
  supervisor's fd-passing connection router on one port.
- :mod:`repro.serve.reload` — manifest watching and atomic hot index
  swaps (mtime gate, config-fingerprint gate, epoch replacement).
- :mod:`repro.serve.rcache` — an LRU response cache keyed on
  :func:`repro.perf.fingerprint` digests; responses are byte-identical
  with and without it.
- :mod:`repro.serve.batcher` — a micro-batcher that coalesces
  concurrent identical queries (one computation, on the first
  requester's thread, serves every simultaneous requester).
- :mod:`repro.serve.loadgen` — the seeded load generator
  (``repro serve-bench``): closed and open (Poisson, rate-sweep) loops
  over one raw-socket HTTP client, writing latency / throughput / knee
  reports.  It is a client, not part of the server: this package does
  not import it, so a ``repro serve`` process never loads it.

Layering: ``serve`` sits *above* ``pipeline`` and ``store`` in the
DESIGN.md §3 DAG, because it is an online consumer of the batch
pipeline's artifact builders and the compiled storage tiers.  Nothing
imports ``serve`` except the CLI — it is the DAG's sink.  Serving never
mutates indices; every structure is built once per epoch and read
concurrently without locks.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.fasthttp import FastHTTPServer
from repro.serve.indices import build_index
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.rcache import ResponseCache
from repro.serve.reload import ManifestWatcher
from repro.serve.server import (
    WORKER_HEADER,
    RunRouter,
    ServeApp,
    ServeSettings,
)
from repro.serve.sharding import ShardPlan, ShardedServer
from repro.store.manifest import load_manifest

__all__ = [
    "FastHTTPServer",
    "LatencyHistogram",
    "ManifestWatcher",
    "MicroBatcher",
    "ResponseCache",
    "RunRouter",
    "ServeApp",
    "ServeMetrics",
    "ServeSettings",
    "ShardPlan",
    "ShardedServer",
    "WORKER_HEADER",
    "build_index",
    "load_manifest",
]
