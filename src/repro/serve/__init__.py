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
  ``/metrics``) with per-request deadlines from
  :class:`repro.resilience.RetryPolicy`, fault-injectable handlers
  (``--inject-faults``), and epoch-swappable indices (hot reload).
- :mod:`repro.serve.fasthttp` — the one HTTP shell: pipelining
  keep-alive HTTP/1.1 (batched writes, buffer-scan parsing).
- :mod:`repro.serve.sharding` — the host every ``repro serve`` runs
  under: one worker in-process, or N forked workers behind one port
  via ``SO_REUSEPORT`` (fallback: an fd-passing round-robin router),
  each inheriting the index built once in the parent.
- :mod:`repro.serve.reload` — manifest watching and atomic hot index
  swaps (mtime gate, config-fingerprint gate, epoch replacement).
- :mod:`repro.serve.rcache` — an LRU response cache keyed on
  :func:`repro.perf.fingerprint` digests; responses are byte-identical
  with and without it.
- :mod:`repro.serve.batcher` — a micro-batcher that coalesces
  concurrent identical queries (one greedy set-cover run serves every
  simultaneous requester).
- :mod:`repro.serve.loadgen` — seeded load generators
  (``repro serve-bench``): the PR4-compatible closed loop and the
  open-loop Poisson generator with rate sweeps, emitting latency /
  throughput / knee reports to ``BENCH_PR7.json``.

Layering: ``serve`` sits *above* ``pipeline`` and ``store`` in the
DESIGN.md §3 DAG, because it is an online consumer of the batch
pipeline's artifact builders and the compiled storage tiers.  Nothing
imports ``serve`` except the CLI — it is the DAG's sink.  Serving never
mutates indices; every structure is built once per epoch and read
concurrently without locks.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.fasthttp import FastHTTPServer
from repro.serve.indices import build_index, load_manifest, manifest_identity
from repro.serve.loadgen import (
    LoadPlan,
    LoadResult,
    OpenLoadPlan,
    OpenLoadResult,
    build_open_schedule,
    build_streams,
    find_knee,
    open_rate_summary,
    run_load,
    run_open_load,
    stream_digest,
    write_bench_report,
    write_open_bench_report,
)
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.rcache import ResponseCache
from repro.serve.reload import ManifestWatcher
from repro.serve.server import (
    WORKER_HEADER,
    RunRouter,
    ServeApp,
    ServeSettings,
)
from repro.serve.sharding import (
    ShardPlan,
    ShardedServer,
    resolve_strategy,
    reuseport_available,
)

__all__ = [
    "FastHTTPServer",
    "LatencyHistogram",
    "LoadPlan",
    "LoadResult",
    "ManifestWatcher",
    "MicroBatcher",
    "OpenLoadPlan",
    "OpenLoadResult",
    "ResponseCache",
    "RunRouter",
    "ServeApp",
    "ServeMetrics",
    "ServeSettings",
    "ShardPlan",
    "ShardedServer",
    "WORKER_HEADER",
    "build_index",
    "build_open_schedule",
    "build_streams",
    "find_knee",
    "load_manifest",
    "manifest_identity",
    "open_rate_summary",
    "resolve_strategy",
    "reuseport_available",
    "run_load",
    "run_open_load",
    "stream_digest",
    "write_bench_report",
    "write_open_bench_report",
]
