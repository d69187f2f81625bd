"""Performance layer: artifact caching, parallel execution, timing.

Three cooperating pieces (see ``docs/performance.md``):

- :mod:`repro.perf.fingerprint` — deterministic content fingerprints
  over (generator parameters, scale, seed, artifact kind), and
  ``derive_seed``, the per-stream seed every generator draws from;
- :mod:`repro.perf.cache` — a content-addressed on-disk cache with
  hit/miss/put statistics and an LRU byte budget;
- :mod:`repro.perf.executor` — topologically staged, process-parallel
  execution of experiment runners;
- :mod:`repro.perf.report` — the structured perf report the staged
  runs emit;
- :mod:`repro.perf.history` — the cross-PR benchmark trajectory table
  (``repro bench --history``) aggregated from ``BENCH_PR*.json``;
- :mod:`repro.perf.rss` — peak resident-set accounting (``VmHWM``) for
  the serve/storage benchmark reports.

The layer is strictly optional: with no cache installed and one worker,
the pipeline behaves exactly as before, and outputs are byte-identical
across (serial, parallel) × (cold, warm) for a fixed seed.
"""

from repro.perf.cache import (
    ArtifactCache,
    CacheStats,
    active_cache,
    configure_cache,
    resolve_cache_dir,
)
from repro.perf.executor import (
    ExecutionResult,
    ExperimentTask,
    TaskExecutionError,
    TaskFailure,
    TaskOutcome,
    execute_tasks,
    stage_tasks,
)
from repro.perf.fingerprint import canonical_payload, derive_seed, fingerprint
from repro.perf.history import (
    collect_bench_rows,
    format_history,
    update_performance_doc,
)
from repro.perf.report import PerfReport, TaskTiming
from repro.perf.rss import peak_rss_mb, rss_high_water_mb

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "ExecutionResult",
    "ExperimentTask",
    "PerfReport",
    "TaskExecutionError",
    "TaskFailure",
    "TaskOutcome",
    "TaskTiming",
    "active_cache",
    "canonical_payload",
    "collect_bench_rows",
    "configure_cache",
    "derive_seed",
    "execute_tasks",
    "fingerprint",
    "format_history",
    "peak_rss_mb",
    "resolve_cache_dir",
    "rss_high_water_mb",
    "stage_tasks",
    "update_performance_doc",
]
