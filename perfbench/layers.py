"""Per-layer metrics (``--trace 1``): the layers run in-process, timed
around the calls into each layer's public functions.

The wrappers live here, not in ``src/``: :class:`Tracer` rebinds a
function in every `repro` module that imported it (or a method on its
class), records one span per call (name, start, end, parent) in memory,
and puts everything back afterwards.  Spans are written to
``.work/<workload>/spans.jsonl`` when the run ends.

Batch layers come from one in-process ``run_everything_with_report`` at
``workers=1`` (so every call happens where the wrappers can see it), a
cold ``build_store`` and a warm rerun.  Serve layers come from replaying
the workload's seeded stream through ``ServeApp.handle`` over the same
tier, plus one single-client HTTP pass and a short open loop against a
spawned `repro serve`.  End-to-end numbers never come from this mode.
"""

from __future__ import annotations

import functools
import gc
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

import batch
import loadgen
import serve
from common import (
    RATES,
    Workload,
    child_env,
    fresh_work_dir,
    percentile,
    plan_load,
    use_checkout_source,
)

TASKS = ("table1", "figure1", "figure2", "figure3", "figure4", "figure5",
         "figure6", "figure7", "figure8", "table2", "figure9")
ENDPOINTS = ("entity", "site", "coverage", "demand", "setcover")
BACKEND_METHODS = ("resolve_entity", "entity_site_hosts", "site_of_host", "site_page",
                   "entity_labels", "coverage_at", "set_cover")
#: Compile-time kernels attributed to ``store.compile.kernels_s``.
COMPILE_KERNELS = ("pipeline.incidence", "pipeline.traffic", "core.transpose",
                   "core.coverage", "core.demand")

#: Requests in the single-client HTTP pass (``serve.shell_us``).
SHELL_REQUESTS = 5000
#: Seconds of open loop at the ``lo`` rate (``loadgen.lateness_ms.p99``).
LATENESS_S = 3.0
#: Requests per alternating traced/untraced replay chunk.
REPLAY_CHUNK = 500


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric this mode reports, with its unit."""
    units = {}
    for task in TASKS:
        units[f"task_s.{task}.cold"] = "s"
        units[f"task_s.{task}.warm"] = "s"
    units.update({
        "prewarm_s.cold": "s", "executor.wall_s.cold": "s", "executor.idle_share.cold": "ratio",
        "cache.hits": "count", "cache.misses": "count", "cache.puts": "count",
        "cache.bytes_written": "bytes", "cache.hit_rate.warm": "ratio",
        "cache.read_s": "s", "cache.write_s": "s",
        "webgen.generate_s": "s", "traffic.build_s": "s", "core.coverage_s": "s",
        "core.setcover_s": "s", "core.graph_s": "s", "report.render_s": "s",
        "store.compile_s": "s", "store.compile.kernels_s": "s",
        "store.compile.publish_s": "s", "store.bytes_written": "bytes",
        "serve.index_build_s": "s", "serve.boot_s": "s",
    })
    for endpoint in ENDPOINTS:
        units[f"serve.handle_us.{endpoint}"] = "us"
    units.update({
        "serve.rcache_hit_share": "ratio", "serve.rcache_base": "count",
        "serve.batcher_coalesced": "count", "serve.fingerprint_us": "us",
        "serve.pool_wait_us": "us", "serve.app_self_us": "us", "serve.shell_us": "us",
        "serve.gc_pause_ms": "ms", "serve.gc_collections.gen2": "count",
    })
    for method in (*BACKEND_METHODS, "lookup"):
        units[f"store.backend_us.{method}"] = "us"
        units[f"store.backend_calls.{method}"] = "count"
    units.update({
        "store.page_faults_per_req": "count", "loadgen.lateness_ms.p99": "ms",
        "trace.overhead_share": "ratio",
    })
    return units


class Tracer:
    """In-memory spans around wrapped calls; undoable monkeypatching.

    A span is ``[name, start, end, parent, value]``.  The parent is the
    innermost open span on the calling thread or, on a thread with none
    open (the serve query pool), the request span in flight: the replay
    is sequential, so at most one request is open at a time.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, value: object = None) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else self.request, value])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, value=None):
        """``fn`` recording a span per call; ``value(args, result)`` is kept."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if value is not None:
                self.spans[index][4] = value(args, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` everywhere a `repro` module bound it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def patch_method(self, cls, attr: str, name: str, value=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, value))
        else:
            wrapped = self.wrap(name, raw, value)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation ----------------------------------------------------------

    def _ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def select(self, names, since: int = 0, until: int | None = None, within: str | None = None) -> list[list]:
        """Outermost spans named in ``names`` (optionally under ``within``)."""
        names = {names} if isinstance(names, str) else set(names)
        chosen = []
        for index in range(since, len(self.spans) if until is None else until):
            if self.spans[index][0] not in names:
                continue
            ancestors = set(self._ancestors(index))
            if ancestors & names or (within is not None and within not in ancestors):
                continue
            chosen.append(self.spans[index])
        return chosen

    def total_s(self, names, since: int = 0, until: int | None = None, within: str | None = None) -> float:
        return sum(s[2] - s[1] for s in self.select(names, since, until, within))

    def dump(self, path: Path) -> None:
        with path.open("w") as sink:
            for name, start, end, parent, value in self.spans:
                sink.write(json.dumps({"name": name, "start": start, "end": end,
                                       "parent": parent, "value": value}) + "\n")


# -- batch ------------------------------------------------------------------------


def _patch_batch(tracer: Tracer) -> None:
    from repro.core import coverage, graph, incidence, setcover, valueadd
    from repro.perf.cache import ArtifactCache
    from repro.pipeline import experiments, runall
    from repro.report import figures, tables
    from repro.store import compile as store_compile
    from repro.traffic import logs
    from repro.webgen.profiles import SpreadProfile

    tracer.patch_function(runall, "execute_tasks", "executor")
    for attr in ("get_incidence", "get_arrays", "get_records", "get_file"):
        tracer.patch_method(ArtifactCache, attr, "cache.read")
    for attr in ("put_incidence", "put_arrays", "put_records", "put_file"):
        tracer.patch_method(ArtifactCache, attr, "cache.write")
    tracer.patch_method(ArtifactCache, "_publish", "cache.publish",
                        value=lambda args, __: args[1].stat().st_size)
    tracer.patch_method(SpreadProfile, "generate", "webgen.generate")
    for attr in ("__init__", "search_log", "browse_log"):
        tracer.patch_method(logs.TrafficLogGenerator, attr, "traffic.build")
    tracer.patch_function(logs, "unique_cookie_demand", "traffic.build")
    tracer.patch_function(coverage, "k_coverage_curves", "core.coverage")
    tracer.patch_function(setcover, "greedy_set_cover", "core.setcover")
    tracer.patch_method(graph.GraphMetrics, "measure", "core.graph")
    tracer.patch_function(graph, "robustness_curve", "core.graph")
    tracer.patch_function(incidence, "transpose_csr", "core.transpose")
    tracer.patch_function(valueadd, "demand_vs_reviews", "core.demand")
    for module, attr in ((figures, "ascii_plot"), (figures, "write_csv"), (tables, "ascii_table")):
        tracer.patch_function(module, attr, "report.render")
    tracer.patch_function(experiments, "spread_incidence", "pipeline.incidence")
    tracer.patch_function(experiments, "build_traffic_dataset", "pipeline.traffic")
    tracer.patch_function(store_compile, "build_store", "store.compile")


def trace_batch(tracer: Tracer, work: Path) -> tuple[dict, list[str], int]:
    """Cold run, store compile, warm run, all in-process.

    Returns the layer metrics, the failed checks and the number of
    artifact digests checked.
    """
    import repro.store
    from repro.perf import ArtifactCache, configure_cache
    from repro.pipeline.config import ExecutionSettings, ExperimentConfig
    from repro.pipeline.runall import run_everything_with_report

    cache = work / "cache"
    # The CLI's `repro all --scale small` config, spelled out.
    config = ExperimentConfig(scale="small", seed=0, traffic_entities=20000,
                              traffic_events=200000, traffic_cookies=50000)
    settings = ExecutionSettings(workers=1, use_cache=True, cache_dir=str(cache),
                                 keep_journal=True, journal_dir=str(work / "journal"),
                                 failure_mode="continue")
    _patch_batch(tracer)
    try:
        mark_cold = len(tracer.spans)
        __, cold = run_everything_with_report(work / "cold", config, verbose=False, settings=settings)
        mark_compile = len(tracer.spans)
        previous = configure_cache(ArtifactCache(cache))
        try:
            # Looked up at call time: the tracer has rebound it by now.
            repro.store.build_store(repro.store.load_manifest(work / "cold"))
        finally:
            configure_cache(previous)
        mark_warm = len(tracer.spans)
        __, warm = run_everything_with_report(work / "warm", config, verbose=False, settings=settings)
    finally:
        tracer.restore()

    metrics: dict[str, float] = {}
    for report, phase in ((cold, "cold"), (warm, "warm")):
        seconds = {t.name: t.seconds for t in report.timings}
        for task in TASKS:
            metrics[f"task_s.{task}.{phase}"] = seconds[task]
    cold_timings = {t.name: t.seconds for t in cold.timings}
    executor_s = tracer.total_s("executor", mark_cold, mark_compile)
    metrics["prewarm_s.cold"] = sum(s for n, s in cold_timings.items() if n.startswith("warm:"))
    metrics["executor.wall_s.cold"] = executor_s
    metrics["executor.idle_share.cold"] = 1.0 - sum(cold_timings.values()) / (cold.workers * executor_s)
    metrics["cache.hits"] = cold.cache.hits
    metrics["cache.misses"] = cold.cache.misses
    metrics["cache.puts"] = cold.cache.puts
    metrics["cache.bytes_written"] = sum(s[4] for s in tracer.select("cache.publish", mark_cold, mark_compile))
    metrics["cache.hit_rate.warm"] = warm.cache.hit_rate
    metrics["cache.read_s"] = tracer.total_s("cache.read", mark_warm)
    metrics["cache.write_s"] = tracer.total_s("cache.write", mark_cold, mark_compile)
    for name in ("webgen.generate", "traffic.build", "core.coverage", "core.setcover",
                 "core.graph", "report.render"):
        metrics[f"{name}_s"] = tracer.total_s(name, mark_cold, mark_compile)
    metrics["store.compile_s"] = tracer.total_s("store.compile", mark_compile, mark_warm)
    metrics["store.compile.kernels_s"] = tracer.total_s(COMPILE_KERNELS, mark_compile, mark_warm, within="store.compile")
    metrics["store.compile.publish_s"] = tracer.total_s("cache.write", mark_compile, mark_warm, within="store.compile")
    metrics["store.bytes_written"] = sum(
        s[4] for s in tracer.select("cache.publish", mark_compile, mark_warm, within="store.compile"))

    runs = batch.BatchRuns(child_env(work), work, batch.reference_digests(batch.FIXTURE_SCALE))
    runs.check(work / "cold")
    runs.check(work / "warm")
    failures = [f"artifact {n}" for n in runs.mismatches]
    if not (cold.ok and warm.ok):
        failures.append("in-process run reported failed tasks")
    return metrics, failures, runs.checked


# -- serve ------------------------------------------------------------------------


def replay(app, paths: list[str], tracer: Tracer | None = None) -> tuple[list[float], int]:
    """Send ``paths`` through ``app.handle`` in order; per-call seconds."""
    durations = []
    failed = 0
    for path in paths:
        if tracer is not None:
            tracer.request = tracer.begin("serve.handle", path.split("/")[2])
        started = time.perf_counter()
        status, __ = app.handle(path)
        durations.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.end(tracer.request)
            tracer.request = -1
        failed += status != 200
    return durations, failed


def rcache_hit_share(query_requests: int, batcher_submits: int) -> float:
    """Share of query requests answered without reaching the batcher.

    Every query request that misses the response cache (or its memo
    fast path) calls ``MicroBatcher.submit`` exactly once, so this is the
    true hit share.  ``ResponseCache.stats()["hit_rate"]`` is not: a
    memoised target whose entry was evicted misses twice, once in the
    ``handle`` fast path and again in ``_query``.
    """
    return 1.0 - batcher_submits / query_requests


def _patch_serve(tracer: Tracer, pair_class) -> None:
    from repro.serve import server
    from repro.serve.batcher import MicroBatcher
    from repro.store.demand import DemandTable

    tracer.patch_function(server, "fingerprint", "serve.fingerprint")
    tracer.patch_method(MicroBatcher, "submit", "serve.submit")
    tracer.patch_method(server.ServeApp, "_compute", "serve.compute")
    for method in BACKEND_METHODS:
        tracer.patch_method(pair_class, method, f"store.backend.{method}")
    tracer.patch_method(DemandTable, "lookup", "store.backend.lookup")


def _request_breakdown(tracer: Tracer, since: int) -> dict[str, float]:
    """Mean fingerprint, pool-wait and app self time per request (µs)."""
    children: dict[int, list[list]] = {}
    requests = []
    for index in range(since, len(tracer.spans)):
        span = tracer.spans[index]
        if span[0] == "serve.handle":
            requests.append(index)
            continue
        root = index
        while tracer.spans[root][3] >= 0 and tracer.spans[root][0] != "serve.handle":
            root = tracer.spans[root][3]
        if tracer.spans[root][0] == "serve.handle":
            children.setdefault(root, []).append(span)
    fingerprint, waits, self_times = [], [], []
    for index in requests:
        handle = tracer.spans[index]
        spans = children.get(index, [])
        fp = sum(s[2] - s[1] for s in spans if s[0] == "serve.fingerprint")
        submits = [s for s in spans if s[0] == "serve.submit"]
        computes = [s for s in spans if s[0] == "serve.compute"]
        wait = sum(c[1] - s[1] for s, c in zip(submits, computes))
        backend = sum(s[2] - s[1] for s in spans
                      if s[0].startswith("store.backend.") and tracer.spans[s[3]][0] == "serve.compute")
        fingerprint.extend(s[2] - s[1] for s in spans if s[0] == "serve.fingerprint")
        waits.extend(c[1] - s[1] for s, c in zip(submits, computes))
        self_times.append((handle[2] - handle[1]) - fp - wait - backend)
    mean_us = lambda xs: statistics.fmean(xs) * 1e6 if xs else 0.0  # noqa: E731
    return {
        "serve.fingerprint_us": mean_us(fingerprint),
        "serve.pool_wait_us": mean_us(waits),
        "serve.app_self_us": mean_us(self_times),
    }


def trace_serve(tracer: Tracer, workload: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, int, int]:
    """In-process replays plus an HTTP pass; serve and backend metrics."""
    from repro.perf import ArtifactCache, configure_cache
    from repro.serve import ServeApp, ServeSettings, build_index, load_manifest
    from repro.serve.indices import PairIndex
    from repro.store.mmapcsr import MmapPair

    run_dir, cache = work / "cold", work / "cache"
    configure_cache(ArtifactCache(cache))
    index = build_index(load_manifest(run_dir), backend=workload.backend)
    plan = plan_load(index.summary(), workload, seed, seconds)
    paths = plan["stream"]
    metrics: dict[str, float] = {"serve.index_build_s": index.build_seconds}

    def fresh_app():
        return ServeApp(index, ServeSettings(port=0))

    # A fresh app's first requests: page faults of the first touch of the
    # tier, and the in-process baseline the HTTP pass is compared with.
    app = fresh_app()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    durations, failed = replay(app, paths[:SHELL_REQUESTS])
    after = resource.getrusage(resource.RUSAGE_SELF)
    app.close()
    faults = (after.ru_minflt - usage.ru_minflt) + (after.ru_majflt - usage.ru_majflt)
    metrics["store.page_faults_per_req"] = faults / SHELL_REQUESTS
    in_process_us = statistics.fmean(durations) * 1e6

    # The whole stream through two fresh apps, one traced, in alternating
    # chunks, so the host's speed drift falls on both alike.
    pauses: list[float] = []
    gen2 = [0]
    began = [0.0]

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            began[0] = time.perf_counter()
        else:
            pauses.append(time.perf_counter() - began[0])
            gen2[0] += info["generation"] == 2

    pair_class = PairIndex if workload.backend == "ram" else MmapPair
    plain, traced = fresh_app(), fresh_app()
    elapsed = {False: 0.0, True: 0.0}
    mark = len(tracer.spans)
    try:
        for chunk_no, begin in enumerate(range(0, len(paths), REPLAY_CHUNK)):
            chunk = paths[begin : begin + REPLAY_CHUNK]
            for with_trace in (False, True) if chunk_no % 2 == 0 else (True, False):
                if with_trace:
                    _patch_serve(tracer, pair_class)
                else:
                    gc.callbacks.append(on_gc)
                started = time.perf_counter()
                try:
                    __, chunk_failed = replay(traced if with_trace else plain, chunk,
                                              tracer if with_trace else None)
                finally:
                    elapsed[with_trace] += time.perf_counter() - started
                    tracer.restore()
                    if on_gc in gc.callbacks:
                        gc.callbacks.remove(on_gc)
                failed += chunk_failed
    finally:
        plain.close()
        traced.close()
    metrics["trace.overhead_share"] = elapsed[True] / elapsed[False] - 1.0
    metrics["serve.gc_pause_ms"] = sum(pauses) * 1000.0
    metrics["serve.gc_collections.gen2"] = gen2[0]

    handles = tracer.select("serve.handle", mark)
    for endpoint in ENDPOINTS:
        times = [s[2] - s[1] for s in handles if s[4] == endpoint]
        metrics[f"serve.handle_us.{endpoint}"] = statistics.fmean(times) * 1e6 if times else 0.0
    submits = len(tracer.select("serve.submit", mark))
    metrics["serve.rcache_base"] = len(handles)
    metrics["serve.rcache_hit_share"] = rcache_hit_share(len(handles), submits)
    for method in (*BACKEND_METHODS, "lookup"):
        calls = tracer.select(f"store.backend.{method}", mark)
        metrics[f"store.backend_calls.{method}"] = len(calls)
        metrics[f"store.backend_us.{method}"] = (
            statistics.fmean(s[2] - s[1] for s in calls) * 1e6 if calls else 0.0)
    metrics.update(_request_breakdown(tracer, mark))

    with serve.Server(child_env(work), run_dir, cache, workload.backend, work / "serve.log") as server:
        status, body = loadgen.fetch(server.port, "/metrics")
        metrics["serve.boot_s"] = server.setup_s - json.loads(body)["index_build_seconds"]
        shell = loadgen.closed_loop(server.port, paths[:SHELL_REQUESTS], None, connections=1)
        metrics["serve.shell_us"] = statistics.fmean(shell.latencies_s) * 1e6 - in_process_us
        count = int(RATES["lo"] * LATENESS_S)
        lo_paths = [p for paths, __ in plan["lo"] for p in paths][:count]
        open_phase = loadgen.open_loop(
            server.port, lo_paths, loadgen.build_schedule(seed, RATES["lo"], len(lo_paths), "lateness"))
        metrics["loadgen.lateness_ms.p99"] = percentile(open_phase.lateness_s, 0.99) * 1000.0
        status, body = loadgen.fetch(server.port, "/metrics")
        metrics["serve.batcher_coalesced"] = json.loads(body)["batcher"]["coalesced"]
    attempted = SHELL_REQUESTS + 2 * len(paths) + shell.completed + open_phase.completed
    failed += shell.failed + open_phase.failed + (status != 200)
    return metrics, attempted, failed


def measure(name: str, workload: Workload, seed: int, seconds: float) -> dict:
    use_checkout_source()
    work = fresh_work_dir(name)
    tracer = Tracer()
    try:
        batch_metrics, batch_failures, checked = trace_batch(tracer, work)
        serve_metrics, attempted, failed = trace_serve(tracer, workload, seed, seconds, work)
    finally:
        tracer.dump(work / "spans.jsonl")
    metrics = {**batch_metrics, **serve_metrics}
    units = per_layer_units()
    for failure in batch_failures:
        print(f"# MISMATCH {failure}")
    for key, unit in units.items():
        print(f"{name:<11} {key:<34} {metrics[key]:>14.4f} {unit}")
    failed += len(batch_failures)
    return {
        "correct": failed == 0,
        "attempted": attempted + checked,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
