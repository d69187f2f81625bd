"""The storage-backend ladder.

Serves one run at the ``ladder`` scale (100k entities — past the
``auto`` RAM threshold) twice, once per storage tier, each in a
**fresh server process** so peak RSS is attributable to the backend
alone.  The store blobs are compiled once up front, so both rungs
measure pure open-and-serve cost against a warm artifact cache.

Each rung drives the same seeded closed-loop request mix and records
throughput, latency percentiles, and the server's resident high-water
mark (``VmHWM``).  The report passes when the mmap tier holds

- peak RSS at or below ``rss_ratio_max`` (50%) of the RAM tier's, and
- p99 latency within ``p99_ratio_max`` (5x) of the RAM tier's.

The report goes to ``benchmarks/output/store_ladder.json`` unless
``--out`` names another path; ``repro bench --history`` reads only the
committed ``BENCH_PR*.json`` records at the repo root.

Usage::

    python benchmarks/store_ladder.py          # make bench-store
    python benchmarks/store_ladder.py --scale tiny --requests 200
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.io import atomic_write_text  # noqa: E402
from repro.perf import ArtifactCache, configure_cache  # noqa: E402
from repro.perf.rss import rss_high_water_mb  # noqa: E402
from repro.pipeline.config import ExperimentConfig  # noqa: E402
from repro.pipeline.runall import write_manifest  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    LoadPlan,
    build_streams,
    run_load,
    stream_digest,
)
from repro.store import Manifest, build_store  # noqa: E402

TIERS = ("ram", "mmap")
RSS_RATIO_MAX = 0.5
P99_RATIO_MAX = 5.0

# Runs in a fresh interpreter per tier: opens the run with one backend,
# prints the bound port as JSON, then serves until killed.
_SERVER_STUB = """
import json, sys
from pathlib import Path
from repro.perf import ArtifactCache, configure_cache
from repro.serve import (
    FastHTTPServer, ServeApp, ServeSettings, build_index, load_manifest,
)
run, cache, backend = sys.argv[1:4]
configure_cache(ArtifactCache(directory=Path(cache)))
app = ServeApp(
    build_index(load_manifest(Path(run)), backend=backend),
    ServeSettings(port=0, response_cache_entries=0),
)
server = FastHTTPServer(app)
print(json.dumps({"port": server.server_address[1]}), flush=True)
server.serve_forever()
"""


def write_run(root: Path, config: ExperimentConfig) -> Manifest:
    """A run directory trimmed to one pair and one traffic site."""
    path = write_manifest(root, config, [])
    payload = json.loads(path.read_text())
    payload["spread_pairs"] = [["restaurants", "phone"]]
    payload["traffic_sites"] = ["imdb"]
    path.write_text(json.dumps(payload))
    return Manifest(
        config=config,
        spread_pairs=(("restaurants", "phone"),),
        traffic_sites=("imdb",),
        artifacts=(),
    )


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile over a sorted copy, in milliseconds."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return round(ordered[rank] * 1000.0, 3)


def latency_summary(samples: list[float]) -> dict[str, float]:
    """p50/p95/p99/mean/max in milliseconds."""
    return {
        "p50_ms": percentile(samples, 0.50),
        "p95_ms": percentile(samples, 0.95),
        "p99_ms": percentile(samples, 0.99),
        "mean_ms": round(sum(samples) / len(samples) * 1000.0, 3),
        "max_ms": round(max(samples) * 1000.0, 3),
    }


def spawn_server(run: Path, cache: Path, backend: str) -> tuple[subprocess.Popen, int]:
    """Start a fresh one-tier server process; return (process, port)."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    process = subprocess.Popen(
        [sys.executable, "-u", "-c", _SERVER_STUB, str(run), str(cache), backend],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    if not line:
        process.wait(timeout=10)
        raise RuntimeError(f"{backend} server died before binding a port")
    return process, int(json.loads(line)["port"])


def fetch(port: int, path: str) -> dict:
    """One GET against the freshly bound server, parsed as JSON."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def fetch_summary(port: int) -> dict:
    """GET /healthz from the freshly bound server."""
    return fetch(port, "/healthz")


def run_rung(run: Path, cache: Path, backend: str, plan: LoadPlan) -> dict:
    """One ladder rung: fresh server, seeded load, RSS by pid."""
    print(f"[{backend}] starting server...", flush=True)
    started = time.perf_counter()
    process, port = spawn_server(run, cache, backend)
    ready_seconds = time.perf_counter() - started
    try:
        # Set cover scans the whole incidence per call — an analytical
        # batch job, not a point read.  It stays out of the latency
        # race (it would page the entire mmap in and mask the RSS
        # story) but every rung must still answer it correctly once.
        streams = [
            [path for path in stream if not path.startswith("/v1/setcover")]
            for stream in build_streams(fetch_summary(port), plan)
        ]
        print(
            f"[{backend}] port {port}, ready in {ready_seconds:.1f}s, "
            f"stream sha256 {stream_digest(streams)[:12]}",
            flush=True,
        )
        result = run_load("127.0.0.1", port, streams)
        # VmHWM must be read while the server process is still alive,
        # and before the setcover probe (which deliberately pages the
        # whole incidence in and would mask the read-path RSS story).
        rss_mb = rss_high_water_mb(process.pid)
        setcover_body = fetch(port, "/v1/setcover/restaurants?budget=5")
    finally:
        process.terminate()
        process.wait(timeout=10)
    samples = result.all_latencies()
    rung = {
        "backend": backend,
        "ready_seconds": round(ready_seconds, 2),
        "rss_mb": rss_mb,
        "requests": result.total_requests,
        "throughput_rps": round(result.throughput_rps, 1),
        "statuses": result.statuses,
        "setcover_coverage": setcover_body.get("coverage"),
        "latency_ms": latency_summary(samples),
        "per_endpoint": {
            endpoint: latency_summary(latencies)
            for endpoint, latencies in sorted(result.latencies.items())
        },
    }
    print(
        f"[{backend}] rss {rss_mb} MB, p99 {rung['latency_ms']['p99_ms']} ms, "
        f"{rung['throughput_rps']} req/s",
        flush=True,
    )
    return rung


def evaluate(rungs: list[dict]) -> dict:
    """The pass/fail criteria over the finished ladder."""
    by_backend = {rung["backend"]: rung for rung in rungs}
    ram, mmap = by_backend["ram"], by_backend["mmap"]
    rss_ratios = {"mmap": round(mmap["rss_mb"] / ram["rss_mb"], 3)}
    p99_ratios = {
        "mmap": round(mmap["latency_ms"]["p99_ms"] / ram["latency_ms"]["p99_ms"], 3)
    }
    ok = rss_ratios["mmap"] <= RSS_RATIO_MAX and p99_ratios["mmap"] <= P99_RATIO_MAX
    for rung in rungs:
        ok = ok and set(rung["statuses"]) == {"200"}
    setcover_agrees = len({rung["setcover_coverage"] for rung in rungs}) == 1
    ok = ok and setcover_agrees
    return {
        "rss_ratio_max": RSS_RATIO_MAX,
        "p99_ratio_max": P99_RATIO_MAX,
        "rss_ratios": rss_ratios,
        "p99_ratios": p99_ratios,
        "setcover_agrees": setcover_agrees,
        "pass": ok,
    }


def main(argv: list[str] | None = None) -> int:
    """Run the ladder and write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ladder")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=1500)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent / "output" / "store_ladder.json",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="reuse a persistent artifact cache (skips recompiles)",
    )
    args = parser.parse_args(argv)

    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    plan = LoadPlan(seed=args.seed + 7, clients=args.clients, requests=args.requests)
    with tempfile.TemporaryDirectory(prefix="store-ladder-") as tmp:
        run = Path(tmp) / "run"
        run.mkdir()
        cache = args.cache_dir if args.cache_dir else Path(tmp) / "cache"
        manifest = write_run(run, config)
        print(f"compiling store blobs at scale {args.scale}...", flush=True)
        previous = configure_cache(ArtifactCache(directory=cache))
        try:
            started = time.perf_counter()
            store = build_store(manifest)
            compile_seconds = time.perf_counter() - started
        finally:
            configure_cache(previous)
        print(
            f"store [{store.identity[:12]}] compiled in {compile_seconds:.1f}s",
            flush=True,
        )
        rungs = [run_rung(run, cache, backend, plan) for backend in TIERS]

    criteria = evaluate(rungs)
    payload = {
        "benchmark": "repro.store backend ladder",
        "scale": args.scale,
        "seed": args.seed,
        "n_entities": config.scale_preset.n_entities,
        "plan": {"clients": args.clients, "requests": args.requests},
        "store_compile_seconds": round(compile_seconds, 2),
        "rungs": rungs,
        "criteria": criteria,
    }
    atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    verdict = "PASS" if criteria["pass"] else "FAIL"
    print(f"{verdict}: report written to {args.out}")
    return 0 if criteria["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
