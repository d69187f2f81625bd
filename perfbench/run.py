"""End-to-end benchmark of `repro all` and `repro serve`.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 22 --trace 0

Every workload serves a small-scale `repro all --compile-store` run (the
fixture, built once per checkout) with `repro serve`, driving it from
one thread over two keep-alive connections.  The measured load runs as
interleaved cycles of a closed loop (capacity) and an open loop at two
fixed offered rates (latency); after each cycle the benchmark times one
cold tiny-scale `repro all` into an empty cache and one warm small-scale
rerun against the fixture's cache, and after every other cycle one more
server start.  Outputs
are checked (artifact digests, and a sample of responses against an
in-process oracle) and the last line printed is one JSON object.
``--trace 1`` runs the layers in-process instead and reports per-layer
metrics (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import batch  # noqa: E402
import loadgen  # noqa: E402
import serve  # noqa: E402
from common import (  # noqa: E402
    CYCLES,
    RATES,
    SRC,
    WORK,
    WINDOW_S,
    WORKLOADS,
    Workload,
    child_env,
    fresh_work_dir,
    percentile,
    plan_load,
    use_checkout_source,
)

MIN_SECONDS = 10.0

#: Distinct stream paths per endpoint compared against the oracle.
ORACLE_PER_ENDPOINT = 30

END_TO_END_UNITS = {
    "run_cold_s": "s",
    "run_warm_s": "s",
    "setup_s": "s",
    "p50_ms.lo": "ms",
    "p50_ms.hi": "ms",
    "peak_rss_mb.batch": "MB",
    "peak_rss_mb.serve": "MB",
}


def oracle_sample(summary: dict, stream: list[str], seed: int) -> list[str]:
    """Distinct paths to byte-compare: stream paths plus every endpoint
    (from a head-heavy stream), one 400 case and one 404 case."""
    extra = loadgen.build_stream(summary, loadgen.HOT, seed, 2000, "oracle")
    per_endpoint: dict[str, list[str]] = {}
    for path in stream + extra:
        bucket = per_endpoint.setdefault(path.split("/")[2], [])
        if len(bucket) < ORACLE_PER_ENDPOINT and path not in bucket:
            bucket.append(path)
    domain = summary["pairs"][0]["domain"]
    errors = [f"/v1/coverage/{domain}?k=not-a-number", "/v1/no-such-endpoint"]
    return [p for bucket in per_endpoint.values() for p in bucket] + errors


def build_oracle(run_dir: Path, cache: Path):
    """`ServeApp` over the ram tier with the response cache off."""
    use_checkout_source()
    from repro.perf import ArtifactCache, configure_cache
    from repro.serve import ServeApp, ServeSettings, build_index, load_manifest

    configure_cache(ArtifactCache(cache))
    index = build_index(load_manifest(run_dir), backend="ram")
    return ServeApp(index, ServeSettings(port=0, response_cache_entries=0))


def check_against_oracle(port: int, paths: list[str], oracle) -> list[str]:
    """Paths whose live response differs from the oracle's, byte for byte."""
    statuses = {oracle.handle(p)[0] for p in paths[-2:]}
    bad = [] if statuses == {400, 404} else ["oracle error cases"]
    for path in paths:
        if loadgen.fetch(port, path) != oracle.handle(path):
            bad.append(path)
    return bad


def warm_page_cache(cache: Path) -> None:
    """Read every store blob once, so the OS page cache holds them.

    The mmap tier evicts its blobs from the page cache when it opens
    them; page-ins from a shared disk then made capacity bimodal between
    runs minutes apart.  Re-reading them after the server has opened its
    maps pins the measured state to "blobs in the OS page cache".
    """
    for path in sorted(cache.rglob("*.npy")):
        with path.open("rb") as handle:
            while handle.read(1 << 20):
                pass


def measure(name: str, seed: int, seconds: float) -> dict:
    """One timed run of a workload: serving interleaved with batch runs."""
    workload: Workload = WORKLOADS[name]
    work = fresh_work_dir(name)
    env = child_env(work)
    fixture, warm_runs = batch.ensure_fixture(env, work)
    cold_runs = batch.BatchRuns(env, work, batch.reference_digests(batch.COLD_SCALE), batch.COLD_SCALE)
    cold_s: list[float] = []
    warm_s: list[float] = []

    def spawn() -> serve.Server:
        return serve.Server(env, fixture.run_dir, fixture.cache, workload.backend, work / "serve.log")

    results: dict[str, list[loadgen.PhaseResult]] = {"capacity": [], "lo": [], "hi": []}
    with spawn() as server:
        setups = [server.setup_s]
        warm_page_cache(fixture.cache)
        plan = plan_load(server.summary, workload, seed, seconds)
        warmup = loadgen.closed_loop(server.port, plan["warmup"], None)
        offset = 0
        for cycle in range(CYCLES):
            # Each cycle goes on where the last stopped, wrapping round.
            start = offset % len(plan["capacity"])
            paths = plan["capacity"][start:] + plan["capacity"][:start]
            capacity = loadgen.closed_loop(server.port, paths, plan["capacity_s"])
            offset += capacity.completed
            results["capacity"].append(capacity)
            for rate in RATES:
                paths, schedule = plan[rate][cycle]
                results[rate].append(loadgen.open_loop(server.port, paths, schedule))
            cold_s.append(cold_runs.cold())
            warm_s.append(warm_runs.warm(fixture))
            if cycle % 2:
                with spawn() as extra:
                    setups.append(extra.setup_s)
                # The new server's mmap tier dropped the blobs from the page cache.
                warm_page_cache(fixture.cache)
        serve_rss = server.peak_rss_mb()
        sample = oracle_sample(server.summary, plan["warmup"] + plan["lo"][0][0], seed)
        oracle = build_oracle(fixture.run_dir, fixture.cache)
        try:
            mismatches = check_against_oracle(server.port, sample, oracle)
        finally:
            oracle.close()

    # Every metric but the server's RSS is the median of its samples; the
    # samples go to samples.json, for looking into a run's spread.
    windows = {k: [w for r in rs for w in r.windows(WINDOW_S)] for k, rs in results.items()}
    samples = {
        "run_cold_s": cold_s,
        "run_warm_s": warm_s,
        "setup_s": setups,
        "capacity_rps": [len(w) / WINDOW_S for w in windows["capacity"]],
        **{f"p50_ms.{rate}": [percentile(w, 0.50) * 1000.0 for w in windows[rate] if w] for rate in RATES},
        "peak_rss_mb.batch": cold_runs.rss_mb,
    }
    (work / "samples.json").write_text(json.dumps(samples))
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["peak_rss_mb.serve"] = serve_rss
    # p99 and capacity are printed, not reported.  p99 rests on a few
    # dozen set-cover misses (serve-hot) or stalls (serve-cold) per run,
    # and its spread between seeds was 0.35-0.75 of its median.  Capacity
    # (both CPUs saturated) follows the host's speed drift about twice as
    # strongly as the other timings: its spread over ten runs reached
    # 0.24-0.35.  Both are past the largest bound a metric may have.
    p99_ms = {}
    for rate in RATES:
        pooled = [x for r in results[rate] for x in r.latencies_s]
        p99_ms[rate] = round(percentile(pooled, 0.99) * 1000.0, 3)

    batch_runs = (cold_runs, warm_runs)
    phases = [warmup, *(r for rs in results.values() for r in rs)]
    attempted = sum(b.checked for b in batch_runs) + sum(r.completed + r.transport_errors for r in phases) + len(sample)
    failed = sum(len(b.mismatches) for b in batch_runs) + sum(r.failed for r in phases) + len(mismatches)
    lateness = [x for rate in RATES for r in results[rate] for x in r.lateness_s]
    print(f"# stream_sha256: {plan['sha256']}")
    print(f"# requests: { {k: sum(r.completed for r in rs) for k, rs in results.items()} }")
    if fixture.built_s is not None:
        print(f"# fixture_built_s ({batch.FIXTURE_SCALE} cold run): {fixture.built_s:.4f}")
    for key in ("run_cold_s", "run_warm_s", "setup_s", "peak_rss_mb.batch"):
        print(f"# samples {key}: {[round(x, 4) for x in samples[key]]}")
    print(f"# windows: { {k: len(w) for k, w in windows.items()} }")
    print(f"# generator_lateness_p99_ms: {percentile(lateness, 0.99) * 1000.0:.3f}")
    print(f"# p99_ms: {p99_ms}")
    print(f"# capacity_rps: {metrics['capacity_rps']:.1f}")
    print(f"# oracle_sample: {len(sample)}")
    for miss in cold_runs.mismatches + warm_runs.mismatches + mismatches:
        print(f"# MISMATCH {miss}")
    for key, unit in END_TO_END_UNITS.items():
        print(f"{name:<11} {key:<18} {metrics[key]:>12.4f} {unit}")
    print(f"{name:<11} {'failed_share':<18} {failed / attempted:>12.4f} ratio (of {attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < MIN_SECONDS:
        # Shorter, a cycle's phases hold no whole window to take a median over.
        parser.error(f"--seconds must be at least {MIN_SECONDS}")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    # The store compile's SQLite sorts spill to TMPDIR: keep them in the
    # checkout, here (the traced run compiles in-process) and in every
    # child, which inherits the environment.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if args.trace:
        import layers

        result = layers.measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
