"""The PR's acceptance benchmark: the (workers × cache) run matrix.

Runs ``run_everything`` in four modes —

- ``serial-nocache``: the pre-perf baseline (1 worker, no cache);
- ``serial-cold`` / ``serial-warm``: 1 worker against an empty / warm
  artifact cache;
- ``parallel-cold`` / ``parallel-warm``: N workers (default 4) ditto —

checks every artifact is byte-identical across all of them, and writes
one JSON report (wall-clock per mode and per task, cache hit rates,
speedups, machine facts).  The report goes to
``benchmarks/output/perf_matrix.json`` unless ``--out`` names another
path, so a run never overwrites the committed ``BENCH_PR2.json``
record (``make bench-json`` runs the default).

Usage::

    python benchmarks/perf_matrix.py
    python benchmarks/perf_matrix.py --scale tiny --quick-traffic
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.io import atomic_write_text  # noqa: E402
from repro.pipeline.config import ExecutionSettings, ExperimentConfig  # noqa: E402
from repro.pipeline.runall import run_everything_with_report  # noqa: E402


def artifact_digests(directory: Path) -> dict[str, str]:
    """sha256 of every artifact file, keyed by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def run_mode(
    name: str,
    config: ExperimentConfig,
    settings: ExecutionSettings,
    out_dir: Path,
) -> tuple[dict, dict[str, str]]:
    """One matrix cell: run, digest, and summarize."""
    print(f"[{name}] workers={settings.workers} cache={settings.use_cache}")
    written, report = run_everything_with_report(
        out_dir, config, verbose=False, settings=settings
    )
    digests = artifact_digests(out_dir)
    summary = {
        "name": name,
        "workers_requested": settings.workers,
        "workers_used": report.workers,
        "cache_enabled": settings.use_cache,
        "seconds": round(report.total_seconds, 3),
        "artifacts": len(written),
        "cache": report.cache.as_dict(),
        "timings": [t.as_dict() for t in sorted(report.timings, key=lambda t: t.name)],
    }
    print(
        f"[{name}] {report.total_seconds:.2f}s, "
        f"hit rate {report.cache.hit_rate:.0%}"
    )
    return summary, digests


def main(argv: list[str] | None = None) -> int:
    """Run the matrix; returns non-zero if outputs diverge."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent / "output" / "perf_matrix.json",
    )
    parser.add_argument("--scale", default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--quick-traffic",
        action="store_true",
        help="shrink the traffic simulation (for smoke runs)",
    )
    args = parser.parse_args(argv)

    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        traffic_entities=20000,
        traffic_events=200000,
        traffic_cookies=50000,
    )
    if args.quick_traffic:
        config = config.scaled_down(10)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        tmp_path = Path(tmp)
        cache_serial = str(tmp_path / "cache-serial")
        cache_parallel = str(tmp_path / "cache-parallel")
        modes = [
            ("serial-nocache", ExecutionSettings()),
            (
                "serial-cold",
                ExecutionSettings(workers=1, use_cache=True, cache_dir=cache_serial),
            ),
            (
                "serial-warm",
                ExecutionSettings(workers=1, use_cache=True, cache_dir=cache_serial),
            ),
            (
                "parallel-cold",
                ExecutionSettings(
                    workers=args.workers, use_cache=True, cache_dir=cache_parallel
                ),
            ),
            (
                "parallel-warm",
                ExecutionSettings(
                    workers=args.workers, use_cache=True, cache_dir=cache_parallel
                ),
            ),
        ]
        summaries = []
        digests_by_mode = {}
        for name, settings in modes:
            summary, digests = run_mode(
                name, config, settings, tmp_path / f"out-{name}"
            )
            summaries.append(summary)
            digests_by_mode[name] = digests

    baseline = digests_by_mode["serial-nocache"]
    identical = all(digests == baseline for digests in digests_by_mode.values())
    seconds = {s["name"]: s["seconds"] for s in summaries}

    def speedup(mode: str) -> float:
        return round(seconds["serial-nocache"] / max(seconds[mode], 1e-9), 2)

    payload = {
        "benchmark": "run_everything workers × cache matrix",
        "config": {
            "scale": config.scale,
            "seed": config.seed,
            "traffic_entities": config.traffic_entities,
            "traffic_events": config.traffic_events,
            "traffic_cookies": config.traffic_cookies,
        },
        "machine": {"cpu_count": os.cpu_count()},
        "parallel_workers": args.workers,
        "modes": summaries,
        "speedup_vs_serial_nocache": {
            name: speedup(name) for name in seconds if name != "serial-nocache"
        },
        "byte_identical_across_modes": identical,
        "artifact_sha256": baseline,
    }
    atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")
    print(f"byte-identical across modes: {identical}")
    for name in seconds:
        if name != "serial-nocache":
            print(f"  {name:<14} {seconds[name]:>8.2f}s  ({speedup(name)}x)")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
