"""Tests for the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import pytest

from repro.cli import main


TINY = ["--scale", "tiny", "--traffic-entities", "2000",
        "--traffic-events", "20000", "--traffic-cookies", "4000"]


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Restore the global artifact cache around every CLI invocation.

    ``main()`` configures the process-wide cache exactly like the real
    CLI would — fine in a short-lived process, but an in-process test
    must not leak its cache (or lack of one) into later test files.
    """
    from repro.perf import active_cache, configure_cache

    previous = active_cache()
    yield
    configure_cache(previous)


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Books" in out and "Restaurants" in out


def test_spread(capsys):
    assert main(["spread", "banks", "phone", *TINY]) == 0
    out = capsys.readouterr().out
    assert "banks phones" in out
    assert "sites needed for 90% coverage" in out


def test_spread_csv(tmp_path, capsys):
    assert main(["spread", "banks", "phone", "--csv", str(tmp_path), *TINY]) == 0
    assert (tmp_path / "spread_banks_phone.csv").exists()


def test_figure3(capsys):
    assert main(["figure", "3", *TINY]) == 0
    assert "books isbns" in capsys.readouterr().out


def test_figure5(capsys):
    assert main(["figure", "5", *TINY]) == 0
    assert "max greedy improvement" in capsys.readouterr().out


def test_figure8(capsys):
    assert main(["figure", "8", *TINY]) == 0
    out = capsys.readouterr().out
    assert "VA(n)/VA(0)" in out
    assert "imdb" in out and "yelp" in out


def test_figure_out_of_range(capsys):
    for number in ("0", "12"):
        assert main(["figure", number, *TINY]) == 2
        assert "the paper has figures 1-9" in capsys.readouterr().err


# -- single-artifact commands print and write what `repro all` writes ---------

ARTIFACT_COMMANDS = [
    ["table1"], ["table2"], *(["figure", str(number)] for number in range(1, 10))
]


@pytest.fixture(scope="module")
def run_all_tiny(tmp_path_factory):
    """One uncached `repro all` at TINY: its output directory and the
    names of the `.txt` files it wrote, in the order it wrote them."""
    out = tmp_path_factory.mktemp("all")
    journal = tmp_path_factory.mktemp("journal")
    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        argv = ["all", str(out), *TINY, "--no-cache", "--journal-dir", str(journal)]
        assert main(argv) == 0
    reported = [
        line.removeprefix("  wrote ")
        for line in log.getvalue().splitlines()
        if line.startswith("  wrote ")
    ]
    return out, [name for name in reported if (out / f"{name}.txt").exists()]


@pytest.mark.parametrize("command", ARTIFACT_COMMANDS, ids=" ".join)
def test_artifact_command_prints_the_run_text(command, run_all_tiny, capsys):
    """stdout is the task's `.txt` files, joined by one empty line."""
    out, written = run_all_tiny
    task = "".join(command)
    names = [name for name in written if name == task or name.startswith(f"{task}_")]
    assert names
    assert main([*command, *TINY]) == 0
    expected = "\n".join((out / f"{name}.txt").read_text() for name in names)
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ARTIFACT_COMMANDS, ids=" ".join)
def test_artifact_command_csv_writes_the_run_csvs(command, run_all_tiny, tmp_path):
    """`--csv DIR` writes the task's CSV files, with the run's names and bytes."""
    out, __ = run_all_tiny
    assert main([*command, *TINY, "--csv", str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    expected = sorted(path.name for path in out.glob(f"{''.join(command)}*.csv"))
    assert written == expected
    for name in written:
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name


def test_discover(capsys):
    assert main(["discover", *TINY]) == 0
    out = capsys.readouterr().out
    assert "perfect expansion" in out
    assert "budgeted expansion" in out


def test_crawl(capsys):
    assert main(["crawl", "--pages", "400", *TINY]) == 0
    out = capsys.readouterr().out
    assert "greedy_oracle" in out
    assert "largest_first" in out


def test_evolve(capsys):
    assert main(["evolve", "--epochs", "3", "--budget", "10", *TINY]) == 0
    out = capsys.readouterr().out
    assert "staleness" in out.lower()
    assert "largest_first" in out


def test_resolve(capsys):
    assert main(["resolve", "--entities", "80", "--mentions", "2"]) == 0
    out = capsys.readouterr().out
    assert "precision" in out
    assert "F1" in out


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_scale_exits():
    with pytest.raises(SystemExit):
        main(["table1", "--scale", "galactic"])


def test_probe(capsys):
    assert main(["probe", "--entities", "120", "--queries", "400"]) == 0
    out = capsys.readouterr().out
    assert "harvested" in out
    assert "queries issued" in out


# ---------------------------------------------------------------------------
# journal-gc, bench --history, serve-bench
# ---------------------------------------------------------------------------


def test_journal_gc_cli(tmp_path, capsys):
    from repro.resilience import JOURNAL_FORMAT

    now = time.time()  # reprolint: disable=RNG004  (file aging only)
    for index in range(3):
        path = tmp_path / f"run-{index}.jsonl"
        path.write_text(
            json.dumps({"format": JOURNAL_FORMAT, "run_id": f"run-{index}"})
            + "\n"
        )
        stamp = now - 7200 - index * 60  # run-0 newest, all past the grace
        os.utime(path, (stamp, stamp))
    assert main(
        ["journal-gc", "--journal-dir", str(tmp_path), "--keep", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "removed 2, kept 1" in out
    assert "removed run-1" in out and "removed run-2" in out
    assert (tmp_path / "run-0.jsonl").is_file()


def test_journal_gc_cli_rejects_bad_knobs(tmp_path, capsys):
    assert main(
        ["journal-gc", "--journal-dir", str(tmp_path), "--keep", "-1"]
    ) == 2
    assert "keep" in capsys.readouterr().err


def test_bench_history_cli(tmp_path, capsys):
    (tmp_path / "BENCH_PR4.json").write_text(
        json.dumps(
            {
                "benchmark": "serve latency/throughput",
                "throughput_rps": 100.0,
                "latency_ms": {"p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 3.0},
            }
        )
    )
    doc = tmp_path / "performance.md"
    assert main(
        ["bench", "--history", "--root", str(tmp_path), "--doc", str(doc)]
    ) == 0
    out = capsys.readouterr().out
    assert "100.0 req/s" in out
    assert doc.is_file() and "100.0 req/s" in doc.read_text()


def test_bench_without_history_flag_exits(capsys):
    assert main(["bench"]) == 2
    assert "--history" in capsys.readouterr().err


@pytest.fixture(scope="module")
def serve_artifacts(tmp_path_factory):
    """A run directory holding a manifest trimmed to one pair, one site."""
    from repro.pipeline.config import ExperimentConfig
    from repro.pipeline.runall import write_manifest

    root = tmp_path_factory.mktemp("serve-artifacts")
    config = ExperimentConfig(scale="tiny", seed=0).scaled_down(400)
    path = write_manifest(root, config, ["table1.txt"])
    payload = json.loads(path.read_text())
    payload["spread_pairs"] = [["restaurants", "phone"]]
    payload["traffic_sites"] = ["imdb"]
    path.write_text(json.dumps(payload))
    return root


def test_serve_bench_dry_run_is_deterministic(serve_artifacts, capsys):
    argv = [
        "serve-bench", str(serve_artifacts),
        "--seed", "7", "--clients", "2", "--requests", "30",
        "--dry-run", "--no-cache",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "request stream sha256:" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    sha = [line for line in first.splitlines() if "sha256" in line]
    assert sha == [line for line in second.splitlines() if "sha256" in line]


def test_serve_bench_self_hosted_run(serve_artifacts, tmp_path, capsys):
    report = tmp_path / "BENCH_TEST.json"
    assert main(
        [
            "serve-bench", str(serve_artifacts),
            "--seed", "7", "--clients", "2", "--requests", "20",
            "--report", str(report), "--no-cache",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "20 requests" in out
    payload = json.loads(report.read_text())
    assert payload["statuses"] == {"200": 20}
    assert payload["throughput_rps"] > 0
    assert payload["server_metrics"]["requests_total"] >= 20


def test_serve_bench_missing_manifest(tmp_path, capsys):
    assert main(
        ["serve-bench", str(tmp_path / "nope"), "--dry-run", "--no-cache"]
    ) == 2
    assert "no manifest" in capsys.readouterr().err


def test_serve_bench_keep_alive_off_same_stream_sha(serve_artifacts, capsys):
    """--keep-alive off changes transport only, never the stream."""
    base = [
        "serve-bench", str(serve_artifacts),
        "--seed", "7", "--clients", "2", "--requests", "30",
        "--dry-run", "--no-cache",
    ]
    assert main(base) == 0
    pooled = capsys.readouterr().out
    assert main([*base, "--keep-alive", "off"]) == 0
    fresh = capsys.readouterr().out
    sha = [line for line in pooled.splitlines() if "sha256" in line]
    assert sha == [line for line in fresh.splitlines() if "sha256" in line]


def test_serve_bench_closed_loop_without_keep_alive(serve_artifacts, tmp_path, capsys):
    report = tmp_path / "BENCH_KA_OFF.json"
    assert main(
        [
            "serve-bench", str(serve_artifacts),
            "--seed", "7", "--clients", "2", "--requests", "20",
            "--keep-alive", "off", "--report", str(report), "--no-cache",
        ]
    ) == 0
    payload = json.loads(report.read_text())
    assert payload["statuses"] == {"200": 20}


def test_serve_bench_open_loop_sharded_run(serve_artifacts, tmp_path, capsys):
    report = tmp_path / "BENCH_OPEN.json"
    assert main(
        [
            "serve-bench", str(serve_artifacts),
            "--mode", "open", "--rate", "500", "--duration", "0.5",
            "--connections", "2", "--workers", "2",
            "--report", str(report), "--no-cache",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "offered 500.0 req/s" in out
    payload = json.loads(report.read_text())
    assert payload["mode"] == "open"
    assert payload["statuses"] == {"200": 250}
    assert sorted(payload["per_worker"]) == ["0", "1"]
    assert sum(payload["per_worker"].values()) == 250
    assert payload["transport_errors"] == 0


def test_serve_bench_open_loop_sweep_reports_knee(serve_artifacts, tmp_path, capsys):
    report = tmp_path / "BENCH_SWEEP.json"
    assert main(
        [
            "serve-bench", str(serve_artifacts),
            "--mode", "open", "--duration", "0.4", "--connections", "2",
            "--workers", "2",
            "--sweep", "200,400", "--p99-budget-ms", "5000",
            "--report", str(report), "--no-cache",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "knee: 400.0 req/s" in out
    payload = json.loads(report.read_text())
    assert payload["sweep"]["knee_rate_rps"] == 400.0
    assert [row["ok"] for row in payload["sweep"]["rates"]] == [True, True]
    # The headline numbers ARE the knee rung's samples (no re-run).
    assert payload["offered_rate_rps"] == 400.0
    assert payload["throughput_rps"] == (
        payload["sweep"]["knee"]["throughput_rps"]
    )
    assert payload["latency_ms"]["p99_ms"] == (
        payload["sweep"]["knee"]["p99_ms"]
    )


def test_serve_bench_open_loop_warmup_is_recorded(
    serve_artifacts, tmp_path, capsys
):
    """--warmup on replays the largest rung unmeasured, then measures."""
    report = tmp_path / "BENCH_WARM.json"
    assert main(
        [
            "serve-bench", str(serve_artifacts),
            "--mode", "open", "--rate", "400", "--duration", "0.5",
            "--connections", "2", "--workers", "2",
            "--warmup", "on",
            "--report", str(report), "--no-cache",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "warmup: replaying 200 requests at 400 req/s" in out
    payload = json.loads(report.read_text())
    assert payload["warmup"] == {
        "rate_rps": 400.0,
        "requests": 200,
        "transport_errors": 0,
    }
    # The measured run is unchanged by the warmup pass.
    assert payload["statuses"] == {"200": 200}
    assert sum(payload["per_worker"].values()) == 200


def test_serve_bench_rejects_bad_sweep(serve_artifacts, capsys):
    assert main(
        [
            "serve-bench", str(serve_artifacts),
            "--mode", "open", "--sweep", "fast,faster", "--no-cache",
        ]
    ) == 2
    assert "sweep" in capsys.readouterr().err


def test_serve_bench_mmap_backend_run(serve_artifacts, tmp_path, capsys):
    report = tmp_path / "BENCH_MMAP.json"
    assert main(
        [
            "serve-bench", str(serve_artifacts),
            "--seed", "7", "--clients", "2", "--requests", "20",
            "--backend", "mmap", "--cache-dir", str(tmp_path / "cache"),
            "--report", str(report),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "mmap backend" in out
    assert "server peak rss" in out
    payload = json.loads(report.read_text())
    assert payload["statuses"] == {"200": 20}
    assert payload["rss_mb"] > 0


def test_serve_bench_backend_rejects_no_cache(serve_artifacts, capsys):
    assert main(
        [
            "serve-bench", str(serve_artifacts),
            "--backend", "mmap", "--no-cache", "--dry-run",
        ]
    ) == 2
    assert "drop --no-cache" in capsys.readouterr().err


def test_serve_registry_expansion_and_run_ids(tmp_path):
    from pathlib import Path

    from repro.cli import _expand_run_paths, _run_id_of
    from repro.pipeline.config import MANIFEST_NAME, ExperimentConfig
    from repro.pipeline.runall import write_manifest

    registry = tmp_path / "registry"
    for name in ("alpha", "beta"):
        run = registry / name
        run.mkdir(parents=True)
        write_manifest(run, ExperimentConfig(scale="tiny", seed=0), [])
    (registry / "not-a-run").mkdir()

    expanded = _expand_run_paths([registry])
    assert [path.name for path in expanded] == ["alpha", "beta"]
    # A run directory with its own manifest passes through unchanged.
    assert _expand_run_paths([registry / "alpha"]) == [registry / "alpha"]
    assert _run_id_of(registry / "alpha") == "alpha"
    assert _run_id_of(registry / "alpha" / MANIFEST_NAME) == "alpha"


def test_serve_duplicate_run_ids_exit(tmp_path, capsys):
    from repro.pipeline.config import ExperimentConfig
    from repro.pipeline.runall import write_manifest

    a, b = tmp_path / "x" / "run", tmp_path / "y" / "run"
    for run in (a, b):
        run.mkdir(parents=True)
        write_manifest(run, ExperimentConfig(scale="tiny", seed=0), [])
    assert main(["serve", str(a), str(b), "--no-cache"]) == 2
    assert "duplicate run id" in capsys.readouterr().err


def test_all_compile_store_rejects_no_cache(tmp_path, capsys):
    assert main(
        ["all", str(tmp_path / "out"), "--compile-store", "--no-cache", *TINY]
    ) == 2
    assert "drop --no-cache" in capsys.readouterr().err


def test_all_compile_store_reports_one_timing_per_pair(tmp_path, capsys):
    """The perf report is written after the compile and times each pair's
    ``store:<domain>:<attribute>`` task."""
    report_path = tmp_path / "perf.json"
    assert main([
        "all", str(tmp_path / "out"), *TINY, "--workers", "2",
        "--cache-dir", str(tmp_path / "cache"),
        "--journal-dir", str(tmp_path / "journal"),
        "--compile-store", "--perf-report", str(report_path),
    ]) == 0
    out = capsys.readouterr().out
    assert out.index("store compiled") < out.index("perf report written")
    report = json.loads(report_path.read_text())
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    store_timings = [t for t in report["timings"] if t["name"].startswith("store:")]
    assert [t["name"] for t in store_timings] == sorted(
        f"store:{domain}:{attribute}" for domain, attribute in manifest["spread_pairs"]
    )
    assert all(t["seconds"] > 0 for t in store_timings)
    assert "table1" in {t["name"] for t in report["timings"]}
