"""repro.perf.history: bench-report aggregation and doc maintenance."""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf.history import (
    BEGIN_MARKER,
    END_MARKER,
    collect_bench_rows,
    format_history,
    update_performance_doc,
)

PR2_SHAPE = {
    "benchmark": "workers-x-cache matrix",
    "speedup_vs_serial_nocache": {"parallel+cache": 3.4, "cache-only": 1.8},
    "byte_identical_across_modes": True,
}

PR4_SHAPE = {
    "benchmark": "serve latency/throughput",
    "throughput_rps": 2347.1,
    "latency_ms": {"p50_ms": 1.4, "p95_ms": 3.2, "p99_ms": 5.9},
}

PR7_SHAPE = {
    "benchmark": "repro serve open-loop load generator",
    "mode": "open",
    "throughput_rps": 60123.0,
    "latency_ms": {"p50_ms": 0.2, "p95_ms": 0.9, "p99_ms": 2.1},
    "sweep": {
        "p99_budget_ms": 50.0,
        "knee_rate_rps": 60000.0,
        "knee": {
            "offered_rate_rps": 60000.0,
            "throughput_rps": 60123.0,
            "p99_ms": 2.1,
            "ok": True,
        },
        "rates": [],
    },
}


def _write_reports(root) -> None:
    (root / "BENCH_PR2.json").write_text(json.dumps(PR2_SHAPE))
    (root / "BENCH_PR4.json").write_text(json.dumps(PR4_SHAPE))


def test_collect_orders_by_pr_and_extracts_headlines(tmp_path):
    _write_reports(tmp_path)
    rows = collect_bench_rows(tmp_path)
    assert [row["pr"] for row in rows] == [2, 4]
    assert rows[0]["headline"] == "best 3.4x (parallel+cache), byte-identical"
    assert rows[1]["headline"] == (
        "2347.1 req/s, p50 1.4ms / p95 3.2ms / p99 5.9ms"
    )


def test_collect_extracts_open_loop_knee_headline(tmp_path):
    (tmp_path / "BENCH_PR7.json").write_text(json.dumps(PR7_SHAPE))
    (row,) = collect_bench_rows(tmp_path)
    assert row["pr"] == 7
    assert row["headline"] == (
        "open-loop knee 60000.0 req/s offered (60123.0 achieved), "
        "p99 2.1ms (budget 50.0ms)"
    )


def test_open_loop_report_without_knee_falls_back_to_latency(tmp_path):
    sweepless = {
        key: value for key, value in PR7_SHAPE.items() if key != "sweep"
    }
    (tmp_path / "BENCH_PR7.json").write_text(json.dumps(sweepless))
    (row,) = collect_bench_rows(tmp_path)
    assert row["headline"] == (
        "60123.0 req/s, p50 0.2ms / p95 0.9ms / p99 2.1ms"
    )


def test_collect_tolerates_unreadable_and_unknown_reports(tmp_path):
    (tmp_path / "BENCH_PR3.json").write_text("{not json")
    (tmp_path / "BENCH_PR9.json").write_text(json.dumps({"benchmark": "odd"}))
    (tmp_path / "BENCH_PRx.json").write_text("{}")  # name mismatch: skipped
    rows = collect_bench_rows(tmp_path)
    assert [row["pr"] for row in rows] == [3, 9]
    assert rows[0]["benchmark"].startswith("unreadable")
    assert rows[0]["headline"] == "-"
    assert rows[1]["headline"] == "odd"


def test_collect_warns_by_name_on_unreadable_report(tmp_path, capsys):
    (tmp_path / "BENCH_PR3.json").write_text("{not json")
    (tmp_path / "BENCH_PR9.json").write_text(json.dumps({"benchmark": "ok"}))
    collect_bench_rows(tmp_path)
    err = capsys.readouterr().err
    assert err.count("warning:") == 1  # one line per broken report only
    assert "BENCH_PR3.json" in err
    assert "JSONDecodeError" in err


def test_collect_empty_directory(tmp_path):
    assert collect_bench_rows(tmp_path) == []
    assert format_history([]) == "(no BENCH_PR*.json reports found)"


def test_format_is_an_aligned_markdown_table(tmp_path):
    _write_reports(tmp_path)
    table = format_history(collect_bench_rows(tmp_path))
    lines = table.splitlines()
    assert lines[0].startswith("| PR")
    assert set(lines[1]) <= {"|", "-"}
    assert len({len(line) for line in lines}) == 1  # aligned columns
    assert len(lines) == 4  # header + separator + two PR rows


def test_update_doc_replaces_only_the_marked_section(tmp_path):
    _write_reports(tmp_path)
    doc = tmp_path / "performance.md"
    doc.write_text(
        "# Performance\n\nprose before\n\n"
        f"{BEGIN_MARKER}\nstale table\n{END_MARKER}\n\nprose after\n"
    )
    table = update_performance_doc(doc, collect_bench_rows(tmp_path))
    text = doc.read_text()
    assert "stale table" not in text
    assert table in text
    assert text.startswith("# Performance\n\nprose before")
    assert text.endswith("prose after\n")


def test_update_doc_appends_section_when_markers_absent(tmp_path):
    _write_reports(tmp_path)
    doc = tmp_path / "performance.md"
    doc.write_text("# Performance\n")
    update_performance_doc(doc, collect_bench_rows(tmp_path))
    text = doc.read_text()
    assert "## Benchmark trajectory" in text
    assert text.index(BEGIN_MARKER) < text.index(END_MARKER)
    # And creates the file outright when it does not exist yet.
    fresh = tmp_path / "new.md"
    update_performance_doc(fresh, collect_bench_rows(tmp_path))
    assert BEGIN_MARKER in fresh.read_text()


def test_update_doc_is_idempotent(tmp_path):
    _write_reports(tmp_path)
    doc = tmp_path / "performance.md"
    rows = collect_bench_rows(tmp_path)
    update_performance_doc(doc, rows)
    first = doc.read_text()
    update_performance_doc(doc, rows)
    assert doc.read_text() == first


PR9_SHAPE = {
    "benchmark": "repro.store backend ladder",
    "rungs": [
        {
            "backend": "ram",
            "rss_mb": 812.4,
            "latency_ms": {"p50_ms": 0.3, "p99_ms": 1.1},
        },
        {
            "backend": "mmap",
            "rss_mb": 301.2,
            "latency_ms": {"p50_ms": 0.4, "p99_ms": 1.6},
        },
        {
            "backend": "sqlite",
            "rss_mb": 120.9,
            "latency_ms": {"p50_ms": 0.8, "p99_ms": 3.4},
        },
    ],
    "criteria": {"rss_ratio_max": 0.5, "p99_ratio_max": 5.0, "pass": True},
}


def test_collect_extracts_flat_rss(tmp_path):
    payload = dict(PR4_SHAPE, rss_mb=512.5)
    (tmp_path / "BENCH_PR4.json").write_text(json.dumps(payload))
    rows = collect_bench_rows(tmp_path)
    assert rows[0]["rss_mb"] == 512.5
    table = format_history(rows)
    assert "rss_mb" in table.splitlines()[0]
    assert "512.5" in table


def test_collect_extracts_backend_ladder_rss_and_headline(tmp_path):
    (tmp_path / "BENCH_PR9.json").write_text(json.dumps(PR9_SHAPE))
    rows = collect_bench_rows(tmp_path)
    assert rows[0]["rss_mb"] == {"ram": 812.4, "mmap": 301.2, "sqlite": 120.9}
    assert rows[0]["headline"] == (
        "ram p99 1.1ms, mmap p99 1.6ms, sqlite p99 3.4ms PASS"
    )
    table = format_history(rows)
    assert "ram=812.4 mmap=301.2 sqlite=120.9" in table


def test_collect_summarises_paired_end_to_end_runs(tmp_path):
    payload = {
        "benchmark": "perfbench paired runs",
        "claimed_metric": "setup_s",
        "paired": {
            "serve-hot": {
                "setup_s": {
                    "parent_median": 1.4,
                    "change_median": 0.6,
                    "wins": 10,
                    "pairs": 10,
                }
            },
            "serve-cold": {"p50_ms.lo": {"parent_median": 0.5}},
        },
    }
    (tmp_path / "BENCH_PR14.json").write_text(json.dumps(payload))
    (row,) = collect_bench_rows(tmp_path)
    assert row["headline"] == (
        "serve-hot setup_s 1.4 -> 0.6 (better in 10/10 pairs)"
    )


def test_report_may_state_its_own_headline(tmp_path):
    payload = {**PR7_SHAPE, "headline": "router kept: knee 5000 vs 2000"}
    (tmp_path / "BENCH_PR5.json").write_text(json.dumps(payload))
    (row,) = collect_bench_rows(tmp_path)
    assert row["headline"] == "router kept: knee 5000 vs 2000"


def test_reports_without_rss_render_a_dash(tmp_path):
    _write_reports(tmp_path)
    rows = collect_bench_rows(tmp_path)
    assert all("rss_mb" not in row for row in rows)
    table = format_history(rows)
    for line in table.splitlines()[2:]:
        assert "| -" in line


def test_committed_history_table_matches_the_reports():
    """docs/performance.md shows what `repro bench --history` writes."""
    root = Path(__file__).resolve().parent.parent
    text = (root / "docs" / "performance.md").read_text(encoding="utf-8")
    committed = text.split(BEGIN_MARKER, 1)[1].split(END_MARKER, 1)[0]
    assert committed.strip("\n") == format_history(collect_bench_rows(root))
