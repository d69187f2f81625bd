"""Benchmark trajectory across PRs (``repro bench --history``).

Each performance-focused PR leaves a ``BENCH_PR<n>.json`` report at the
repo root (PR 2: the workers × cache matrix; PR 4: serve latency /
throughput).  This module aggregates them into one trajectory table —
printed to stdout and maintained inside the marked data section of
``docs/performance.md`` — so the ROADMAP's "fast as the hardware
allows" claim stays measurable across the repo's history.

Extraction is deliberately tolerant: each report shape contributes the
headline numbers it actually has (speedups, throughput, latency), and
unknown shapes degrade to their benchmark name rather than failing the
whole table — old reports must never break new tooling.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.io import atomic_write_text

__all__ = [
    "BEGIN_MARKER",
    "END_MARKER",
    "collect_bench_rows",
    "format_history",
    "update_performance_doc",
]

BEGIN_MARKER = "<!-- BENCH_HISTORY_BEGIN -->"
END_MARKER = "<!-- BENCH_HISTORY_END -->"

_NAME_PATTERN = re.compile(r"^BENCH_PR(\d+)\.json$")


def _headline(payload: dict) -> str:
    """Best-effort one-phrase summary of one bench report."""
    rungs = payload.get("rungs")
    if isinstance(rungs, list) and rungs and all(
        isinstance(rung, dict) and "backend" in rung for rung in rungs
    ):
        # The PR9 storage-tier ladder: one rung per backend.
        phrases = []
        for rung in rungs:
            latency = rung.get("latency_ms") or {}
            phrases.append(
                f"{rung['backend']} p99 {latency.get('p99_ms', '?')}ms"
            )
        verdict = payload.get("criteria", {}).get("pass")
        suffix = "" if verdict is None else (" PASS" if verdict else " FAIL")
        return ", ".join(phrases) + suffix
    speedups = payload.get("speedup_vs_serial_nocache")
    if isinstance(speedups, dict) and speedups:
        best = max(speedups, key=lambda name: speedups[name])
        identical = payload.get("byte_identical_across_modes")
        suffix = ", byte-identical" if identical else ""
        return f"best {speedups[best]}x ({best}){suffix}"
    sweep = payload.get("sweep")
    if isinstance(sweep, dict) and sweep.get("knee"):
        knee = sweep["knee"]
        return (
            f"open-loop knee {knee.get('offered_rate_rps', '?')} req/s "
            f"offered ({knee.get('throughput_rps', '?')} achieved), "
            f"p99 {knee.get('p99_ms', '?')}ms "
            f"(budget {sweep.get('p99_budget_ms', '?')}ms)"
        )
    latency = payload.get("latency_ms")
    if isinstance(latency, dict) and "throughput_rps" in payload:
        return (
            f"{payload['throughput_rps']} req/s, "
            f"p50 {latency.get('p50_ms', '?')}ms / "
            f"p95 {latency.get('p95_ms', '?')}ms / "
            f"p99 {latency.get('p99_ms', '?')}ms"
        )
    paired = payload.get("paired")
    if isinstance(paired, dict) and paired:
        # Paired parent/change runs of the end-to-end benchmark: the
        # claimed metric's medians per workload.
        metric = str(payload.get("claimed_metric", "setup_s"))
        phrases = []
        for workload, metrics in paired.items():
            stats = metrics.get(metric) if isinstance(metrics, dict) else None
            if isinstance(stats, dict):
                phrases.append(
                    f"{workload} {metric} {stats.get('parent_median', '?')} -> "
                    f"{stats.get('change_median', '?')} (better in "
                    f"{stats.get('wins', '?')}/{stats.get('pairs', '?')} pairs)"
                )
        if phrases:
            return ", ".join(phrases)
    return str(payload.get("benchmark", "unrecognized report"))


def _extract_rss(payload: dict) -> object | None:
    """Server peak RSS from a report: a number, or per-backend dict.

    Flat serve-bench reports carry a single ``rss_mb``; the storage
    ladder carries one per rung, returned as ``{backend: rss_mb}``.
    """
    flat = payload.get("rss_mb")
    if isinstance(flat, (int, float)):
        return flat
    rungs = payload.get("rungs")
    if isinstance(rungs, list):
        per_backend = {
            rung["backend"]: rung["rss_mb"]
            for rung in rungs
            if isinstance(rung, dict)
            and "backend" in rung
            and isinstance(rung.get("rss_mb"), (int, float))
        }
        if per_backend:
            return per_backend
    return None


def _render_rss(value: object) -> str:
    """One table cell for the ``rss_mb`` column."""
    if value is None:
        return "-"
    if isinstance(value, dict):
        return " ".join(f"{name}={rss}" for name, rss in value.items())
    return str(value)


def collect_bench_rows(root: str | Path) -> list[dict]:
    """Parse every ``BENCH_PR<n>.json`` under ``root``, ordered by PR.

    Unreadable or non-JSON files yield a row flagging the problem
    instead of raising — the table is a dashboard, not a gate.
    """
    rows: list[dict] = []
    for path in sorted(Path(root).glob("BENCH_PR*.json")):
        match = _NAME_PATTERN.match(path.name)
        if match is None:
            continue
        row = {"pr": int(match.group(1)), "file": path.name}
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            # Name the broken report loudly: a silently-degraded row
            # reads as "that PR had no benchmark" in the trajectory.
            print(
                f"warning: {path.name} failed to parse "
                f"({type(exc).__name__}: {exc}); shown as unreadable",
                file=sys.stderr,
            )
            row["benchmark"] = f"unreadable ({type(exc).__name__})"
            row["headline"] = "-"
        else:
            row["benchmark"] = str(payload.get("benchmark", "?"))
            row["headline"] = _headline(payload)
            rss = _extract_rss(payload)
            if rss is not None:
                row["rss_mb"] = rss
        rows.append(row)
    rows.sort(key=lambda row: row["pr"])
    return rows


def format_history(rows: list[dict]) -> str:
    """Render the trajectory as a GitHub-flavoured markdown table."""
    if not rows:
        return "(no BENCH_PR*.json reports found)"
    header = ["PR", "benchmark", "rss_mb", "headline"]
    body = [
        [
            str(row["pr"]),
            row["benchmark"],
            _render_rss(row.get("rss_mb")),
            row["headline"],
        ]
        for row in rows
    ]
    widths = [
        max(len(header[col]), *(len(line[col]) for line in body))
        for col in range(len(header))
    ]

    def render_line(cells: list[str]) -> str:
        padded = (cell.ljust(width) for cell, width in zip(cells, widths))
        return "| " + " | ".join(padded) + " |"

    separator = "|" + "|".join("-" * (width + 2) for width in widths) + "|"
    return "\n".join(
        [render_line(header), separator, *(render_line(line) for line in body)]
    )


def update_performance_doc(path: str | Path, rows: list[dict]) -> str:
    """Rewrite the marked data section of ``docs/performance.md``.

    Replaces everything between :data:`BEGIN_MARKER` and
    :data:`END_MARKER` with the current table (appending the whole
    section when the markers are absent).  Returns the table text.
    """
    location = Path(path)
    table = format_history(rows)
    section = f"{BEGIN_MARKER}\n{table}\n{END_MARKER}"
    text = location.read_text(encoding="utf-8") if location.is_file() else ""
    if BEGIN_MARKER in text and END_MARKER in text:
        prefix, rest = text.split(BEGIN_MARKER, 1)
        __, suffix = rest.split(END_MARKER, 1)
        updated = prefix + section + suffix
    else:
        body = text.rstrip("\n")
        heading = "## Benchmark trajectory"
        updated = (
            (body + "\n\n" if body else "")
            + f"{heading}\n\n{section}\n"
        )
    atomic_write_text(location, updated)
    return table
