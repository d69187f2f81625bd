"""Regenerate every artifact of the paper in one call.

:func:`run_everything` writes, into one output directory, the ASCII
rendering and CSV series of every table and figure: the deliverable a
downstream user runs once to see the whole reproduction.

The run is decomposed into schedulable tasks (one per entry of the
artifact table :data:`repro.pipeline.experiments.ARTIFACTS`, plus
cache-prewarm tasks for the shared corpora and traffic datasets those
entries read) and handed to :mod:`repro.perf`'s staged executor.  With
the default :class:`~repro.pipeline.config.ExecutionSettings`
everything runs inline and uncached, exactly as the pre-perf pipeline
did; with a cache and/or workers enabled, prewarm tasks generate each
shared artifact once and the figure tasks read it back.  Artifact bytes
are identical across every combination of settings.

The run is fault tolerant (see ``docs/robustness.md``): tasks retry
under the run's :class:`~repro.resilience.RetryPolicy`; with
``failure_mode="continue"`` a terminal failure marks only its
dependents skipped while independent branches complete, and the
failure report lands in the :class:`~repro.perf.PerfReport`; with
journaling on, every completion is checkpointed so ``--resume``
re-runs only what is missing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.perf import (
    ArtifactCache,
    ExperimentTask,
    PerfReport,
    active_cache,
    configure_cache,
    execute_tasks,
    fingerprint,
    resolve_cache_dir,
)
from repro.io import atomic_write_text
from repro.pipeline import experiments
from repro.pipeline.config import (
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    ExecutionSettings,
    ExperimentConfig,
)
from repro.report.figures import write_csv
from repro.resilience import (
    JournalEntry,
    RetryPolicy,
    RunJournal,
    derive_run_id,
    resolve_journal_dir,
)

__all__ = [
    "manifest_payload",
    "run_everything",
    "run_everything_with_report",
    "write_manifest",
]


def manifest_payload(
    config: ExperimentConfig, artifacts: list[str]
) -> dict[str, Any]:
    """The run manifest: what a completed ``repro all`` produced.

    Everything here is a pure function of the experiment config plus the
    canonical artifact list, so manifests are byte-identical across
    execution modes (workers/cache/resume) — the same invariant the
    artifacts themselves obey.  :mod:`repro.serve` reads this file to
    reconstruct the config and rebuild its indices through the
    cache-aware builders.
    """
    return {
        "format": MANIFEST_FORMAT,
        "config": {
            "scale": config.scale,
            "seed": config.seed,
            "ks": list(config.ks),
            "max_bfs": config.max_bfs,
            "traffic_entities": config.traffic_entities,
            "traffic_events": config.traffic_events,
            "traffic_cookies": config.traffic_cookies,
        },
        "spread_pairs": [list(pair) for pair in _spread_pairs()],
        "traffic_sites": list(experiments.TRAFFIC_SITES),
        "artifacts": sorted(artifacts),
    }


def write_manifest(
    directory: str | Path, config: ExperimentConfig, artifacts: list[str]
) -> Path:
    """Atomically write ``manifest.json`` into a run's output directory."""
    payload = manifest_payload(config, artifacts)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return atomic_write_text(Path(directory) / MANIFEST_NAME, text)


# ---------------------------------------------------------------------------
# Task bodies (module-level so worker processes can import them)
# ---------------------------------------------------------------------------
#
# Every task receives one picklable payload dict carrying the output
# directory, the experiment config, and the cache settings; it returns
# the artifact names it wrote, in their canonical order.


def _apply_cache_settings(payload: dict[str, Any]) -> None:
    """Install the run's cache in this process, if the run wants one.

    ``payload["cache"]`` is ``(directory, max_bytes)`` or None; None
    leaves whatever cache the calling process already has, so library
    callers who configured their own cache keep it.
    """
    spec = payload["cache"]
    if spec is not None:
        directory, max_bytes = spec
        configure_cache(ArtifactCache(directory, max_bytes=max_bytes))


def _prewarm_spread(payload: dict[str, Any]) -> list[str]:
    """Generate (and cache) one shared spread corpus."""
    _apply_cache_settings(payload)
    experiments.spread_incidence(
        payload["domain"], payload["attribute"], payload["config"]
    )
    return []


def _prewarm_traffic(payload: dict[str, Any]) -> list[str]:
    """Simulate (and cache) one shared traffic dataset."""
    _apply_cache_settings(payload)
    experiments.build_traffic_dataset(payload["site"], payload["config"])
    return []


def _task_render(payload: dict[str, Any]) -> list[str]:
    """Render one table or figure: its ``.txt`` files and their CSVs."""
    _apply_cache_settings(payload)
    directory = Path(payload["out"])
    artifact = experiments.ARTIFACTS[payload["artifact"]]
    names = []
    for name, text, csvs in artifact.render(payload["config"]):
        (directory / f"{name}.txt").write_text(text + "\n")
        for stem, series in csvs.items():
            write_csv(directory / f"{stem}.csv", series)
        names.append(name)
    return names


# ---------------------------------------------------------------------------
# Task graph
# ---------------------------------------------------------------------------


def _spread_pairs() -> list[tuple[str, str]]:
    """Every distinct (domain, attribute) corpus the full run touches."""
    return list(
        dict.fromkeys(
            pair
            for artifact in experiments.ARTIFACTS.values()
            for pair in artifact.corpora
        )
    )


def _build_tasks(
    directory: Path,
    config: ExperimentConfig,
    cache_spec: tuple[str, int | None] | None,
    prewarm: bool,
) -> list[ExperimentTask]:
    """The full task graph, in the canonical artifact order.

    With ``prewarm`` (i.e. a cache is in play), every shared corpus and
    traffic dataset gets a producer task; the figure tasks declare those
    artifacts as requirements, so the executor stages producers first
    and consumers become cache readers.  Without a cache the artifact
    labels are unprovided and everything lands in a single stage.
    """
    base = {"out": str(directory), "config": config, "cache": cache_spec}

    def payload(**extra: Any) -> dict[str, Any]:
        return {**base, **extra}

    def incidence_labels(*pairs: tuple[str, str]) -> tuple[str, ...]:
        return tuple(f"incidence:{d}:{a}" for d, a in pairs)

    def traffic_labels(*sites: str) -> tuple[str, ...]:
        return tuple(f"traffic:{site}" for site in sites)

    tasks: list[ExperimentTask] = []
    if prewarm:
        for domain, attribute in _spread_pairs():
            tasks.append(
                ExperimentTask(
                    name=f"warm:incidence:{domain}:{attribute}",
                    fn=_prewarm_spread,
                    payload=payload(domain=domain, attribute=attribute),
                    provides=incidence_labels((domain, attribute)),
                )
            )
        for site in experiments.TRAFFIC_SITES:
            tasks.append(
                ExperimentTask(
                    name=f"warm:traffic:{site}",
                    fn=_prewarm_traffic,
                    payload=payload(site=site),
                    provides=traffic_labels(site),
                )
            )
    for name, artifact in experiments.ARTIFACTS.items():
        tasks.append(
            ExperimentTask(
                name=name,
                fn=_task_render,
                payload=payload(artifact=name),
                requires=incidence_labels(*artifact.corpora)
                + traffic_labels(*artifact.traffic),
            )
        )
    return tasks


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def run_everything_with_report(
    output_dir: str | Path,
    config: ExperimentConfig | None = None,
    verbose: bool = True,
    settings: ExecutionSettings | None = None,
) -> tuple[list[str], PerfReport]:
    """Run every table/figure; return (artifact names, perf report).

    Args:
        output_dir: Directory for ``.txt`` (ASCII) and ``.csv`` files.
        config: Experiment configuration (default: small scale, seed 0).
        verbose: Print a progress line per artifact.
        settings: Scheduling/caching/resilience knobs (default: serial,
            uncached, journaling off, raise on first terminal failure).

    Raises:
        repro.perf.TaskExecutionError: A task exhausted its retries and
            ``settings.failure_mode`` is ``"raise"``.
        repro.resilience.JournalMismatchError: ``settings.resume`` named
            a journal that is missing or belongs to a different run.
    """
    config = config or ExperimentConfig()
    settings = settings or ExecutionSettings()
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)

    # The run key fingerprints everything that determines artifact
    # bytes (config) plus where they land (output dir); execution knobs
    # stay out so the same reproduction resumes under the same id
    # regardless of workers/cache/retries.
    run_key = fingerprint("run", config=config, output=str(directory.resolve()))
    run_id = settings.run_id or derive_run_id(run_key)
    journal: RunJournal | None = None
    completed_entries: dict[str, JournalEntry] = {}
    if settings.journaling:
        journal_dir = resolve_journal_dir(settings.journal_dir)
        if settings.resume:
            journal = RunJournal.open(
                journal_dir, run_id, run_key, require_existing=True
            )
            completed_entries = dict(journal.entries)
        else:
            journal = RunJournal(journal_dir, run_id, run_key)
            journal.discard()  # a from-scratch run invalidates stale state

    cache_spec: tuple[str, int | None] | None = None
    previous = active_cache()
    if settings.use_cache:
        cache_dir = resolve_cache_dir(settings.cache_dir)
        cache_spec = (str(cache_dir), settings.cache_budget_bytes)
    cache_for_report = (
        cache_spec[0]
        if cache_spec is not None
        else (str(previous.directory) if previous is not None else "")
    )

    # Scheduling policy, not mechanism: worker processes above the CPU
    # count only add contention for this CPU-bound work (measured ~25%
    # slower on a single core), so requests are clamped here while
    # `execute_tasks` itself honours whatever it is given (tests drive
    # the pooled path explicitly).  Clamping cannot affect artifact
    # bytes — worker count never does.
    workers = max(1, min(settings.workers, os.cpu_count() or 1))
    if verbose and workers != settings.workers:
        print(
            f"  workers: {settings.workers} requested, {workers} used "
            f"({os.cpu_count()} CPU(s) available)"
        )

    tasks = _build_tasks(
        directory,
        config,
        cache_spec,
        prewarm=settings.use_cache or previous is not None,
    )
    # Resume: drop tasks the journal records as done.  `stage_tasks`
    # treats artifact labels no pending task provides as externally
    # satisfied, so consumers of a completed prewarm schedule normally
    # (and regenerate via their builders on a cache miss — resuming
    # never changes bytes, only what gets re-run).
    pending = [task for task in tasks if task.name not in completed_entries]
    if verbose and completed_entries:
        done = len(tasks) - len(pending)
        print(f"  resume {run_id}: {done} task(s) already completed")

    policy = RetryPolicy(
        max_attempts=settings.retries + 1,
        timeout_seconds=settings.task_timeout,
        seed=config.seed,
    )

    def _checkpoint(outcome) -> None:
        if journal is not None:
            journal.record(outcome.name, tuple(outcome.value), outcome.seconds)

    try:
        result = execute_tasks(
            pending,
            workers=workers,
            policy=policy,
            raise_on_failure=settings.failure_mode == "raise",
            on_complete=_checkpoint,
        )
    finally:
        # Serial tasks install the run's cache in *this* process; put
        # back whatever the caller had.
        configure_cache(previous)

    report = PerfReport(
        workers=workers,
        cache_enabled=bool(cache_for_report),
        cache_dir=cache_for_report,
        total_seconds=result.total_seconds,
        run_id=run_id if journal is not None else "",
        resumed=bool(completed_entries),
        pool_rebuilds=result.pool_rebuilds,
        degraded=result.degraded,
    )
    written: list[str] = []
    for task in tasks:
        entry = completed_entries.get(task.name)
        if entry is not None:
            written.extend(entry.artifacts)  # finished in a previous run
            continue
        outcome = result.outcomes.get(task.name)
        if outcome is None:
            continue  # failed or skipped; reported below
        report.add_timing(task.name, outcome.seconds)
        report.merge_cache_stats(outcome.cache_stats)
        for name in outcome.value:
            written.append(name)
            if verbose:
                print(f"  wrote {name}")
    for name in sorted(result.failures):
        failure = result.failures[name]
        report.add_failure(failure.as_dict())
        if verbose:
            print(
                f"  FAILED {failure.name} after {failure.attempts} "
                f"attempt(s): {failure.message}"
            )
    for name in sorted(result.skipped):
        report.add_skip(name, result.skipped[name])
        if verbose:
            print(f"  skipped {name}: {result.skipped[name]}")
    if report.ok:
        # Only a complete run earns a manifest: serving from a partial
        # run would answer queries from indices that silently miss
        # domains.  Resumed completions finish with report.ok too.
        write_manifest(directory, config, written)
        if verbose:
            print(f"  wrote {MANIFEST_NAME}")
    return written, report


def run_everything(
    output_dir: str | Path,
    config: ExperimentConfig | None = None,
    verbose: bool = True,
    settings: ExecutionSettings | None = None,
) -> list[str]:
    """Run every table/figure; write artifacts; return their names.

    Thin wrapper over :func:`run_everything_with_report` for callers who
    do not care about timings.
    """
    written, __ = run_everything_with_report(
        output_dir, config, verbose=verbose, settings=settings
    )
    return written
