"""Chaos suite: every fault mode converges to byte-identical artifacts.

The determinism contract says execution settings change how fast a run
is, never what bytes it writes.  These tests extend that to faults: a
pipeline run under injected task errors, worker kills, hangs, or cache
corruption must — after retries and/or a resume — produce artifacts
byte-identical to an undisturbed serial run, and every failure must be
visible (structured failure report, quarantine counter), never silent.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

import pytest

from repro.perf import (
    ArtifactCache,
    ExperimentTask,
    configure_cache,
    execute_tasks,
)
from repro.pipeline.config import ExecutionSettings, ExperimentConfig
from repro.pipeline.runall import run_everything_with_report
from repro.resilience import ENV_FAULTS, RetryPolicy, clear_plan_cache

# Small enough that a full pipeline run is ~a second; the chaos suite
# runs several of them.
CONFIG = ExperimentConfig(scale="tiny", seed=0).scaled_down(400)


def _digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(RetryPolicy, "sleep", lambda self, seconds: None)


@pytest.fixture
def faults(monkeypatch):
    def _arm(spec: str) -> None:
        if spec:
            monkeypatch.setenv(ENV_FAULTS, spec)
        else:
            monkeypatch.delenv(ENV_FAULTS, raising=False)
        clear_plan_cache()

    _arm("")  # make sure nothing leaks in
    yield _arm
    _arm("")


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory):
    """Digests and PerfReport of an undisturbed serial, uncached run."""
    previous = os.environ.pop(ENV_FAULTS, None)
    clear_plan_cache()
    out = tmp_path_factory.mktemp("baseline")
    try:
        __, report = run_everything_with_report(out, CONFIG, verbose=False)
    finally:
        if previous is not None:
            os.environ[ENV_FAULTS] = previous
        clear_plan_cache()
    return _digests(out), report


@pytest.fixture(scope="module")
def baseline(baseline_run):
    """Digests of an undisturbed serial, uncached run."""
    return baseline_run[0]


# ---------------------------------------------------------------------------
# Fault modes converge without resume
# ---------------------------------------------------------------------------


def test_task_error_fault_retries_to_byte_identical(tmp_path, faults, baseline):
    faults("op=error,task=figure3,times=2; op=error,task=table2,times=1")
    out = tmp_path / "out"
    settings = ExecutionSettings(retries=2)
    __, report = run_everything_with_report(
        out, CONFIG, verbose=False, settings=settings
    )
    assert report.ok
    assert _digests(out) == baseline


def test_inline_kill_fault_converges(tmp_path, faults, baseline):
    faults("op=kill,task=table1,times=1")
    out = tmp_path / "out"
    __, report = run_everything_with_report(
        out, CONFIG, verbose=False, settings=ExecutionSettings(retries=1)
    )
    assert report.ok
    assert _digests(out) == baseline


def test_worker_kill_rebuilds_pool_and_converges(tmp_path, faults, baseline):
    faults("op=kill,task=warm:traffic:*,times=1")
    out = tmp_path / "out"
    settings = ExecutionSettings(
        workers=2,
        use_cache=True,
        cache_dir=str(tmp_path / "cache"),
        retries=2,
    )
    __, report = run_everything_with_report(
        out, CONFIG, verbose=False, settings=settings
    )
    assert report.ok
    assert _digests(out) == baseline
    if report.workers > 1:  # single-CPU runners clamp to inline mode
        assert report.pool_rebuilds >= 1


def test_hang_fault_times_out_and_converges(tmp_path, faults, baseline_run):
    digests, clean = baseline_run
    # A pooled task's deadline runs from submission, so an innocent task
    # also spends it queued behind its stage-mates.  Sizing the timeout
    # from the clean run's measured task times keeps them clear of it
    # on a slow host as on a fast one.
    timeout = 4 * max(timing.seconds for timing in clean.timings)
    faults(f"op=hang,task=table2,times=1,seconds={2 * timeout:.3f}")
    out = tmp_path / "out"
    settings = ExecutionSettings(workers=2, task_timeout=timeout, retries=1)
    __, report = run_everything_with_report(
        out, CONFIG, verbose=False, settings=settings
    )
    assert report.ok
    assert _digests(out) == digests
    if report.workers > 1:  # single-CPU runners clamp to inline mode
        assert report.pool_rebuilds >= 1  # the hang really timed out


def test_cache_corruption_quarantines_and_converges(tmp_path, faults, baseline):
    faults("op=corrupt,key=*")
    out = tmp_path / "out"
    cache_dir = tmp_path / "cache"
    settings = ExecutionSettings(use_cache=True, cache_dir=str(cache_dir))
    __, report = run_everything_with_report(
        out, CONFIG, verbose=False, settings=settings
    )
    assert report.ok
    assert _digests(out) == baseline
    # Corruption is loud, never a silent miss: quarantined blobs are
    # counted and preserved on disk.
    assert report.cache.quarantined > 0
    assert any((cache_dir / "quarantine").iterdir())
    assert report.cache.hits == 0  # nothing corrupt was ever served


# ---------------------------------------------------------------------------
# Partial failure + resume
# ---------------------------------------------------------------------------


def test_partial_failure_then_resume_converges(tmp_path, faults, baseline):
    out = tmp_path / "out"
    common = dict(
        use_cache=True,
        cache_dir=str(tmp_path / "cache"),
        keep_journal=True,
        journal_dir=str(tmp_path / "journals"),
        failure_mode="continue",
    )

    faults("op=error,task=warm:traffic:*,times=99")
    __, report = run_everything_with_report(
        out, CONFIG, verbose=False, settings=ExecutionSettings(retries=1, **common)
    )
    assert not report.ok
    assert {f["name"] for f in report.failures} == {
        "warm:traffic:imdb", "warm:traffic:amazon", "warm:traffic:yelp"
    }
    assert {s["name"] for s in report.skipped} == {
        "figure6", "figure7", "figure8"
    }
    assert all(f["attempts"] == 2 for f in report.failures)
    assert all("InjectedTaskError" in f["traceback"] for f in report.failures)
    assert report.run_id  # the handle --resume takes

    faults("")  # outage over
    written, resumed = run_everything_with_report(
        out,
        CONFIG,
        verbose=False,
        settings=ExecutionSettings(resume=True, **common),
    )
    assert resumed.ok
    assert resumed.resumed
    assert resumed.run_id == report.run_id
    # Only the failed tasks and their dependents re-ran.
    rerun = {timing.name for timing in resumed.timings}
    assert rerun == {
        "warm:traffic:imdb", "warm:traffic:amazon", "warm:traffic:yelp",
        "figure6", "figure7", "figure8",
    }
    assert _digests(out) == baseline
    # The returned artifact list covers the whole run, journaled tasks
    # included, in canonical order.
    assert "table1" in written and "figure6_search" in written


def test_resume_with_nothing_missing_is_a_no_op(tmp_path, faults, baseline):
    out = tmp_path / "out"
    common = dict(
        keep_journal=True, journal_dir=str(tmp_path / "journals")
    )
    run_everything_with_report(
        out, CONFIG, verbose=False, settings=ExecutionSettings(**common)
    )
    written, report = run_everything_with_report(
        out,
        CONFIG,
        verbose=False,
        settings=ExecutionSettings(resume=True, **common),
    )
    assert report.ok and report.resumed
    assert report.timings == []  # nothing re-ran
    assert _digests(out) == baseline
    assert "table1" in written


def _stalled_cache_roundtrip(payload):
    """Publish then read back one records blob through a fresh cache.

    Module-level so forked pool workers can unpickle it by reference.
    With a ``stall`` fault armed, both the publish and the read sleep —
    this is the cache-touching task the executor's per-attempt timeout
    must cut short.  It notes the wall-clock time it starts at, which is
    when the first stall nap begins.
    """
    began = Path(payload["began_file"])
    began.with_suffix(".tmp").write_text(repr(time.time()))  # reprolint: disable=RNG004
    os.replace(began.with_suffix(".tmp"), began)  # never read half-written
    cache = ArtifactCache(directory=Path(payload["cache_dir"]))
    configure_cache(cache)
    cache.put_records(payload["key"], payload["records"])
    return cache.get_records(payload["key"])


def _io_free_value(payload):
    """A sibling task that never touches the cache."""
    return payload


def test_cache_stall_trips_attempt_timeout_then_recovers(tmp_path, faults):
    """A wedged cache filesystem must cost timeouts, never a hung run.

    ``op=stall`` is stateless — every matching cache read or publish
    sleeps in whichever process performs the I/O.  The executor's
    per-attempt timeout is the defence: with the stall armed, the
    cache-touching task blows its budget and fails loudly (while an
    I/O-free sibling completes untouched); with the stall cleared, the
    same task graph converges to the exact faultless value.
    """
    records = [{"rank": index, "score": index * 0.5} for index in range(4)]
    began_file = tmp_path / "stall-began"
    payload = {
        "cache_dir": str(tmp_path / "cache"),
        "key": "deadbeef" * 8,
        "records": records,
        "began_file": str(began_file),
    }
    tasks = [
        ExperimentTask("stalled", _stalled_cache_roundtrip, payload),
        ExperimentTask("untouched", _io_free_value, 41),
    ]
    # One attempt, tight deadline: the 3 s stall must trip the 0.5 s
    # timeout rather than run to completion (and an orphaned worker
    # sleeps out harmlessly in the background after pool teardown).
    policy = RetryPolicy(max_attempts=1, timeout_seconds=0.5, seed=0)

    stall_seconds = 3.0
    faults(f"op=stall,key=*,seconds={stall_seconds}")
    result = execute_tasks(
        tasks, workers=2, policy=policy, raise_on_failure=False
    )
    ended = time.time()  # reprolint: disable=RNG004
    began = float(began_file.read_text()) if began_file.exists() else None
    assert "stalled" in result.failures  # the stall was felt, loudly
    failure = result.failures["stalled"]
    assert failure.error_type == "TimeoutError"
    assert "timeout" in failure.message.lower()
    assert result.outcomes["untouched"].value == 41
    # Tripped deadline, not a wedged run: the run was over before the
    # first stall nap could end.  Timed from the task's own start, so
    # pool start-up on a slow host does not count; if the deadline
    # passed before a worker took the task, no nap began at all.
    if began is not None:
        assert ended < began + stall_seconds
    assert failure.attempts == 1  # charged exactly the one timed-out try

    faults("")  # filesystem unwedged
    clean = execute_tasks(
        tasks, workers=2, policy=policy, raise_on_failure=False
    )
    assert clean.ok
    assert clean.outcomes["stalled"].value == records
    assert clean.outcomes["untouched"].value == 41
