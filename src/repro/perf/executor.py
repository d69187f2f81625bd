"""Process-parallel execution of experiment runners, fault-tolerantly.

Runners declare the shared artifacts they *require* (cache entries
such as generated incidences or traffic datasets) and the ones they
*provide*; :func:`stage_tasks` topologically groups them so producers
run before consumers, and :func:`execute_tasks` fans each stage out
over a ``ProcessPoolExecutor``.  Producers therefore generate every
shared artifact exactly once — in parallel — and consumers hit the
content-addressed cache instead of regenerating, which is what makes
``python -m repro all`` faster even cold.

On top of the scheduling sits the resilience contract
(``docs/robustness.md``):

- every task gets up to :attr:`RetryPolicy.max_attempts` tries with
  seeded exponential backoff between them, and an optional per-attempt
  timeout;
- a worker crash (``BrokenProcessPool``) or a timed-out attempt tears
  the pool down and rebuilds it; when the pool cannot be rebuilt (or
  keeps dying) the executor *degrades* to in-process serial execution
  rather than losing the run;
- no worker outlives the process that started its pool: each watches
  its parent's sentinel and exits once the parent is gone, by any
  signal;
- a task that exhausts its attempts fails *alone*: only tasks whose
  required artifacts it would have provided are skipped, every
  independent DAG branch still completes, and the failures/skips are
  returned as structured records (:class:`TaskFailure`) instead of one
  opaque exception — unless the caller asked for fail-fast semantics
  (``raise_on_failure=True``, the library default), in which case the
  pool is shut down with ``cancel_futures=True`` and the original
  traceback is chained.

Determinism: tasks never communicate through in-memory state, only
through the cache (whose round-trips are exact) and their own derived
seeds, so serial, parallel, retried, and resumed schedules all produce
byte-identical artifacts.  Each task is timed in its worker; cache
counters are returned as per-task deltas and merged by the driver.
"""

from __future__ import annotations

import collections
import dataclasses
import logging
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.perf.cache import CacheStats, active_cache
from repro.resilience import RetryPolicy, active_plan

__all__ = [
    "ExecutionResult",
    "ExperimentTask",
    "TaskExecutionError",
    "TaskFailure",
    "TaskOutcome",
    "execute_tasks",
    "stage_tasks",
]

_log = logging.getLogger(__name__)


class TaskExecutionError(RuntimeError):
    """A task failed terminally under fail-fast (``raise_on_failure``)."""


@dataclasses.dataclass(frozen=True)
class ExperimentTask:
    """One schedulable unit of work.

    Attributes:
        name: Unique task name (also the timing label).
        fn: A *module-level* callable (workers import it by reference);
            invoked as ``fn(payload)``.
        payload: Picklable argument for ``fn``.
        requires: Labels of shared artifacts this task consumes.
        provides: Labels of shared artifacts this task produces.
    """

    name: str
    fn: Callable[[Any], Any]
    payload: Any = None
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class TaskOutcome:
    """Result envelope returned from a worker."""

    name: str
    value: Any
    seconds: float
    cache_stats: CacheStats
    attempts: int = 1


@dataclasses.dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that exhausted its retry budget."""

    name: str
    attempts: int
    error_type: str
    message: str
    traceback: str

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready rendering for failure reports."""
        return {
            "name": self.name,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }


@dataclasses.dataclass(frozen=True)
class ExecutionResult:
    """All task outcomes plus the end-to-end wall-clock of the run.

    The executor owns every clock read so that layers above it (which
    the determinism linter bans from reading clocks) only ever see
    already-measured durations.

    Attributes:
        outcomes: Successful tasks, keyed by name.
        total_seconds: End-to-end wall-clock.
        failures: Tasks that exhausted their retry budget.
        skipped: Tasks never run because a task they (transitively)
            depend on failed; maps name → human-readable reason.
        pool_rebuilds: Worker pools torn down and rebuilt during the
            run (worker crashes and per-attempt timeouts).
        degraded: True when the pool could not be (re)built and the
            remainder of the run fell back to in-process execution.
    """

    outcomes: dict[str, TaskOutcome]
    total_seconds: float
    failures: dict[str, TaskFailure] = dataclasses.field(default_factory=dict)
    skipped: dict[str, str] = dataclasses.field(default_factory=dict)
    pool_rebuilds: int = 0
    degraded: bool = False

    @property
    def ok(self) -> bool:
        """True when every task completed."""
        return not self.failures and not self.skipped


def stage_tasks(
    tasks: Sequence[ExperimentTask],
) -> list[list[ExperimentTask]]:
    """Group tasks into topological stages by artifact dependencies.

    A task joins the earliest stage in which every artifact it requires
    has already been provided by an earlier stage.  Labels that no task
    provides are treated as externally satisfied (e.g. already-warm
    cache entries).  Raises ``ValueError`` on dependency cycles and on
    duplicate task names.
    """
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate task names: {sorted(names)}")
    provided_by_someone = {label for t in tasks for label in t.provides}
    satisfied: set[str] = set()
    remaining = list(tasks)
    stages: list[list[ExperimentTask]] = []
    while remaining:
        ready = [
            t
            for t in remaining
            if all(
                label in satisfied or label not in provided_by_someone
                for label in t.requires
            )
        ]
        if not ready:
            cycle = ", ".join(t.name for t in remaining)
            raise ValueError(f"dependency cycle among tasks: {cycle}")
        stages.append(ready)
        satisfied.update(label for t in ready for label in t.provides)
        remaining = [t for t in remaining if t not in ready]
    return stages


def _stats_snapshot() -> tuple[int | None, CacheStats]:
    """Identity and counter snapshot of the process-active cache."""
    cache = active_cache()
    if cache is None:
        return None, CacheStats()
    return id(cache), dataclasses.replace(cache.stats)


def _run_one(task: ExperimentTask) -> TaskOutcome:
    """Execute one task, timing it and capturing its cache delta.

    Runs in a worker process (or inline when serial).  The cache delta
    is computed against the counters of whatever cache is active after
    the call: tasks that install their own cache start from zero, tasks
    reusing a process-global cache are charged only their own activity.
    """
    before_id, before = _stats_snapshot()
    start = time.perf_counter()
    value = task.fn(task.payload)
    seconds = time.perf_counter() - start
    cache = active_cache()
    delta = CacheStats()
    if cache is not None:
        base = before if id(cache) == before_id else CacheStats()
        delta = CacheStats(
            hits=cache.stats.hits - base.hits,
            misses=cache.stats.misses - base.misses,
            puts=cache.stats.puts - base.puts,
            evictions=cache.stats.evictions - base.evictions,
            quarantined=cache.stats.quarantined - base.quarantined,
        )
    return TaskOutcome(
        name=task.name, value=value, seconds=seconds, cache_stats=delta
    )


def _run_attempt(task: ExperimentTask, attempt: int, in_worker: bool) -> TaskOutcome:
    """One (possibly fault-injected) attempt at a task.

    The attempt number is threaded from the driver so the fault plan
    can count attempts without shared state — a plan directive with
    ``times=k`` fires on attempts 1..k in any process.
    """
    plan = active_plan()
    if plan is not None:
        plan.apply_task_faults(task.name, attempt, in_worker=in_worker)
    return _run_one(task)


def _worker_pool(max_workers: int) -> ProcessPoolExecutor:
    """The default pool: its workers exit when this process dies."""
    return ProcessPoolExecutor(
        max_workers=max_workers, initializer=_exit_with_parent
    )


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit as soon as the parent process is gone.

    A watcher thread waits on the parent's sentinel, which becomes ready
    when the parent exits or is killed by any signal, so a worker never
    outlives its run.  SIGTERM gets its default action back: the parent
    may have routed it to KeyboardInterrupt before forking this worker,
    and the pool's own teardown terminates workers with it.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_when_ready,
            args=(parent.sentinel,),
            name="repro-parent-watch",
            daemon=True,
        ).start()


def _exit_when_ready(sentinel: int) -> None:
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


class _StagedRunner:
    """Mutable state of one ``execute_tasks`` call.

    Owns the worker pool (including teardown/rebuild after crashes and
    timeouts), the per-task attempt ledger, and the failure/skip
    bookkeeping that implements partial-failure semantics.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        workers: int,
        pool_factory: Callable[..., Any],
        on_complete: Callable[[TaskOutcome], None] | None,
        raise_on_failure: bool,
    ) -> None:
        self.policy = policy
        self.workers = workers
        self.pool_factory = pool_factory
        self.on_complete = on_complete
        self.raise_on_failure = raise_on_failure
        self.outcomes: dict[str, TaskOutcome] = {}
        self.failures: dict[str, TaskFailure] = {}
        self.skipped: dict[str, str] = {}
        self.dead_labels: dict[str, str] = {}  # label -> root-cause task
        self.attempts: dict[str, int] = {}
        self.pool: Any = None
        self.pool_broken = False
        self.rebuilds = 0
        self.degraded = workers <= 1

    # -- driving ------------------------------------------------------------

    def run(self, stages: list[list[ExperimentTask]]) -> None:
        """Execute every stage, honouring retries and partial failure."""
        try:
            for stage in stages:
                runnable = self._admit(stage)
                if not runnable:
                    continue
                if self.degraded:
                    for task in runnable:
                        self._run_inline(task)
                else:
                    self._run_pooled_stage(runnable)
        finally:
            self._shutdown_pool()

    def _admit(self, stage: list[ExperimentTask]) -> list[ExperimentTask]:
        """Split a stage into runnable tasks and skips (dead inputs)."""
        runnable = []
        for task in stage:
            culprits = sorted(
                {
                    self.dead_labels[label]
                    for label in task.requires
                    if label in self.dead_labels
                }
            )
            if culprits:
                self.skipped[task.name] = (
                    "skipped: requires artifacts from failed task(s) "
                    + ", ".join(culprits)
                )
                for label in task.provides:
                    self.dead_labels.setdefault(label, culprits[0])
            else:
                runnable.append(task)
        return runnable

    # -- pool lifecycle -----------------------------------------------------

    def _ensure_pool(self) -> None:
        """(Re)build the worker pool; flip to degraded mode on failure."""
        if self.pool is not None and not self.pool_broken:
            return
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None
            self.rebuilds += 1
        if self.rebuilds > self.policy.max_pool_rebuilds:
            self.degraded = True
            return
        try:
            self.pool = self.pool_factory(max_workers=self.workers)
            self.pool_broken = False
        except Exception:
            # No pool to be had (fork limits, dead interpreter, ...):
            # finish the run in-process rather than losing it.
            _log.warning(
                "worker pool unavailable; degrading to in-process "
                "serial execution",
                exc_info=True,
            )
            self.pool = None
            self.degraded = True

    def _shutdown_pool(self) -> None:
        """Tear the pool down, cancelling anything still queued."""
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None

    # -- bookkeeping --------------------------------------------------------

    def _record_success(self, task: ExperimentTask, outcome: TaskOutcome) -> None:
        outcome = dataclasses.replace(
            outcome, attempts=self.attempts.get(task.name, 1)
        )
        self.outcomes[task.name] = outcome
        if self.on_complete is not None:
            self.on_complete(outcome)

    def _record_failure(self, task: ExperimentTask, exc: BaseException) -> None:
        attempts = self.attempts.get(task.name, 0)
        failure = TaskFailure(
            name=task.name,
            attempts=attempts,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(traceback_module.format_exception(exc)),
        )
        self.failures[task.name] = failure
        for label in task.provides:
            self.dead_labels.setdefault(label, task.name)
        if self.raise_on_failure:
            self._shutdown_pool()
            raise TaskExecutionError(
                f"experiment task {task.name!r} failed after "
                f"{attempts} attempt(s): {exc}"
            ) from exc

    def _retry_or_fail(
        self,
        task: ExperimentTask,
        exc: BaseException,
        queue: "collections.deque[ExperimentTask]",
    ) -> None:
        """After a failed attempt: back off and requeue, or fail for good."""
        attempt = self.attempts.get(task.name, 0)
        if attempt < self.policy.max_attempts:
            self.policy.sleep(self.policy.delay_for(task.name, attempt))
            queue.append(task)
        else:
            self._record_failure(task, exc)

    # -- inline (serial / degraded) execution -------------------------------

    def _run_inline(self, task: ExperimentTask) -> None:
        """Run one task to completion (or terminal failure) in-process."""
        while True:
            attempt = self.attempts.get(task.name, 0) + 1
            self.attempts[task.name] = attempt
            try:
                outcome = _run_attempt(task, attempt, in_worker=False)
            except Exception as exc:
                if attempt < self.policy.max_attempts:
                    self.policy.sleep(self.policy.delay_for(task.name, attempt))
                    continue
                self._record_failure(task, exc)
                return
            self._record_success(task, outcome)
            return

    # -- pooled execution ---------------------------------------------------

    def _run_pooled_stage(self, stage: list[ExperimentTask]) -> None:
        """Fan one stage out over the pool with retries and deadlines."""
        queue: collections.deque[ExperimentTask] = collections.deque(stage)
        pending: dict[str, tuple[ExperimentTask, Any, float | None]] = {}
        while queue or pending:
            if self.degraded:
                leftovers = [task for task, _, __ in pending.values()]
                leftovers += list(queue)
                pending.clear()
                queue.clear()
                for task in leftovers:
                    self._run_inline(task)
                return
            self._ensure_pool()
            if self.pool is None:
                continue  # degraded flipped; loop handles the migration
            while queue:
                task = queue.popleft()
                attempt = self.attempts.get(task.name, 0) + 1
                self.attempts[task.name] = attempt
                future = self.pool.submit(_run_attempt, task, attempt, True)
                deadline = (
                    None
                    if self.policy.timeout_seconds is None
                    else time.monotonic() + self.policy.timeout_seconds
                )
                pending[task.name] = (task, future, deadline)
            futures = [future for _, future, __ in pending.values()]
            deadlines = [d for _, __, d in pending.values() if d is not None]
            wait_timeout = None
            if deadlines:
                wait_timeout = max(0.0, min(deadlines) - time.monotonic())
            done, _ = wait(futures, timeout=wait_timeout, return_when=FIRST_COMPLETED)
            if done:
                self._consume_completed(pending, done, queue)
            else:
                self._expire_overdue(pending, queue)

    def _consume_completed(
        self,
        pending: dict[str, tuple[ExperimentTask, Any, float | None]],
        done: set,
        queue: "collections.deque[ExperimentTask]",
    ) -> None:
        """Fold finished futures into outcomes/retries/failures."""
        for name in [n for n, (_, future, __) in pending.items() if future in done]:
            task, future, _deadline = pending.pop(name)
            try:
                outcome = future.result()
            except BrokenProcessPool as exc:
                # A worker died; every sibling future is doomed too —
                # they surface here one by one.  Mark the pool for
                # rebuild and push the task back through retry logic.
                self.pool_broken = True
                self._retry_or_fail(task, exc, queue)
            except Exception as exc:
                self._retry_or_fail(task, exc, queue)
            else:
                self._record_success(task, outcome)

    def _expire_overdue(
        self,
        pending: dict[str, tuple[ExperimentTask, Any, float | None]],
        queue: "collections.deque[ExperimentTask]",
    ) -> None:
        """Handle a wait() that elapsed without any completion.

        Tasks past their deadline are charged a failed (timed-out)
        attempt.  The pool — which still has their workers occupied —
        is marked for rebuild, and the innocent in-flight tasks are
        resubmitted *without* losing an attempt.
        """
        now = time.monotonic()
        expired = [
            name
            for name, (_, __, deadline) in pending.items()
            if deadline is not None and deadline <= now
        ]
        if not expired:
            return  # spurious wakeup; keep waiting
        for name in expired:
            task, _future, __ = pending.pop(name)
            timeout_exc = TimeoutError(
                f"attempt exceeded the per-task timeout of "
                f"{self.policy.timeout_seconds}s"
            )
            self._retry_or_fail(task, timeout_exc, queue)
        self.pool_broken = True  # stuck workers: tear down and restart
        for name in list(pending):
            task, _future, __ = pending.pop(name)
            # Not their fault: refund the attempt charged at submit.
            self.attempts[task.name] -= 1
            queue.append(task)


def execute_tasks(
    tasks: Sequence[ExperimentTask],
    workers: int = 1,
    policy: RetryPolicy | None = None,
    raise_on_failure: bool = True,
    on_complete: Callable[[TaskOutcome], None] | None = None,
    pool_factory: Callable[..., Any] | None = None,
) -> ExecutionResult:
    """Run all tasks, stage by stage; returns outcomes plus wall-clock.

    Args:
        tasks: The task graph (see :func:`stage_tasks`).
        workers: ``<= 1`` runs everything inline (no subprocesses at
            all — the mode tests and debuggers want); otherwise each
            stage fans out over one shared ``ProcessPoolExecutor``.
        policy: Retry/timeout policy; default is the pre-resilience
            contract (one attempt, no timeout).
        raise_on_failure: With True (default), the first terminal task
            failure shuts the pool down (``cancel_futures=True``) and
            raises :class:`TaskExecutionError` chained to the original
            exception.  With False, the run continues: independent
            branches complete and failures/skips come back in the
            :class:`ExecutionResult`.
        on_complete: Optional callback invoked in the driver process
            after each successful task (checkpoint journaling).
        pool_factory: Worker-pool constructor (tests inject failing
            factories to exercise degraded mode); defaults to a
            ``ProcessPoolExecutor`` whose workers exit when this
            process dies, by any signal.
    """
    stages = stage_tasks(tasks)
    runner = _StagedRunner(
        policy=policy or RetryPolicy.single_shot(),
        workers=workers,
        pool_factory=pool_factory or _worker_pool,
        on_complete=on_complete,
        raise_on_failure=raise_on_failure,
    )
    start = time.perf_counter()
    runner.run(stages)
    return ExecutionResult(
        outcomes=runner.outcomes,
        total_seconds=time.perf_counter() - start,
        failures=runner.failures,
        skipped=runner.skipped,
        pool_rebuilds=runner.rebuilds,
        degraded=runner.degraded and workers > 1,
    )
