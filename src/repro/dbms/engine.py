"""The parallel partition-execution engine.

The paper's run-time story (Section 3.4) is partition-parallel
aggregation: every AMP scans its own horizontal partition and folds rows
into a private partial state; the partials are then merged into the
final answer.  The storage layer has always been partitioned that way —
this module makes the execution actually concurrent, and makes it
*survivable*: a slow, crashing, or flaky partition task may cost the
statement, never a hang, a leaked sibling task, or a nondeterministic
error.

:class:`PartitionEngine` runs one task per partition on a
``ThreadPoolExecutor`` or — ``kind="process"`` — a
``ProcessPoolExecutor``.  Threads are the right fit when the hot
per-partition work is vectorized numpy (block materialization of cached
float columns and the aggregate block updates — ``X.T @ X``, axis sums,
extrema — release the GIL), and they remain the default.  Processes are
the right fit for the **GIL-bound** sites: row-path aggregate
accumulation, fused clustering iterations over Python state machines,
and factorized fact-table folds, where every thread serializes on the
interpreter lock no matter how many cores exist.

The process path never pickles row data.  Callers pass ``map`` a
``payloads`` list of plain descriptors — ``(columnar-store root, table,
version, partition id, plan description)`` — aligned with the task
callables.  Both forms run the same task body
(:data:`repro.dbms.sql.executor.TASK_BODIES`): a thread calls it on the
in-memory partition, a worker process
(:mod:`repro.dbms.parallel_worker`) on the partition's published block
file opened via ``mmap`` (:mod:`repro.dbms.columnar`), with the plan
fragment recompiled from the description (cached per worker), and
returns only the partial state.  Tasks whose plan cannot be described
this way (materialized relations, the batched shared scan) pass
``payloads=None`` and run on threads; an unpicklable description
(closures over lambdas) falls back to threads too — the process
executor is an optimization with a by-construction thread fallback,
never a correctness requirement.  Fault-plan semantics are
preserved by shipping each attempt a snapshot of the plan's counters
and absorbing the worker's counter deltas back into the coordinating
plan — for failed attempts too, which is what lets bounded retries
absorb flaky faults exactly as they do under threads (trip decisions
are keyed per ``(spec, partition)``, and a worker owns its partition
for the duration of the attempt).

Invariants the executor relies on:

* **Deterministic merge order.**  ``map`` returns results in *task
  submission order* (= partition order), never completion order, so the
  partial-result merge — and therefore every floating-point sum and the
  first-appearance ordering of GROUP BY keys — is identical whether the
  engine runs serial or with any number of workers.
* **Deterministic error identity.**  Results are gathered strictly in
  submission order, so the first failure the caller sees is always the
  lowest-numbered failing partition.  Serial execution (``workers=1``)
  re-raises that error as-is — bit-identical to the seed engine.
  Parallel execution raises
  :class:`~repro.errors.PartitionExecutionError` aggregating every
  *observed* sibling error with per-partition attribution; its
  ``first_error`` (also the ``__cause__``) is that same deterministic
  first failure.
* **No leaked work.**  On a fatal task failure the engine cancels every
  future that has not started and *waits out* the ones already running
  before raising — no task outlives the ``map`` call.  The one
  exception is a task **timeout**: a Python thread cannot be killed, so
  the engine abandons its pool (``shutdown(wait=False)``), lazily
  creates a fresh one for the next statement, and the stuck task stays
  visible through :attr:`PartitionEngine.active_tasks` until it
  finishes on the orphaned pool.

Fault tolerance knobs (all default off; see ``docs/fault_tolerance.md``):

* ``timeout_seconds`` — per-task result-wait budget.  Timeouts are
  fatal, never retried (the worker may still be running the task).
* ``max_retries`` / ``retry_backoff_seconds`` — bounded retries with
  exponential backoff, applied **only** to ``map(..., idempotent=True)``
  calls (pure partition scans are; DML is not).  Retries run inside the
  worker, so result ordering and pool occupancy are unchanged.
* ``faults`` — a :class:`~repro.dbms.faults.FaultPlan` arming the
  ``engine.task`` injection site inside the task wrapper.

With the defaults (``NULL_FAULTS``, no timeout, no retries) ``map``
takes the exact pre-supervision code path: no wrapper closures, no
bookkeeping, one extra attribute check — benchmarked by
``benchmarks/test_fault_overhead.py``.

``workers=1`` (the default everywhere) bypasses the pool entirely and
runs tasks inline, preserving the seed engine's bit-identical behaviour
and zero thread overhead.

The thread pool is **persistent**: it is created lazily on the first
parallel ``map`` call and reused by every subsequent one, so iterative
workloads (K-means/EM issue one scan per iteration) stop paying pool
construction and teardown per query.  :meth:`PartitionEngine.close`
shuts the pool down; ``Database.close()`` (and its context manager)
call it.  A closed engine simply re-creates the pool on next use.
"""

from __future__ import annotations

import pickle
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any, Callable, Sequence, TypeVar

from repro.dbms.faults import NULL_FAULTS, FaultPlan, NullFaults
from repro.dbms.trace import Span
from repro.errors import (
    ExecutionError,
    PartitionExecutionError,
    PartitionTimeoutError,
)

T = TypeVar("T")

#: engine executor kinds (``Database(executor_kind=...)``)
EXECUTOR_KINDS = ("thread", "process")


def _process_context():
    """The multiprocessing start method for worker pools.

    ``forkserver`` when available (cheap spawns, and — unlike ``fork``
    — no risk of duplicating the coordinator's held locks into a child
    that then deadlocks), ``spawn`` otherwise.  Never ``fork``.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context("spawn")


class PartitionEngine:
    """Runs per-partition tasks serially or on a bounded worker pool."""

    def __init__(
        self,
        workers: int = 1,
        *,
        timeout_seconds: float | None = None,
        max_retries: int = 0,
        retry_backoff_seconds: float = 0.01,
        faults: "FaultPlan | NullFaults" = NULL_FAULTS,
        kind: str = "thread",
    ) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff_seconds < 0:
            raise ValueError("retry_backoff_seconds must be >= 0")
        if kind not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor kind must be one of {EXECUTOR_KINDS}, got {kind!r}"
            )
        self._workers = workers
        self._kind = kind
        self._pool: ThreadPoolExecutor | None = None
        self._process_pool: Any | None = None
        self._pool_lock = threading.Lock()
        #: why the most recent ``map`` ran on threads although it was
        #: given process payloads (unpicklable payload), else None; the
        #: executor also clears it when a statement starts and counts
        #: it as a fallback in the statement's QueryMetrics
        self.last_process_fallback: str | None = None
        #: children terminated by the most recent ``_abandon_pool``
        #: (the process-latch test asserts these PIDs die)
        self.last_terminated_pids: list[int] = []
        #: pools created over this engine's lifetime (regression tests
        #: assert repeated queries reuse one pool instead of churning)
        self.pools_created = 0
        #: per-task wait budget; None = wait forever (seed behaviour)
        self.timeout_seconds = timeout_seconds
        #: bounded retry budget for idempotent tasks
        self.max_retries = max_retries
        #: first backoff sleep; doubles per attempt (exponential)
        self.retry_backoff_seconds = retry_backoff_seconds
        #: fault-injection plan consulted at the ``engine.task`` site
        self.faults = faults
        #: retries spent / timeouts hit by the most recent ``map`` call
        #: (coordinator-read; the executor folds them into QueryMetrics)
        self.last_task_retries = 0
        self.last_task_timeouts = 0
        self._active_lock = threading.Lock()
        self._active_tasks = 0

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def kind(self) -> str:
        """``"thread"`` or ``"process"`` (the configured executor)."""
        return self._kind

    @property
    def parallel(self) -> bool:
        return self._workers > 1

    @property
    def uses_processes(self) -> bool:
        """Whether a ``map`` with payloads would fan out to processes."""
        return self._kind == "process" and self._workers > 1

    @property
    def active_tasks(self) -> int:
        """Tasks currently executing a body on any thread.

        Zero whenever no ``map`` call is in flight — except after a
        timeout, when the abandoned task stays counted until it finishes
        on the orphaned pool (chaos tests poll this to prove stuck work
        drains instead of leaking forever).
        """
        with self._active_lock:
            return self._active_tasks

    @property
    def supervised(self) -> bool:
        """Whether map() must wrap tasks (faults, timeouts or retries)."""
        return (
            self.faults.enabled
            or self.timeout_seconds is not None
            or self.max_retries > 0
        )

    def configured_like(
        self, workers: int, kind: str | None = None
    ) -> "PartitionEngine":
        """A new engine with this one's supervision config but *workers*
        workers (``Database.executor_workers`` swap path)."""
        return PartitionEngine(
            workers,
            timeout_seconds=self.timeout_seconds,
            max_retries=self.max_retries,
            retry_backoff_seconds=self.retry_backoff_seconds,
            faults=self.faults,
            kind=self._kind if kind is None else kind,
        )

    def _acquire_pool(self) -> ThreadPoolExecutor:
        """The persistent pool, created lazily on first parallel use."""
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=self._workers,
                        thread_name_prefix="repro-amp",
                    )
                    self._pool = pool
                    self.pools_created += 1
        return pool

    def _acquire_process_pool(self) -> Any:
        """The persistent worker-process pool, created lazily.

        Creation warms the pool: every worker is spawned, runs the
        import-heavy initializer, and answers one warm-up task before
        this returns.  Cold-start cost is therefore paid once here —
        never against a real task's wall clock, so ``timeout_seconds``
        measures the task, not process spawning.
        """
        pool = self._process_pool
        if pool is None:
            with self._pool_lock:
                pool = self._process_pool
                if pool is None:
                    from concurrent.futures import ProcessPoolExecutor

                    from repro.dbms.parallel_worker import (
                        warm_worker,
                        worker_init,
                    )

                    pool = ProcessPoolExecutor(
                        max_workers=self._workers,
                        mp_context=_process_context(),
                        initializer=worker_init,
                    )
                    warmups = [
                        pool.submit(warm_worker, 0.05)
                        for _ in range(self._workers)
                    ]
                    for future in warmups:
                        try:
                            future.result(timeout=60.0)
                        except Exception:  # pragma: no cover - broken pool
                            # Leave the failure to the first real map,
                            # which has typed error handling for it.
                            break
                    self._process_pool = pool
                    self.pools_created += 1
        return pool

    def close(self) -> None:
        """Shut the persistent pools down (idempotent).

        The engine stays usable: the next parallel ``map`` lazily
        creates a fresh pool.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            process_pool, self._process_pool = self._process_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if process_pool is not None:
            process_pool.shutdown(wait=True)

    def _abandon_pool(self) -> None:
        """Detach the pools without waiting (timeout path).

        Thread pool: its threads finish their current tasks and exit;
        the next parallel ``map`` creates a fresh pool so new statements
        never queue behind a stuck task.  Process pool: unlike a thread,
        a stuck child *can* be killed, so the engine terminates every
        worker process — no orphaned children survive a fatal timeout
        (:attr:`last_terminated_pids` records what was killed).
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            process_pool, self._process_pool = self._process_pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if process_pool is not None:
            self._terminate_process_pool(process_pool)

    def _terminate_process_pool(self, pool: Any) -> None:
        """Kill a process pool's children: terminate, bounded join,
        then SIGKILL stragglers.  Best-effort by design — the pool's
        own management thread may be reaping concurrently."""
        try:
            processes = list(getattr(pool, "_processes", {}).values())
        except Exception:  # pragma: no cover - internal layout changed
            processes = []
        self.last_terminated_pids = [
            proc.pid for proc in processes if proc.pid is not None
        ]
        pool.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + 5.0
        for proc in processes:
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:  # pragma: no cover - already reaped
                pass
        for proc in processes:
            try:
                proc.join(max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.kill()
                    proc.join(1.0)
            except Exception:  # pragma: no cover - already reaped
                pass

    def map(
        self,
        tasks: Sequence[Callable[[], T]],
        spans: list[Span] | None = None,
        *,
        idempotent: bool = False,
        partition_ids: Sequence[int] | None = None,
        payloads: Sequence[Any] | None = None,
    ) -> list[T]:
        """Run every task and return the results in task order.

        Completion order never matters: results are gathered by
        submission index, so merging ``map`` output left-to-right is
        deterministic regardless of scheduling.

        ``idempotent=True`` declares the tasks safe to re-run (pure
        partition scans); only then do the engine's bounded retries
        apply.  ``partition_ids`` (aligned with *tasks*) labels errors
        and timeouts with real partition numbers; the task index is used
        when omitted.

        When *spans* is a list (EXPLAIN ANALYZE tracing), one
        :class:`~repro.dbms.trace.Span` per task is appended to it — in
        task order — recording the task's run seconds, the time it
        waited in the pool queue, the worker thread that ran it, and
        (when supervision retried it) its ``retries`` count.  Each span
        is built inside its own task, so no shared state is written from
        worker threads; the caller attaches the collected spans to its
        trace afterwards.  ``spans=None`` (every non-traced query) adds
        no per-task work beyond a constant ``if``.

        *payloads* (aligned with *tasks*) offers a process-shippable
        descriptor per task: when this engine is ``kind="process"`` and
        parallel, the descriptors are pickled to pool worker processes
        instead of running *tasks* on threads (see
        :mod:`repro.dbms.parallel_worker`).  An unpicklable payload
        falls back to the thread path and records why in
        :attr:`last_process_fallback`.  ``payloads=None`` — tasks whose
        plan fragment cannot be described — always runs on threads.
        """
        self.last_task_retries = 0
        self.last_task_timeouts = 0
        self.last_process_fallback = None
        if (
            payloads is not None
            and self._kind == "process"
            and self._workers > 1
            and len(tasks) > 1
            and len(payloads) == len(tasks)
        ):
            prepared = self._prepare_process(payloads)
            if prepared is not None:
                return self._run_process(
                    prepared,
                    spans,
                    idempotent=idempotent,
                    partition_ids=partition_ids,
                )
        supervised = self.supervised
        retry_counts: list[int] | None = None
        if supervised:
            # Each slot is written only by its own task's wrapper.
            retry_counts = [0] * len(tasks)

        if spans is None and not supervised:
            run_tasks: Sequence[Callable[[], T]] = tasks
        else:
            task_spans: list[Span | None] | None = (
                None if spans is None else [None] * len(tasks)
            )
            run_tasks = [
                self._instrument(
                    index,
                    task,
                    task_spans,
                    retry_counts,
                    idempotent,
                    partition_ids,
                )
                for index, task in enumerate(tasks)
            ]

        try:
            if self._workers == 1 or len(run_tasks) <= 1:
                results = self._run_inline(run_tasks, partition_ids)
            else:
                results = self._run_pooled(run_tasks, partition_ids)
        finally:
            # Counters must survive a raising map: a failed statement
            # (or one that degrades to the row path) still reports the
            # retries its tasks spent before giving up.
            if retry_counts is not None:
                self.last_task_retries = sum(retry_counts)
        if spans is not None:
            spans.extend(span for span in task_spans if span is not None)
        return results

    # ------------------------------------------------------------ wrappers
    def _instrument(
        self,
        index: int,
        task: Callable[[], T],
        task_spans: "list[Span | None] | None",
        retry_counts: "list[int] | None",
        idempotent: bool,
        partition_ids: Sequence[int] | None,
    ) -> Callable[[], T]:
        """Wrap one task with tracing and/or supervision.

        The retry loop lives *inside* the wrapper, so a retried task
        keeps its pool slot and its submission-order position; the
        backoff sleeps on the worker thread, never the coordinator.
        """
        submitted = time.perf_counter()
        faults = self.faults
        retries = self.max_retries if idempotent else 0
        backoff = self.retry_backoff_seconds
        partition = (
            partition_ids[index] if partition_ids is not None else index
        )

        def run() -> T:
            with self._active_lock:
                self._active_tasks += 1
            started = time.perf_counter()
            try:
                attempt = 0
                while True:
                    try:
                        if faults.enabled:
                            faults.fire(
                                "engine.task",
                                partition=partition,
                                attempt=attempt,
                            )
                        result = task()
                        break
                    except Exception:
                        if attempt >= retries:
                            raise
                        if backoff:
                            time.sleep(backoff * (2.0 ** attempt))
                        attempt += 1
                        if retry_counts is not None:
                            retry_counts[index] = attempt
                if task_spans is not None:
                    span = Span(
                        "task",
                        seconds=time.perf_counter() - started,
                        attributes={
                            "index": index,
                            "queued_seconds": started - submitted,
                            "thread": threading.current_thread().name,
                        },
                    )
                    if attempt:
                        span.attributes["retries"] = attempt
                    task_spans[index] = span
                return result
            finally:
                with self._active_lock:
                    self._active_tasks -= 1

        return run

    # ----------------------------------------------------------- execution
    def _run_inline(
        self,
        run_tasks: Sequence[Callable[[], T]],
        partition_ids: Sequence[int] | None,
    ) -> list[T]:
        """Serial execution: errors re-raise as-is (seed behaviour).

        A timeout cannot preempt an inline task, so it is enforced
        post-hoc: a task that ran longer than the budget still fails the
        statement, keeping serial and parallel runs of a delay fault
        equally fatal.
        """
        timeout = self.timeout_seconds
        results: list[T] = []
        for index, task in enumerate(run_tasks):
            started = time.perf_counter()
            results.append(task())
            if (
                timeout is not None
                and time.perf_counter() - started > timeout
            ):
                partition = (
                    partition_ids[index]
                    if partition_ids is not None
                    else index
                )
                self.last_task_timeouts += 1
                raise PartitionTimeoutError(partition, timeout)
        return results

    def _run_pooled(
        self,
        run_tasks: Sequence[Callable[[], T]],
        partition_ids: Sequence[int] | None,
    ) -> list[T]:
        """Pool execution with submission-order gathering, per-task
        timeouts, and cancel + drain on fatal failure."""
        pool = self._acquire_pool()
        futures: list[Future] = [pool.submit(task) for task in run_tasks]
        timeout = self.timeout_seconds
        results: list[T] = []
        errors: list[tuple[int | None, BaseException]] = []
        timed_out = False
        for index, future in enumerate(futures):
            partition = (
                partition_ids[index] if partition_ids is not None else index
            )
            try:
                results.append(future.result(timeout))
            except FutureTimeout:
                self.last_task_timeouts += 1
                errors.append(
                    (partition, PartitionTimeoutError(partition, timeout))
                )
                timed_out = True
                break
            except Exception as exc:
                errors.append((partition, exc))
                # First cancel everything still pending in one fast
                # pass — interleaving cancellation with draining would
                # let the workers grab (and run) tasks we are about to
                # cancel.  Then wait out the siblings that were already
                # running, collecting their errors (bounded wait — they
                # are not hung, or we would have configured a timeout)
                # for attribution, preserving this error as the
                # deterministic first.
                survivors = [
                    later_index
                    for later_index in range(index + 1, len(futures))
                    if not futures[later_index].cancel()
                ]
                for later_index in survivors:
                    later_partition = (
                        partition_ids[later_index]
                        if partition_ids is not None
                        else later_index
                    )
                    try:
                        futures[later_index].result(timeout)
                    except FutureTimeout:
                        self.last_task_timeouts += 1
                        errors.append(
                            (
                                later_partition,
                                PartitionTimeoutError(
                                    later_partition, timeout
                                ),
                            )
                        )
                        timed_out = True
                    except Exception as sibling_exc:
                        errors.append((later_partition, sibling_exc))
                break
        if not errors:
            return results
        cancelled = sum(1 for future in futures if future.cancelled())
        if timed_out:
            # The stuck worker cannot be interrupted; abandon the pool
            # so the next statement never queues behind it.
            self._abandon_pool()
        raise PartitionExecutionError(
            errors, cancelled=cancelled
        ) from errors[0][1]

    # ------------------------------------------------------ process path
    def _prepare_process(
        self, payloads: Sequence[Any]
    ) -> "list[Any] | None":
        """Pickle-probe the payloads (one cheap dumps) before fanning
        out; an unpicklable plan fragment (e.g. a lambda-backed UDF)
        means the statement runs on threads instead of failing."""
        materialized = list(payloads)
        try:
            pickle.dumps(materialized)
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            self.last_process_fallback = detail[:200]
            return None
        return materialized

    def _task_done(self, future: Future) -> None:
        with self._active_lock:
            self._active_tasks -= 1

    def _run_process(
        self,
        payloads: "list[Any]",
        spans: "list[Span] | None",
        *,
        idempotent: bool,
        partition_ids: Sequence[int] | None,
    ) -> list[Any]:
        """Fan payload descriptors out to worker processes.

        Mirrors ``_run_pooled``'s contract exactly: submission-order
        gathering (deterministic merge and first-error identity),
        cancel + drain on a fatal error, pool abandonment on timeout —
        plus the process-specific pieces:

        * Each attempt ships a :meth:`~repro.dbms.faults.FaultPlan.fork`
          snapshot of the fault plan; the worker returns its counter
          deltas (for failed attempts too), which are absorbed into the
          coordinating plan before any retry resubmits with a fresh
          fork.  Per-``(spec, partition)`` trip keys make this
          equivalent to threads firing on the shared plan.
        * Retries run on the coordinator (a resubmission), not inside
          the worker, because every attempt needs a fresh snapshot.
        * A broken pool (a worker died hard) surfaces as a typed
          :class:`~repro.errors.ExecutionError` inside the usual
          :class:`~repro.errors.PartitionExecutionError`.
        """
        from repro.dbms.parallel_worker import run_task

        pool = self._acquire_process_pool()
        plan = self.faults if isinstance(self.faults, FaultPlan) else None
        retries = self.max_retries if idempotent else 0
        backoff = self.retry_backoff_seconds
        timeout = self.timeout_seconds
        retry_counts = [0] * len(payloads)
        submitted_at = time.perf_counter()

        def partition_of(index: int) -> int:
            return (
                partition_ids[index] if partition_ids is not None else index
            )

        def submit(index: int, attempt: int) -> Future:
            snapshot = plan.fork() if plan is not None else None
            future = pool.submit(
                run_task,
                payloads[index],
                snapshot,
                partition_of(index),
                attempt,
            )
            with self._active_lock:
                self._active_tasks += 1
            future.add_done_callback(self._task_done)
            return future

        def absorb(meta: "dict[str, Any] | None") -> None:
            if plan is not None and meta:
                plan.absorb(meta.get("hits", {}), meta.get("tripped", {}))

        results: list[Any] = []
        errors: list[tuple[int | None, BaseException]] = []
        timed_out = False
        broken = False
        task_spans: "list[Span | None] | None" = (
            None if spans is None else [None] * len(payloads)
        )
        try:
            futures: list[Future] = [
                submit(index, 0) for index in range(len(payloads))
            ]
        except BrokenExecutor as exc:
            self._abandon_pool()
            error = ExecutionError(f"worker process pool broke: {exc}")
            raise PartitionExecutionError(
                [(partition_of(0), error)]
            ) from error
        try:
            for index, future in enumerate(list(futures)):
                partition = partition_of(index)
                attempt = 0
                seconds = 0.0
                pid: int | None = None
                try:
                    while True:
                        status, value, meta = futures[index].result(timeout)
                        absorb(meta)
                        if meta:
                            seconds += meta.get("seconds", 0.0)
                            pid = meta.get("pid", pid)
                        if status == "ok":
                            break
                        if attempt >= retries:
                            raise value
                        if backoff:
                            time.sleep(backoff * (2.0**attempt))
                        attempt += 1
                        retry_counts[index] = attempt
                        futures[index] = submit(index, attempt)
                except FutureTimeout:
                    self.last_task_timeouts += 1
                    errors.append(
                        (partition, PartitionTimeoutError(partition, timeout))
                    )
                    timed_out = True
                    break
                except BrokenExecutor as exc:
                    errors.append(
                        (
                            partition,
                            ExecutionError(
                                f"worker process pool broke: {exc}"
                            ),
                        )
                    )
                    broken = True
                    break
                except Exception as exc:
                    errors.append((partition, exc))
                    # Same fatal-error shape as the thread pool: cancel
                    # everything still pending in one pass, then wait
                    # out already-running siblings for attribution —
                    # absorbing their fault deltas so the coordinating
                    # plan's counters stay exact even on a failed
                    # statement.
                    survivors = [
                        later
                        for later in range(index + 1, len(futures))
                        if not futures[later].cancel()
                    ]
                    for later in survivors:
                        later_partition = partition_of(later)
                        try:
                            sib_status, sib_value, sib_meta = futures[
                                later
                            ].result(timeout)
                            absorb(sib_meta)
                            if sib_status != "ok":
                                errors.append((later_partition, sib_value))
                        except FutureTimeout:
                            self.last_task_timeouts += 1
                            errors.append(
                                (
                                    later_partition,
                                    PartitionTimeoutError(
                                        later_partition, timeout
                                    ),
                                )
                            )
                            timed_out = True
                        except Exception as sibling_exc:
                            errors.append((later_partition, sibling_exc))
                    break
                results.append(value)
                if task_spans is not None:
                    wall = time.perf_counter() - submitted_at
                    span = Span(
                        "task",
                        seconds=seconds,
                        attributes={
                            "index": index,
                            "queued_seconds": max(0.0, wall - seconds),
                            "thread": f"process-{pid}",
                        },
                    )
                    if attempt:
                        span.attributes["retries"] = attempt
                    task_spans[index] = span
        finally:
            self.last_task_retries = sum(retry_counts)
        if not errors:
            if spans is not None and task_spans is not None:
                spans.extend(
                    span for span in task_spans if span is not None
                )
            return results
        cancelled = sum(1 for future in futures if future.cancelled())
        if timed_out or broken:
            # A stuck or dead child must not leak: terminate the pool's
            # worker processes (recorded in ``last_terminated_pids``).
            self._abandon_pool()
        raise PartitionExecutionError(
            errors, cancelled=cancelled
        ) from errors[0][1]
