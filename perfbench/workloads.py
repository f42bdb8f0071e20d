"""The four benchmark workloads, driven through the public API only.

Every workload generates its table with ``MixtureSpec(seed=...)`` from
the run's seed: 20 AMPs (partitions), d=8 dimensions plus ``y``, at
most 2 engine workers.  The summary cache stays off (its default).

* ``build`` -- an analyst builds and applies models on a large table
  (n=200k, thread engine).  Vectorized accumulation over a warm block
  cache and engine fan-out do the work; the float blocks fit the cache.
* ``serve`` -- two client threads, each holding a ``ServingSession``,
  alternate micro-batched scoring with small SQL statements on a static
  n=20k table.  Per-statement fixed costs dominate.
* ``ingest`` -- appends beside reads on a durable database (process
  engine, WAL ``fsync_mode="batch"``).  Every append invalidates every
  cached block, so this is the workload larger than the cache.  The
  append sequence is fixed by the run length, never by the program's
  speed, so table size at every step is the same on any commit.
* ``udf_rowpath`` -- the paper's per-row UDF variants (string-passing
  nLQ, GROUP BY sub-models, scoring by join with BETA), which run on the
  per-row interpreter no other workload reaches.

Each op's answer is checked against a numpy reference (see
:mod:`checks`); a wrong answer counts as a failed op.
"""

from __future__ import annotations

import shutil
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from checks import (
    SummaryReference,
    correlation_matches,
    regression_matches,
    regression_reference,
    scores_match,
    sums_match,
)
from repro.core.models.correlation import CorrelationModel
from repro.core.models.pca import PCAModel
from repro.core.nlq_udf import nlq_call_sql, register_nlq_udfs
from repro.core.packing import unpack_summary
from repro.core.scoring.sqlgen import ScoringSqlGenerator
from repro.core.summary import MatrixType, SummaryStatistics
from repro.dbms.database import Database
from repro.dbms.persistence import database_fingerprint
from repro.dbms.schema import dataset_schema, dimension_names
from repro.dbms.sql.parser import parse_statements
from repro.dbms.wal import open_durable
from repro.errors import ServingError
from repro.twm.miner import WarehouseMiner
from repro.workloads.generator import (
    MixtureSpec,
    SyntheticDataGenerator,
    load_dataset,
)
from tracing import Tracer

D = 8
AMPS = 20
WORKERS = 2
#: bytes of one appended row as a user would count them: an int64 id
#: and d + 1 float64 values
USER_ROW_BYTES = 8 * (1 + D + 1)


class OpLog:
    """What a run did: op latencies, rows read, attempts and failures.

    Latencies of traced and untraced ops are kept apart: end-to-end
    numbers come from untraced ops only.  Thread-safe, because the
    ``serve`` clients share one log.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.latency: "dict[str, list[float]]" = {}
        self.traced_latency: "dict[str, list[float]]" = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: "list[str]" = []
        #: table rows read by untraced ops, and the seconds they took
        self.rows_read = 0
        self.busy_seconds = 0.0
        self.parse_seconds: "list[float]" = []
        self.bind_plan_seconds: "list[float]" = []
        self._lock = threading.Lock()

    def run(
        self,
        op: str,
        call: Callable[[], Any],
        check: Callable[[Any], bool],
        *,
        rows_read: int = 0,
        traced: bool = False,
        probe: "Callable[[], None] | None" = None,
    ) -> Any:
        """Time *call*, then check its answer outside the timed region.

        A refused serving request (:class:`ServingError`) counts as a
        failed op; any other exception ends the run.
        """
        tracer = self.tracer
        with tracer.request(traced):
            with tracer.span(f"op.{op}"):
                started = time.perf_counter()
                try:
                    result = call()
                    refused = None
                except ServingError as error:
                    result, refused = None, error
                seconds = time.perf_counter() - started
            if traced and probe is not None and refused is None:
                probe()
        ok = refused is None and check(result)
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.mismatches) < 20:
                    self.mismatches.append(
                        f"{op}: {refused!r}" if refused else f"{op}: wrong answer"
                    )
            if refused is None:
                bucket = self.traced_latency if traced else self.latency
                bucket.setdefault(op, []).append(seconds)
                if not traced:
                    self.rows_read += rows_read
                    self.busy_seconds += seconds
        return result

    def probe_sql(self, db: Database, texts: Iterable[str]) -> None:
        """Time parsing, then bind + plan (``explain_plan`` minus the
        parse it repeats), of each SQL text an op executed."""
        for sql in texts:
            with self.tracer.span("parser.parse"):
                started = time.perf_counter()
                parse_statements(sql)
                parsed = time.perf_counter()
            with self.tracer.span("optimizer.explain_plan"):
                db.explain_plan(sql)
                planned = time.perf_counter()
            with self._lock:
                self.parse_seconds.append(parsed - started)
                self.bind_plan_seconds.append(
                    (planned - parsed) - (parsed - started)
                )

    @property
    def ops(self) -> "list[float]":
        return [s for values in self.latency.values() for s in values]


def _child_peak_kb() -> int:
    """Summed peak RSS of this process's live child processes (the
    process-pool workers), from ``/proc``; 0 where that is unavailable."""
    import multiprocessing

    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


class Workload:
    """Set-up, a timed loop and the answers to check them against."""

    name = ""
    n = 0

    def __init__(
        self, seed: int, seconds: float, work_dir: Path, scale: float = 1.0
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        #: tests shrink the table; the benchmark always runs scale 1
        self.n = max(200, int(self.n * scale))
        self.dims = dimension_names(D)
        self.db: "Database | None" = None
        self.child_peak_kb = 0

    def config(self) -> "dict[str, Any]":
        return {
            "n": self.n,
            "d": D,
            "amps": AMPS,
            "engine_workers": WORKERS,
            "executor_kind": "thread",
            "wal_flush_policy": None,
            "clients": 1,
            "loop": "closed",
        }

    def setup(self) -> None:
        raise NotImplementedError

    def loop(self, log: OpLog, trace: bool) -> None:
        raise NotImplementedError

    def finish(self, log: OpLog) -> "dict[str, float]":
        """Work after the timed loop; returns extra end-to-end figures."""
        return {}

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    # ---------------------------------------------------- shared pieces
    def floor_matrix(self) -> np.ndarray:
        """The float matrix the hardware floors are measured on."""
        return self.X

    def _load(self, db: Database) -> None:
        self.db = db
        self.miner = WarehouseMiner(db)
        sample = load_dataset(
            db, "x", self.n, MixtureSpec(d=D, seed=self.seed), with_y=True
        )
        self.ids = sample.ids
        self.X = sample.X
        self.y = sample.y
        self.reference = SummaryReference.of(self.X)

    def _execute(self, sql: str) -> Any:
        """``db.execute``, failing the run when the process pool broke.

        The engine answers such a statement by re-running it on threads
        (a recorded degradation), so without this check a dead worker
        would only show as a slower op.
        """
        result = self.db.execute(sql)
        reason = result.metrics.fallback_reason if result.metrics else ""
        if "pool broke" in reason:
            raise RuntimeError(f"the engine's process pool broke: {reason}")
        return result

    def _summary(self, sql: str) -> "SummaryStatistics | None":
        payload = self._execute(sql).scalar()
        return None if payload is None else unpack_summary(payload)


class Build(Workload):
    """Closed loop, 1 client, n=200k, thread engine with 2 workers.

    One cycle: the nLQ summary (list passing, triangular Q),
    ``build_all_models`` and whole-table inline ``linearregscore``
    scoring.  Every :attr:`KMEANS_EVERY`-th cycle adds a fused k-means
    fit (k=8, a fixed iteration count, ``tolerance=0``), and the loop
    only stops after a fit, so every run has the same op mix.
    """

    name = "build"
    n = 200_000
    KMEANS_EVERY = 8
    K = 8
    ITERATIONS = 5

    def setup(self) -> None:
        self._load(
            Database(amps=AMPS, executor_workers=WORKERS, executor_kind="thread")
        )
        X, dims = self.X, self.dims
        self.summary_sql = nlq_call_sql("x", dims)
        self.augmented_sql = nlq_call_sql("x", ["1.0", *dims, "y"])
        stats = SummaryStatistics.from_matrix(X)
        self.correlation_ref = CorrelationModel.from_summary(stats, dims)
        self.pca_ref = PCAModel.from_summary(stats, 2)
        self.regression_ref = regression_reference(X, self.y)
        self.beta = self.regression_ref.beta
        self.score_sql = ScoringSqlGenerator("x", dims).regression_inline_sql(
            self.beta[0], self.beta[1:]
        )
        self.kmeans_ref: "np.ndarray | None" = None
        # Warm-up: start the engine pool and fill the block cache.
        self._summary(self.summary_sql)
        self.miner.build_all_models("x")
        self._execute(self.score_sql)

    def _models_ok(self, models: "dict[str, Any]") -> bool:
        pca = models["pca"]
        return (
            correlation_matches(models["correlation"], self.correlation_ref)
            and regression_matches(models["regression"], self.regression_ref)
            and bool(
                np.allclose(pca.eigenvalues, self.pca_ref.eigenvalues, rtol=1e-7)
            )
            and models["factor_analysis"].loadings.shape == (D, 2)
        )

    def _kmeans_ok(self, model: Any) -> bool:
        """Same seed, same data: every fit must equal the run's first
        fit bit for bit, after exactly the fixed iteration count."""
        sane = (
            model.iterations == self.ITERATIONS
            and bool(np.all(np.isfinite(model.centroids)))
            and abs(float(np.sum(model.weights)) - 1.0) <= 1e-9
        )
        if self.kmeans_ref is None:
            self.kmeans_ref = model.centroids.copy()
            return sane
        return sane and np.array_equal(model.centroids, self.kmeans_ref)

    def loop(self, log: OpLog, trace: bool) -> None:
        db, n = self.db, self.n

        def probe(*texts: str) -> Callable[[], None]:
            return lambda: log.probe_sql(db, texts)

        def cycle(index: int, tracing: bool) -> None:
            traced = tracing and index % 2 == 1
            log.run(
                "summary",
                lambda: self._summary(self.summary_sql),
                lambda stats: stats is not None and self.reference.matches(stats),
                rows_read=n,
                traced=traced,
                probe=probe(self.summary_sql),
            )
            log.run(
                "models",
                lambda: self.miner.build_all_models("x"),
                self._models_ok,
                rows_read=n,
                traced=traced,
                probe=probe(self.summary_sql, self.augmented_sql),
            )
            log.run(
                "score",
                lambda: self._execute(self.score_sql).rows,
                lambda rows: scores_match(rows, self.ids, self.X, self.beta),
                rows_read=n,
                traced=traced,
                probe=probe(self.score_sql),
            )
            if index % self.KMEANS_EVERY == self.KMEANS_EVERY - 1:
                # Every fit would fall on an odd (traced) cycle; trace
                # every other fit instead, so both kinds have samples.
                log.run(
                    "kmeans",
                    lambda: self.miner.kmeans(
                        "x",
                        k=self.K,
                        max_iterations=self.ITERATIONS,
                        tolerance=0.0,
                        seed=self.seed,
                        method="fused",
                    ),
                    self._kmeans_ok,
                    rows_read=n * (1 + self.ITERATIONS),
                    traced=tracing and (index // self.KMEANS_EVERY) % 2 == 1,
                )

        deadline = time.perf_counter() + self.seconds
        index = 0
        while True:
            cycle(index, trace)
            index += 1
            if index % self.KMEANS_EVERY == 0 and time.perf_counter() >= deadline:
                break


class Serve(Workload):
    """Closed loop, 2 client threads on a static n=20k table.

    The server keeps its default micro-batch settings and serves a
    k-means (k=8) and a regression model.  Each client alternates a
    micro-batched ``session.score`` of 1-8 rows with one small SQL
    statement: a primary-key point lookup, a selective filtered
    aggregate, or one-row scoring with the model inlined as literals.
    SQL statements take one lock, because ``Database.execute`` keeps
    per-statement state on the shared executor.
    """

    name = "serve"
    n = 20_000
    CLIENTS = 2
    MAX_ROWS = 8
    #: width of the filtered aggregate's x1 window (about 0.5% of rows)
    WINDOW = 0.5

    def config(self) -> "dict[str, Any]":
        return {**super().config(), "clients": self.CLIENTS}

    def setup(self) -> None:
        self._load(
            Database(amps=AMPS, executor_workers=WORKERS, executor_kind="thread")
        )
        kmeans = self.miner.kmeans(
            "x", k=8, max_iterations=5, tolerance=0.0, seed=self.seed,
            method="fused",
        )
        regression = self.miner.linear_regression("x")
        self.beta = regression.beta
        self.server = self.db.serve()
        self.server.registry.register("km", kmeans)
        self.server.registry.register("reg", regression)
        self.sql_lock = threading.Lock()
        self.scoring = ScoringSqlGenerator("x", self.dims)
        self.score_sql = self.scoring.regression_inline_sql(
            self.beta[0], self.beta[1:]
        )
        self.rows_by_id = {
            int(i): (int(i), *map(float, x), float(y))
            for i, x, y in zip(self.ids, self.X, self.y)
        }
        warm_up = OpLog(Tracer(False))
        with self.server.session() as session:
            rng = np.random.default_rng(0)
            for index in range(6):
                self._request(session, rng, index, warm_up, False)
        if warm_up.failed:
            raise RuntimeError(f"serve warm-up failed: {warm_up.mismatches}")

    def _request(
        self, session: Any, rng: Any, index: int, log: OpLog, traced: bool
    ) -> None:
        db = self.db
        kind = index // 2
        if index % 2 == 0:
            name = ("km", "reg")[kind % 2]
            rows = rng.integers(0, self.n, size=rng.integers(1, self.MAX_ROWS + 1))
            points = self.X[rows]
            log.run(
                "score",
                lambda: session.score(name, points).values,
                lambda values: values == session.model(name).score_rows(points),
                traced=traced,
            )
            return
        row = int(rng.integers(0, self.n))
        key = int(self.ids[row])
        if kind % 3 == 0:
            sql = f"SELECT * FROM x WHERE i = {key}"
            expected = [self.rows_by_id[key]]

            def check(rows: Any) -> bool:
                return rows == expected

            op = "point_lookup"
        elif kind % 3 == 1:
            low = float(rng.uniform(0.0, 100.0))
            high = low + self.WINDOW
            sql = (
                f"SELECT COUNT(*), SUM(x1) FROM x "
                f"WHERE x1 BETWEEN {low!r} AND {high!r}"
            )
            inside = self.X[(self.X[:, 0] >= low) & (self.X[:, 0] <= high), 0]

            def check(rows: Any, inside: Any = inside) -> bool:
                count, total = rows[0]
                if count != inside.shape[0]:
                    return False
                if count == 0:
                    return total is None
                return sums_match(total, inside.sum(), np.abs(inside).sum(), count)

            op = "filtered_aggregate"
        else:
            sql = f"{self.score_sql} WHERE t.i = {key}"

            def check(rows: Any) -> bool:
                one = slice(row, row + 1)
                return scores_match(rows, self.ids[one], self.X[one], self.beta)

            op = "score_sql"

        def execute() -> Any:
            with self.sql_lock:
                return self._execute(sql).rows

        def probe() -> None:
            with self.sql_lock:
                log.probe_sql(db, [sql])

        log.run(op, execute, check, rows_read=self.n, traced=traced, probe=probe)

    def loop(self, log: OpLog, trace: bool) -> None:
        deadline = time.perf_counter() + self.seconds
        errors: "list[BaseException]" = []

        def client(number: int) -> None:
            rng = np.random.default_rng([self.seed, number])
            try:
                with self.server.session() as session:
                    index = 0
                    while time.perf_counter() < deadline or index % 2:
                        traced = trace and (index // 2) % 2 == 1
                        self._request(session, rng, index, log, traced)
                        index += 1
            except BaseException as error:  # re-raised on the main thread
                errors.append(error)

        started = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(number,), name=f"client-{number}")
            for number in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.seconds + 60.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a serve client ran 60 s past the deadline")
        if errors:
            raise errors[0]
        # Concurrent clients: throughput is over the loop's wall clock.
        log.busy_seconds = time.perf_counter() - started
        self.serving = self.server.metrics.snapshot()


class Ingest(Workload):
    """Appends beside reads on a durable database.

    ``open_durable(fsync_mode="batch", wal_batch_records=8)``, process
    engine with 2 workers, seeded with n=100k rows.  Each cycle appends
    one fixed 500-row batch with ``insert_rows`` (``insert_many``), runs
    the nLQ summary (append-then-query) and runs it again (repeat).
    One cycle in every :attr:`CHECKPOINT_EVERY` checkpoints.  After the
    loop the database is closed and the directory reopened (recovery).
    """

    name = "ingest"
    n = 100_000
    BATCH = 500
    CHECKPOINT_EVERY = 16
    #: the cycle count is fixed by the run length, not by speed
    CYCLES_PER_SECOND = 2
    WAL_BATCH_RECORDS = 8

    def config(self) -> "dict[str, Any]":
        return {
            **super().config(),
            "executor_kind": "process",
            "wal_flush_policy": (
                f"fsync_mode=batch, wal_batch_records={self.WAL_BATCH_RECORDS}"
            ),
            "cycles": self.cycles,
            "batch_rows": self.BATCH,
            "checkpoint_every_cycles": self.CHECKPOINT_EVERY,
        }

    @property
    def cycles(self) -> int:
        return max(2, round(self.CYCLES_PER_SECOND * self.seconds))

    def _open(self) -> Any:
        return open_durable(
            self.directory,
            fsync_mode="batch",
            wal_batch_records=self.WAL_BATCH_RECORDS,
            amps=AMPS,
            executor_workers=WORKERS,
            executor_kind="process",
        )

    def setup(self) -> None:
        self.directory = self.work_dir / "durable"
        generator = SyntheticDataGenerator(MixtureSpec(d=D, seed=self.seed))
        seed_rows = generator.generate(self.n)
        generator.with_target(seed_rows)
        appended = generator.generate(self.cycles * self.BATCH)
        generator.with_target(appended)
        self.X, self.y = seed_rows.X, seed_rows.y
        self.pool_X = appended.X
        self.pool_rows = [
            (self.n + k + 1, *map(float, x), float(y))
            for k, (x, y) in enumerate(zip(appended.X, appended.y))
        ]
        self.db = db = self._open()
        register_nlq_udfs(db)
        db.create_table("x", dataset_schema(D, with_y=True))
        columns: "dict[str, Any]" = {"i": seed_rows.ids, "y": seed_rows.y}
        for position, name in enumerate(self.dims):
            columns[name] = seed_rows.X[:, position]
        db.load_columns("x", columns)
        self.reference = SummaryReference.of(self.X)
        self.summary_sql = nlq_call_sql("x", self.dims)
        # Warm-up: start the process pool and publish the table.
        self._summary(self.summary_sql)

    def floor_matrix(self) -> np.ndarray:
        return np.vstack([self.X, self.pool_X])

    def loop(self, log: OpLog, trace: bool) -> None:
        db = self.db
        store = db.columnar_store
        durability = db.durability
        wal_bytes, fsyncs = durability.wal_bytes, durability.fsyncs
        store_bytes = store.bytes_written

        def probe() -> None:
            log.probe_sql(db, [self.summary_sql])

        for index in range(self.cycles):
            traced = trace and index % 2 == 1
            rows = self.pool_rows[index * self.BATCH : (index + 1) * self.BATCH]
            log.run(
                "insert",
                lambda: db.insert_rows("x", rows),
                lambda count: count == self.BATCH,
                traced=traced,
            )
            self.reference.extend(
                self.pool_X[index * self.BATCH : (index + 1) * self.BATCH]
            )
            for op in ("summary_after_append", "summary_repeat"):
                log.run(
                    op,
                    lambda: self._summary(self.summary_sql),
                    lambda stats: stats is not None
                    and self.reference.matches(stats),
                    rows_read=self.reference.n,
                    traced=traced,
                    probe=probe,
                )
            # Checkpoints fall mid-block, so the log still holds the
            # last cycles at close and recovery has records to replay.
            if index % self.CHECKPOINT_EVERY == self.CHECKPOINT_EVERY // 2:
                # Trace every other checkpoint, not every one (they all
                # fall on even cycles).
                log.run(
                    "checkpoint",
                    db.checkpoint,
                    Path.exists,
                    traced=trace and (index // self.CHECKPOINT_EVERY) % 2 == 1,
                )
        appended = self.cycles * self.BATCH
        user_bytes = appended * USER_ROW_BYTES
        self.wal_bytes_per_user_byte = (durability.wal_bytes - wal_bytes) / user_bytes
        self.fsyncs_per_1k_rows = 1000.0 * (durability.fsyncs - fsyncs) / appended
        self.store_bytes_per_user_byte = (store.bytes_written - store_bytes) / user_bytes
        self.child_peak_kb = _child_peak_kb()

    def finish(self, log: OpLog) -> "dict[str, float]":
        before = database_fingerprint(self.db)
        self.db.close()
        self.db = None
        started = time.perf_counter()
        reopened = self._open()
        recovery_s = time.perf_counter() - started
        try:
            same = database_fingerprint(reopened) == before
            self.replayed_records = reopened.durability.recovery_replayed_records
        finally:
            reopened.close()
        log.attempted += 1
        if not same:
            log.failed += 1
            log.mismatches.append("recovery: fingerprint differs after reopen")
        return {"recovery_s": recovery_s}

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.directory, ignore_errors=True)


class UdfRowpath(Workload):
    """Closed loop, 1 client, n=20k, thread engine with 2 workers.

    One cycle: string-passing nLQ (the paper's Figure 3), the GROUP BY
    ``sub_models`` summaries (Table 5) and regression scoring by join
    with the one-row BETA table (Table 4).
    """

    name = "udf_rowpath"
    n = 20_000
    GROUP_BY = "(i MOD 4) + 1"

    def setup(self) -> None:
        self._load(
            Database(amps=AMPS, executor_workers=WORKERS, executor_kind="thread")
        )
        dims = self.dims
        self.summary_sql = nlq_call_sql(
            "x", dims, MatrixType.TRIANGULAR, "string"
        )
        self.groups_sql = nlq_call_sql(
            "x", dims, MatrixType.TRIANGULAR, "list", group_by=self.GROUP_BY
        )
        groups = (self.ids % 4) + 1
        self.group_refs = {
            g: CorrelationModel.from_summary(
                SummaryStatistics.from_matrix(self.X[groups == g])
            )
            for g in (1, 2, 3, 4)
        }
        regression = self.miner.linear_regression("x")
        if not regression_matches(regression, regression_reference(self.X, self.y)):
            raise RuntimeError("udf_rowpath: regression fit differs from numpy")
        self.beta = regression.beta
        self.scorer = self.miner.scorer("x")
        self.scorer.store_regression(regression)
        self.score_sql = ScoringSqlGenerator("x", dims).regression_udf_sql()
        # Warm-up: start the engine pool.
        self.miner.sub_models("x", self.GROUP_BY)

    def _groups_ok(self, models: "dict[Any, Any]") -> bool:
        return sorted(models) == [1, 2, 3, 4] and all(
            correlation_matches(models[g], self.group_refs[g]) for g in models
        )

    def loop(self, log: OpLog, trace: bool) -> None:
        db, n = self.db, self.n

        def probe(sql: str) -> Callable[[], None]:
            return lambda: log.probe_sql(db, [sql])

        def cycle(index: int, traced: bool) -> None:
            log.run(
                "summary",
                lambda: self._summary(self.summary_sql),
                lambda stats: stats is not None and self.reference.matches(stats),
                rows_read=n,
                traced=traced,
                probe=probe(self.summary_sql),
            )
            log.run(
                "models",
                lambda: self.miner.sub_models("x", self.GROUP_BY),
                self._groups_ok,
                rows_read=n,
                traced=traced,
                probe=probe(self.groups_sql),
            )
            log.run(
                "score",
                lambda: self.scorer.score_regression(method="udf").rows,
                lambda rows: scores_match(rows, self.ids, self.X, self.beta),
                rows_read=n + 1,
                traced=traced,
                probe=probe(self.score_sql),
            )

        deadline = time.perf_counter() + self.seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            cycle(index, trace and index % 2 == 1)
            index += 1


WORKLOADS = {w.name: w for w in (Build, Serve, Ingest, UdfRowpath)}
