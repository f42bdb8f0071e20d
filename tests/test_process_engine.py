"""Executor parity: serial, thread-pool and process-pool answers match.

The process-pool engine ships ``(table, partition, plan fragment)``
descriptors to worker processes that re-execute the same per-partition
fold over mmap'd columnar blocks.  Because every partial is produced by
the same deterministic code over the same stored values, and partials
merge strictly in partition order, the three executors must agree **bit
for bit** — not approximately — on every workload class the paper's
pipeline exercises: row-path and vectorized aggregation, vectorized
scoring projections, fused clustering iterations, and factorized
fact-table folds.

A chaos regime pinned to ``executor_kind="process"`` then replays the
fault-injection contract on the process path: typed errors with
partition attribution, bounded retries healing flaky tasks, fatal
timeouts tearing the pool down, and full reusability afterwards.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.models.kmeans import KMeansModel
from repro.core.nlq_udf import (
    compute_nlq_udf,
    nlq_call_sql,
    register_nlq_udfs,
)
from repro.core.scoring.sqlgen import ScoringSqlGenerator
from repro.core.scoring.udfs import register_scoring_udfs
from repro.dbms.database import Database
from repro.dbms.faults import FaultPlan, FaultSpec
from repro.dbms.schema import (
    Column,
    TableSchema,
    dataset_schema,
    dimension_names,
)
from repro.dbms.types import SqlType
from repro.dbms.udf import scalar_udf
from repro.errors import PartitionExecutionError, ReproError

D = 2
N_ROWS = 96

_SETTINGS = dict(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_GEN = ScoringSqlGenerator("x", ["x1", "x2"])

AGG_ROW = (
    "SELECT i MOD 3, sum(x1), sum(y), count(*) FROM x "
    "WHERE i >= 1 GROUP BY i MOD 3 ORDER BY 1"
)
AGG_VECTOR = "SELECT sum(x1), sum(x2), count(*) FROM x"
SCORING = _GEN.regression_inline_sql(2.0, [1.0, -2.0])
# Mixed-type table: the projection serves raw VARCHAR / oversize INTEGER
# / NULL-bearing values from the partition's stored columns (threads) or
# from the block's object sidecar and NULL bitmaps (processes).
MIXED_PROJECTION = "SELECT k, s, big, f * 2.0 FROM m WHERE f > 45.0"
MIXED_GROUP_BY = (
    "SELECT k MOD 3, count(*), sum(f), count(s), sum(big) FROM m "
    "WHERE f IS NULL OR f < 55.0 GROUP BY k MOD 3 ORDER BY 1"
)


def _columns(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(50.0, 10.0, size=(N_ROWS, D))
    y = 2.0 + X @ np.asarray([1.0, -2.0]) + rng.normal(0, 0.1, N_ROWS)
    columns = {"i": np.arange(1, N_ROWS + 1), "y": y}
    for index, name in enumerate(dimension_names(D)):
        columns[name] = X[:, index]
    return columns


def _db(columns, kind, workers=4):
    """serial = one worker (inline execution); thread/process = pools."""
    db = Database(
        amps=4,
        executor_workers=1 if kind == "serial" else workers,
        executor_kind="thread" if kind == "serial" else kind,
    )
    db.create_table("x", dataset_schema(D, with_y=True))
    db.load_columns("x", columns)
    register_nlq_udfs(db)
    register_scoring_udfs(db)
    return db


def _each_kind(columns, workers, run, expect_process_path=None):
    """Run *run* under serial/thread/process and return the results.

    When *expect_process_path* is set, the process run must have taken
    the descriptor path for it (no pickle-probe fallback).
    """
    out = {}
    for kind in ("serial", "thread", "process"):
        with _db(columns, kind, workers) as db:
            out[kind] = run(db)
            if kind == "process":
                assert db._executor.engine.uses_processes
                if expect_process_path:
                    assert db._executor.engine.last_process_fallback is None
    return out


# ----------------------------------------------------------- bit parity
class TestExecutorParity:
    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(**_SETTINGS)
    def test_row_path_aggregate(self, seed, workers):
        results = _each_kind(
            _columns(seed),
            workers,
            lambda db: db.execute(AGG_ROW).rows,
            expect_process_path=True,
        )
        assert results["thread"] == results["serial"]
        assert results["process"] == results["serial"]

    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(**_SETTINGS)
    def test_vectorized_aggregate(self, seed, workers):
        results = _each_kind(
            _columns(seed),
            workers,
            lambda db: db.execute(AGG_VECTOR).rows,
            expect_process_path=True,
        )
        assert results["thread"] == results["serial"]
        assert results["process"] == results["serial"]

    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(**_SETTINGS)
    def test_vectorized_scoring(self, seed, workers):
        results = _each_kind(
            _columns(seed),
            workers,
            lambda db: db.execute(SCORING).rows,
            expect_process_path=True,
        )
        assert results["thread"] == results["serial"]
        assert results["process"] == results["serial"]

    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(**_SETTINGS)
    def test_mixed_type_columns(self, seed, workers):
        rng = np.random.default_rng(seed)
        rows = [
            (
                k,
                None if k % 5 == 0 else float(rng.normal(50.0, 10.0)),
                None if k % 7 == 0 else f"s{int(rng.integers(0, 1000))}",
                2**70 + int(rng.integers(0, 1000)) if k % 3 else k,
            )
            for k in range(1, N_ROWS + 1)
        ]

        def run(db):
            db.create_table(
                "m",
                TableSchema.build(
                    [
                        Column("k", SqlType.INTEGER, nullable=False),
                        ("f", SqlType.FLOAT),
                        ("s", SqlType.VARCHAR),
                        ("big", SqlType.INTEGER),
                    ],
                    primary_key="k",
                ),
            )
            db.insert_rows("m", rows)
            plan = db.execute("EXPLAIN " + MIXED_PROJECTION).rows
            assert any("vectorized-scan" in line for (line,) in plan)
            out = []
            for sql in (MIXED_PROJECTION, MIXED_GROUP_BY):
                result = db.execute(sql)
                assert result.metrics.fallbacks == 0, (
                    result.metrics.fallback_reason
                )
                out.append(result.rows)
            return out

        results = _each_kind(
            _columns(seed), workers, run, expect_process_path=True
        )
        assert results["thread"] == results["serial"]
        assert results["process"] == results["serial"]

    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(**_SETTINGS)
    def test_fused_clustering(self, seed, workers):
        def fit(db):
            model = KMeansModel.fit_dbms(
                db, "x", dimension_names(D), 3, seed=0
            )
            return model.centroids, model.radii, model.weights

        results = _each_kind(_columns(seed), workers, fit)
        for kind in ("thread", "process"):
            for got, want in zip(results[kind], results["serial"]):
                assert np.array_equal(got, want)

    @given(
        seed=st.integers(0, 2**16),
        workers=st.sampled_from([2, 4]),
        null_fk_every=st.sampled_from([0, 7]),
    )
    @settings(**_SETTINGS)
    def test_factorized_star_fold(self, seed, workers, null_fk_every):
        def build(kind):
            rng = np.random.default_rng(seed)
            n_fact, n_dim = 120, 8
            db = Database(
                amps=4,
                executor_workers=1 if kind == "serial" else workers,
                executor_kind="thread" if kind == "serial" else kind,
            )
            db.create_table(
                "stores",
                TableSchema.build(
                    [
                        Column("sid", SqlType.INTEGER, nullable=False),
                        ("sx", SqlType.FLOAT),
                        ("sy", SqlType.FLOAT),
                    ],
                    primary_key="sid",
                ),
            )
            db.create_table(
                "sales",
                TableSchema.build(
                    [
                        Column("oid", SqlType.INTEGER, nullable=False),
                        Column("sid", SqlType.INTEGER),
                        ("amount", SqlType.FLOAT),
                    ],
                    primary_key="oid",
                ),
            )
            db.load_columns(
                "stores",
                {
                    "sid": np.arange(1, n_dim + 1),
                    "sx": rng.normal(0, 5, n_dim),
                    "sy": rng.normal(10, 2, n_dim),
                },
            )
            sid = rng.integers(1, n_dim + 1, n_fact).astype(object)
            for i in range(n_fact):
                if null_fk_every and i % null_fk_every == 0:
                    sid[i] = None
            db.table("sales").insert_many(
                [
                    (i + 1, sid[i], float(rng.normal(100, 20)))
                    for i in range(n_fact)
                ]
            )
            register_nlq_udfs(db)
            return db

        results = {}
        for kind in ("serial", "thread", "process"):
            with build(kind) as db:
                stats = compute_nlq_udf(
                    db,
                    "sales JOIN stores ON sales.sid = stores.sid",
                    ["sales.amount", "stores.sx", "stores.sy"],
                )
                assert db.last_factorize_decision.factorized
                results[kind] = (stats.n, stats.L, stats.Q)
        for kind in ("thread", "process"):
            assert results[kind][0] == results["serial"][0]
            assert np.array_equal(results[kind][1], results["serial"][1])
            assert np.array_equal(results[kind][2], results["serial"][2])


# --------------------------------------------- appends between queries
class TestAppendThenQuery:
    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(**_SETTINGS)
    def test_appends_keep_executors_bit_identical(self, seed, workers):
        # Each append moves the table version, so every process-mode
        # statement below runs on blocks extended by the new rows.
        statements = [
            nlq_call_sql("x", dimension_names(D)),
            AGG_VECTOR,
            AGG_ROW,
            SCORING,
        ]
        rng = np.random.default_rng(seed)
        dbs = {
            kind: _db(_columns(seed), kind, workers)
            for kind in ("serial", "thread", "process")
        }
        try:
            for step in range(4):
                first = N_ROWS + 1 + 10 * step
                batch = [
                    (first + k, *rng.normal(50.0, 10.0, D), 1.0)
                    for k in range(1 + 3 * step)
                ]
                for sql in statements:
                    results = {}
                    for kind, db in dbs.items():
                        if sql is statements[0]:
                            db.insert_rows("x", batch)
                        result = db.execute(sql)
                        assert result.metrics.fallbacks == 0, (
                            kind,
                            result.metrics.fallback_reason,
                        )
                        results[kind] = result.rows
                    assert results["thread"] == results["serial"]
                    assert results["process"] == results["serial"]
                    engine = dbs["process"]._executor.engine
                    assert engine.last_process_fallback is None
            assert dbs["process"].columnar_store.rows_reused > 0
        finally:
            for db in dbs.values():
                db.close()

    def test_recreated_table_never_serves_dropped_blocks(self):
        # A dropped table's blocks and the workers' open readers for
        # them must not answer for a new table of the same name.
        with Database(
            amps=4, executor_workers=2, executor_kind="process"
        ) as db:
            db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, v FLOAT)")
            db.execute(
                "INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)"
            )
            assert db.execute("SELECT SUM(v) FROM t").rows == [(10.0,)]
            dropped = db.columnar_store.table_dir("t")
            assert dropped.exists()
            db.execute("DROP TABLE t")
            assert not dropped.exists()
            db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, v FLOAT)")
            # Same name, same version number, same partitions as before.
            db.execute(
                "INSERT INTO t VALUES (1, 10.0), (2, 20.0), (3, 30.0), "
                "(4, 40.0)"
            )
            result = db.execute("SELECT SUM(v) FROM t")
            assert result.rows == [(100.0,)]
            assert result.metrics.fallbacks == 0
            assert db._executor.engine.last_process_fallback is None


# ------------------------------------------------ pickle-probe fallback
class TestProcessFallbackRecord:
    def test_fallback_counted_and_not_carried_over(self):
        # A lambda-backed scalar UDF cannot pickle, so the engine runs
        # the row-path fan-out on threads: the statement itself must
        # report that fallback, and later statements must not.
        with Database(
            amps=4, executor_workers=2, executor_kind="process"
        ) as db:
            db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, x FLOAT)")
            db.execute("CREATE TABLE d (i INTEGER PRIMARY KEY, w FLOAT)")
            db.insert_rows("t", [(i, float(i)) for i in range(1, 21)])
            db.insert_rows("d", [(i, 0.5) for i in range(1, 11)])
            db.register_udf(scalar_udf("twice", lambda v: 2 * v, arity=1))
            engine = db._executor.engine

            result = db.execute("SELECT SUM(twice(x)) FROM t WHERE x > 3")
            assert result.rows == [(2.0 * sum(range(4, 21)),)]
            assert result.metrics.fallbacks == 1
            assert result.metrics.fallback_reason.startswith(
                "process fan-out ran on threads: "
            )
            assert engine.last_process_fallback is not None

            db.execute("INSERT INTO t VALUES (21, 21.0)")
            assert engine.last_process_fallback is None
            db.execute("SELECT SUM(twice(x)) FROM t WHERE x > 3")
            batch = db.execute_batch(
                ["SELECT SUM(x) FROM t", "SELECT COUNT(*) FROM t"]
            )
            assert batch[0].rows == [(231.0,)]
            assert engine.last_process_fallback is None
            db.execute("SELECT SUM(twice(x)) FROM t WHERE x > 3")
            join = db.execute(
                "SELECT SUM(t.x * d.w) FROM t JOIN d ON t.i = d.i"
            )
            assert join.rows == [(27.5,)]
            assert join.metrics.fallbacks == 0
            assert engine.last_process_fallback is None


# -------------------------------------------------- process-mode chaos
_CHAOS_SITES = [
    "partition.scan",
    "block.materialize",
    "udf.compute_batch",
    "engine.task",
]


def _chaos_specs():
    return st.lists(
        st.builds(
            FaultSpec,
            site=st.sampled_from(_CHAOS_SITES),
            kind=st.sampled_from(["error", "delay", "flaky"]),
            delay_seconds=st.sampled_from([0.0, 0.01, 0.25]),
            times=st.sampled_from([None, 1, 2]),
            partition=st.sampled_from([None, 0, 1, 3]),
        ),
        min_size=1,
        max_size=2,
    )


class TestProcessChaos:
    @given(
        specs=_chaos_specs(),
        retries=st.sampled_from([0, 2]),
        timeout=st.sampled_from([None, 0.1]),
    )
    # Pinned regimes: fatal task error, flaky healed by retries,
    # degradation (block path dies), and delay-past-timeout (which
    # tears the worker pool down and must leave no orphans).
    @example(
        specs=[FaultSpec("engine.task", partition=1)],
        retries=0,
        timeout=None,
    )
    @example(
        specs=[FaultSpec("engine.task", kind="flaky", times=1)],
        retries=2,
        timeout=None,
    )
    @example(
        specs=[FaultSpec("block.materialize")], retries=0, timeout=None
    )
    @example(
        specs=[FaultSpec("engine.task", kind="delay", delay_seconds=0.25)],
        retries=0,
        timeout=0.1,
    )
    @settings(**_SETTINGS)
    def test_process_query_chaos(self, specs, retries, timeout):
        columns = _columns(77)
        with _db(columns, "thread") as db:
            vectorized = db.execute(AGG_VECTOR).rows
            db.vectorized_select = False
            db.faults = FaultPlan().fail("block.materialize")
            row = db.execute(AGG_VECTOR).rows
        db = _db(columns, "process")
        try:
            db.faults = FaultPlan(specs, seed=7)
            db.task_retries = retries
            db.task_timeout_seconds = timeout
            try:
                result = db.execute(AGG_VECTOR)
            except ReproError as error:
                if isinstance(error, PartitionExecutionError):
                    assert error.partitions
                    assert error.first_error is not None
            else:
                assert result.rows == vectorized or result.rows == row
            engine = db._executor.engine
            deadline = time.perf_counter() + 10.0
            while engine.active_tasks and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert engine.active_tasks == 0
            # Reusable after any outcome — and still on processes.
            db.faults = None
            db.task_timeout_seconds = None
            assert db.execute(AGG_VECTOR).rows == vectorized
            assert engine.uses_processes
        finally:
            db.close()
