"""Plan execution over partitioned storage.

The executor runs bound SELECT/DML statements and charges the cost model
as it goes.  Two execution styles coexist:

* a **row path** — compiled closures evaluated row by row — which is the
  reference semantics for everything, and
* a **vector path** used for aggregation over a single unfiltered base
  table: argument expressions compile to numpy functions per partition
  block, and aggregates that implement vectorized accumulation fold whole
  blocks at once.  This mirrors how a real engine pipelines an aggregate
  over a scan, and it must produce exactly the row path's results (tests
  compare the two).

Aggregation is partition-parallel in the paper's sense: one state per
partition (AMP), then a partial-result merge — the four run-time stages
of Section 3.4.  Both aggregation paths build their per-partition
partials through :class:`repro.dbms.engine.PartitionEngine` tasks, so a
database configured with ``executor_workers > 1`` runs partitions
concurrently; partials are always merged in partition order, which keeps
results bit-identical to serial execution.  Real (wall-clock) per-stage
timings land in a :class:`repro.dbms.metrics.QueryMetrics` record next
to the analytical cost charges.

Each process-capable partition task kind has exactly one body, defined
at module level and registered in :data:`TASK_BODIES` (``agg-row``,
``agg-vector``, ``project``, ``fact-fold``).  A body is called as
``body(source, pid, faults, fragment)``: on the serial and thread
engines *source* is the :class:`~repro.dbms.storage.Partition` and
*fragment* is the plan piece the executor compiled once for the
statement; in a process-pool worker (:mod:`repro.dbms.parallel_worker`)
*source* reads the partition's mmap'd columnar block and *fragment* is
recompiled from the shipped descriptor.  Fault-site order, timings and
result shape are therefore the same on every executor by construction.

Cost accounting: scans charge per (nominal) row and column; SQL select
lists charge per term per row; aggregate UDFs charge call overhead,
parameter transfer, and update arithmetic per row plus merge/return
packing; GROUP BY charges hashing and a spill multiplier once the group
state outgrows the 64 KB heap segment.  Nominal rows are physical rows ×
the table's row scale (see :mod:`repro.dbms.cost`).
"""

from __future__ import annotations

import functools
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core import factorized as fcore
from repro.dbms.catalog import Catalog
from repro.dbms.cost import CostModel
from repro.dbms.engine import PartitionEngine
from repro.dbms.faults import NULL_FAULTS, FaultPlan, NullFaults
from repro.dbms.metrics import QueryMetrics, StageTimer
from repro.dbms.expressions import (
    compile_row_expression,
    compile_vector_expression,
    referenced_columns,
    referenced_columns_of_all,
)
from repro.dbms.functions import AGGREGATE_BUILTINS, SCALAR_BUILTINS, AggregateFunction
from repro.dbms.schema import Column, TableSchema
from repro.dbms.sql import ast
from repro.dbms.sql.factorize import FactorizeDecision, plan_factorize
from repro.dbms.sql.plan import Plan, build_plan
from repro.dbms.sql.vectorized import (
    BlockItem,
    RawColumnItem,
    VectorizedSelectPlan,
    plan_vectorized_select,
)
from repro.dbms.sql.planner import (
    AggregateCall,
    Binder,
    BoundColumn,
    find_aggregates,
    output_name,
    substitute,
)
from repro.dbms.storage import BlockCacheStats, Table
from repro.dbms.trace import NULL_TRACER, Span, Tracer
from repro.dbms.types import SqlType
from repro.dbms.udf import AggregateUdf
from repro.errors import (
    ExecutionError,
    PartitionExecutionError,
    PlanningError,
    SchemaError,
)


@dataclass
class Relation:
    """A runtime relation: bound columns plus materialized rows.

    ``base_table`` is set when the relation is a pure, unfiltered scan of
    one stored table — the case where partition structure and the vector
    path are available.  ``row_scale`` carries the cost-model scale of
    the underlying data through joins and projections.
    """

    columns: list[BoundColumn]
    rows: list[tuple] = field(default_factory=list)
    row_scale: float = 1.0
    base_table: Table | None = None
    _materialized: bool = True

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def physical_rows(self) -> int:
        if self.base_table is not None and not self._materialized:
            return self.base_table.row_count
        return len(self.rows)

    @property
    def nominal_rows(self) -> float:
        return self.physical_rows * self.row_scale

    def materialize(self) -> "Relation":
        if self.base_table is not None and not self._materialized:
            self.rows = self.base_table.rows()
            self._materialized = True
        return self

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]


def _base_scan(table: Table, binding: str) -> Relation:
    columns = [BoundColumn(binding, column.name) for column in table.schema.columns]
    return Relation(
        columns=columns,
        rows=[],
        row_scale=table.row_scale,
        base_table=table,
        _materialized=False,
    )


def _fold_rows_into(
    rows: Sequence[tuple],
    aggregates: list["_AggregateSpec"],
    group_fns: list[Callable[[tuple], Any]],
    where_fn: Callable[[tuple], Any] | None,
) -> tuple[dict[tuple, list[Any]], int]:
    """Fold *rows* into a fresh per-group partial-state dict.

    The single row-path accumulation loop: partition tasks call it for
    one partition's rows, and batched statements call it once per
    statement against the same materialized rows — one source of truth,
    so a batched statement's partials are the very floats its serial
    execution would produce.  Returns ``(partials, rows folded)``.
    """
    local: dict[tuple, list[Any]] = {}
    folded = 0
    for row in rows:
        if where_fn is not None and where_fn(row) is not True:
            continue
        key = tuple(fn(row) for fn in group_fns)
        states = local.get(key)
        if states is None:
            states = [spec.initialize() for spec in aggregates]
            local[key] = states
        for index, spec in enumerate(aggregates):
            states[index] = spec.accumulate_row(states[index], row)
        folded += 1
    return local, folded


def _fold_vector_block(
    block: "np.ndarray",
    aggregates: list["_AggregateSpec"],
    group_exprs: list[ast.Expression],
    group_vector_fns: list[Any],
) -> dict[tuple, list[Any]]:
    """Fold one partition's column block into per-group partial states.

    Vector-path counterpart of :func:`_fold_rows_into`, shared between
    ``_accumulate_vectorized`` and the batch shared scan for the same
    bit-parity reason.
    """
    local: dict[tuple, list[Any]] = {}
    if not group_exprs:
        partial = [spec.initialize() for spec in aggregates]
        for index, spec in enumerate(aggregates):
            partial[index] = spec.accumulate_vector(partial[index], block)
        local[()] = partial
    else:
        key_arrays = [fn(block) for fn in group_vector_fns]
        # Integral float keys become ints so vector- and row-path group
        # keys compare equal (i MOD k on an INTEGER column).
        keys = [
            tuple(
                int(v) if isinstance(v, float) and v.is_integer() else v
                for v in key
            )
            for key in zip(*(array.tolist() for array in key_arrays))
        ]
        index_map: dict[tuple, list[int]] = {}
        for row_index, key in enumerate(keys):
            index_map.setdefault(key, []).append(row_index)
        for key, row_indices in index_map.items():
            slice_block = block[np.asarray(row_indices)]
            partial = [spec.initialize() for spec in aggregates]
            for index, spec in enumerate(aggregates):
                partial[index] = spec.accumulate_vector(
                    partial[index], slice_block
                )
            local[key] = partial
    return local


def _compile_vector_fragment(
    aggregates: list["_AggregateSpec"],
    group_exprs: list[ast.Expression],
    resolve: Callable[[ast.ColumnRef], int],
) -> tuple:
    """Compile the ``agg-vector`` fragment for one aggregate statement.

    Returns ``(positions, fused, aggregates, group_exprs,
    group_vector_fns)``: the storage positions the block materializes
    (in matrix-column order), the ``(fault site, udf)`` pairs of fused
    aggregates, the specs prepared for block accumulation, and the
    compiled group-key functions.  *resolve* maps a column to its
    storage position — the binder on the coordinator, the shipped
    position map in a worker — so both sides build the same block.
    """
    needed = referenced_columns_of_all(
        [spec.call.call for spec in aggregates] + list(group_exprs)
    )
    matrix_resolver = _matrix_resolver(needed)
    for spec in aggregates:
        spec.prepare_vector(matrix_resolver)
    # Aggregates that declare a fault site (the fused clustering
    # iteration UDFs) arm it per task, between block materialization
    # and accumulation.
    fused = [
        (site, spec.call.name)
        for spec in aggregates
        if (site := getattr(spec.aggregate, "fault_site", None))
    ]
    return (
        [resolve(ref) for ref in needed],
        fused,
        aggregates,
        list(group_exprs),
        [compile_vector_expression(expr, matrix_resolver) for expr in group_exprs],
    )


# ------------------------------------------------------------- task bodies
def agg_row_task(
    source: Any, pid: int, faults: Any, fragment: tuple
) -> tuple[dict[tuple, list[Any]], int, float, float]:
    """Row-path aggregate over one partition.

    *fragment* is ``(aggregate specs, group functions, WHERE function)``.
    Returns ``(partials, rows folded, scan s, accumulate s)``.
    """
    aggregates, group_fns, where_fn = fragment
    scan_start = time.perf_counter()
    if faults.enabled:
        faults.fire("partition.scan", partition=pid)
    rows = list(source.rows())
    accumulate_start = time.perf_counter()
    local, folded = _fold_rows_into(rows, aggregates, group_fns, where_fn)
    done = time.perf_counter()
    return local, folded, accumulate_start - scan_start, done - accumulate_start


def agg_vector_task(
    source: Any, pid: int, faults: Any, fragment: tuple
) -> tuple[dict[tuple, list[Any]], int, float, float, BlockCacheStats]:
    """Vector-path aggregate over one partition's float block.

    *fragment* comes from :func:`_compile_vector_fragment`.  Returns
    ``(partials, rows, scan s, accumulate s, block-cache stats)``.
    """
    positions, fused, aggregates, group_exprs, group_vector_fns = fragment
    scan_start = time.perf_counter()
    if faults.enabled:
        faults.fire("block.materialize", partition=pid)
    block, stats = source.numeric_matrix_with_cache_stats(positions)
    if faults.enabled:
        for site, udf_name in fused:
            faults.fire(site, partition=pid, udf=udf_name)
    accumulate_start = time.perf_counter()
    local = _fold_vector_block(block, aggregates, group_exprs, group_vector_fns)
    done = time.perf_counter()
    return (
        local,
        block.shape[0],
        accumulate_start - scan_start,
        done - accumulate_start,
        stats,
    )


def project_task(
    source: Any, pid: int, faults: Any, plan: VectorizedSelectPlan
) -> tuple[list[tuple], int, float, float, BlockCacheStats]:
    """Block-wise projection of one partition.

    Materializes the plan's column block, applies the WHERE truth
    vector, and evaluates the select items as numpy functions (filter
    first, then project — so, like the row path, item expressions never
    see filtered-out rows).  Raw column items are served from the
    source's stored values; block items restore NaN to None (and
    1-based subscripts to int) per row.  Returns ``(rows, rows scanned,
    scan s, project s, block-cache stats)``.
    """
    scan_start = time.perf_counter()
    if faults.enabled:
        faults.fire("block.materialize", partition=pid)
    block, stats = source.numeric_matrix_with_cache_stats(plan.positions)
    project_start = time.perf_counter()
    keep_list: list[int] | None = None
    if plan.where_fn is None:
        sub = block
    else:
        keep = np.flatnonzero(plan.where_fn(block) == 1.0)
        sub = block[keep]
        keep_list = keep.tolist()
    columns: list[list[Any]] = []
    for item in plan.items:
        if isinstance(item, RawColumnItem):
            values = source.column(item.position)
            if keep_list is None:
                columns.append(list(values))
            else:
                columns.append([values[i] for i in keep_list])
        elif item.integer_result:
            columns.append(
                [None if v != v else int(v) for v in item.fn(sub).tolist()]
            )
        else:
            # v != v is the NaN test; NaN carried NULL.
            columns.append(
                [None if v != v else v for v in item.fn(sub).tolist()]
            )
    out = list(zip(*columns)) if columns else []
    done = time.perf_counter()
    return (
        out,
        block.shape[0],
        project_start - scan_start,
        done - project_start,
        stats,
    )


def fact_fold_task(
    source: Any, pid: int, faults: Any, fragment: tuple
) -> tuple[Any, int, float, float]:
    """One factorized partition fold.

    *fragment* is ``(fold spec, fault site, udf name)``; the fold spec
    is the ``(tag, *args)`` data :func:`repro.core.factorized.
    fold_partition` runs.  Returns ``(partial, rows, scan s, fold s)``.
    """
    fold, fire_site, fire_udf = fragment
    scan_start = time.perf_counter()
    if faults.enabled:
        faults.fire("partition.scan", partition=pid)
    rows = list(source.rows())
    if fire_site is not None and faults.enabled:
        faults.fire(fire_site, partition=pid, udf=fire_udf)
    fold_start = time.perf_counter()
    partial_state = fcore.fold_partition(fold, rows)
    done = time.perf_counter()
    return partial_state, len(rows), fold_start - scan_start, done - fold_start


#: the process-capable task kinds, by the ``kind`` a descriptor names
TASK_BODIES: dict[str, Callable[..., Any]] = {
    "agg-row": agg_row_task,
    "agg-vector": agg_vector_task,
    "project": project_task,
    "fact-fold": fact_fold_task,
}


def _batch_task(
    partition: Any, pid: int, faults: Any, statements: "list[_BatchStatement]"
) -> tuple[list[dict], list[BlockCacheStats], int, float, float]:
    """One partition of a consolidated batch (thread engine only).

    Reads the partition once — rows if any statement is on the row
    path, plus one column block per vector statement — and folds every
    statement's partials with the same fold helpers the single-statement
    bodies use.  Returns ``(partials per statement, block-cache stats
    per vector statement, rows, scan s, accumulate s)``.
    """
    need_rows = any(not stmt.use_vector for stmt in statements)
    scan_start = time.perf_counter()
    if need_rows and faults.enabled:
        faults.fire("partition.scan", partition=pid)
    rows = list(partition.rows()) if need_rows else None
    blocks: list[Any] = []
    cache_stats: list[BlockCacheStats] = []
    for stmt in statements:
        if not stmt.use_vector:
            continue
        positions, fused = stmt.vector_fragment[:2]
        if faults.enabled:
            faults.fire("block.materialize", partition=pid)
        block, stats = partition.numeric_matrix_with_cache_stats(positions)
        if faults.enabled:
            for site, udf_name in fused:
                faults.fire(site, partition=pid, udf=udf_name)
        blocks.append(block)
        cache_stats.append(stats)
    accumulate_start = time.perf_counter()
    locals_out: list[dict[tuple, list[Any]]] = []
    vector_blocks = iter(blocks)
    for stmt in statements:
        if stmt.use_vector:
            _, _, aggregates, group_exprs, group_vector_fns = stmt.vector_fragment
            local = _fold_vector_block(
                next(vector_blocks), aggregates, group_exprs, group_vector_fns
            )
        else:
            local, _ = _fold_rows_into(
                rows, stmt.aggregates, stmt.group_fns, stmt.where_fn
            )
        locals_out.append(local)
    done = time.perf_counter()
    return (
        locals_out,
        cache_stats,
        partition.row_count,
        accumulate_start - scan_start,
        done - accumulate_start,
    )


def _merge_into(
    groups: dict[tuple, list[Any]],
    aggregates: list["_AggregateSpec"],
    local: dict[tuple, list[Any]],
) -> None:
    """Merge one partition's partial states into *groups* (first
    appearance keeps scan order)."""
    for key, partial_states in local.items():
        states = groups.get(key)
        if states is None:
            groups[key] = partial_states
        else:
            for position, spec in enumerate(aggregates):
                states[position] = spec.merge(
                    states[position], partial_states[position]
                )


class _BatchStatement:
    """Per-statement state threaded through a consolidated batch.

    One of these exists per *distinct* statement (duplicates share it):
    its compiled accessors, its accumulation strategy, its group states,
    and finally its result relation.
    """

    def __init__(
        self,
        select: ast.Select,
        env: Relation,
        binder: "Binder",
        aggregates: "list[_AggregateSpec]",
        group_exprs: list[ast.Expression],
        group_fns: list[Callable[[tuple], Any]],
        where_fn: Callable[[tuple], Any] | None,
    ) -> None:
        self.select = select
        self.env = env
        self.binder = binder
        self.aggregates = aggregates
        self.group_exprs = group_exprs
        self.group_fns = group_fns
        self.where_fn = where_fn
        self.groups: dict[tuple, list[Any]] = {}
        #: served whole from the summary cache (no scan participation)
        self.served = False
        #: rides the vector path inside the shared scan (decided with
        #: exactly the serial eligibility test)
        self.use_vector = False
        self.result: Relation | None = None
        #: the agg-vector fragment when ``use_vector`` (set by
        #: _batch_fan_out; see _compile_vector_fragment)
        self.vector_fragment: tuple = ()


class Executor:
    """Executes statements against a catalog, charging a cost model.

    ``engine`` decides whether per-partition aggregation tasks run
    inline (one worker, the default) or on a thread pool; it may be
    swapped between statements (``Database.executor_workers``).
    """

    def __init__(
        self,
        catalog: Catalog,
        cost: CostModel,
        engine: PartitionEngine | None = None,
    ) -> None:
        self._catalog = catalog
        self._cost = cost
        self.engine = engine or PartitionEngine()
        #: wall-clock record of the most recently executed statement
        self.last_metrics = QueryMetrics()
        #: span tracer for the statement in flight; NULL_TRACER (the
        #: default) allocates nothing — only EXPLAIN ANALYZE swaps in a
        #: real Tracer for the duration of the inner statement
        self.tracer = NULL_TRACER
        #: plan of the most recent EXPLAIN [ANALYZE] statement, else None
        self.last_plan: Plan | None = None
        #: whether eligible projections run block-wise (see
        #: :mod:`repro.dbms.sql.vectorized`); toggled via
        #: ``Database.vectorized_select`` — row path when False
        self.vectorized_select = True
        #: fault-injection plan for executor-level sites
        #: (``partition.scan``, ``block.materialize``,
        #: ``udf.compute_batch``, ``udf.fused_iter``); installed by
        #: ``Database(faults=...)``
        self.faults: FaultPlan | NullFaults = NULL_FAULTS
        #: opt-in summary-matrix cache, installed by
        #: ``Database.summary_cache_enabled = True``; ``None`` (the
        #: default) keeps every statement on the scan path
        self.summary_cache: "Any | None" = None
        #: the rewrite pass's decision for the most recent
        #: ``execute_batch`` call (consolidated or refused-with-reason);
        #: None until a batch runs
        self.last_batch_decision: "Any | None" = None
        #: whether eligible star-join aggregates run factorized
        #: (per-base-table partials combined through the key–FK join,
        #: the joined table never materialized); toggled via
        #: ``Database.factorized_joins_enabled``
        self.factorized_joins_enabled = True
        #: the factorize pass's decision for the most recent SELECT
        #: with joins (factorized or refused-with-reason); None when
        #: the last statement had no joins
        self.last_factorize_decision: "FactorizeDecision | None" = None
        #: columnar block store used to ship zero-copy partition
        #: descriptors to process-pool workers; installed by a durable
        #: or process-enabled Database, ``None`` keeps every fan-out in
        #: process
        self.columnar_store: "Any | None" = None

    # ----------------------------------------------------------- supervision
    def _fan_out(
        self,
        table: Table,
        body: Callable[..., Any],
        fragment: Any,
        describe: "Callable[[], dict[str, Any]] | None" = None,
    ) -> "tuple[list[Any], list[Span] | None, list[int]]":
        """Run *body* once per non-empty partition of *table*.

        Each task calls ``body(partition, pid, faults, fragment)`` —
        inline, on the thread pool, or, when *describe* is given and
        the engine uses processes, as a descriptor (``describe()`` plus
        the partition's block address, see :meth:`_process_payloads`)
        that a worker process runs through the same body.  Every fan-out
        is a pure partition scan, so the engine's bounded retries may
        safely re-run a task.  The engine's retry/timeout counters fold
        into this statement's metrics also when the map fails (a
        degraded statement still reports what its failed attempt
        spent), and a process fan-out the engine had to run on threads
        counts as a reason-tagged fallback.

        Returns ``(results in partition order, task spans or None,
        partition ids)``; the task spans are already attached to the
        innermost open trace span.
        """
        numbered = [
            (pid, partition)
            for pid, partition in enumerate(table.partitions)
            if partition.row_count
        ]
        partition_ids = [pid for pid, _ in numbered]
        faults = self.faults
        tasks = [
            functools.partial(body, partition, pid, faults, fragment)
            for pid, partition in numbered
        ]
        payloads = (
            None
            if describe is None
            else self._process_payloads(table, describe, partition_ids)
        )
        task_spans: "list[Span] | None" = [] if self.tracer.enabled else None
        engine = self.engine
        metrics = self.last_metrics
        try:
            results = engine.map(
                tasks,
                task_spans,
                idempotent=True,
                partition_ids=partition_ids,
                payloads=payloads,
            )
        finally:
            metrics.task_retries += engine.last_task_retries
            metrics.task_timeouts += engine.last_task_timeouts
            if engine.last_process_fallback is not None:
                self._count_fallback(
                    "process fan-out ran on threads: "
                    f"{engine.last_process_fallback}"
                )
        if task_spans is not None:
            self.tracer.attach(task_spans)
        metrics.parallel_tasks += len(tasks)
        return results, task_spans, partition_ids

    def _process_payloads(
        self,
        table: Table,
        describe: "Callable[[], dict[str, Any]]",
        partition_ids: Sequence[int],
    ) -> "list[dict] | None":
        """Process-pool descriptors for one fan-out over *table*, or None
        when it must stay in-process (thread engine, no store installed,
        or publish failed — e.g. an unencodable value or a full disk;
        recorded as a fallback).

        Every descriptor carries the plan description *describe*
        returns (ASTs, aggregate objects, position maps: what the
        worker recompiles its fragment from), a per-statement
        fingerprint keying the worker's compile cache, the block-cache
        hit flag (was this table version already published?), and the
        partition's block address ``(root, table, version, pid)`` —
        rows travel through the mmap'd block, never through pickle.
        """
        if not self.engine.uses_processes or self.columnar_store is None:
            return None
        try:
            published = self.columnar_store.publish(table)
        except Exception as exc:
            self._count_fallback(
                f"columnar publish failed: {_describe_failure(exc)}"
            )
            return None
        base = {
            **describe(),
            "fingerprint": uuid.uuid4().hex,
            "cached": not published["fresh"],
        }
        address = (published["root"], published["table"], published["version"])
        return [{**base, "block": (*address, pid)} for pid in partition_ids]

    def _aggregate_description(
        self,
        kind: str,
        aggregates: list["_AggregateSpec"],
        binder: Binder,
        group_exprs: list[ast.Expression],
        where_expr: "ast.Expression | None" = None,
    ) -> dict[str, Any]:
        """The shipped plan of an ``agg-row`` / ``agg-vector`` fan-out:
        the aggregate calls and objects, GROUP BY and WHERE ASTs, the
        storage position of every referenced column, and the scalar
        UDFs the expressions call."""
        expressions = [spec.call.call for spec in aggregates] + list(group_exprs)
        if where_expr is not None:
            expressions.append(where_expr)
        return {
            "kind": kind,
            "calls": [spec.call for spec in aggregates],
            "aggregates": [spec.aggregate for spec in aggregates],
            "group_exprs": list(group_exprs),
            "where": where_expr,
            "resolve": {
                (ref.table, ref.name.lower()): binder.resolve(ref)
                for ref in referenced_columns_of_all(expressions)
            },
            "scalar_udfs": self._shippable_scalar_udfs(expressions),
        }

    def _shippable_scalar_udfs(
        self, expressions: Sequence[ast.Expression]
    ) -> dict[str, Any]:
        """Registered scalar UDFs referenced by *expressions*, keyed by
        lowercase name, for shipping to worker processes.  Builtins are
        left out (workers resolve them themselves); whether the UDFs
        pickle is the engine's pickle probe's call."""
        shipped: dict[str, Any] = {}
        for expression in expressions:
            for node in ast.walk(expression):
                if not isinstance(node, ast.FuncCall):
                    continue
                udf = self._catalog.scalar_udf(node.name)
                if udf is not None:
                    shipped[node.name.lower()] = udf
        return shipped

    def _cached_blocks(
        self, table: Table, positions: Sequence[int]
    ) -> "list[bool] | None":
        """Under tracing, whether each non-empty partition already caches
        its block for *positions* — checked before the tasks run (they
        populate the cache), so ANALYZE shows pre-built blocks."""
        if not self.tracer.enabled:
            return None
        return [
            partition.has_cached_block(positions)
            for partition in table.partitions
            if partition.row_count
        ]

    def _fold_cache_stats(self, stats: "BlockCacheStats") -> None:
        """Fold one task's block-cache outcome into this statement's
        metrics (hits/misses plus the eviction and spill counters the
        byte-budgeted cache reports)."""
        metrics = self.last_metrics
        if stats.hit:
            metrics.block_cache_hits += 1
        else:
            metrics.block_cache_misses += 1
        metrics.cache_evictions += stats.evictions
        metrics.blocks_spilled += stats.spilled_blocks
        metrics.bytes_spilled += stats.spilled_bytes

    def _record_task(
        self,
        task_spans: "list[Span] | None",
        index: int,
        partition_id: int,
        scanned: int,
        processed: bool,
        scan_seconds: float,
        stage: str,
        stage_seconds: float,
        **attributes: Any,
    ) -> None:
        """Fold one partition task's counts and timings into the
        statement metrics: *scanned* rows, the partition when
        *processed*, and the seconds of ``scan`` and *stage*
        (``accumulate`` or ``project``).

        Under tracing, the task's engine-built span gains ``partition``
        and ``rows`` (= *scanned*) attributes, then *attributes* in
        order (which may override ``rows``), and ``scan`` / *stage*
        child spans built from the *same* floats added to the metrics —
        summed in the same partition order, so the span totals and the
        stage totals are identical, not approximations.
        """
        metrics = self.last_metrics
        metrics.scan_seconds += scan_seconds
        stage_attribute = f"{stage}_seconds"
        setattr(
            metrics,
            stage_attribute,
            getattr(metrics, stage_attribute) + stage_seconds,
        )
        metrics.rows_processed += scanned
        if processed:
            metrics.partitions_processed += 1
        if task_spans is not None:
            span = task_spans[index]
            span.attributes["partition"] = partition_id
            span.attributes["rows"] = scanned
            span.attributes.update(attributes)
            span.children.append(Span("scan", seconds=scan_seconds))
            span.children.append(Span(stage, seconds=stage_seconds))

    def _count_fallback(self, reason: str) -> str:
        """Count one reason-tagged fallback in this statement's metrics."""
        self.last_metrics.fallbacks += 1
        self.last_metrics.fallback_reason = reason
        return reason

    def _degrade(
        self, operator: str, snapshot: "dict[str, Any]", exc: BaseException
    ) -> str:
        """Unwind a failed optimized attempt before the reference path
        retries; returns the fallback reason.

        The attempt's *operator* span (already closed by the unwinding
        ``with tracer.span(...)``, so the last child of the innermost
        open span) is marked ``failed``: it stays visible in the ANALYZE
        trace while :func:`~repro.dbms.sql.plan._operator_spans` skips
        it when pairing spans with plan operators — the retry's span is
        the one that pairs.  Metrics are restored to *snapshot*, keeping
        the retry/timeout counters the failed attempt accrued (real
        events the degraded statement must still report), and the
        fallback is counted.
        """
        reason = _describe_failure(exc)
        current = self.tracer.current
        if current is not None and current.children:
            last = current.children[-1]
            if last.name == operator:
                last.attributes["failed"] = True
                last.attributes["error"] = reason
        metrics = self.last_metrics
        task_retries = metrics.task_retries
        task_timeouts = metrics.task_timeouts
        for name, value in snapshot.items():
            setattr(metrics, name, value)
        metrics.task_retries = task_retries
        metrics.task_timeouts = task_timeouts
        return self._count_fallback(reason)

    # --------------------------------------------------------------- dispatch
    def execute(self, statement: ast.Statement) -> Relation:
        self.last_metrics = QueryMetrics(workers=self.engine.workers)
        self.last_plan = None
        # A statement that runs no fan-out must not report the previous
        # statement's process fallback.
        self.engine.last_process_fallback = None
        started = time.perf_counter()
        try:
            return self._dispatch(statement)
        finally:
            self.last_metrics.total_seconds = time.perf_counter() - started
            # rows_scanned equals rows_processed for every scan-path
            # statement; only a summary-cache serve sets it lower (a
            # fresh hit scans zero rows, a stale hit only the suffix).
            self.last_metrics.rows_scanned = max(
                self.last_metrics.rows_scanned,
                self.last_metrics.rows_processed,
            )

    def _dispatch(self, statement: ast.Statement) -> Relation:
        if isinstance(statement, ast.Explain):
            # Before any charging: plain EXPLAIN costs nothing.
            return self._execute_explain(statement)
        if isinstance(statement, ast.Select):
            self._cost.charge_sql_statement(len(statement.items))
            return self.execute_select(statement)
        self._cost.charge_sql_statement(1)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateView):
            self._catalog.create_view(
                statement.name, statement.select, statement.or_replace
            )
            return _empty_result()
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.DropTable):
            self._catalog.drop_table(statement.name, statement.if_exists)
            return _empty_result()
        if isinstance(statement, ast.DropView):
            self._catalog.drop_view(statement.name, statement.if_exists)
            return _empty_result()
        raise PlanningError(f"cannot execute {type(statement).__name__}")

    # --------------------------------------------------------------- EXPLAIN
    def _execute_explain(self, statement: ast.Explain) -> Relation:
        """EXPLAIN renders the optimized plan with cost estimates and
        charges nothing; ANALYZE additionally executes the optimized
        statement under span tracing and annotates each operator with
        its measured wall clock."""
        inner = statement.statement
        if not isinstance(inner, ast.Select):
            raise PlanningError(
                f"EXPLAIN supports SELECT statements, got "
                f"{type(inner).__name__}"
            )
        plan = build_plan(
            self._catalog,
            inner,
            self._cost.params,
            analyze=statement.analyze,
            vectorized_select=self.vectorized_select,
            factorized_joins=self.factorized_joins_enabled,
        )
        # Probed before ANALYZE executes, so the note reports the cache
        # state this statement actually saw (a miss that warms the cache
        # still renders as the miss it was).
        cache_note = self._summary_cache_note(plan.optimized)
        if cache_note is None:
            cache_note = self._factorized_cache_note(plan.optimized)
        if cache_note is not None:
            for node in plan.find("aggregate"):
                node.notes.append(cache_note)
        if statement.analyze:
            tracer = Tracer()
            self.tracer = tracer
            started = time.perf_counter()
            try:
                self._dispatch(plan.optimized)
            finally:
                self.tracer = NULL_TRACER
            # The outer execute() overwrites this with the full
            # statement wall clock; filling it now lets the rendered
            # text report the inner execution time.
            self.last_metrics.total_seconds = time.perf_counter() - started
            plan.attach_trace(tracer.root, self.last_metrics)
        self.last_plan = plan
        return Relation(
            columns=[BoundColumn(None, "plan")],
            rows=[(line,) for line in plan.render()],
        )

    # ------------------------------------------------------------------- DDL
    def _execute_create_table(self, statement: ast.CreateTable) -> Relation:
        columns = tuple(
            Column(
                definition.name,
                SqlType.from_name(definition.type_name),
                nullable=not definition.not_null,
            )
            for definition in statement.columns
        )
        schema = TableSchema(columns, statement.primary_key)
        self._catalog.create_table(
            statement.name, schema, if_not_exists=statement.if_not_exists
        )
        return _empty_result()

    # ------------------------------------------------------------------- DML
    def _execute_insert(self, statement: ast.Insert) -> Relation:
        table = self._catalog.table(statement.table)
        if statement.select is not None:
            source = self.execute_select(statement.select)
            rows: list[tuple] = source.rows
        else:
            binder = Binder([])
            rows = []
            for value_row in statement.values:
                compiled = [
                    compile_row_expression(expr, binder.resolve, self._scalar_registry)
                    for expr in value_row
                ]
                rows.append(tuple(fn(()) for fn in compiled))
        if statement.columns:
            positions = {
                name.lower(): index for index, name in enumerate(statement.columns)
            }
            full_rows = []
            for row in rows:
                if len(row) != len(statement.columns):
                    raise ExecutionError(
                        f"INSERT row has {len(row)} values for "
                        f"{len(statement.columns)} named columns"
                    )
                full = [
                    row[positions[column.name.lower()]]
                    if column.name.lower() in positions
                    else None
                    for column in table.schema.columns
                ]
                full_rows.append(tuple(full))
            rows = full_rows
        inserted = table.insert_many(rows)
        self._cost.charge_insert(inserted * table.row_scale, table.width)
        return _empty_result()

    def _execute_delete(self, statement: ast.Delete) -> Relation:
        table = self._catalog.table(statement.table)
        self._cost.charge_scan(table.nominal_rows, table.width)
        if statement.where is None:
            table.truncate()
            return _empty_result()
        columns = [BoundColumn(table.name, c.name) for c in table.schema.columns]
        binder = Binder(columns)
        predicate = compile_row_expression(
            statement.where, binder.resolve, self._scalar_registry
        )
        surviving = [row for row in table.rows() if predicate(row) is not True]
        table.truncate()
        table.insert_many(surviving)
        return _empty_result()

    def _execute_update(self, statement: ast.Update) -> Relation:
        table = self._catalog.table(statement.table)
        self._cost.charge_scan(table.nominal_rows, table.width)
        columns = [BoundColumn(table.name, c.name) for c in table.schema.columns]
        binder = Binder(columns)
        predicate = (
            compile_row_expression(
                statement.where, binder.resolve, self._scalar_registry
            )
            if statement.where is not None
            else None
        )
        targets: list[tuple[int, Callable[[tuple], Any]]] = []
        for column_name, expression in statement.assignments:
            position = binder.resolve(ast.ColumnRef(column_name))
            targets.append(
                (
                    position,
                    compile_row_expression(
                        expression, binder.resolve, self._scalar_registry
                    ),
                )
            )
        updated_rows: list[tuple] = []
        touched = 0
        for row in table.rows():
            if predicate is None or predicate(row) is True:
                new_row = list(row)
                # Evaluate every assignment against the *old* row (SQL
                # semantics: SET a = b, b = a swaps).
                for position, fn in targets:
                    new_row[position] = fn(row)
                updated_rows.append(tuple(new_row))
                touched += 1
            else:
                updated_rows.append(row)
        table.truncate()
        table.insert_many(updated_rows)
        self._cost.charge_insert(touched * table.row_scale, len(targets))
        return _empty_result()

    # ---------------------------------------------------------------- SELECT
    def execute_select(self, select: ast.Select) -> Relation:
        if select.joins and self.factorized_joins_enabled:
            factorized = self._try_factorized_select(select)
            if factorized is not None:
                return factorized
        env = self._build_from_environment(select)
        aggregate_calls = self._collect_aggregates(select)
        if aggregate_calls or select.group_by:
            result, order_context = self._execute_aggregate(
                select, env, aggregate_calls
            )
        else:
            if select.having is not None:
                raise PlanningError("HAVING requires GROUP BY or aggregates")
            result, order_context = self._execute_projection(select, env)
        result = self._apply_order_limit(select, result, order_context)
        return result

    # ------------------------------------------------------- batch execution
    def execute_batch(
        self, selects: Sequence[ast.Select], decision: "Any"
    ) -> list[Relation]:
        """Run a consolidated batch: one shared scan, N statement results.

        *decision* is the consolidated
        :class:`~repro.dbms.sql.rewrite.BatchDecision` the rewrite pass
        proved safe; refused batches never reach here (the database runs
        them serially).  One metrics record covers the whole batch.
        """
        self.last_metrics = QueryMetrics(workers=self.engine.workers)
        self.last_plan = None
        self.engine.last_process_fallback = None
        started = time.perf_counter()
        try:
            return self._execute_batch_consolidated(selects, decision)
        finally:
            self.last_metrics.total_seconds = time.perf_counter() - started
            self.last_metrics.rows_scanned = max(
                self.last_metrics.rows_scanned,
                self.last_metrics.rows_processed,
            )

    def _execute_batch_consolidated(
        self, selects: Sequence[ast.Select], decision: "Any"
    ) -> list[Relation]:
        table = self._catalog.table(decision.table)
        metrics = self.last_metrics
        metrics.statements_batched += len(selects)
        prepared: list[_BatchStatement] = []
        for input_index in decision.distinct:
            select = selects[input_index]
            # Duplicates of this statement charge nothing — folding them
            # into one accumulation is the rewrite's analytical saving.
            self._cost.charge_sql_statement(len(select.items))
            env = _base_scan(table, select.from_sources[0].binding_name)
            binder = Binder(env.columns)
            aggregate_calls = self._collect_aggregates(select)
            aggregates = [
                _AggregateSpec(
                    call, self._aggregate_object(call.name), binder, self
                )
                for call in aggregate_calls
            ]
            group_exprs = list(select.group_by)
            group_fns = [
                compile_row_expression(
                    expr, binder.resolve, self._scalar_registry
                )
                for expr in group_exprs
            ]
            where_fn = (
                compile_row_expression(
                    select.where, binder.resolve, self._scalar_registry
                )
                if select.where is not None
                else None
            )
            stmt = _BatchStatement(
                select, env, binder, aggregates, group_exprs, group_fns, where_fn
            )
            served = self._serve_from_summary_cache(select, env, aggregates)
            if served is not None:
                stmt.groups = {(): [served]}
                stmt.served = True
            elif not group_exprs:
                # SQL semantics: a grand aggregate always yields one row.
                stmt.groups[()] = [spec.initialize() for spec in aggregates]
            prepared.append(stmt)

        scan_statements = [stmt for stmt in prepared if not stmt.served]
        if scan_statements:
            # ONE scan charge for the whole batch — this replaces the
            # per-statement charge serial execution makes in
            # _relation_for_source.
            self._cost.charge_scan(table.nominal_rows, table.width)
            for stmt in scan_statements:
                stmt.use_vector = self._batch_statement_vector_ready(stmt)
            self._batch_shared_scan(table, scan_statements)
            for stmt in scan_statements:
                self._charge_aggregate_costs(
                    stmt.select, stmt.env, stmt.aggregates, len(stmt.groups)
                )

        # Every input statement that would have scanned (cache serves
        # already counted their own scans_saved) shares the one scan.
        would_scan = sum(
            1 for position in decision.assignment if not prepared[position].served
        )
        if would_scan:
            metrics.scans_saved += would_scan - 1

        for stmt in prepared:
            result, order_context = self._finalize_aggregate(
                stmt.select, stmt.aggregates, stmt.group_exprs, stmt.groups
            )
            stmt.result = self._apply_order_limit(
                stmt.select, result, order_context
            )
        return [prepared[position].result for position in decision.assignment]

    def _batch_statement_vector_ready(self, stmt: "_BatchStatement") -> bool:
        """Exactly the vector-eligibility test serial execution applies.

        Per statement, not per batch: vector- and row-path results are
        each bit-identical to their serial counterpart but not to each
        other, so a batched statement must ride the same path its serial
        execution would.
        """
        return (
            stmt.where_fn is None
            and all(spec.vector_ready for spec in stmt.aggregates)
            and self._vector_group_keys_ready(stmt.group_exprs)
            and self._referenced_columns_numeric(
                stmt.env, stmt.aggregates, stmt.group_exprs, stmt.binder
            )
        )

    def _batch_shared_scan(
        self, table: Table, statements: "list[_BatchStatement]"
    ) -> None:
        """One fan-out feeding every statement's accumulators.

        Mirrors the serial degradation contract: if any statement rides
        the vector path and the fan-out fails, the whole batch rolls
        back (metrics too, minus real retry/timeout counts) and retries
        once with every statement on the row path; an all-row batch
        propagates, as the serial row path does.
        """
        snapshot = (
            self.last_metrics.to_dict()
            if any(stmt.use_vector for stmt in statements)
            else None
        )
        try:
            with self.tracer.span("aggregate") as span:
                self._batch_fan_out(table, statements)
                if span is not None:
                    span.attributes["strategy"] = "shared-scan"
                    span.attributes["statements"] = len(statements)
            return
        except Exception as exc:
            if snapshot is None:
                raise
            fallback_reason = self._degrade("aggregate", snapshot, exc)
        for stmt in statements:
            stmt.groups.clear()
            if not stmt.group_exprs:
                stmt.groups[()] = [spec.initialize() for spec in stmt.aggregates]
            stmt.use_vector = False
        with self.tracer.span("aggregate") as span:
            self._batch_fan_out(table, statements)
            if span is not None:
                span.attributes["strategy"] = "shared-scan row (fallback)"
                span.attributes["fallback_reason"] = fallback_reason
                span.attributes["statements"] = len(statements)

    def _batch_fan_out(
        self, table: Table, statements: "list[_BatchStatement]"
    ) -> None:
        """One partition-parallel pass feeding N accumulator sets per task
        (see :func:`_batch_task`).  Partials merge strictly in partition
        order per statement, so each statement's result is bit-identical
        to its serial execution at any worker count.
        """
        for stmt in statements:
            if stmt.use_vector:
                stmt.vector_fragment = _compile_vector_fragment(
                    stmt.aggregates, stmt.group_exprs, stmt.binder.resolve
                )
        results, task_spans, partition_ids = self._fan_out(
            table, _batch_task, statements
        )
        metrics = self.last_metrics
        for result in results:
            for stats in result[1]:
                self._fold_cache_stats(stats)
        with self.tracer.span("merge") as merge_span, StageTimer(
            metrics, "merge", merge_span
        ):
            for index, result in enumerate(results):
                locals_out, _, scanned, scan_seconds, accumulate_seconds = result
                # Physical rows read ONCE per partition, however many
                # statements they fed — the number the shared scan is for.
                self._record_task(
                    task_spans,
                    index,
                    partition_ids[index],
                    scanned,
                    any(locals_out),
                    scan_seconds,
                    "accumulate",
                    accumulate_seconds,
                    statements=len(statements),
                )
                for stmt, local in zip(statements, locals_out):
                    _merge_into(stmt.groups, stmt.aggregates, local)

    # ------------------------------------------------------ FROM environment
    def _build_from_environment(self, select: ast.Select) -> Relation:
        sources: list[
            tuple[ast.FromSource, Relation, ast.Expression | None, bool]
        ] = []
        for source in select.from_sources:
            sources.append((source, self._relation_for_source(source), None, False))
        for join in select.joins:
            sources.append(
                (
                    join.source,
                    self._relation_for_source(join.source),
                    join.condition,
                    join.outer,
                )
            )
        if not sources:
            return Relation(columns=[], rows=[()])
        if len(sources) == 1 and sources[0][2] is None:
            return sources[0][1]

        # Materialize a left-deep nested-loop join across all sources.
        _, current, _, _ = sources[0]
        current = current.materialize()
        for _, right, condition, outer in sources[1:]:
            right = right.materialize()
            # Honest input accounting for the nested loop: every outer
            # row re-reads the whole inner relation, so a join step's
            # physical reads are |outer| + |outer| x |inner| — the
            # number the factorized path's rows_join_avoided is
            # measured against.
            self.last_metrics.rows_scanned += len(current.rows) * (
                1 + len(right.rows)
            )
            with self.tracer.span("join") as join_span:
                joined_columns = current.columns + right.columns
                joined_rows: list[tuple] = []
                if condition is not None:
                    binder = Binder(joined_columns)
                    predicate = compile_row_expression(
                        condition, binder.resolve, self._scalar_registry
                    )
                    null_pad = (None,) * right.width
                    for left_row in current.rows:
                        matched = False
                        for right_row in right.rows:
                            combined = left_row + right_row
                            if predicate(combined) is True:
                                joined_rows.append(combined)
                                matched = True
                        if outer and not matched:
                            # LEFT OUTER: keep the left row, NULL-padded —
                            # the paper's "populating missing values with
                            # nulls" star-join construction.
                            joined_rows.append(left_row + null_pad)
                else:
                    for left_row in current.rows:
                        for right_row in right.rows:
                            joined_rows.append(left_row + right_row)
                if join_span is not None:
                    join_span.attributes["rows"] = len(joined_rows)
            scale = max(current.row_scale, right.row_scale)
            current = Relation(
                columns=joined_columns, rows=joined_rows, row_scale=scale
            )
            self._cost.charge_spool_rows(
                len(joined_rows) * scale, len(joined_columns)
            )
        return current

    def _relation_for_source(self, source: ast.FromSource) -> Relation:
        if isinstance(source, ast.DerivedTable):
            inner = self.execute_select(source.select).materialize()
            # The derived result is spooled and re-read by the outer query
            # (this is the paper's "two scans on a pivoted version of X").
            self._cost.charge_spool_rows(inner.nominal_rows, inner.width)
            self._cost.charge_scan(inner.nominal_rows, inner.width)
            columns = [
                BoundColumn(source.alias, column.name) for column in inner.columns
            ]
            return Relation(
                columns=columns, rows=inner.rows, row_scale=inner.row_scale
            )
        binding = source.binding_name
        if self._catalog.has_view(source.name):
            view_select = self._catalog.view(source.name)
            inner = self.execute_select(view_select).materialize()
            columns = [BoundColumn(binding, column.name) for column in inner.columns]
            return Relation(
                columns=columns, rows=inner.rows, row_scale=inner.row_scale
            )
        table = self._catalog.table(source.name)
        self._cost.charge_scan(table.nominal_rows, table.width)
        return _base_scan(table, binding)

    # ------------------------------------------------------------ projection
    def _execute_projection(
        self, select: ast.Select, env: Relation
    ) -> "tuple[Relation, _OrderContext]":
        binder = Binder(env.columns)
        items = self._expand_stars(select.items, binder)

        charged_expressions = [item.expression for item in items]
        if select.where is not None:
            charged_expressions.append(select.where)
        self._cost.charge_sql_evaluation(
            env.nominal_rows, self._expression_nodes(charged_expressions)
        )
        self._charge_scalar_udf_calls(charged_expressions, env.nominal_rows)

        # All analytical charges above are identical for both paths —
        # the block path is a pure wall-clock optimization, invisible to
        # the simulated-seconds benchmarks.
        fallback_reason: str | None = None
        if (
            self.vectorized_select
            and env.base_table is not None
            and not env._materialized
        ):
            decision = plan_vectorized_select(self._catalog, select, self.faults)
            if decision.plan is not None:
                snapshot = self.last_metrics.to_dict()
                try:
                    return self._execute_projection_vectorized(
                        env, binder, items, decision.plan, select
                    )
                except Exception as exc:
                    # Graceful degradation: the block path is an
                    # optimization, never a correctness requirement.  A
                    # runtime failure (kernel bug, injected fault, task
                    # timeout) retries on the reference row path once,
                    # with the failed attempt's metrics unwound so the
                    # statement reports row-path numbers plus the
                    # fallback itself.
                    fallback_reason = self._degrade("project", snapshot, exc)

        with self.tracer.span("scan") as scan_span, StageTimer(
            self.last_metrics, "scan", scan_span
        ):
            env.materialize()
            if scan_span is not None:
                scan_span.attributes["rows"] = len(env.rows)
        rows = env.rows
        with self.tracer.span("project") as project_span:
            if select.where is not None:
                predicate = compile_row_expression(
                    select.where, binder.resolve, self._scalar_registry
                )
                rows = [row for row in rows if predicate(row) is True]
            compiled = [
                compile_row_expression(
                    item.expression, binder.resolve, self._scalar_registry
                )
                for item in items
            ]
            out_rows = [tuple(fn(row) for fn in compiled) for row in rows]
            if project_span is not None:
                if fallback_reason is None:
                    project_span.attributes["strategy"] = "row"
                else:
                    project_span.attributes["strategy"] = "row (fallback)"
                    project_span.attributes["fallback_reason"] = fallback_reason
                project_span.attributes["rows"] = len(out_rows)
        out_columns = [
            BoundColumn(None, output_name(item, position))
            for position, item in enumerate(items)
        ]
        self._cost.charge_spool_rows(len(out_rows) * env.row_scale, len(out_columns))
        result = Relation(
            columns=out_columns, rows=out_rows, row_scale=env.row_scale
        )
        # ORDER BY may reference source columns not in the select list.
        order_context = _OrderContext(rows, binder, None)
        return result, order_context

    def _execute_projection_vectorized(
        self,
        env: Relation,
        binder: Binder,
        items: Sequence[ast.SelectItem],
        plan: VectorizedSelectPlan,
        select: ast.Select,
    ) -> "tuple[Relation, _OrderContext]":
        """Run one block-wise projection: one :func:`project_task` per
        non-empty partition.

        Results concatenate in partition order, so the output row order
        equals the row path's scan order exactly.
        """
        table = plan.table

        def describe() -> dict[str, Any]:
            # Workers re-plan the SELECT against a schema shim with the
            # same planner, so the compiled block functions are
            # recreated (closures don't pickle) yet identical.
            expressions = [item.expression for item in select.items]
            if select.where is not None:
                expressions.append(select.where)
            expressions.extend(expr for expr, _ in select.order_by)
            return {
                "kind": "project",
                "select": select,
                "table_name": table.name,
                "schema": table.schema,
                "scalar_udfs": self._shippable_scalar_udfs(expressions),
            }

        metrics = self.last_metrics
        out_rows: list[tuple] = []
        with self.tracer.span("project") as project_span:
            cached_blocks = self._cached_blocks(table, plan.positions)
            results, task_spans, partition_ids = self._fan_out(
                table, project_task, plan, describe
            )
            for index, result in enumerate(results):
                rows, scanned, scan_seconds, project_seconds, stats = result
                # Each task reports its own block-cache outcome, so the
                # statement totals are assembled from per-task locals in
                # partition order — immune to a straggler task from
                # another statement racing the shared partition
                # counters.
                self._fold_cache_stats(stats)
                extra: dict[str, Any] = {"strategy": "vectorized-scan"}
                if cached_blocks is not None:
                    extra["cached_block"] = cached_blocks[index]
                self._record_task(
                    task_spans,
                    index,
                    partition_ids[index],
                    scanned,
                    True,
                    scan_seconds,
                    "project",
                    project_seconds,
                    rows=len(rows),
                    **extra,
                )
                out_rows.extend(rows)
            if project_span is not None:
                project_span.attributes["strategy"] = "vectorized-scan"
                project_span.attributes["rows"] = len(out_rows)
        out_columns = [
            BoundColumn(None, output_name(item, position))
            for position, item in enumerate(items)
        ]
        self._cost.charge_spool_rows(
            len(out_rows) * env.row_scale, len(out_columns)
        )
        result = Relation(
            columns=out_columns, rows=out_rows, row_scale=env.row_scale
        )
        # The planner guaranteed ORDER BY resolves against the output
        # columns, so no pre-projection rows are ever needed.
        return result, _OrderContext([], binder, None)

    def _expand_stars(
        self, items: Sequence[ast.SelectItem], binder: Binder
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expression, ast.Star):
                for position in binder.positions_for_star(item.expression.table):
                    column = binder.columns[position]
                    expanded.append(
                        ast.SelectItem(ast.ColumnRef(column.name, column.binding))
                    )
            else:
                expanded.append(item)
        return expanded

    # ----------------------------------------------------------- aggregation
    def _collect_aggregates(self, select: ast.Select) -> list[AggregateCall]:
        expressions = [item.expression for item in select.items]
        if select.having is not None:
            expressions.append(select.having)
        calls = find_aggregates(expressions, self._catalog.is_aggregate)
        # ORDER BY may sort on an aggregate that is not selected
        # (``ORDER BY count(*)``); those must be computed too.  Only
        # when the query already aggregates — a bare projection cannot
        # be turned into an aggregate by its ORDER BY.
        if (calls or select.group_by) and select.order_by:
            order_expressions = list(expressions) + [
                expr for expr, _ in select.order_by
            ]
            calls = find_aggregates(
                order_expressions, self._catalog.is_aggregate
            )
        return calls

    def _aggregate_object(self, name: str) -> AggregateFunction | AggregateUdf:
        factory = AGGREGATE_BUILTINS.get(name.lower())
        if factory is not None:
            return factory()
        udf = self._catalog.aggregate_udf(name)
        if udf is None:
            raise PlanningError(f"unknown aggregate {name!r}")
        return udf

    def _execute_aggregate(
        self,
        select: ast.Select,
        env: Relation,
        aggregate_calls: list[AggregateCall],
    ) -> "tuple[Relation, _OrderContext]":
        binder = Binder(env.columns)
        group_exprs = list(select.group_by)

        aggregates = [
            _AggregateSpec(call, self._aggregate_object(call.name), binder, self)
            for call in aggregate_calls
        ]
        group_fns = [
            compile_row_expression(expr, binder.resolve, self._scalar_registry)
            for expr in group_exprs
        ]

        where_fn = (
            compile_row_expression(select.where, binder.resolve, self._scalar_registry)
            if select.where is not None
            else None
        )

        served = self._serve_from_summary_cache(select, env, aggregates)
        if served is not None:
            # The cache (or its incremental watermark refresh) already
            # charged exactly the rows it re-read, so the per-row
            # aggregation charges are skipped along with the scan.
            groups = {(): [served]}
        else:
            groups = self._accumulate_groups(
                env,
                binder,
                aggregates,
                group_exprs,
                group_fns,
                where_fn,
                where_expr=select.where,
            )

            self._charge_aggregate_costs(select, env, aggregates, len(groups))

        return self._finalize_aggregate(select, aggregates, group_exprs, groups)

    def _finalize_aggregate(
        self,
        select: ast.Select,
        aggregates: list["_AggregateSpec"],
        group_exprs: list[ast.Expression],
        groups: dict[tuple, list[Any]],
    ) -> "tuple[Relation, _OrderContext]":
        """Phase 4: finalize group states and project the result rows.

        Shared by serial execution and ``execute_batch`` — a batched
        statement's states take exactly this path, so the only thing the
        batch changes is how the states were *accumulated*.
        """
        # Build the post-aggregation environment and rewrite select items.
        replacements: dict[str, ast.Expression] = {}
        post_columns: list[BoundColumn] = []
        for index, expr in enumerate(group_exprs):
            name = f"__g{index}"
            replacements[ast.render(expr)] = ast.ColumnRef(name)
            post_columns.append(BoundColumn(None, name))
        for index, spec in enumerate(aggregates):
            name = f"__a{index}"
            replacements[spec.call.key] = ast.ColumnRef(name)
            post_columns.append(BoundColumn(None, name))
        post_binder = Binder(post_columns)

        out_columns = [
            BoundColumn(None, output_name(item, position))
            for position, item in enumerate(select.items)
        ]
        item_fns = []
        for item in select.items:
            rewritten = substitute(item.expression, replacements)
            self._check_no_raw_columns(rewritten, post_binder)
            item_fns.append(
                compile_row_expression(
                    rewritten, post_binder.resolve, self._scalar_registry
                )
            )
        having_fn = None
        if select.having is not None:
            rewritten = substitute(select.having, replacements)
            having_fn = compile_row_expression(
                rewritten, post_binder.resolve, self._scalar_registry
            )

        self.last_metrics.groups += len(groups)
        out_rows: list[tuple] = []
        post_rows: list[tuple] = []
        # Projection of an aggregate query is fused into finalization
        # (one pass packs states and builds output rows), so ANALYZE
        # shows its time under the finalize span, not a project span.
        with self.tracer.span("finalize") as finalize_span, StageTimer(
            self.last_metrics, "finalize", finalize_span
        ):
            for key, states in groups.items():
                finalized = tuple(
                    spec.finalize(state) for spec, state in zip(aggregates, states)
                )
                post_row = key + finalized
                if having_fn is not None and having_fn(post_row) is not True:
                    continue
                post_rows.append(post_row)
                out_rows.append(tuple(fn(post_row) for fn in item_fns))

        self._cost.charge_spool_result(max(len(out_rows), 1), len(out_columns))
        result = Relation(columns=out_columns, rows=out_rows, row_scale=1.0)

        def rewrite(expression: ast.Expression) -> ast.Expression:
            rewritten = substitute(expression, replacements)
            self._check_no_raw_columns(rewritten, post_binder)
            return rewritten

        return result, _OrderContext(post_rows, post_binder, rewrite)

    def _check_no_raw_columns(
        self, expression: ast.Expression, post_binder: Binder
    ) -> None:
        """After substitution, any remaining column ref must be a synthetic
        group/aggregate column — otherwise the query selected a column
        that is neither aggregated nor in GROUP BY."""
        for node in ast.walk(expression):
            if isinstance(node, ast.ColumnRef):
                if not any(column.matches(node) for column in post_binder.columns):
                    raise PlanningError(
                        f"column {node.display()!r} must appear in GROUP BY "
                        "or inside an aggregate"
                    )

    # ------------------------------------------------------ summary cache
    def _static_summary_cache_target(
        self, select: ast.Select
    ) -> "tuple[Table, list[str], Any] | None":
        """Statically decide whether *select* is one cacheable summary call.

        Eligible shape: a grand aggregate (no GROUP BY / WHERE / HAVING /
        joins) over exactly one base table, whose single aggregate is a
        ``summary_cacheable`` UDF called in the list form — a leading
        integer literal ``d`` followed by ``d`` numeric column
        references.  Returns ``(table, dimension names, matrix type)``
        or ``None``; never mutates cache state.
        """
        cache = self.summary_cache
        if cache is None or not getattr(cache, "enabled", False):
            return None
        if (
            select.group_by
            or select.where is not None
            or select.having is not None
            or select.joins
            or len(select.from_sources) != 1
        ):
            return None
        source = select.from_sources[0]
        if not isinstance(source, ast.TableName):
            return None
        if self._catalog.has_view(source.name) or not self._catalog.has_table(
            source.name
        ):
            return None
        table = self._catalog.table(source.name)
        calls = self._collect_aggregates(select)
        if len(calls) != 1:
            return None
        udf = self._catalog.aggregate_udf(calls[0].name)
        if udf is None or not getattr(udf, "summary_cacheable", False):
            return None
        matrix_type = getattr(udf, "matrix_type", None)
        if matrix_type is None:
            return None
        args = calls[0].call.args
        if len(args) < 2:
            return None
        first = args[0]
        if (
            not isinstance(first, ast.Literal)
            or isinstance(first.value, bool)
            or not isinstance(first.value, int)
            or first.value != len(args) - 1
        ):
            return None
        dimensions: list[str] = []
        for arg in args[1:]:
            if not isinstance(arg, ast.ColumnRef):
                return None
            try:
                column = table.schema.column(arg.name)
            except SchemaError:
                return None
            if not column.sql_type.is_numeric:
                return None
            dimensions.append(column.name)
        return table, dimensions, matrix_type

    def _serve_from_summary_cache(
        self,
        select: ast.Select,
        env: Relation,
        aggregates: list["_AggregateSpec"],
    ) -> "Any | None":
        """Serve a cacheable summary statement without a full scan.

        Returns a synthesized aggregate state carrying the cached
        :class:`~repro.core.summary.SummaryStatistics` (finalize then
        produces the exact payload a scan would), or ``None`` to stay on
        the scan path.  A cache miss still builds and stores the entry —
        the statement pays its one scan and every repeat is free.
        """
        target = self._static_summary_cache_target(select)
        if target is None:
            return None
        table, dimensions, matrix_type = target
        if env.base_table is not table or env._materialized:
            return None
        if len(aggregates) != 1:
            return None
        udf = aggregates[0].aggregate
        if not hasattr(udf, "state_from_stats"):
            return None
        with self.tracer.span("summary-cache") as span:
            stats, hit, refreshed = self.summary_cache.lookup(
                table.name, dimensions, matrix_type
            )
            metrics = self.last_metrics
            if hit:
                metrics.summary_cache_hits += 1
                metrics.scans_saved += 1
            else:
                metrics.summary_cache_misses += 1
            metrics.rows_scanned += refreshed
            if span is not None:
                span.attributes["table"] = table.name
                span.attributes["columns"] = ",".join(dimensions)
                span.attributes["hit"] = hit
                span.attributes["rows_refreshed"] = refreshed
        return udf.state_from_stats(stats)

    def _summary_cache_note(self, select: ast.Select) -> "str | None":
        """The EXPLAIN annotation for a cache-eligible statement, from a
        non-mutating probe of the cache's current state."""
        target = self._static_summary_cache_target(select)
        if target is None:
            return None
        table, dimensions, matrix_type = target
        status, pending = self.summary_cache.probe(
            table.name, dimensions, matrix_type
        )
        if status == "hit":
            return (
                "summary-cache hit: (n, L, Q) served from cache, "
                "0 rows scanned"
            )
        if status == "stale":
            return (
                "summary-cache hit (stale): incremental refresh reads "
                f"{pending} appended rows"
            )
        return "summary-cache miss: this scan warms the cache"

    # ------------------------------------------------------ factorized joins
    def _try_factorized_select(self, select: ast.Select) -> "Relation | None":
        """Run *select* factorized if the planner proves it safe.

        Returns ``None`` to continue on the materializing join path —
        either the pass refused (``last_factorize_decision.reason``
        says why) or a run-time assumption failed mid-build (e.g. a
        duplicated dimension primary key) and the statement degraded
        gracefully, exactly like a vectorized→row fallback.
        """
        decision = plan_factorize(self._catalog, select)
        self.last_factorize_decision = decision
        if not decision.factorized:
            return None
        snapshot = self.last_metrics.to_dict()
        try:
            return self._execute_factorized_aggregate(select, decision)
        except fcore.FactorizedFallback as exc:
            self._degrade("aggregate", snapshot, exc)
            return None
        except PartitionExecutionError as exc:
            # A guard tripping *inside* a partition task (e.g. a
            # duplicate dimension key found while folding one
            # partition's map) surfaces wrapped; unwrap it so the
            # statement still degrades instead of failing.  Genuine
            # task failures (faults, crashes) stay typed errors.
            if isinstance(exc.first_error, fcore.FactorizedFallback):
                self._degrade("aggregate", snapshot, exc.first_error)
                return None
            raise

    def _execute_factorized_aggregate(
        self, select: ast.Select, decision: FactorizeDecision
    ) -> Relation:
        """Answer a star-join aggregate from per-base-table partials.

        One partition-parallel pass per dimension table builds key →
        feature maps; one pass over the fact table folds FK-grouped
        partials; the combine step weights dimension vectors by the
        fact-side multiplicities (:mod:`repro.core.factorized`).  The
        joined table never exists: rows scanned are Σ|base tables|.
        """
        metrics = self.last_metrics
        fact = self._catalog.table(decision.fact_table)
        dim_tables = [self._catalog.table(dim.table) for dim in decision.dims]
        # Binder over the *virtual* joined schema (fact columns, then
        # each dimension's) — aggregate specs resolve against it
        # without any joined relation existing.
        columns = [
            BoundColumn(decision.fact_binding, column.name)
            for column in fact.schema.columns
        ]
        for dim, table in zip(decision.dims, dim_tables):
            columns.extend(
                BoundColumn(dim.binding, column.name)
                for column in table.schema.columns
            )
        binder = Binder(columns)
        aggregate_calls = self._collect_aggregates(select)
        aggregates = [
            _AggregateSpec(call, self._aggregate_object(call.name), binder, self)
            for call in aggregate_calls
        ]
        plan = _resolve_factorized_positions(
            decision, fact, dim_tables, aggregates
        )

        base_tables = [fact, *dim_tables]
        cache = self.summary_cache
        cache_key = None
        if (
            decision.shape == "summary"
            and cache is not None
            and getattr(cache, "enabled", False)
            and hasattr(aggregates[0].aggregate, "state_from_stats")
        ):
            cache_key = _join_cache_key(decision)
            served = cache.lookup_join(cache_key, base_tables)
            if served is not None:
                stats, rows_avoided = served
                with self.tracer.span("summary-cache") as span:
                    if span is not None:
                        span.attributes["hit"] = True
                        span.attributes["factorized"] = True
                        span.attributes["tables"] = ",".join(
                            table.name for table in base_tables
                        )
                metrics.summary_cache_hits += 1
                metrics.scans_saved += len(base_tables)
                metrics.factorized_joins += 1
                metrics.rows_join_avoided += rows_avoided
                states = [aggregates[0].aggregate.state_from_stats(stats)]
                result, order_context = self._finalize_aggregate(
                    select, aggregates, [], {(): states}
                )
                return self._apply_order_limit(select, result, order_context)

        for table in base_tables:
            self._cost.charge_scan(table.nominal_rows, table.width)

        dim_maps: "list[tuple[dict, set]]" = []
        dim_values: "list[dict]" = []
        dim_raws: "list[dict]" = []
        for dim_index, table in enumerate(dim_tables):
            values, null_any, raw = self._build_factorized_dim_map(
                table,
                plan.dim_key_positions[dim_index],
                plan.dim_feature_positions[dim_index],
            )
            dim_maps.append((values, null_any))
            dim_values.append(values)
            dim_raws.append(raw)

        with self.tracer.span("aggregate") as strategy_span:
            if strategy_span is not None:
                strategy_span.attributes["strategy"] = "factorized-join"
            states, stats = self._fold_factorized_fact(
                decision, plan, fact, aggregates, dim_maps, dim_values, dim_raws
            )

        if cache_key is not None:
            metrics.summary_cache_misses += 1

        base_rows = sum(table.row_count for table in base_tables)
        would_read = 0
        outer_rows = fact.row_count
        for table in dim_tables:
            would_read += outer_rows * (1 + table.row_count)
        avoided = max(0, would_read - base_rows)
        metrics.factorized_joins += 1
        metrics.rows_join_avoided += avoided
        if cache_key is not None and stats is not None:
            cache.store_join(cache_key, base_tables, stats, avoided)

        self._charge_factorized_costs(select, aggregates, fact, dim_tables)
        result, order_context = self._finalize_aggregate(
            select, aggregates, [], {(): states}
        )
        return self._apply_order_limit(select, result, order_context)

    def _fold_factorized_fact(
        self,
        decision: FactorizeDecision,
        plan: "_FactorizedPositions",
        fact: Table,
        aggregates: list["_AggregateSpec"],
        dim_maps: "list[tuple[dict, set]]",
        dim_values: "list[dict]",
        dim_raws: "list[dict]",
    ) -> "tuple[list[Any], Any]":
        """Fact-side fold + combine; returns (states, stats-or-None)."""
        metrics = self.last_metrics
        shape = decision.shape
        key_positions = plan.fact_key_positions
        if shape == "summary":
            udf = aggregates[0].aggregate
            matrix_type = decision.matrix_type
            pairs = fcore.fact_pairs(len(plan.fact_positions), matrix_type)
            partials = self._factorized_partition_fold(
                fact,
                ("summary", key_positions, dim_maps, plan.fact_positions, pairs),
            )
            with self.tracer.span("merge") as merge_span, StageTimer(
                metrics, "merge", merge_span
            ):
                merged = fcore.merge_summary_fact_partitions(
                    partials, len(plan.fact_positions), len(pairs)
                )
                stats = fcore.combine_summary(
                    merged, plan.sources, dim_values, matrix_type
                )
            return [udf.state_from_stats(stats)], stats
        if shape == "fused":
            udf = aggregates[0].aggregate
            tables = udf.factorized_tables(plan.sources, dim_values)
            partials = self._factorized_partition_fold(
                fact,
                ("fused", key_positions, dim_maps, plan.fact_positions, tables),
                fire_site=getattr(udf, "fault_site", None),
                fire_udf=aggregates[0].call.name,
            )
            with self.tracer.span("merge") as merge_span, StageTimer(
                metrics, "merge", merge_span
            ):
                merged = fcore.merge_fused_fact_partitions(
                    partials,
                    tables["k"],
                    len(plan.fact_positions),
                    len(dim_maps),
                )
                counts, linear, quadratic, extra = fcore.combine_fused(
                    merged, plan.sources, dim_values, tables["k"]
                )
            state = udf.state_from_factorized(counts, linear, quadratic, extra)
            return [state], None
        # builtins: COUNT(*) / SUM partials in Python arithmetic.
        specs = plan.builtin_specs
        partials = self._factorized_partition_fold(
            fact, ("builtins", key_positions, dim_maps, dim_raws, specs)
        )
        with self.tracer.span("merge") as merge_span, StageTimer(
            metrics, "merge", merge_span
        ):
            _matched, merged_states = fcore.merge_builtin_partials(
                partials, specs
            )
        states: list[Any] = []
        for index, spec in enumerate(specs):
            if spec[0] == "count_star":
                states.append(merged_states[index])
            else:
                states.append(merged_states[index][0])
        return states, None

    def _build_factorized_dim_map(
        self,
        table: Table,
        key_position: int,
        feature_positions: "list[int]",
    ) -> "tuple[dict, set, dict]":
        """One partition-parallel pass over a dimension table.

        The wrapper span is named ``dim-scan`` (not ``scan``) on
        purpose: per-task ``scan`` child spans under the task spans
        already carry the measured scan seconds, and
        ``Span.total_seconds("scan")`` must keep reconciling exactly
        with ``metrics.scan_seconds``.
        """
        with self.tracer.span("dim-scan") as span:
            partials = self._factorized_partition_fold(
                table, ("dim", key_position, feature_positions)
            )
            merged = fcore.merge_dim_partitions(partials)
            if span is not None:
                span.attributes["table"] = table.name
                span.attributes["rows"] = table.row_count
                span.attributes["keys"] = len(merged[0])
        return merged

    def _factorized_partition_fold(
        self,
        table: Table,
        fold: tuple,
        fire_site: "str | None" = None,
        fire_udf: "str | None" = None,
    ) -> list[Any]:
        """Fan the ``(tag, *args)`` *fold* spec out as one
        :func:`fact_fold_task` per partition.

        Partials return strictly in partition order; per-task times and
        row counts fold into the statement metrics exactly like the
        single-table row-partitioned path, so worker count never
        changes results or bookkeeping.
        """
        fragment = (fold, fire_site, fire_udf)
        results, task_spans, partition_ids = self._fan_out(
            table,
            fact_fold_task,
            fragment,
            lambda: {"kind": "fact-fold", "fragment": fragment},
        )
        partials: list[Any] = []
        for index, result in enumerate(results):
            partial_state, row_count, scan_seconds, accumulate_seconds = result
            self._record_task(
                task_spans,
                index,
                partition_ids[index],
                row_count,
                bool(row_count),
                scan_seconds,
                "accumulate",
                accumulate_seconds,
            )
            partials.append(partial_state)
        return partials

    def _charge_factorized_costs(
        self,
        select: ast.Select,
        aggregates: list["_AggregateSpec"],
        fact: Table,
        dim_tables: "list[Table]",
    ) -> None:
        """Analytical charges for the factorized path.

        The select list evaluates once per *fact* row (the aggregate
        argument gathering); each base table's scan was charged up
        front, and the per-partition merge covers every base table's
        partials.
        """
        rows = fact.nominal_rows
        charged = [item.expression for item in select.items]
        self._cost.charge_sql_evaluation(rows, self._expression_nodes(charged))
        partitions = fact.partition_count + sum(
            table.partition_count for table in dim_tables
        )
        for spec in aggregates:
            if spec.is_builtin:
                continue
            udf = spec.aggregate
            assert isinstance(udf, AggregateUdf)
            profile = udf.cost_per_row(len(spec.call.call.args))
            self._cost.charge_udf_rows(
                rows,
                list_params=profile.list_params,
                arith_ops=profile.arith_ops,
            )
            if profile.string_chars:
                self._cost.charge_udf_string_transfer(rows, profile.string_chars)
            self._cost.charge_udf_merge(partitions, udf.state_value_count())
            self._cost.charge_udf_return(udf.state_value_count())

    def _factorized_cache_note(self, select: ast.Select) -> "str | None":
        """EXPLAIN annotation for a join-cacheable factorized statement."""
        cache = self.summary_cache
        if cache is None or not getattr(cache, "enabled", False):
            return None
        if not select.joins:
            return None
        decision = plan_factorize(self._catalog, select)
        if not decision.factorized or decision.shape != "summary":
            return None
        tables = [self._catalog.table(decision.fact_table)] + [
            self._catalog.table(dim.table) for dim in decision.dims
        ]
        status = cache.probe_join(_join_cache_key(decision), tables)
        if status == "hit":
            return (
                "summary-cache hit: factorized (n, L, Q) served from "
                "cache, 0 rows scanned"
            )
        return (
            "summary-cache miss: this factorized build warms the cache "
            "(keyed on every base table's version)"
        )

    def _accumulate_groups(
        self,
        env: Relation,
        binder: Binder,
        aggregates: list["_AggregateSpec"],
        group_exprs: list[ast.Expression],
        group_fns: list[Callable[[tuple], Any]],
        where_fn: Callable[[tuple], Any] | None,
        where_expr: "ast.Expression | None",
    ) -> dict[tuple, list[Any]]:
        groups: dict[tuple, list[Any]] = {}
        if not group_exprs:
            # SQL semantics: a grand aggregate always yields one row.
            groups[()] = [spec.initialize() for spec in aggregates]

        use_vector = (
            env.base_table is not None
            and not env._materialized
            and where_fn is None
            and all(spec.vector_ready for spec in aggregates)
            and self._vector_group_keys_ready(group_exprs)
            and self._referenced_columns_numeric(
                env, aggregates, group_exprs, binder
            )
        )
        fallback_reason: str | None = None
        if use_vector:
            snapshot = self.last_metrics.to_dict()
            try:
                with self.tracer.span("aggregate") as span:
                    self._accumulate_vectorized(
                        env, binder, aggregates, group_exprs, groups
                    )
                    if span is not None:
                        span.attributes["strategy"] = "vectorized"
                        span.attributes["groups"] = len(groups)
                return groups
            except Exception as exc:
                # Graceful degradation: a failing batched kernel (or an
                # injected fault / task timeout under it) retries on the
                # row path once.  Partially merged group state and the
                # failed attempt's metrics are discarded first, so the
                # retry starts from the same blank slate serial
                # execution would.
                fallback_reason = self._degrade("aggregate", snapshot, exc)
                groups.clear()
                if not group_exprs:
                    groups[()] = [spec.initialize() for spec in aggregates]

        if env.base_table is not None and not env._materialized:
            # Partitioned row path: one partial state per partition (the
            # paper's per-AMP accumulation), merged in partition order —
            # so group keys keep their scan-order first appearance — and
            # run concurrently when the engine has workers.
            with self.tracer.span("aggregate") as span:
                results, task_spans, partition_ids = self._fan_out(
                    env.base_table,
                    agg_row_task,
                    (aggregates, group_fns, where_fn),
                    lambda: self._aggregate_description(
                        "agg-row", aggregates, binder, group_exprs, where_expr
                    ),
                )
                self._merge_partition_partials(
                    results, aggregates, groups, task_spans, partition_ids
                )
                if span is not None:
                    if fallback_reason is None:
                        span.attributes["strategy"] = "row-partitioned"
                    else:
                        span.attributes["strategy"] = (
                            "row-partitioned (fallback)"
                        )
                        span.attributes["fallback_reason"] = fallback_reason
                    span.attributes["groups"] = len(groups)
            return groups

        # Materialized relations (joins, derived tables, views) have no
        # partition structure; accumulate serially into a single state.
        env.materialize()
        with self.tracer.span("aggregate") as span:
            with self.tracer.span("accumulate") as accumulate_span, StageTimer(
                self.last_metrics, "accumulate", accumulate_span
            ):
                for row in env.rows:
                    if where_fn is not None and where_fn(row) is not True:
                        continue
                    key = tuple(fn(row) for fn in group_fns)
                    states = groups.get(key)
                    if states is None:
                        states = [spec.initialize() for spec in aggregates]
                        groups[key] = states
                    for index, spec in enumerate(aggregates):
                        states[index] = spec.accumulate_row(states[index], row)
                    self.last_metrics.rows_processed += 1
            if span is not None:
                span.attributes["strategy"] = "row-serial"
                span.attributes["groups"] = len(groups)
        return groups

    def _merge_partition_partials(
        self,
        results: Sequence[tuple],
        aggregates: list["_AggregateSpec"],
        groups: dict[tuple, list[Any]],
        task_spans: "list[Span] | None",
        partition_ids: "list[int]",
        cached_blocks: "list[bool] | None" = None,
    ) -> None:
        """Fold per-partition ``(partials, rows, scan s, accumulate s,
        ...)`` task results into *groups* and the statement metrics,
        strictly in partition order."""
        with self.tracer.span("merge") as merge_span, StageTimer(
            self.last_metrics, "merge", merge_span
        ):
            for index, result in enumerate(results):
                local, folded, scan_seconds, accumulate_seconds = result[:4]
                extra = (
                    {}
                    if cached_blocks is None
                    else {"cached_block": cached_blocks[index]}
                )
                self._record_task(
                    task_spans,
                    index,
                    partition_ids[index],
                    folded,
                    bool(local),
                    scan_seconds,
                    "accumulate",
                    accumulate_seconds,
                    **extra,
                )
                _merge_into(groups, aggregates, local)

    def _referenced_columns_numeric(
        self,
        env: Relation,
        aggregates: list["_AggregateSpec"],
        group_exprs: list[ast.Expression],
        binder: Binder,
    ) -> bool:
        """The vector path reads column blocks as float matrices, so every
        referenced base column must be numeric."""
        table = env.base_table
        assert table is not None
        expressions = [spec.call.call for spec in aggregates] + list(group_exprs)
        for ref in referenced_columns_of_all(expressions):
            position = binder.resolve(ref)
            column = table.schema.columns[position]
            if not column.sql_type.is_numeric:
                return False
        return True

    def _vector_group_keys_ready(self, group_exprs: list[ast.Expression]) -> bool:
        for expr in group_exprs:
            resolver = _matrix_resolver(referenced_columns(expr))
            if compile_vector_expression(expr, resolver) is None:
                return False
        return True

    def _accumulate_vectorized(
        self,
        env: Relation,
        binder: Binder,
        aggregates: list["_AggregateSpec"],
        group_exprs: list[ast.Expression],
        groups: dict[tuple, list[Any]],
    ) -> None:
        """Vector-path accumulation: one :func:`agg_vector_task` per
        partition, merged in partition order."""
        table = env.base_table
        assert table is not None
        fragment = _compile_vector_fragment(aggregates, group_exprs, binder.resolve)
        positions, fused_udfs = fragment[0], fragment[1]
        cached_blocks = self._cached_blocks(table, positions)
        results, task_spans, partition_ids = self._fan_out(
            table,
            agg_vector_task,
            fragment,
            lambda: self._aggregate_description(
                "agg-vector", aggregates, binder, group_exprs
            ),
        )
        # Per-task cache stats merged in partition order (see the
        # projection path for why the shared partition counters are not
        # read here).
        for result in results:
            self._fold_cache_stats(result[4])
        if task_spans is not None and fused_udfs:
            # Zero-cost marker child so ANALYZE shows which tasks ran a
            # fused clustering iteration (``_operator_spans`` skips
            # spans under tasks, so pairing is unaffected).
            marker = ",".join(name for _, name in fused_udfs)
            for task_span in task_spans:
                task_span.children.append(
                    Span("fused-iteration", attributes={"udf": marker})
                )
        self._merge_partition_partials(
            results,
            aggregates,
            groups,
            task_spans,
            partition_ids,
            cached_blocks,
        )

    def _charge_aggregate_costs(
        self,
        select: ast.Select,
        env: Relation,
        aggregates: list["_AggregateSpec"],
        group_count: int,
    ) -> None:
        rows = env.nominal_rows
        # Interpreted per-row evaluation of the select list (and WHERE,
        # and GROUP BY keys) — this is where the long 1+d+d²-term SQL
        # query pays, while an aggregate-UDF call is a single node.
        charged: list[ast.Expression] = [item.expression for item in select.items]
        charged.extend(select.group_by)
        if select.where is not None:
            charged.append(select.where)
        self._cost.charge_sql_evaluation(rows, self._expression_nodes(charged))
        self._charge_scalar_udf_calls(list(select.group_by), rows)
        if select.group_by:
            self._cost.charge_groupby(rows)
        groups = max(group_count, 1)
        for spec in aggregates:
            if spec.is_builtin:
                continue
            udf = spec.aggregate
            assert isinstance(udf, AggregateUdf)
            profile = udf.cost_per_row(len(spec.call.call.args))
            multiplier = 1.0
            if select.group_by:
                state_bytes = udf.state_value_count() * 8
                multiplier = self._cost.groupby_spill_multiplier(groups, state_bytes)
            # The spill multiplier models state management pressure; the
            # string pack/parse work is unaffected by it.
            self._cost.charge_udf_rows(
                rows * multiplier,
                list_params=profile.list_params,
                arith_ops=profile.arith_ops,
            )
            if profile.string_chars:
                self._cost.charge_udf_string_transfer(rows, profile.string_chars)
            partitions = (
                env.base_table.partition_count if env.base_table is not None else 1
            )
            self._cost.charge_udf_merge(
                partitions * groups, udf.state_value_count()
            )
            self._cost.charge_udf_return(udf.state_value_count() * groups)

    # -------------------------------------------------------- order and limit
    def _apply_order_limit(
        self,
        select: ast.Select,
        result: Relation,
        order_context: "_OrderContext",
    ) -> Relation:
        """Sort and truncate the output.

        ORDER BY expressions resolve in SQL's order of preference:
        an integer literal is an output position; then output columns
        (aliases); then the pre-projection environment — source columns
        not in the select list, or (after aggregation) aggregate
        expressions rewritten onto the group result.
        """
        if select.order_by:
            out_binder = Binder(result.columns)
            key_fns: list[tuple[Callable[[int], Any], bool]] = []
            out_rows = result.rows
            key_rows = order_context.rows
            for expr, ascending in select.order_by:
                if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    position = expr.value - 1
                    if not 0 <= position < result.width:
                        raise PlanningError(
                            f"ORDER BY position {expr.value} out of range"
                        )
                    key_fns.append(
                        (lambda i, p=position: out_rows[i][p], ascending)
                    )
                    continue
                try:
                    fn = compile_row_expression(
                        expr, out_binder.resolve, self._scalar_registry
                    )
                    key_fns.append(
                        (lambda i, f=fn: f(out_rows[i]), ascending)
                    )
                    continue
                except PlanningError:
                    pass
                rewritten = (
                    order_context.rewrite(expr)
                    if order_context.rewrite is not None
                    else expr
                )
                fn = compile_row_expression(
                    rewritten, order_context.binder.resolve, self._scalar_registry
                )
                key_fns.append((lambda i, f=fn: f(key_rows[i]), ascending))

            with self.tracer.span("sort") as sort_span:
                order = list(range(len(out_rows)))
                for fn, ascending in reversed(key_fns):
                    order.sort(
                        key=lambda i: _sort_key(fn(i)), reverse=not ascending
                    )
                result = Relation(
                    columns=result.columns,
                    rows=[out_rows[i] for i in order],
                    row_scale=result.row_scale,
                )
                if sort_span is not None:
                    sort_span.attributes["rows"] = len(result.rows)
            self._cost.charge_sort(result.nominal_rows)
        if select.limit is not None:
            result = Relation(
                columns=result.columns,
                rows=result.rows[: select.limit],
                row_scale=result.row_scale,
            )
        return result

    # -------------------------------------------------------------- utilities
    def _scalar_registry(self, name: str) -> Callable[..., Any] | None:
        builtin = SCALAR_BUILTINS.get(name)
        if builtin is not None:
            return builtin
        return self._catalog.scalar_udf(name)

    def _charge_scalar_udf_calls(
        self, expressions: Sequence[ast.Expression], rows: float
    ) -> None:
        for expression in expressions:
            for node in ast.walk(expression):
                if isinstance(node, ast.FuncCall):
                    udf = self._catalog.scalar_udf(node.name)
                    if udf is not None:
                        profile = udf.cost_per_row(len(node.args))
                        self._cost.charge_scalar_udf_rows(
                            rows,
                            params=profile.list_params,
                            arith_ops=profile.arith_ops,
                        )

    def _expression_nodes(self, expressions: Sequence[ast.Expression]) -> int:
        """AST-node count the interpreted evaluator pays per row.

        A UDF call (scalar or aggregate) counts as a single node with
        only its non-trivial arguments descended into: UDF parameters
        are handed over on the run-time stack, so plain column refs and
        literals in the argument list cost nothing extra — the UDF's own
        per-call cost is charged separately.  Builtin calls (sum, sqrt,
        ...) are interpreted and count fully.
        """
        total = 0

        def visit(node: ast.Expression) -> None:
            nonlocal total
            total += 1
            if isinstance(node, ast.FuncCall) and not (
                node.name in SCALAR_BUILTINS or node.name in AGGREGATE_BUILTINS
            ):
                for arg in node.args:
                    if not isinstance(arg, (ast.ColumnRef, ast.Literal)):
                        visit(arg)
                return
            if isinstance(node, ast.Unary):
                visit(node.operand)
            elif isinstance(node, ast.Binary):
                visit(node.left)
                visit(node.right)
            elif isinstance(node, ast.FuncCall):
                for arg in node.args:
                    visit(arg)
            elif isinstance(node, ast.Case):
                for condition, result in node.whens:
                    visit(condition)
                    visit(result)
                if node.else_result is not None:
                    visit(node.else_result)
            elif isinstance(node, ast.IsNull):
                visit(node.operand)
            elif isinstance(node, ast.InList):
                visit(node.operand)
                for item in node.items:
                    visit(item)

        for expression in expressions:
            visit(expression)
        return total


@dataclass
class _OrderContext:
    """Pre-projection rows/binder for ORDER BY resolution, plus an
    optional expression rewriter (aggregate substitution)."""

    rows: list[tuple]
    binder: Binder
    rewrite: "Callable[[ast.Expression], ast.Expression] | None" = None


@dataclass
class _FactorizedPositions:
    """A FactorizeDecision bound to physical column positions.

    * ``fact_key_positions[i]`` — the fact row position of dims[i]'s FK;
    * ``dim_key_positions[i]`` / ``dim_feature_positions[i]`` — the
      dimension row positions of its PK and of the (de-duplicated)
      feature columns the aggregates read;
    * ``sources`` — per aggregate argument: ``("fact", fact_arg_index)``,
      ``("dim", dim_index, feature_index)`` or ``("const", value)``;
      ``fact_positions[fact_arg_index]`` is the fact row position;
    * ``builtin_specs`` — per aggregate call (builtins shape), with
      fact terms carrying fact row positions directly.
    """

    fact_key_positions: "list[int]"
    dim_key_positions: "list[int]"
    dim_feature_positions: "list[list[int]]"
    fact_positions: "list[int]"
    sources: "tuple"
    builtin_specs: "list[tuple]"


def _resolve_factorized_positions(
    decision: FactorizeDecision,
    fact: Table,
    dim_tables: "list[Table]",
    aggregates: list["_AggregateSpec"],
) -> _FactorizedPositions:
    """Map the decision's column names onto row positions."""
    fact_key_positions = [
        fact.schema.position_of(dim.fact_key) for dim in decision.dims
    ]
    dim_key_positions = [
        table.schema.position_of(dim.dim_key)
        for dim, table in zip(decision.dims, dim_tables)
    ]
    dim_feature_positions: "list[list[int]]" = [[] for _ in decision.dims]
    dim_feature_index: "list[dict[str, int]]" = [{} for _ in decision.dims]

    def dim_feature(dim_index: int, name: str) -> int:
        assigned = dim_feature_index[dim_index]
        index = assigned.get(name)
        if index is None:
            index = len(dim_feature_positions[dim_index])
            assigned[name] = index
            dim_feature_positions[dim_index].append(
                dim_tables[dim_index].schema.position_of(name)
            )
        return index

    fact_positions: "list[int]" = []
    sources: "list[tuple]" = []
    for source in decision.arg_sources:
        if source[0] == "fact":
            fact_positions.append(fact.schema.position_of(source[1]))
            sources.append(("fact", len(fact_positions) - 1))
        elif source[0] == "dim":
            _kind, dim_index, name = source
            sources.append(("dim", dim_index, dim_feature(dim_index, name)))
        else:
            sources.append(source)
    builtin_specs: "list[tuple]" = []
    if decision.shape == "builtins":
        for spec in aggregates:
            shape = decision.builtin_shapes.get(spec.call.key)
            if shape is None:  # pragma: no cover - planner/executor drift
                raise fcore.FactorizedFallback(
                    f"no factorized shape for aggregate {spec.call.key}"
                )
            if shape[0] == "count_star":
                builtin_specs.append(shape)
                continue
            terms: "list[tuple]" = []
            for term in shape[1]:
                if term[0] == "fact":
                    terms.append(("fact", fact.schema.position_of(term[1])))
                elif term[0] == "dim":
                    _kind, dim_index, name = term
                    terms.append(
                        ("dim", dim_index, dim_feature(dim_index, name))
                    )
                else:
                    terms.append(term)
            builtin_specs.append(("sum", tuple(terms)))
    return _FactorizedPositions(
        fact_key_positions=fact_key_positions,
        dim_key_positions=dim_key_positions,
        dim_feature_positions=dim_feature_positions,
        fact_positions=fact_positions,
        sources=tuple(sources),
        builtin_specs=builtin_specs,
    )


def _join_cache_key(decision: FactorizeDecision) -> tuple:
    """Composite cache key for a join-derived summary.

    Covers the whole star shape — fact table, every dimension arm's
    (table, FK, PK), the full argument list and the matrix type — so
    two different star queries can never collide.  Freshness against
    every base table's version is the cache's job (the key only names
    the tables; the entry records their versions).
    """
    return (
        decision.fact_table.lower(),
        tuple(
            (dim.table.lower(), dim.fact_key, dim.dim_key)
            for dim in decision.dims
        ),
        decision.arg_sources,
        decision.matrix_type,
    )


def _sort_key(value: Any) -> tuple:
    """NULLs sort last among ascending values; mixed types sort by type name."""
    if value is None:
        return (2, 0)
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))


def _empty_result() -> Relation:
    return Relation(columns=[], rows=[])


def _describe_failure(exc: BaseException) -> str:
    """One-line ``fallback_reason`` text: exception type plus message,
    truncated so a pathological message cannot bloat metrics or spans."""
    text = f"{type(exc).__name__}: {exc}"
    if len(text) > 200:
        text = text[:197] + "..."
    return text


def _matrix_resolver(refs: list[ast.ColumnRef]) -> Callable[[ast.ColumnRef], int]:
    mapping = {(ref.table, ref.name.lower()): index for index, ref in enumerate(refs)}

    def resolve(ref: ast.ColumnRef) -> int:
        return mapping[(ref.table, ref.name.lower())]

    return resolve


class _DistinctState:
    """Aggregate state paired with the set of argument tuples seen so far
    (DISTINCT aggregation; row path only).

    Partial states merge: the surviving state unions the seen-sets and
    re-accumulates only the unseen argument tuples (the delta) into its
    inner state, so duplicates spread across partitions count once.
    """

    __slots__ = ("inner", "seen")

    def __init__(self, inner: Any, seen: set) -> None:
        self.inner = inner
        self.seen = seen


def _distinct_merge_order(args: tuple) -> tuple:
    """Sort key for re-accumulating a DISTINCT delta during merge.

    Set iteration order varies with ``PYTHONHASHSEED`` for strings;
    sorting the delta keeps floating-point accumulation order — and so
    the merged state — identical across processes."""
    return tuple(_sort_key(value) for value in args)


class _AggregateSpec:
    """One aggregate call bound to its arguments and execution strategy."""

    def __init__(
        self,
        call: AggregateCall,
        aggregate: AggregateFunction | AggregateUdf,
        binder: Binder,
        executor: Executor,
    ) -> None:
        self.call = call
        self.aggregate = aggregate
        self.is_builtin = isinstance(aggregate, AggregateFunction)
        self._distinct = call.call.distinct
        args = call.call.args
        self._star_args = len(args) == 1 and isinstance(args[0], ast.Star)
        if self._star_args:
            if call.name != "count":
                raise PlanningError(f"'*' argument only valid in COUNT(*)")
            args = ()
        self._arg_exprs = args
        self._row_fns = [
            compile_row_expression(arg, binder.resolve, executor._scalar_registry)
            for arg in args
        ]
        if not self.is_builtin:
            assert isinstance(aggregate, AggregateUdf)
            if aggregate.arity is not None and len(args) != aggregate.arity:
                raise PlanningError(
                    f"aggregate UDF {aggregate.name!r} expects "
                    f"{aggregate.arity} arguments, got {len(args)}"
                )
        self._vector_fns: list | None = None
        self._skips_nulls = aggregate.skips_nulls and bool(args)

    # The vector path is usable when the aggregate object supports block
    # accumulation, the call is not DISTINCT, and all arguments vectorize.
    @property
    def vector_ready(self) -> bool:
        if self._distinct:
            return False
        if self.is_builtin:
            supported = (
                type(self.aggregate).accumulate_vector
                is not AggregateFunction.accumulate_vector
            )
        else:
            supported = getattr(self.aggregate, "supports_block", False)
        if not supported:
            return False
        refs = referenced_columns_of_all(self._arg_exprs)
        resolver = _matrix_resolver(refs)
        return all(
            compile_vector_expression(arg, resolver) is not None
            for arg in self._arg_exprs
        )

    def prepare_vector(self, matrix_resolver: Callable[[ast.ColumnRef], int]) -> None:
        self._vector_fns = [
            compile_vector_expression(arg, matrix_resolver)
            for arg in self._arg_exprs
        ]

    def initialize(self) -> Any:
        state = self.aggregate.initialize()
        if self._distinct:
            return _DistinctState(state, set())
        return state

    def merge(self, state: Any, other: Any) -> Any:
        if self._distinct:
            assert isinstance(state, _DistinctState)
            assert isinstance(other, _DistinctState)
            delta = other.seen - state.seen
            for args in sorted(delta, key=_distinct_merge_order):
                state.inner = self.aggregate.accumulate(state.inner, args)
            state.seen |= delta
            return state
        return self.aggregate.merge(state, other)

    def finalize(self, state: Any) -> Any:
        if self._distinct:
            assert isinstance(state, _DistinctState)
            return self.aggregate.finalize(state.inner)
        return self.aggregate.finalize(state)

    def accumulate_row(self, state: Any, row: tuple) -> Any:
        args = tuple(fn(row) for fn in self._row_fns)
        if self._skips_nulls and any(value is None for value in args):
            return state
        if self._distinct:
            assert isinstance(state, _DistinctState)
            if args in state.seen:
                return state
            state.seen.add(args)
            state.inner = self.aggregate.accumulate(state.inner, args)
            return state
        if not self.is_builtin:
            assert isinstance(self.aggregate, AggregateUdf)
            self.aggregate.check_args(args)
        return self.aggregate.accumulate(state, args)

    def accumulate_vector(self, state: Any, block: np.ndarray) -> Any:
        assert self._vector_fns is not None
        vectors = [fn(block) for fn in self._vector_fns]  # type: ignore[misc]
        if self.is_builtin:
            assert isinstance(self.aggregate, AggregateFunction)
            result = self.aggregate.accumulate_vector(
                state, vectors, block.shape[0]
            )
            if result is NotImplemented:
                raise ExecutionError(
                    f"aggregate {self.call.name!r} has no vector path"
                )
            return result
        assert isinstance(self.aggregate, AggregateUdf)
        if vectors:
            arg_block = np.column_stack(vectors)
        else:
            arg_block = np.empty((block.shape[0], 0))
        if self._skips_nulls and arg_block.size:
            mask = ~np.isnan(arg_block).any(axis=1)
            if not mask.all():
                arg_block = arg_block[mask]
        return self.aggregate.accumulate_block(state, arg_block)
