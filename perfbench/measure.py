"""One benchmark run: set-up, timed loop, checks, metrics and report.

The last line a run prints carries the metrics ``BENCHMARK.json``
declares.  That file gives every workload the same metric list, so it
declares the figures every workload has (:data:`END_TO_END`,
:data:`PER_LAYER`).  The full report -- every named figure of every
workload, its sample counts, the hardware floors and the environment --
is printed on the line before it and written under ``perfbench/.work``.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import numpy as np

from tracing import Tracer, instrument
from workloads import WORKERS, WORKLOADS, OpLog, Workload

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: repetitions of each numpy floor measurement (median taken)
FLOOR_REPEATS = 9

#: metrics every workload reports with ``--trace 0``: name -> unit
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "op_latency_ms": "ms",
    "scan_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}

#: metrics every workload reports with ``--trace 1``: name -> unit
PER_LAYER = {
    "parser.parse_us": "us",
    "optimizer.bind_plan_us": "us",
    "executor.scan_ms": "ms",
    "executor.accumulate_ms": "ms",
    "executor.merge_ms": "ms",
    "executor.finalize_ms": "ms",
    "executor.unattributed_ms": "ms",
    "executor.ns_per_row": "ns/row",
    "executor.summary_x_floor": "ratio",
    "executor.score_x_floor": "ratio",
    "executor.fallbacks": "count",
    "engine.tasks_per_stmt": "count",
    "engine.busy_share": "ratio",
    "engine.map_ms": "ms",
    "engine.process_fallbacks": "count",
    "storage.block_cache_hit_ratio": "ratio",
    "storage.cache_evictions": "count",
    "storage.rows_scanned_per_row_out": "ratio",
    "columnar.publishes": "count",
    "columnar.bytes_per_user_byte": "ratio",
    "wal.fsyncs_per_1k_rows": "count",
    "wal.bytes_per_user_byte": "ratio",
    "wal.replayed_records": "count",
    "batcher.coalesce_factor": "ratio",
    "batcher.queue_depth_peak": "count",
    "batcher.flush_fallbacks": "count",
    "trace.overhead_ratio": "ratio",
}

#: per-layer times of layers only one workload exercises; they are in
#: the report, not in ``BENCHMARK.json``, because on every other
#: workload they read 0 on every run
LAYER_REPORT_ONLY = {
    "executor.project_ms": "ms",
    "storage.insert_us_per_row": "us",
    "columnar.publish_ms": "ms",
    "wal.append_us": "us",
    "wal.checkpoint_ms": "ms",
    "batcher.kernel_ms": "ms",
    "sampling.seed_ms": "ms",
    "fused.iter_ms": "ms",
}

#: units of the end-to-end figures named per workload in the report
NAMED_UNITS = {
    "setup_s": "s",
    "scan_rows_per_s": "rows/s",
    "summary_p50_ms": "ms",
    "summary_p90_ms": "ms",
    "summary_samples": "count",
    "models_p50_ms": "ms",
    "score_rows_per_s": "rows/s",
    "kmeans_fit_ms": "ms",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "request_samples": "count",
    "requests_per_s": "req/s",
    "ingest_rows_per_s": "rows/s",
    "recovery_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}

#: which named figures each workload reports
NAMED = {
    "build": [
        "setup_s", "scan_rows_per_s", "summary_p50_ms", "summary_p90_ms",
        "summary_samples", "models_p50_ms", "score_rows_per_s",
        "kmeans_fit_ms", "peak_rss_mb", "failed_ratio",
    ],
    "serve": [
        "setup_s", "request_p50_ms", "request_p99_ms", "request_samples",
        "requests_per_s", "peak_rss_mb", "failed_ratio",
    ],
    "ingest": [
        "setup_s", "scan_rows_per_s", "summary_p50_ms", "summary_p90_ms",
        "summary_samples", "ingest_rows_per_s", "recovery_s", "peak_rss_mb",
        "failed_ratio",
    ],
    "udf_rowpath": [
        "setup_s", "scan_rows_per_s", "summary_p50_ms", "models_p50_ms",
        "score_rows_per_s", "peak_rss_mb", "failed_ratio",
    ],
}

#: the op whose latency is "the nLQ summary" / "whole-table scoring"
#: on each workload, for the named report figures and the floor ratios
SUMMARY_OP = {
    "build": "summary",
    "ingest": "summary_after_append",
    "udf_rowpath": "summary",
}
SCORE_OP = {"build": "score", "udf_rowpath": "score"}


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest percentile that keeps at least ten samples beyond it."""
    if count <= 10:
        return 50.0
    return 100.0 * (count - 10) / count


def _median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def environment(root: Path) -> "dict[str, Any]":
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        affinity = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> "str | None":
    """HEAD's commit read from ``.git`` inside the checkout (no git
    process, nothing read outside it); None when there is no ``.git``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_ticks() -> "list[int]":
    """The machine-wide ``cpu`` line of ``/proc/stat`` (empty elsewhere)."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: "list[int]", after: "list[int]") -> "float | None":
    """Share of CPU time the hypervisor took from this machine between
    two :func:`cpu_ticks` readings: a run on a busy host reads slower."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def floors(workload: Workload) -> "dict[str, float]":
    """numpy ``X.T @ X`` and ``X @ beta`` at the workload's n and d."""
    X = np.ascontiguousarray(workload.floor_matrix())
    beta = np.linspace(-1.0, 1.0, X.shape[1])
    xtx, xb = [], []
    for _ in range(FLOOR_REPEATS):
        started = time.perf_counter()
        X.T @ X
        middle = time.perf_counter()
        X @ beta
        xtx.append(middle - started)
        xb.append(time.perf_counter() - middle)
    return {
        "n": X.shape[0],
        "d": X.shape[1],
        "xtx_ms": _ms(_median(xtx)),
        "xbeta_ms": _ms(_median(xb)),
    }


def _op_figures(latencies: "dict[str, list[float]]") -> "dict[str, Any]":
    figures = {}
    for op, values in sorted(latencies.items()):
        q = tail_percentile(len(values))
        figures[op] = {
            "count": len(values),
            "p50_ms": _ms(percentile(values, 50.0)),
            "tail_percentile": q,
            "tail_ms": _ms(percentile(values, q)),
        }
    return figures


def end_to_end(log: OpLog, setup_s: float, peak_rss_mb: float) -> "dict[str, float]":
    ops = log.ops
    busy = log.busy_seconds
    # Each op type's median, weighted by how often the type ran: unlike
    # a percentile over all ops, it does not jump between op types.
    typical = sum(
        len(values) * percentile(values, 50.0) for values in log.latency.values()
    ) / len(ops)
    return {
        "setup_s": setup_s,
        "requests_per_s": len(ops) / busy,
        "op_latency_ms": _ms(typical),
        "scan_rows_per_s": log.rows_read / busy,
        "peak_rss_mb": peak_rss_mb,
    }


def named_figures(
    workload: Workload,
    log: OpLog,
    setup_s: float,
    peak_rss_mb: float,
    extra: "dict[str, float]",
) -> "dict[str, dict[str, Any]]":
    """The end-to-end figures :data:`NAMED` lists for this workload,
    each with its unit."""
    lat = log.latency
    ops = log.ops
    summary = lat.get(SUMMARY_OP.get(workload.name, ""), [])
    score = lat.get("score", [])
    inserts = lat.get("insert", [])
    available = {
        "setup_s": setup_s,
        "scan_rows_per_s": log.rows_read / log.busy_seconds,
        "summary_p50_ms": _ms(percentile(summary, 50.0)),
        "summary_p90_ms": _ms(percentile(summary, 90.0)),
        "summary_samples": len(summary),
        "models_p50_ms": _ms(percentile(lat.get("models", []), 50.0)),
        "score_rows_per_s": (
            workload.n * len(score) / sum(score) if score else 0.0
        ),
        "kmeans_fit_ms": _ms(percentile(lat.get("kmeans", []), 50.0)),
        "request_p50_ms": _ms(percentile(ops, 50.0)),
        "request_p99_ms": _ms(percentile(ops, 99.0)),
        "request_samples": len(ops),
        "requests_per_s": len(ops) / log.busy_seconds,
        "ingest_rows_per_s": (
            len(inserts) * getattr(workload, "BATCH", 0)
            / (sum(inserts) + sum(lat.get("checkpoint", [])))
            if inserts
            else 0.0
        ),
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": log.failed / max(1, log.attempted),
        **extra,
    }
    return {
        name: {"value": available[name], "unit": NAMED_UNITS[name]}
        for name in NAMED[workload.name]
    }


def layer_figures(
    workload: Workload,
    log: OpLog,
    tracer: Tracer,
    floor: "dict[str, float]",
) -> "dict[str, float]":
    """Every per-layer figure, from the traced ops of the run."""
    statements = [s.metrics for s in tracer.statements]
    count = max(1, len(statements))

    def mean_ms(field: str) -> float:
        return _ms(sum(m[field] for m in statements) / count)

    def total(field: str) -> float:
        return sum(m[field] for m in statements)

    stages = ("scan", "accumulate", "merge", "finalize", "project")
    figures: "dict[str, float]" = {
        "parser.parse_us": 1e6 * _median(log.parse_seconds),
        "optimizer.bind_plan_us": 1e6 * _median(log.bind_plan_seconds),
    }
    for stage in stages:
        figures[f"executor.{stage}_ms"] = mean_ms(f"{stage}_seconds")
    figures["executor.unattributed_ms"] = mean_ms("total_seconds") - sum(
        figures[f"executor.{stage}_ms"] for stage in stages
    )
    rows = total("rows_processed")
    figures["executor.ns_per_row"] = (
        1e9 * (total("scan_seconds") + total("accumulate_seconds")) / rows
        if rows
        else 0.0
    )
    name = workload.name
    summary = log.latency.get(SUMMARY_OP.get(name, ""), [])
    score = log.latency.get(SCORE_OP.get(name, ""), [])
    figures["executor.summary_x_floor"] = (
        _ms(_median(summary)) / floor["xtx_ms"] if summary else 0.0
    )
    figures["executor.score_x_floor"] = (
        _ms(_median(score)) / floor["xbeta_ms"] if score else 0.0
    )
    figures["executor.fallbacks"] = total("fallbacks")

    figures["engine.tasks_per_stmt"] = total("parallel_tasks") / count
    wall = total("total_seconds")
    figures["engine.busy_share"] = (
        (total("scan_seconds") + total("accumulate_seconds")
         + total("project_seconds")) / (WORKERS * wall)
        if wall
        else 0.0
    )
    figures["engine.map_ms"] = _ms(_median(tracer.durations("engine.map")))
    figures["engine.process_fallbacks"] = sum(
        s.process_fallback for s in tracer.statements
    )

    hits, misses = total("block_cache_hits"), total("block_cache_misses")
    figures["storage.block_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    figures["storage.cache_evictions"] = total("cache_evictions")
    rows_out = sum(s.rows_out for s in tracer.statements)
    figures["storage.rows_scanned_per_row_out"] = (
        total("rows_scanned") / rows_out if rows_out else 0.0
    )
    inserts = log.traced_latency.get("insert", [])
    figures["storage.insert_us_per_row"] = (
        1e6 * _median(inserts) / workload.BATCH if inserts else 0.0
    )

    fresh = tracer.fresh_publishes
    figures["columnar.publishes"] = fresh
    figures["columnar.publish_ms"] = (
        _ms(sum(tracer.durations("columnar.publish")) / fresh) if fresh else 0.0
    )
    figures["columnar.bytes_per_user_byte"] = getattr(
        workload, "store_bytes_per_user_byte", 0.0
    )

    figures["wal.append_us"] = 1e6 * _median(tracer.durations("wal.append"))
    figures["wal.fsyncs_per_1k_rows"] = getattr(workload, "fsyncs_per_1k_rows", 0.0)
    figures["wal.bytes_per_user_byte"] = getattr(
        workload, "wal_bytes_per_user_byte", 0.0
    )
    figures["wal.checkpoint_ms"] = _ms(
        _median(log.traced_latency.get("checkpoint", []))
    )
    figures["wal.replayed_records"] = getattr(workload, "replayed_records", 0)

    serving = getattr(workload, "serving", {})
    figures["batcher.coalesce_factor"] = serving.get("coalesce_factor", 0.0)
    figures["batcher.queue_depth_peak"] = serving.get("queue_depth_peak", 0)
    figures["batcher.flush_fallbacks"] = serving.get("flush_fallbacks", 0)
    figures["batcher.kernel_ms"] = _ms(
        _median(tracer.durations("batcher.score_batch"))
    )

    seeds = tracer.durations("sampling.reservoir_sample")
    figures["sampling.seed_ms"] = _ms(_median(seeds))
    fits = log.traced_latency.get("kmeans", [])
    figures["fused.iter_ms"] = (
        _ms((sum(fits) - sum(seeds)) / (len(fits) * workload.ITERATIONS))
        if fits
        else 0.0
    )

    ratios = [
        _median(log.traced_latency[op]) / _median(values)
        for op, values in log.latency.items()
        if log.traced_latency.get(op)
    ]
    figures["trace.overhead_ratio"] = (
        math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 0.0
    )
    return figures


def peak_rss_mb(workload: Workload) -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes there
        self_kb /= 1024
    return (self_kb + workload.child_peak_kb) / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    scale: float = 1.0,
) -> "tuple[dict[str, Any], dict[str, Any], Tracer]":
    """Run one workload in the scratch directory *work_dir*; returns
    the result line, the full report and the run's tracer."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    ticks = cpu_ticks()
    setups = []
    workload = None
    for attempt in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = WORKLOADS[name](
            seed, seconds, work_dir / f"setup-{attempt}", scale
        )
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    try:
        floor = floors(workload)
        tracer = Tracer(enabled=trace)
        log = OpLog(tracer)
        with instrument(tracer) if trace else nullcontext():
            workload.loop(log, trace)
        extra = workload.finish(log)
        setup_s = _median(setups)
        rss = peak_rss_mb(workload)
        env = environment(Path(__file__).resolve().parent.parent)
        env["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
        report: "dict[str, Any]" = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "environment": env,
            "config": workload.config(),
            "setup_runs_s": setups,
            "floors": floor,
            "attempted": log.attempted,
            "failed": log.failed,
            "mismatches": log.mismatches,
            "ops": _op_figures(log.latency),
            "named": named_figures(workload, log, setup_s, rss, extra),
        }
        if trace:
            layers = layer_figures(workload, log, tracer, floor)
            units = {**PER_LAYER, **LAYER_REPORT_ONLY}
            report["layers"] = {
                k: {"value": v, "unit": units[k]} for k, v in layers.items()
            }
            report["traced_ops"] = _op_figures(log.traced_latency)
            report["self_ms_per_traced_op"] = tracer.self_ms_per_request()
            report["spans"] = len(tracer.spans)
            metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        else:
            figures = end_to_end(log, setup_s, rss)
            metrics = {
                k: {"value": figures[k], "unit": u} for k, u in END_TO_END.items()
            }
    finally:
        workload.close()
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    return result, report, tracer
