"""Tests of the benchmark itself, at tiny scale.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from checks import SummaryReference, scores_match
from measure import (
    END_TO_END,
    LAYER_REPORT_ONLY,
    NAMED,
    PER_LAYER,
    run_workload,
)
from repro.core.summary import SummaryStatistics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: table size as a share of the benchmark's
SCALE = 0.01
SECONDS = 0.3


def _run(name: str, tmp_path: Path, trace: bool = False, seed: int = 1):
    return run_workload(name, seed, SECONDS, trace, tmp_path, scale=SCALE)


def test_benchmark_json_declares_the_emitted_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert "setup_s" in END_TO_END


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(name, tmp_path) -> None:
    result, report, _ = _run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = report["named"]
    assert list(named) == NAMED[name]
    assert all(set(v) == {"value", "unit"} for v in named.values())
    assert named["failed_ratio"]["value"] == 0.0
    assert report["environment"]["cpu_count"] >= 1
    assert report["config"]["n"] == report["floors"]["n"] or name == "ingest"
    assert report["floors"]["xtx_ms"] > 0 and report["floors"]["xbeta_ms"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric(name, tmp_path) -> None:
    result, report, tracer = _run(name, tmp_path, trace=True)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert set(report["layers"]) == set(PER_LAYER) | set(LAYER_REPORT_ONLY)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert result["metrics"]["parser.parse_us"]["value"] > 0
    # Every span of a request belongs to a traced op of that request.
    requests = {s.request for s in tracer.spans if s.name.startswith("op.")}
    assert requests and all(
        s.request in requests for s in tracer.spans if s.request is not None
    )


def test_self_time_excludes_children() -> None:
    from tracing import Span, Tracer

    tracer = Tracer(True)
    tracer.spans = [
        Span(1, "op.x", 0.0, 10.0, None, 1, 0),
        Span(2, "engine.map", 2.0, 5.0, 1, 1, 0),
        Span(3, "engine.map", 4.0, 7.0, 1, 1, 0),
    ]
    own = tracer.self_seconds()
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(3.0)


def test_corrupted_reference_fails_the_check() -> None:
    X = np.random.default_rng(0).normal(50.0, 10.0, size=(1000, 8))
    stats = SummaryStatistics.from_matrix(X)
    reference = SummaryReference.of(X)
    assert reference.matches(stats)
    reference.L[3] *= 1.0 + 1e-9
    assert not reference.matches(stats)

    beta = np.linspace(-1.0, 1.0, 9)
    ids = np.arange(1, 1001)
    rows = [(int(i), float(beta[0] + x @ beta[1:])) for i, x in zip(ids, X)]
    assert scores_match(rows, ids, X, beta)
    assert not scores_match(rows, ids, X, beta * (1.0 + 1e-9))


def test_corrupted_reference_fails_the_run(tmp_path, monkeypatch) -> None:
    build_reference = SummaryReference.of

    def corrupted(X):
        reference = build_reference(X)
        reference.Q[0, 0] *= 1.0 + 1e-9
        return reference

    monkeypatch.setattr(workloads.SummaryReference, "of", staticmethod(corrupted))
    result, report, _ = _run("udf_rowpath", tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["named"]["failed_ratio"]["value"] > 0
    assert any(m.startswith("summary") for m in report["mismatches"])


def test_seed_changes_data_not_metric_names(tmp_path) -> None:
    tables = []
    names = []
    for seed in (1, 2):
        workload = WORKLOADS["udf_rowpath"](seed, SECONDS, tmp_path / str(seed), SCALE)
        workload.setup()
        tables.append(workload.X.copy())
        workload.close()
        result, report, _ = _run("udf_rowpath", tmp_path / f"run{seed}", seed=seed)
        names.append((list(result["metrics"]), list(report["named"])))
    assert not np.array_equal(tables[0], tables[1])
    assert names[0] == names[1]
    again = WORKLOADS["udf_rowpath"](1, SECONDS, tmp_path / "again", SCALE)
    again.setup()
    assert np.array_equal(again.X, tables[0])
    again.close()


def test_broken_process_pool_fails_the_run(tmp_path) -> None:
    import multiprocessing
    import os
    import signal

    workload = WORKLOADS["ingest"](1, SECONDS, tmp_path, SCALE)
    workload.setup()
    try:
        children = multiprocessing.active_children()
        assert children, "the warm-up should have started the process pool"
        os.kill(children[0].pid, signal.SIGKILL)
        children[0].join(timeout=10.0)
        with pytest.raises(RuntimeError, match="pool broke"):
            workload._summary(workload.summary_sql)
    finally:
        workload.close()


def test_exits_nonzero_without_the_program(tmp_path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        ".work", "__pycache__"
    ))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "source is missing" in done.stderr


def test_tolerance_is_a_summation_bound() -> None:
    assert checks.sums_match(1.0 + 2 * checks.EPS, 1.0, 1.0, 2)
    assert not checks.sums_match(1.0 + 4 * checks.EPS, 1.0, 1.0, 2)
