"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is the full report, which is also written, with the
spans of a traced run, to ``perfbench/.work/results/``.

Exit codes: 0 -- every op answered correctly; 1 -- a wrong answer, or
the run failed (the reason goes to standard error); 2 -- the program's
source is not in this checkout; 3 -- the run overran its deadline.

The process engine starts worker processes with ``forkserver``, which
imports this file in each worker, so everything that runs lives under
the ``__main__`` guard at the bottom.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import sys
import tempfile
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
#: a run still going after this many seconds is stopped with exit code 3
DEADLINE_SECONDS = 170.0


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=["build", "serve", "ingest", "udf_rowpath"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _stop_processes() -> None:
    """Stop the pool workers, fork server and resource tracker this run
    started, and wait for each to end."""
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def _start_watchdog() -> threading.Timer:
    def expire() -> None:
        print(
            f"perfbench: run did not finish within {DEADLINE_SECONDS:g} s; "
            "stopping it",
            file=sys.stderr,
            flush=True,
        )
        _stop_processes()
        os._exit(3)

    timer = threading.Timer(DEADLINE_SECONDS, expire)
    timer.daemon = True
    timer.start()
    return timer


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program's source is missing ({source / 'repro'})",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(source))
    scratch = WORK / f"run-{os.getpid()}"
    temp = scratch / "tmp"
    temp.mkdir(parents=True)
    # Registered before multiprocessing is imported, so it runs after
    # multiprocessing's own exit handler has removed its directories.
    atexit.register(shutil.rmtree, scratch, True)
    # Scratch files the program and multiprocessing create stay inside
    # the checkout; workers inherit TMPDIR.
    os.environ["TMPDIR"] = str(temp)
    tempfile.tempdir = str(temp)
    watchdog = _start_watchdog()
    try:
        from measure import run_workload

        result, report, tracer = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    except Exception as error:  # the run fails, with its reason
        traceback.print_exc()
        print(
            f"perfbench: {args.workload} failed: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 1
    finally:
        watchdog.cancel()
        _stop_processes()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        tracer.write(results / f"{stem}-spans.jsonl")
    if not result["correct"]:
        print(
            f"perfbench: {result['failed']} of {result['attempted']} ops "
            f"failed: {report['mismatches']}",
            file=sys.stderr,
        )
    print(json.dumps(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
