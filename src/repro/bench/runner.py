"""Timing harness and JSON persistence.

The per-case measurement is the **minimum** wall-clock time over the
repeats: microbenchmark noise is one-sided (scheduler preemption, page
cache misses only ever add time), so the minimum is the best estimate
of the kernel's cost.  The timings are a record, not a gate: absolute
times move between machines, and whole steps and requests are compared
parent against change by ``perf/``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench.kernels import BENCH_CASES, BenchCase

SCHEMA_VERSION = 1


def time_case(case: BenchCase, *, quick: bool) -> dict:
    """Time one case; returns its result record."""
    mode = 1 if quick else 0
    run = case.build(quick)
    for _ in range(case.warmup[mode]):
        run()
    best = float("inf")
    for _ in range(case.repeats[mode]):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return {
        "group": case.group,
        "seconds": best,
        "repeats": case.repeats[mode],
    }


def run_suite(*, quick: bool = False, echo=None) -> dict:
    """Run every case; returns the results document (JSON-ready).

    The receipt records which rank-executor backend, worker count and
    per-rank FLOP threshold the numbers were taken under — a
    serial-vs-threads comparison is only meaningful when both receipts
    say what ran them.
    """
    from repro.runtime.executor import executor_stats

    results: dict[str, dict] = {}
    for case in BENCH_CASES:
        record = time_case(case, quick=quick)
        results[case.name] = record
        if echo is not None:
            echo(f"  {case.name:<26s} {record['seconds'] * 1e3:9.3f} ms")
    ex = executor_stats()
    return {
        "schema": SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "executor": {
            "backend": ex["backend"], "workers": ex["workers"],
            "min_flops": ex["min_flops"],
        },
        "results": results,
    }


def save_results(doc: dict, path: str | Path) -> Path:
    """Write a :func:`run_suite` document to ``path`` as sorted,
    indented JSON (parent directories are created); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
