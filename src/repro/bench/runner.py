"""Timing harness, JSON persistence, and the regression gate.

The per-case measurement is the **minimum** wall-clock time over the
repeats: microbenchmark noise is one-sided (scheduler preemption, page
cache misses only ever add time), so the minimum is the best estimate
of the kernel's cost.  The gate mirrors the telemetry gate's shape
(relative tolerances, report-only when the baseline lacks a case) but
over wall-clock seconds: a case regresses when

    current > baseline_seconds * tol

with a generous default tolerance because absolute timings move between
machines — the gate exists to catch "the fast path fell off" (integer
factors), not micro-drift.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.bench.kernels import BENCH_CASES, BenchCase

SCHEMA_VERSION = 1

#: Relative tolerance for the regression gate.  The fast path is worth
#: 1.5-4x on the gated kernels, so losing it trips a 2x gate with
#: margin while machine-to-machine variance does not.
DEFAULT_TOL = 2.0


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_results(path: str | Path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema {doc.get('schema')!r}, expected {SCHEMA_VERSION}"
        )
    return doc


@dataclass(frozen=True)
class BenchDiff:
    """One case's comparison against the baseline."""

    name: str
    baseline: float | None  # seconds; None = new case, report-only
    current: float
    tol: float

    @property
    def speedup(self) -> float | None:
        """baseline / current — >1 means the kernel got faster."""
        if self.baseline is None or self.current == 0:
            return None
        return self.baseline / self.current

    @property
    def regressed(self) -> bool:
        return self.baseline is not None and self.current > self.baseline * self.tol


def diff_results(baseline_doc: dict, current_doc: dict, *, tol: float = DEFAULT_TOL) -> list[BenchDiff]:
    """Compare a current run against a baseline document."""
    if baseline_doc.get("mode") != current_doc.get("mode"):
        raise ValueError(
            f"bench mode mismatch: baseline {baseline_doc.get('mode')!r} "
            f"vs current {current_doc.get('mode')!r}"
        )
    base = baseline_doc.get("results", {})
    diffs = []
    for name, record in current_doc.get("results", {}).items():
        base_rec = base.get(name)
        diffs.append(
            BenchDiff(
                name=name,
                baseline=base_rec["seconds"] if base_rec else None,
                current=record["seconds"],
                tol=tol,
            )
        )
    return diffs


def attach_baseline(current_doc: dict, diffs: list[BenchDiff]) -> dict:
    """Fold baseline seconds and speedups into the results document so
    the written ``BENCH_kernels.json`` records both sides of the diff."""
    for d in diffs:
        record = current_doc["results"][d.name]
        record["baseline_seconds"] = d.baseline
        record["speedup"] = d.speedup
    return current_doc


def format_report(diffs: list[BenchDiff]) -> str:
    lines = [
        f"{'case':<26s} {'baseline':>10s} {'current':>10s} {'speedup':>8s}  status"
    ]
    for d in diffs:
        base = f"{d.baseline * 1e3:8.3f}ms" if d.baseline is not None else "      new"
        speed = f"{d.speedup:7.2f}x" if d.speedup is not None else "       -"
        status = "REGRESSED" if d.regressed else "ok"
        lines.append(
            f"{d.name:<26s} {base:>10s} {d.current * 1e3:8.3f}ms {speed:>8s}  {status}"
        )
    return "\n".join(lines)
