"""Kernel microbenchmarks and the wall-clock regression gate.

``repro bench`` times the runtime's hot kernels — collectives and the
chunked-attention paths — at fixed seeds and sizes, writes the results
to ``results/BENCH_kernels.json`` (not committed), and diffs them
against a committed baseline with relative tolerances, failing on
wall-clock regressions.  Whole training steps and served requests are
timed by ``perf/run.py``, not here.
"""

from repro.bench.kernels import BENCH_CASES, BenchCase
from repro.bench.runner import (
    BenchDiff,
    diff_results,
    format_report,
    load_results,
    run_suite,
    save_results,
)

__all__ = [
    "BENCH_CASES",
    "BenchCase",
    "BenchDiff",
    "diff_results",
    "format_report",
    "load_results",
    "run_suite",
    "save_results",
]
