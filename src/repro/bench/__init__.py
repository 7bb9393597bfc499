"""Kernel microbenchmarks.

``repro bench`` times the runtime's hot kernels — collectives and the
chunked-attention paths — at fixed seeds and sizes, prints the
min-of-repeats timings and writes them to ``results/BENCH_kernels.json``
(not committed).  Whole training steps and served requests are timed,
parent against change, by ``perf/run.py``.
"""

from repro.bench.kernels import BENCH_CASES, BenchCase
from repro.bench.runner import run_suite, save_results

__all__ = [
    "BENCH_CASES",
    "BenchCase",
    "run_suite",
    "save_results",
]
