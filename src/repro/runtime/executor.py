"""Fork-join rank executor: run per-rank closures on real threads.

Every strategy in :mod:`repro.parallel` and :mod:`repro.core` is SPMD
by loop — a ``for r in range(world)`` between collectives.  On a
multi-core host that serializes work the simulated devices would run
concurrently, so a world-8 step costs ~8x what the hardware allows.
:func:`rank_map` is the fork-join primitive that fixes it: dispatch one
closure per rank onto a persistent thread pool (NumPy/BLAS releases the
GIL, so the ranks genuinely overlap), join in rank order.  A "rank" is
any independent share of one computation: prefill attention
(``models/generate._prefix_causal_attention``) maps one task per KV head.

Determinism contract (what makes executor-on bitwise identical to
executor-off):

* closures only touch **rank-local** state plus the thread-safe runtime
  (pools lock their counters; see :mod:`repro.runtime.memory`);
* accumulation **within a rank** (e.g. one rank's weight gradients
  over its sequence chunks) happens inside that rank's closure, in chunk
  order, into rank-local state;
* any **cross-rank accumulation** happens at the join, in rank order,
  on the values the closures return — never inside the closures — so
  float reduction order is the same under every backend;
* trace events and pool timeline samples recorded inside a closure go
  to per-rank buffers, merged in (rank, sequence) order at the join
  (:meth:`repro.runtime.trace.Trace.merge`), so the event log and the
  timelines are the serial loop's; fault draws are keyed per rank
  (:mod:`repro.faults.injector`), so every backend injects the same.

The threads backend sends a section to the pool only when its caller's
per-rank FLOP hint (``rank_map(..., flops=...)``) reaches
:data:`PARALLEL_MIN_FLOPS`, and runs every other section as the plain
loop: threads lose to serial on interpreter-bound sections and win once
BLAS dominates (EXPERIMENTS.md, "Executor backends", records the sweep).
A section without a hint therefore always runs serial.

Selection (:func:`executor`, ``REPRO_EXECUTOR``, ``--workers`` /
``--executor``) picks the backend and the worker count, never the
threshold; the default is threads at the CPU count.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from typing import Any, Callable

__all__ = [
    "BACKENDS",
    "PARALLEL_MIN_FLOPS",
    "RankExecutor",
    "executor",
    "executor_stats",
    "get_executor",
    "rank_map",
    "reset_executor",
    "set_executor",
    "clamp_blas_threads",
]


# --------------------------------------------------------------------------
# BLAS oversubscription guard
# --------------------------------------------------------------------------

#: Env vars that mean the user already pinned BLAS threading; the guard
#: never overrides an explicit choice.
_BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-num-threads entry points across OpenBLAS builds (the scipy
#: wheels prefix and suffix the symbol).
_BLAS_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads_64_",
)

_blas_lock = threading.Lock()
_blas_setters: list | None = None  # resolved once, None = not yet probed


def _find_blas_setters() -> list:
    """Locate ``*_set_num_threads`` in the BLAS shared objects NumPy
    ships with.  Best effort: no threadpoolctl dependency, and a build
    we can't introspect just means the guard is a no-op."""
    import ctypes
    import glob

    import numpy

    setters = []
    root = os.path.dirname(os.path.dirname(numpy.__file__))
    patterns = (
        os.path.join(root, "numpy.libs", "*openblas*"),
        os.path.join(root, "numpy", ".dylibs", "*openblas*"),
        os.path.join(root, "scipy_openblas64", "lib", "*.so*"),
        os.path.join(root, "scipy_openblas32", "lib", "*.so*"),
    )
    for pattern in patterns:
        for path in glob.glob(pattern):
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # pragma: no cover - unloadable stray file
                continue
            for symbol in _BLAS_SYMBOLS:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = [ctypes.c_int]
                    fn.restype = None
                    setters.append(fn)
                    break
    return setters


def clamp_blas_threads(n: int) -> bool:
    """Pin the BLAS pool to ``n`` threads per call site.

    Called when a threads executor is built, so ``workers`` rank threads
    times ``cores`` BLAS threads doesn't oversubscribe the machine (on
    small shapes that is a slowdown, not a speedup).
    Returns ``True`` when a BLAS library accepted the setting; ``False``
    when the user pinned threading via env (respected as-is) or no
    known entry point exists.
    """
    if any(os.environ.get(var) for var in _BLAS_ENV_VARS):
        return False
    global _blas_setters
    with _blas_lock:
        if _blas_setters is None:
            _blas_setters = _find_blas_setters()
        for setter in _blas_setters:
            setter(int(max(1, n)))
    return bool(_blas_setters)


# --------------------------------------------------------------------------
# The executor
# --------------------------------------------------------------------------

_TLS = threading.local()  # .active is True inside a rank closure


def _in_rank_closure() -> bool:
    return getattr(_TLS, "active", False)


#: The backends that exist; every selection surface (constructor, env
#: var, CLI) rejects anything else with a message that names them.
BACKENDS = ("serial", "threads")

#: Per-rank FLOPs a section must reach before the threads backend runs
#: it on the pool.  On a 2-core host, FPDT sections under 3 MFLOP per
#: rank run 1.5-1.75x slower on threads than in the plain loop, 6-10 MFLOP
#: break even, and from 10 MFLOP threads take 25-45% off (the per-section
#: sweep in EXPERIMENTS.md, "Executor backends").
PARALLEL_MIN_FLOPS = 1e7


class RankExecutor:
    """Process-wide fork-join dispatcher for per-rank closures.

    Parameters
    ----------
    backend:
        ``"threads"`` runs the closures of every section whose per-rank
        FLOP hint reaches :data:`PARALLEL_MIN_FLOPS` on a persistent
        thread pool; ``"serial"`` makes ``rank_map`` a plain
        ``for r in range(world)`` loop.
    workers:
        Thread-pool size for the threads backend; defaults to the CPU
        count.  ``workers <= 1`` is equivalent to serial.

    Utilization counters (cumulative, read via :meth:`stats`):
    ``fork_joins`` parallel fork-join sections executed, ``tasks`` rank
    closures dispatched to the pool, ``busy_seconds`` summed in-closure
    time, ``wall_seconds`` summed fork-join wall time, and
    ``below_min_flops`` sections that ran as the plain loop because their
    hint was under :data:`PARALLEL_MIN_FLOPS`.  The busy fraction
    ``busy / (wall * workers)`` is the utilization telemetry surfaces per
    step.
    """

    def __init__(self, backend: str = "threads", workers: int | None = None):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r}: expected one of "
                + ", ".join(repr(b) for b in BACKENDS)
            )
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.backend = backend
        self.workers = workers
        if self.parallel:
            # One BLAS thread per rank thread, pinned up front so that the
            # sections the threshold keeps serial run on the same BLAS
            # thread count whether or not a pooled one ran before them
            # (EXPERIMENTS.md, "Executor backends").
            clamp_blas_threads((os.cpu_count() or 1) // workers)
        self.below_min_flops = 0
        self.fork_joins = 0
        self.tasks = 0
        self.busy_seconds = 0.0
        self.wall_seconds = 0.0
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Whether this executor dispatches rank closures at all."""
        return self.backend == "threads" and self.workers > 1

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="rank"
                )
            return self._pool

    def rank_map(
        self,
        fn: Callable[[int], Any],
        world: int,
        *,
        trace=None,
        flops: float = 0.0,
    ) -> list:
        """Run ``fn(r)`` for every rank; return results in rank order.

        ``trace`` is the cluster trace to buffer per rank and merge at
        the join.  ``flops`` is the work one rank's closure does; below
        :data:`PARALLEL_MIN_FLOPS` the section runs as the plain loop.
        Nested calls — a rank closure invoking ``rank_map`` — run inline
        serially, so events stay on the outer rank's buffer in their
        serial order.

        Exceptions: every rank runs to its end or failure and every
        buffer is merged before the lowest-rank exception is re-raised.
        That is the serial loop's exception but not its state, which
        stops at the failing rank: the trace, the timelines and the pools
        also hold what every later rank did before it ended.
        """
        if world <= 1 or not self.parallel or _in_rank_closure():
            return [fn(r) for r in range(world)]
        if flops < PARALLEL_MIN_FLOPS:
            with self._lock:
                self.below_min_flops += 1
            return [fn(r) for r in range(world)]
        pool = self._ensure_pool()
        buffers: list[tuple | None] = [None] * world
        durations = [0.0] * world

        def task(r: int):
            _TLS.active = True
            try:
                start = time.perf_counter()
                with nullcontext() if trace is None else trace.buffered() as buffer:
                    buffers[r] = buffer
                    out = fn(r)
                durations[r] = time.perf_counter() - start
                return out
            finally:
                _TLS.active = False

        wall_start = time.perf_counter()
        futures = [pool.submit(task, r) for r in range(world)]
        results: list = []
        errors: list[tuple[int, BaseException]] = []
        for r, future in enumerate(futures):
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append((r, exc))
                results.append(None)
        if trace is not None:
            trace.merge(b for b in buffers if b is not None)
        wall = time.perf_counter() - wall_start
        with self._lock:
            self.fork_joins += 1
            self.tasks += world
            self.busy_seconds += sum(durations)
            self.wall_seconds += wall
        if errors:
            raise errors[0][1]
        return results

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Snapshot of the utilization counters (telemetry reads this)."""
        with self._lock:
            denom = self.wall_seconds * self.workers
            return {
                "backend": self.backend,
                "workers": self.workers,
                "parallel": self.parallel,
                "fork_joins": self.fork_joins,
                "tasks": self.tasks,
                "busy_seconds": self.busy_seconds,
                "wall_seconds": self.wall_seconds,
                "busy_fraction": self.busy_seconds / denom if denom > 0 else 0.0,
                "min_flops": PARALLEL_MIN_FLOPS,
                "below_min_flops": self.below_min_flops,
                # Constant: perf/measure.py indexes these keys in its
                # --trace 1 run; nothing forks, falls back or restarts.
                "forks": 0,
                "fallback_forks": 0,
                "pool_restarts": 0,
            }

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankExecutor({self.backend}, workers={self.workers})"


# --------------------------------------------------------------------------
# Process-wide selection
# --------------------------------------------------------------------------

_global_lock = threading.Lock()
_global_executor: RankExecutor | None = None


def _from_env() -> RankExecutor:
    """Build the default executor from ``REPRO_EXECUTOR``.

    Accepted values: ``serial``, ``threads``, ``threads:N``, or a bare
    integer ``N`` (shorthand for ``threads:N``).  Unset or empty means
    threads at CPU count.
    """
    value = os.environ.get("REPRO_EXECUTOR", "").strip().lower()
    if not value or value == "threads":
        return RankExecutor("threads")
    if value == "serial":
        return RankExecutor("serial", workers=1)
    try:
        workers = int(value.removeprefix("threads:"))
    except ValueError:
        raise ValueError(
            f"REPRO_EXECUTOR={value!r}: expected 'serial', 'threads[:N]' or 'N'"
        ) from None
    return RankExecutor("threads", workers=workers)


def get_executor() -> RankExecutor:
    """The process-wide executor, created from the env on first use."""
    global _global_executor
    with _global_lock:
        if _global_executor is None:
            _global_executor = _from_env()
        return _global_executor


def set_executor(ex: RankExecutor | None) -> RankExecutor | None:
    """Install ``ex`` as the process-wide executor; returns the previous
    one, or ``None`` if none had been created yet (the previous executor
    keeps its thread pool — callers that own it shut it down)."""
    global _global_executor
    with _global_lock:
        previous = _global_executor
        _global_executor = ex
    return previous


def reset_executor() -> None:
    """Drop the process-wide executor so the next :func:`get_executor`
    re-reads ``REPRO_EXECUTOR`` (tests that mutate the env use this)."""
    global _global_executor
    with _global_lock:
        if _global_executor is not None:
            _global_executor.shutdown()
        _global_executor = None


@contextmanager
def executor(workers: int | None = None, backend: str | None = None):
    """Scoped executor override.

    ``executor(workers=4)`` runs the body with a 4-thread fork-join
    pool; ``executor(backend="serial")`` (or ``workers=1``) pins the
    serial path.  The previous executor is restored on exit.
    """
    if backend is None:
        backend = "serial" if workers is not None and workers <= 1 else "threads"
    scoped = RankExecutor(backend, workers=workers)
    previous = set_executor(scoped)
    try:
        yield scoped
    finally:
        set_executor(previous)
        scoped.shutdown()


def rank_map(
    fn: Callable[[int], Any],
    world: int,
    *,
    trace=None,
    flops: float = 0.0,
) -> list:
    """Module-level convenience over :func:`get_executor`."""
    return get_executor().rank_map(fn, world, trace=trace, flops=flops)


def executor_stats() -> dict:
    """Utilization snapshot of the process-wide executor."""
    return get_executor().stats()
