"""Rank-executor unit tests: dispatch semantics, selection, thread safety.

The bitwise on/off equivalence of whole training strategies lives in
``test_executor_equivalence.py``; this file covers the executor itself —
rank ordering, the exception policy, nested calls, env/context
selection, trace buffering — plus the runtime pieces the executor's
threads share: :class:`MemoryPool` under concurrent load, and the
BLAS oversubscription guard.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

import repro.runtime.executor as executor_module
from repro.runtime.executor import (
    PARALLEL_MIN_FLOPS,
    RankExecutor,
    clamp_blas_threads,
    executor,
    executor_stats,
    get_executor,
    rank_map,
    reset_executor,
    set_executor,
)
from repro.runtime.memory import MemoryPool
from repro.runtime.trace import Trace


#: The real threshold, read before any test patches it.
THRESHOLD = PARALLEL_MIN_FLOPS


@pytest.fixture(autouse=True)
def _clean_global_executor(every_section_threaded):
    """Each test starts and ends without a process-wide executor.  The
    dispatch tests pass no FLOP hint, so the threshold is dropped; the
    tests of the threshold set their own."""
    reset_executor()
    yield
    reset_executor()


# ---------------------------------------------------------------------------
# rank_map semantics
# ---------------------------------------------------------------------------


def test_results_in_rank_order_even_when_ranks_finish_out_of_order():
    ex = RankExecutor("threads", workers=4)
    try:

        def slow_low_ranks(r: int) -> int:
            time.sleep(0.02 * (4 - r))  # rank 3 finishes first
            return r * 10

        assert ex.rank_map(slow_low_ranks, 4) == [0, 10, 20, 30]
    finally:
        ex.shutdown()


def test_serial_backend_matches_threads_results():
    serial = RankExecutor("serial", workers=1)
    threads = RankExecutor("threads", workers=4)
    try:
        fn = lambda r: (r, r**2)  # noqa: E731
        assert serial.rank_map(fn, 6) == threads.rank_map(fn, 6)
    finally:
        threads.shutdown()


def test_world_one_runs_inline():
    ex = RankExecutor("threads", workers=4)
    try:
        main_thread = threading.get_ident()
        seen: list[int] = []

        def record_thread(r: int) -> None:
            seen.append(threading.get_ident())

        ex.rank_map(record_thread, 1)
        assert seen == [main_thread]
        assert ex.stats()["fork_joins"] == 0  # no parallel section ran
    finally:
        ex.shutdown()


def test_cluster_rank_map_runs_on_the_pool_under_faults_and_timelines():
    """Fault draws and timeline samples are ordered at the join like
    trace events, so an injector or a timeline does not keep a cluster's
    rank loops off the pool."""
    from repro.faults import FaultInjector, FaultPlan
    from repro.runtime.device import VirtualCluster

    main_thread = threading.get_ident()
    chaos = VirtualCluster(2)
    chaos.fault_injector = FaultInjector(FaultPlan())
    timed = VirtualCluster(2, record_timeline=True)
    with executor(workers=4) as ex:
        for cluster in (chaos, timed):
            idents = cluster.rank_map(lambda r: threading.get_ident())
            assert main_thread not in idents
        assert ex.stats()["fork_joins"] == 2


def test_nested_rank_map_runs_inline_on_the_worker_thread():
    ex = RankExecutor("threads", workers=4)
    try:

        def outer(r: int):
            worker = threading.get_ident()
            inner_threads: list[int] = []

            def inner(s: int) -> int:
                inner_threads.append(threading.get_ident())
                return r * 10 + s

            inner_results = ex.rank_map(inner, 2)
            assert inner_threads == [worker, worker]
            return inner_results

        assert ex.rank_map(outer, 3) == [[0, 1], [10, 11], [20, 21]]
        assert ex.stats()["fork_joins"] == 1  # only the outer section
    finally:
        ex.shutdown()


def test_lowest_rank_exception_wins_and_all_ranks_complete():
    ex = RankExecutor("threads", workers=4)
    try:
        completed: list[int] = []

        def flaky(r: int) -> int:
            if r in (1, 3):
                raise ValueError(f"rank {r} failed")
            completed.append(r)
            return r

        with pytest.raises(ValueError, match="rank 1 failed"):
            ex.rank_map(flaky, 4)
        assert sorted(completed) == [0, 2]  # healthy ranks ran to the end
    finally:
        ex.shutdown()


def test_trace_events_merge_in_rank_order_with_sequential_ids():
    ex = RankExecutor("threads", workers=4)
    trace = Trace()
    trace.record("phase", "before")  # id 0, outside any fork-join
    try:

        def emit(r: int) -> list:
            time.sleep(0.01 * (3 - r))  # scramble completion order
            return [
                trace.record("compute", f"work[{r}].a", rank=r, flops=1.5 * r),
                trace.record("h2d", f"work[{r}].b", rank=r, stream="h2d",
                             nbytes=8 * r, seconds=0.25 * r),
            ]

        buffered = ex.rank_map(emit, 3, trace=trace)
    finally:
        ex.shutdown()
    labels = [e.label for e in trace.events]
    assert labels == [
        "before",
        "work[0].a", "work[0].b",
        "work[1].a", "work[1].b",
        "work[2].a", "work[2].b",
    ]
    assert [e.event_id for e in trace.events] == list(range(7))
    # The merge renumbers the buffered events and changes nothing else.
    assert {e.event_id for events in buffered for e in events} == {-1}
    fields = ("kind", "label", "rank", "stream", "nbytes", "flops", "seconds")
    assert [[getattr(e, f) for f in fields] for e in trace.events[1:]] == [
        [getattr(e, f) for f in fields] for events in buffered for e in events
    ]
    # The log keeps extending with correct ids after the merge.
    after = trace.record("phase", "after")
    assert after.event_id == 7


def test_trace_buffers_survive_a_failing_rank():
    ex = RankExecutor("threads", workers=2)
    trace = Trace()
    try:

        def emit_then_fail(r: int) -> None:
            trace.record("compute", f"r{r}", rank=r)
            if r == 1:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            ex.rank_map(emit_then_fail, 2, trace=trace)
    finally:
        ex.shutdown()
    assert [e.label for e in trace.events] == ["r0", "r1"]


def test_stats_counters_accumulate():
    ex = RankExecutor("threads", workers=2)
    try:
        ex.rank_map(lambda r: np.ones(4).sum(), 4)
        ex.rank_map(lambda r: None, 2)
        stats = ex.stats()
    finally:
        ex.shutdown()
    assert stats["fork_joins"] == 2
    assert stats["tasks"] == 6
    assert stats["wall_seconds"] > 0
    assert 0.0 <= stats["busy_fraction"] <= 1.0


def test_threads_run_only_sections_that_reach_the_flop_threshold(monkeypatch):
    monkeypatch.setattr(executor_module, "PARALLEL_MIN_FLOPS", 100.0)
    ex = RankExecutor("threads", workers=4)
    try:
        main_thread = threading.get_ident()
        ident = lambda r: threading.get_ident()  # noqa: E731
        below = ex.rank_map(ident, 4, flops=99.0)
        unhinted = ex.rank_map(ident, 4)
        above = ex.rank_map(ident, 4, flops=100.0)
    finally:
        ex.shutdown()
    assert below == unhinted == [main_thread] * 4
    assert main_thread not in above


def test_worker_count_leaves_the_threshold_in_place(monkeypatch):
    """``executor(workers=N)`` (like ``--workers N`` and
    ``REPRO_EXECUTOR=threads:N``) picks the pool size, not which sections
    use it: a section without a hint still runs inline."""
    monkeypatch.setattr(executor_module, "PARALLEL_MIN_FLOPS", THRESHOLD)
    main_thread = threading.get_ident()
    with executor(workers=4) as ex:
        idents = rank_map(lambda r: threading.get_ident(), 4)
        stats = ex.stats()
    assert idents == [main_thread] * 4
    assert stats["min_flops"] == THRESHOLD
    assert stats["fork_joins"] == 0 and stats["below_min_flops"] == 1


def test_stats_count_only_the_sections_the_threshold_kept_serial(monkeypatch):
    monkeypatch.setattr(executor_module, "PARALLEL_MIN_FLOPS", 100.0)
    ex = RankExecutor("threads", workers=2)
    try:
        ex.rank_map(lambda r: r, 4, flops=99.0)  # kept serial by the threshold
        ex.rank_map(lambda r: r, 1, flops=99.0)
        ex.rank_map(lambda r: r, 4, flops=100.0)
        stats = ex.stats()
    finally:
        ex.shutdown()
    assert stats["min_flops"] == 100.0
    assert stats["below_min_flops"] == 1
    assert stats["fork_joins"] == 1


def test_stats_keep_the_constant_keys_the_benchmark_reads():
    # perf/measure.py indexes these in its --trace 1 run.
    ex = RankExecutor("threads", workers=2)
    try:
        ex.rank_map(lambda r: r, 4)
        stats = ex.stats()
    finally:
        ex.shutdown()
    assert stats["forks"] == stats["fallback_forks"] == stats["pool_restarts"] == 0


# ---------------------------------------------------------------------------
# Selection: env var, context manager, constructor validation
# ---------------------------------------------------------------------------


def test_env_selects_serial(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "serial")
    reset_executor()
    ex = get_executor()
    assert ex.backend == "serial" and not ex.parallel


@pytest.mark.parametrize(
    "value,workers", [("threads:3", 3), ("2", 2), ("threads", None)]
)
def test_env_selects_thread_count(monkeypatch, value, workers):
    monkeypatch.setenv("REPRO_EXECUTOR", value)
    reset_executor()
    ex = get_executor()
    assert ex.backend == "threads"
    assert ex.workers == (workers or os.cpu_count() or 1)


def test_env_default_is_threads_at_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    reset_executor()
    ex = get_executor()
    assert ex.backend == "threads" and ex.workers == (os.cpu_count() or 1)


def test_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "fibers:9")
    reset_executor()
    with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
        get_executor()


def test_invalid_constructor_args_raise():
    with pytest.raises(ValueError):
        RankExecutor("processes")
    with pytest.raises(ValueError):
        RankExecutor("threads", workers=0)


def test_removed_process_backends_are_rejected_naming_the_accepted_ones(
    monkeypatch, capsys
):
    from repro.cli import main

    def names_both(message: str) -> bool:
        return "serial" in message and "threads" in message

    monkeypatch.setenv("REPRO_EXECUTOR", "process:4")
    reset_executor()
    with pytest.raises(ValueError) as env_error:
        get_executor()
    assert names_both(str(env_error.value))

    with pytest.raises(ValueError) as ctx_error:
        with executor(backend="process-pool"):
            pass
    assert names_both(str(ctx_error.value))

    with pytest.raises(SystemExit):
        main(["train", "--executor", "process"])
    assert names_both(capsys.readouterr().err)


def test_executor_context_overrides_and_restores():
    outer = RankExecutor("serial", workers=1)
    set_executor(outer)
    with executor(workers=4) as scoped:
        assert get_executor() is scoped
        assert scoped.parallel and scoped.workers == 4
    assert get_executor() is outer
    # workers=1 pins the serial path.
    with executor(workers=1) as scoped:
        assert scoped.backend == "serial"


def test_executor_context_with_no_prior_executor_reverts_to_env(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "serial")
    with executor(workers=4):
        assert get_executor().parallel
    # No stale scoped executor left behind: env is re-read.
    assert get_executor().backend == "serial"


def test_module_level_rank_map_and_stats(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "threads:2")
    reset_executor()
    assert rank_map(lambda r: r + 1, 3) == [1, 2, 3]
    stats = executor_stats()
    assert stats["workers"] == 2 and stats["fork_joins"] == 1


# ---------------------------------------------------------------------------
# Satellite: thread safety of the shared runtime pieces
# ---------------------------------------------------------------------------


def _hammer(n_threads: int, body) -> None:
    """Run ``body(thread_index)`` on ``n_threads`` threads, started
    together, re-raising the first exception."""
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []

    def runner(i: int) -> None:
        barrier.wait()
        try:
            body(i)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def test_memory_pool_concurrent_alloc_free_is_exact():
    pool = MemoryPool("stress")
    per_thread, rounds = 1024, 200

    def body(i: int) -> None:
        for _ in range(rounds):
            a = pool.alloc(per_thread, tag=f"t{i}")
            b = pool.alloc(per_thread, tag=f"t{i}")
            pool.free(a)
            pool.free(b)

    _hammer(8, body)
    assert pool.in_use == 0
    assert pool.n_allocs == 8 * rounds * 2
    assert pool.total_allocated == 8 * rounds * 2 * per_thread
    assert pool.usage_by_tag() == {}
    pool.check_empty()


def test_fault_counters_and_timeline_samples_survive_contention():
    """Eight rank threads draw offload faults and park host-pool samples
    at once, with a short switch interval to force interleaving: no
    update is lost, and the counters, the host timeline and the trace
    equal the serial loop's."""
    from repro.faults import FaultInjector, FaultPlan
    from repro.runtime.device import VirtualCluster

    plan = FaultPlan(seed=3, offload_rate=0.3)
    world, transfers = 8, 200

    def run(workers: int):
        cluster = VirtualCluster(world, record_timeline=True)
        injector = FaultInjector(plan).attach(cluster)
        host = cluster.host.pool

        def body(r: int) -> None:
            for i in range(transfers):
                injector.before_transfer(cluster, "d2h", f"x{i}", r)
                host.free(host.alloc(8 + r, f"r{r}"))

        with executor(workers=workers):
            cluster.rank_map(body)
        return (
            injector.stats(),
            [tuple(s) for s in host.timeline],
            [tuple(e) for e in cluster.trace.events],
        )

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serial, threaded = run(1), run(world)
    finally:
        sys.setswitchinterval(previous)
    assert threaded == serial
    drawn = sum(
        plan.failures_for("offload", r, i) for r in range(world) for i in range(transfers)
    )
    assert serial[0]["faults_injected"]["offload"] == drawn > 0
    assert len(serial[1]) == 2 * world * transfers


# ---------------------------------------------------------------------------
# Satellite: BLAS oversubscription guard
# ---------------------------------------------------------------------------


def test_blas_clamp_respects_user_pinning(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    assert clamp_blas_threads(1) is False


def test_threads_executor_pins_blas_before_any_section(monkeypatch):
    """The pin does not wait for a pooled section: one the threshold keeps
    serial runs on the same BLAS thread count as the pooled ones."""
    calls = []
    monkeypatch.setattr(executor_module, "clamp_blas_threads", calls.append)
    monkeypatch.setattr(executor_module, "PARALLEL_MIN_FLOPS", 100.0)
    ex = RankExecutor("threads", workers=2)
    try:
        assert calls == [(os.cpu_count() or 1) // 2]
        ex.rank_map(lambda r: r, 4, flops=99.0)
        assert ex.stats()["fork_joins"] == 0 and len(calls) == 1
    finally:
        ex.shutdown()
    RankExecutor("serial", workers=1)
    assert len(calls) == 1


def test_blas_clamp_is_safe_without_env(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    # Build-dependent whether a setter exists; must not crash either way,
    # and BLAS results must stay correct afterwards.
    clamp_blas_threads(1)
    a = np.arange(12.0).reshape(3, 4)
    assert np.allclose(a @ a.T, a @ a.T)
