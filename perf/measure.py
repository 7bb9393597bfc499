"""What one child process measures: a workload's untraced run or its
traced run, reported as one JSON line.

``run.py`` puts ``src/`` on the path and calls :func:`main`; everything
that imports the program under test lives on this side of that call.
Metrics are ``name -> (value, n)``; a value of ``None`` means the metric
does not apply to the workload.  All times come out of ``workloads`` on
the reference host's scale (see ``hostspeed``).
"""

from __future__ import annotations

import cProfile
import glob
import json
import os
import pstats
import resource
import statistics
import time
from pathlib import Path

import numpy

import layers
import stats
from repro.models.attention import workspace_stats
from repro.runtime.executor import executor, executor_stats, reset_executor
from spans import Spans, totals, write_chrome_trace
from workloads import make_workload, scaled

OUT = Path(__file__).resolve().parent / "out"


def _p50(values) -> float:
    return stats.percentile(values, 50)


def headline(workload, job: dict) -> dict:
    """The untraced run: set up, one full window, checks.  A ``setup``
    job stops after the set-up and reports only its cost."""
    cold_ms, speed = workload.setup()
    report = {
        "setup_s": (time.time() - job["spawned"]) / speed,
        "cold_ms": None if cold_ms is None else cold_ms / speed,
    }
    if job["mode"] == "setup":
        return report
    window = workload.window(workload.work())
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, problems = workload.check(window)
    moved = sum(
        window.counters[key]
        for key in ("h2d_bytes", "d2h_bytes", "collective_bytes")
    )
    metrics = {
        "op_ms_p50": (_p50(window.op_ms), len(window.op_ms)),
        "tokens_per_s": (window.tokens / window.wall_s, window.tokens),
        "moved_kib_per_token": (moved / 1024 / window.tokens, window.tokens),
        "peak_hbm_mib": (window.peak_hbm / 2**20, 1),
        "peak_rss_mib": (rss_kib / 1024, 1),
    }
    if window.ttft_ms:
        metrics["ttft_ms_p50"] = (_p50(window.ttft_ms), len(window.ttft_ms))
    report.update(
        metrics=metrics, attempted=attempted, failed=failed,
        problems=problems, sim_digest=window.digest, window_s=window.wall_s,
        host_speed=window.host_speed,
    )
    return report


def _snapshot(cluster) -> dict:
    """Cumulative counters of the executor, the pools and the attention
    workspace; a window's share is the difference of two snapshots."""
    memory = cluster.memory_stats()
    pools = [*memory["hbm"], memory["host"]]
    workspace = workspace_stats()
    return {
        **executor_stats(),
        "allocs": sum(p["n_allocs"] for p in pools),
        "alloc_bytes": sum(p["total_allocated"] for p in pools),
        "arena_hits": sum(p["arena"]["hits"] for p in pools),
        "arena_misses": sum(p["arena"]["misses"] for p in pools),
        "live": sum(p["live_tensors"] for p in pools),
        "workspace_hits": workspace["hits"],
        "workspace_misses": workspace["misses"],
    }


def _rate(hits: float, misses: float) -> float | None:
    return hits / (hits + misses) if hits + misses else None


def _span_ms(records, name: str, host_speed: float, per: int | None = None):
    """``(milliseconds, calls)`` of the spans called ``name``, per call
    or per ``per``; ``(None, 0)`` when nothing was called."""
    count, total_s, _ = totals(records, name)
    if not count:
        return None, 0
    return total_s * 1e3 / host_speed / (per or count), count


def _profile_metrics(profile, profiled, serial) -> dict:
    """Per-layer self time from the profiled ``serial`` window."""
    seconds, calls = layers.fold_profile(pstats.Stats(profile).stats)
    seconds = {k: v / profiled.host_speed for k, v in seconds.items()}
    total_s = sum(seconds.values())
    ops = profiled.ops
    m = {}
    for layer in layers.LAYERS:
        m[f"{layer}.self_ms_per_op"] = (seconds[layer] * 1e3 / ops, ops)
        m[f"{layer}.self_share"] = (seconds[layer] / total_s, ops)
        m[f"{layer}.calls_per_op"] = (calls[layer] / ops, ops)
    m["trace.overhead_x"] = (profiled.wall_s / serial.wall_s, ops)
    m["trace.ops"] = (ops, 1)
    m["trace.unattributed_share"] = (
        seconds[layers.UNATTRIBUTED] / total_s, ops)
    return m


def _counter_metrics(default, serial, before: dict, after: dict) -> dict:
    """Executor, memory and trace counters over the default window, and
    the default-against-``serial`` A/B."""
    ops = default.ops
    delta = {
        key: after[key] - value
        for key, value in before.items() if isinstance(value, (int, float))
    }
    counters = default.counters
    default_op, serial_op = _p50(default.op_ms), _p50(serial.op_ms)
    sections = delta["wall_seconds"] * after["workers"]
    return {
        "runtime.executor.fork_joins_per_op": (delta["fork_joins"] / ops, ops),
        "runtime.executor.tasks_per_op": (delta["tasks"] / ops, ops),
        "runtime.executor.section_wall_ms_per_op": (
            delta["wall_seconds"] * 1e3 / default.host_speed / ops, ops),
        "runtime.executor.busy_fraction": (
            delta["busy_seconds"] / sections if sections else None, ops),
        "runtime.executor.forks_per_op": (delta["forks"] / ops, ops),
        "runtime.executor.fallback_forks": (delta["fallback_forks"], ops),
        "runtime.executor.pool_restarts": (delta["pool_restarts"], ops),
        "runtime.executor.serial_op_ms_p50": (serial_op, len(serial.op_ms)),
        "runtime.executor.default_vs_serial_x": (
            default_op / serial_op, len(default.op_ms)),
        "runtime.executor.dispatch_ms_per_op": (
            default_op - serial_op, len(default.op_ms)),
        "runtime.memory.allocs_per_op": (delta["allocs"] / ops, ops),
        "runtime.memory.alloc_bytes_per_op": (delta["alloc_bytes"] / ops, ops),
        "runtime.memory.arena_hit_rate": (
            _rate(delta["arena_hits"], delta["arena_misses"]), ops),
        "runtime.memory.peak_host_mib": (default.peak_host / 2**20, 1),
        "runtime.trace.events_per_op": (counters["events"] / ops, ops),
        "runtime.collectives.collectives_per_op": (
            counters["collective_calls"] / ops, ops),
        "runtime.collectives.bytes_per_op": (
            counters["collective_bytes"] / ops, ops),
        "core.offload.h2d_bytes_per_op": (counters["h2d_bytes"] / ops, ops),
        "core.offload.d2h_bytes_per_op": (counters["d2h_bytes"] / ops, ops),
        "core.offload.transfers_per_op": (counters["transfers"] / ops, ops),
        "models.flops_per_op": (counters["flops"] / ops, ops),
        "models.attention.workspace_hit_rate": (
            _rate(delta["workspace_hits"], delta["workspace_misses"]), ops),
    }


def _training_metrics(workload, default, records) -> dict:
    steps = default.units
    speed = default.host_speed
    return {
        "training.data_ms_per_step": _span_ms(
            records, "training.data", speed, steps),
        "training.forward_backward_ms_per_step": _span_ms(
            records, f"{workload.runner_layer}.forward_backward", speed, steps),
        "training.optimizer_ms_per_step": _span_ms(
            records, "training.optimizer", speed, steps),
        "training.step_ms_p90": (stats.percentile(default.op_ms, 90), steps),
        "training.loss_final": (default.series["losses"][-1], 1),
    }


def _serving_metrics(default, records) -> dict:
    series = default.series
    ticks = len(series["tick_ms"])
    requests = default.units
    speed = default.host_speed
    chunks = totals(records, "serving.engine.prefill_step")[0]
    loads = totals(records, "serving.kvstore.load")[0]
    saves = totals(records, "serving.kvstore.save")[0]
    batches, _, sizes = totals(records, "serving.engine.decode_batch")
    return {
        "serving.scheduler.tick_ms_p50": (_p50(series["tick_ms"]), ticks),
        "serving.scheduler.tick_ms_p99": (
            stats.percentile(series["tick_ms"], 99), ticks),
        "serving.scheduler.ticks": (ticks, 1),
        "serving.scheduler.queue_wait_ticks_p50": (
            _p50(series["queue_wait_ticks"]), requests),
        "serving.scheduler.max_queue_depth": (series["max_queue_depth"], ticks),
        "serving.engine.prefill_ms_per_chunk": _span_ms(
            records, "serving.engine.prefill_step", speed),
        "serving.engine.prefill_chunks": (chunks, 1),
        "serving.engine.decode_batch_ms_per_call": _span_ms(
            records, "serving.engine.decode_batch", speed),
        "serving.engine.decode_batch_size_mean": (
            statistics.fmean(sizes), batches),
        "serving.kvstore.load_ms_per_call": _span_ms(
            records, "serving.kvstore.load", speed),
        "serving.kvstore.save_ms_per_call": _span_ms(
            records, "serving.kvstore.save", speed),
        "serving.kvstore.calls_per_token": (
            (loads + saves) / default.ops, default.ops),
        "serving.tpot_ms_p50": (_p50(series["tpot_ms"]), requests),
        "serving.tpot_ms_p90": (
            stats.percentile(series["tpot_ms"], 90), requests),
        "serving.ttft_ms_p90": (
            stats.percentile(default.ttft_ms, 90), requests),
        "serving.latency_ms_p50": (_p50(series["latency_ms"]), requests),
        "serving.ttft_ticks_p50": (_p50(series["ttft_ticks"]), requests),
    }


def traced(workload, job: dict) -> dict:
    """The traced run: three windows of a fifth of the headline op count
    each -- default backend, ``serial``, ``serial`` under cProfile -- with
    spans around the benchmark's own calls throughout, then the optional
    single-device and observability windows."""
    spans = Spans()
    workload.setup(spans)
    spans.drain()
    fifth = workload.work(0.2)
    before = _snapshot(workload.cluster)
    default = workload.window(fifth, spans=spans)
    after = _snapshot(workload.cluster)
    records = spans.drain()
    profile = cProfile.Profile()
    with executor(backend="serial"):
        serial = workload.window(fifth, spans=spans)
        profiled = workload.window(fifth, spans=spans, profile=profile)
    spans.drain()

    m = {
        **_profile_metrics(profile, profiled, serial),
        **_counter_metrics(default, serial, before, after),
    }
    if workload.kind == "train":
        m.update(_training_metrics(workload, default, records))
        if workload.spec.reference_baseline:
            plain = workload.window(
                scaled(20, job["seconds"], 5), distributed=False)
            m["models.reference_step_ms_p50"] = (
                _p50(plain.op_ms), len(plain.op_ms))
            m["models.overhead_vs_reference_x"] = (
                _p50(default.op_ms) / _p50(plain.op_ms), len(default.op_ms))
    else:
        m.update(_serving_metrics(default, records))
    if workload.spec.obs:
        tenth = workload.work(0.1)
        off = workload.window(tenth)
        on = workload.window(tenth, observed=True)
        m["obs.on_op_ms_p50"] = (_p50(on.op_ms), len(on.op_ms))
        m["obs.overhead_x"] = (on.wall_s / off.wall_s, len(on.op_ms))

    attempted, failed, problems = workload.check(default)
    m["runtime.memory.leaked_allocs"] = (
        _snapshot(workload.cluster)["live"], 1)
    write_chrome_trace(
        OUT / f"trace-{workload.name}.json", records,
        max_op=2 if workload.kind == "train" else 199,
    )
    return {
        "metrics": m, "attempted": attempted, "failed": failed,
        "problems": problems, "sim_digest": default.digest,
        "window_s": default.wall_s, "host_speed": default.host_speed,
    }


def main(job: dict) -> None:
    workload = make_workload(job["workload"], job["seed"], job["seconds"])
    report = traced(workload, job) if job["trace"] else headline(workload, job)
    ran = executor_stats()
    report["executor"] = {"backend": ran["backend"], "workers": ran["workers"]}
    report["numpy"] = numpy.__version__
    reset_executor()
    if glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*"):
        report.setdefault("problems", []).append("shared memory left behind")
    print(json.dumps(report))
