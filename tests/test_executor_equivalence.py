"""Bitwise executor-on/off equivalence across every strategy.

The rank executor's whole contract is that parallelism is **invisible**:
with ``workers=4`` each strategy must produce the same loss bytes, the
same gradient bytes, the same trace-event stream (ids included) and the
same pool peaks as the serial loop — not merely "close".  These tests
run every strategy both ways and compare at the byte level, then check
that repeated parallel runs are self-identical (no run-to-run thread
nondeterminism) — the receipts behind the "bitwise identity" acceptance
bar.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.parallel import (
    MegatronModelRunner,
    UlyssesModelRunner,
    USPModelRunner,
)
import repro.runtime.executor as executor_module
from repro.runtime import VirtualCluster
from repro.runtime.executor import PARALLEL_MIN_FLOPS, executor, reset_executor

from .helpers import rng

WORLD = 4
SEQ = 32

#: The real threshold, read before any test patches it.
THRESHOLD = PARALLEL_MIN_FLOPS


@pytest.fixture(autouse=True)
def _clean_global_executor(every_section_threaded):
    """Every section at these shapes is below the threshold, so it is
    dropped: ``workers=4`` then fans out every section."""
    reset_executor()
    yield
    reset_executor()


def _llama():
    return tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=2)


def _llama_kv_heads():
    """8 heads over 4 KV heads: at world 4 FPDT keeps K/V in KV heads
    and runs the grouped kernels (``_llama``'s 2 KV heads expand to 4)."""
    return tiny_llama(hidden_size=64, num_heads=8, num_kv_heads=4, num_layers=2)


def _data(cfg, seed=0):
    g = rng(seed)
    return (
        g.integers(0, cfg.vocab_size, size=(1, SEQ)),
        g.integers(0, cfg.vocab_size, size=(1, SEQ)),
    )


def _cluster_signature(cluster):
    """Everything the runtime observed: the full trace-event stream and
    the per-pool peak bytes (memory-accounting invariance)."""
    events = [
        (e.event_id, e.kind, e.label, e.rank, e.stream, e.nbytes, e.flops)
        for e in cluster.trace.events
    ]
    peaks = [d.hbm.peak for d in cluster.devices] + [cluster.host.pool.peak]
    return events, peaks


# One factory per strategy; each builds a *fresh* model+cluster so the
# two runs share no state.  (Megatron's TP needs kv heads divisible by
# the world size, so it gets its own configs.)
STRATEGIES = {
    "ulysses": (_llama, lambda m, c: UlyssesModelRunner(m, c)),
    "megatron_gpt": (
        lambda: tiny_gpt(hidden_size=32, num_heads=4, num_layers=2),
        lambda m, c: MegatronModelRunner(m, c),
    ),
    "megatron_llama": (
        lambda: tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=4, num_layers=2),
        lambda m, c: MegatronModelRunner(m, c),
    ),
    "ring": (
        _llama,
        lambda m, c: USPModelRunner(m, c, seq_parallel=(1, c.world_size)),
    ),
    "fpdt": (
        _llama,
        lambda m, c: FPDTModelRunner(m, c, num_chunks=2, offload=False),
    ),
    "fpdt_offload": (
        _llama,
        lambda m, c: FPDTModelRunner(m, c, num_chunks=2, offload=True),
    ),
    "fpdt_kv_heads": (
        _llama_kv_heads,
        lambda m, c: FPDTModelRunner(m, c, num_chunks=2, offload=False),
    ),
    "fpdt_offload_kv_heads": (
        _llama_kv_heads,
        lambda m, c: FPDTModelRunner(m, c, num_chunks=2, offload=True),
    ),
    "fpdt_ac": (
        _llama,
        lambda m, c: FPDTModelRunner(
            m, c, num_chunks=2, offload=True, activation_checkpoint=True
        ),
    ),
    "usp_2x2": (
        _llama,
        lambda m, c: USPModelRunner(m, c, seq_parallel=(2, 2)),
    ),
}


def _run_strategy(name: str, workers: int):
    cfg_factory, make_runner = STRATEGIES[name]
    cfg = cfg_factory()
    tokens, labels = _data(cfg)
    model = GPTModel(cfg, seed=7)
    cluster = VirtualCluster(WORLD)
    runner = make_runner(model, cluster)
    with executor(workers=workers):
        loss, grads = runner.forward_backward(tokens, labels)
    events, peaks = _cluster_signature(cluster)
    cluster.check_no_leaks()
    return loss, grads, events, peaks


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_workers4_bitwise_identical_to_serial(name):
    loss1, grads1, events1, peaks1 = _run_strategy(name, workers=1)
    loss4, grads4, events4, peaks4 = _run_strategy(name, workers=4)
    assert loss1 == loss4  # exact float equality, not approx
    assert set(grads1) == set(grads4)
    for key in grads1:
        assert grads1[key].tobytes() == grads4[key].tobytes(), key
    assert events1 == events4
    assert peaks1 == peaks4


@pytest.mark.parametrize("offload", [False, True], ids=["fpdt", "fpdt_offload"])
def test_default_threshold_bitwise_identical_to_serial(monkeypatch, offload):
    """Under the real threshold the two paths mix within one step: at
    seq 512 / 2 chunks the FFN backward and most attention sections
    reach PARALLEL_MIN_FLOPS per rank and the projections do not.  The
    mix must be as invisible as either path alone."""
    monkeypatch.setattr(executor_module, "PARALLEL_MIN_FLOPS", THRESHOLD)
    cfg = tiny_llama(hidden_size=64, num_heads=4, num_kv_heads=2, num_layers=2)
    g = rng(3)
    tokens = g.integers(0, cfg.vocab_size, size=(1, 512))
    labels = g.integers(0, cfg.vocab_size, size=(1, 512))

    def run(workers):
        cluster = VirtualCluster(WORLD)
        runner = FPDTModelRunner(
            GPTModel(cfg, seed=7), cluster, num_chunks=2, offload=offload
        )
        with executor(workers=workers) as ex:
            loss, grads = runner.forward_backward(tokens, labels)
            stats = ex.stats()
        cluster.check_no_leaks()
        return (loss, *_cluster_signature(cluster)), grads, stats

    serial, serial_grads, _ = run(1)
    mixed, mixed_grads, stats = run(4)
    assert stats["fork_joins"] > 0 and stats["below_min_flops"] > 0
    assert mixed == serial  # loss, trace stream, pool peaks
    assert set(mixed_grads) == set(serial_grads)
    for key in serial_grads:
        assert mixed_grads[key].tobytes() == serial_grads[key].tobytes(), key


def test_reference_model_unaffected_by_executor():
    """The single-device path has no rank loop; the executor must leave
    it bit-for-bit alone."""
    cfg = _llama()
    tokens, labels = _data(cfg)

    def run(workers):
        model = GPTModel(cfg, seed=3)
        with executor(workers=workers):
            loss = model.forward_loss(tokens, labels)
            model.backward_loss()
            grads = model.all_grads()
        return loss, grads

    loss1, grads1 = run(1)
    loss4, grads4 = run(4)
    assert loss1 == loss4
    for key in grads1:
        assert grads1[key].tobytes() == grads4[key].tobytes(), key


def test_five_runs_at_workers4_are_self_identical():
    """Run-to-run determinism: five parallel FPDT-with-offload steps
    produce one unique byte signature, not five."""
    signatures = set()
    for _ in range(5):
        loss, grads, events, peaks = _run_strategy("fpdt_offload", workers=4)
        blob = (
            np.float64(loss).tobytes()
            + b"".join(grads[k].tobytes() for k in sorted(grads))
            + repr(events).encode()
            + repr(peaks).encode()
        )
        signatures.add(blob)
    assert len(signatures) == 1


# ---------------------------------------------------------------------------
# Serving decode: continuous batching stays bitwise
# ---------------------------------------------------------------------------


def _run_serving(workers: int, offload: bool):
    """One serving episode: five staggered requests, prefill each, then
    continuous-batching decode ticks until all complete.  Staggered
    ``max_new_tokens`` means the live batch shrinks tick by tick."""
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.request import Request, RequestState

    cfg = _llama()
    model = GPTModel(cfg, seed=5)
    cluster = VirtualCluster(1)
    engine = ServingEngine(
        model, config=EngineConfig(offload=offload), cluster=cluster
    )
    g = rng(23)
    prompts = [g.integers(0, cfg.vocab_size, size=8 + i) for i in range(5)]
    with executor(workers=workers):
        states = [
            engine.start(
                Request(
                    rid=f"r{i}",
                    prompt=prompts[i],
                    max_new_tokens=3 + i,
                    seed=i,
                )
            )
            for i in range(5)
        ]
        for state in states:
            while not engine.prefill_step(state):
                pass
        while True:
            live = [s for s in states if s.state is RequestState.DECODE]
            if not live:
                break
            engine.decode_batch(live)
        outputs = {s.rid: list(s.new_tokens) for s in states}
        for state in states:
            engine.finish(state)
    events, peaks = _cluster_signature(cluster)
    cluster.check_no_leaks()
    return outputs, events, peaks


@pytest.mark.parametrize("offload", [False, True], ids=["inline-kv", "offload-kv"])
def test_serving_decode_at_workers4_matches_serial(offload):
    """A threaded executor changes nothing in serving: the engine's
    decode batch is one stacked forward on the calling thread, never an
    executor section, so tokens, the trace stream and the pool peaks all
    equal the serial run's exactly — for both KV-offload modes."""
    serial_outputs, serial_events, serial_peaks = _run_serving(1, offload)
    outputs, events, peaks = _run_serving(4, offload)
    assert outputs == serial_outputs
    assert events == serial_events
    assert peaks == serial_peaks


# ---------------------------------------------------------------------------
# Memory timelines and fault injection run on the pool
# ---------------------------------------------------------------------------


def _serial_and_threaded(run):
    """``run()`` under the serial loop and under a 4-thread pool; the
    threaded run must actually have forked."""
    outcomes = []
    for workers in (1, 4):
        with executor(workers=workers) as ex:
            outcomes.append(run())
            fork_joins = ex.stats()["fork_joins"]
    assert fork_joins > 0
    return outcomes


def _pool_timelines(cluster):
    """Every pool's full timeline, one tuple per sample."""
    pools = [d.hbm for d in cluster.devices] + [cluster.host.pool]
    return {
        pool.name: [
            (s.step, s.in_use, s.event, s.tag, s.event_index) for s in pool.timeline
        ]
        for pool in pools
    }


def test_figure13_timeline_matches_serial():
    from repro.experiments import figure13

    serial, threaded = _serial_and_threaded(lambda: figure13.run().data)
    assert threaded == serial
    assert serial["peak"] == max(in_use for _, in_use, _ in serial["timeline"])


def test_profile_step_timelines_match_serial():
    """Every pool's ``(step, in_use, event, tag, event_index)`` of a
    ``repro profile`` harness step, and its trace."""
    from repro.profiler import run_profiled_step

    def run():
        cluster = run_profiled_step().cluster
        return _pool_timelines(cluster), _cluster_signature(cluster)

    serial, threaded = _serial_and_threaded(run)
    assert threaded == serial


def test_fpdt_offload_host_timeline_matches_serial():
    """The host pool is shared by every rank thread, so its live
    ``in_use`` under threads follows their interleaving; the timeline
    takes it from the byte deltas in merged order instead."""

    def run():
        model = GPTModel(_llama(), seed=3)
        cluster = VirtualCluster(WORLD, record_timeline=True)
        runner = FPDTModelRunner(model, cluster, num_chunks=2, offload=True)
        tokens, labels = _data(model.config)
        loss, _ = runner.forward_backward(tokens, labels)
        cluster.check_no_leaks()
        return float(loss).hex(), _pool_timelines(cluster)

    serial, threaded = _serial_and_threaded(run)
    assert threaded == serial
    host = serial[1]["host"]
    assert len(host) > 2 * WORLD and host[-1][1] == 0
    assert max(in_use for _, in_use, *_ in host) > 0


def test_chaos_run_matches_serial(tmp_path):
    """Verdict, loss curves, per-kind fault counts and the crash dump
    are the serial run's; only the dump's wall-clock and executor fields
    (which describe the run, not the program) differ."""
    from repro.faults import chaos_run

    def run():
        path = tmp_path / f"flight-{len(list(tmp_path.iterdir()))}.json"
        result = chaos_run(6, flight_recorder_path=path)
        dump = json.loads(path.read_text())
        for record in dump["step_records"]:
            for key in [k for k in record
                        if k == "wall_time_s" or k.startswith("executor_")]:
                del record[key]
        return (
            result.bitwise_equal,
            [x.hex() for x in result.chaos_losses],
            [x.hex() for x in result.clean_losses],
            result.fault_stats,
            dump,
        )

    serial, threaded = _serial_and_threaded(run)
    assert threaded == serial
    bitwise_equal, chaos_losses, clean_losses, stats, _ = serial
    assert bitwise_equal and chaos_losses == clean_losses
    assert stats["faults_injected"]["offload"] > 0


def test_permanent_offload_fault_raises_the_serial_error():
    """Every transfer fails more often than the retry budget allows.  The
    serial loop stops at rank 0's first offload; the pool runs every rank
    to its own failure and re-raises rank 0's, so the error is the same
    while the trace also holds the later ranks' fault events."""
    from repro.common.errors import PermanentFaultError
    from repro.faults import FaultInjector, FaultPlan

    plan = FaultPlan(seed=0, offload_rate=1.0, max_failures_per_op=3, max_retries=2)

    def run():
        model = GPTModel(_llama(), seed=0)
        cluster = VirtualCluster(WORLD)
        FaultInjector(plan).attach(cluster)
        runner = FPDTModelRunner(model, cluster, num_chunks=2, offload=True)
        with pytest.raises(PermanentFaultError) as raised:
            runner.forward_backward(*_data(model.config))
        faulted = {e.rank for e in cluster.trace.filter(kind="fault")}
        return (raised.value.kind, raised.value.label), faulted

    (serial_error, serial_ranks), (error, ranks) = _serial_and_threaded(run)
    assert error == serial_error
    assert serial_error == ("offload", "d2h:offload:('q', 0, 0)")
    assert serial_ranks == {0}
    assert ranks == set(range(WORLD))
