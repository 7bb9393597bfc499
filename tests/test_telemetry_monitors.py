"""Health monitors: fault injection and healthy-run silence.

Each monitor gets both directions: a deliberately injected fault (a
leaked chunk-cache allocation, a perturbed rank parameter, a skewed
compute trace) must fire, and the corresponding healthy run must not.
"""

import numpy as np
import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt
from repro.profiler import profile_cluster
from repro.runtime import VirtualCluster
from repro.telemetry import (
    DesyncMonitor,
    HealthMonitor,
    MemorySink,
    MemoryWatermarkMonitor,
    RunLogger,
    StepRecord,
    StragglerMonitor,
    checksum_params,
)
from repro.telemetry.runlog import SNAPSHOTS
from repro.training import SyntheticCorpus
from repro.training.trainer import Trainer


def _record(step, *, host=0, hbm=(), checksums=None):
    return StepRecord(
        step=step, loss=1.0, lr=1e-3, tokens=32, tokens_total=32 * (step + 1),
        host_live_bytes=host, hbm_live_bytes=list(hbm),
        param_checksums=dict(checksums or {}),
    )


def _telemetry_trainer(*, leak_bytes=0, steps=8, monitors):
    """Train a real FPDT-offload loop; optionally leak ``leak_bytes``
    of host chunk-cache memory per step (never freed)."""
    cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32)
    model = GPTModel(cfg, seed=3)
    corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=3)
    runner = FPDTModelRunner(
        model, VirtualCluster(2), num_chunks=2, offload=True, loss_chunks=2
    )
    logger = RunLogger(monitors=monitors)
    trainer = Trainer(model, corpus, runner=runner, lr=5e-3, telemetry=logger)
    for _ in range(steps):
        if leak_bytes:
            runner.cluster.host.pool.alloc(leak_bytes, tag="chunk_cache:leak")
        trainer.step(batch_size=2, seq_len=16)
    return logger


class TestMemoryWatermarkMonitor:
    def test_fires_on_leaked_chunk_cache_allocation(self):
        """Fault injection: one chunk-cache host allocation leaked per
        step makes host live bytes grow monotonically — the monitor
        must flag it during a real training loop."""
        monitor = MemoryWatermarkMonitor(patience=3)
        logger = _telemetry_trainer(leak_bytes=4096, steps=8,
                                    monitors=[monitor])
        assert monitor.fired
        alert = monitor.alerts[0]
        assert alert.data["pool"] == "host"
        assert "leak" in alert.message
        assert logger.alerts  # forwarded to the run logger

    def test_healthy_run_is_silent(self):
        """A correct FPDT-offload step returns its pools to baseline,
        so the same loop without the injected leak must not fire."""
        monitor = MemoryWatermarkMonitor(patience=3)
        _telemetry_trainer(leak_bytes=0, steps=8, monitors=[monitor])
        assert not monitor.fired

    def test_growth_must_be_sustained(self):
        monitor = MemoryWatermarkMonitor(patience=3)
        # Grows twice, resets, grows twice: never 3 in a row.
        for step, host in enumerate([10, 20, 30, 5, 15, 25]):
            monitor.observe_step(_record(step, host=host))
        assert not monitor.fired

    def test_refires_along_a_long_leak(self):
        monitor = MemoryWatermarkMonitor(patience=2)
        for step in range(6):
            monitor.observe_step(_record(step, host=100 * (step + 1)))
        # Streak hits 2, 4 — one alert each (not one per step).
        assert len(monitor.alerts) == 2

    def test_tracks_per_rank_hbm_pools(self):
        monitor = MemoryWatermarkMonitor(patience=2)
        for step in range(4):
            monitor.observe_step(
                _record(step, hbm=(1000, 1000 + 64 * step))
            )
        assert monitor.fired
        assert monitor.alerts[0].data["pool"] == "hbm:1"

    def test_patience_validation(self):
        with pytest.raises(ValueError):
            MemoryWatermarkMonitor(patience=0)


class TestDesyncMonitor:
    def test_fires_on_perturbed_rank_parameter(self):
        """Fault injection: perturb one element of one rank's parameter
        copy — its checksum shifts and the spread check must fire."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32)
        params = GPTModel(cfg, seed=0).all_params()
        healthy = checksum_params(params)
        perturbed = dict(params)
        name = sorted(params)[0]
        bad = params[name].copy()
        bad.flat[0] += 1e-3
        perturbed[name] = bad
        monitor = DesyncMonitor()
        alerts = monitor.observe_checksums(
            5, {0: healthy, 1: checksum_params(perturbed), 2: healthy}
        )
        assert monitor.fired
        assert alerts[0].step == 5
        assert alerts[0].data["spread"] > 0

    def test_identical_checksums_are_silent(self):
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32)
        c = checksum_params(GPTModel(cfg, seed=0).all_params())
        monitor = DesyncMonitor()
        assert monitor.observe_checksums(0, {0: c, 1: c, 2: c, 3: c}) == []
        assert not monitor.fired

    def test_single_rank_cannot_desync(self):
        monitor = DesyncMonitor()
        assert monitor.observe_checksums(0, {0: 1.0}) == []

    def test_tolerance_allows_small_spread(self):
        monitor = DesyncMonitor(tolerance=1e-6)
        assert monitor.observe_checksums(0, {0: 1.0, 1: 1.0 + 1e-7}) == []
        assert monitor.observe_checksums(1, {0: 1.0, 1: 1.0 + 1e-5})

    def test_observes_step_records(self):
        monitor = DesyncMonitor()
        monitor.observe_step(_record(2, checksums={0: 1.0, 1: 2.0}))
        assert monitor.fired and monitor.alerts[0].step == 2

    def test_real_training_loop_stays_in_sync(self):
        monitor = DesyncMonitor()
        _telemetry_trainer(steps=4, monitors=[monitor])
        assert not monitor.fired

    def test_checksum_sensitive_to_single_element(self):
        params = {"a": np.ones((4, 4)), "b": np.arange(8.0)}
        base = checksum_params(params)
        params["b"] = params["b"].copy()
        params["b"][3] += 1e-9
        assert checksum_params(params) != base


class TestStragglerMonitor:
    def _profile(self, flops_by_rank):
        cluster = VirtualCluster(len(flops_by_rank))
        for rank, flops in enumerate(flops_by_rank):
            cluster.devices[rank].compute("gemm", flops=flops, stream="compute")
        return profile_cluster(cluster)

    def test_fires_on_skewed_trace(self):
        monitor = StragglerMonitor(imbalance_threshold=1.25)
        alerts = monitor.observe_profile(self._profile([4e12, 1e12]))
        assert monitor.fired
        assert alerts[0].data["worst_rank"] == 0
        assert alerts[0].data["ratio"] == pytest.approx(4 / 2.5)
        assert alerts[0].step == -1  # run-level, not tied to a step

    def test_balanced_trace_is_silent(self):
        monitor = StragglerMonitor()
        assert monitor.observe_profile(self._profile([1e12, 1e12])) == []

    def test_single_rank_is_silent(self):
        monitor = StragglerMonitor()
        assert monitor.observe_profile(self._profile([1e12])) == []

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            StragglerMonitor(imbalance_threshold=1.0)

    def test_balanced_fpdt_run_is_silent(self):
        """FPDT's load-balanced chunking keeps the simulated per-rank
        compute times equal, so a real profiled run must not fire."""
        cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32)
        model = GPTModel(cfg, seed=3)
        corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=3)
        runner = FPDTModelRunner(
            model, VirtualCluster(2), num_chunks=2, offload=True, loss_chunks=2
        )
        monitor = StragglerMonitor()
        logger = RunLogger(monitors=[monitor])
        Trainer(model, corpus, runner=runner, lr=5e-3, telemetry=logger).train(
            2, batch_size=2, seq_len=16, profile=True
        )
        assert not monitor.fired


class TestSLObjective:
    def test_parse_aliases_and_raw_metric_names(self):
        from repro.telemetry import SLObjective

        obj = SLObjective.parse("ttft_p99<=40")
        assert obj.metric == "serving_ttft_ticks"
        assert obj.quantile == pytest.approx(0.99)
        assert obj.threshold == 40.0
        assert obj.name == "ttft_p99"
        raw = SLObjective.parse("serving_queue_wait_ticks_p50 <= 12.5")
        assert raw.metric == "serving_queue_wait_ticks"
        assert raw.quantile == pytest.approx(0.5)
        assert raw.threshold == 12.5

    @pytest.mark.parametrize("bad", [
        "ttft_p99", "ttft<=40", "ttft_p99<=forty", "ttft_pxx<=40",
        "ttft_p200<=40", "ttft_p0<=40",
    ])
    def test_parse_rejects_malformed_specs(self, bad):
        from repro.telemetry import SLObjective

        with pytest.raises(ValueError):
            SLObjective.parse(bad)

    def test_field_validation(self):
        from repro.telemetry import SLObjective

        with pytest.raises(ValueError):
            SLObjective(name="x", metric="m", quantile=1.5, threshold=1.0)
        with pytest.raises(ValueError):
            SLObjective(name="x", metric="m", quantile=0.5, threshold=1.0,
                        target=1.0)


class TestSLOMonitor:
    def _registry(self, latencies):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        hist = registry.histogram("serving_latency_ticks")
        for v in latencies:
            hist.observe(v)
        return registry

    def test_within_objective_is_silent(self):
        from repro.telemetry import SLOMonitor

        registry = self._registry([5, 6, 7, 8])
        monitor = SLOMonitor(["latency_p99<=10"], registry=registry)
        assert monitor.evaluate(step=3) == []
        assert not monitor.fired and monitor.violations == 0
        entry = monitor.last["latency_p99"]
        assert entry["value"] == 8 and not entry["violated"]

    def test_quantile_violation_fires(self):
        from repro.telemetry import SLOMonitor

        registry = self._registry([5, 6, 7, 50])
        monitor = SLOMonitor(["latency_p99<=10"], registry=registry)
        alerts = monitor.evaluate(step=9)
        assert monitor.fired and monitor.violations == 1
        assert alerts[0].step == 9
        assert alerts[0].data["value"] == 50

    def test_burn_rate_fires_even_when_quantile_ok(self):
        """5% of observations over threshold burns a 99% budget at 5x
        even though p50 looks healthy."""
        from repro.telemetry import SLOMonitor

        latencies = [1.0] * 95 + [100.0] * 5
        registry = self._registry(latencies)
        monitor = SLOMonitor(["latency_p50<=10"], registry=registry,
                             burn_alert=1.0)
        alerts = monitor.evaluate()
        assert alerts and "burn rate" in alerts[0].message
        entry = monitor.last["latency_p50"]
        assert not entry["violated"]  # p50 = 1.0, fine
        assert entry["burn_rate"] == pytest.approx(5.0)

    def test_empty_histogram_is_skipped_not_violated(self):
        from repro.telemetry import MetricsRegistry, SLOMonitor

        monitor = SLOMonitor(["ttft_p99<=10"], registry=MetricsRegistry())
        assert monitor.evaluate() == []
        assert monitor.last["ttft_p99"]["skipped"]
        assert monitor.violations == 0

    def test_eval_every_drives_step_observation(self):
        from repro.telemetry import SLOMonitor

        registry = self._registry([50])
        monitor = SLOMonitor(["latency_p50<=10"], registry=registry,
                             eval_every=2)
        assert monitor.observe_step(_record(0))  # step 0: evaluates
        assert monitor.observe_step(_record(1)) == []  # step 1: skip
        assert monitor.observe_step(_record(2))  # step 2: evaluates again
        assert monitor.violations == 2


class TestRunLoggerAlertPlumbing:
    def test_alerts_reach_sinks_as_records(self):
        sink = MemorySink()
        logger = RunLogger(sinks=[sink], monitors=[DesyncMonitor()])
        logger.log_step(_record(0, checksums={0: 1.0, 1: 5.0}))
        kinds = [r["record"] for r in sink.records]
        assert kinds == ["step", "alert"]
        assert sink.records[1]["monitor"] == "cross_rank_desync"
        summary = logger.finish()
        assert summary["alerts"] == 1
        assert sink.closed  # finish() closes the sinks
        assert sink.records[-1]["record"] == "run_summary"

    def test_each_new_profile_reaches_the_monitors(self):
        """Short-lived profiles are freed between calls, so CPython
        hands their ids to the next one: the dedupe must compare the
        objects, not their ids."""

        class Counting(HealthMonitor):
            name = "counting"
            profiles = 0

            def observe_profile(self, profile):
                self.profiles += 1
                return []

        class StandInProfile:
            pass

        monitor = Counting()
        logger = RunLogger(monitors=[monitor])
        for _ in range(5):
            logger.observe_profile(StandInProfile())
        assert monitor.profiles == 5
        profile = StandInProfile()
        logger.observe_profile(profile)
        logger.observe_profile(profile)  # the same profile again: no-op
        assert monitor.profiles == 6

    def test_snapshot_counters_reach_registry_and_summary(self):
        logger = RunLogger()
        record = _record(0)
        for i, name in enumerate(SNAPSHOTS):
            setattr(record, name, i + 1)
        logger.log_step(record)
        summary = logger.finish()
        snapshot = logger.registry.snapshot()
        for i, name in enumerate(SNAPSHOTS):
            assert snapshot[name] == i + 1
            assert summary[name] == i + 1
