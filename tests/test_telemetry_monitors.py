"""Health monitors and the run logger that feeds them.

Each monitor gets both directions: a deliberately injected fault (a
leaked chunk-cache allocation, an SLO-violating latency) must fire, and
the corresponding healthy run must not.
"""

import json

import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt
from repro.runtime import VirtualCluster
from repro.telemetry import (
    MemoryWatermarkMonitor,
    RunLogger,
    StepRecord,
    read_run_log,
)
from repro.telemetry.runlog import SNAPSHOTS
from repro.training import SyntheticCorpus
from repro.training.trainer import Trainer

PATIENCE = MemoryWatermarkMonitor.PATIENCE


def _record(step, *, host=0, hbm=()):
    return StepRecord(
        step=step, loss=1.0, lr=1e-3, tokens=32, tokens_total=32 * (step + 1),
        host_live_bytes=host, hbm_live_bytes=list(hbm),
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
        monitor = MemoryWatermarkMonitor()
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
        monitor = MemoryWatermarkMonitor()
        _telemetry_trainer(leak_bytes=0, steps=8, monitors=[monitor])
        assert not monitor.fired

    def test_growth_must_be_sustained(self):
        monitor = MemoryWatermarkMonitor()
        # Grows PATIENCE - 1 steps in a row, drops, and does it again.
        rising = [10 * (i + 1) for i in range(PATIENCE)]
        for step, host in enumerate(rising + rising):
            monitor.observe_step(_record(step, host=host))
        assert not monitor.fired

    def test_refires_along_a_long_leak(self):
        monitor = MemoryWatermarkMonitor()
        for step in range(2 * PATIENCE + 1):
            monitor.observe_step(_record(step, host=100 * (step + 1)))
        # Streak hits PATIENCE, 2 * PATIENCE — one alert each (not one
        # per step).
        assert len(monitor.alerts) == 2

    def test_tracks_per_rank_hbm_pools(self):
        monitor = MemoryWatermarkMonitor()
        for step in range(PATIENCE + 1):
            monitor.observe_step(
                _record(step, hbm=(1000, 1000 + 64 * step))
            )
        assert monitor.fired
        assert monitor.alerts[0].data["pool"] == "hbm:1"


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


class TestRunLoggerAlertPlumbing:
    def test_alerts_reach_the_run_log_as_records(self, tmp_path):
        path = tmp_path / "sub" / "run.jsonl"  # parent dir auto-created
        logger = RunLogger(path, monitors=[MemoryWatermarkMonitor()])
        for step in range(PATIENCE + 1):
            logger.log_step(_record(step, host=100 * (step + 1)))
        # Flushed per record: a run that dies here still leaves its log.
        kinds = [json.loads(line)["record"]
                 for line in path.read_text().splitlines()]
        assert kinds == ["step"] * (PATIENCE + 1) + ["alert"]
        summary = logger.finish()
        assert summary["alerts"] == 1
        log = read_run_log(path)
        assert [r["step"] for r in log.steps] == list(range(PATIENCE + 1))
        assert log.alerts[0]["monitor"] == "memory_watermark"
        assert log.summary == {"record": "run_summary", **summary}
        assert [a.to_record() for a in logger.alerts] == log.alerts

    def test_snapshot_counters_reach_the_summary(self):
        logger = RunLogger()
        record = _record(0)
        for i, name in enumerate(SNAPSHOTS):
            setattr(record, name, i + 1)
        logger.log_step(record)
        summary = logger.finish()
        for i, name in enumerate(SNAPSHOTS):
            assert summary[name] == i + 1
