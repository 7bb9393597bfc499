"""Metric instruments, the registry, and the sinks they feed."""

import csv
import json

import pytest

from repro.telemetry import (
    CSVSink,
    Counter,
    Gauge,
    Histogram,
    JSONLSink,
    MetricsRegistry,
    PrometheusTextSink,
    Timer,
    flatten_record,
    sanitize_metric_name,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("tokens")
        c.inc(3)
        c.inc()
        assert c.sample() == 4.0

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("tokens").inc(-1)

    def test_gauge_set_and_inc(self):
        g = Gauge("loss")
        g.set(2.5)
        g.inc(-0.5)
        assert g.sample() == 2.0

    def test_histogram_summary(self):
        h = Histogram("norms")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        s = h.sample()
        assert s["count"] == 4 and s["sum"] == 10.0
        assert (s["min"], s["max"], s["mean"]) == (1.0, 4.0, 2.5)
        assert s["p50"] == 2.0 and s["p99"] == 4.0

    def test_histogram_empty_sample(self):
        assert Histogram("x").sample()["count"] == 0
        assert Histogram("x").quantile(0.5) == 0.0

    def test_histogram_quantile_validation(self):
        with pytest.raises(ValueError):
            Histogram("x").quantile(1.5)

    def test_timer_uses_injected_clock(self):
        ticks = iter([10.0, 13.5])
        t = Timer("step", clock=lambda: next(ticks))
        with t.time():
            pass
        assert t.values == [3.5]

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("a.b/c d") == "a_b_c_d"
        assert sanitize_metric_name("9lives").startswith("_")
        assert sanitize_metric_name("") == "_"


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a")

    def test_timer_is_not_a_plain_histogram(self):
        reg = MetricsRegistry()
        reg.timer("t")
        with pytest.raises(ValueError):
            reg.histogram("t")

    def test_snapshot_and_names(self):
        reg = MetricsRegistry()
        reg.counter("steps").inc(2)
        reg.gauge("loss").set(1.5)
        reg.histogram("norm").observe(3.0)
        assert reg.names() == ["loss", "norm", "steps"]
        snap = reg.snapshot()
        assert snap["steps"] == 2.0 and snap["loss"] == 1.5
        assert snap["norm"]["count"] == 1

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("tokens_total", "tokens seen").inc(128)
        reg.gauge("loss").set(0.5)
        reg.histogram("step_seconds").observe(0.25)
        text = reg.prometheus_text()
        assert "# TYPE tokens_total counter" in text
        assert "tokens_total 128" in text
        assert "# HELP tokens_total tokens seen" in text
        assert "# TYPE loss gauge" in text
        assert "# TYPE step_seconds summary" in text
        assert 'step_seconds{quantile="0.5"} 0.25' in text
        assert "step_seconds_count 1" in text
        assert text.endswith("\n")


class TestSinks:
    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "log.jsonl"  # parent dir auto-created
        sink = JSONLSink(path)
        sink.emit({"record": "step", "loss": 1.0})
        sink.emit({"record": "run_summary", "steps": 1})
        sink.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["loss"] == 1.0
        assert lines[1]["record"] == "run_summary"

    def test_jsonl_sink_emit_after_close_raises(self, tmp_path):
        sink = JSONLSink(tmp_path / "log.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            sink.emit({})

    def test_csv_sink_flattens_and_fixes_header(self, tmp_path):
        path = tmp_path / "log.csv"
        sink = CSVSink(path)
        sink.emit({"record": "step", "loss": 1.0,
                   "hbm_live_bytes": [10, 20], "nested": {"a": 1}})
        # Later records: unknown columns dropped, missing ones blanked.
        sink.emit({"record": "step", "loss": 0.5, "surprise": 9})
        sink.close()
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["hbm_live_bytes[0]"] == "10"
        assert rows[0]["nested.a"] == "1"
        assert rows[1]["loss"] == "0.5"
        assert rows[1]["hbm_live_bytes[1]"] == ""
        assert "surprise" not in rows[1]

    def test_prometheus_text_sink_rewrites_file(self, tmp_path):
        reg = MetricsRegistry()
        path = tmp_path / "train.prom"
        sink = PrometheusTextSink(path, reg)
        reg.gauge("loss").set(2.0)
        sink.emit({})
        assert "loss 2" in path.read_text()
        reg.gauge("loss").set(1.0)
        sink.close()  # close re-renders the freshest state
        assert "loss 1" in path.read_text()

    def test_flatten_record(self):
        flat = flatten_record({
            "a": 1,
            "b": {"c": 2, "d": {"e": 3}},
            "l": [4, {"f": 5}],
        })
        assert flat == {"a": 1, "b.c": 2, "b.d.e": 3, "l[0]": 4, "l[1].f": 5}
