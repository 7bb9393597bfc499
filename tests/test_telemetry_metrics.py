"""Metric instruments and the registry."""

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
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

    def test_snapshot_and_names(self):
        reg = MetricsRegistry()
        reg.counter("steps").inc(2)
        reg.gauge("loss").set(1.5)
        reg.histogram("norm").observe(3.0)
        assert reg.names() == ["loss", "norm", "steps"]
        snap = reg.snapshot()
        assert snap["steps"] == 2.0 and snap["loss"] == 1.5
        assert snap["norm"]["count"] == 1
