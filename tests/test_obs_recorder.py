"""Flight recorder: tail views of the span and run logs, armed crash
dumps, postmortem rendering, and the chaos-gate integration (crash dump
without touching the bitwise-recovery verdict)."""

import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

import repro
from repro.common.errors import InjectedCrash
from repro.faults import FaultPlan, chaos_run
from repro.obs import FlightRecorder, SpanTracer, load_dump, render_postmortem
from repro.telemetry import RunLogger, StepRecord


def _record(step, loss=1.0):
    return StepRecord(
        step=step, loss=loss, lr=1e-3, tokens=32,
        tokens_total=32 * (step + 1),
    )


def _logger(*steps):
    logger = RunLogger()
    for step, loss in steps:
        logger.log_step(_record(step, loss=loss))
    return logger


class TestTail:
    def test_span_tail_drops_oldest(self, tmp_path):
        tracer = SpanTracer()
        rec = FlightRecorder().attach(tracer)
        for i in range(600):
            with tracer.span(f"s{i}", trace_id="x"):
                pass
        log = list(tracer.spans)
        doc = load_dump(rec.dump(tmp_path / "dump.json"))
        assert [s["name"] for s in doc["spans"]] == [
            f"s{i}" for i in range(88, 600)
        ]
        assert doc["capacity"] == 512
        assert doc["high_watermark"] == 512
        assert doc["dropped_spans"] == 88
        # The dump reads the span log; it never trims it.
        assert len(tracer.spans) == 600
        assert all(a is b for a, b in zip(tracer.spans, log))

    def test_step_tail_is_the_run_log_tail(self, tmp_path):
        logger = _logger(*((i, 1.0 + i) for i in range(70)))
        rec = FlightRecorder().attach(SpanTracer(), logger)
        doc = load_dump(rec.dump(tmp_path / "dump.json"))
        assert doc["step_records"] == [
            r.to_record() for r in logger.steps[-64:]
        ]
        assert len(logger.steps) == 70

    def test_no_logger_no_step_records(self, tmp_path):
        rec = FlightRecorder().attach(SpanTracer())
        doc = load_dump(rec.dump(tmp_path / "dump.json"))
        assert doc["step_records"] == []

    def test_recorder_holds_no_store(self):
        tracer = SpanTracer()
        rec = FlightRecorder().attach(tracer, _logger((0, 1.0)))
        with tracer.span("s", trace_id="x"):
            pass
        assert not [
            name for name, value in vars(rec).items()
            if isinstance(value, (list, dict, set, deque))
        ]


class TestDump:
    def test_manual_dump_shape(self, tmp_path):
        tracer = SpanTracer()
        rec = FlightRecorder().attach(tracer, _logger((3, 2.5)))
        with tracer.span("done", trace_id="t"):
            pass
        tracer.start_span("stuck", trace_id="t")
        path = rec.dump(tmp_path / "dump.json", reason="unit test")
        doc = load_dump(path)
        assert doc["record"] == "flight_recorder"
        assert doc["reason"] == "unit test"
        assert doc["exception"] is None
        assert [s["name"] for s in doc["spans"]] == ["done"]
        assert [s["name"] for s in doc["in_flight"]] == ["stuck"]
        assert doc["in_flight"][0]["end"] is None
        assert doc["step_records"][0]["loss"] == 2.5
        assert rec.dumped == path

    def test_unarmed_dump_needs_a_path(self):
        rec = FlightRecorder().attach(SpanTracer())
        assert not rec.armed
        with pytest.raises(ValueError, match="no dump path"):
            rec.dump()

    def test_armed_dump_fires_on_listed_exceptions_only(self, tmp_path):
        tracer = SpanTracer()
        rec = FlightRecorder().attach(tracer)
        rec.arm(tmp_path / "dump.json")
        assert rec.armed
        # A retried transient (plain RuntimeError) must NOT dump.
        with pytest.raises(RuntimeError):
            with tracer.span("retryable", trace_id="x"):
                raise RuntimeError("transient")
        assert rec.dumped is None
        # An injected crash must dump, with the failing span in flight.
        with pytest.raises(InjectedCrash):
            with tracer.span("fatal", trace_id="x"):
                raise InjectedCrash(3)
        doc = load_dump(rec.dumped)
        assert doc["reason"] == "crash in span fatal"
        assert doc["exception"]["type"] == "InjectedCrash"
        assert [s["name"] for s in doc["in_flight"]] == ["fatal"]
        # The earlier retryable span completed into the span log.
        assert "retryable" in [s["name"] for s in doc["spans"]]

    def test_custom_exception_filter(self, tmp_path):
        tracer = SpanTracer()
        rec = FlightRecorder().attach(tracer)
        rec.arm(tmp_path / "dump.json", exc_types=(KeyError,))
        with pytest.raises(KeyError):
            with tracer.span("lookup", trace_id="x"):
                raise KeyError("gone")
        assert rec.dumped is not None

    def test_dump_is_atomic(self, tmp_path):
        tracer = SpanTracer()
        rec = FlightRecorder().attach(tracer)
        rec.dump(tmp_path / "d.json")
        assert not (tmp_path / "d.json.tmp").exists()


class TestPostmortem:
    def test_render_in_flight_tree_and_steps(self, tmp_path):
        tracer = SpanTracer()
        rec = FlightRecorder().attach(tracer, _logger((2, 3.25)))
        rec.arm(tmp_path / "dump.json")
        with pytest.raises(InjectedCrash):
            with tracer.span("train_step", trace_id="step-3", ambient=True,
                             attrs={"step": 3}):
                with tracer.span("collective", parent=tracer.current()):
                    raise InjectedCrash(3)
        text = render_postmortem(load_dump(rec.dumped))
        # The innermost failing span's dump wins: both it and its
        # ancestor are captured in flight.
        assert "crash in span collective" in text
        assert "InjectedCrash" in text
        assert "train_step" in text and "OPEN" in text
        assert "collective" in text
        assert "step 2: loss=3.250000" in text

    def test_render_tolerates_missing_fields(self):
        text = render_postmortem({"record": "flight_recorder", "spans": [],
                                  "in_flight": [], "step_records": []})
        assert "flight recorder" in text


class TestChaosIntegration:
    def test_crash_dump_rides_along_bitwise_recovery(self, tmp_path):
        path = tmp_path / "flight.json"
        run = chaos_run(
            6,
            plan=FaultPlan(seed=7, collective_rate=0.05, offload_rate=0.02,
                           crash_at_step=3),
            seed=7,
            checkpoint_every=2,
            flight_recorder_path=path,
        )
        # The recorder never disturbs the headline invariant.
        assert run.bitwise_equal
        assert run.flight_recorder == path
        doc = load_dump(path)
        assert doc["exception"]["type"] == "InjectedCrash"
        assert doc["tick"] == 3  # logical clock = the crashing step
        in_flight = {s["name"] for s in doc["in_flight"]}
        assert "train_step" in in_flight
        step_ids = [r["step"] for r in doc["step_records"]]
        assert step_ids == [0, 1, 2]  # records up to the crash
        assert step_ids == list(range(doc["tick"]))
        assert "crash" in render_postmortem(doc)

    def test_no_recorder_no_dump(self):
        run = chaos_run(
            4,
            plan=FaultPlan(seed=7, crash_at_step=2),
            seed=7,
            checkpoint_every=2,
        )
        assert run.bitwise_equal
        assert run.flight_recorder is None


def test_obs_does_not_import_telemetry():
    """The recorder reads the run logger it is handed; importing
    ``repro.obs`` alone must not pull in ``repro.telemetry``."""
    src = Path(repro.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.obs; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith('repro.telemetry')))"],
        cwd=src, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
