"""Causal span tracing: deterministic ids, event attribution, serving
span trees (zero orphans, exact TTFT decomposition), and the Perfetto
export."""

import json

import pytest

from repro.models import GPTModel, tiny_gpt
from repro.obs import (
    Span,
    SpanTracer,
    all_spans,
    build_trees,
    load_dump,
    orphan_spans,
    render_spans,
)
from repro.profiler import spans_to_chrome_trace
from repro.serving import (
    EngineConfig,
    LoadGenConfig,
    SchedulerConfig,
    run_load,
    synthesize_requests,
)

from .helpers import ttft_breakdown


def _model():
    return GPTModel(
        tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32),
        seed=0,
    )


def _traced_replay(n=20, seed=4, **load_kwargs):
    model = _model()
    cfg = LoadGenConfig(num_requests=n, seed=seed, max_prompt=32,
                        max_new_tokens=6, **load_kwargs)
    requests = synthesize_requests(
        cfg, 32, position_budget=model.config.max_position_embeddings
    )
    tracer = SpanTracer()
    report = run_load(
        model, requests,
        engine_config=EngineConfig(prefill_chunk=8),
        scheduler_config=SchedulerConfig(max_live=4, tenant_quota=2),
        verify="none",
        tracer=tracer,
    )
    return report, tracer


class TestSpanTracer:
    def test_hierarchical_deterministic_ids(self):
        t = SpanTracer()
        with t.span("root", trace_id="r") as root:
            with t.span("a", parent=root) as a:
                with t.span("a0", parent=a):
                    pass
            with t.span("b", parent=root) as b:
                pass
        ids = {s.name: (s.span_id, s.parent_id) for s in t.spans}
        assert ids == {
            "a0": ("0.0.0", "0.0"),
            "a": ("0.0", "0"),
            "b": ("0.1", "0"),
            "root": ("0", None),
        }
        # seq reflects completion order: innermost first.
        assert [s.name for s in t.spans] == ["a0", "a", "b", "root"]
        # A second root in the same trace gets the next root id.
        with t.span("root2", trace_id="r"):
            pass
        assert t.spans[-1].span_id == "1"

    def test_span_needs_parent_or_trace_id(self):
        with pytest.raises(ValueError, match="parent or a trace_id"):
            SpanTracer().start_span("nameless")

    def test_logical_clock_stamps(self):
        t = SpanTracer()
        t.tick = 3
        sp = t.start_span("s", trace_id="x")
        t.tick = 7
        t.end_span(sp)
        assert (sp.start, sp.end, sp.duration) == (3.0, 7.0, 4.0)

    def test_error_fires_listeners_while_span_open(self):
        t = SpanTracer()
        seen = []
        t.error_listeners.append(
            lambda span, exc: seen.append((span.name, span.end, str(exc)))
        )
        with pytest.raises(RuntimeError):
            with t.span("doomed", trace_id="x"):
                raise RuntimeError("boom")
        # Listener ran before the span closed; the span records the error.
        assert seen == [("doomed", None, "boom")]
        assert t.spans[0].error == "RuntimeError: boom"

    def test_event_attribution_to_innermost_span(self):
        class Ev:
            def __init__(self, kind, nbytes, event_id):
                self.kind, self.nbytes, self.event_id = kind, nbytes, event_id

        t = SpanTracer()
        with t.span("outer", trace_id="x") as outer:
            t.observe_event(Ev("h2d", 100, 0))
            with t.span("inner", parent=outer) as inner:
                t.observe_event(Ev("h2d", 40, 1))
                t.observe_event(Ev("collective", 8, 2))
        assert inner.event_counts == {"h2d": 1, "collective": 1}
        assert inner.event_bytes == {"h2d": 40, "collective": 8}
        assert (inner.first_event, inner.last_event) == (1, 2)
        assert outer.event_counts == {"h2d": 1}

    def test_ambient_fallback_attribution(self):
        class Ev:
            kind, nbytes, event_id = "d2h", 16, 5

        t = SpanTracer()
        amb = t.start_span("step", trace_id="s", ambient=True)
        assert t.current() is amb
        t.observe_event(Ev())
        t.end_span(amb)
        assert amb.event_counts == {"d2h": 1}
        assert t.current() is None

    def test_dump_round_trip(self, tmp_path):
        t = SpanTracer()
        with t.span("root", trace_id="r", attrs={"k": 1}) as root:
            with t.span("child", parent=root):
                pass
        path = t.dump_spans(tmp_path / "spans.json")
        doc = load_dump(path)
        assert doc["record"] == "spans"
        rebuilt = [Span(**d) for d in doc["spans"]]
        assert [s.to_dict() for s in rebuilt] == t.to_dicts()
        assert not (tmp_path / "spans.json.tmp").exists()  # atomic write

    def test_load_dump_rejects_foreign_and_torn_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"spans": [')
        with pytest.raises(ValueError, match="unreadable"):
            load_dump(bad)
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"other": 1}')
        with pytest.raises(ValueError, match="not a spans"):
            load_dump(foreign)


class TestServingSpans:
    def test_every_request_has_a_complete_tree(self):
        report, tracer = _traced_replay(n=25)
        assert report.completed == 25
        spans = [s.to_dict() for s in tracer.spans]
        assert orphan_spans(spans) == []
        assert report.orphan_spans == 0
        assert report.spans_emitted == len(tracer.spans)
        forests = build_trees(spans)
        # One trace per request plus the scheduler tick stream.
        assert len(forests) == 26
        for rid in (r["trace_id"] for r in spans if r["kind"] == "request"):
            roots = forests[rid]
            assert len(roots) == 1
            phases = [c["name"] for c in roots[0]["children"]]
            assert phases == ["queued", "prefill", "decode"]

    def test_ttft_decomposes_exactly(self):
        report, tracer = _traced_replay(n=25)
        spans = [s.to_dict() for s in tracer.spans]
        roots = [
            r for forest in build_trees(spans).values() for r in forest
            if r["kind"] == "request" and not r["attrs"].get("rejected")
        ]
        assert len(roots) == 25
        for root in roots:
            bd = ttft_breakdown(root)
            assert bd is not None
            assert (
                bd["queue_ticks"] + bd["prefill_ticks"]
                + bd["first_decode_ticks"] == bd["ttft"]
            )
            a = root["attrs"]
            assert bd["ttft"] == a["first_token_tick"] - a["arrival_tick"]

    def test_rejected_request_still_gets_a_tree(self):
        # Force rejections with a tiny queue.
        model = _model()
        cfg = LoadGenConfig(num_requests=30, seed=9, max_prompt=32,
                            max_new_tokens=4, arrival_rate=10.0)
        requests = synthesize_requests(
            cfg, 32, position_budget=model.config.max_position_embeddings
        )
        tracer = SpanTracer()
        report = run_load(
            model, requests,
            scheduler_config=SchedulerConfig(max_live=1, max_queue=1),
            verify="none", tracer=tracer,
        )
        assert report.dropped > 0
        rejected = [
            s for s in tracer.spans
            if s.kind == "request" and s.attrs.get("rejected")
        ]
        assert len(rejected) == report.dropped
        assert all(s.end is not None for s in rejected)
        assert orphan_spans([s.to_dict() for s in tracer.spans]) == []

    def test_tracing_is_invisible_to_the_replay(self):
        base, _ = _traced_replay(n=15, seed=6)
        model = _model()
        cfg = LoadGenConfig(num_requests=15, seed=6, max_prompt=32,
                            max_new_tokens=6)
        requests = synthesize_requests(
            cfg, 32, position_budget=model.config.max_position_embeddings
        )
        plain = run_load(
            model, requests,
            engine_config=EngineConfig(prefill_chunk=8),
            scheduler_config=SchedulerConfig(max_live=4, tenant_quota=2),
            verify="none",
        )
        assert plain.schedule_digest == base.schedule_digest
        assert (plain.ticks, plain.h2d_bytes, plain.d2h_bytes) == (
            base.ticks, base.h2d_bytes, base.d2h_bytes
        )

    def test_render_spans_counts(self):
        _, tracer = _traced_replay(n=8, seed=3)
        doc = {"record": "spans", "spans": tracer.to_dicts()}
        text = render_spans(doc, limit=2)
        assert "0 orphans" in text
        assert "more traces" in text
        one = render_spans(doc, trace_id="req-000000")
        assert "req-000000" in one and "queued" in one


class TestChromeExport:
    def test_span_export_structure(self):
        _, tracer = _traced_replay(n=6, seed=2)
        doc = spans_to_chrome_trace(tracer.to_dicts())
        assert doc["otherData"]["traces"] == len(
            {s["trace_id"] for s in tracer.to_dicts()}
        )
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(tracer.spans)
        # Depth lanes: root request spans sit on tid 1, phases on 2.
        by_name = {}
        for e in xs:
            by_name.setdefault(e["name"], e)
        assert by_name["request"]["tid"] == 1
        assert by_name["queued"]["tid"] == 2
        # Zero-duration spans keep a visible sliver.
        assert all(e["dur"] > 0 for e in xs)
        json.dumps(doc)  # JSON-safe

    def test_open_spans_flagged_and_stretched(self):
        t = SpanTracer()
        t.tick = 2
        t.start_span("stuck", trace_id="x")
        sp = t.start_span("done", trace_id="x")
        t.tick = 5
        t.end_span(sp)
        spans = [s.to_dict() for s in t.spans] + [
            s.to_dict() for s in t.open_spans()
        ]
        doc = spans_to_chrome_trace(spans)
        open_ev = next(
            e for e in doc["traceEvents"] if e.get("args", {}).get("open")
        )
        assert open_ev["name"] == "stuck"
        # Stretched to the horizon (max end + 1 tick).
        assert open_ev["dur"] == pytest.approx((6.0 - 2.0) * 1000.0)
