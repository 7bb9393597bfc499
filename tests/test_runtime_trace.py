"""Trace and cluster plumbing not covered elsewhere: filters, compute
hooks, topology-bound clusters, and the H100 spec additions."""

import inspect

import numpy as np
import pytest

from repro.common.dtypes import DType
from repro.common.units import GIB
from repro.hardware import (
    H100_80G,
    NDR_IB,
    NVLINK4,
    PCIE_GEN5_X16,
    make_cluster,
    node_h100_80g,
    paper_node_a100_80g,
)
from repro.runtime import Trace, VirtualCluster
from repro.runtime.memory import Allocation, MemorySample
from repro.runtime.trace import TraceEvent
from repro.runtime.trace_analysis import summarize


class TestTrace:
    def test_record_and_filter_by_kind(self):
        trace = Trace()
        trace.record("compute", "gemm", rank=0, flops=10.0)
        trace.record("h2d", "fetch", rank=1, nbytes=64)
        assert len(trace.filter(kind="compute")) == 1
        assert trace.filter(kind="h2d")[0].nbytes == 64

    def test_filter_by_rank_and_prefix(self):
        trace = Trace()
        trace.record("compute", "attn.fwd", rank=0)
        trace.record("compute", "attn.bwd", rank=1)
        trace.record("compute", "ffn.fwd", rank=1)
        assert len(trace.filter(rank=1)) == 2
        assert len(trace.filter(label_prefix="attn.")) == 2
        assert len(trace.filter(kind="compute", label_prefix="ffn", rank=1)) == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Trace().record("teleport", "x")

    def test_totals_and_clear(self):
        trace = Trace()
        trace.record("compute", "a", flops=3.0)
        trace.record("compute", "b", flops=4.0)
        trace.record("d2h", "c", nbytes=8)
        assert trace.total_flops() == 7.0
        assert trace.total_bytes("d2h") == 8
        trace.clear()
        assert trace.events == []

    def test_event_ids_monotone(self):
        trace = Trace()
        e1 = trace.record("compute", "a")
        e2 = trace.record("compute", "b")
        assert e2.event_id == e1.event_id + 1

    def test_device_compute_hook(self):
        cluster = VirtualCluster(2)
        cluster.devices[1].compute("gemm", flops=123.0, stream="compute")
        events = cluster.trace.filter(kind="compute", rank=1)
        assert events[0].flops == 123.0


@pytest.mark.parametrize(
    "record, fields",
    [
        (TraceEvent, {"event_id": None, "kind": None, "label": None, "rank": None,
                      "stream": None, "nbytes": 0, "flops": 0.0, "seconds": 0.0}),
        (MemorySample, {"step": None, "in_use": None, "event": None, "tag": None,
                        "event_index": -1}),
        (Allocation, {"alloc_id": None, "nbytes": None, "tag": None}),
    ],
    ids=["TraceEvent", "MemorySample", "Allocation"],
)
def test_record_types_keep_fields_defaults_and_immutability(record, fields):
    """The runtime records keep their field names, order and defaults
    (``None`` marks a required field), and refuse assignment."""
    assert [
        (p.name, None if p.default is inspect.Parameter.empty else p.default)
        for p in inspect.signature(record).parameters.values()
    ] == list(fields.items())
    value = record(*(0 for default in fields.values() if default is None))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)


class TestTraceSummary:
    def test_comm_to_compute_ratio_compute_free_trace(self):
        """A trace with communication but zero compute cannot define
        bytes-per-FLOP — the ratio must refuse, not divide by zero."""
        trace = Trace()
        trace.record("collective", "all_to_all:qkv", nbytes=4096)
        trace.record("h2d", "fetch:k", rank=0, nbytes=128)
        summary = summarize(trace)
        assert summary.compute_flops == 0
        assert summary.total_collective_bytes == 4096
        with pytest.raises(ValueError, match="no compute"):
            summary.comm_to_compute_ratio()

    def test_empty_trace_summary(self):
        summary = summarize(Trace())
        assert summary.total_collective_bytes == 0
        assert summary.host_traffic_bytes == 0
        with pytest.raises(ValueError):
            summary.comm_to_compute_ratio()

    def test_wait_and_phase_interleaved_with_transfers(self):
        """wait/phase markers carry no bytes and must not perturb the
        transfer accounting they are interleaved with."""
        trace = Trace()
        trace.mark_phase("forward")
        trace.record("d2h", "offload:k0", rank=0, stream="d2h", nbytes=256)
        trace.record("h2d", "fetch:k0", rank=0, stream="h2d-prefetch", nbytes=256)
        trace.record("wait", "wait:k0", rank=0)
        trace.record("compute", "attn", rank=0, flops=1e6)
        trace.mark_phase("backward")
        trace.record("h2d", "fetch:k0", rank=0, stream="h2d-prefetch", nbytes=256)
        trace.record("wait", "wait:k0", rank=0)
        trace.record("collective", "all_to_all:grad", nbytes=512)
        summary = summarize(trace)
        assert summary.phases == ["forward", "backward"]
        assert summary.wait_count == 2
        assert summary.h2d_bytes == 512 and summary.h2d_count == 2
        assert summary.d2h_bytes == 256 and summary.d2h_count == 1
        assert summary.collective_bytes == {"all_to_all": 512}
        assert summary.collective_count == {"all_to_all": 1}
        assert summary.host_traffic_bytes == 768
        assert summary.comm_to_compute_ratio() == pytest.approx(512 / 1e6)

    def test_summarize_event_window_deltas(self):
        """start/end slicing gives exact per-step deltas on a growing
        trace (what the trainer's telemetry records use)."""
        trace = Trace()
        trace.record("collective", "all_to_all:a", nbytes=100)
        mark = len(trace.events)
        trace.record("collective", "all_to_all:b", nbytes=23)
        trace.record("h2d", "fetch:x", rank=0, nbytes=7)
        delta = summarize(trace, start=mark)
        assert delta.total_collective_bytes == 23
        assert delta.h2d_bytes == 7
        head = summarize(trace, start=0, end=mark)
        assert head.total_collective_bytes == 100
        assert head.h2d_count == 0


class TestClusterWithSpec:
    def test_spec_must_match_world_size(self):
        spec = make_cluster(paper_node_a100_80g(), 8)
        with pytest.raises(ValueError, match="world size"):
            VirtualCluster(4, spec=spec)

    def test_spec_attached(self):
        spec = make_cluster(paper_node_a100_80g(), 4)
        cluster = VirtualCluster(4, spec=spec)
        assert cluster.spec is spec

    def test_gather_wrong_count_raises(self):
        cluster = VirtualCluster(2)
        t = cluster.devices[0].from_numpy(np.zeros((1, 2)), DType.FP32, "x")
        with pytest.raises(ValueError):
            cluster.gather([t], axis=1)
        t.free()


class TestH100Specs:
    def test_h100_is_faster_and_same_hbm(self):
        assert H100_80G.peak_flops_bf16 > 3 * 312e12 * 0.9
        assert H100_80G.hbm_bytes == 80 * GIB

    def test_h100_node_links(self):
        node = node_h100_80g()
        assert node.nvlink is NVLINK4
        assert node.pcie is PCIE_GEN5_X16
        assert node.interconnect is NDR_IB
        assert node.pcie.bandwidth == 2 * 32e9

    def test_h100_compute_to_host_ratio_worse(self):
        """The ratio that moves the chunk sweet spot (hardware
        sensitivity study): FLOPs grew ~3.2x, host bandwidth only 2x."""
        a100 = paper_node_a100_80g()
        h100 = node_h100_80g()
        ratio_a = a100.gpu.peak_flops_bf16 / a100.pcie.bandwidth
        ratio_h = h100.gpu.peak_flops_bf16 / h100.pcie.bandwidth
        assert ratio_h > 1.4 * ratio_a
