"""The model-level runner every strategy shares
(:class:`repro.models.runner.ShardedModelRunner`): its checks hold for
every runner, and FPDT's phase markers bracket the block stack on both
of its block paths."""

import pytest

from repro.common.errors import ShapeError
from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt
from repro.parallel import (
    MegatronModelRunner,
    UlyssesModelRunner,
    USPModelRunner,
)
from repro.runtime import VirtualCluster

from .helpers import rng

WORLD = 4

RUNNERS = {
    "fpdt": lambda m, c: FPDTModelRunner(m, c, num_chunks=2),
    "fpdt_ac": lambda m, c: FPDTModelRunner(
        m, c, num_chunks=2, activation_checkpoint=True
    ),
    "usp_2x2": lambda m, c: USPModelRunner(m, c, seq_parallel=(2, 2)),
    "ulysses": lambda m, c: UlyssesModelRunner(m, c),
    "ring": lambda m, c: USPModelRunner(m, c, seq_parallel=(1, c.world_size)),
    "megatron": lambda m, c: MegatronModelRunner(m, c),
}


def _data(cfg, s, seed=0):
    g = rng(seed)
    return (
        g.integers(0, cfg.vocab_size, size=(1, s)),
        g.integers(0, cfg.vocab_size, size=(1, s)),
    )


@pytest.mark.parametrize("name", list(RUNNERS))
def test_sequence_longer_than_position_table_is_a_shape_error(name):
    cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, max_position_embeddings=16)
    runner = RUNNERS[name](GPTModel(cfg, seed=0), VirtualCluster(WORLD))
    tokens, labels = _data(cfg, s=32)
    with pytest.raises(ShapeError, match="position table"):
        runner.forward_backward(tokens, labels)


@pytest.mark.parametrize("activation_checkpoint", [False, True], ids=["plain", "ac"])
def test_fpdt_step_records_one_forward_and_one_backward_marker(activation_checkpoint):
    cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2)
    cluster = VirtualCluster(WORLD)
    runner = FPDTModelRunner(
        GPTModel(cfg, seed=0), cluster, num_chunks=2,
        activation_checkpoint=activation_checkpoint,
    )
    runner.forward_backward(*_data(cfg, s=32, seed=1))
    events = cluster.trace.events
    phases = [(i, e.label) for i, e in enumerate(events) if e.kind == "phase"]
    assert [label for _, label in phases] == ["forward", "backward"]
    (forward_at, _), (backward_at, _) = phases
    first_block = next(i for i, e in enumerate(events) if e.label.startswith("fpdt."))
    first_bwd = next(i for i, e in enumerate(events) if e.label.endswith("_bwd"))
    assert forward_at < first_block
    assert backward_at < first_bwd
    # No backward compute runs in the forward phase (under AC the
    # recomputed layer forwards run after the backward marker).
    assert all(e.label.endswith("_fwd") or e.kind != "compute"
               for e in events[forward_at:backward_at])
