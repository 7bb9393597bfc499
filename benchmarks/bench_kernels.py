"""Microbenchmarks of the numeric kernels themselves (real timing):
online attention vs reference, and the distributed block strategies.

These are honest wall-clock benchmarks (multiple rounds) of the NumPy
kernels — useful for catching performance regressions in the library
code itself, as opposed to the table/figure harnesses.
"""

import numpy as np
import pytest

from repro.models import TransformerBlock, tiny_gpt
from repro.models.attention import (
    attention_forward_reference,
    online_attention_forward,
)
from repro.parallel import seq_parallel_mesh, usp_block_forward
from repro.core import ChunkLayout, fpdt_block_forward
from repro.core.chunking import shard_sequence
from repro.runtime import VirtualCluster, fast_path
from repro.runtime.collectives import all_to_all
from repro.runtime.device import as_device_tensors
from repro.common.dtypes import DType


def _qkv(s=256, h=8, d=32, seed=0):
    g = np.random.default_rng(seed)
    return (
        g.normal(size=(1, s, h, d)),
        g.normal(size=(1, s, h, d)),
        g.normal(size=(1, s, h, d)),
    )


def test_reference_attention_forward(benchmark):
    q, k, v = _qkv()
    o, _ = benchmark(attention_forward_reference, q, k, v)
    assert o.shape == q.shape


@pytest.mark.parametrize("s,block", [(256, 64), (512, 128)])
def test_online_attention_forward(benchmark, s, block):
    q, k, v = _qkv(s=s)
    o, _ = benchmark(lambda: online_attention_forward(q, k, v, block_q=block, block_k=block))
    assert o.shape == q.shape


@pytest.mark.parametrize("mode", ["ulysses", "fpdt"])
def test_distributed_block_forward(benchmark, mode):
    cfg = tiny_gpt(hidden_size=64, num_heads=4)
    block = TransformerBlock(cfg, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(1, 64, cfg.hidden_size))

    if mode == "ulysses":
        def step():
            cluster = VirtualCluster(4)
            return usp_block_forward(
                cluster, seq_parallel_mesh(cluster, 4, 1),
                block.params, cfg, np.split(x, 4, axis=1),
            )
    else:
        layout = ChunkLayout(64, 4, 4)
        def step():
            cluster = VirtualCluster(4)
            y, ctx = fpdt_block_forward(
                cluster, block.params, cfg, layout, shard_sequence(x, layout)
            )
            ctx.attn_ctx.release()
            return y

    result = benchmark(step)
    assert result is not None


@pytest.mark.parametrize("enabled", [True, False], ids=["fast-path", "no-arena"])
def test_all_to_all_fast_path(benchmark, enabled):
    """The zero-copy collective path vs plain allocation.  Both sides of
    the comparison are bitwise-identical (the fuzz tests assert it); the
    delta here is pure allocator traffic."""
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal((1, 256, 8, 64)) for _ in range(4)]

    with fast_path(enabled):
        cluster = VirtualCluster(4)

        def step():
            ts = as_device_tensors(cluster, arrays, DType.BF16, "bench")
            for t in all_to_all(cluster, ts, split_axis=2, concat_axis=1):
                t.release()

        benchmark(step)
