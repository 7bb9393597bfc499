"""Randomized end-to-end equivalence fuzzing.

Hypothesis draws a whole configuration — architecture family, head/GQA
geometry, sliding window, world size, chunk count, offload flag, batch
size — and FPDT must match the single-device reference on outputs and
input gradients.  This is the widest net in the suite: any interaction
bug between chunking, the shuffle, GQA expansion, RoPE offsets, window
masks and offloading shows up here first.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChunkLayout, fpdt_block_backward, fpdt_block_forward
from repro.core.chunking import shard_sequence, unshard_sequence
from repro.models import TransformerBlock, tiny_gpt, tiny_llama
from repro.runtime import VirtualCluster

from .helpers import rng


@st.composite
def fpdt_configs(draw):
    """A random-but-valid (cfg, world, num_chunks, batch, offload) tuple."""
    arch = draw(st.sampled_from(["gpt", "llama"]))
    world = draw(st.sampled_from([1, 2, 4]))
    heads_per_rank = draw(st.sampled_from([1, 2]))
    num_heads = world * heads_per_rank
    head_dim = draw(st.sampled_from([4, 8]))
    hidden = num_heads * head_dim
    if arch == "gpt":
        cfg = tiny_gpt(hidden_size=hidden, num_heads=num_heads, vocab_size=64)
    else:
        kv_choices = [k for k in (1, 2, num_heads) if num_heads % k == 0]
        cfg = tiny_llama(
            hidden_size=hidden, num_heads=num_heads,
            num_kv_heads=draw(st.sampled_from(kv_choices)), vocab_size=64,
        )
    window = draw(st.sampled_from([None, None, 3, 8, 64]))
    if window is not None:
        cfg = cfg.scaled(attention_window=window)
    num_chunks = draw(st.sampled_from([1, 2, 4]))
    chunk_len = draw(st.sampled_from([2, 3]))
    batch = draw(st.sampled_from([1, 2]))
    offload = draw(st.booleans())
    s_global = world * num_chunks * chunk_len
    return cfg, world, num_chunks, batch, offload, s_global


@settings(max_examples=30, deadline=None)
@given(config=fpdt_configs(), seed=st.integers(0, 10_000))
def test_fpdt_matches_reference_for_random_configs(config, seed):
    cfg, world, num_chunks, batch, offload, s_global = config
    block = TransformerBlock(cfg, rng(seed))
    g = rng(seed + 1)
    x = g.normal(size=(batch, s_global, cfg.hidden_size))
    dy = g.normal(size=x.shape)
    y_ref = block.forward(x)
    dx_ref = block.backward(dy)

    layout = ChunkLayout(s_global, world, num_chunks)
    cluster = VirtualCluster(world)
    y_shards, ctx = fpdt_block_forward(
        cluster, block.params, cfg, layout, shard_sequence(x, layout), offload=offload
    )
    dx_shards, _ = fpdt_block_backward(cluster, cfg, ctx, shard_sequence(dy, layout))
    np.testing.assert_allclose(
        unshard_sequence(y_shards, layout), y_ref, rtol=1e-7, atol=1e-9
    )
    np.testing.assert_allclose(
        unshard_sequence(dx_shards, layout), dx_ref, rtol=1e-6, atol=1e-8
    )
    cluster.check_no_leaks()
