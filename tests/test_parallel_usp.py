"""USP (2D Ulysses x Ring) sequence parallelism.

USP is the one sequence-parallel block: flat Ulysses is its ``(world,
1)`` mesh and flat Ring its ``(1, world)`` mesh, and those two record
the flat (unprefixed) collective labels because a mesh axis spanning the
cluster is the world group.  Mixed factorizations fold different
online-softmax segment boundaries, so they are numerically (not bitwise)
equal to the flat corners.  The head-divisibility satellite rides here
too: flat Ulysses is capped at ``num_heads`` ranks and must say so
naming the group, while a USP mesh with a small-enough ulysses axis is
the escape hatch.
"""

import numpy as np
import pytest

from repro.models import GPTModel, tiny_llama
from repro.parallel import UlyssesModelRunner, USPModelRunner
from repro.runtime import VirtualCluster

from .helpers import rng

WORLD = 8
SEQ = 64


def _cfg(num_heads=8, num_kv_heads=4):
    return tiny_llama(
        hidden_size=32, num_heads=num_heads, num_kv_heads=num_kv_heads,
        num_layers=2,
    )


def _data(cfg, seed=0):
    g = rng(seed)
    return (
        g.integers(0, cfg.vocab_size, size=(1, SEQ)),
        g.integers(0, cfg.vocab_size, size=(1, SEQ)),
    )


def _run(make_runner, cfg):
    tokens, labels = _data(cfg)
    model = GPTModel(cfg, seed=7)
    cluster = VirtualCluster(WORLD)
    runner = make_runner(model, cluster)
    loss, grads = runner.forward_backward(tokens, labels)
    peaks = tuple(d.hbm.peak for d in cluster.devices)
    cluster.check_no_leaks()
    return loss, grads, peaks


def _assert_bitwise(a, b):
    loss_a, grads_a, peaks_a = a
    loss_b, grads_b, peaks_b = b
    assert loss_a == loss_b  # exact float equality, not approx
    assert set(grads_a) == set(grads_b)
    for key in grads_a:
        assert grads_a[key].tobytes() == grads_b[key].tobytes(), key
    assert peaks_a == peaks_b


def _collective_labels(make_runner, cfg):
    tokens, labels = _data(cfg)
    cluster = VirtualCluster(WORLD)
    make_runner(GPTModel(cfg, seed=7), cluster).forward_backward(tokens, labels)
    return [e.label for e in cluster.trace.filter(kind="collective")]


class TestFlatMeshesAreTheWorldGroup:
    """A mesh axis that spans the cluster hands back the world group, so
    the degenerate meshes record the flat trace labels (and fault-plan
    keys) — no ``usp.`` namespace."""

    def test_world_by_one_records_flat_ulysses_labels(self):
        cfg = _cfg()
        got = _collective_labels(
            lambda m, c: USPModelRunner(m, c, seq_parallel=(WORLD, 1)), cfg
        )
        assert set(got) == {
            f"all_to_all:ulysses.{t}" for t in ("q", "k", "v", "o", "do", "dq", "dk", "dv")
        }
        assert got == _collective_labels(lambda m, c: UlyssesModelRunner(m, c), cfg)

    def test_one_by_world_records_flat_ring_labels(self):
        cfg = _cfg()
        got = _collective_labels(
            lambda m, c: USPModelRunner(m, c, seq_parallel=(1, WORLD)), cfg
        )
        assert set(got) == {f"ring_shift:ring.{t}" for t in ("k", "v", "dk", "dv")}


class TestMixedFactorizations:
    @pytest.mark.parametrize("mesh", [(2, 4), (4, 2)], ids=lambda m: f"{m[0]}x{m[1]}")
    def test_matches_reference_numerically(self, mesh):
        """2x4 and 4x2 meshes fold different segment boundaries than the
        flat layouts — numerically equal, not bitwise."""
        cfg = _cfg()
        ref_loss, ref_grads, _ = _run(lambda m, c: UlyssesModelRunner(m, c), cfg)
        u, r = mesh
        loss, grads, _ = _run(
            lambda m, c: USPModelRunner(m, c, seq_parallel=(u, r)), cfg
        )
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-10)
        assert set(grads) == set(ref_grads)
        for key in ref_grads:
            np.testing.assert_allclose(
                grads[key], ref_grads[key], rtol=1e-7, atol=1e-9, err_msg=key
            )

    def test_mixed_meshes_are_run_to_run_deterministic(self):
        cfg = _cfg()
        make = lambda m, c: USPModelRunner(m, c, seq_parallel=(2, 4))
        _assert_bitwise(_run(make, cfg), _run(make, cfg))


def _collective_bytes(make_runner, cfg):
    """Total collective bytes and per-event sizes by tag, summed over
    the mesh's groups (``all_to_all:usp.ulysses0:ulysses.k`` counts as
    ``ulysses.k``)."""
    tokens, labels = _data(cfg)
    cluster = VirtualCluster(WORLD)
    make_runner(GPTModel(cfg, seed=7), cluster).forward_backward(tokens, labels)
    totals, sizes = {}, {}
    for e in cluster.trace.filter(kind="collective"):
        tag = e.label.rsplit(":", 1)[-1]
        totals[tag] = totals.get(tag, 0) + e.nbytes
        sizes.setdefault(tag, set()).add(e.nbytes)
    return totals, sizes


class TestKVHeadsOnTheWire:
    """The row all-to-alls and the ring move K/V in ``lcm(num_kv_heads,
    ulysses)`` heads: half a query-head tensor at 8 heads / 4 KV on a
    ``(4, 2)`` mesh, the full expanded size when KV heads are fewer than
    the row's ranks."""

    #: One rank's ``[b, s_local, H, d]`` query shard in BF16 — also the
    #: size of its row-gathered ``[b, U*s_local, H/U, d]`` query segment.
    @staticmethod
    def _q_bytes(cfg):
        return SEQ // WORLD * cfg.hidden_size * 2

    def test_kv_heads_halve_the_kv_traffic(self):
        cfg = _cfg(num_heads=8, num_kv_heads=4)
        totals, sizes = _collective_bytes(
            lambda m, c: USPModelRunner(m, c, seq_parallel=(4, 2)), cfg
        )
        for tag in ("k", "v", "dk", "dv"):
            assert 2 * totals[f"ulysses.{tag}"] == totals["ulysses.q"], tag
            assert sizes[f"ring.{tag}"] == {self._q_bytes(cfg) // 2}, tag

    def test_fewer_kv_heads_than_row_ranks_stay_expanded(self):
        cfg = _cfg(num_heads=4, num_kv_heads=2)  # lcm(2, 4) = 4 = H
        totals, sizes = _collective_bytes(
            lambda m, c: USPModelRunner(m, c, seq_parallel=(4, 2)), cfg
        )
        for tag in ("k", "v", "dk", "dv"):
            assert totals[f"ulysses.{tag}"] == totals["ulysses.q"], tag
            assert sizes[f"ring.{tag}"] == {self._q_bytes(cfg)}, tag


class TestHeadDivisibility:
    def test_flat_ulysses_error_names_group_size_and_axis(self):
        """World 8 with 4 heads: flat Ulysses cannot scatter — the error
        names the offending sequence-parallel group, not a bare world."""
        cfg = _cfg(num_heads=4)
        with pytest.raises(ValueError, match=r"num_heads \(4\).*group size \(8, axis 'world'\)"):
            _run(lambda m, c: UlyssesModelRunner(m, c), cfg)

    def test_usp_mesh_error_names_mesh_axis(self):
        """A sub-world row names its mesh axis and *its* size, not the
        world's ((8, 1) is the world group, covered above)."""
        cfg = _cfg(num_heads=2, num_kv_heads=2)
        with pytest.raises(ValueError, match=r"group size \(4, axis 'usp\.ulysses0'\)"):
            _run(lambda m, c: USPModelRunner(m, c, seq_parallel=(4, 2)), cfg)

    def test_usp_is_the_head_count_escape_hatch(self):
        """The same (heads=4, world=8) point runs fine on a (4, 2) mesh:
        the ring axis absorbs the ranks heads cannot cover."""
        cfg = _cfg(num_heads=4)
        loss, grads, _ = _run(
            lambda m, c: USPModelRunner(m, c, seq_parallel=(4, 2)), cfg
        )
        assert np.isfinite(loss)
        ref_loss, ref_grads, _ = _run(
            lambda m, c: USPModelRunner(m, c, seq_parallel=(1, c.world_size)), cfg
        )
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-10)
        for key in ref_grads:
            np.testing.assert_allclose(
                grads[key], ref_grads[key], rtol=1e-7, atol=1e-9, err_msg=key
            )


class TestMeshValidation:
    def test_degrees_must_factor_world(self):
        cfg = _cfg()
        model = GPTModel(cfg, seed=7)
        with pytest.raises(ValueError, match=r"covers 6 ranks"):
            USPModelRunner(model, VirtualCluster(WORLD), seq_parallel=(3, 2))
        with pytest.raises(ValueError, match="must be >= 1"):
            USPModelRunner(model, VirtualCluster(WORLD), seq_parallel=(8, 0))
