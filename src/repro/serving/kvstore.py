"""Per-request KV residency: an append-only host store.

Serving a long-context model means the KV caches, not the activations,
dominate HBM — a single 512K-token request at bf16 dwarfs the model's
working set.  FPDT's answer for training applies directly: each KV chunk
goes to host memory *once* and is only fetched back afterwards (§4.1).
Between engine steps a request's per-layer K/V rows live host-side:

* :meth:`RequestKVStore.save` sends D2H only the rows appended since the
  request was last loaded (every row crosses to the host once);
* :meth:`RequestKVStore.load` fetches the retained rows to the device,
  one H2D per (layer, k|v), and the host copy stays;
* rows that fall behind a sliding window are dropped from the host on
  the next save, and :meth:`RequestKVStore.evict` frees the rest when
  the request finishes.

Rows are stored in the model's KV heads (no GQA expansion), so each
transfer is as wide as the model's ``num_kv_heads`` need.  A transfer
charges HBM with a pool alloc/free pair spanning its trace event (no
tensor is built), so HBM holds at most one layer tensor of one in-flight
request at a time — the serving analogue of the paper's "1/u footprint"
claim.  Every decode step still reads the retained prefix H2D once, just
as FPDT fetches each earlier KV chunk once per later query chunk.

The host copy and the device copy hold the same values, so both are the
one :class:`~repro.models.generate.KVCache` the store keeps per request;
an append writes only rows past the host's, and the store's pools and
trace account the two placements.  Every transfer calls the fault
injector's ``before_transfer`` hook, like the chunk cache: a flaky-PCIe
chaos plan exercises the scheduler exactly like the trainer and, since
injected transients retry without perturbing payloads, served tokens
stay bitwise identical under chaos.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.dtypes import DType
from repro.core.offload import inject_transfer_fault
from repro.models.generate import KVCache
from repro.runtime.device import VirtualCluster
from repro.runtime.memory import Allocation


@dataclass
class _Resident:
    kv: KVCache
    #: ``(cache, offload, fetch)`` labels per layer and k|v, formatted once.
    labels: list[tuple[tuple[str, str, str], ...]]
    #: Absolute position one past the last row already on host.
    saved: int = 0
    #: Host-pool charge of the retained rows, per (layer, k|v).
    allocs: list[Allocation] = field(default_factory=list)
    #: Whether the rows are on the device (between ``load`` and ``save``).
    loaded: bool = False


class RequestKVStore:
    """Host-resident KV caches keyed by request id.

    D2H/H2D traffic and host-pool bytes are accounted on the cluster
    like any training offload, with trace labels ``offload:(rid, layer,
    kind)`` / ``fetch:(rid, layer, kind)``.  A request is either resident
    (after ``save``) or loaded (after ``load``); saving a resident request
    or loading a loaded one raises ``KeyError``.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        num_layers: int,
        *,
        dtype: DType = DType.BF16,
    ):
        self.cluster = cluster
        self.device = cluster.devices[0]
        self.num_layers = num_layers
        self.dtype = dtype
        self._held: dict[str, _Resident] = {}

    def __contains__(self, rid: str) -> bool:
        return rid in self._held

    def __len__(self) -> int:
        return len(self._held)

    @property
    def host_bytes(self) -> int:
        """Accounted host bytes of every held request."""
        return sum(
            alloc.nbytes for held in self._held.values() for alloc in held.allocs
        )

    def save(self, rid: str, kv: KVCache) -> None:
        """Send ``rid``'s rows appended since its last :meth:`load` to
        host (one D2H per layer tensor that grew) and recharge the host
        pool for the retained rows (rows behind a window drop out)."""
        held = self._held.get(rid)
        if held is None:
            held = self._held[rid] = _Resident(kv, [
                tuple((f"cache:{key}", f"offload:{key}", f"fetch:{key}")
                      for key in ((rid, layer, "k"), (rid, layer, "v")))
                for layer in range(self.num_layers)
            ])
        elif not held.loaded:
            raise KeyError(f"kv store already holds request {rid!r}")
        pool = self.cluster.host.pool
        stale, held.allocs = iter(held.allocs), []
        for layer, labels in enumerate(held.labels):
            pairs = zip(labels, kv.rows(layer, held.saved), kv.rows(layer))
            for (cache, offload, _), new, retained in pairs:
                nbytes = 0 if retained is None else retained.size * self.dtype.nbytes
                held.allocs.append(pool.alloc(nbytes, cache))
                if new is not None and new.shape[1]:
                    self._transfer("d2h", offload, new)
                previous = next(stale, None)
                if previous is not None:
                    pool.free(previous)
        held.saved = kv.seq_len
        held.loaded = False

    def load(self, rid: str) -> KVCache:
        """Fetch ``rid``'s retained rows to the device (one H2D per layer
        tensor; the host copy stays) and return the cache, ready for
        :func:`~repro.models.generate.forward_cached`."""
        held = self._must_get(rid)
        if held.loaded:
            raise KeyError(f"kv store request {rid!r} is already loaded")
        for layer, labels in enumerate(held.labels):
            for (_, _, fetch), rows in zip(labels, held.kv.rows(layer)):
                if rows is not None and rows.shape[1]:
                    self._transfer("h2d", fetch, rows)
        held.loaded = True
        return held.kv

    def evict(self, rid: str) -> None:
        """Drop a finished request's host rows without fetching."""
        held = self._must_get(rid)
        del self._held[rid]
        for alloc in held.allocs:
            self.cluster.host.pool.free(alloc)

    def clear(self) -> None:
        for rid in list(self._held):
            self.evict(rid)

    def _transfer(self, direction: str, label: str, rows: np.ndarray) -> None:
        """Account one PCIe transfer of ``rows``: the fault hook, then an
        HBM alloc/free pair spanning the trace event (no tensor is built)."""
        rank, hbm = self.device.rank, self.device.hbm
        inject_transfer_fault(self.cluster, direction, label, rank)
        nbytes = rows.size * self.dtype.nbytes
        alloc = hbm.alloc(nbytes, label)
        self.cluster.trace.record(direction, label, rank=rank, stream=direction, nbytes=nbytes)
        hbm.free(alloc)

    def _must_get(self, rid: str) -> _Resident:
        try:
            return self._held[rid]
        except KeyError:
            raise KeyError(f"kv store has no request {rid!r}") from None
