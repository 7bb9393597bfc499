"""The fault injector: plan decisions -> runtime side effects.

One :class:`FaultInjector` attaches to one :class:`~repro.runtime
.device.VirtualCluster` (``injector.attach(cluster)`` sets
``cluster.fault_injector``).  The runtime hooks are duck-typed pulls,
not pushes: :mod:`repro.runtime.collectives` and :class:`~repro.core
.offload.ChunkCache` check ``cluster.fault_injector`` and call
:meth:`before_collective` / :meth:`before_transfer` right before moving
data, so the runtime has **zero** import-time dependency on this
package and zero overhead when no injector is attached.

Injected faults never perturb numerics: a transient failure costs
``fault`` + ``retry`` trace events (the retry carrying its exponential
backoff in ``seconds``) and counter increments, after which the
operation proceeds with the *identical* data movement — which is why a
chaos run's loss curve is bitwise equal to the clean run's, the
invariant the chaos CLI verifies.  Stragglers add pure extra compute on
the victim rank; HBM spikes charge-and-release pool bytes (peaks move,
live bytes do not).

Every executor injects the same faults: collectives (on the joining
thread) draw by collective ordinal, transfers by (rank, ordinal).
"""

from __future__ import annotations

import threading

from repro.common.errors import InjectedCrash, PermanentFaultError
from repro.faults.plan import FaultPlan


class FaultInjector:
    """Applies a :class:`FaultPlan` to a virtual cluster's operations.

    Counters (all cumulative) are exposed via :meth:`stats`; the
    per-step telemetry instead reads the ``fault``/``retry`` events off
    the trace slice, so step records see exact deltas.  Rank threads
    update them under a lock; backoff is summed per retry attempt.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._collectives = 0
        self._offloads: dict[int, int] = {}  # rank -> its offload ordinal
        self.faults_injected = {"collective": 0, "offload": 0,
                                "straggler": 0, "hbm_spike": 0}
        self._retries_at = [0] * plan.max_retries  # retries per attempt index
        self.crashes = 0
        self._lock = threading.Lock()

    @property
    def retries(self) -> int:
        return sum(self._retries_at)

    @property
    def backoff_s(self) -> float:
        return sum(n * self.plan.backoff(k) for k, n in enumerate(self._retries_at))

    def attach(self, cluster) -> "FaultInjector":
        """Install this injector on ``cluster`` and return it."""
        cluster.fault_injector = self
        return self

    # -- runtime hooks ------------------------------------------------------

    def before_collective(self, cluster, label: str, group=None) -> None:
        """Called by every collective right before its data movement.
        ``group`` (a :class:`~repro.parallel.mesh.ProcessGroup`, when the
        caller is group-scoped) restricts straggler/spike victims to the
        participating ranks; for the world group the draw is identical
        to the ungrouped one, so existing plans do not move."""
        index = self._collectives
        self._collectives = index + 1
        self._transient(cluster, "collective", label, (index,), rank=-1)
        world = cluster.world_size if group is None else group.size
        victim = self.plan.straggler_for(index, world)
        if victim is not None:
            if group is not None:
                victim = group.ranks[victim]
            self.faults_injected["straggler"] += 1
            cluster.trace.record(
                "fault", f"straggler:{label}", rank=victim, stream="fault"
            )
            cluster.devices[victim].compute(
                f"fault:straggler:{label}", flops=self.plan.straggler_flops
            )
        victim = self.plan.spike_for(index, world)
        if victim is not None:
            if group is not None:
                victim = group.ranks[victim]
            self.faults_injected["hbm_spike"] += 1
            cluster.trace.record(
                "fault", f"hbm_spike:{label}", rank=victim, stream="fault",
                nbytes=self.plan.hbm_spike_bytes,
            )
            # Charge-and-release: peak moves, live bytes do not.  On a
            # capacity-bounded device this OOMs like any allocation.
            pool = cluster.devices[victim].hbm
            pool.free(pool.alloc(self.plan.hbm_spike_bytes, "fault:hbm_spike"))

    def before_transfer(self, cluster, direction: str, label: str, rank: int) -> None:
        """Called by the chunk cache before an H2D/D2H transfer;
        ``direction`` is ``"h2d"`` or ``"d2h"``."""
        with self._lock:
            index = self._offloads.get(rank, 0)
            self._offloads[rank] = index + 1
        self._transient(cluster, "offload", f"{direction}:{label}", (rank, index), rank=rank)

    def on_step(self, step: int) -> None:
        """Called by the trainer at the start of global step ``step``."""
        if self.plan.crash_at_step is not None and step == self.plan.crash_at_step:
            self.crashes += 1
            raise InjectedCrash(step)

    # -- internals ----------------------------------------------------------

    def _transient(
        self, cluster, kind: str, label: str, key: tuple, *, rank: int
    ) -> None:
        failures = self.plan.failures_for(kind, *key)
        if failures == 0:
            return
        budget = min(failures, self.plan.max_retries)
        with self._lock:
            self.faults_injected[kind] += failures
            for attempt in range(budget):
                self._retries_at[attempt] += 1
        for attempt in range(budget):
            cluster.trace.record(
                "fault", f"{kind}:{label}", rank=rank, stream="fault"
            )
            cluster.trace.record(
                "retry", f"{kind}:{label}", rank=rank, stream="fault",
                seconds=self.plan.backoff(attempt),
            )
        if failures > self.plan.max_retries:
            cluster.trace.record(
                "fault", f"{kind}:{label}", rank=rank, stream="fault"
            )
            raise PermanentFaultError(kind, label, failures + 1)

    def stats(self) -> dict:
        """Cumulative injection counters (JSON-friendly)."""
        return {
            "faults_injected": dict(self.faults_injected),
            "total_faults": sum(self.faults_injected.values()),
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "crashes": self.crashes,
        }


def merge_stats(*stats: dict) -> dict:
    """Fold several injectors' :meth:`FaultInjector.stats` dicts into
    one (a crash-restart chaos run has one injector per process life)."""
    out = {"faults_injected": {}, "total_faults": 0, "retries": 0,
           "backoff_s": 0.0, "crashes": 0}
    for s in stats:
        for kind, n in s["faults_injected"].items():
            out["faults_injected"][kind] = out["faults_injected"].get(kind, 0) + n
        out["total_faults"] += s["total_faults"]
        out["retries"] += s["retries"]
        out["backoff_s"] += s["backoff_s"]
        out["crashes"] += s["crashes"]
    return out
