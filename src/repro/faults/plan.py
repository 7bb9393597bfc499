"""Seeded fault plans: *what* goes wrong, *when*, deterministically.

A :class:`FaultPlan` is a pure description — rates, retry budgets,
backoff shape, an optional scheduled crash — plus deterministic draw
functions keyed on ``(seed, fault kind, operation ordinal)``, with the
rank before the ordinal (of that rank's transfers) for offload.  Because
every decision depends only on the plan's seed and the op's position in
the run, two runs of the same program under the same plan inject the
*same* faults at the same places, on any executor: fault injection is as
reproducible as the training run it perturbs, which is what the
determinism tests assert and what makes chaos failures debuggable.

The plan knows nothing about the runtime; :class:`~repro.faults
.injector.FaultInjector` owns the op counters and the trace/telemetry
side effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Stable per-kind entropy labels — reordering draw sites for one kind
#: never perturbs another kind's stream.
_KIND_IDS = {"collective": 1, "offload": 2, "straggler": 3, "hbm_spike": 4}


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault-injection schedule.

    Parameters
    ----------
    seed:
        Entropy root; same seed + same program = same faults.
    collective_rate:
        Per-attempt probability that a collective hits a transient link
        failure (drawn repeatedly, so one op can fail several times in
        a row, up to ``max_failures_per_op``).
    offload_rate:
        Same, for H2D/D2H chunk-cache transfers (the offload/prefetch
        path of Figs. 4-5).
    straggler_rate:
        Per-collective probability that one random rank is charged
        ``straggler_flops`` of extra compute before the collective —
        the slow-rank failure mode.  It shows up as a ``fault`` event
        (counted in the step record's ``fault_count``) and as the
        victim's longer compute stream in the simulated-time profile.
    hbm_spike_rate:
        Per-collective probability of a transient ``hbm_spike_bytes``
        allocation on one random rank — a memory-pressure burst that
        raises the pool's peak (and OOMs for real when the device is
        capacity-bounded, surfacing as the standard
        :class:`~repro.common.errors.OutOfMemoryError`).
    max_failures_per_op:
        Cap on consecutive transient failures of a single operation.
    max_retries:
        Retry budget per operation; a plan that schedules more failures
        than this makes the op fail permanently
        (:class:`~repro.common.errors.PermanentFaultError`).
    backoff_base_s / backoff_factor:
        Exponential backoff: retry ``k`` (0-based) waits
        ``backoff_base_s * backoff_factor**k`` simulated seconds,
        recorded on the ``retry`` trace event so the profiler charges
        it to the victim rank(s).
    straggler_flops / hbm_spike_bytes:
        Magnitudes of the straggler and pressure-spike faults.
    crash_at_step:
        Kill the training process (raise :class:`~repro.common.errors
        .InjectedCrash`) at the *start* of this global step; ``None``
        disables.
    """

    seed: int = 0
    collective_rate: float = 0.0
    offload_rate: float = 0.0
    straggler_rate: float = 0.0
    hbm_spike_rate: float = 0.0
    max_failures_per_op: int = 2
    max_retries: int = 4
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0
    straggler_flops: float = 5e9
    hbm_spike_bytes: int = 1 << 20
    crash_at_step: int | None = None

    def __post_init__(self) -> None:
        for name in ("collective_rate", "offload_rate", "straggler_rate",
                     "hbm_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_failures_per_op < 0 or self.max_retries < 0:
            raise ValueError("max_failures_per_op and max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base_s >= 0 and backoff_factor >= 1 required")

    # -- deterministic draws ------------------------------------------------

    def _rng(self, kind: str, *key: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=(self.seed, _KIND_IDS[kind], *key))
        )

    def failures_for(self, kind: str, *key: int) -> int:
        """Consecutive transient failures of the ``kind`` op at ``key``:
        ``(ordinal,)`` for a collective, ``(rank, ordinal)`` for offload."""
        rate = {"collective": self.collective_rate,
                "offload": self.offload_rate}[kind]
        if rate <= 0.0:
            return 0
        rng = self._rng(kind, *key)
        count = 0
        while count < self.max_failures_per_op and rng.random() < rate:
            count += 1
        return count

    def straggler_for(self, index: int, world: int) -> int | None:
        """Victim rank of a straggler fault at collective ``index``
        (``None`` = no fault)."""
        if self.straggler_rate <= 0.0:
            return None
        rng = self._rng("straggler", index)
        if rng.random() < self.straggler_rate:
            return int(rng.integers(world))
        return None

    def spike_for(self, index: int, world: int) -> int | None:
        """Victim rank of an HBM pressure spike at collective ``index``."""
        if self.hbm_spike_rate <= 0.0:
            return None
        rng = self._rng("hbm_spike", index)
        if rng.random() < self.hbm_spike_rate:
            return int(rng.integers(world))
        return None

    def backoff(self, attempt: int) -> float:
        """Backoff delay (simulated seconds) before retry ``attempt``
        (0-based)."""
        return self.backoff_base_s * self.backoff_factor ** attempt
