"""Exception hierarchy for the FPDT reproduction."""

from __future__ import annotations


class FPDTError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class OutOfMemoryError(FPDTError):
    """A device memory pool could not satisfy an allocation.

    Mirrors CUDA OOM: carries the requested size, the pool's capacity and
    the bytes currently live so that capacity experiments can report *why*
    a configuration failed, just as the paper's "OOM" markers do.
    """

    def __init__(self, pool: str, requested: int, capacity: int, in_use: int):
        self.pool = pool
        self.requested = requested
        self.capacity = capacity
        self.in_use = in_use
        super().__init__(
            f"{pool}: out of memory: requested {requested} B, "
            f"capacity {capacity} B, in use {in_use} B"
        )


class ShapeError(FPDTError):
    """An operation received tensors with incompatible shapes."""


class ScheduleError(FPDTError):
    """A pipeline schedule is malformed (cyclic dependencies, unknown
    stream, event waited on before being recorded, ...)."""


class PermanentFaultError(FPDTError):
    """An injected fault exhausted its retry budget.

    Transient faults are retried with exponential backoff; when the
    fault plan schedules more consecutive failures than
    ``max_retries`` allows, the operation fails for good — the
    simulated analogue of a hard link failure (NCCL abort)."""

    def __init__(self, kind: str, label: str, attempts: int):
        self.kind = kind
        self.label = label
        self.attempts = attempts
        super().__init__(
            f"{kind} operation {label!r} failed permanently after "
            f"{attempts} attempt(s) — retry budget exhausted"
        )


class InjectedCrash(FPDTError):
    """A fault plan killed the training process at a scheduled step.

    Raised by the fault injector at the *start* of the scheduled step
    (no partial step ran), so a checkpoint-restart loop can catch it,
    reload the last checkpoint, and reproduce the uninterrupted run
    exactly."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"injected crash at start of training step {step}")
