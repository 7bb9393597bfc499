"""Spans around the calls the benchmark makes into the program.

The traced run wraps the public entry points it drives (``Trainer.step``
and the three phases inside it, ``Scheduler.tick``, the engine's
prefill/decode steps, the KV store's load/save) and keeps one record per
call in memory: name, start, end, parent span and the op (training step
or scheduler tick) it belongs to.  Per-name totals give the
``training.*`` / ``serving.*`` layer metrics; the first few ops are
written out as Chrome-trace JSON when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Spans:
    """In-memory span log.  The benchmark's own thread keeps the parent
    stack; a call made on a rank-executor worker thread (``kvstore.load``
    under ``decode_batch``) takes the driving thread's open span as its
    parent and does not touch the stack."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        #: Set by the window loop: the step or tick now running.
        self.op = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._owner = threading.get_ident()

    @contextmanager
    def span(self, name: str, size: int | None = None):
        sid = next(self._ids)
        thread = threading.get_ident()
        parent = self._stack[-1] if self._stack else None
        if thread == self._owner:
            self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if thread == self._owner:
                self._stack.pop()
            self.records.append(
                (sid, name, start, end, parent, self.op, thread, size)
            )

    def timed(self, name: str, fn, size=None):
        """``fn`` wrapped in a span; ``size(*args)`` is kept with the
        record (the decode batch's length)."""

        def wrapper(*args, **kwargs):
            with self.span(name, size(*args) if size is not None else None):
                return fn(*args, **kwargs)

        return wrapper

    def drain(self) -> list[tuple]:
        records, self.records = self.records, []
        return records


def totals(records, name: str) -> tuple[int, float, list]:
    """``(calls, seconds, sizes)`` of the spans called ``name``."""
    picked = [r for r in records if r[1] == name]
    return (
        len(picked),
        sum(r[3] - r[2] for r in picked),
        [r[7] for r in picked if r[7] is not None],
    )


def write_chrome_trace(path: Path, records, *, max_op: int) -> None:
    """Write the spans of ops ``<= max_op`` as Chrome-trace JSON (open in
    ``chrome://tracing`` or https://ui.perfetto.dev)."""
    kept = [r for r in records if r[5] <= max_op]
    if not kept:
        return
    origin = min(r[2] for r in kept)
    events = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 0,
            "tid": thread,
            "args": {"span": sid, "parent": parent, "op": op, "size": size},
        }
        for sid, name, start, end, parent, op, thread, size in kept
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}) + "\n")
