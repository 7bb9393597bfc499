"""Telemetry sinks: where run records land.

Every sink consumes flat-ish dict *records* (the ``step`` / ``alert`` /
``run_summary`` rows of :class:`~repro.telemetry.runlog.RunLogger`, the
only emitter) via ``emit`` and releases resources on ``close``.  The
formats:

* :class:`JSONLSink` — one JSON object per line, flushed per record, so
  a crashed run still leaves a readable log (the CI gate diffs these);
* :class:`CSVSink` — flattened columns for spreadsheet people;
* :class:`PrometheusTextSink` — ignores the record and rewrites a
  ``.prom`` text-exposition file from a bound
  :class:`~repro.telemetry.metrics.MetricsRegistry` on every emit
  (node-exporter textfile-collector style);
* :class:`MemorySink` — in-process list, for tests and experiments.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry


class Sink:
    """Base sink: ``emit`` consumes one record dict, ``close`` ends the
    stream.  Both default to no-ops so subclasses override only what
    they need."""

    def emit(self, record: dict) -> None:
        """Consume one record."""

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class MemorySink(Sink):
    """Keep records in a list (tests, experiment attachments)."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.closed = False

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


class JSONLSink(Sink):
    """One JSON object per line, flushed after every record."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "w")

    def emit(self, record: dict) -> None:
        if self._file.closed:
            raise ValueError(f"JSONL sink {self.path} already closed")
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class CSVSink(Sink):
    """Flattened CSV: nested dicts become dotted columns, lists become
    ``name[i]`` columns.  The header is fixed by the first record;
    later records drop unknown keys and blank missing ones."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "w", newline="")
        self._writer: csv.DictWriter | None = None

    def emit(self, record: dict) -> None:
        if self._file.closed:
            raise ValueError(f"CSV sink {self.path} already closed")
        flat = flatten_record(record)
        if self._writer is None:
            self._writer = csv.DictWriter(
                self._file, fieldnames=list(flat), extrasaction="ignore",
                restval="",
            )
            self._writer.writeheader()
        self._writer.writerow(flat)
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class PrometheusTextSink(Sink):
    """Rewrite a Prometheus text-exposition file from ``registry`` on
    every emit — the freshest state wins, which is exactly the textfile
    collector contract."""

    def __init__(self, path: str | Path, registry: MetricsRegistry):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.registry = registry

    def emit(self, record: dict) -> None:
        self.path.write_text(self.registry.prometheus_text())

    def close(self) -> None:
        self.emit({})


def flatten_record(record: dict, prefix: str = "") -> dict[str, object]:
    """Flatten nested dicts to dotted keys and lists to ``name[i]``
    scalar columns (CSV needs scalars)."""
    flat: dict[str, object] = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_record(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    flat.update(flatten_record(item, prefix=f"{name}[{i}]."))
                else:
                    flat[f"{name}[{i}]"] = item
        else:
            flat[name] = value
    return flat
