"""Shared result container and ASCII rendering for experiments."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class ExperimentResult:
    """A table/figure reproduction: header, rows, and free-form notes.

    ``rows`` are lists of strings already formatted for display; the
    underlying numeric data lives in ``data`` for programmatic checks
    (benchmarks assert on it).
    """

    experiment: str
    title: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add_row(self, *cells: object) -> None:
        row = [str(c) for c in cells]
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)


def render(result: ExperimentResult) -> str:
    """Plain-text table, paper-style."""
    widths = [len(c) for c in result.columns]
    for row in result.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: list[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    sep = "-+-".join("-" * w for w in widths)
    lines = [
        f"== {result.experiment}: {result.title} ==",
        fmt(result.columns),
        sep,
    ]
    lines.extend(fmt(row) for row in result.rows)
    for note in result.notes:
        lines.append(f"  note: {note}")
    profile = result.data.get("profile")
    if profile:
        lines.extend(_render_profile(profile))
    return "\n".join(lines)


def _render_profile(profile: dict) -> list[str]:
    """The simulated-time overlap/MFU section (``run(profile=True)``)."""
    lines = ["", "-- simulated-time profile --"]
    rows = [profile["overall"]] + [
        p for p in profile.get("phases", []) if p["phase"]
    ]
    for row in rows:
        name = row["phase"] or "overall"
        lines.append(
            f"  {name:<10s} span {row['span'] * 1e3:8.3f} ms | "
            f"compute {row['compute_time'] * 1e3:8.3f} ms | "
            f"comm {row['comm_time'] * 1e3:8.3f} ms "
            f"(exposed {row['exposed_comm'] * 1e3:8.3f} ms, "
            f"h2d {row['exposed_h2d'] * 1e3:8.3f} ms) | "
            f"overlap {row['overlap_efficiency']:6.1%} | "
            f"MFU {row['mfu']:.2%}"
        )
    return lines


def save_json(result: ExperimentResult, directory: str | Path = "results") -> Path:
    """Persist the result (rows + underlying data) as JSON for external
    plotting; returns the written path.  Non-JSON-native values (numpy
    scalars/arrays, tuple keys) are converted conservatively."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    slug = result.experiment.lower().replace(" ", "").replace("-", "_")
    path = directory / f"{slug}.json"
    payload = {
        "experiment": result.experiment,
        "title": result.title,
        "columns": result.columns,
        "rows": result.rows,
        "notes": result.notes,
        "data": _jsonable(result.data),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def _jsonable(value):
    """Best-effort conversion to JSON-encodable structures."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def print_result(result: ExperimentResult) -> None:  # pragma: no cover - CLI
    """Render to stdout (the ``python -m repro.experiments.X`` path)."""
    print(render(result))
