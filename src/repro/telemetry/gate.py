"""Metrics regression gate: diff two runs, fail on drift.

``repro metrics diff A B`` loads the numeric fields of the
``run_summary`` record of each JSONL run log and compares them under
per-metric *relative* tolerances.  Metrics in
:data:`DEFAULT_TOLERANCES` (the paper's headline quantities: final
loss, peak HBM bytes, collective wire bytes, simulated MFU — plus the
health-alert count) are gated by default; everything else is
report-only unless a ``default_tol`` is supplied.  CI runs this against
a committed golden run log, so a perf or memory regression, or a
monitor firing on the canonical run, fails the build instead of
silently eroding the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.runlog import read_run_log

#: Gated metrics and their default relative tolerances.  Byte counts
#: are shape-determined and must match exactly (tiny epsilon only for
#: float round-tripping); loss and MFU get room for cross-platform
#: floating-point drift.  ``alerts`` must stay at the baseline's count:
#: a monitor that fires on the canonical run is a regression, not a
#: report line.
DEFAULT_TOLERANCES: dict[str, float] = {
    "final_loss": 0.02,
    "peak_hbm_bytes": 1e-9,
    "total_collective_bytes": 1e-9,
    "sim_mfu": 0.02,
    "alerts": 0.0,
}

#: Relative difference floor: |b - a| / max(|a|, REL_FLOOR).
REL_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricDiff:
    """One metric compared across baseline and candidate."""

    name: str
    baseline: float | None
    candidate: float | None
    rel_diff: float
    tolerance: float | None  # None = report-only

    @property
    def gated(self) -> bool:
        """Whether this metric participates in the exit code."""
        return self.tolerance is not None

    @property
    def regressed(self) -> bool:
        """Gated and outside tolerance (or gated but missing a side)."""
        if not self.gated:
            return False
        if self.baseline is None or self.candidate is None:
            return True
        return self.rel_diff > self.tolerance


def load_metrics(path: str | Path) -> dict[str, float]:
    """The numeric ``run_summary`` fields of the JSONL run log at
    ``path``."""
    log = read_run_log(path)
    if log.summary is None:
        raise ValueError(f"{path}: no run_summary record (incomplete run log?)")
    return {
        k: float(v) for k, v in log.summary.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def diff_metrics(
    baseline: dict[str, float],
    candidate: dict[str, float],
    *,
    tolerances: dict[str, float] | None = None,
    default_tol: float | None = None,
) -> list[MetricDiff]:
    """Compare two metric sets; returns one :class:`MetricDiff` per
    metric present on either side.

    ``tolerances`` overrides/extends :data:`DEFAULT_TOLERANCES`;
    ``default_tol`` gates *every* shared metric that has no explicit
    tolerance (None leaves them report-only).  A gated metric present
    in the baseline but missing from the candidate is a regression —
    metrics must not silently disappear.
    """
    tol_map = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol_map.update(tolerances)
    diffs = []
    for name in sorted(set(baseline) | set(candidate)):
        base = baseline.get(name)
        cand = candidate.get(name)
        if base is None or cand is None:
            rel = float("inf")
        else:
            rel = abs(cand - base) / max(abs(base), REL_FLOOR)
        tol = tol_map.get(name, default_tol)
        if tol is not None and base is None:
            tol = None  # only baseline-present metrics can regress
        diffs.append(MetricDiff(name, base, cand, rel, tol))
    return diffs


def diff_paths(
    baseline_path: str | Path,
    candidate_path: str | Path,
    *,
    tolerances: dict[str, float] | None = None,
    default_tol: float | None = None,
) -> list[MetricDiff]:
    """Load both sides and :func:`diff_metrics` them."""
    return diff_metrics(
        load_metrics(baseline_path),
        load_metrics(candidate_path),
        tolerances=tolerances,
        default_tol=default_tol,
    )


def format_diffs(diffs: list[MetricDiff]) -> str:
    """Human-readable diff table; regressions are marked ``REGRESSED``,
    gated-and-passing metrics ``ok``, the rest ``-`` (report-only)."""
    lines = [f"{'metric':<28s} {'baseline':>14s} {'candidate':>14s} "
             f"{'rel diff':>10s} {'tol':>8s}  status"]
    for d in diffs:
        base = "missing" if d.baseline is None else f"{d.baseline:.6g}"
        cand = "missing" if d.candidate is None else f"{d.candidate:.6g}"
        rel = "inf" if d.rel_diff == float("inf") else f"{d.rel_diff:.2e}"
        tol = "-" if d.tolerance is None else f"{d.tolerance:.0e}"
        status = "REGRESSED" if d.regressed else ("ok" if d.gated else "-")
        lines.append(f"{d.name:<28s} {base:>14s} {cand:>14s} "
                     f"{rel:>10s} {tol:>8s}  {status}")
    return "\n".join(lines)


def parse_tolerance_args(pairs: list[str]) -> dict[str, float]:
    """Parse ``METRIC=REL`` CLI override strings."""
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"expected METRIC=REL, got {pair!r}")
        out[name] = float(value)
    return out
