#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python perf/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json
    python perf/compare.py A1.json A2.json A3.json --write median.json

Each file is a result ``perf/run.py`` wrote (untraced, traced or both
kinds mixed).  With two sets, prints one row per workload and end-to-end
metric -- median and quartiles of each side, the ratio with its base, and
a verdict -- then the per-layer metrics that moved, and exits non-zero on
``worse`` or on a higher share of failed operations.  With one set, prints
its medians and quartiles; ``--write`` saves them as one result file.

Verdicts, with the bound ``BENCHMARK.json`` fixes for the metric:

``unresolved``  the spread between one side's own runs (the distance
                between its quartiles as a share of its median) exceeds
                the bound, so the runs cannot resolve a change that size
``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than A's own spread
                and more than a third of the bound
``same``        anything else
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import stats

DECLARED = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)
#: A per-layer metric is listed as moved when its medians differ by more
#: than this share; the list is report-only.
MOVED = 0.10


def load(paths) -> dict:
    """``{trace: {workload: [result, ...]}}`` plus the documents."""
    docs = [json.loads(Path(p).read_text()) for p in paths]
    runs: dict = {0: {}, 1: {}}
    for doc in docs:
        for name, result in doc["workloads"].items():
            runs[doc["trace"]].setdefault(name, []).append(
                {**result, "seed": doc["seed"], "seconds": doc["seconds"]}
            )
    return {"docs": docs, "runs": runs}


def values(results, metric) -> list[float]:
    return [
        r["metrics"][metric]["value"] for r in results if metric in r["metrics"]
    ]


def verdict(a, b, *, better: str, bound: float) -> tuple[str, float]:
    """Verdict for B against A and B's median as a share of A's."""
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    ratio = mid_b / mid_a if mid_a else float("inf")
    worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if max(stats.spread(a), stats.spread(b)) > bound:
        return "unresolved", ratio
    if worsening > bound:
        return "worse", ratio
    if -worsening > max(stats.spread(a), bound / 3):
        return "better", ratio
    return "same", ratio


def _quartile_text(vals) -> str:
    q1, q2, q3 = stats.quartiles(vals)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def _failed_share(results) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def _digests(results) -> set:
    return {(r["seed"], r["seconds"], r["sim_digest"]) for r in results}


def summarize(side: dict) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for name, results in side["runs"][trace].items():
            for m in DECLARED[kind]:
                vals = values(results, m["name"])
                if vals:
                    print(name, m["name"], _quartile_text(vals), m["unit"],
                          f"runs={len(vals)}")


def write_median(side: dict, path: Path) -> None:
    """One file holding each metric's median over the set: the receipt
    ``results/baseline-*.json`` is."""
    first = side["docs"][0]
    out = {key: first[key] for key in ("schema", "host", "seed", "seconds")}
    out["median_of"] = {"end_to_end": 0, "traced": 0}
    out["workloads"] = {}
    for trace, kind in ((0, "end_to_end"), (1, "traced")):
        for name, results in side["runs"][trace].items():
            out["median_of"][kind] = len(results)
            merged = out["workloads"].setdefault(
                name, {"executor": results[0]["executor"], "metrics": {}})
            merged[f"{kind}_digests"] = sorted(
                {r["sim_digest"] for r in results})
            for metric, entry in results[0]["metrics"].items():
                merged["metrics"][metric] = {
                    "value": statistics.median(values(results, metric)),
                    "unit": entry["unit"],
                }
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def compare_end_to_end(name: str, res_a: list, res_b: list) -> int:
    """Print one workload's end-to-end rows; returns how many are bad."""
    bad = 0
    for m in DECLARED["end_to_end"]:
        va, vb = values(res_a, m["name"]), values(res_b, m["name"])
        if not va or not vb:
            continue
        word, ratio = verdict(va, vb, better=m["better"], bound=m["bound"])
        bad += word == "worse"
        print(
            f"{name:17s} {m['name']:20s} A {_quartile_text(va):32s} "
            f"B {_quartile_text(vb):32s} {m['unit']:9s} "
            f"{ratio:.3f}x of {statistics.median(va):.5g}  {word}"
        )
    fa, fb = _failed_share(res_a), _failed_share(res_b)
    bad += fb > fa
    print(f"{name:17s} failed_share         A {fa:.4g}  B {fb:.4g}"
          + ("  worse" if fb > fa else ""))
    same_inputs = {d[:2] for d in _digests(res_a)} & {
        d[:2] for d in _digests(res_b)}
    if same_inputs and not _digests(res_a) & _digests(res_b):
        print(f"{name:17s} sim_digest differs: arithmetic or accounting "
              "changed")
    return bad


def print_moved_layers(name: str, res_a: list, res_b: list) -> None:
    """List the per-layer metrics whose medians moved, largest first."""
    moved = []
    for m in DECLARED["per_layer"]:
        va, vb = values(res_a, m["name"]), values(res_b, m["name"])
        if not va or not vb:
            continue
        mid_a, mid_b = statistics.median(va), statistics.median(vb)
        if mid_a == mid_b:
            continue
        ratio = mid_b / mid_a if mid_a else float("inf")
        if abs(ratio - 1.0) > MOVED:
            moved.append((abs(ratio - 1.0), m, mid_a, mid_b, ratio))
    for _, m, mid_a, mid_b, ratio in sorted(moved, key=lambda row: -row[0]):
        print(f"{name:17s} moved {m['name']:42s} A {mid_a:.5g}  "
              f"B {mid_b:.5g} {m['unit']}  {ratio:.3f}x of {mid_a:.5g}")


def compare(a: dict, b: dict) -> int:
    bad = 0
    for name, res_a in a["runs"][0].items():
        if name in b["runs"][0]:
            bad += compare_end_to_end(name, res_a, b["runs"][0][name])
    for name, res_a in a["runs"][1].items():
        if name in b["runs"][1]:
            print_moved_layers(name, res_a, b["runs"][1][name])
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    write = None
    if "--write" in argv:
        at = argv.index("--write")
        write = Path(argv[at + 1])
        argv = argv[:at] + argv[at + 2:]
    if "--" in argv:
        at = argv.index("--")
        a, b = load(argv[:at]), load(argv[at + 1:])
        return compare(a, b)
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    side = load(argv)
    summarize(side)
    if write is not None:
        write_median(side, write)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
