"""``repro bench``: the case list, the committed baselines and the gate."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import BENCH_CASES, diff_results, load_results, save_results
from repro.bench.runner import SCHEMA_VERSION

RESULTS = Path(__file__).resolve().parent.parent / "results"
BASELINES = ["BENCH_kernels_baseline.json", "BENCH_kernels_baseline_quick.json"]


def _doc(mode: str = "quick", **seconds: float) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "results": {
            name: {"group": "attention", "seconds": s, "repeats": 1}
            for name, s in seconds.items()
        },
    }


@pytest.mark.parametrize("baseline", BASELINES)
def test_cases_match_committed_baseline(baseline):
    """Adding or removing a case means re-committing both baselines."""
    names = [c.name for c in BENCH_CASES]
    doc = load_results(RESULTS / baseline)
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(doc["results"])


@pytest.mark.parametrize("case", BENCH_CASES, ids=lambda c: c.name)
def test_case_runs_in_quick_mode(case):
    case.build(True)()


class TestGate:
    def test_regressed_only_above_baseline_times_tol(self):
        base = _doc(a=1.0, b=1.0, c=1.0)
        current = _doc(a=2.0, b=2.0 + 1e-9, c=0.5)
        diffs = {d.name: d for d in diff_results(base, current, tol=2.0)}
        assert not diffs["a"].regressed
        assert diffs["b"].regressed
        assert not diffs["c"].regressed
        assert diffs["c"].speedup == 2.0

    def test_case_missing_from_baseline_is_report_only(self):
        (d,) = diff_results(_doc(), _doc(new=100.0), tol=1.0)
        assert d.baseline is None
        assert d.speedup is None
        assert not d.regressed

    def test_mode_mismatch_raises(self):
        with pytest.raises(ValueError, match="mode mismatch"):
            diff_results(_doc("full", a=1.0), _doc("quick", a=1.0))

    def test_wrong_schema_raises(self, tmp_path):
        path = save_results({**_doc(a=1.0), "schema": SCHEMA_VERSION + 1},
                            tmp_path / "bench.json")
        with pytest.raises(ValueError, match="schema"):
            load_results(path)
