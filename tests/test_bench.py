"""``repro bench``: every case runs."""

from __future__ import annotations

import pytest

from repro.bench import BENCH_CASES


@pytest.mark.parametrize("case", BENCH_CASES, ids=lambda c: c.name)
def test_case_runs_in_quick_mode(case):
    case.build(True)()
