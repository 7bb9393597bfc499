"""The committed ``results/*`` files are what the code produces now.

Each experiment is rerun as ``python -m repro experiment <name> --json
results`` (``make experiments``) writes it and compared with the
committed file byte for byte, so a change that moves a figure has to
regenerate it.  Under ``REPRO_EXECUTOR=threads:4`` every section runs
on the pool (``tests/conftest.py``), so the ``figure13`` case also
checks that the pool reproduces the serial Fig. 13 timeline, and the
``figure14`` case that four trainers reproduce their loss curves.

``results/golden_runlog.jsonl`` is the canonical ``python -m repro
train --steps 8 --run-log`` run that CI's metrics gate diffs against;
it is compared record by record, field by field, except for the
wall-clock and host-executor fields.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.registry import EXPERIMENT_NAMES, run_experiment
from repro.experiments.report import save_json

RESULTS = Path(__file__).resolve().parents[1] / "results"


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_committed_result_is_current(name, tmp_path):
    path = save_json(run_experiment(name, fast=False), tmp_path)
    assert path.read_text() == (RESULTS / path.name).read_text(), (
        f"results/{path.name} is stale: regenerate it with "
        f"`python -m repro experiment {name} --json results`"
    )


#: Run-log fields that depend on the host, not on the code: wall time,
#: and the executor the run happened to get (``executor_*``).
def _host_field(key: str) -> bool:
    return key == "wall_time_s" or key.startswith("executor_")


def _assert_same(fresh, golden, where: str) -> None:
    """Integers, strings, booleans and ``None`` exactly; floats within
    1e-9 relative; dicts by key set; lists element by element."""
    if isinstance(golden, dict):
        assert isinstance(fresh, dict) and set(fresh) == set(golden), where
        for key in golden:
            if not _host_field(key):
                _assert_same(fresh[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert isinstance(fresh, list) and len(fresh) == len(golden), where
        for i, (a, b) in enumerate(zip(fresh, golden)):
            _assert_same(a, b, f"{where}[{i}]")
    elif isinstance(golden, float) or isinstance(fresh, float):
        assert math.isclose(fresh, golden, rel_tol=1e-9, abs_tol=0.0), (
            f"{where}: {fresh!r} != {golden!r}"
        )
    else:
        assert type(fresh) is type(golden) and fresh == golden, (
            f"{where}: {fresh!r} != {golden!r}"
        )


def test_golden_run_log_is_current(tmp_path):
    path = tmp_path / "runlog.jsonl"
    assert main(["train", "--steps", "8", "--run-log", str(path)]) == 0
    fresh = [json.loads(line) for line in path.read_text().splitlines()]
    golden = [
        json.loads(line)
        for line in (RESULTS / "golden_runlog.jsonl").read_text().splitlines()
    ]
    assert [r["record"] for r in fresh] == [r["record"] for r in golden], (
        "results/golden_runlog.jsonl is stale: regenerate it with "
        "`python -m repro train --steps 8 --run-log results/golden_runlog.jsonl`"
    )
    for i, (a, b) in enumerate(zip(fresh, golden)):
        _assert_same(a, b, f"record {i} ({b['record']})")
