"""The committed ``results/*.json`` are what the code produces now.

Each experiment is rerun as ``python -m repro experiment <name> --json
results`` (``make experiments``) writes it and compared with the
committed file byte for byte, so a change that moves a figure has to
regenerate it.  Under ``REPRO_EXECUTOR=threads:4`` every section runs
on the pool (``tests/conftest.py``), so the ``figure13`` case also
checks that the pool reproduces the serial Fig. 13 timeline, and the
``figure14`` case that four trainers reproduce their loss curves.
"""

from __future__ import annotations

from pathlib import Path

import pytest

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
