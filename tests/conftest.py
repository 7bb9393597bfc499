"""Suite-wide fixtures."""

from __future__ import annotations

import os

import pytest

import repro.runtime.executor as executor_module


@pytest.fixture
def every_section_threaded(monkeypatch):
    """Drop the per-rank FLOP threshold so a threaded executor sends every
    section to its pool.  Test shapes sit far below
    ``PARALLEL_MIN_FLOPS``; without this the threads backend would run
    them all as the plain loop and the fork-join path would go untested."""
    monkeypatch.setattr(executor_module, "PARALLEL_MIN_FLOPS", 0.0)


@pytest.fixture(autouse=True)
def _threaded_suite(request):
    """Under ``REPRO_EXECUTOR=threads[:N]`` (or ``N``) the whole suite runs
    every section on the pool, so that run checks the fork-join path
    against the serial run's expectations everywhere."""
    if os.environ.get("REPRO_EXECUTOR", "").strip().lower() not in ("", "serial"):
        request.getfixturevalue("every_section_threaded")
