"""Experiment registry: name -> run callable.

One authoritative list of every regenerable table/figure/study, shared
by the CLI and by the meta-test that keeps them all importable and
runnable in fast mode.
"""

from __future__ import annotations

import importlib
from typing import Callable

from repro.experiments.report import ExperimentResult

EXPERIMENT_NAMES: tuple[str, ...] = (
    "table1",
    "table2",
    "table3",
    "figure1",
    "figure8_9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "scaling_study",
    "hardware_sensitivity",
)


def get_experiment(name: str) -> Callable[..., ExperimentResult]:
    """The ``run`` callable of experiment ``name``; KeyError if unknown."""
    if name not in EXPERIMENT_NAMES:
        raise KeyError(f"unknown experiment {name!r}; known: {EXPERIMENT_NAMES}")
    module = importlib.import_module(f"repro.experiments.{name}")
    return module.run


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Validate ``name`` against the registry and run it.

    The one entry point the CLI (and scripts) should use: unknown names
    raise ``KeyError`` listing the registry instead of surfacing a raw
    ``ModuleNotFoundError`` from a failed import.  ``kwargs`` pass
    through to the experiment's ``run`` (``fast=``, and ``profile=``
    where supported).
    """
    return get_experiment(name)(**kwargs)
