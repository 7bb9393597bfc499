"""Meta-tests over the experiment harness: every registered experiment
runs in fast mode, renders, and carries data for its benchmark."""

import pytest

from repro.experiments import render
from repro.experiments.registry import EXPERIMENT_NAMES, get_experiment
from repro.experiments.report import ExperimentResult


class TestRegistry:
    def test_all_names_resolve(self):
        for name in EXPERIMENT_NAMES:
            assert callable(get_experiment(name))

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_experiment("figure99")

    def test_registry_matches_cli(self):
        from repro.cli import EXPERIMENTS

        assert set(EXPERIMENTS) == set(EXPERIMENT_NAMES)


# figure14 trains a model even in fast mode; it has its own tests.
FAST_RUNNABLE = [n for n in EXPERIMENT_NAMES if n != "figure14"]


@pytest.mark.parametrize("name", FAST_RUNNABLE)
def test_experiment_runs_fast_and_renders(name):
    result = get_experiment(name)(fast=True)
    assert isinstance(result, ExperimentResult)
    assert result.rows, name
    assert result.data, name
    text = render(result)
    assert result.experiment in text
    # Every row has the declared number of columns (render would skew).
    for row in result.rows:
        assert len(row) == len(result.columns)


class TestReportRendering:
    def test_row_width_validation(self):
        result = ExperimentResult("X", "t", columns=["a", "b"])
        with pytest.raises(ValueError):
            result.add_row("only-one")

    def test_notes_rendered(self):
        result = ExperimentResult("X", "t", columns=["a"])
        result.add_row("1")
        result.note("hello note")
        assert "hello note" in render(result)
