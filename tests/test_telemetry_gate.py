"""The metrics regression gate and the ``repro metrics`` CLI.

The acceptance contract: identical-seed reruns diff clean (exit 0);
drift in a gated metric — final loss, peak HBM bytes, collective wire
bytes, simulated MFU, the health-alert count — beyond its relative
tolerance exits non-zero.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.telemetry import (
    DEFAULT_TOLERANCES,
    diff_metrics,
    diff_paths,
    format_diffs,
    load_metrics,
    StepRecord,
    read_run_log,
    telemetry_train_run,
)
from repro.telemetry.gate import parse_tolerance_args


@pytest.fixture(scope="module")
def run_logs(tmp_path_factory):
    """Two identical-seed telemetry runs, written as JSONL run logs."""
    root = tmp_path_factory.mktemp("runlogs")
    a, b = root / "a.jsonl", root / "b.jsonl"
    telemetry_train_run(steps=6, run_log_path=a)
    telemetry_train_run(steps=6, run_log_path=b)
    return a, b


def _perturb_summary(src, dst, **overrides):
    """Copy a run log, rewriting fields of its run_summary record."""
    lines = []
    for line in src.read_text().splitlines():
        record = json.loads(line)
        if record.get("record") == "run_summary":
            record.update(overrides)
        lines.append(json.dumps(record))
    dst.write_text("\n".join(lines) + "\n")
    return dst


class TestDiffMetrics:
    def test_identical_sets_pass(self):
        metrics = {"final_loss": 3.0, "peak_hbm_bytes": 1024.0}
        diffs = diff_metrics(metrics, dict(metrics))
        assert not any(d.regressed for d in diffs)
        assert all(d.gated for d in diffs)

    def test_drift_beyond_tolerance_regresses(self):
        diffs = diff_metrics({"final_loss": 3.0}, {"final_loss": 3.5})
        [d] = diffs
        assert d.regressed and d.rel_diff == pytest.approx(0.5 / 3.0)

    def test_drift_within_tolerance_passes(self):
        loss = 3.0 * (1 + 0.5 * DEFAULT_TOLERANCES["final_loss"])
        [d] = diff_metrics({"final_loss": 3.0}, {"final_loss": loss})
        assert d.gated and not d.regressed

    def test_byte_metrics_gate_exactly(self):
        [d] = diff_metrics({"peak_hbm_bytes": 1 << 20},
                           {"peak_hbm_bytes": (1 << 20) + 512})
        assert d.regressed

    def test_gated_metric_missing_from_candidate_regresses(self):
        [d] = diff_metrics({"sim_mfu": 0.4}, {})
        assert d.regressed and d.rel_diff == float("inf")

    def test_baseline_missing_metric_is_report_only(self):
        """New metrics appearing in the candidate must not fail the
        gate — only metrics the baseline vouches for can regress."""
        [d] = diff_metrics({}, {"sim_mfu": 0.4})
        assert not d.gated and not d.regressed

    def test_ungated_metrics_report_only(self):
        [d] = diff_metrics({"wall_time_s": 1.0}, {"wall_time_s": 99.0})
        assert not d.gated and not d.regressed

    def test_default_tol_gates_everything(self):
        [d] = diff_metrics({"wall_time_s": 1.0}, {"wall_time_s": 99.0},
                           default_tol=0.1)
        assert d.gated and d.regressed

    def test_explicit_tolerance_override(self):
        [d] = diff_metrics({"final_loss": 3.0}, {"final_loss": 4.0},
                           tolerances={"final_loss": 0.5})
        assert not d.regressed

    def test_zero_baseline_uses_rel_floor(self):
        [d] = diff_metrics({"final_loss": 0.0}, {"final_loss": 1e-6})
        assert d.regressed  # any move off an exact zero is huge

    def test_format_diffs_marks_status(self):
        text = format_diffs(diff_metrics(
            {"final_loss": 3.0, "wall_time_s": 1.0},
            {"final_loss": 9.0, "wall_time_s": 2.0},
        ))
        assert "REGRESSED" in text
        assert "wall_time_s" in text

    def test_parse_tolerance_args(self):
        assert parse_tolerance_args(["a=0.1", "b=1e-3"]) == {"a": 0.1, "b": 1e-3}
        with pytest.raises(ValueError, match="METRIC=REL"):
            parse_tolerance_args(["final_loss"])


class TestLoadMetrics:
    def test_run_log_yields_summary_numbers(self, run_logs):
        a, _ = run_logs
        metrics = load_metrics(a)
        for name in DEFAULT_TOLERANCES:
            assert name in metrics, name
        assert metrics["steps"] == 6

    def test_run_log_without_summary_rejected(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text(json.dumps({"record": "step", "loss": 1.0}) + "\n")
        with pytest.raises(ValueError, match="no run_summary"):
            load_metrics(path)


class TestMetricsCLI:
    def test_identical_seed_rerun_diffs_clean(self, run_logs, capsys):
        """The CI contract: rerunning the same seeded config produces
        identical gated metrics, so the diff exits 0."""
        a, b = run_logs
        assert main(["metrics", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "gated metric(s) ok" in out
        for name in DEFAULT_TOLERANCES:
            assert name in out

    def test_final_loss_drift_fails_gate(self, run_logs, tmp_path, capsys):
        a, _ = run_logs
        baseline = load_metrics(a)
        bad = _perturb_summary(a, tmp_path / "loss.jsonl",
                               final_loss=baseline["final_loss"] * 1.5)
        assert main(["metrics", "diff", str(a), str(bad)]) == 1
        assert "final_loss" in capsys.readouterr().err

    def test_peak_hbm_drift_fails_gate(self, run_logs, tmp_path, capsys):
        a, _ = run_logs
        baseline = load_metrics(a)
        bad = _perturb_summary(a, tmp_path / "hbm.jsonl",
                               peak_hbm_bytes=baseline["peak_hbm_bytes"] + 4096)
        assert main(["metrics", "diff", str(a), str(bad)]) == 1
        assert "peak_hbm_bytes" in capsys.readouterr().err

    def test_collective_bytes_drift_fails_gate(self, run_logs, tmp_path):
        a, _ = run_logs
        baseline = load_metrics(a)
        bad = _perturb_summary(
            a, tmp_path / "coll.jsonl",
            total_collective_bytes=baseline["total_collective_bytes"] * 2,
        )
        assert main(["metrics", "diff", str(a), str(bad)]) == 1

    def test_sim_mfu_drift_fails_gate(self, run_logs, tmp_path):
        a, _ = run_logs
        baseline = load_metrics(a)
        bad = _perturb_summary(a, tmp_path / "mfu.jsonl",
                               sim_mfu=baseline["sim_mfu"] * 1.1)
        assert main(["metrics", "diff", str(a), str(bad)]) == 1

    def test_alert_count_drift_fails_gate(self, run_logs, tmp_path, capsys):
        """A monitor firing on the canonical run fails the gate."""
        a, _ = run_logs
        assert load_metrics(a)["alerts"] == 0
        bad = _perturb_summary(a, tmp_path / "alerts.jsonl", alerts=1)
        assert main(["metrics", "diff", str(a), str(bad)]) == 1
        assert "alerts" in capsys.readouterr().err

    def test_tol_override_rescues_drift(self, run_logs, tmp_path):
        a, _ = run_logs
        baseline = load_metrics(a)
        bad = _perturb_summary(a, tmp_path / "ok.jsonl",
                               final_loss=baseline["final_loss"] * 1.1)
        assert main(["metrics", "diff", str(a), str(bad)]) == 1
        assert main(["metrics", "diff", str(a), str(bad),
                     "--tol", "final_loss=0.5"]) == 0

    def test_bad_tol_syntax_exits_2(self, run_logs, capsys):
        a, b = run_logs
        assert main(["metrics", "diff", str(a), str(b), "--tol", "oops"]) == 2
        assert "METRIC=REL" in capsys.readouterr().err

    def test_non_run_log_input_exits_2(self, run_logs, tmp_path, capsys):
        """Only run logs are read: an experiment's results JSON is
        rejected with a message, not a traceback."""
        a, _ = run_logs
        doc = tmp_path / "table1.json"
        doc.write_text(json.dumps({"data": {"final_loss": 3.0}}, indent=1))
        assert main(["metrics", "diff", str(a), str(doc)]) == 2
        assert "not a complete JSONL run log" in capsys.readouterr().err

    def test_summary_renders_run_log(self, run_logs, capsys):
        a, _ = run_logs
        assert main(["metrics", "summary", str(a)]) == 0
        out = capsys.readouterr().out
        assert "6 steps" in out
        assert "peak HBM" in out and "simulated MFU" in out
        assert "health alerts   0" in out

    def test_summary_empty_log_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["metrics", "summary", str(path)]) == 1
        assert "no step records" in capsys.readouterr().err


class TestRunLogContents:
    def test_run_log_records_are_complete(self, run_logs):
        a, _ = run_logs
        log = read_run_log(a)
        assert len(log.steps) == 6
        first = log.steps[0]
        assert first["loss"] > 0 and first["grad_norm"] > 0
        assert len(first["hbm_live_bytes"]) == 2  # one per rank
        assert first["collective_bytes"] > 0
        assert first["h2d_bytes"] > 0 and first["d2h_bytes"] > 0
        assert set(first) == {"record"} | {
            f.name for f in dataclasses.fields(StepRecord)
        }
        assert log.summary["sim_mfu"] > 0
        assert log.summary["tokens_per_sec"] > 0
        assert log.summary["alerts"] == 0

    def test_identical_seed_runs_match_on_monitored_metrics(self, run_logs):
        a, b = run_logs
        ma, mb = load_metrics(a), load_metrics(b)
        for name in DEFAULT_TOLERANCES:
            assert ma[name] == mb[name], name
