"""Tests of the benchmark itself.  Run with ``python -m pytest perf -q``;
the repo's tier-1 suite does not collect this directory."""

from __future__ import annotations

import cProfile
import json
import pstats
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_module_maps_to_one_layer():
    package = ROOT / "src" / "repro"
    modules = [p.relative_to(package).as_posix() for p in package.rglob("*.py")]
    assert len(modules) > 100
    unplaced = [m for m in modules if layers.layer_of(m) not in layers.LAYERS]
    assert not unplaced, f"perf/layers.py does not place {unplaced}"
    # The issue's map, spot-checked on the files it names.
    assert layers.layer_of("common/einsum_cache.py") == "models.attention"
    assert layers.layer_of("models/loss.py") == "models.layers"
    assert layers.layer_of("runtime/shuttle.py") == "runtime.executor"
    assert layers.layer_of("runtime/device.py") == "runtime.memory"
    assert layers.layer_of("faults/chaos.py") == "obs"
    assert layers.layer_of("runtime/brand_new.py") is None


def test_percentile_interpolates():
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile(range(11), 90) == 9
    assert stats.percentile([7], 99) == 7
    assert stats.spread([90, 100, 100, 110]) == pytest.approx(0.15)


def test_ttft_tpot_on_synthetic_ticks():
    # Four ticks of 10, 20, 30 and 40 ms: the clock reads 10/30/60/100.
    clock = [0.010, 0.030, 0.060, 0.100]
    # "a" is due before tick 1, emits its first token in tick 2 and its
    # third and last in tick 4; "b" is due after tick 2 (clock 0.030)
    # and emits its only token in tick 3.
    times = stats.request_times(
        clock, {"a": 0.0, "b": 0.030}, [("a", 2, 4, 3), ("b", 3, 3, 1)]
    )
    assert times["ttft"] == pytest.approx([30.0, 30.0])
    assert times["latency"] == pytest.approx([100.0, 30.0])
    assert times["tpot"] == pytest.approx([(100.0 - 30.0) / 2])
    # One gap per token after the first: ticks 3 and 4 for "a".
    assert times["gap"] == pytest.approx([30.0, 40.0])


def test_queue_depth_counts_requests_left_at_the_end_of_a_tick():
    log = [
        (0, "submit", "a"), (0, "submit", "b"), (0, "submit", "c"),
        (1, "admit", "a"), (1, "admit", "b"), (1, "submit", "d"),
        (2, "admit", "c"), (3, "admit", "d"),
    ]
    # End of tick 1: c waits.  End of tick 2: d waits.  Never two.
    assert workloads.queue_depth_peak(log) == 1
    assert workloads.queue_depth_peak([(0, "submit", "a"), (1, "admit", "a")]) == 0


def test_request_mix_is_seeded_and_its_multiset_is_not():
    spec = workloads.WORKLOADS["serve_longdoc"]
    one = workloads.make_requests(spec, 40, 1, 128)
    again = workloads.make_requests(spec, 40, 1, 128)
    other = workloads.make_requests(spec, 40, 2, 128)

    def pairs(mix):
        return Counter((r.prompt_len, r.max_new_tokens) for r in mix)

    assert [r.arrival_tick for r in one] == [r.arrival_tick for r in again]
    assert all((a.prompt == b.prompt).all() for a, b in zip(one, again))
    assert [r.prompt_len for r in one] != [r.prompt_len for r in other]
    assert pairs(one) == pairs(other)
    assert sorted(r.prompt_len for r in one)[20] == pytest.approx(1280, rel=0.05)
    assert min(r.prompt_len for r in one) >= 256
    assert max(r.prompt_len for r in one) <= 4096
    assert all(16 <= r.max_new_tokens <= 48 for r in one)
    arrivals = [r.arrival_tick for r in one]
    assert arrivals == sorted(arrivals)
    assert arrivals[-1] / 40 == pytest.approx(workloads.MEAN_GAP_TICKS, rel=0.1)


def test_fold_charges_foreign_time_to_the_calling_layer():
    mem = ("/x/src/repro/runtime/memory.py", 1, "alloc")
    att = ("/x/src/repro/models/attention.py", 1, "forward")
    einsum = ("~", 0, "<built-in einsum>")
    helper = ("/lib/numpy/core.py", 9, "helper")
    loop = ("/x/perf/workloads.py", 1, "window")
    profile_stats = {
        loop: (1, 1, 0.5, 10.0, {}),
        att: (2, 2, 1.0, 7.0, {loop: (2, 2, 1.0, 7.0)}),
        mem: (4, 4, 2.0, 2.5, {att: (4, 4, 2.0, 2.5)}),
        # helper is called from both layers; its einsum child's time
        # follows helper's caller edges (3:1 by cumulative time).
        helper: (2, 2, 0.0, 4.0, {att: (1, 1, 0.0, 3.0), mem: (1, 1, 0.0, 1.0)}),
        einsum: (3, 3, 6.0, 6.0, {
            helper: (2, 2, 4.0, 4.0), att: (1, 1, 2.0, 2.0),
        }),
    }
    seconds, calls = layers.fold_profile(profile_stats)
    assert seconds["models.attention"] == pytest.approx(1.0 + 2.0 + 3.0)
    assert seconds["runtime.memory"] == pytest.approx(2.0 + 1.0)
    assert seconds[layers.UNATTRIBUTED] == pytest.approx(0.5)
    assert sum(seconds.values()) == pytest.approx(9.5)
    assert calls["runtime.memory"] == 4 and calls["models.attention"] == 2


def test_fold_sums_to_the_traced_wall():
    from repro.runtime.executor import executor

    spec = workloads.WORKLOADS["train_fpdt_small"]
    workload = workloads.TrainWorkload(spec, seed=0, seconds=1.0)
    profile = cProfile.Profile()
    with executor(backend="serial"):
        workload.setup()
        window = workload.window(4, profile=profile)
    seconds, _ = layers.fold_profile(pstats.Stats(profile).stats)
    profile_total = sum(row[2] for row in pstats.Stats(profile).stats.values())
    assert sum(seconds.values()) == pytest.approx(profile_total, rel=1e-9)
    # cProfile leaves its own bookkeeping (2-3% of the wall here) charged
    # to no function, so the fold can only come that close to the wall.
    raw_wall_s = window.wall_s * window.host_speed
    assert sum(seconds.values()) == pytest.approx(raw_wall_s, rel=0.05)
    assert seconds[layers.UNATTRIBUTED] / profile_total < 0.02
    assert seconds["core"] > 0 and seconds["serving"] == 0


def test_verdicts():
    steady = [100, 101, 99, 100, 102]
    assert compare.verdict(steady, steady, better="lower", bound=0.1)[0] == "same"
    slower = [v * 1.2 for v in steady]
    assert compare.verdict(steady, slower, better="lower", bound=0.1)[0] == "worse"
    assert compare.verdict(steady, slower, better="higher", bound=0.1)[0] == "better"
    faster = [v * 0.9 for v in steady]
    assert compare.verdict(steady, faster, better="lower", bound=0.1)[0] == "better"
    # 3% better is inside a third of the bound: not claimed.
    slightly = [v * 0.97 for v in steady]
    assert compare.verdict(steady, slightly, better="lower", bound=0.1)[0] == "same"
    noisy = [70, 100, 100, 130, 160]
    assert compare.verdict(noisy, slower, better="lower", bound=0.1)[0] == "unresolved"
    word, ratio = compare.verdict([200.0], [100.0], better="lower", bound=0.25)
    assert (word, ratio) == ("better", 0.5)
    runs = [{"metrics": {"b": {"value": 3}}}, {"metrics": {"a": {"value": 1}}}]
    assert compare.values(runs, "b") == [3]


def _printed_names(*flags) -> tuple[set, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *flags,
         "--out", str(HERE / "out" / "test-quick.json")],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    elapsed = time.perf_counter() - start
    names = set()
    workloads_seen = set()
    for line in done.stdout.splitlines():
        workload, metric, value, _unit, n = line.split()
        float(value), int(n)
        names.add(metric)
        workloads_seen.add(workload)
    assert workloads_seen == {w["name"] for w in DECLARED["workloads"]}
    return names, elapsed


def test_quick_run_prints_exactly_the_declared_end_to_end_metrics():
    names, elapsed = _printed_names()
    assert names == {m["name"] for m in DECLARED["end_to_end"]}
    # Under 30 s on a quiet 2-core host; the sandbox can be 1.7x slower.
    assert elapsed < 60


def test_quick_traced_run_prints_exactly_the_declared_per_layer_metrics():
    names, _ = _printed_names("--trace")
    assert names == {m["name"] for m in DECLARED["per_layer"]}
