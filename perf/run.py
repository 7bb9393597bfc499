#!/usr/bin/env python3
"""Whole-step and whole-request wall-clock benchmark.

    python perf/run.py                       # all five workloads, end to end
    python perf/run.py --trace               # the traced run: per-layer numbers
    python perf/run.py --workload serve_chat --seed 3 --seconds 10 --trace 0

Every workload runs in a child process of its own, with the repo's
out-of-the-box configuration: ``REPRO_EXECUTOR`` is removed from the
environment, and no telemetry or span tracing is attached.  The untraced
run prints the end-to-end metrics ``BENCHMARK.json`` declares, the traced
run the per-layer ones, one ``workload metric value unit n`` line each;
both check the program's outputs and write one JSON result.  With a single
``--workload`` the last line of standard output is the JSON object the
benchmark driver reads.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: How many times the untraced run sets a workload up; ``setup_s`` is the
#: median over them.
SETUPS = 3


def spawn(job: dict, env: dict) -> dict:
    job = {**job, "spawned": time.time()}
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(job)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_workload(name: str, args, env: dict) -> dict:
    job = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }
    setups = 1 if args.trace or args.quick else SETUPS
    reports = [
        spawn({**job, "mode": "setup"}, env) for _ in range(setups - 1)
    ]
    reports.append(spawn({**job, "mode": "full"}, env))
    full = reports[-1]
    metrics = full["metrics"]
    if not args.trace:
        metrics["setup_s"] = (
            statistics.median(r["setup_s"] for r in reports), len(reports))
        if full["cold_ms"] is not None:
            # A training job's first output is its first step's loss, so
            # its time to first output is the cold step of each set-up.
            metrics["ttft_ms_p50"] = (
                statistics.median(r["cold_ms"] for r in reports), len(reports))
    units = {
        m["name"]: m["unit"]
        for m in DECLARED["per_layer" if args.trace else "end_to_end"]
    }
    for problem in full["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    result = {
        "correct": not full["problems"] and not full["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric], "n": n}
            for metric, (value, n) in metrics.items() if value is not None
        },
        **{key: full[key] for key in (
            "attempted", "failed", "sim_digest", "host_speed", "window_s",
            "executor", "numpy",
        )},
    }
    for metric, entry in result["metrics"].items():
        print(name, metric, f"{entry['value']:.6g}", entry["unit"], entry["n"])
    return result


def driver_line(result: dict, trace: int) -> str:
    """The object the benchmark driver reads: every declared metric of the
    run's kind; a per-layer metric of a layer the workload never enters
    reads 0."""
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {
                "value": measured.get(m["name"], {"value": 0.0})["value"],
                "unit": m["unit"],
            }
            for m in declared
        },
    })


def main() -> int:
    names = [w["name"] for w in DECLARED["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds corpus, prompts and arrival order")
    parser.add_argument("--seconds", type=float,
                        default=DECLARED["run_seconds"],
                        help="sizes every window: op counts scale with it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="the traced, per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the nominal ops, one set-up")
    parser.add_argument("--out", type=Path, help="where to write the result")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'}: the program to measure is missing",
              file=sys.stderr)
        return 2
    if args.child:
        # A child of this script: only here is the program imported.
        sys.path.insert(0, str(ROOT / "src"))
        import measure

        job = json.loads(args.child)
        if job["mode"] != "import":
            measure.main(job)
        return 0
    if args.quick:
        args.seconds = 2.0
    env = {k: v for k, v in os.environ.items() if k != "REPRO_EXECUTOR"}
    if not sys.dont_write_bytecode:
        # A throw-away import first, so that no measured child pays for
        # compiling the bytecode caches.
        spawn({"mode": "import"}, env)
    selected = args.workload or names
    results = {name: run_workload(name, args, env) for name in selected}
    out = args.out or HERE / "out" / ("traced.json" if args.trace else "run.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": 1,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": next(iter(results.values()))["numpy"],
            "machine": platform.machine(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": results,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if len(selected) == 1:
        print(driver_line(results[selected[0]], args.trace))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
