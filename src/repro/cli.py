"""Command-line interface.

::

    python -m repro plan --model llama-8b --gpus 4 --gpu-kind 80G
    python -m repro tune --model llama-8b --gpus 4 --seq 512K
    python -m repro experiment table3
    python -m repro train --steps 40
    python -m repro train --steps 8 --run-log results/runlog.jsonl
    python -m repro profile --gpus 2 --out results/profile_trace.json
    python -m repro metrics summary results/runlog.jsonl
    python -m repro metrics diff results/golden_runlog.jsonl results/runlog.jsonl
    python -m repro chaos --quick
    python -m repro serve bench --requests 10000
    python -m repro serve bench --requests 1000 --verify none \\
        --spans results/spans.json --slo "ttft_p99<=60"
    python -m repro obs spans results/spans.json --limit 5
    python -m repro obs postmortem /tmp/flight.json
    python -m repro obs export results/spans.json --out results/spans_trace.json

``plan`` is the Table-1 question (max context per strategy), ``tune``
the §5.3 question (which chunk size), ``experiment`` regenerates any
paper table/figure, ``train`` runs the Fig.-14 convergence demo (or,
with ``--run-log``, a telemetry-instrumented run that writes a JSONL
run log), ``profile`` replays one traced FPDT step in simulated time,
and ``metrics`` renders/diffs run logs — ``diff`` exits non-zero when
a gated metric drifts beyond tolerance, which is the CI regression
gate.  ``chaos`` trains through injected faults and a mid-run crash,
resumes from the checkpoint, and exits non-zero unless the recovered
loss curve is bitwise identical to a clean run.  ``serve bench``
replays a synthetic heavy-traffic request mix through the
continuous-batching serving engine and exits non-zero when any request
is dropped or any served output diverges from single-request decoding.
``obs`` is the observability toolbox: ``obs spans`` renders causal
span trees (and fails on orphans), ``obs slo`` gates latency/TTFT
objectives against a saved serve report, ``obs postmortem`` renders a
crash flight-recorder dump, and ``obs export`` converts span logs to
Chrome-trace JSON for Perfetto.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.units import format_bytes, format_tokens, parse_tokens
from repro.hardware import paper_node_a100_40g, paper_node_a100_80g
from repro.models import MODEL_ZOO

from repro.experiments.registry import EXPERIMENT_NAMES

EXPERIMENTS = list(EXPERIMENT_NAMES)


def _node(kind: str):
    return paper_node_a100_80g() if kind == "80G" else paper_node_a100_40g()


def _add_hw_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="llama-8b", choices=sorted(MODEL_ZOO))
    parser.add_argument("--gpus", type=int, default=4)
    parser.add_argument("--gpu-kind", default="80G", choices=["40G", "80G"])
    parser.add_argument(
        "--window", default=None,
        help="sliding-window attention span (e.g. 64K); default full causal",
    )


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    from repro.runtime.executor import BACKENDS

    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="rank-executor threads (1 = serial; default: REPRO_EXECUTOR "
             "or the CPU count); only sections above the per-rank FLOP "
             "threshold go to threads",
    )
    parser.add_argument(
        "--executor", default=None, metavar="BACKEND",
        choices=BACKENDS,
        help="rank-executor backend: serial or threads (default; threads "
             "only for sections above the per-rank FLOP threshold)",
    )


def _configure_executor(args: argparse.Namespace) -> None:
    """Install the process-wide rank executor from ``--workers`` /
    ``--executor`` (the flags beat ``REPRO_EXECUTOR``; without them the
    env default stands)."""
    workers = getattr(args, "workers", None)
    backend = getattr(args, "executor", None)
    if workers is not None or backend is not None:
        from repro.runtime.executor import RankExecutor, set_executor

        if workers is not None and workers < 1:
            raise SystemExit("--workers must be >= 1")
        if backend is None:
            backend = "serial" if workers == 1 else "threads"
        elif backend != "serial" and workers == 1:
            raise SystemExit(f"--executor {backend} needs --workers >= 2")
        set_executor(RankExecutor(backend, workers=workers))


def _resolve_model(args: argparse.Namespace):
    cfg = MODEL_ZOO[args.model]
    if getattr(args, "window", None):
        cfg = cfg.scaled(attention_window=parse_tokens(args.window))
    return cfg


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.perfmodel import (
        FPDT_CHUNKED, FPDT_FULL, MEGATRON_SP, ULYSSES,
        max_context_length, plan_training, step_metrics,
    )

    cfg = _resolve_model(args)
    node = _node(args.gpu_kind)
    window = f", window {args.window}" if args.window else ""
    print(f"{args.model} on {args.gpus}x A100-{args.gpu_kind}{window}:")
    for strat in (MEGATRON_SP, ULYSSES, FPDT_CHUNKED, FPDT_FULL):
        mx = max_context_length(cfg, strat, args.gpus, node)
        if mx is None:
            print(f"  {strat.name:<24s} does not fit")
            continue
        sm = step_metrics(cfg, strat, mx, args.gpus, node)
        plan = plan_training(cfg, strat, mx, args.gpus, node)
        print(f"  {strat.name:<24s} max {format_tokens(mx):>6s} | MFU {sm.mfu:.1%} "
              f"| HBM {format_bytes(sm.memory.device_total)} "
              f"| {plan.gpu_hours_per_billion_tokens:,.0f} GPU-h/B tokens")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    from repro.perfmodel import suggest_chunk_tokens

    cfg = _resolve_model(args)
    if getattr(args, "layout", False):
        return _tune_layout(args, cfg)
    choice = suggest_chunk_tokens(
        cfg, args.gpus, parse_tokens(args.seq), _node(args.gpu_kind)
    )
    if choice is None:
        print("no chunk size fits — reduce the sequence or add GPUs")
        return 1
    print(f"{args.model} @ {args.seq} on {args.gpus}x A100-{args.gpu_kind}:")
    print(f"  chunk size {format_tokens(choice.chunk_tokens)} "
          f"(u={choice.metrics.s_global // choice.chunk_tokens} chunks), "
          f"MFU {choice.mfu:.1%}, HBM {format_bytes(choice.metrics.memory.device_total)}")
    for chunk in sorted(choice.swept):
        m = choice.swept[chunk]
        status = f"MFU {m.mfu:.1%}" if m.fits else "OOM"
        marker = " <-- chosen" if chunk == choice.chunk_tokens else ""
        print(f"    {format_tokens(chunk):>6s}: {status}{marker}")
    return 0


def _tune_layout(args: argparse.Namespace, cfg) -> int:
    """``repro tune --layout``: sweep (ulysses x ring x chunk x offload)."""
    from repro.perfmodel import autotune_layout, layout_candidates

    s_global = parse_tokens(args.seq)
    choice = autotune_layout(cfg, args.gpus, s_global, _node(args.gpu_kind))
    if choice is None:
        print("no layout fits — reduce the sequence or add GPUs")
        return 1
    print(f"{args.model} @ {args.seq} on {args.gpus}x A100-{args.gpu_kind}:")
    if choice.chunk_tokens is None:
        print(f"  layout USP ulysses={choice.ulysses_degree} x "
              f"ring={choice.ring_degree}, "
              f"MFU {choice.metrics.mfu:.1%}, "
              f"HBM {format_bytes(choice.metrics.memory.device_total)}")
    else:
        print(f"  layout FPDT (ulysses={choice.ulysses_degree}), chunk "
              f"{format_tokens(choice.chunk_tokens)}"
              f"{', offload' if choice.offload else ''}, "
              f"MFU {choice.metrics.mfu:.1%}, "
              f"HBM {format_bytes(choice.metrics.memory.device_total)}")
    meshes = ", ".join(
        f"{u}x{r}" for u, r in layout_candidates(args.gpus, cfg.num_heads)
    )
    print(f"  swept USP meshes (ulysses x ring): {meshes}; "
          f"plus FPDT chunk pipeline with/without offload")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_experiment
    from repro.experiments.report import render, save_json

    try:
        result = run_experiment(args.name, fast=args.fast)
    except KeyError:
        print(f"experiment: unknown experiment {args.name!r}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 1
    print(render(result))
    if args.json:
        path = save_json(result, args.json)
        print(f"[data written to {path}]")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiler import (
        cluster_memory_timelines, run_profiled_step, write_chrome_trace,
    )

    if min(args.gpus, args.chunks, args.prefetch_depth) < 1:
        print("profile: --gpus, --chunks and --prefetch-depth must be >= 1",
              file=sys.stderr)
        return 1
    try:
        run = run_profiled_step(
            world=args.gpus,
            num_chunks=args.chunks,
            prefetch_depth=args.prefetch_depth,
            offload=not args.no_offload,
            node=_node(args.gpu_kind),
        )
    except ValueError as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 1
    profile = run.profile
    path = write_chrome_trace(
        args.out, profile,
        memory_timelines=cluster_memory_timelines(run.cluster),
    )
    print(
        f"profiled one FPDT step: {args.gpus} ranks, {args.chunks} chunks, "
        f"prefetch depth {args.prefetch_depth}"
    )
    for rollup in [profile.rollup()] + profile.phase_rollups():
        name = rollup.phase or "overall"
        print(
            f"  {name:<10s} span {rollup.span * 1e3:8.3f} ms | "
            f"compute {rollup.compute_time * 1e3:8.3f} ms | "
            f"comm {rollup.comm_time * 1e3:8.3f} ms "
            f"(exposed {rollup.exposed_comm * 1e3:8.3f} ms) | "
            f"overlap {rollup.overlap_efficiency:6.1%} | "
            f"MFU {rollup.mfu:.2%}"
        )
    print(f"[chrome trace written to {path} — open in https://ui.perfetto.dev]")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.experiments.figure14 import train_curve

    if args.run_log:
        from repro.telemetry import telemetry_train_run

        run = telemetry_train_run(steps=args.steps, run_log_path=args.run_log)
        s = run.summary
        print(
            f"telemetry run: {s['steps']} steps, loss {s['first_loss']:.4f} "
            f"-> {s['last_loss']:.4f}, peak HBM {format_bytes(s['peak_hbm_bytes'])}, "
            f"collective {format_bytes(s['total_collective_bytes'])}, "
            f"sim MFU {s['sim_mfu']:.2e}, {s['alerts']} health alerts"
        )
        print(f"[run log written to {args.run_log}]")
        return 0
    for mode in ("baseline", "fpdt-offload"):
        losses = train_curve(mode, steps=args.steps)
        print(f"{mode:14s}: {losses[0]:.4f} -> {losses[-1]:.4f}")
    print("curves are numerically identical (see figure14 for the proof)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_suite, save_results

    mode = "quick" if args.quick else "full"
    print(f"running kernel microbenchmarks ({mode} mode):")
    path = save_results(run_suite(quick=args.quick, echo=print), args.out)
    print(f"[results written to {path}]")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, chaos_run

    steps = 6 if args.quick and args.steps is None else (args.steps or 12)
    crash_at = args.crash_at
    if crash_at is None:
        crash_at = steps // 2
    if not 0 <= crash_at < steps:
        print(f"chaos: --crash-at must be in [0, {steps})", file=sys.stderr)
        return 2
    try:
        plan = FaultPlan(
            seed=args.seed,
            collective_rate=args.collective_rate,
            offload_rate=args.offload_rate,
            straggler_rate=args.straggler_rate,
            hbm_spike_rate=args.hbm_spike_rate,
            crash_at_step=crash_at or None,
        )
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    run = chaos_run(
        steps,
        plan=plan,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        run_log_path=args.run_log,
        flight_recorder_path=args.flight_recorder,
    )
    stats = run.fault_stats
    print(f"chaos run: {steps} steps, crash at {run.crash_at}, "
          f"resumed from step {run.resumed_from}")
    print(f"  faults injected  {stats['total_faults']} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(stats['faults_injected'].items()))})")
    print(f"  retries          {stats['retries']} "
          f"(backoff {stats['backoff_s'] * 1e3:.1f} ms simulated)")
    print(f"  crashes          {stats['crashes']}, "
          f"retry-storm alerts {run.alerts}")
    if args.run_log:
        print(f"  [run log written to {args.run_log}]")
    if run.flight_recorder is not None:
        print(f"  [flight-recorder dump at {run.flight_recorder} — "
              f"render with `repro obs postmortem`]")
    if run.bitwise_equal:
        print("  loss curve: bitwise identical to the clean run — "
              "recovery is exact")
        return 0
    print("chaos: recovered loss curve DIVERGED from the clean run",
          file=sys.stderr)
    for i, (a, b) in enumerate(zip(run.clean_losses, run.chaos_losses)):
        if a != b:
            print(f"  first divergence at step {i}: clean {a!r} vs chaos {b!r}",
                  file=sys.stderr)
            break
    return 1


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.common.errors import InjectedCrash, PermanentFaultError
    from repro.faults import FaultPlan
    from repro.models.config import tiny_gpt, tiny_llama
    from repro.models.transformer import GPTModel
    from repro.serving import (
        EngineConfig, LoadGenConfig, SchedulerConfig, run_load,
        synthesize_requests,
    )

    if args.verify in ("all", "none"):
        verify: int | str = args.verify
    else:
        try:
            verify = int(args.verify)
        except ValueError:
            print(f"serve: --verify must be all, none, or an int, "
                  f"got {args.verify!r}", file=sys.stderr)
            return 2
        if verify < 0:
            print("serve: --verify must be >= 0", file=sys.stderr)
            return 2

    window = parse_tokens(args.window) if args.window else None
    if args.arch == "gpt":
        cfg = tiny_gpt(hidden_size=32, num_layers=2, num_heads=2)
    else:
        cfg = tiny_llama(hidden_size=32, num_layers=2, num_heads=2,
                         num_kv_heads=1)
    if window is not None:
        cfg = cfg.scaled(attention_window=window)
    model = GPTModel(cfg, seed=args.seed)

    load_cfg = LoadGenConfig(
        num_requests=args.requests,
        seed=args.seed,
        tenants=args.tenants,
        arrival_rate=args.arrival_rate,
        max_prompt=args.max_prompt,
        max_new_tokens=args.max_new_tokens,
        temperature=args.temperature,
    )
    budget = cfg.max_position_embeddings if cfg.arch == "gpt" else None
    requests = synthesize_requests(
        load_cfg, cfg.vocab_size, position_budget=budget
    )
    plan = None
    if args.chaos:
        plan = FaultPlan(seed=args.seed, offload_rate=args.offload_rate)

    tracer = recorder = slo_monitor = registry = None
    if args.spans or args.flight_recorder:
        from repro.obs import FlightRecorder, SpanTracer

        tracer = SpanTracer()
        if args.flight_recorder:
            recorder = FlightRecorder().attach(tracer)
            recorder.arm(args.flight_recorder)
    if args.slo:
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.monitors import SLOMonitor

        registry = MetricsRegistry()
        try:
            slo_monitor = SLOMonitor(args.slo, registry=registry,
                                     burn_alert=args.burn_alert)
        except ValueError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2

    chaos = " under chaos" if plan is not None else ""
    print(f"replaying {args.requests} requests through the serving "
          f"engine ({cfg.name}{chaos}):")
    start = time.perf_counter()
    try:
        report = run_load(
            model, requests,
            engine_config=EngineConfig(prefill_chunk=args.prefill_chunk),
            scheduler_config=SchedulerConfig(
                max_live=args.max_live,
                tenant_quota=args.tenant_quota,
                max_queue=args.max_queue,
                prefill_chunks_per_tick=args.prefill_chunks,
            ),
            fault_plan=plan,
            registry=registry,
            verify=verify,
            tracer=tracer,
            slo=slo_monitor,
            recorder=recorder,
        )
    except (InjectedCrash, PermanentFaultError) as exc:
        print(f"serve: replay crashed: {exc}", file=sys.stderr)
        if recorder is not None and recorder.dumped is not None:
            print(f"serve: flight-recorder dump at {recorder.dumped} "
                  f"(render with `repro obs postmortem`)", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    print(report.render())
    print(f"wall time       {elapsed:.1f} s "
          f"({report.ticks / max(elapsed, 1e-9):,.0f} ticks/s)")
    if tracer is not None and args.spans:
        path = tracer.dump_spans(args.spans)
        print(f"[span log written to {path}]")
    if args.report_json:
        import dataclasses as _dc
        import json as _json
        from pathlib import Path as _Path

        path = _Path(args.report_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(_dc.asdict(report), indent=1))
        print(f"[report written to {path}]")
    if report.dropped:
        print(f"serve: {report.dropped} request(s) dropped", file=sys.stderr)
        return 1
    if report.mismatched:
        print(f"serve: {report.mismatched} request(s) diverged from "
              f"single-request decode", file=sys.stderr)
        return 1
    if report.orphan_spans:
        print(f"serve: {report.orphan_spans} orphan span(s) — causal "
              f"trees incomplete", file=sys.stderr)
        return 1
    if report.slo_violations:
        print(f"serve: {report.slo_violations} SLO objective(s) violated",
              file=sys.stderr)
        return 1
    print(f"serve: {report.completed} completed, {report.verified} verified "
          f"bitwise against generate()")
    return 0


def cmd_metrics_summary(args: argparse.Namespace) -> int:
    from repro.telemetry import read_run_log

    log = read_run_log(args.path)
    if not log.steps:
        print(f"metrics: {args.path} has no step records", file=sys.stderr)
        return 1
    losses = log.losses
    print(f"run log {args.path}: {len(log.steps)} steps")
    print(f"  loss            {losses[0]:.4f} -> {losses[-1]:.4f}")
    summary = log.summary or {}
    if summary.get("final_loss") is not None:
        print(f"  final loss      {summary['final_loss']:.4f} (tail mean)")
    if summary.get("peak_hbm_bytes"):
        print(f"  peak HBM        {format_bytes(summary['peak_hbm_bytes'])}")
    if summary.get("total_collective_bytes"):
        print(f"  collective      {format_bytes(summary['total_collective_bytes'])}")
    if summary.get("total_h2d_bytes") or summary.get("total_d2h_bytes"):
        print(f"  host traffic    {format_bytes(summary.get('total_h2d_bytes', 0))} h2d, "
              f"{format_bytes(summary.get('total_d2h_bytes', 0))} d2h")
    if summary.get("sim_mfu") is not None:
        print(f"  simulated MFU   {summary['sim_mfu']:.2e}")
    if summary.get("tokens_per_sec") is not None:
        print(f"  tokens/sec      {summary['tokens_per_sec']:,.0f}")
    for crash in log.crashes:
        print(f"  crash           step {crash['step']}: {crash['error']}")
    print(f"  health alerts   {len(log.alerts)}")
    for alert in log.alerts:
        print(f"    [{alert['monitor']}] step {alert['step']}: {alert['message']}")
    return 0


def cmd_metrics_diff(args: argparse.Namespace) -> int:
    from repro.telemetry import diff_paths, format_diffs
    from repro.telemetry.gate import parse_tolerance_args

    try:
        tolerances = parse_tolerance_args(args.tol)
    except ValueError as exc:
        print(f"metrics diff: {exc}", file=sys.stderr)
        return 2
    try:
        diffs = diff_paths(
            args.baseline, args.candidate,
            tolerances=tolerances, default_tol=args.default_tol,
        )
    except (OSError, ValueError) as exc:  # JSONDecodeError included
        print(f"metrics diff: not a complete JSONL run log: {exc}",
              file=sys.stderr)
        return 2
    print(format_diffs(diffs))
    regressed = [d for d in diffs if d.regressed]
    if regressed:
        print(
            f"metrics diff: {len(regressed)} metric(s) regressed beyond "
            f"tolerance: {', '.join(d.name for d in regressed)}",
            file=sys.stderr,
        )
        return 1
    print(f"metrics diff: {sum(1 for d in diffs if d.gated)} gated metric(s) ok")
    return 0


def _load_obs_doc(path: str) -> dict | None:
    """Load a span log / flight-recorder dump, printing the parse error
    (exit-code handling is the caller's)."""
    from repro.obs import load_dump

    try:
        return load_dump(path)
    except (OSError, ValueError) as exc:
        print(f"obs: {exc}", file=sys.stderr)
        return None


def cmd_obs_spans(args: argparse.Namespace) -> int:
    from repro.obs import all_spans, orphan_spans, render_spans

    doc = _load_obs_doc(args.path)
    if doc is None:
        return 2
    print(render_spans(doc, trace_id=args.trace, limit=args.limit))
    orphans = orphan_spans(all_spans(doc))
    if orphans:
        print(f"obs: {len(orphans)} orphan span(s) — causal trees "
              f"incomplete", file=sys.stderr)
        return 1
    return 0


def cmd_obs_slo(args: argparse.Namespace) -> int:
    import json
    import math

    from repro.telemetry.monitors import SLObjective

    try:
        doc = json.loads(open(args.path).read())
    except (OSError, ValueError) as exc:
        print(f"obs slo: {args.path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print(f"obs slo: {args.path} is not a report JSON", file=sys.stderr)
        return 2
    metrics = doc.get("metrics", doc)

    violated = 0
    for spec in args.objective:
        try:
            obj = SLObjective.parse(spec)
        except ValueError as exc:
            print(f"obs slo: {exc}", file=sys.stderr)
            return 2
        stats = metrics.get(obj.metric)
        key = f"p{round(obj.quantile * 100)}"
        value = stats.get(key) if isinstance(stats, dict) else None
        if value is None or not stats.get("count"):
            print(f"  {obj.name:<16s} no observations for "
                  f"{obj.metric} {key} [skipped]")
            continue
        value = float(value)
        bad = not math.isfinite(value) or value > obj.threshold
        verdict = "VIOLATED" if bad else "ok"
        print(f"  {obj.name:<16s} {value:g} vs <= {obj.threshold:g} "
              f"[{verdict}]")
        violated += bad
    if violated:
        print(f"obs slo: {violated} objective(s) violated", file=sys.stderr)
        return 1
    return 0


def cmd_obs_postmortem(args: argparse.Namespace) -> int:
    from repro.obs import render_postmortem

    doc = _load_obs_doc(args.path)
    if doc is None:
        return 2
    print(render_postmortem(doc))
    return 0


def cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs import all_spans
    from repro.profiler import write_span_trace

    doc = _load_obs_doc(args.path)
    if doc is None:
        return 2
    spans = all_spans(doc)
    path = write_span_trace(args.out, spans, tick_us=args.tick_us)
    print(f"[{len(spans)} spans written to {path} — open in "
          f"https://ui.perfetto.dev]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="max context per strategy (Table 1)")
    _add_hw_args(p_plan)
    p_plan.set_defaults(fn=cmd_plan)

    p_tune = sub.add_parser("tune", help="pick the FPDT chunk size (§5.3)")
    _add_hw_args(p_tune)
    p_tune.add_argument("--seq", default="512K", help="target sequence length")
    p_tune.add_argument(
        "--layout", action="store_true",
        help="sweep the full 2D layout space (USP ulysses x ring meshes "
             "plus the FPDT chunk pipeline) instead of just the chunk size",
    )
    p_tune.set_defaults(fn=cmd_tune)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    # Validated against the registry in cmd_experiment (not argparse
    # choices=) so an unknown name gets a one-line error + the list.
    p_exp.add_argument("name", metavar="NAME")
    p_exp.add_argument("--fast", action="store_true", help="reduced sweep")
    p_exp.add_argument(
        "--json", metavar="DIR", default=None,
        help="also write the result data as JSON into DIR (for plotting)",
    )
    p_exp.set_defaults(fn=cmd_experiment)

    p_train = sub.add_parser("train", help="convergence demo (Fig. 14)")
    p_train.add_argument("--steps", type=int, default=40)
    p_train.add_argument(
        "--run-log", metavar="PATH", default=None,
        help="instead run one telemetry-instrumented FPDT-offload "
             "training run and write its JSONL run log to PATH",
    )
    _add_workers_arg(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_met = sub.add_parser(
        "metrics", help="render or regression-gate telemetry run logs"
    )
    met_sub = p_met.add_subparsers(dest="metrics_command", required=True)
    p_sum = met_sub.add_parser("summary", help="render a JSONL run log")
    p_sum.add_argument("path", metavar="RUNLOG")
    p_sum.set_defaults(fn=cmd_metrics_summary)
    p_diff = met_sub.add_parser(
        "diff",
        help="compare the run summaries of two run logs; exit 1 when a "
             "gated metric drifts beyond its relative tolerance",
    )
    p_diff.add_argument("baseline", metavar="BASELINE")
    p_diff.add_argument("candidate", metavar="CANDIDATE")
    p_diff.add_argument(
        "--tol", action="append", default=[], metavar="METRIC=REL",
        help="override a per-metric relative tolerance (repeatable)",
    )
    p_diff.add_argument(
        "--default-tol", type=float, default=None, metavar="REL",
        help="also gate every shared metric without an explicit tolerance",
    )
    p_diff.set_defaults(fn=cmd_metrics_diff)

    p_bench = sub.add_parser(
        "bench",
        help="time the hot kernels (min of repeats) and write the results JSON",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="smaller sizes and fewer repeats (CI smoke mode)",
    )
    p_bench.add_argument(
        "--out", default="results/BENCH_kernels.json", metavar="PATH",
        help="where to write the results JSON",
    )
    _add_workers_arg(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_prof = sub.add_parser(
        "profile", help="replay one traced FPDT step in simulated time"
    )
    p_prof.add_argument("--gpus", type=int, default=2)
    p_prof.add_argument("--chunks", type=int, default=4, help="FPDT chunks per rank")
    p_prof.add_argument(
        "--prefetch-depth", type=int, default=2,
        help="double-buffer depth (1 = serialized fetch ablation)",
    )
    p_prof.add_argument(
        "--no-offload", action="store_true", help="keep KV chunks in HBM"
    )
    p_prof.add_argument("--gpu-kind", default="80G", choices=["40G", "80G"])
    p_prof.add_argument(
        "--out", default="results/profile_trace.json",
        metavar="PATH", help="Chrome-trace JSON output path",
    )
    _add_workers_arg(p_prof)
    p_prof.set_defaults(fn=cmd_profile)

    p_serve = sub.add_parser(
        "serve",
        help="long-context serving engine: continuous-batching replay "
             "of a synthetic request mix",
    )
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)
    p_sbench = serve_sub.add_parser(
        "bench",
        help="replay a seeded heavy-traffic mix; exit 1 on any dropped "
             "request or any output diverging from single-request decode",
    )
    p_sbench.add_argument("--requests", type=int, default=10_000,
                          help="synthetic requests to replay")
    p_sbench.add_argument("--seed", type=int, default=0,
                          help="seeds the model, mix, and sampling")
    p_sbench.add_argument("--arch", default="gpt", choices=["gpt", "llama"],
                          help="tiny model architecture to serve")
    p_sbench.add_argument("--window", default=None,
                          help="sliding-window attention span (tokens)")
    p_sbench.add_argument("--prefill-chunk", type=int, default=32,
                          help="prompt tokens encoded per prefill step")
    p_sbench.add_argument("--prefill-chunks", type=int, default=8,
                          help="prefill chunk budget per scheduler tick")
    p_sbench.add_argument("--max-live", type=int, default=16,
                          help="concurrently admitted requests")
    p_sbench.add_argument("--tenants", type=int, default=4)
    p_sbench.add_argument("--tenant-quota", type=int, default=None,
                          help="live-request cap per tenant")
    p_sbench.add_argument("--max-queue", type=int, default=None,
                          help="queue cap; beyond it admission control "
                               "rejects (default unbounded)")
    p_sbench.add_argument("--arrival-rate", type=float, default=4.0,
                          help="mean arrivals per tick")
    p_sbench.add_argument("--max-prompt", type=int, default=192,
                          help="prompt-length clip of the lognormal tail")
    p_sbench.add_argument("--max-new-tokens", type=int, default=24,
                          help="decode-budget clip")
    p_sbench.add_argument("--temperature", type=float, default=0.0,
                          help="sampling temperature (0 = greedy)")
    p_sbench.add_argument("--chaos", action="store_true",
                          help="inject transient KV-transfer faults")
    p_sbench.add_argument("--offload-rate", type=float, default=0.02,
                          help="per-attempt flaky-transfer rate with --chaos")
    p_sbench.add_argument("--verify", default="all", metavar="all|none|N",
                          help="completed requests to re-decode "
                               "single-request and compare bitwise")
    p_sbench.add_argument("--slo", action="append", default=[],
                          metavar="NAME_pQQ<=THRESH",
                          help="serving SLO objective, e.g. ttft_p99<=40 "
                               "(repeatable); exit 1 on violation")
    p_sbench.add_argument("--burn-alert", type=float, default=1.0,
                          help="error-budget burn-rate alert threshold")
    p_sbench.add_argument("--spans", metavar="PATH", default=None,
                          help="record causal request spans and write the "
                               "span log JSON to PATH")
    p_sbench.add_argument("--report-json", metavar="PATH", default=None,
                          help="write the full serve report as JSON "
                               "(input for `repro obs slo`)")
    p_sbench.add_argument("--flight-recorder", metavar="PATH", default=None,
                          help="arm a crash flight recorder; a replay "
                               "crash or SLO alert dumps recent spans + "
                               "step records to PATH")
    _add_workers_arg(p_sbench)
    p_sbench.set_defaults(fn=cmd_serve)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injected train + crash + resume; fail unless the "
             "recovered loss curve is bitwise identical to a clean run",
    )
    p_chaos.add_argument("--steps", type=int, default=None,
                         help="training steps (default 12, or 6 with --quick)")
    p_chaos.add_argument("--quick", action="store_true",
                         help="small CI smoke configuration")
    p_chaos.add_argument("--seed", type=int, default=7,
                         help="seeds the model, data and the fault plan")
    p_chaos.add_argument("--collective-rate", type=float, default=0.05,
                         help="per-attempt transient collective failure rate")
    p_chaos.add_argument("--offload-rate", type=float, default=0.02,
                         help="per-attempt flaky H2D/D2H transfer rate")
    p_chaos.add_argument("--straggler-rate", type=float, default=0.05,
                         help="per-collective straggler-rank rate")
    p_chaos.add_argument("--hbm-spike-rate", type=float, default=0.05,
                         help="per-collective HBM pressure-spike rate")
    p_chaos.add_argument("--crash-at", type=int, default=None,
                         help="global step to crash at (default steps//2; "
                              "0 disables the crash)")
    p_chaos.add_argument("--checkpoint-every", type=int, default=2,
                         help="checkpoint interval in steps")
    p_chaos.add_argument("--run-log", metavar="PATH", default=None,
                         help="write the chaos run's JSONL telemetry log")
    p_chaos.add_argument("--flight-recorder", metavar="PATH", default=None,
                         help="arm a crash flight recorder on the chaos "
                              "life; the injected crash dumps its "
                              "in-flight spans + step records to PATH")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_obs = sub.add_parser(
        "obs",
        help="observability: render span logs, gate SLOs, and read "
             "crash flight-recorder dumps",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_ospans = obs_sub.add_parser(
        "spans",
        help="render a span log's causal trees; exit 1 on orphan spans",
    )
    p_ospans.add_argument("path", metavar="SPANS_JSON")
    p_ospans.add_argument("--trace", metavar="ID", default=None,
                          help="only this trace (request id / step-N)")
    p_ospans.add_argument("--limit", type=int, default=None, metavar="N",
                          help="render at most N traces")
    p_ospans.set_defaults(fn=cmd_obs_spans)
    p_oslo = obs_sub.add_parser(
        "slo",
        help="gate SLO objectives against a serve report JSON; exit 1 "
             "on violation",
    )
    p_oslo.add_argument("path", metavar="REPORT_JSON")
    p_oslo.add_argument("--objective", action="append", required=True,
                        metavar="NAME_pQQ<=THRESH",
                        help="objective spec, e.g. ttft_p99<=40 (repeatable)")
    p_oslo.set_defaults(fn=cmd_obs_slo)
    p_opost = obs_sub.add_parser(
        "postmortem",
        help="render a flight-recorder dump (crash cause, in-flight "
             "spans, last step records); exit 2 if unparseable",
    )
    p_opost.add_argument("path", metavar="DUMP_JSON")
    p_opost.set_defaults(fn=cmd_obs_postmortem)
    p_oexp = obs_sub.add_parser(
        "export",
        help="convert a span log / dump to Chrome-trace JSON (Perfetto "
             "flame view, one lane per tree depth)",
    )
    p_oexp.add_argument("path", metavar="SPANS_OR_DUMP_JSON")
    p_oexp.add_argument("--out", required=True, metavar="PATH",
                        help="Chrome-trace JSON output path")
    p_oexp.add_argument("--tick-us", type=float, default=1000.0,
                        help="microseconds per logical tick on the timeline")
    p_oexp.set_defaults(fn=cmd_obs_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_executor(args)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
