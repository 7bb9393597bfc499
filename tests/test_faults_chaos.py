"""Fault injection and chaos recovery.

The subsystem's contract has three legs, each tested here:

1. **Determinism** — a :class:`FaultPlan` draws every decision from
   ``(seed, kind, op ordinal)``, so the same seed over the same program
   injects the same faults, and two chaos runs are byte-comparable.
2. **Numerics invariance** — injected faults cost retries/trace events
   only; a faulty run's loss curve is bitwise equal to a clean run's.
3. **Recovery** — an injected mid-run crash plus checkpoint-restart
   reproduces the uninterrupted loss curve bitwise (the ``repro chaos``
   gate).
"""

import json

import numpy as np
import pytest

from repro.common.dtypes import DType
from repro.common.errors import InjectedCrash, PermanentFaultError
from repro.core.offload import ChunkCache
from repro.faults import ChaosRun, FaultInjector, FaultPlan, chaos_run, merge_stats
from repro.models import GPTModel, tiny_gpt
from repro.core.fpdt_model import FPDTModelRunner
from repro.profiler import profile_cluster
from repro.runtime import VirtualCluster
from repro.runtime.collectives import reduce_scatter
from repro.runtime.trace_analysis import summarize
from repro.telemetry import FaultRateMonitor, RunLogger
from repro.training import SyntheticCorpus, Trainer


def _tensors(cluster, n=8):
    return [
        dev.from_numpy(np.full(n, float(dev.rank)), DType.FP32, "x")
        for dev in cluster.devices
    ]


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(seed=3, collective_rate=0.3, straggler_rate=0.2,
                      hbm_spike_rate=0.2)
        b = FaultPlan(seed=3, collective_rate=0.3, straggler_rate=0.2,
                      hbm_spike_rate=0.2)
        for i in range(50):
            assert a.failures_for("collective", i) == b.failures_for("collective", i)
            assert a.straggler_for(i, 4) == b.straggler_for(i, 4)
            assert a.spike_for(i, 4) == b.spike_for(i, 4)

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=0, collective_rate=0.5)
        b = FaultPlan(seed=1, collective_rate=0.5)
        sched_a = [a.failures_for("collective", i) for i in range(100)]
        sched_b = [b.failures_for("collective", i) for i in range(100)]
        assert sched_a != sched_b

    def test_kinds_are_independent_streams(self):
        """Offload draws never perturb the collective stream: the same
        op ordinal is a different SeedSequence per kind."""
        plan = FaultPlan(seed=9, collective_rate=0.4, offload_rate=0.4)
        coll = [plan.failures_for("collective", i) for i in range(60)]
        off = [plan.failures_for("offload", i) for i in range(60)]
        assert coll != off

    def test_failures_capped_per_op(self):
        plan = FaultPlan(seed=0, collective_rate=1.0, max_failures_per_op=3)
        for i in range(10):
            assert plan.failures_for("collective", i) == 3

    def test_backoff_is_exponential(self):
        plan = FaultPlan(backoff_base_s=0.5, backoff_factor=3.0)
        assert plan.backoff(0) == 0.5
        assert plan.backoff(2) == pytest.approx(4.5)

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="collective_rate"):
            FaultPlan(collective_rate=1.5)
        with pytest.raises(ValueError, match="backoff"):
            FaultPlan(backoff_factor=0.5)


class TestFaultInjector:
    def test_transient_collective_fault_records_and_recovers(self):
        cluster = VirtualCluster(2)
        plan = FaultPlan(seed=0, collective_rate=1.0, max_failures_per_op=2)
        injector = FaultInjector(plan).attach(cluster)
        out = reduce_scatter(cluster, _tensors(cluster), axis=0)
        # Numerics untouched despite the injected failures.
        np.testing.assert_array_equal(out[0].data, np.full(4, 1.0))
        summary = summarize(cluster.trace)
        assert summary.fault_count == 2
        assert summary.retry_count == 2
        assert summary.retry_backoff_s == pytest.approx(
            plan.backoff(0) + plan.backoff(1)
        )
        assert injector.stats()["retries"] == 2
        for t in out:
            t.free()

    def test_permanent_fault_after_retry_budget(self):
        cluster = VirtualCluster(2)
        plan = FaultPlan(seed=0, collective_rate=1.0,
                         max_failures_per_op=5, max_retries=2)
        FaultInjector(plan).attach(cluster)
        with pytest.raises(PermanentFaultError) as err:
            reduce_scatter(cluster, _tensors(cluster), axis=0)
        assert err.value.kind == "collective"
        assert "reduce_scatter" in err.value.label

    def test_offload_transfer_faults_hit_chunk_cache(self):
        cluster = VirtualCluster(1)
        plan = FaultPlan(seed=0, offload_rate=1.0, max_failures_per_op=1)
        injector = FaultInjector(plan).attach(cluster)
        cache = ChunkCache(cluster)
        dev = cluster.devices[0]
        cache.store("k", dev.from_numpy(np.ones(4), DType.FP32, "k"), dev)
        fetched = cache.fetch("k", dev)
        np.testing.assert_array_equal(fetched.data, np.ones(4))
        fetched.free()
        cache.discard("k")
        assert injector.faults_injected["offload"] == 2  # store + fetch

    def test_hbm_spike_moves_peak_not_live(self):
        cluster = VirtualCluster(2)
        plan = FaultPlan(seed=0, hbm_spike_rate=1.0, hbm_spike_bytes=1 << 16)
        FaultInjector(plan).attach(cluster)
        out = reduce_scatter(cluster, _tensors(cluster), axis=0)
        victim = [d for d in cluster.devices if d.hbm.peak >= (1 << 16)]
        assert victim, "no rank saw the pressure spike"
        for t in out:
            t.free()
        for dev in cluster.devices:
            dev.hbm.check_empty()  # spike bytes were charge-and-release

    def test_straggler_charges_extra_flops(self):
        cluster = VirtualCluster(2)
        plan = FaultPlan(seed=0, straggler_rate=1.0, straggler_flops=1e6)
        FaultInjector(plan).attach(cluster)
        out = reduce_scatter(cluster, _tensors(cluster), axis=0)
        straggle = [e for e in cluster.trace.events
                    if e.kind == "compute" and "straggler" in e.label]
        assert straggle and straggle[0].flops == 1e6
        for t in out:
            t.free()

    def test_scheduled_crash(self):
        injector = FaultInjector(FaultPlan(crash_at_step=5))
        injector.on_step(4)
        with pytest.raises(InjectedCrash) as err:
            injector.on_step(5)
        assert err.value.step == 5
        assert injector.crashes == 1

    def test_fault_events_replay_in_simulated_time(self):
        """The profiler accepts fault/retry events and charges the
        retry backoff to the timeline (a group-wide retry is a
        barrier, so the makespan grows by at least the backoff)."""
        cluster = VirtualCluster(2)
        out = reduce_scatter(cluster, _tensors(cluster), axis=0)
        clean_makespan = profile_cluster(cluster).makespan

        cluster2 = VirtualCluster(2)
        plan = FaultPlan(seed=0, collective_rate=1.0, max_failures_per_op=2,
                         backoff_base_s=0.25)
        FaultInjector(plan).attach(cluster2)
        out2 = reduce_scatter(cluster2, _tensors(cluster2), axis=0)
        profile = profile_cluster(cluster2)
        backoff = plan.backoff(0) + plan.backoff(1)
        assert profile.makespan >= clean_makespan + backoff - 1e-9
        retry_events = [te for te in profile.timeline if te.event.kind == "retry"]
        assert len(retry_events) == 2
        assert profile.rollup().comm_time > 0
        for t in out + out2:
            t.free()

    def test_merge_stats(self):
        merged = merge_stats(
            {"faults_injected": {"collective": 2}, "total_faults": 2,
             "retries": 2, "backoff_s": 0.5, "crashes": 1},
            {"faults_injected": {"collective": 1, "offload": 3},
             "total_faults": 4, "retries": 3, "backoff_s": 0.25, "crashes": 0},
        )
        assert merged["faults_injected"] == {"collective": 3, "offload": 3}
        assert merged["total_faults"] == 6
        assert merged["retries"] == 5
        assert merged["backoff_s"] == pytest.approx(0.75)
        assert merged["crashes"] == 1


class TestFaultKeyRouteParity:
    """The injection key is the *logical* operation: a plan seeded
    against ``all_to_all`` must keep firing when a multi-node topology
    reroutes the exchange through the hierarchical two-stage path — the
    chaos schedule is topology-invariant even though the trace labels
    (``all_to_all_intra``/``_inter``) are not."""

    def _exchange(self, cluster):
        g = np.random.default_rng(0)
        tensors = [
            dev.from_numpy(g.normal(size=(1, 4, 16, 2)), DType.FP32, "x")
            for dev in cluster.devices
        ]
        from repro.runtime.collectives import all_to_all

        return all_to_all(cluster, tensors, split_axis=2, concat_axis=1)

    def _fault_schedule(self, cluster):
        return [
            (e.kind, e.label, e.rank)
            for e in cluster.trace.events
            if e.kind in ("fault", "retry")
        ]

    def test_same_plan_fires_on_flat_and_hierarchical_routes(self):
        from repro.hardware import make_cluster, paper_node_a100_80g

        def run(spec):
            cluster = VirtualCluster(8, spec=spec)
            plan = FaultPlan(seed=4, collective_rate=1.0, max_failures_per_op=1,
                             straggler_rate=1.0, hbm_spike_rate=0.5)
            injector = FaultInjector(plan).attach(cluster)
            outs = self._exchange(cluster)
            data = [o.data.copy() for o in outs]
            for o in outs:
                o.free()
            return cluster, injector, data

        flat_cluster, flat_inj, flat_data = run(None)
        spec = make_cluster(paper_node_a100_80g(), 8)  # 2 nodes
        hier_cluster, hier_inj, hier_data = run(spec)

        # The topology actually rerouted (and the flat run did not).
        hier_labels = [e.label for e in hier_cluster.trace.filter(kind="collective")]
        assert any("intra" in l for l in hier_labels)
        assert not any(
            "intra" in e.label for e in flat_cluster.trace.filter(kind="collective")
        )
        # Same schedule: identical fault/retry events (labels carry the
        # unified ``all_to_all:`` key), identical victims, same stats.
        flat_faults = self._fault_schedule(flat_cluster)
        assert flat_faults == self._fault_schedule(hier_cluster)
        assert all(":all_to_all:" in label for _, label, _ in flat_faults)
        assert flat_inj.stats() == hier_inj.stats()
        # Numerics invariance holds on both routes.
        for a, b in zip(flat_data, hier_data):
            np.testing.assert_array_equal(a, b)

    def test_explicit_hierarchical_call_shares_the_key(self):
        """Calling the two-stage collective directly with the flat tag
        draws from the same per-op stream: first-op failure counts
        match a flat first-op exactly."""
        from repro.runtime.collectives import hierarchical_all_to_all

        def first_op_faults(use_hier):
            cluster = VirtualCluster(8)
            plan = FaultPlan(seed=9, collective_rate=1.0, max_failures_per_op=2)
            FaultInjector(plan).attach(cluster)
            g = np.random.default_rng(1)
            tensors = [
                dev.from_numpy(g.normal(size=(1, 4, 16, 2)), DType.FP32, "x")
                for dev in cluster.devices
            ]
            if use_hier:
                outs = hierarchical_all_to_all(
                    cluster, tensors, split_axis=2, concat_axis=1,
                    gpus_per_node=4, tag="all2all",
                )
            else:
                from repro.runtime.collectives import all_to_all

                outs = all_to_all(cluster, tensors, split_axis=2, concat_axis=1)
            for o in outs:
                o.free()
            return self._fault_schedule(cluster)

        assert first_op_faults(True) == first_op_faults(False)


def _faulty_trainer(seed=11, plan=None, telemetry=None):
    cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32)
    model = GPTModel(cfg, seed=seed)
    corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=seed)
    runner = FPDTModelRunner(
        model, VirtualCluster(2), num_chunks=2, offload=True, loss_chunks=2
    )
    if plan is not None:
        FaultInjector(plan).attach(runner.cluster)
    return Trainer(model, corpus, runner=runner, lr=5e-3, telemetry=telemetry)


class TestFaultsDuringTraining:
    PLAN = FaultPlan(seed=5, collective_rate=0.1, offload_rate=0.05,
                     straggler_rate=0.1, hbm_spike_rate=0.1)

    def test_faults_never_perturb_the_loss_curve(self):
        clean = _faulty_trainer().train(4, batch_size=2, seq_len=16).losses
        chaos = _faulty_trainer(plan=self.PLAN).train(
            4, batch_size=2, seq_len=16
        ).losses
        assert chaos == clean  # bitwise: same floats, not allclose

    def test_fault_schedule_is_deterministic_end_to_end(self):
        runs = []
        for _ in range(2):
            trainer = _faulty_trainer(plan=self.PLAN)
            trainer.train(4, batch_size=2, seq_len=16)
            injector = trainer.runner.cluster.fault_injector
            runs.append((trainer.result.losses, injector.stats()))
        assert runs[0] == runs[1]
        assert runs[0][1]["total_faults"] > 0  # the plan actually fired

    def test_telemetry_sees_fault_counters(self):
        logger = RunLogger(monitors=[FaultRateMonitor(max_retries_per_step=1)])
        plan = FaultPlan(seed=5, collective_rate=0.5, max_failures_per_op=2)
        trainer = _faulty_trainer(plan=plan, telemetry=logger)
        trainer.train(3, batch_size=2, seq_len=16)
        summary = logger.finish(trainer.result)
        injector = trainer.runner.cluster.fault_injector
        assert summary["fault_count"] == injector.stats()["total_faults"]
        assert summary["retry_count"] == injector.retries
        assert summary["retry_backoff_s"] == pytest.approx(injector.backoff_s)
        # Heavy per-step retry pressure trips the retry-storm monitor.
        assert any(a.monitor == "fault_rate" for a in logger.alerts)


class TestChaosRecovery:
    def test_crash_and_resume_reproduces_clean_curve_bitwise(self, tmp_path):
        run = chaos_run(6, seed=13, checkpoint_every=2, workdir=tmp_path)
        assert isinstance(run, ChaosRun)
        assert run.crash_at == 3
        assert run.resumed_from == 2
        assert run.fault_stats["crashes"] == 1
        assert run.fault_stats["total_faults"] > 0
        assert len(run.chaos_losses) == len(run.clean_losses) == 6
        assert run.chaos_losses == run.clean_losses  # bitwise
        assert run.bitwise_equal
        assert run.checkpoint is not None and run.checkpoint.exists()

    def test_run_log_keeps_both_lives(self, capsys, tmp_path):
        """`repro chaos --quick --run-log` writes one log: steps 0-2 of
        the crashed life, the crash at step 3, then the resumed life
        from its step-2 checkpoint, its rerun of step 2 marked."""
        from repro.cli import main
        from repro.telemetry import read_run_log

        path = tmp_path / "chaos.jsonl"
        assert main(["chaos", "--quick", "--run-log", str(path)]) == 0
        log = read_run_log(path)
        assert [r["step"] for r in log.steps] == [0, 1, 2, 2, 3, 4, 5]
        assert [r.get("replayed", False) for r in log.steps] == \
            [False, False, False, True, False, False, False]
        assert log.steps[2]["loss"] == log.steps[3]["loss"]  # bitwise
        assert [c["step"] for c in log.crashes] == [3]
        assert log.crashes[0]["error"].startswith("InjectedCrash")
        kinds = [json.loads(line)["record"] for line in path.read_text().splitlines()]
        assert kinds.index("crash") == 3 and kinds[-1] == "run_summary"
        assert log.summary["steps"] == 7  # every step run, replay included
        assert log.summary["last_loss"] == log.steps[-1]["loss"]
        # tokens_total is the curve's (six steps); the rate divides the
        # tokens of all seven steps run by their wall time.
        assert log.summary["tokens_total"] == log.steps[-1]["tokens_total"]
        assert log.summary["tokens_total"] == 6 * log.steps[0]["tokens"]
        assert log.summary["tokens_per_sec"] == pytest.approx(
            sum(r["tokens"] for r in log.steps) / log.summary["wall_time_s"]
        )
        capsys.readouterr()
        assert main(["metrics", "summary", str(path)]) == 0
        assert "crash           step 3: InjectedCrash" in capsys.readouterr().out

    def test_no_crash_still_verifies_equivalence(self):
        plan = FaultPlan(seed=2, collective_rate=0.1, crash_at_step=None)
        run = chaos_run(4, plan=plan, seed=2, checkpoint_every=2)
        assert run.resumed_from is None
        assert run.bitwise_equal

    def test_crash_step_validation(self):
        with pytest.raises(ValueError, match="crash_at_step"):
            chaos_run(4, plan=FaultPlan(crash_at_step=9))
