"""Figure 14: pretraining convergence — FPDT curves coincide with the
baseline.

Trains the same seeded tiny GPT three ways (single-device baseline,
FPDT without offload, FPDT with offload) on the same synthetic corpus
and reports the three loss curves plus their maximum pairwise
divergence.  The paper's claim — "there is no (negative) [impact] on
the quality of trained models" — is reproduced as exact numerical
equivalence, which is stronger than the visual overlap of Fig. 14.
"""

from __future__ import annotations

import numpy as np

from repro.core import FPDTModelRunner
from repro.experiments.report import ExperimentResult, print_result
from repro.models import GPTModel, tiny_gpt
from repro.runtime import VirtualCluster
from repro.training import SyntheticCorpus
from repro.training.trainer import Trainer

WORLD = 4


def train_curve(mode: str, *, steps: int, seed: int = 7) -> list[float]:
    """One loss curve; ``mode`` in {baseline, ulysses, fpdt, fpdt-offload}.

    ``baseline`` is the single-device reference (numerically what the
    paper's tensor-parallel baseline computes); ``ulysses`` is the
    distributed DeepSpeed-Ulysses runner on 4 virtual GPUs.
    """
    cfg = tiny_gpt(hidden_size=32, num_heads=4, num_layers=2, vocab_size=32)
    model = GPTModel(cfg, seed=seed)
    corpus = SyntheticCorpus(cfg.vocab_size, branching=2, seed=seed)
    runner = None
    if mode == "ulysses":
        from repro.parallel import UlyssesModelRunner

        runner = UlyssesModelRunner(model, VirtualCluster(WORLD))
    elif mode != "baseline":
        runner = FPDTModelRunner(
            model, VirtualCluster(WORLD), num_chunks=2,
            offload=(mode == "fpdt-offload"), loss_chunks=2,
        )
    trainer = Trainer(model, corpus, runner=runner, lr=5e-3)
    return trainer.train(steps, batch_size=2, seq_len=16).losses


def run(fast: bool = True) -> ExperimentResult:
    """Regenerate Figure 14; ``fast`` shortens the training run."""
    steps = 15 if fast else 120
    modes = ("baseline", "ulysses", "fpdt", "fpdt-offload")
    curves = {mode: train_curve(mode, steps=steps) for mode in modes}
    base = np.asarray(curves["baseline"])
    divergence = {
        mode: float(np.max(np.abs(np.asarray(curves[mode]) - base)))
        for mode in modes[1:]
    }

    result = ExperimentResult(
        experiment="Figure 14",
        title=f"Pretraining loss curves, {steps} steps (tiny GPT, {WORLD} virtual GPUs)",
        columns=["step", "baseline", "Ulysses", "FPDT", "FPDT+offload"],
    )
    stride = max(1, steps // 15)
    for i in range(0, steps, stride):
        result.add_row(
            i,
            f"{curves['baseline'][i]:.4f}",
            f"{curves['ulysses'][i]:.4f}",
            f"{curves['fpdt'][i]:.4f}",
            f"{curves['fpdt-offload'][i]:.4f}",
        )
    for mode, div in divergence.items():
        result.note(f"max |{mode} - baseline| over the curve: {div:.2e}")
    result.note(f"loss moved {curves['baseline'][0]:.3f} -> {curves['baseline'][-1]:.3f}")
    result.data["curves"] = curves
    result.data["divergence"] = divergence
    return result


if __name__ == "__main__":  # pragma: no cover
    print_result(run(fast=False))
