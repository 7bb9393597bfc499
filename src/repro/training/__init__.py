"""Training: optimizers, synthetic data, and the end-to-end trainer used
by the convergence experiment (Fig. 14)."""

from repro.training.optimizer import Adam, AdamState, adam_step
from repro.training.data import SyntheticCorpus, make_batch
from repro.training.schedule import clip_grad_norm, global_grad_norm
from repro.training.serialization import (
    checkpoint_meta,
    load_checkpoint,
    normalize_checkpoint_path,
    save_checkpoint,
)
from repro.training.trainer import TrainResult, Trainer

__all__ = [
    "Trainer",
    "TrainResult",
    "Adam",
    "AdamState",
    "adam_step",
    "SyntheticCorpus",
    "make_batch",
    "clip_grad_norm",
    "global_grad_norm",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_meta",
    "normalize_checkpoint_path",
]
