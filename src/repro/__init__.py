"""repro — a reproduction of FPDT (Fully Pipelined Distributed Transformer).

Paper: Yao et al., "Training Ultra Long Context Language Model with Fully
Pipelined Distributed Transformer", MLSys 2025.

The package has two pillars (see DESIGN.md):

* an exact-numerics simulated multi-GPU runtime with the real algorithms
  (Ulysses, Megatron-SP, Ring Attention, USP, and FPDT itself), trained
  with a replicated Adam, and
* an analytical performance/memory model of the paper's A100 clusters
  that regenerates every table and figure of the evaluation, including
  the ZeRO model-state term that FPDT is composed with.

See ``examples/quickstart.py`` for a complete runnable tour.
"""

__version__ = "1.0.0"

__all__ = [
    "common",
    "hardware",
    "runtime",
    "models",
    "parallel",
    "core",
    "perfmodel",
    "training",
    "telemetry",
    "faults",
    "serving",
    "experiments",
]
