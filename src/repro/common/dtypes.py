"""Dtype registry.

The numeric pillar computes in float64/float32 (NumPy has no bf16), but
the *memory model* must account for the dtypes the paper trains with:
bf16 parameters/activations, fp32 optimizer state, fp32 loss logits.
``DType`` carries the byte size used for accounting, independently of the
NumPy dtype used for arithmetic.
"""

from __future__ import annotations

import enum

import numpy as np


class DType(enum.Enum):
    """Storage dtypes with their accounting sizes in bytes."""

    FP8 = ("fp8", 1)
    BF16 = ("bf16", 2)
    FP16 = ("fp16", 2)
    FP32 = ("fp32", 4)
    FP64 = ("fp64", 8)
    INT32 = ("int32", 4)
    INT64 = ("int64", 8)

    def __init__(self, label: str, nbytes: int):
        self.label = label
        self.nbytes = nbytes

    @property
    def np_dtype(self) -> np.dtype:
        """The NumPy dtype used to *compute* values of this storage type.

        bf16/fp16 compute in float32 (NumPy has no native bf16); everything
        else maps directly.
        """
        mapping = {
            DType.FP8: np.float32,
            DType.BF16: np.float32,
            DType.FP16: np.float32,
            DType.FP32: np.float32,
            DType.FP64: np.float64,
            DType.INT32: np.int32,
            DType.INT64: np.int64,
        }
        return np.dtype(mapping[self])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DType.{self.name}"
