"""Unit tests for the dtype registry."""

import numpy as np

from repro.common.dtypes import DType


class TestDType:
    def test_bf16_accounting_size(self):
        assert DType.BF16.nbytes == 2

    def test_fp32_accounting_size(self):
        assert DType.FP32.nbytes == 4

    def test_bf16_computes_in_float32(self):
        assert DType.BF16.np_dtype == np.dtype(np.float32)

    def test_fp64_computes_in_float64(self):
        assert DType.FP64.np_dtype == np.dtype(np.float64)
