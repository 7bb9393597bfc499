"""Shared low-level utilities: units, dtypes, errors.

These modules have no dependencies on the rest of :mod:`repro`; everything
else builds on them.
"""

from repro.common.dtypes import DType
from repro.common.errors import (
    FPDTError,
    OutOfMemoryError,
    ShapeError,
)
from repro.common.units import (
    GB,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    TB,
    TIB,
    format_bytes,
    format_tokens,
    parse_tokens,
)

__all__ = [
    "DType",
    "FPDTError",
    "OutOfMemoryError",
    "ShapeError",
    "KB",
    "MB",
    "GB",
    "TB",
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "format_bytes",
    "format_tokens",
    "parse_tokens",
]
