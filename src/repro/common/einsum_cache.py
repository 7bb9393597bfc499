"""Memoized contraction paths for the attention einsums.

``np.einsum`` without ``optimize=`` contracts element-by-element in C —
for the attention forms (``bqhd,bkhd->bhqk`` and friends) that is
10-20x slower than the BLAS-backed batched matmul the same contraction
lowers to.  ``np.einsum_path`` finds that lowering but costs a planning
pass per call, so this module keeps **one module-level path cache**
keyed by ``(subscripts, operand shapes)``: the first call plans, every
later call replays the path.

The four attention contractions additionally dispatch straight to
``np.matmul`` with an ``out=`` destination.  NumPy's optimized einsum
cannot write its BLAS result into ``out`` directly (it materializes a
``tensordot`` intermediate and copies), while ``matmul`` streams into
the destination buffer — which is what lets a kernel reuse one
preallocated destination (the FPDT backward's ``dq/dk/dv`` trio) across
a whole loop.  The matmul lowering is bitwise-identical to the
optimized einsum (both run the same dgemm), which the tests assert.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cached_einsum", "einsum_path", "path_cache_stats", "clear_path_cache"]

_PATH_CACHE: dict[tuple, list] = {}


def einsum_path(subscripts: str, *operands: np.ndarray) -> list:
    """The memoized ``np.einsum_path`` for this contraction."""
    key = (subscripts, *(op.shape for op in operands))
    path = _PATH_CACHE.get(key)
    if path is None:
        path, _ = np.einsum_path(subscripts, *operands, optimize="optimal")
        _PATH_CACHE[key] = path
    return path


def _scores(a: np.ndarray, b: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    # bqhd,bkhd->bhqk
    return np.matmul(a.transpose(0, 2, 1, 3), b.transpose(0, 2, 3, 1), out=out)


def _pv(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    # bhqk,bkhd->bqhd; matmul produces [b, h, q, d], so route it through
    # a transposed view of the [b, q, h, d] destination (the dispatcher
    # allocates `out` when the caller passed none).
    np.matmul(a, b.transpose(0, 2, 1, 3), out=out.transpose(0, 2, 1, 3))
    return out


def _kv_grad(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    # bhqk,bqhd->bkhd
    np.matmul(a.transpose(0, 1, 3, 2), b.transpose(0, 2, 1, 3), out=out.transpose(0, 2, 1, 3))
    return out


_MATMUL_FORMS = {
    "bqhd,bkhd->bhqk": (_scores, None),
    "bhqk,bkhd->bqhd": (_pv, "bqhd"),
    "bhqk,bqhd->bkhd": (_kv_grad, "bkhd"),
}


def _result_shape(form: str, a: np.ndarray, b: np.ndarray) -> tuple[int, ...]:
    dims = {
        "b": a.shape[0], "h": a.shape[1], "q": a.shape[2], "k": a.shape[3],
        "d": b.shape[3],
    }
    return tuple(dims[ax] for ax in form)


def cached_einsum(
    subscripts: str, *operands: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``np.einsum`` with the module-level path cache, dispatching the
    attention forms to ``matmul`` so ``out=`` destinations are written
    directly (bitwise-identical either way)."""
    entry = _MATMUL_FORMS.get(subscripts) if len(operands) == 2 else None
    if entry is not None:
        fn, result_form = entry
        if result_form is not None and out is None:
            a, b = operands
            out = np.empty(
                _result_shape(result_form, a, b),
                np.result_type(a.dtype, b.dtype),
            )
        return fn(*operands, out)
    path = einsum_path(subscripts, *operands)
    if out is None:
        return np.einsum(subscripts, *operands, optimize=path)
    return np.einsum(subscripts, *operands, out=out, optimize=path)


def path_cache_stats() -> dict:
    """Size of the contraction-path cache (telemetry reads this)."""
    return {"entries": len(_PATH_CACHE)}


def clear_path_cache() -> int:
    """Drop every memoized path; returns how many were cached."""
    n = len(_PATH_CACHE)
    _PATH_CACHE.clear()
    return n
