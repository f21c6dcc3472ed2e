"""Kernel selection: compiled extension when built, NumPy fallback otherwise.

Set PATHABS_NO_FAST=1 to force the fallback (used by the tests comparing
the two lanes).
"""

from __future__ import annotations

import os

import numpy as np

from .dense import bypass_closure, bypass_dense, sample_adjacency
from .dense import detour_fold_inplace as _numpy_fold

IMPLEMENTATION = "numpy"

if not os.environ.get("PATHABS_NO_FAST"):
    try:
        from . import _fast

        IMPLEMENTATION = "cython"
    except ImportError:
        _fast = None
else:
    _fast = None


def detour_fold_inplace(a: np.ndarray, order) -> None:
    order = np.ascontiguousarray(order, dtype=np.int64)
    if _fast is not None:
        if a.dtype != np.uint8 or not a.flags["C_CONTIGUOUS"]:
            raise ValueError("adjacency must be a C-contiguous uint8 matrix")
        _fast.detour_fold_inplace(a, order)
    else:
        _numpy_fold(a, order)


__all__ = [
    "IMPLEMENTATION",
    "bypass_closure",
    "bypass_dense",
    "detour_fold_inplace",
    "sample_adjacency",
]
