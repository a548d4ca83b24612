"""Worm walks as flat integer arrays.

A batch of walks is stored CSR-style: walk ``k`` visits
``node[ptr[k] : ptr[k + 1]]``, row-major node indices of a mesh,
its launcher first.  These helpers build and slice such batches with
numpy, so a broadcast's routes never become coordinate tuples unless an
object schedule is asked for.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["csr_gather", "csr_offsets", "straight_walks"]


def csr_offsets(count: np.ndarray) -> np.ndarray:
    """Position of each flat element inside its CSR slice."""
    total = int(count.sum())
    return np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(count) - count, count
    )


def csr_gather(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Flat indices of the CSR slices ``start[i] : start[i]+count[i]``."""
    return csr_offsets(count) + np.repeat(start, count)


def straight_walks(
    start: np.ndarray, stride: np.ndarray, hops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Straight walks: ``hops[k]`` steps of ``stride[k]`` from ``start[k]``.

    A stride is one axis's signed row-major stride, so each walk is a
    straight line along that axis.  Returns ``(ptr, node)``.
    """
    start, stride, hops = np.broadcast_arrays(
        np.asarray(start, dtype=np.int64),
        np.asarray(stride, dtype=np.int64),
        np.asarray(hops, dtype=np.int64),
    )
    length = hops + 1
    ptr = np.zeros(length.size + 1, dtype=np.int64)
    np.cumsum(length, out=ptr[1:])
    node = np.repeat(start, length) + csr_offsets(length) * np.repeat(
        stride, length
    )
    return ptr, node

