"""Shared primitives of the blocks estimators: block layouts, ranks, and the
exact counting kernel.  Cluster sizes are counts of strict exceedances
within disjoint or sliding blocks; the kernel reduces each block to its top
order statistics (:func:`block_tops`) and counts, for many thresholds at
once, the blocks by capped exceedance count (:func:`exceedance_histogram`).
"""

import numpy as np

from .base import as_sample, check_block_size

__all__ = ["sliding_maxima", "ranks", "disjoint_blocks", "block_tops", "exceedance_histogram"]

_CHUNK = 4096  # blocks reduced to their top order statistics per step


def sliding_maxima(x, b):
    """Maxima of all ``n - b + 1`` sliding windows of length ``b``.

    A reduction over a strided window view: O(n*b) comparisons and no copy
    of the windows; the result is exactly the per-window maximum
    (comparisons only, no arithmetic on the values).
    """
    x = as_sample(x)
    b = check_block_size(x.size, b)
    return np.lib.stride_tricks.sliding_window_view(x, b).max(axis=1)


def ranks(x):
    """Empirical c.d.f. values F_n(X_s) = #{t : X_t <= X_s} / n.

    Ties share the same value, so the sort need not be stable; the largest
    observation always maps to 1.
    """
    x = as_sample(x)
    order = np.argsort(x)
    ordered = x[order]
    counts = np.empty(x.size, dtype=np.intp)
    counts[order] = np.searchsorted(ordered, ordered, side="right")
    return counts / x.size


def disjoint_blocks(x, b):
    """The floor(n/b) disjoint blocks of length ``b`` as rows of a view; the rest is dropped."""
    return x[: x.size // b * b].reshape(-1, b)


def block_tops(blocks, cap):
    """The ``cap`` largest entries of each row of ``blocks``, descending.

    Rows shorter than ``cap`` are padded with -inf, which exceeds no
    threshold.  Rows are processed ``_CHUNK`` at a time, so a strided view
    of sliding windows is never copied whole.
    """
    k, b = blocks.shape
    tops = np.full((k, cap), -np.inf)
    width = min(b, cap)
    for lo in range(0, k, _CHUNK):
        neg = -blocks[lo : lo + _CHUNK]
        if b > cap:
            neg = np.partition(neg, cap - 1, axis=1)[:, :cap]
        tops[lo : lo + _CHUNK, :width] = -np.sort(neg, axis=1)
    return tops


def exceedance_histogram(tops, thresholds):
    """Row t counts the blocks with exactly c entries above ``thresholds[t]``, c = 0..cap.

    ``tops`` holds the ``cap`` largest entries of every block
    (:func:`block_tops`); counts are capped at ``cap``.  A block's count is
    < c exactly when its c-th largest entry is <= the threshold, so each
    column is one ``searchsorted`` into a sorted order-statistic column.
    """
    k, cap = tops.shape
    # below[t, c] = #blocks whose capped count is < c, c = 0..cap+1
    below = np.zeros((len(thresholds), cap + 2), dtype=np.int64)
    below[:, -1] = k
    for j in range(cap):
        below[:, j + 1] = np.searchsorted(np.sort(tops[:, j]), thresholds, side="right")
    return np.diff(below, axis=1)
