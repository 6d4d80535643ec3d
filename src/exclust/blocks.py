"""Shared primitives of every estimator.  A :class:`Sample` holds what they
read from one series: its values, sorted values and ranks, and the top order
statistics of its disjoint or sliding blocks (:func:`block_tops`) on either
scale.  It keeps the last sliding table per scale, so a run over a growing
block-size grid extends one table instead of rebuilding it.  Cluster sizes
are counts of strict exceedances within blocks; :func:`exceedance_histogram`
counts, for many thresholds at once, the blocks by capped exceedance count.
"""

from functools import cached_property

import numpy as np

from .base import check_block_size

__all__ = ["Sample", "sliding_maxima", "ranks", "disjoint_blocks", "block_tops", "exceedance_histogram"]

_CHUNK = 4096  # blocks reduced to their top order statistics per step
_MODES = ("disjoint", "sliding")
_SCALES = ("z", "y")


class Sample:
    """A series validated as a 1-d float array ``x`` of n >= 2 finite real
    values; ``sorted`` and ``ranks`` are computed on first use and kept, and
    so is the last sliding tops table built on each scale."""

    def __init__(self, x):
        x = np.asarray(x)
        if np.iscomplexobj(x):
            raise ValueError("sample x must be real, got complex values")
        x = x.astype(float, copy=False)
        if x.ndim != 1:
            raise ValueError(f"sample must be one-dimensional, got shape {x.shape}")
        if x.size < 2:
            raise ValueError(f"sample must contain at least 2 observations, got {x.size}")
        if not np.all(np.isfinite(x)):
            raise ValueError("sample contains non-finite values (NaN or inf)")
        self.x = x
        self._sliding = {}  # scale: (b, cap, tops) of the last sliding table built

    @cached_property
    def sorted(self):
        return np.sort(self.x)

    @cached_property
    def ranks(self):
        """Empirical c.d.f. values F_n(X_s) = #{t : X_t <= X_s} / n; ties share
        a value, so no sort need be stable, and the maximum maps to 1."""
        counts = np.empty(self.x.size, dtype=np.intp)
        counts[np.argsort(self.x)] = np.searchsorted(self.sorted, self.sorted, side="right")
        return counts / self.x.size

    def tops(self, b, mode, scale, cap):
        """:func:`block_tops` of the disjoint or sliding blocks of length b of
        the values (``scale="z"``) or of their ranks (``scale="y"``), read-only.

        A sliding table at a larger b and the same cap as the last one on
        this scale extends it by the entries the windows gained; disjoint
        tops are every b-th row of the last sliding table when it has this b
        and cap, and are built directly otherwise.
        """
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if scale not in _SCALES:
            raise ValueError(f"scale must be one of {_SCALES}, got {scale!r}")
        series = self.x if scale == "z" else self.ranks
        last_b, last_cap, last = self._sliding.get(scale, (None, None, None))
        if (last_b, last_cap) == (b, cap):  # the kept table, or every b-th row of it
            return last if mode == "sliding" else last[: series.size // b * b : b]
        if mode == "disjoint":
            tops = block_tops(disjoint_blocks(series, b), cap)
        else:
            windows = np.lib.stride_tricks.sliding_window_view(series, b)
            if last_cap == cap and last_b < b:  # window i gains series[i + last_b : i + b]
                tops = _joined_tops((last[: len(windows)], windows[:, last_b:]), cap)
            else:
                tops = block_tops(windows, cap)
            self._sliding[scale] = (b, cap, tops)
        tops.flags.writeable = False
        return tops


def sample(x):
    """``x`` if it is a :class:`Sample` already, else ``Sample(x)``."""
    return x if isinstance(x, Sample) else Sample(x)


def sliding_maxima(x, b):
    """Maxima of all ``n - b + 1`` sliding windows of length ``b``.

    A reduction over a strided window view: O(n*b) comparisons and no copy
    of the windows; the result is exactly the per-window maximum
    (comparisons only, no arithmetic on the values).
    """
    x = Sample(x).x
    b = check_block_size(x.size, b)
    return np.lib.stride_tricks.sliding_window_view(x, b).max(axis=1)


def ranks(x):
    """Empirical c.d.f. values of ``x``: :attr:`Sample.ranks`."""
    return Sample(x).ranks


def disjoint_blocks(x, b):
    """The floor(n/b) disjoint blocks of length ``b`` as rows of a view; the rest is dropped."""
    return x[: x.size // b * b].reshape(-1, b)


def block_tops(blocks, cap):
    """The ``cap`` largest entries of each row of ``blocks``, descending.

    Rows shorter than ``cap`` are padded with -inf, which exceeds no
    threshold.  Rows are processed ``_CHUNK`` at a time, so a strided view
    of sliding windows is never copied whole.
    """
    return _joined_tops((blocks,), cap)


def _joined_tops(parts, cap):
    """:func:`block_tops` of the rows of ``parts`` joined side by side."""
    k = len(parts[0])
    tops = np.full((k, cap), -np.inf)
    width = min(sum(part.shape[1] for part in parts), cap)
    for lo in range(0, k, _CHUNK):
        neg = np.concatenate([part[lo : lo + _CHUNK] for part in parts], axis=1)
        np.negative(neg, out=neg)
        if neg.shape[1] > cap:
            neg = np.partition(neg, cap - 1, axis=1)[:, :cap]
        neg.sort(axis=1)
        np.negative(neg, out=tops[lo : lo + _CHUNK, :width])
    return tops


def count_cap(b, m_max):
    """Tops columns that tell the counts 0..m_max apart from larger ones:
    m_max + 1, but at most b, as a block of b entries has no more
    exceedances.  So a tops table needs at most n*b entries, whatever m_max."""
    return min(m_max + 1, b)


def pad_counts(counts, width):
    """``counts`` with zero columns appended up to ``width`` on its last axis:
    the counts beyond a :func:`count_cap` of b, which no block reaches."""
    short = width - counts.shape[-1]
    if short <= 0:
        return counts
    return np.concatenate((counts, np.zeros(counts.shape[:-1] + (short,), counts.dtype)), axis=-1)


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
