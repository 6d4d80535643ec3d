"""Shared primitives of every estimator.  A :class:`Sample` holds what they
read from one series: its values, sorted values, empirical c.d.f. F_n and
its inverse (so a c.d.f. level maps to a value threshold), and the top order
statistics of its disjoint or sliding blocks, which :func:`_block_tops` builds
from block rows given in column parts.  It keeps the last table of each
layout, so the estimators at one block size share it, and a run over a
growing block-size grid extends the sliding table by the columns gained.

Cluster sizes are counts of strict exceedances within blocks.
:func:`exceedance_histogram` counts the blocks by capped exceedance count
at many thresholds at once.  :func:`exceedance_totals` sums those counts
over thresholds, one per block, leaving out the blocks less than a radius
>= 1 from each (the block itself, or the windows that overlap it).  Both
search one sorted column of the table at a time.  The totals are counted
on the tops table itself: besides it, a call holds that column, O(runs)
integers for the runs of equal thresholds and O(``_CHUNK`` * w) entries
per step, and builds no padded copy, per-row or per-run table.  A tops
table keeps at most as many columns as a block has entries, so the counts
above that are zero; :func:`pad_counts` appends them.
"""

from functools import cached_property

import numpy as np

from .base import check_block_size, check_count

__all__ = ["Sample", "sliding_maxima", "ranks", "exceedance_histogram", "exceedance_totals"]

_CHUNK = 4096  # blocks reduced to their top order statistics per step
_MODES = ("disjoint", "sliding")


class Sample:
    """A series validated as a 1-d float array ``x`` of n >= 2 finite real
    values; ``sorted`` and ``ranks`` are computed on first use and kept, and
    so is the last tops table built in each block layout."""

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
        self._tops = {}  # mode: (b, cap, tops) of the last table built in that layout

    @cached_property
    def sorted(self):
        return np.sort(self.x)

    @cached_property
    def ranks(self):
        """Empirical c.d.f. values F_n(X_s): :meth:`cdf` of the sample itself."""
        return self.cdf(self.x)

    def cdf(self, values):
        """F_n(v) = #{t : X_t <= v} / n; ties share a value, and the maximum maps to 1."""
        return np.searchsorted(self.sorted, values, side="right") / self.x.size

    def cdf_threshold(self, levels):
        """Value thresholds t with X_s > t exactly when F_n(X_s) > y, for every
        sample value X_s and c.d.f. level y in ``levels``: F_n(X_s) = r/n
        exceeds y when r > j = #{c in 1..n : c/n <= y} (n for NaN), so t is
        the float just below the (j+1)-th smallest value, or the largest
        float at j = n.  floor(n*y) is j or one off, so one step against
        the float c/n corrects it.
        """
        n = self.x.size
        with np.errstate(over="ignore"):  # n*y may overflow; just below -1.797e308 is -inf
            j = np.floor(np.asarray(levels, dtype=float) * n)
            j += (j + 1) / n <= levels
            j -= j / n > levels
            j = np.maximum(np.fmin(j, n), 0).astype(np.intp)  # fmin sends NaN to n
            return np.nextafter(np.where(j < n, self.sorted[np.minimum(j, n - 1)], np.inf), -np.inf)

    def tops(self, b, mode, cap):
        """:func:`_block_tops` of the floor(n/b) disjoint blocks of length b or of
        the sliding ones, read-only: the ``min(cap, b)`` largest entries of each block.

        The last table of each layout is kept and handed out again at the
        same b and cap.  A sliding table at a larger b and the same cap
        extends the kept one by the entries the windows gained, which is
        exact: a kept row short of cap columns holds its whole window.
        b must be an integer with 2 <= b <= n/2, and cap an integer >= 1.
        """
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        b = check_block_size(self.x.size, b)
        cap = check_count("cap", cap, 1)
        last_b, last_cap, last = self._tops.get(mode, (None, None, None))
        if (last_b, last_cap) == (b, cap):
            return last
        x = self.x
        if mode == "disjoint":
            parts = (x[: x.size // b * b].reshape(-1, b),)
        else:
            windows = np.lib.stride_tricks.sliding_window_view(x, b)
            if last_cap == cap and last_b < b:  # window i gains x[i + last_b : i + b]
                parts = (last[: len(windows)], windows[:, last_b:])
            else:
                parts = (windows,)
        tops = _block_tops(*parts, cap=cap)
        tops.flags.writeable = False
        self._tops[mode] = (b, cap, tops)
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


def _block_tops(*parts, cap):
    """The ``min(cap, w)`` largest entries of each row of ``parts`` joined
    side by side (rows of w entries in all), descending: a block of w
    entries has no more exceedances.  So a table needs at most n*w entries,
    whatever the cap.  Each step copies at most ``_CHUNK`` times the
    table's width in entries (one row at least), so a strided view of
    sliding windows is never copied whole, however long its windows.
    """
    k = len(parts[0])
    joined = sum(part.shape[1] for part in parts)
    width = min(joined, cap)
    step = max(1, _CHUNK * width // joined)  # rows per copy of <= _CHUNK * width entries
    tops = np.empty((k, width))
    for lo in range(0, k, step):
        neg = np.concatenate([part[lo : lo + step] for part in parts], axis=1)
        np.negative(neg, out=neg)
        if joined > width:
            neg = np.partition(neg, width - 1, axis=1)[:, :width]
        neg.sort(axis=1)
        np.negative(neg, out=tops[lo : lo + step])
    return tops


def pad_counts(counts, width):
    """``counts`` with zero columns appended up to ``width`` on its last axis:
    the counts above a block's length, which no block reaches."""
    short = width - counts.shape[-1]
    if short <= 0:
        return counts
    return np.concatenate((counts, np.zeros(counts.shape[:-1] + (short,), counts.dtype)), axis=-1)


def exceedance_histogram(tops, thresholds):
    """Row t counts the blocks with exactly c entries above ``thresholds[t]``,
    c = 0..w, where ``tops`` holds the w largest entries of every block
    (:func:`_block_tops`, or :meth:`Sample.tops`); counts are capped at w.
    """
    k, cap = tops.shape
    # below[t, c] = #blocks whose capped count is < c, c = 0..cap+1
    below = np.zeros((len(thresholds), cap + 2), dtype=np.int64)
    below[:, -1] = k
    for j, column in enumerate(_below(tops, thresholds)):
        below[:, j + 1] = column
    return np.diff(below, axis=1)


def _below(tops, thresholds):
    """Yield, for c = 1..w, the number of blocks whose capped count at each
    threshold is < c.  A block's count is < c exactly when its c-th largest
    entry is <= the threshold, so each is one ``searchsorted`` into one
    sorted order-statistic column, the only column held at a time."""
    for j in range(tops.shape[1]):
        yield np.searchsorted(np.sort(tops[:, j]), thresholds, side="right")


def exceedance_totals(tops, thresholds, radius):
    """Column c counts the ordered pairs of a row q and a block i with
    |q - i| >= ``radius`` where block i has exactly c entries above
    ``thresholds[q]``, c = 0..w, capped at w.  There is one threshold per
    block, and the radius is an integer >= 1: 1 leaves out the block itself
    (disjoint blocks), b the windows of length b that overlap it (sliding).

    The rows of a run of equal thresholds have the same count over all
    blocks, taken at the run starts only: each sorted column is searched by
    the run-start thresholds in sorted order (sorted keys are searched in
    cache order) and summed against the run lengths as it goes, into w + 2
    integers.  The near blocks are subtracted in closed form and by
    :func:`_near_totals`, in time order, on ``tops`` itself.  Besides
    ``tops``, a call holds one sorted column, O(runs) integers and
    O(``_CHUNK`` * w) entries per step; no per-row or per-run table is built.
    """
    k, cap = tops.shape
    thresholds = np.asarray(thresholds)
    radius = check_count("radius", radius, 1)
    if len(thresholds) != k:
        raise ValueError(f"need one threshold per block: expected {k}, got {len(thresholds)}")
    bounds = _run_bounds(thresholds)
    starts, runlen = bounds[:-1], np.diff(bounds)
    order = np.argsort(thresholds[starts], kind="stable")
    weights = runlen[order]
    # below[c] = #(row, block) pairs whose block's capped count is < c, c = 0..cap+1
    below = np.zeros(cap + 2, dtype=np.int64)
    below[-1] = k * k
    for j, column in enumerate(_below(tops, thresholds[starts[order]])):
        below[j + 1] = weights @ column
    totals = np.diff(below)
    d = min(radius, k) - 1
    totals[0] -= k + d * (2 * k - d - 1)  # ordered block pairs less than radius apart
    # near[c] = #(row, near block) pairs whose block's capped count is >= c + 1
    near = _near_totals(tops, thresholds, radius, bounds, runlen)
    totals[:-1] += near
    totals[1:] -= near
    return totals


def _near_totals(tops, thresholds, radius, bounds, runlen):
    """The near counts summed over rows: row q's count in column c - 1 is the
    number of blocks i with |q - i| < radius whose c-th largest entry exceeds
    ``thresholds[q]``.  Each run start's full count is taken times its run
    length (:func:`_near_at`), plus each later row's step (:func:`_steps`) times
    the rows from it to the end of its run, ``_CHUNK`` rows at a time."""
    k = len(tops)
    starts = bounds[:-1]
    near = _near_at(tops, thresholds, starts, runlen, radius)
    for lo in range(0, k, _CHUNK):
        hi = min(lo + _CHUNK, k)
        a, c = starts.searchsorted((lo, hi))
        at = starts[a:c] - lo  # the run starts in lo .. hi - 1, from lo
        pieces = np.diff(np.concatenate(([0], at, [hi - lo])))
        # a piece's rows end their run at the next bound, the rows before the first start at bounds[a]
        rows_left = np.repeat(bounds[a : c + 1], pieces) - np.arange(lo, hi)
        rows_left[at] = 0  # a start's count is in already
        near += rows_left @ _steps(tops, thresholds, radius, lo, hi)
    return near


def _run_bounds(thresholds):
    """The indices at which a run of equal thresholds begins, then their
    number: run r holds rows ``bounds[r]`` .. ``bounds[r + 1] - 1``."""
    new = np.ones(len(thresholds) + 1, dtype=bool)
    np.not_equal(thresholds[1:], thresholds[:-1], out=new[1:-1])
    return np.flatnonzero(new)


def _steps(tops, thresholds, radius, lo, hi):
    """Rows lo .. hi - 1 of the +-1 steps of the near counts: row q's near
    window gains block q + radius - 1 while q + radius <= k, and loses block
    q - radius from q = radius on; the slices clip at the ends."""
    t = thresholds[lo:hi, None]
    steps = np.zeros((hi - lo, tops.shape[1]), dtype=np.int8)
    gained = tops[lo + radius - 1 : hi + radius - 1]
    steps[: len(gained)] += gained > t[: len(gained)]
    lost = tops[max(lo - radius, 0) : max(hi - radius, 0)]
    steps[len(t) - len(lost) :] -= lost > t[len(t) - len(lost) :]
    return steps


def _near_at(tops, thresholds, rows, weights, radius):
    """The near counts of the ascending rows ``rows`` summed against
    ``weights``, each near block compared in full (``_CHUNK`` near rows per
    step).  Near indices past an end are clipped to the end block; the extra
    reads of the rows less than radius - 1 from an end are then taken back,
    from those rows only."""
    k = len(tops)
    offsets = np.arange(1 - radius, radius)[:, None]
    per_step = max(1, _CHUNK // len(offsets))
    t = thresholds[rows, None]
    near = np.zeros(tops.shape[1], dtype=np.int64)
    for lo in range(0, rows.size, per_step):
        at = rows[lo : lo + per_step]
        counts = np.add.reduce(tops.take(offsets + at, axis=0, mode="clip") > t[lo : lo + per_step], axis=0,
                               dtype=np.int32)
        near += weights[lo : lo + per_step] @ counts
    # row q reads block 0 for max(radius - 1 - q, 0) indices and block k - 1 for max(q + radius - k, 0)
    head, tail = np.searchsorted(rows, (radius - 1, k - radius + 1))
    if head:
        near -= (weights[:head] * (radius - 1 - rows[:head])) @ (tops[0] > t[:head])
    if tail < rows.size:
        near -= (weights[tail:] * (rows[tail:] + radius - k)) @ (tops[k - 1] > t[tail:])
    return near
