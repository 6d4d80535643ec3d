"""Shared primitives of every estimator.  A :class:`Sample` holds what they
read from one series: its values, sorted values, empirical c.d.f. F_n and
its inverse (so a c.d.f. level maps to a value threshold), and the top order
statistics of its disjoint or sliding blocks.  :func:`_block_tops` sorts the
disjoint rows, which share no entries.  :func:`_sliding_tops` builds the
sliding table by doubling merges: the table of windows of length 2L merges
two tables of length L that are L apart.  That costs O(n * cap^2 * log b)
comparisons, times 1 + b / ``_CHUNK`` for the windows a step builds past
its chunk, in place of a partition of every window, O(n * b), and selects
every entry instead of computing it.  At cap 6 a fresh table took 3.6-5.0
/ 7.2-9.5 / 13.6-17.8 ms at b = 20 / 200 / 2,000 and n = 5e4, where
partitions took 6.8-7.6 / 40 / 233-241 ms, and 35-44 / 67-69 / 139-150 ms
at n = 5e5 (fastest of 9 calls, 5 at 5e5, in two runs on a 2-vCPU host).
A :class:`Sample` keeps the last table of each layout, so the estimators
at one block size share it, and a run over a growing block-size grid
extends the sliding table by merging it with the table of the entries its
windows gained.

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
        """The ``min(cap, b)`` largest entries of each of the floor(n/b) disjoint
        blocks of length b (:func:`_block_tops`) or of the sliding ones
        (:func:`_sliding_tops`), read-only.

        The last table of each layout is kept and handed out again at the
        same b and cap.  A sliding table at a larger b and the same cap
        merges the kept one with the table of the entries the windows
        gained, x[i + last_b : i + b], which is exact: a kept row short of
        cap columns holds its whole window.
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
            tops = _block_tops(x[: x.size // b * b].reshape(-1, b), cap)
        elif last_cap == cap and last_b < b:  # window i gains x[i + last_b : i + b]
            tops = _sliding_tops(x, b, cap, last_b, last)
        else:
            tops = _sliding_tops(x, b, cap)
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


def _block_tops(rows, cap):
    """The ``min(cap, w)`` largest entries of each row of w entries, descending:
    a block of w entries has no more exceedances.  So a table needs at most
    n*w entries, whatever the cap.  Each step partitions and sorts a copy of
    at most ``_CHUNK`` times the table's width in entries (one row at
    least), so a strided view of long sliding windows is never copied whole.
    It builds the disjoint tables, whose rows share no entries, and is the
    oracle of :func:`_sliding_tops`.
    """
    k, w = rows.shape
    width = min(w, cap)
    step = max(1, _CHUNK * width // w)  # rows per copy of <= _CHUNK * width entries
    tops = np.empty((k, width))
    for lo in range(0, k, step):
        neg = np.negative(rows[lo : lo + step])
        if w > width:
            neg = np.partition(neg, width - 1, axis=1)[:, :width]
        neg.sort(axis=1)
        np.negative(neg, out=tops[lo : lo + step])
    return tops


def _sliding_tops(x, b, cap, last_b=0, last=None):
    """The ``min(cap, b)`` largest entries of every window x[i : i + b],
    descending, by doubling merges (:func:`_doubled`), ``_CHUNK`` windows
    per step.  Given ``last``, the table of the windows of length
    ``last_b`` < b at the same cap, window i merges its row of ``last`` with
    the table of the entries it gains, the windows x[i + last_b : i + b].
    Besides the table, a step holds a few tables of at most ``_CHUNK`` + b
    rows and cap columns.
    """
    k = x.size - b + 1
    tops = np.empty((k, min(cap, b)))
    for lo in range(0, k, _CHUNK):
        hi = min(lo + _CHUNK, k)
        cols = _doubled(x[lo + last_b :], b - last_b, cap, hi - lo)
        if last is not None:
            cols = _merge(last[lo:hi].T, cols, cap)
        tops[lo:hi] = cols.T
    return tops


def _doubled(x, b, cap, rows):
    """The top-``cap`` table of the windows x[i : i + b], i < ``rows``, one
    column per array row.  The table of windows of length 2L merges two
    tables of length L that are L apart, and the levels of b's binary
    digits, taken low to high, join into the windows of length b: so at
    most two levels, of at most ``rows`` + b - 1 windows each, are held."""
    level = x[None, : rows + b - 1]  # windows of length 1
    length, joined, done = 1, None, 0
    while True:
        if b & length:  # the windows x[i : i + done] gain x[i + done : i + done + length]
            part = level[:, done : done + rows]
            joined = part if joined is None else _merge(joined, part, cap)
            done += length
            if done == b:
                return joined
        level = _merge(level[:, :-length], level[:, length:], cap)
        length *= 2


def _merge(a, b, cap):
    """The ``min(cap, wa + wb)`` largest entries of each row pair of two
    descending tables of wa and wb columns, given one column per array row.
    Entry c is the largest of a_c, b_c and min(a_i, b_l) over i + l = c - 1
    (the c-th largest of two sorted lists takes some i + 1 from ``a`` and
    the rest from ``b``), so it is selected by comparisons, never computed.
    The pairs are taken one i at a time, against all the l they need."""
    wa, wb = len(a), len(b)
    out = np.empty((min(cap, wa + wb), a.shape[1]))
    w = len(out)
    both, one = min(wa, wb, w), min(max(wa, wb), w)
    np.maximum(a[:both], b[:both], out=out[:both])
    out[both:one] = (a if wa > wb else b)[both:one]
    out[one:] = -np.inf  # entries past both tables come from pairs only
    low = np.empty((min(wb, w - 1), a.shape[1]))
    for i in range(min(wa, w - 1)):
        n = min(wb, w - 1 - i)  # the pairs (a_i, b_l), l < n, give the entries c = i + 1 + l
        rows = out[i + 1 : i + 1 + n]
        np.maximum(rows, np.minimum(a[i], b[:n], out=low[:n]), out=rows)
    return out


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
