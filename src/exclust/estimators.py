"""Blocks estimators of pbar, the cluster size distribution and the extremal index.

``pbar_hat`` estimates the mixture law pbar(m) by comparing, over pairs of
blocks, the exceedance count in one block against the maximum of the other.
Disjoint mode averages over ordered pairs of distinct disjoint blocks;
sliding mode averages over all ordered pairs of sliding windows that do not
overlap.  The recursion

    pi(m) = 4*pbar(m) - 2*sum_{k=1}^{m-1} pi(m-k)*pbar(k)

then turns either estimate into an estimate of pi, and the extremal index is
estimated by the reciprocal partial mean 1 / sum_{j<=m} j*pi(j).

Each function takes an array or a :class:`~exclust.blocks.Sample` and reads
its block tops from the sample.  F_n is monotone, so a y-scale level maps
to a value threshold (:meth:`~exclust.blocks.Sample.cdf_threshold`), once
per run of equal block maxima, and both scales read the same tops table
of the values.  Both modes take their pair counts from
:func:`~exclust.blocks.exceedance_totals`: capped count totals over
ordered pairs of a block's maximum and another block, leaving out the
near blocks of each block: itself (disjoint) or the windows that overlap
it (sliding).  A sliding call on an array peaks at 1.33x (z) and 1.71x (y)
the bytes of its tops table, which holds n - b + 1 rows of min(m_max + 1,
b) values (tracemalloc, armax, b = 20, m_max = 5, n from 5e4 to 1e6; the
y scale adds the sorted series and one threshold per block).  Time grows
about like n*log(n): sliding ``pbar_hat`` on an array (tops table
included) takes 5-14x per 10x of n at b = 6, 20 and 38, n from 2e3 to 2e5
(fastest of 15 calls, 3 at 2e5, in two runs on a 2-vCPU host), and
71-88 ms at n = 2e5, where tables built by partitions took 76-131 ms.
The naive O(n^2 * b) enumeration is kept as :func:`sliding_pair_naive`; all
pair statistics are integer counts, divided once at the end.
"""

from dataclasses import dataclass

import numpy as np

from .base import _integral, check_block_size, check_m_max
from .blocks import _run_bounds, exceedance_totals, pad_counts, sample
from .blocks import ranks, sliding_maxima  # noqa: F401  (re-exported)
from .errors import DegenerateEstimateError

__all__ = [
    "PbarEstimate",
    "PiEstimate",
    "pbar_hat",
    "sliding_pair_naive",
    "pi_from_pbar",
    "theta_hat",
    "ClusterSizeEstimator",
]

@dataclass(frozen=True)
class PbarEstimate:
    """Estimated pbar(1..m_max) plus the integer pair statistics behind it.

    ``values[m-1]`` estimates pbar(m); ``counts[m-1]`` is the number of
    ordered block pairs whose exceedance count equalled m, and ``pair_count``
    the divisor (k(k-1) for disjoint mode, |D_n| for sliding mode).  The
    inputs b, mode and scale are not echoed: the caller passed them.
    """

    values: np.ndarray
    counts: np.ndarray
    pair_count: int


@dataclass(frozen=True)
class PiEstimate:
    """Estimated cluster size distribution pi(1..m_max).

    ``values[m-1]`` estimates pi(m).  Raw recursion outputs may fall outside
    [0, 1]; :func:`pi_from_pbar` floors them at zero only when asked.
    """

    values: np.ndarray


_SCALES = ("z", "y")


def _check_scale(scale):
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {_SCALES}, got {scale!r}")


def sliding_pair_naive(x, b, thresholds, m_max, scale="z"):
    """Reference O(n^2 * b) enumeration of the sliding-window pair counts.

    For every window start i, row i counts the windows i' with |i - i'| >= b
    whose number of entries strictly above ``thresholds[i]`` equals c, for
    c = 0..m_max plus an overflow bucket (last column), on the raw windows
    of the values or, on the y scale, of their ranks F_n(X_s).  At the
    window maxima its column sums are the counts of sliding :func:`pbar_hat`.
    """
    x = sample(x)
    b = check_block_size(x.x.size, b)
    thresholds = np.asarray(thresholds, dtype=float)
    P = x.x.size - b + 1
    if thresholds.shape != (P,):
        raise ValueError(f"need one threshold per window start: expected {P}, got {thresholds.shape}")
    m_max = check_m_max(m_max, x.x.size)
    _check_scale(scale)
    windows = np.lib.stride_tricks.sliding_window_view(x.x if scale == "z" else x.ranks, b)
    cap = m_max + 1
    out = np.zeros((P, cap + 1), dtype=np.int64)
    for i in range(P):
        c = np.minimum(np.count_nonzero(windows > thresholds[i], axis=1), cap)
        far = np.abs(np.arange(P) - i) >= b
        out[i] = np.bincount(c[far], minlength=cap + 1)
    return out


def pbar_hat(x, b, mode="sliding", scale="z", m_max=5):
    """Pair-averaged estimate of pbar(1..m_max) from one sample; on the y scale
    each run of equal block maxima is mapped to a value threshold once."""
    x = sample(x)
    b = check_block_size(x.x.size, b)
    m_max = check_m_max(m_max, x.x.size)
    _check_scale(scale)
    tops = x.tops(b, mode, m_max + 1)
    thr = tops[:, 0]
    if scale == "y":
        # Y_i = -b*log(F_n(M_i)) turns the condition F_n(X_s) > 1 - Y_i/b into
        # F_n(X_s) > 1 + log(F_n(M_i)); F_n(M_i) >= 1/n keeps the log finite.
        bounds = _run_bounds(thr)
        level = x.cdf_threshold(1.0 + np.log(x.cdf(thr[bounds[:-1]])))
        thr = np.repeat(level, np.diff(bounds))
    hist = exceedance_totals(tops, thr, 1 if mode == "disjoint" else b)
    hist = pad_counts(hist, m_max + 2)
    pair_count = int(hist.sum())  # k(k-1) disjoint; |D_n|, windows at distance >= b, sliding

    counts = hist[1 : m_max + 1].astype(np.int64)
    values = counts / pair_count
    return PbarEstimate(values=values, counts=counts, pair_count=pair_count)


def pi_from_pbar(pbar, clip=False):
    """Invert the pbar recursion: pi(m) = 4*pbar(m) - 2*sum_{k<m} pi(m-k)*pbar(k).

    Raw outputs may be negative; ``clip`` applies a post-hoc floor at zero
    (no renormalization).
    """
    p = np.asarray(pbar.values, dtype=float)
    m_max = p.size
    pi = np.zeros(m_max)
    for m in range(1, m_max + 1):
        s = sum(pi[m - k - 1] * p[k - 1] for k in range(1, m))
        pi[m - 1] = 4.0 * p[m - 1] - 2.0 * s
    if clip:
        pi = np.maximum(pi, 0.0)
    return PiEstimate(values=pi)


def theta_hat(pi, m=None):
    """Extremal index estimate 1 / sum_{j<=m} j*pi(j).

    Raises :class:`DegenerateEstimateError` carrying the denominator when the
    partial mean cluster size is zero or negative.
    """
    values = np.asarray(getattr(pi, "values", pi), dtype=float)
    if values.ndim != 1:
        raise ValueError(f"pi must be one-dimensional, got shape {values.shape}")
    m = values.size if m is None else _integral("m", m)
    if not 1 <= m <= values.size:
        raise ValueError(f"m must lie in 1..{values.size}, got {m}")
    return 1.0 / _mean_cluster_size(values[:m])


def _mean_cluster_size(pi):
    """sum_j j*pi(j) over the given pi(1..m); must be positive."""
    denom = float(np.sum(np.arange(1, pi.size + 1) * pi))
    if denom <= 0.0:
        raise DegenerateEstimateError(
            f"partial mean cluster size through m={pi.size} is not positive", value=denom
        )
    return denom


class ClusterSizeEstimator:
    """Fit-style front end bundling pbar_hat, the pi recursion and theta_hat.

    The constructor takes the arguments of :func:`pbar_hat` but the sample
    and keeps them as attributes of the same names.  After ``fit(x)`` the
    instance carries ``pbar_`` (:class:`PbarEstimate`), ``pi_`` (raw
    :class:`PiEstimate`; :func:`pi_from_pbar` clips on request) and
    ``theta_`` (float, or NaN when the denominator is degenerate).
    """

    def __init__(self, b, mode="sliding", scale="z", m_max=5):
        self.b = b
        self.mode = mode
        self.scale = scale
        self.m_max = m_max

    def fit(self, x):
        self.pbar_ = pbar_hat(x, self.b, mode=self.mode, scale=self.scale, m_max=self.m_max)
        self.pi_ = pi_from_pbar(self.pbar_)
        try:
            self.theta_ = theta_hat(self.pi_)
        except DegenerateEstimateError:
            self.theta_ = float("nan")
        return self

    def theta(self, m=None):
        """theta(m) from the fitted pi; raises on a degenerate denominator."""
        if not hasattr(self, "pi_"):
            raise AttributeError(f"{type(self).__name__} instance is not fitted yet; call fit() first")
        return theta_hat(self.pi_, m)
