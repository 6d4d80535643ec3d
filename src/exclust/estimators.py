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
its block tops from the sample.  Both modes count with the exact integer
kernel of :mod:`exclust.blocks`; this module subtracts the near blocks left
out of the pairs, compared directly.  At fixed b, memory grows linearly in
n and time about like n*log(n): 8-14x per 10x of n at b = 20, n from 2e3 to
2e5.  The naive O(n^2 * b) enumeration is kept as :func:`sliding_pair_naive`;
all pair statistics are integer counts, divided once at the end.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import FitMixin, check_block_size, check_m_max
from .blocks import exceedance_histogram, sample
from .blocks import ranks, sliding_maxima  # noqa: F401  (re-exported)
from .errors import DegenerateEstimateError

__all__ = [
    "PbarEstimate",
    "PiEstimate",
    "pbar_hat",
    "sliding_pair_counts",
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
    the divisor (k(k-1) for disjoint mode, |D_n| for sliding mode).
    """

    values: np.ndarray
    counts: np.ndarray
    pair_count: int
    b: int
    mode: str
    scale: str

    @property
    def m_max(self):
        return self.values.size


@dataclass(frozen=True)
class PiEstimate:
    """Estimated cluster size distribution pi(1..m_max).

    ``values`` are the raw recursion outputs unless ``clipped`` is set; raw
    values may fall outside [0, 1].  ``method`` identifies the producing
    estimator ("sliding-z", "hsing", ...).
    """

    values: np.ndarray
    method: str
    b: int
    clipped: bool = False
    pbar: Optional[PbarEstimate] = None

    @property
    def m_max(self):
        return self.values.size


def _y_thresholds(block_cdf_maxima):
    # Y_i = -b*log(F_n(M_i)) turns the condition F_n(X_s) > 1 - Y_i/b into
    # F_n(X_s) > 1 + log(F_n(M_i)); F_n(M_i) >= 1/n keeps the log finite.
    return 1.0 + np.log(block_cdf_maxima)


def _far_pair_counts(tops, thresholds, radius):
    """Row q counts the blocks i' with |q - i'| >= radius whose capped count
    above ``thresholds[q]`` equals c, c = 0..cap: the histogram over all
    blocks minus that of the 2*radius - 1 near blocks, compared directly.
    """
    k, cap = tops.shape
    q = np.arange(k)
    padded = np.pad(tops, ((radius - 1, radius - 1), (0, 0)), constant_values=-np.inf)
    # near[q, c] = #near blocks whose capped count is >= c + 1 (one contiguous counter)
    near = np.zeros((k, cap), dtype=np.int64)
    for d in range(2 * radius - 1):  # near block q - radius + 1 + d
        near += padded[d : d + k] > thresholds[:, None]
    far = exceedance_histogram(tops, thresholds)
    far[:, 0] -= np.minimum(q + radius, k) - np.maximum(q - radius + 1, 0)
    far[:, :-1] += near
    far[:, 1:] -= near
    return far


def _sliding_input(x, b, thresholds, m_max):
    """The sample, b, one checked threshold per window start, and m_max."""
    x = sample(x)
    b = check_block_size(x.x.size, b)
    thresholds = np.asarray(thresholds, dtype=float)
    P = x.x.size - b + 1
    if thresholds.shape != (P,):
        raise ValueError(f"need one threshold per window start: expected {P}, got {thresholds.shape}")
    return x, b, thresholds, check_m_max(m_max)


def sliding_pair_counts(x, b, thresholds, m_max, scale="z"):
    """Histogram of per-window exceedance counts over all non-overlapping windows.

    For every sliding-window start i, row i counts the windows i' with
    |i - i'| >= b whose number of entries strictly above ``thresholds[i]``
    equals c, for c = 0..m_max plus an overflow bucket (last column).
    The output equals :func:`sliding_pair_naive` exactly.
    """
    x, b, thresholds, m_max = _sliding_input(x, b, thresholds, m_max)
    return _far_pair_counts(x.tops(b, "sliding", scale, m_max + 1), thresholds, b)


def sliding_pair_naive(x, b, thresholds, m_max, scale="z"):
    """Reference O(n^2 * b) enumeration of the histogram of :func:`sliding_pair_counts`."""
    x, b, thresholds, m_max = _sliding_input(x, b, thresholds, m_max)
    windows = x.tops(b, "sliding", scale, b)  # every entry of each window, descending
    P, cap = len(windows), m_max + 1
    out = np.zeros((P, cap + 1), dtype=np.int64)
    for i in range(P):
        c = np.minimum(np.count_nonzero(windows > thresholds[i], axis=1), cap)
        far = np.abs(np.arange(P) - i) >= b
        out[i] = np.bincount(c[far], minlength=cap + 1)
    return out


def pbar_hat(x, b, mode="sliding", scale="z", m_max=5):
    """Pair-averaged estimate of pbar(1..m_max) from one sample."""
    x = sample(x)
    b = check_block_size(x.x.size, b)
    m_max = check_m_max(m_max)
    tops = x.tops(b, mode, scale, m_max + 1)
    thr = tops[:, 0] if scale == "z" else _y_thresholds(tops[:, 0])
    hist = _far_pair_counts(tops, thr, 1 if mode == "disjoint" else b).sum(axis=0)
    pair_count = int(hist.sum())  # k(k-1) disjoint; |D_n|, windows at distance >= b, sliding

    counts = hist[1 : m_max + 1].astype(np.int64)
    values = counts / pair_count
    return PbarEstimate(values=values, counts=counts, pair_count=pair_count,
                        b=b, mode=mode, scale=scale)


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
    method = f"{pbar.mode}-{pbar.scale}"
    return PiEstimate(values=pi, method=method, b=pbar.b, clipped=clip, pbar=pbar)


def theta_hat(pi, m=None):
    """Extremal index estimate 1 / sum_{j<=m} j*pi(j).

    Raises :class:`DegenerateEstimateError` carrying the denominator when the
    partial mean cluster size is zero or negative.
    """
    values = np.asarray(getattr(pi, "values", pi), dtype=float)
    if m is None:
        m = values.size
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


class ClusterSizeEstimator(FitMixin):
    """Fit-style front end bundling pbar_hat, the pi recursion and theta_hat.

    Parameters mirror :func:`pbar_hat` plus the clipping flag.  After
    ``fit(x)`` the instance carries ``pbar_`` (:class:`PbarEstimate`),
    ``pi_`` (:class:`PiEstimate`), ``theta_`` (float, or NaN when the
    denominator is degenerate) and ``theta_denominator_``.
    """

    def __init__(self, b, mode="sliding", scale="z", m_max=5, clip=False):
        self.b = b
        self.mode = mode
        self.scale = scale
        self.m_max = m_max
        self.clip = clip

    def fit(self, x):
        self.pbar_ = pbar_hat(x, self.b, mode=self.mode, scale=self.scale, m_max=self.m_max)
        self.pi_ = pi_from_pbar(self.pbar_, clip=self.clip)
        try:
            self.theta_denominator_ = _mean_cluster_size(self.pi_.values)
        except DegenerateEstimateError as err:
            self.theta_denominator_ = err.value
            self.theta_ = float("nan")
        else:
            self.theta_ = 1.0 / self.theta_denominator_
        return self

    def theta(self, m=None):
        """theta(m) from the fitted pi; raises on a degenerate denominator."""
        self._check_fitted("pi_")
        return theta_hat(self.pi_, m)
