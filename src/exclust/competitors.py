"""Cluster size estimators from the literature, used as benchmarks.

Three classical approaches: a blocks estimator with an order-statistic
threshold, an inter-exceedance-times (intervals) declustering estimator,
and an integrated multilevel blocks estimator that inverts the
compound-Poisson count law on a grid of thresholds.  Each takes an array or
a :class:`~exclust.blocks.Sample`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import _finite, _integral, check_block_size, check_m_max
from .blocks import exceedance_histogram, pad_counts, sample
from .errors import DegenerateEstimateError
from .estimators import PiEstimate

__all__ = [
    "CompetitorSpec",
    "hsing_pi",
    "ferro_pi",
    "robert_pi",
    "cpp_invert",
    "split_clusters",
    "check_block_rule",
]

_KINDS = ("robert",)


@dataclass(frozen=True)
class CompetitorSpec:
    """Configuration of the multilevel blocks estimator :func:`robert_pi`,
    the one benchmark estimator with tuning parameters beyond b and m_max:
    its threshold scales run over a grid of ``robert_grid`` points in
    [``robert_sigma``, ``robert_phi``].  ``kind`` must be "robert"."""

    kind: str
    b: int
    m_max: int = 5
    robert_sigma: float = 0.7
    robert_phi: float = 1.3
    robert_grid: int = 25

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "m_max", check_m_max(self.m_max))
        for name in ("robert_sigma", "robert_phi"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if not 0 < self.robert_sigma < self.robert_phi:
            raise ValueError(
                f"need 0 < sigma < phi, got ({self.robert_sigma}, {self.robert_phi})"
            )
        object.__setattr__(self, "robert_grid", _integral("robert_grid", self.robert_grid))
        if self.robert_grid < 2:
            raise ValueError(f"grid must be >= 2, got {self.robert_grid}")


def check_block_rule(estimator, n, b):
    """Raise ValueError, naming the estimator and b, unless ``estimator``
    (an experiment estimator name) can run with block size b on n points.

    Every estimator needs an integral 2 <= b <= n/2
    (:func:`check_block_size`); ferro also needs 4 <= 3*floor(n/b) <= n
    exceedances, and hsing needs b >= 4 so its threshold rank is defined.
    """
    try:
        b = check_block_size(n, b)
    except ValueError as err:
        raise ValueError(f"{estimator} with b={b}: {err}") from None
    num = 3 * (n // b)
    if estimator == "ferro" and not 4 <= num <= n:
        raise ValueError(f"ferro with b={b}: needs 4 <= 3*floor(n/b) <= n = {n}, got {num}")
    if estimator == "hsing" and b < 4:
        raise ValueError(f"hsing with b={b}: needs b >= 4 so the threshold rank is defined")
    return b


def hsing_pi(x, b, m_max=5):
    """Blocks estimator: cluster sizes read off disjoint blocks above an
    order-statistic threshold.

    The threshold is the (n - floor(n/s))-th ascending order statistic with
    s = 2(b - 3), so about n/s observations exceed it.  The estimate is the
    fraction of occupied blocks containing exactly m exceedances.
    """
    x = sample(x)
    n = x.x.size
    b = check_block_rule("hsing", n, b)
    m_max = check_m_max(m_max, n)
    s = 2 * (b - 3)
    v = x.sorted[n - n // s - 1]
    hist = exceedance_histogram(x.tops(b, "disjoint", m_max + 1), [v])[0]
    hist = pad_counts(hist, m_max + 2)
    occupied = n // b - hist[0]
    if occupied == 0:
        raise DegenerateEstimateError("no block contains an exceedance")
    return PiEstimate(values=hist[1 : m_max + 1] / occupied)


def split_clusters(positions, n_clusters):
    """Sizes after cutting a sorted position sequence at its largest gaps.

    Cuts at the n_clusters - 1 largest inter-position gaps, earliest gaps
    first on ties; returns the cluster sizes in temporal order.
    """
    positions = np.asarray(positions)
    n = positions.size
    if not 1 <= n_clusters <= n:
        raise ValueError(f"need 1 <= n_clusters <= {n}, got {n_clusters}")
    gaps = np.diff(positions)
    cut = np.sort(np.argsort(-gaps, kind="stable")[: n_clusters - 1])
    edges = np.concatenate(([0], cut + 1, [n]))
    return np.diff(edges)


def ferro_pi(x, b, m_max=5):
    """Intervals estimator: decluster the top N = 3 floor(n/b) exceedances.

    The exceedances are the values above the N-th largest, found by
    selection (O(n), no sort), plus the earliest of those equal to it.

    The intervals estimate of the extremal index from the inter-exceedance
    times T_i fixes the cluster count C = floor(theta~ * N); the exceedance
    sequence is then cut at its C - 1 largest gaps.
    """
    x = sample(x).x
    n = x.size
    b = check_block_rule("ferro", n, b)
    num = 3 * (n // b)
    m_max = check_m_max(m_max, n)
    v = np.partition(x, n - num)[n - num]  # the num-th largest value
    above = x > v  # fewer than num; the earliest values equal to v fill up to num
    above[np.flatnonzero(x == v)[: num - np.count_nonzero(above)]] = True
    pos = np.flatnonzero(above)
    T = np.diff(pos).astype(float)
    if np.all(T == 1):
        raise DegenerateEstimateError("all exceedances are adjacent")
    if np.max(T) > 2:
        shifted = T - 1.0
        theta = 2.0 * shifted.sum() ** 2 / ((num - 1) * np.sum(shifted * (T - 2.0)))
    else:
        theta = 2.0 * T.sum() ** 2 / ((num - 1) * np.sum(T * T))
    theta = min(1.0, theta)
    n_clusters = int(theta * num)
    if n_clusters < 1:
        raise DegenerateEstimateError("cluster count fell below one", value=theta)
    hist = np.bincount(split_clusters(pos, n_clusters), minlength=m_max + 1)
    return PiEstimate(values=hist[1 : m_max + 1] / n_clusters)


def cpp_invert(p_values, tau):
    """Invert count probabilities p^(tau)(0..m) to (theta, pi(1..m)).

    Uses p^(tau)(0) = e^{-theta tau} and then solves
    p^(tau)(m) = e^{-theta tau} sum_{j<=m} (theta tau)^j / j! pi^{*j}(m)
    for pi(m) recursively; the j >= 2 convolutions only involve
    pi(1..m-1).  Exact inverse of the forward law for proper inputs.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("p_values must contain p(0)..p(m) with m >= 1")
    if not 0.0 < p[0] < 1.0:
        raise ValueError(f"p(0) must lie strictly in (0, 1), got {p[0]}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    lam = -math.log(p[0])
    m_top = p.size - 1
    ratio = (p / p[0]).tolist()
    pi = np.zeros(m_top + 1)
    rev = pi[::-1]  # a view, so it follows pi as pi is filled
    for m in range(1, m_top + 1):
        tail = 0.0
        cur = pi
        fact = lam
        for j in range(2, m + 1):
            # np.convolve(cur, pi) without its argument checks: the same C call
            cur = np.correlate(cur, rev, "full")[: m_top + 1]
            fact *= lam / j
            tail += fact * cur.item(m)
        pi[m] = (ratio[m] - tail) / lam
    return lam / tau, pi[1:]


def robert_pi(x, spec):
    """Integrated multilevel blocks estimator.

    For each tau on a uniform grid in [sigma, phi], the threshold is the
    ceil(k tau)-th largest value (k = floor(n/b) blocks, so about tau
    expected exceedances per block); the empirical count fractions are
    inverted through the compound-Poisson law and the results averaged over
    the grid.  Grid points with a degenerate zero-count fraction are
    skipped.
    """
    x = sample(x)
    n = x.x.size
    b = check_block_rule("robert", n, spec.b)
    check_m_max(spec.m_max, n)
    k = n // b
    taus = np.linspace(spec.robert_sigma, spec.robert_phi, spec.robert_grid)
    rank = np.ceil(k * taus).astype(np.int64)
    taus, rank = taus[rank <= n], rank[rank <= n]
    thresholds = x.sorted[n - rank]  # the rank-th largest values
    tops = x.tops(b, "disjoint", spec.m_max + 1)
    phats = pad_counts(exceedance_histogram(tops, thresholds), spec.m_max + 1)[:, : spec.m_max + 1] / k
    acc = np.zeros(spec.m_max)
    used = 0
    for tau, phat in zip(taus, phats):
        if phat[0] == 0.0 or phat[0] == 1.0:
            continue
        acc += cpp_invert(phat, tau)[1]
        used += 1
    if used == 0:
        raise DegenerateEstimateError("every grid threshold was degenerate")
    return PiEstimate(values=acc / used)
