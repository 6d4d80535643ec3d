"""Cluster size estimators from the literature, used as benchmarks.

Three classical approaches: a blocks estimator with an order-statistic
threshold, an inter-exceedance-times (intervals) declustering estimator,
and an integrated multilevel blocks estimator that inverts the
compound-Poisson count law on a grid of thresholds.  Each takes an array or
a :class:`~exclust.blocks.Sample`.
"""
from __future__ import annotations

import math
import numbers
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


def _invert_rows(P):
    """:func:`cpp_invert` on every row p(0..m) of ``P`` at once, each with
    0 < p(0) < 1: returns lam = theta*tau and pi(0..m), one per row."""
    G, L = P.shape
    lam = np.array([-math.log(p0) for p0 in P[:, 0].tolist()])  # np.log may differ in the last bit
    ratio = P / P[:, :1]
    facts = [None, lam]  # facts[j] = lam^j / j!, one step at a time
    for j in range(2, L):
        facts.append(facts[-1] * (lam / j))
    pw = np.zeros((L, G, L))  # pw[j, :, i] = pi^{*j}(i)
    pi = pw[1]
    for i in range(1, L):
        rev = np.ascontiguousarray(pi[:, i::-1])
        tail = np.zeros(G)
        for j in range(2, i + 1):
            if i < L - 1 or L >= 12:
                pw[j, :, i] = np.vecdot(pw[j - 1, :, : i + 1], rev)
            else:  # the full overlap, numpy's own ascending sum
                pw[j, :, i] = np.add.accumulate(pw[j - 1] * rev, axis=1)[:, -1]
            tail += facts[j] * pw[j, :, i]
        pi[:, i] = (ratio[:, i] - tail) / lam
    return lam, pi


def cpp_invert(p_values, tau):
    """Invert count probabilities p^(tau)(0..m) to (theta, pi(1..m)).

    Uses p^(tau)(0) = e^{-theta tau} and then solves
    p^(tau)(m) = e^{-theta tau} sum_{j<=m} (theta tau)^j / j! pi^{*j}(m)
    for pi(m) recursively; the j >= 2 convolutions only involve
    pi(1..m-1).  Exact inverse of the forward law for proper inputs.
    So entry i of a power is fixed once pi(1..i-1) is: a table of the powers
    is filled one entry at a time, one dot each, m(m-1)/2 dots batched over
    the rows of :func:`robert_pi`'s grid.  Each dot gives the floats of
    ``np.correlate`` (the loop of one call per power, kept in the tests) by
    a rule that belongs to numpy and its BLAS: BLAS ``ddot`` over pi(i..0)
    copied contiguous (a reversed view takes numpy's plain loop), except
    that numpy sums a full overlap of fewer than 12 entries itself, in
    ascending order.  Refuses p(0) outside (0, 1), a p(1..m) that is
    negative or not finite, and a tau that is not a positive finite real
    number, by name.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("p_values must contain p(0)..p(m) with m >= 1")
    if not 0.0 < p[0] < 1.0:
        raise ValueError(f"p(0) must lie strictly in (0, 1), got {p[0]}")
    if not (np.isfinite(p[1:]).all() and (p[1:] >= 0.0).all()):
        raise ValueError(f"p(1..m) must be finite and non-negative, got {p[1:]}")
    if isinstance(tau, numbers.Real) and not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    tau = _finite("tau", tau)
    lam, pi = _invert_rows(p[None, :])
    return float(lam[0]) / tau, pi[0, 1:]


def robert_pi(x, spec):
    """Integrated multilevel blocks estimator.

    For each tau on a uniform grid in [sigma, phi], the threshold is the
    ceil(k tau)-th largest value (k = floor(n/b) blocks, so about tau
    expected exceedances per block); the empirical count fractions are
    inverted through the compound-Poisson law and the results averaged over
    the grid.  Grid points with a degenerate zero-count fraction are
    skipped.  The kept rows are inverted in one power table (see
    :func:`cpp_invert` for its dot rule) and summed in grid order.
    """
    x = sample(x)
    n = x.x.size
    b = check_block_rule("robert", n, spec.b)
    check_m_max(spec.m_max, n)
    k = n // b
    taus = np.linspace(spec.robert_sigma, spec.robert_phi, spec.robert_grid)
    rank = np.ceil(k * taus).astype(np.int64)
    thresholds = x.sorted[n - rank[rank <= n]]  # the rank-th largest values
    tops = x.tops(b, "disjoint", spec.m_max + 1)
    phats = pad_counts(exceedance_histogram(tops, thresholds), spec.m_max + 1)[:, : spec.m_max + 1] / k
    phats = phats[(0.0 < phats[:, 0]) & (phats[:, 0] < 1.0)]
    if not phats.size:
        raise DegenerateEstimateError("every grid threshold was degenerate")
    acc = np.zeros(spec.m_max)
    for row in _invert_rows(phats)[1][:, 1:]:
        acc += row  # np.sum would add the rows pairwise, in another order
    return PiEstimate(values=acc / len(phats))
