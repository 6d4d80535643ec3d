"""Compound Poisson limit machinery.

The cluster size distribution pi, its convolution powers, the block
exceedance-count laws

    p_tau(0) = exp(-theta*tau),
    p_tau(m) = sum_{j=1..m} exp(-theta*tau) (theta*tau)^j / j! * pi^{*j}(m),

the bivariate cluster laws pi2 of two nested windows, and the mixture

    pbar(m) = int_0^inf p_tau(m) theta exp(-theta*tau) dtau
            = sum_{j=1..m} 2^{-(j+1)} pi^{*j}(m)

that the block estimators target.  Everything is exact finite arithmetic on
the counts 0..m read; :meth:`Pmf.head`, the one read of a pmf on 0..m,
refuses an m past the support of a pmf that truncates mass.

Three primitives carry the algebra: the power table pi^{*k}(v), its
bivariate counterpart for pi2, and the Poisson table.  The count laws, pbar
and the covariance integrands in ``asymptotics`` each contract a row of
weights over k (Poisson, or 2^{-(k+1)} for pbar) with a power table.
The bivariate powers are built with the window-ratio axis innermost, so
each shifted add is one long vector loop rather than many loops of at
most m+1 floats; the result keeps the ratio axis first.
"""

from dataclasses import dataclass
from functools import lru_cache
import math
from typing import Callable, Optional

import numpy as np

from .base import _finite, check_count

__all__ = [
    "Pmf",
    "BivariatePmfFamily",
    "CppModel",
    "conv_powers",
    "bivar_powers",
    "poisson_table",
    "cpp_pmf",
    "gauss_legendre_01",
    "gauss_legendre_panels",
    "pbar_theory",
    "iid_model",
    "max_ar_family",
    "geometric_pi",
]

# default support cap for constructed cluster size distributions
SUPPORT_CAP = 40


@dataclass(frozen=True)
class Pmf:
    """Weights on the integers 0..weights.size-1 with tracked truncated tail mass.

    ``weights[v]`` is the mass at value ``v``; a distribution on {1, 2, ...}
    simply stores 0 at index 0.  ``trunc_mass`` is the mass known to lie past
    the last weight; where it is positive, :meth:`head` reads no further.
    """

    weights: np.ndarray
    trunc_mass: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("pmf weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(w) & (w >= -1e-15)):
            raise ValueError("pmf weights must be finite and non-negative")
        if w.sum() > 1.0 + 1e-12:
            raise ValueError(f"pmf weights sum to {w.sum()} > 1")
        if not _finite("trunc_mass", self.trunc_mass) >= 0:
            raise ValueError(f"trunc_mass must be >= 0, got {self.trunc_mass}")

    def head(self, m):
        """A copy of the weights on 0..m, zero past a support that truncates
        nothing; an m past the support of a pmf that truncates mass is refused."""
        m = check_count("m", m, 0)
        support_max = self.weights.size - 1
        if m > support_max and self.trunc_mass > 0:
            raise ValueError(f"m={m} reads past the support 0..{support_max} of a pmf "
                             f"that truncates {self.trunc_mass:g} mass")
        return np.pad(self.weights[: m + 1], (0, max(0, m - support_max)))


@dataclass(frozen=True)
class BivariatePmfFamily:
    """Family sigma -> pi2_sigma of joint laws on J = {(i, j): i >= max(j, 1), j >= 0}.

    ``evaluator(sigma, i, j)`` returns pi2_sigma(i, j) and broadcasts over
    numpy arrays, so a scalar call gives one cell and :meth:`table` gets every
    cell of every table from one call.  Its values outside J are ignored:
    :meth:`table` sets those cells to zero.  The first coordinate is the
    cluster contribution to the longer window, the second to the shorter
    one, with sigma the window-length ratio in [0, 1].  Marginals over j must
    recover pi.  ``breakpoints`` lists the interior sigma values where the
    family is not smooth; quadratures over sigma integrate panel-wise between
    them.
    """

    evaluator: Callable
    breakpoints: tuple = ()

    def table(self, sigma, i_max):
        """Dense (i_max+1, i_max+1) arrays of pi2_sigma(i, j), zero outside J,
        with a leading axis for each axis of ``sigma``."""
        sigma = np.asarray(sigma, dtype=float)[..., None, None]
        if not np.all((sigma >= 0.0) & (sigma <= 1.0)):
            raise ValueError("sigma must lie in [0, 1]")
        j = np.arange(i_max + 1)
        i = j[:, None]
        return np.where(i >= np.maximum(j, 1), self.evaluator(sigma, i, j), 0.0)


@dataclass(frozen=True)
class CppModel:
    """Limit triple (theta, pi, pi2); pi2 is only needed by the covariance formulas."""

    theta: float
    pi: Pmf
    pi2: Optional[BivariatePmfFamily] = None

    def __post_init__(self):
        theta = _finite("theta", self.theta)
        if not 0.0 < theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {theta}")
        object.__setattr__(self, "theta", theta)
        if not isinstance(self.pi, Pmf):
            raise ValueError(f"pi must be a Pmf, got {type(self.pi).__name__}")
        if self.pi2 is not None and not isinstance(self.pi2, BivariatePmfFamily):
            raise ValueError(f"pi2 must be a BivariatePmfFamily or None, got {type(self.pi2).__name__}")
        # the power tables stop at k <= m, which needs clusters of size >= 1
        if self.pi.weights[0] != 0.0:
            raise ValueError(f"cluster sizes start at 1, but pi(0) = {self.pi.weights[0]}")


def conv_powers(pi, m):
    """P[k, v] = pi^{*k}(v) for k, v in 0..m.

    Mass only moves upward (pi(0) = 0), so truncating every power at m stays
    exact; :meth:`Pmf.head` refuses an m past a support that truncates mass.
    """
    m = check_count("m", m, 0)
    w = pi.head(m)
    P = np.zeros((m + 1, m + 1))
    P[0, 0] = 1.0
    for k in range(1, m + 1):
        P[k] = np.convolve(P[k - 1], w)[: m + 1]
    return P


def bivar_powers(family, sigma, m):
    """B[i, k, r, x] = pi2_{sigma[i]}^{*k}(r, x) for k, r, x in 0..m.

    As in :func:`conv_powers`, power k adds power k-1 shifted by each cell
    (r, x) of J and scaled by its mass, cut at m.  The adds run on two
    (m+1, m+1, sigma) slabs, powers k-1 and k, with the sigma axis
    innermost, so every add is one long vector loop; each finished slab is
    copied into B[:, k].  Memory is O(result): B, the pi2 tables and the two
    slabs, with no operator over pairs of cells.  At m=5 on 128 nodes in
    each of the 34 panels of the geometric alpha=0.5 family a call took
    23 ms, against 89 ms with sigma outermost (in-process minima of 9
    calls, 2-vCPU host; ``BENCH_26.json``).
    """
    m = check_count("m", m, 0)
    T = np.moveaxis(family.table(sigma, m), 0, -1).copy()
    B = np.zeros((T.shape[-1], m + 1, m + 1, m + 1))
    B[:, 0, 0, 0] = 1.0
    cur, prev = np.zeros((2, m + 1, m + 1, T.shape[-1]))
    prev[0, 0] = 1.0
    cells = [(r, x) for r in range(1, m + 1) for x in range(r + 1)]
    for k in range(1, m + 1):
        cur.fill(0.0)
        for r, x in cells:
            cur[r:, x:] += T[r, x] * prev[: m + 1 - r, : m + 1 - x]
        B[:, k] = np.moveaxis(cur, -1, 0)
        cur, prev = prev, cur
    return B


def poisson_table(lam, k_max):
    """out[k, ...] = exp(-lam) lam^k / k! for k in 0..k_max, broadcast over lam."""
    k_max = check_count("k_max", k_max, 0)
    lam = np.asarray(lam, dtype=float)
    out = np.empty((k_max + 1,) + lam.shape)
    out[0] = np.exp(-lam)
    for k in range(1, k_max + 1):
        out[k] = out[k - 1] * lam / k
    return out


def cpp_pmf(model, tau, m_max):
    """Law of the exceedance count N_tau ~ CPP(theta*tau, pi) on 0..m_max."""
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    m_max = check_count("m_max", m_max, 0)
    w = poisson_table(model.theta * _finite("tau", tau), m_max) @ conv_powers(model.pi, m_max)
    return Pmf(w, trunc_mass=max(0.0, 1.0 - w.sum()))


def pbar_theory(model, m_max):
    """pbar(m) = sum_{j<=m} 2^{-(j+1)} pi^{*j}(m) for m = 1..m_max.

    The returned weights are indexed by m with index 0 unused: pbar(0) =
    int exp(-theta*tau) theta exp(-theta*tau) dtau = 1/2 for every model.
    """
    m_max = check_count("m_max", m_max, 0)
    w = 0.5 ** np.arange(1, m_max + 2) @ conv_powers(model.pi, m_max)
    w[0] = 0.0
    return Pmf(w, trunc_mass=max(0.0, 0.5 - w.sum()))


def _legendre_pair(n, d):
    """P_n, P_{n-1} and P_n - P_{n-1} at x = 1 - d.

    The three-term recurrence runs on the differences P_k - P_{k-1}, so the
    values keep their relative accuracy near x = 1, where x itself has
    rounded away the low digits of d.
    """
    prev, cur, diff = np.ones_like(d), 1.0 - d, -d
    for k in range(1, n):
        diff = (k * diff - (2 * k + 1) * d * cur) / (k + 1)
        prev, cur = cur, cur + diff
    return cur, prev, diff


@lru_cache(maxsize=32)
def gauss_legendre_01(n):
    """Gauss-Legendre nodes and weights on (0, 1), cached per n and read-only.

    The nodes x = cos(theta) >= 0 of P_n come from Newton steps in theta,
    started at pi (4k - 1) / (4n + 2); the others follow by symmetry.  The
    weights 2 sin(theta)^2 / (n P_{n-1}(x))^2 are scaled to sum to 2 on
    (-1, 1).  Working in theta and in d = 1 - x = 2 sin(theta/2)^2 avoids
    the cancellation in 1 - x^2 near the ends.

    For n up to 1024 the rule on (0, 1) agrees with
    scipy.special.roots_legendre within 2.3e-16 in the nodes and 6.7e-14 in
    the weights.  Most of that is scipy's error near the ends: against
    50-digit values (n <= 128) these weights are within 2e-16 on (0, 1),
    scipy's within 1.3e-14.
    """
    n = check_count("n", n, 1)
    theta = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    for _ in range(10):  # from this start 4 steps suffice, n = 1..4096
        d = 2.0 * np.sin(theta / 2.0) ** 2
        p, _, diff = _legendre_pair(n, d)
        step = p * np.sin(theta) / (n * (diff - d * p))  # P_n / (d P_n / d theta)
        theta = theta - step
        if np.max(np.abs(step)) < 1e-14:
            break
    q = _legendre_pair(n, 2.0 * np.sin(theta / 2.0) ** 2)[1]
    w = 2.0 * np.sin(theta) ** 2 / (n * q) ** 2
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # the middle node
    x = np.concatenate((-x, x[::-1][n % 2 :]))
    w = np.concatenate((w, w[::-1][n % 2 :]))
    u, wu = (x + 1.0) / 2.0, w / w.sum()
    u.flags.writeable = wu.flags.writeable = False  # shared by every caller through the cache
    return u, wu


def gauss_legendre_panels(n, knots):
    """Composite Gauss-Legendre rule on (0, 1) split at interior knots.

    ``n`` nodes per panel; with no knots the one panel (0, 1) gives the
    floats of :func:`gauss_legendre_01`.  Splitting restores geometric
    convergence when the integrand is smooth between the knots but kinked
    at them.
    """
    knots = np.asarray(knots, dtype=float)
    if np.any(knots <= 0.0) or np.any(knots >= 1.0) or np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing inside (0, 1)")
    edges = np.concatenate(([0.0], knots, [1.0]))
    x0, w0 = gauss_legendre_01(n)
    widths = np.diff(edges)
    x = (edges[:-1, None] + widths[:, None] * x0[None, :]).ravel()
    w = (widths[:, None] * w0[None, :]).ravel()
    return x, w


def iid_model():
    """The independent-series limit: theta = 1, pi = delta_1.

    The bivariate family puts mass 1-sigma on (1, 0) and sigma on (1, 1): a
    lone exceedance falls into the shared window piece with probability
    sigma.
    """

    def evaluator(sigma, i, j):
        return np.where(i == 1, np.where(j == 0, 1.0 - sigma, sigma), 0.0)

    pi = Pmf(np.array([0.0, 1.0]))
    return CppModel(theta=1.0, pi=pi, pi2=BivariatePmfFamily(evaluator))


def max_ar_family(alpha):
    """Two-level cluster family of the max-autoregressive process.

    A cluster is the geometric run alpha^k * P, k >= 0, hanging off a
    Pareto peak P.  Measuring the peak overshoot of the base threshold in
    log(1/alpha) units gives a tail P(W > w) = alpha^w; the cluster size at
    the base level is ceil(W) and at the higher level max(ceil(W - delta), 0)
    with the gap delta = log(sigma)/log(alpha), so alpha^delta = sigma.
    Both count marginals are geometric, a cluster survives to the higher
    level with probability exactly sigma, and alpha = 0 reduces to the
    independent-series family.  The cells are smooth in sigma except where
    the gap crosses an integer, i.e. at sigma = alpha^k; those points are
    published as quadrature breakpoints.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if alpha == 0.0:
        return iid_model().pi2

    def evaluator(sigma, i, j):
        with np.errstate(divide="ignore"):
            delta = np.log(sigma) / math.log(alpha)  # +inf at sigma = 0
        lo = np.where(j == 0, i - 1, np.maximum(i - 1, delta + j - 1))
        hi = np.minimum(i, delta + j)
        return np.maximum(0.0, alpha**lo - alpha**hi)

    knots = []
    power = alpha
    while power > 1e-10:
        knots.append(power)
        power *= alpha
    return BivariatePmfFamily(evaluator, breakpoints=tuple(sorted(knots)))


def geometric_pi(alpha, m_max=SUPPORT_CAP):
    """pi(m) = (1-alpha) alpha^{m-1}, the cluster law of the max-AR model.

    ``alpha = 0`` gives the point mass at 1.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    m_max = check_count("m_max", m_max, 0)
    m = np.arange(m_max + 1, dtype=float)
    w = np.zeros(m_max + 1)
    w[1:] = (1.0 - alpha) * alpha ** (m[1:] - 1.0)
    return Pmf(w, trunc_mass=alpha**m_max)
