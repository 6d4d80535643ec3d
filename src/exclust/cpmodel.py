"""Compound Poisson limit machinery.

The cluster size distribution pi, its convolution powers, the block
exceedance-count laws

    p_tau(0) = exp(-theta*tau),
    p_tau(m) = sum_{j=1..m} exp(-theta*tau) (theta*tau)^j / j! * pi^{*j}(m),

their bivariate extension p2 for two nested time windows, and the mixture

    pbar(m) = int_0^inf p_tau(m) theta exp(-theta*tau) dtau
            = sum_{j=1..m} 2^{-(j+1)} pi^{*j}(m)

that the block estimators target.  Everything is exact finite arithmetic on
truncated supports; truncation mass is tracked so downstream quadrature can
assert it is negligible.

Three primitives carry the algebra: the power table pi^{*k}(v), its
bivariate counterpart for pi2, and the Poisson table.  The count laws, pbar
and the covariance integrands in ``asymptotics`` each contract a row of
weights over k (Poisson, or 2^{-(k+1)} for pbar) with a power table.
"""

from dataclasses import dataclass
from functools import lru_cache
import math
from typing import Callable, Optional

import numpy as np
from scipy.special import roots_legendre

from .errors import UnsupportedModelError

__all__ = [
    "Pmf",
    "BivariatePmfFamily",
    "CppModel",
    "PBAR_AT_ZERO",
    "conv_powers",
    "bivar_powers",
    "poisson_table",
    "cpp_pmf",
    "gauss_legendre_01",
    "gauss_legendre_panels",
    "pbar_theory",
    "pbar_integral_oracle",
    "cpp2_pmf",
    "iid_model",
    "max_ar_family",
    "geometric_pi",
]

# pbar(0) = int exp(-theta*tau) theta exp(-theta*tau) dtau = 1/2 for every model
PBAR_AT_ZERO = 0.5

# default support cap for constructed cluster size distributions
SUPPORT_CAP = 40


@dataclass(frozen=True)
class Pmf:
    """Weights on the integers 0..support_max with tracked truncated tail mass.

    ``weights[v]`` is the mass at value ``v``; a distribution on {1, 2, ...}
    simply stores 0 at index 0.  ``trunc_mass`` is the probability known to
    lie beyond ``support_max`` (or lost to upstream truncation).
    """

    weights: np.ndarray
    trunc_mass: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("pmf weights must be a non-empty 1-d array")
        if np.any(w < -1e-15):
            raise ValueError("pmf weights must be non-negative")
        if w.sum() > 1.0 + 1e-12:
            raise ValueError(f"pmf weights sum to {w.sum()} > 1")

    @property
    def support_max(self):
        return self.weights.size - 1

    def __getitem__(self, m):
        if 0 <= m <= self.support_max:
            return float(self.weights[m])
        return 0.0


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
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        # the power tables stop at k <= m, which needs clusters of size >= 1
        if self.pi[0] != 0.0:
            raise ValueError(f"cluster sizes start at 1, but pi(0) = {self.pi[0]}")


def conv_powers(pi, m):
    """P[k, v] = pi^{*k}(v) for k, v in 0..m.

    Mass only moves upward (pi(0) = 0), so truncating every power at m
    stays exact.
    """
    head = pi.weights[: m + 1]
    w = np.zeros(m + 1)
    w[: head.size] = head
    P = np.zeros((m + 1, m + 1))
    P[0, 0] = 1.0
    for k in range(1, m + 1):
        P[k] = np.convolve(P[k - 1], w)[: m + 1]
    return P


@lru_cache(maxsize=None)
def _shift_index(m):
    """idx[(r, x), (r', x')] = flat index of (r - r', x - x') in an
    (m+1) x (m+1) table, or (m+1)^2 (a zero column) for negative shifts."""
    r, x = np.divmod(np.arange((m + 1) ** 2), m + 1)
    dr, dx = np.subtract.outer(r, r), np.subtract.outer(x, x)
    idx = np.where((dr >= 0) & (dx >= 0), dr * (m + 1) + dx, (m + 1) ** 2)
    idx.flags.writeable = False  # shared by every caller through the cache
    return idx


def bivar_powers(family, sigma, m):
    """B[i, k, r, x] = pi2_{sigma[i]}^{*k}(r, x) for k, r, x in 0..m.

    Each power is one batched matrix product with the block-Toeplitz
    operator K[(r, x), (r', x')] = pi2(r - r', x - x'), zero for negative
    shifts.
    """
    F = (m + 1) ** 2
    tables = family.table(sigma, m).reshape(-1, F)
    flat = np.zeros((len(tables), F + 1))  # the last column stays zero
    flat[:, :F] = tables
    K = flat[:, _shift_index(m)]
    B = np.zeros((len(flat), m + 1, F, 1))
    B[:, 0, 0] = 1.0
    B[:, 1:2, :, 0] = flat[:, None, :F]  # K @ B[:, 0] would copy it bit for bit
    for k in range(2, m + 1):
        B[:, k] = K @ B[:, k - 1]
    return B.reshape(len(flat), m + 1, m + 1, m + 1)


def poisson_table(lam, k_max):
    """out[k, ...] = exp(-lam) lam^k / k! for k in 0..k_max, broadcast over lam."""
    lam = np.asarray(lam, dtype=float)
    out = np.empty((k_max + 1,) + lam.shape)
    out[0] = np.exp(-lam)
    for k in range(1, k_max + 1):
        out[k] = out[k - 1] * lam / k
    return out


def cpp_pmf(model, tau, m_max):
    """Law of the exceedance count N_tau ~ CPP(theta*tau, pi) on 0..m_max."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    w = poisson_table(model.theta * tau, m_max) @ conv_powers(model.pi, m_max)
    return Pmf(w, trunc_mass=max(0.0, 1.0 - w.sum()))


def pbar_theory(model, m_max):
    """pbar(m) = sum_{j<=m} 2^{-(j+1)} pi^{*j}(m) for m = 1..m_max.

    The returned weights are indexed by m with index 0 unused (pbar(0) = 1/2
    is the module constant PBAR_AT_ZERO).
    """
    w = 0.5 ** np.arange(1, m_max + 2) @ conv_powers(model.pi, m_max)
    w[0] = 0.0
    return Pmf(w, trunc_mass=max(0.0, 0.5 - w.sum()))


def gauss_legendre_01(n):
    """Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


def gauss_legendre_panels(n, knots):
    """Composite Gauss-Legendre rule on (0, 1) split at interior knots.

    ``n`` nodes per panel; with no knots this is :func:`gauss_legendre_01`.
    Splitting restores geometric convergence when the integrand is smooth
    between the knots but kinked at them.
    """
    knots = np.asarray(knots, dtype=float)
    if knots.size == 0:
        return gauss_legendre_01(n)
    if np.any(knots <= 0.0) or np.any(knots >= 1.0) or np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing inside (0, 1)")
    edges = np.concatenate(([0.0], knots, [1.0]))
    x0, w0 = gauss_legendre_01(n)
    widths = np.diff(edges)
    x = (edges[:-1, None] + widths[:, None] * x0[None, :]).ravel()
    w = (widths[:, None] * w0[None, :]).ravel()
    return x, w


def pbar_integral_oracle(model, m_max, nodes_1d=1024):
    """pbar via direct quadrature of int p_tau(m) dH(tau), H = Exp(theta) c.d.f.

    Independent cross-check of :func:`pbar_theory`: substituting
    u = 1 - exp(-theta*tau) turns the integral into int_0^1 p_{tau(u)}(m) du,
    evaluated by Gauss-Legendre.  The log singularity of tau(u) at u = 1
    slows convergence to roughly one digit per node doubling; the default
    reaches ~3e-10 even for theta = 1, inside the 1e-8 agreement contract.
    """
    u, wq = gauss_legendre_01(nodes_1d)
    tau = -np.log1p(-u) / model.theta
    acc = np.zeros(m_max + 1)
    for ui, wi in zip(tau, wq):
        acc += wi * cpp_pmf(model, ui, m_max).weights
    acc[0] = 0.0
    return Pmf(acc, trunc_mass=max(0.0, 0.5 - acc.sum()))


def cpp2_pmf(model, tau1, tau2, i_max):
    """Joint law p2^{(tau1,tau2)}(i, j) of the counts over two nested windows.

    Requires tau1 >= tau2 >= 0 and tau1 > 0; the first index belongs to the
    longer window.  Returns an (i_max+1, i_max+1) array with the (0, 0) cell
    equal to exp(-theta*tau1) and zeros outside J.
    """
    if model.pi2 is None:
        raise UnsupportedModelError(
            "model has no bivariate cluster family pi2; supply one to evaluate joint laws"
        )
    if not (tau1 >= tau2 >= 0.0) or tau1 <= 0.0:
        raise ValueError(f"need tau1 >= tau2 >= 0 and tau1 > 0, got ({tau1}, {tau2})")
    pois = poisson_table(model.theta * tau1, i_max)
    B = bivar_powers(model.pi2, [tau2 / tau1], i_max)[0]
    return (pois @ B.reshape(i_max + 1, -1)).reshape(i_max + 1, i_max + 1)


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
    m = np.arange(m_max + 1, dtype=float)
    w = np.zeros(m_max + 1)
    w[1:] = (1.0 - alpha) * alpha ** (m[1:] - 1.0)
    return Pmf(w, trunc_mass=alpha**m_max)
