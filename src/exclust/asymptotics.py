"""Limit covariances of the block-maxima cluster size estimators.

Scaled block thresholds converge to an Exp(theta) law H, and both block
schemes lead to covariance matrices of the form

    d(j, j') = integral of Cov(K_j(tau), K_j'(tau')) dH(tau) dH(tau'),

where K_j couples an exceedance-count indicator with its smoothed
counterpart through the block's own threshold.  For disjoint blocks the
threshold integrals reduce to one-dimensional quadratures after scaling
one threshold by the other; for sliding blocks the window overlap adds an
outer integral over the overlap fraction xi.  Its product rule (overlap)
x (window ratio) x (threshold) writes each Poisson term of a private piece
as exp(-xi lam) xi^k times the xi-free lam^k / k!, sums the overlap axis
by one matrix product per threshold node, and contracts the xi-free law
of the windows' shared piece once.

All integrals over (0, infinity) are mapped to (0, 1) through the
substitution u = H(tau), and every sum over cluster counts is finite and
exact because k-fold convolutions of cluster laws vanish below k.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .base import _finite, _integral, check_count
from .cpmodel import (
    bivar_powers,
    conv_powers,
    cpp_pmf,
    gauss_legendre_01,
    gauss_legendre_panels,
    pbar_theory,
    poisson_table,
)
from .errors import NumericFailureError, UnsupportedModelError

__all__ = [
    "QuadratureSpec",
    "CovMatrix",
    "sigma_db",
    "sigma_sb",
    "recursion_matrix",
    "gamma",
    "theta_asymp_var",
    "mu2_robert",
    "robert_crossover",
    "sliding_process_cov",
    "disjoint_process_var",
    "cpp_pmf_dtau",
]

_COV_KINDS = ("sigma_db", "sigma_sb", "gamma_db", "gamma_sb")

# input pmfs must carry essentially all their mass below the support cap
_TRUNC_TOL = 1e-8


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre resolution plus a node-doubling stability check."""

    nodes_1d: int = 64
    refinement: bool = True
    tolerance: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "nodes_1d", check_count("nodes_1d", self.nodes_1d, 8))
        object.__setattr__(self, "tolerance", _finite("tolerance", self.tolerance))
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric limit covariance matrix for counts 1..m."""

    m: int
    entries: np.ndarray
    kind: str

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", ent)
        if self.kind not in _COV_KINDS:
            raise ValueError(f"kind must be one of {_COV_KINDS}, got {self.kind!r}")
        if ent.shape != (self.m, self.m):
            raise ValueError(f"entries must be {self.m}x{self.m}, got {ent.shape}")
        if ent.size and np.max(np.abs(ent - ent.T)) > 1e-10:
            raise ValueError("covariance entries are not symmetric")
        if ent.size and np.min(np.diag(ent)) < -1e-8:
            raise ValueError("covariance diagonal is negative beyond noise floor")


def _require_family(model):
    if model.pi2 is None:
        raise UnsupportedModelError(
            "the covariance integrals need the bivariate cluster family pi2"
        )
    if model.pi.trunc_mass > _TRUNC_TOL:
        raise ValueError(
            f"cluster size pmf truncates {model.pi.trunc_mass:g} mass; "
            "extend its support before evaluating covariances"
        )


def _refined(quad, evaluate):
    """Run `evaluate` at nodes_1d, optionally re-run at double resolution.

    Raises if doubling moves any entry by at least the tolerance.
    """
    coarse = np.asarray(evaluate(quad.nodes_1d))
    if not quad.refinement:
        return coarse
    fine = np.asarray(evaluate(2 * quad.nodes_1d))
    delta = float(np.max(np.abs(fine - coarse))) if fine.size else 0.0
    if delta >= quad.tolerance:
        raise NumericFailureError(
            "quadrature did not stabilize under node doubling", delta=delta
        )
    return fine


def _shift_add(Q, BT, m):
    """out[e + x, d + r] = sum over s, k of Q[e, s, d, k] BT[s, k, r, x], for
    index sums <= m: one GEMM over (s, k), then (e, d) shifted adds."""
    E, S, D, K = Q.shape
    R, X = BT.shape[2:]
    T = Q.transpose(0, 2, 1, 3).reshape(E * D, S * K) @ BT.reshape(S * K, R * X)
    T = T.reshape(E, D, R, X)
    out = np.zeros((m + 1, m + 1))
    for e, d in np.ndindex(min(E, m + 1), min(D, m + 1)):
        out[e : e + X, d : d + R] += T[e, d, : m + 1 - d, : m + 1 - e].T
    return out


def cpp_pmf_dtau(model, tau, m_max):
    """Derivative in tau of the window-length-tau count pmf, for 0..m_max.

    d/dtau p^(tau)(j) = sum_{l>=1} theta [Pois_{l-1} - Pois_l](theta tau)
    pi^{*l}(j) - theta Pois_0(theta tau) 1(j = 0).  ``tau`` may be an array;
    the count axis comes first, out[j, ...].
    """
    th = model.theta
    pois = poisson_table(th * np.asarray(tau, dtype=float), m_max)
    M = conv_powers(model.pi, m_max)
    out = th * np.einsum("l...,lv->v...", pois[:-1] - pois[1:], M[1:])
    out[0] -= th * pois[0]
    return out


# ---------------------------------------------------------------------------
# disjoint blocks
# ---------------------------------------------------------------------------

def _sigma_db_entries(model, m, nodes):
    """Entries d(j, j') for the disjoint-blocks scheme.

    The kernel splits into four cross moments.  Scaling the inner threshold
    (or the indicator-smooth coupling level) by the outer one turns every
    dH x dH integral into Gamma integrals in the outer threshold, which have
    closed forms; only rational functions of the scale ratio s remain to be
    integrated numerically, panel-wise between the family's breakpoints.
    """
    s, w = gauss_legendre_panels(nodes, model.pi2.breakpoints)
    M = conv_powers(model.pi, m)
    pbar = pbar_theory(model, m).weights[1:]
    BT = bivar_powers(model.pi2, s, m)

    # indicator-indicator: counts of one block at two threshold levels, in
    # either order, so BT is contracted once and its transpose added
    k = np.arange(m + 1)
    wk = (k + 1) / (2.0 + s[:, None]) ** (k + 2)
    t_ind = np.einsum("t,tk,tkab->ab", w, wk, BT)[1:, 1:]

    # indicator-smooth: integration by parts in the smooth coordinate, with
    # the level-mu tail law Pois_k(theta tau) B_{mu/tau}^{*k}(j, 0); G[t, k, l]
    # and C[k, l] below are binomial C(k + l, k) times powers of s, 2 + s, 3
    kk, binom = k[:, None], np.array([[comb(a + c, a) for c in k] for a in k], dtype=float)
    ss = s[:, None, None]
    G = np.where(k > 0, binom * ss ** (k - 1) * (k - (kk + k + 1) * ss / (2.0 + ss))
                 / (2.0 + ss) ** (kk + k + 1), 0.0)
    t_mix = np.einsum("t,tkj,tkl,lp->jp", w, BT[:, :, :, 0], G, M)[1:, 1:]

    # smooth-smooth: shared threshold, fully closed form
    C = np.where((kk > 0) & (k > 0), binom / 3.0 ** (kk + k + 1), 0.0)
    t_zz = np.einsum("kj,lp,kl->jp", M, M, C)[1:, 1:]

    return t_ind + t_ind.T + t_mix + t_mix.T + t_zz - 4.0 * np.outer(pbar, pbar)


def _sigma(model, m, quad, entries, kind):
    """The CovMatrix of ``kind`` from ``entries(model, m, nodes)``, refined."""
    m = check_count("m", m, 1)
    quad = quad if quad is not None else QuadratureSpec()
    _require_family(model)
    return CovMatrix(m=m, entries=_refined(quad, lambda n: entries(model, m, n)), kind=kind)


def sigma_db(model, m, quad=None):
    """Limit covariance of the disjoint-blocks estimates (pbar(1)..pbar(m))."""
    return _sigma(model, m, quad, _sigma_db_entries, "sigma_db")


# ---------------------------------------------------------------------------
# sliding blocks
# ---------------------------------------------------------------------------

def _sigma_sb_entries(model, m, nodes):
    """Entries d(j, j') for the sliding-blocks scheme.

    For overlap fraction xi, two windows split into an xi-long private piece
    each plus a shared piece; the six cross moments (indicator-indicator,
    two indicator-smooth, smooth-smooth) are assembled from count pmfs of
    the pieces on a (window ratio s) x (threshold u) grid and integrated
    against dH via u = H(tau).

    The indicator moments sum over s, u, xi, the shared piece's cluster
    count k and two count shifts.  On the private s*tau piece,
    Pois_k(xi lam) = exp(-xi lam) xi^k lam^k / k! (lam = theta s tau), and
    lam^k / k! does not depend on xi.  With S ratio and X overlap nodes,
    each threshold node u builds its own (S, X) table exp(-xi lam), shared
    piece table Y[xi, (d, k)] and xi-free weights, then sums the overlap
    axis by one GEMM with xw xi^k Y and S*(2m+1)*(m+1)^2 weighted adds.
    Doubling the nodes at m=3 made each u 2.1-2.6x dearer (iid, S = 64 to
    128: 0.13-0.16 to 0.29-0.40 ms; geometric alpha=0.5, S = 816 to 1632:
    0.62-0.75 to 1.5-2.0 ms; 2-vCPU host): the adds grow linearly, the
    table and GEMM quadratically.  ``gd``, ``e1`` and ``p_y`` stay whole
    grids, so the peak still grows about like the square of the nodes: the
    einsums after the loop read them whole, and splitting those per u
    would change their summation order.  `_shift_add` contracts the sums Q
    with the bivariate powers BT once at the end.
    """
    th = model.theta
    s, sw = gauss_legendre_panels(nodes, model.pi2.breakpoints)
    u, uw = gauss_legendre_01(nodes)
    xi, xiw = gauss_legendre_01(nodes)
    tau = -np.log1p(-u) / th

    M = conv_powers(model.pi, m)
    pbar = pbar_theory(model, m).weights[1:]
    pp = np.outer(pbar, pbar)
    BT = bivar_powers(model.pi2, s, m)

    # derivative of the count pmf at window length s*tau resp. tau, count first
    gd = cpp_pmf_dtau(model, np.outer(s, tau), m)[1:]
    gd1 = cpp_pmf_dtau(model, tau, m)[1:]

    # closed-form tail of the indicator-smooth mu-integral beyond mu = tau;
    # at integer l the regularized upper incomplete gamma Q(l, z) is the
    # Poisson(z) probability of fewer than l events, upper[l - 1]
    tail = np.zeros((nodes, m))
    upper = np.cumsum(poisson_table(2.0 * th * tau, m), axis=0)
    for ll in range(1, m + 1):
        coef = upper[ll - 1] / 2.0**ll - upper[ll] / 2.0 ** (ll + 1)
        tail += np.outer(coef, M[ll, 1 : m + 1])

    # count d on the xi*tau private piece, p_y[d, xi, u]
    p_y = np.einsum("kd,kxu->dxu", M, poisson_table(th * np.outer(xi, tau), m))
    xpow = xiw[:, None] * xi[:, None] ** np.arange(m + 1)  # xw xi^k

    # per u, one GEMM sums the overlap axis; the xi-free weights then sum u
    Ra = np.zeros((s.size, m + 1, (m + 1) ** 2))
    Rb = np.zeros((s.size, m, (m + 1) ** 2))
    e1 = np.empty((s.size, u.size))
    for iu in range(u.size):
        lam = th * (s * tau[iu])
        w = sw * uw[iu] * tau[iu]
        # k clusters in the shared piece: Y[xi, (d, k)]
        Y = p_y[:, None, :, iu] * poisson_table(th * ((1 - xi) * tau[iu]), m)
        Y = Y.reshape(-1, xi.size).T
        E = np.exp(-np.outer(lam, xi))
        G = E @ (xpow[:, :, None] * Y[:, None, :]).reshape(xi.size, -1)
        G = G.reshape(s.size, m + 1, -1)
        # xi-free weights: indicator-indicator with the private piece's
        # exp(-lam) lam^k / k!, and indicator-smooth below mu = tau
        Ra += (poisson_table(lam, m) * (th * w)).T[:, :, None] * G
        Rb += (w * gd[:, :, iu]).T[:, :, None] * G[:, None, 0]
        e1[:, iu] = E @ xiw
    Qa = np.einsum("ke,skf->esf", M, Ra)
    Qb = Rb.transpose(1, 0, 2)

    # indicator-smooth beyond mu = tau, and smooth-smooth through the
    # bivariate exponential survival of the two thresholds
    inner2 = np.einsum("x,u,jxu,uv->jv", xiw, uw, p_y, tail)[1:, :]
    ecc = np.einsum("asu,su->au", gd, sw[:, None] * e1) @ (uw * gd1 * tau / th).T
    acc = inner2 + inner2.T + ecc + ecc.T - 4.0 * xiw.sum() * pp

    # the shared piece's bivariate law does not depend on xi: contract once
    Ja = _shift_add(Qa.reshape(m + 1, s.size, m + 1, m + 1), BT, m)
    Jb = _shift_add(Qb.reshape(m, s.size, m + 1, m + 1), BT[..., :1], m)[:m, 1:]
    acc += (Ja + Ja.T)[1:, 1:] + Jb + Jb.T
    return 2.0 * acc


def sigma_sb(model, m, quad=None):
    """Limit covariance of the sliding-blocks estimates (pbar(1)..pbar(m))."""
    return _sigma(model, m, quad, _sigma_sb_entries, "sigma_sb")


# ---------------------------------------------------------------------------
# propagation to pi and theta
# ---------------------------------------------------------------------------

def recursion_matrix(pi, pbar, m):
    """Linear map A with (v_1..v_m) = A (s_1..s_m) for the inversion recursion.

    Row j encodes v_j = 4 s_j - 2 sum_{k<j} pi(j-k) s_k
    - 2 sum_{k<j} pbar(j-k) v_k, unrolled to an explicit lower-triangular
    matrix.
    """
    m = check_count("m", m, 1)
    A = np.zeros((m, m))
    for j in range(1, m + 1):
        row = np.zeros(m)
        row[j - 1] = 4.0
        for k in range(1, j):
            row[k - 1] -= 2.0 * pi[j - k]
            row -= 2.0 * pbar[j - k] * A[k - 1]
        A[j - 1] = row
    return A


def gamma(sigma, A):
    """Covariance A Sigma A^T of the recursion-propagated estimates."""
    A = np.asarray(A, dtype=float)
    if A.shape != (sigma.m, sigma.m):
        raise ValueError(
            f"dimension mismatch: matrix is {A.shape}, covariance is m={sigma.m}"
        )
    kind = {"sigma_db": "gamma_db", "sigma_sb": "gamma_sb"}.get(sigma.kind)
    if kind is None:
        raise ValueError(f"gamma needs a sigma_db or sigma_sb input, got {sigma.kind}")
    ent = A @ sigma.entries @ A.T
    ent = 0.5 * (ent + ent.T)
    return CovMatrix(m=sigma.m, entries=ent, kind=kind)


def theta_asymp_var(gamma_cov, pi, m=None):
    """Limit variance {sum j pi(j)}^{-4} (1..m) Gamma (1..m)^T of theta-hat."""
    m = gamma_cov.m if m is None else _integral("m", m)
    if not 1 <= m <= gamma_cov.m:
        raise ValueError(f"m must lie in 1..{gamma_cov.m}, got {m}")
    denom = float(sum(j * pi[j] for j in range(1, m + 1)))
    if denom <= 0:
        raise ValueError("sum of j*pi(j) vanishes; theta variance undefined")
    j = np.arange(1, m + 1, dtype=float)
    return float(j @ gamma_cov.entries[:m, :m] @ j) / denom**4


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------

def mu2_robert(tau):
    """Closed-form variance e^tau (tau + (1-tau)^2 - e^{-tau}) of the
    multilevel-threshold estimator at block-scale tau."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return float(np.exp(tau) * (tau + (1.0 - tau) ** 2 - np.exp(-tau)))


def robert_crossover(variance, bracket=(1e-8, 50.0)):
    """Block-scale tau at which mu2_robert first exceeds `variance`.

    mu2_robert is strictly increasing, so the crossing is unique, and a
    bisection halves the bracket until it is at most 1e-12 wide (46 steps
    from the default bracket) or no float lies between its ends.
    """
    lo, hi = bracket
    if not mu2_robert(lo) < variance < mu2_robert(hi):
        raise ValueError(f"variance {variance:g} is not bracketed by {bracket}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mu2_robert(mid) < variance:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def disjoint_process_var(model, tau, j):
    """Variance p(1 - p) of the disjoint-blocks empirical process at (tau, j)."""
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    j = check_count("j", j, 0)
    p = cpp_pmf(model, tau, j)[j]
    return p * (1.0 - p)


def sliding_process_cov(model, tau, tau_prime, j, j_prime, quad=None):
    """Limit covariance of the sliding-blocks empirical process at
    ((tau, j), (tau_prime, j_prime)), for 0 <= tau <= tau_prime.

    Two unit-length windows at lag xi are split into private and shared
    pieces; the joint count pmf is integrated over xi in (0, 1).
    """
    if not 0 <= tau <= tau_prime:
        raise ValueError(f"need 0 <= tau <= tau_prime, got ({tau}, {tau_prime})")
    j, j_prime = check_count("j", j, 0), check_count("j_prime", j_prime, 0)
    quad = quad if quad is not None else QuadratureSpec()
    _require_family(model)
    if tau_prime == 0:
        return 0.0

    th = model.theta
    m = max(j, j_prime, 1)
    M = conv_powers(model.pi, m)
    BT = bivar_powers(model.pi2, [tau / tau_prime], m)

    def evaluate(nodes):
        xi, xiw = gauss_legendre_01(nodes)
        p_x = M.T @ poisson_table(th * xi * tau, m)
        p_y = M.T @ poisson_table(th * xi * tau_prime, m)
        pois_s = poisson_table(th * (1 - xi) * tau_prime, m)
        Y = (p_y[:, None] * pois_s).reshape(-1, xi.size)
        Q = (p_x * xiw) @ Y.T
        return _shift_add(Q.reshape(m + 1, 1, m + 1, m + 1), BT, m)[j, j_prime]

    overlap = _refined(quad, evaluate)
    pj = cpp_pmf(model, tau, j)[j]
    pjp = cpp_pmf(model, tau_prime, j_prime)[j_prime]
    return float(2.0 * overlap - 2.0 * pj * pjp)
