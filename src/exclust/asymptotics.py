"""Limit covariances of the block-maxima cluster size estimators.

Scaled block thresholds converge to an Exp(theta) law H, and both block
schemes lead to covariance matrices of the form

    d(j, j') = integral of Cov(K_j(tau), K_j'(tau')) dH(tau) dH(tau'),

where K_j couples an exceedance-count indicator with its smoothed
counterpart through the block's own threshold.  For disjoint blocks the
threshold integrals reduce to one-dimensional quadratures after scaling
one threshold by the other; for sliding blocks the window overlap adds an
outer integral over the overlap fraction xi.  Every factor of its
integrand that depends on the window ratio s is a polynomial in
c = theta s times the kernel exp(-c tau (1 + xi)), so the threshold and
overlap axes are summed together, by one matrix product per tile of
window ratios and chunk of threshold nodes against a few columns per
cluster count, and the xi-free law of the windows' shared piece is
contracted once.  A tile holds at most `_TILE_ROWS` window ratios and a
chunk as many threshold nodes as fit `_CHUNK_BYTES` next to one tile, in
two buffers allocated once per call: at m=3 a geometric call at 128 nodes
took half the time of one fresh table of all window ratios per node
(``BENCH_26.json``).

All integrals over (0, infinity) are mapped to (0, 1) through the
substitution u = H(tau), and every sum over cluster counts is finite and
exact because k-fold convolutions of cluster laws vanish below k.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial
from typing import Optional

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

# bytes of one chunk of threshold nodes in `_sigma_sb_entries`: its kernel
# tile exp(-c a) and the right factor Z of the GEMM.  A chunk holds at least
# one node, so the budget is exceeded where one node needs more, 8 X (rows +
# cols) bytes for X overlap nodes: at m=3 (cols = 82), fine passes above
# about 325 nodes for iid (rows = S = X) and 388 where rows = 256
_CHUNK_BYTES = 1 << 20

# window-ratio rows of one kernel tile in `_sigma_sb_entries`
_TILE_ROWS = 256

# most table memory a covariance pass may hold (see `_table_bytes`)
_TABLE_BYTES = 256 << 20


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
    """Symmetric limit covariance matrix for counts 1..m.

    ``quadrature`` is what the quadrature of `sigma_db`/`sigma_sb` reached:
    ``nodes``, the node counts run, and under refinement ``delta``, the
    largest change on doubling, and ``entry``, the (j, j') counts of the
    entry that moved most (both None without refinement).  It is None on
    matrices built otherwise, and equality ignores it.
    """

    m: int
    entries: np.ndarray
    kind: str
    quadrature: Optional[dict] = field(default=None, compare=False)

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
    """Refuse a model without pi2; `conv_powers` checks how far pi may be read."""
    if model.pi2 is None:
        raise UnsupportedModelError(
            "the covariance integrals need the bivariate cluster family pi2"
        )


def _refined(quad, evaluate):
    """Run `evaluate` at nodes_1d, optionally re-run at double resolution.

    Returns the last run's value and what the quadrature reached: the node
    counts run, and under refinement the largest change delta and the
    (j, j') counts, from 1, of the entry that moved most (empty for a
    scalar).  Raises, naming the same, if delta reaches the tolerance.
    """
    coarse = np.asarray(evaluate(quad.nodes_1d))
    if not quad.refinement:
        return coarse, {"nodes": (quad.nodes_1d,), "delta": None, "entry": None}
    nodes = (quad.nodes_1d, 2 * quad.nodes_1d)
    fine = np.asarray(evaluate(nodes[1]))
    moved = np.abs(fine - coarse)
    entry = tuple(int(i) + 1 for i in np.unravel_index(moved.argmax(), moved.shape))
    reached = {"nodes": nodes, "delta": float(moved.max()), "entry": entry}
    if reached["delta"] >= quad.tolerance:
        raise NumericFailureError("quadrature did not stabilize under node doubling", **reached)
    return fine, reached


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
    Bw = (w[:, None, None] * BT[:, :, :, 0]).reshape(-1, m + 1)
    t_mix = (Bw.T @ G.reshape(-1, m + 1) @ M)[1:, 1:]

    # smooth-smooth: shared threshold, fully closed form
    C = np.where((kk > 0) & (k > 0), binom / 3.0 ** (kk + k + 1), 0.0)
    t_zz = np.einsum("kj,lp,kl->jp", M, M, C)[1:, 1:]

    return t_ind + t_ind.T + t_mix + t_mix.T + t_zz - 4.0 * np.outer(pbar, pbar)


def _sb_chunk(S, nodes, m):
    """Kernel tile rows, columns of Z and threshold nodes per chunk of
    `_sigma_sb_entries` at S window ratios: as many nodes as fit
    `_CHUNK_BYTES`, at least one and at most all."""
    P = (m + 1) * (m + 2) // 2
    rows, cols = min(S, _TILE_ROWS), (2 * m + 1) * P + (m + 1) * m
    return rows, cols, min(nodes, max(1, _CHUNK_BYTES // (8 * nodes * (rows + cols))))


def _table_bytes(model, m, quad, kind):
    """Bytes of the tables one covariance pass holds at once, at the fine
    nodes under refinement: the bivariate powers, S (m+1)^3 floats for S =
    panels x nodes; for sliding blocks also p_y, (m+1) nodes^2 floats, and
    then the larger of the Poisson table that p_y is contracted from, as
    large again, and one chunk's kernel tile and Z, (rows + cols) nodes
    floats per threshold node (`_sb_chunk`)."""
    nodes = quad.nodes_1d * (2 if quad.refinement else 1)
    S = nodes * (len(model.pi2.breakpoints) + 1)
    floats = S * (m + 1) ** 3
    if kind == "sigma_sb":
        rows, cols, step = _sb_chunk(S, nodes, m)
        floats += (m + 1) * nodes**2 + max((m + 1) * nodes**2, step * (rows + cols) * nodes)
    return 8 * floats


def _sigma(model, m, quad, entries, kind):
    """The CovMatrix of ``kind`` from ``entries(model, m, nodes)``, refined.

    A pass whose tables would exceed `_TABLE_BYTES` is refused before any
    table is built.  The matrix carries what the quadrature reached."""
    m = check_count("m", m, 1)
    quad = quad if quad is not None else QuadratureSpec()
    _require_family(model)
    need = _table_bytes(model, m, quad, kind)
    if need > _TABLE_BYTES:
        raise ValueError(
            f"m={m} with nodes_1d={quad.nodes_1d} needs {need / 2**20:,.0f} MB "
            f"of tables, above the {_TABLE_BYTES >> 20} MB limit; lower m or nodes_1d"
        )
    ent, reached = _refined(quad, lambda n: entries(model, m, n))
    return CovMatrix(m=m, entries=ent, kind=kind, quadrature=reached)


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

    Every s-dependent factor is a polynomial in c = theta s times the
    kernel exp(-c a), a = tau (1 + xi).  With lam = c tau, the private
    piece's Pois_k(xi lam) times its indicator weight Pois_k'(lam) gives
    exp(-c a) c^k' (tau xi)^k' / k'!, and the derivative of the count pmf
    at window length s tau is theta exp(-lam) sum_l B[l, d] lam^l with
    B[l, d] = (M[l+1, d] - M[l, d]) / l! (M[m+1] = 0).  So all three
    moments are s-only weights theta sw c^l times columns of one matrix
    H = sum over chunks of u of exp(-outer(c, a)) @ Z, whose rows run over
    (u, xi) and whose columns are (tau xi)^k' base (k' = 0..m), tau^l base
    (l = 1..m) and tau^l xw v (l = 0..m; v = uw gd1 tau / theta).  Here
    base = uw tau xw p_y[d] Pois_k(theta (1 - xi) tau) for the shared-piece
    columns with d + k <= m only: the others meet only zeros of BT in
    `_shift_add`.  Each chunk of u nodes fills one kernel buffer of rows =
    min(S, `_TILE_ROWS`) window ratios and one Z buffer, both allocated
    once per call, and holds as many nodes as fit `_CHUNK_BYTES` with
    them, and at least one (`_sb_chunk`); its GEMMs run tile by tile of
    rows.  So for S <= 256 (the iid model up to 256 nodes) a chunk is one
    GEMM, and for the geometric model's S = 34 x nodes each GEMM sums over
    several u nodes instead of one.  Only ``p_y`` is a whole grid.
    `_shift_add` contracts the sums Q with the bivariate powers BT once at
    the end.  One call took 623 ms (geometric alpha=0.5, m=3, 128 nodes),
    107 ms (the same at m=5, 48 nodes) and 210 ms (iid, m=3, 256 nodes),
    against 1,323, 157 and 213 ms with one fresh kernel table of all S rows
    per chunk (in-process minima of 9 calls, 2-vCPU host;
    ``BENCH_26.json``).
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

    # derivative of the count pmf at window length tau, count first
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

    # shared-piece columns (d, k): count d on the private xi*tau piece, k
    # clusters on the shared one
    d, k = np.array([(a, b) for a in range(m + 1) for b in range(m + 1 - a)]).T
    P, S, X, ell = d.size, s.size, xi.size, np.arange(m + 1)
    c = th * s
    v = uw * gd1 * tau / th
    rows, cols, step = _sb_chunk(S, nodes, m)
    edges = [(m + 1) * P, (2 * m + 1) * P]
    H = np.zeros((S, cols))
    kbuf, zbuf = np.empty((rows, step * X)), np.empty((cols, step, X))
    for lo in range(0, u.size, step):
        t, at = tau[lo : lo + step], slice(lo, lo + step)
        Z = zbuf[:, : t.size]
        Za, Zb, Ze = np.split(Z, edges)
        Za, Zb, Ze = Za.reshape(m + 1, P, -1, X), Zb.reshape(m, P, -1, X), Ze.reshape(m + 1, m, -1, X)
        pk = poisson_table(th * np.outer(t, 1 - xi), m)
        # base = uw tau xw p_y[d] Pois_k, the l = 0 columns of Za
        base = np.multiply(p_y[:, :, at].transpose(0, 2, 1)[d], pk[k], out=Za[0])
        np.multiply(base, np.outer(uw[at] * t, xiw), out=base)
        tl = (t[:, None] ** ell).T[:, None, :, None]
        # indicator-indicator
        np.multiply((np.outer(t, xi) ** ell[1:, None, None])[:, None], base, out=Za[1:])
        # indicator-smooth below mu = tau; l = 0 is Za[0]
        np.multiply(tl[1:], base, out=Zb)
        # smooth-smooth
        np.multiply(tl, v[:, at, None] * xiw, out=Ze)
        a, Zc = np.outer(t, 1 + xi).ravel(), Z.reshape(cols, -1).T
        for r0 in range(0, S, rows):
            E = kbuf[: min(rows, S - r0), : a.size]
            np.exp(np.multiply.outer(-c[r0 : r0 + rows], a, out=E), out=E)
            H[r0 : r0 + rows] += E @ Zc

    # s-only weights theta sw c^l; the indicator weight brings c^k' / k'!,
    # the derivative its polynomial B[l, d] = (M[l+1, d] - M[l, d]) / l!
    W = (th * sw)[:, None, None] * c[:, None, None] ** ell[:, None]
    fact = np.cumprod(np.maximum(ell, 1)).astype(float)
    B = (np.vstack([M[1:], np.zeros(m + 1)]) - M)[:, 1:] / fact[:, None]
    Ha, Hb, He = np.split(H, edges, axis=1)
    Hb = np.concatenate([Ha[:, :P], Hb], axis=1)
    Qa = np.zeros((m + 1, S, m + 1, m + 1))
    Qa[:, :, d, k] = np.tensordot(M / fact[:, None], W * Ha.reshape(S, m + 1, P), (0, 1))
    Qb = np.zeros((m, S, m + 1, m + 1))
    Qb[:, :, d, k] = np.tensordot(B, W * Hb.reshape(S, m + 1, P), (0, 1))

    # indicator-smooth beyond mu = tau, and smooth-smooth through the
    # bivariate exponential survival of the two thresholds
    inner2 = (((xiw @ p_y) * uw) @ tail)[1:]
    ecc = B.T @ (W * He.reshape(S, m + 1, m)).sum(0)
    acc = inner2 + inner2.T + ecc + ecc.T - 4.0 * xiw.sum() * pp

    # the shared piece's bivariate law does not depend on xi: contract once
    Ja = _shift_add(Qa, BT, m)
    Jb = _shift_add(Qb, BT[..., :1], m)[:m, 1:]
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
    pi, pbar = pi.head(m), pbar.head(m)
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
    if gamma_cov.kind not in ("gamma_db", "gamma_sb"):
        raise ValueError(f"theta_asymp_var needs a gamma_db or gamma_sb input, got {gamma_cov.kind}")
    m = gamma_cov.m if m is None else _integral("m", m)
    if not 1 <= m <= gamma_cov.m:
        raise ValueError(f"m must lie in 1..{gamma_cov.m}, got {m}")
    pi = pi.head(m)
    denom = float(sum(j * pi[j] for j in range(1, m + 1)))
    if denom <= 0:
        raise ValueError("sum of j*pi(j) vanishes; theta variance undefined")
    j = np.arange(1, m + 1, dtype=float)
    return float(j @ gamma_cov.entries[:m, :m] @ j) / denom**4


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------

# (n-1)^2 / n!, n = 21 down to 2; a later term is below 1e-24 of the sum at tau < 0.5
_MU2_SERIES = [(n - 1) ** 2 / factorial(n) for n in range(21, 1, -1)]


def mu2_robert(tau):
    """Variance e^tau (tau + (1-tau)^2 - e^{-tau}) of the multilevel-threshold
    estimator at block-scale tau; below tau = 0.5, where that form cancels
    (0.0 at 1e-8), the all-positive series sum_{n>=2} (n-1)^2 tau^n / n!."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    tau = _finite("tau", tau)
    if tau < 0.5:
        return float(np.polyval(_MU2_SERIES, tau)) * tau * tau
    return float(np.exp(tau) * (tau + (1.0 - tau) ** 2 - np.exp(-tau)))


def robert_crossover(variance):
    """Block-scale tau at which mu2_robert first exceeds `variance`.

    mu2_robert is strictly increasing, so the crossing is unique.  It is
    searched for between tau = 1e-8 and 50, where mu2_robert reads 5e-17
    and about 1.3e25, and a bisection halves that bracket until it is at most
    1e-12 wide (46 steps) or no float lies between its ends.
    """
    lo, hi = 1e-8, 50.0
    if not mu2_robert(lo) < variance < mu2_robert(hi):
        raise ValueError(f"variance {variance:g} is not bracketed by ({lo}, {hi})")
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
    p = float(cpp_pmf(model, tau, j).weights[j])
    return p * (1.0 - p)


def sliding_process_cov(model, tau, tau_prime, j, j_prime):
    """Limit covariance of the sliding-blocks empirical process at
    ((tau, j), (tau_prime, j_prime)), for 0 <= tau <= tau_prime.

    Two unit-length windows at lag xi are split into private and shared
    pieces; the joint count pmf is integrated over xi in (0, 1) at the
    default :class:`QuadratureSpec`, refined once as :func:`sigma_sb` is.
    """
    if not 0 <= _finite("tau", tau) <= _finite("tau_prime", tau_prime):
        raise ValueError(f"need 0 <= tau <= tau_prime, got ({tau}, {tau_prime})")
    j, j_prime = check_count("j", j, 0), check_count("j_prime", j_prime, 0)
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

    overlap = _refined(QuadratureSpec(), evaluate)[0]
    pj = cpp_pmf(model, tau, j).weights[j]
    pjp = cpp_pmf(model, tau_prime, j_prime).weights[j_prime]
    return float(2.0 * overlap - 2.0 * pj * pjp)
