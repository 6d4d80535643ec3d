"""Exact or slow reference computations that only the tests call."""
import math

import numpy as np
from scipy.signal import convolve2d
from scipy.special import gammaincc
from scipy.stats import poisson

from exclust.asymptotics import _shift_add, cpp_pmf_dtau
from exclust.cpmodel import (
    Pmf,
    bivar_powers,
    conv_powers,
    cpp_pmf,
    gauss_legendre_01,
    gauss_legendre_panels,
    pbar_theory,
    poisson_table,
)


def pbar_integral_oracle(model, m_max, nodes_1d=1024):
    """pbar via direct quadrature of int p_tau(m) dH(tau), H = Exp(theta) c.d.f.

    Independent cross-check of :func:`exclust.cpmodel.pbar_theory`: substituting
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


def convolve_invert(p_values, tau):
    """:func:`~exclust.competitors.cpp_invert` as first written, one
    ``np.convolve`` per power: the oracle of the floats of the batched
    inversion behind it and :func:`~exclust.competitors.robert_pi`."""
    p = np.asarray(p_values, dtype=float)
    lam = -math.log(p[0])
    m_top = p.size - 1
    pi = np.zeros(m_top + 1)
    for m in range(1, m_top + 1):
        tail = 0.0
        cur = pi
        fact = lam
        for j in range(2, m + 1):
            cur = np.convolve(cur, pi)[: m_top + 1]
            fact *= lam / j
            tail += fact * cur[m]
        pi[m] = (p[m] / p[0] - tail) / lam
    return lam / tau, pi[1:]


def ferro_positions(x, num):
    """Positions of the num largest values of ``x``, equal values taken
    earliest first: the stable argsort that ``ferro_pi`` replaced by selection."""
    return np.sort(np.argsort(-np.asarray(x, dtype=float), kind="stable")[:num])


def y_thresholds(sample, maxima):
    """The y-scale value threshold of each block maximum, each one mapped on
    its own: F_n^-1 of 1 + log F_n(M_i) (:meth:`~exclust.blocks.Sample.cdf_threshold`)."""
    return sample.cdf_threshold(1.0 + np.log(sample.cdf(maxima)))


def _conv_powers(w, m):
    """P[k] = k-fold convolution of w on 0..m, for k in 0..m."""
    P = np.zeros((m + 1, m + 1))
    P[0, 0] = 1.0
    for kk in range(1, m + 1):
        P[kk] = np.convolve(P[kk - 1], w[: m + 1])[: m + 1]
    return P


def _bivar_powers(table, m):
    """P[k] = k-fold 2-d convolution of table on 0..m x 0..m, for k in 0..m."""
    P = np.zeros((m + 1, m + 1, m + 1))
    P[0, 0, 0] = 1.0
    for kk in range(1, m + 1):
        P[kk] = convolve2d(P[kk - 1], table)[: m + 1, : m + 1]
    return P


def sigma_outer_bivar_powers(family, sigma, m):
    """B[i, k, r, x] = pi2_{sigma[i]}^{*k}(r, x), by the shifted adds of
    ``bivar_powers`` with the sigma axis outermost: the loop that the
    node-innermost slabs replaced, in the same order of adds."""
    T = family.table(sigma, m)[..., None, None]
    B = np.zeros((len(T), m + 1, m + 1, m + 1))
    B[:, 0, 0, 0] = 1.0
    cells = [(r, x) for r in range(1, m + 1) for x in range(r + 1)]
    for k in range(1, m + 1):
        for r, x in cells:
            B[:, k, r:, x:] += T[:, r, x] * B[:, k - 1, : m + 1 - r, : m + 1 - x]
    return B


def _shift_gather(pm, m):
    """out[..., a, r] = pm[..., a - r] for a >= r, else 0."""
    idx = np.subtract.outer(np.arange(m + 1), np.arange(m + 1))
    return pm[..., np.maximum(idx, 0)] * (idx >= 0)


def literal_sigma_sb(model, m, nodes=32):
    """The sliding-blocks rule of sigma_sb, summed term by term.

    Same nodes and weights as the production evaluator, but every moment is
    formed per overlap node xi from full (s, u, count, count) tables of the
    pieces' joint count pmfs, with scipy's Poisson pmf and 2-d convolution.
    """
    th = model.theta
    s, sw = gauss_legendre_panels(nodes, model.pi2.breakpoints)
    u, uw = gauss_legendre_01(nodes)
    xi, xiw = gauss_legendre_01(nodes)
    tau = -np.log1p(-u) / th
    k = np.arange(m + 1)

    M = _conv_powers(model.pi.weights, m)
    pbar = pbar_theory(model, m).weights[1:]
    pp = np.outer(pbar, pbar)
    BT = np.stack([_bivar_powers(model.pi2.table(si, m), m) for si in s])

    lam_st = th * np.outer(s, tau)
    pois_st = poisson.pmf(k, lam_st[..., None])
    gd = th * np.einsum("sul,lv->suv", pois_st[..., :-1] - pois_st[..., 1:], M[1:, 1:])
    pois_t = poisson.pmf(k, th * tau[:, None])
    gd1 = th * np.einsum("ul,lv->uv", pois_t[..., :-1] - pois_t[..., 1:], M[1:, 1:])
    tail = np.zeros((nodes, m))
    z = 2.0 * th * tau
    for ll in range(1, m + 1):
        coef = gammaincc(ll, z) / 2.0**ll - gammaincc(ll + 1, z) / 2.0 ** (ll + 1)
        tail += np.outer(coef, M[ll, 1 : m + 1])

    acc = np.zeros((m, m))
    for xv, xw in zip(xi, xiw):
        pois_x = poisson.pmf(k, xv * lam_st[..., None])
        pois_y = poisson.pmf(k, xv * th * tau[:, None])
        pois_s = poisson.pmf(k, (1 - xv) * th * tau[:, None])

        # indicator-indicator
        p_x = np.einsum("suk,kl->sul", pois_x, M)
        p_y = np.einsum("uk,kv->uv", pois_y, M)
        p2 = np.einsum("uk,skrx->surx", pois_s, BT)
        R = np.einsum("surx,upr->suxp", p2, _shift_gather(p_y, m))
        J = np.einsum("sujx,suxp->sujp", _shift_gather(p_x, m), R)
        wA = th * tau * np.exp(-lam_st)
        JJ = J + J.transpose(0, 1, 3, 2)
        a_term = np.einsum("s,u,su,sujp->jp", sw, uw, wA, JJ)[1:, 1:] - pp

        # indicator-smooth
        p20 = np.einsum("uk,sky->suy", pois_s, BT[:, :, :, 0])
        ux = np.exp(-xv * lam_st)[..., None] * np.einsum(
            "ul,sujl->suj", p_y, _shift_gather(p20, m)
        )
        inner1 = np.einsum("s,u,u,suv,suj->jv", sw, uw, tau, gd, ux)[1:, :]
        inner2 = np.einsum("u,uj,uv->jv", uw, p_y, tail)[1:, :]
        b_term = inner1 + inner2 - pp

        # smooth-smooth
        innerC = np.einsum("s,sua,su->ua", sw, gd, np.exp(-xv * lam_st))
        ecc = np.einsum("u,ub,u,ua->ab", uw, gd1, tau / th, innerC)
        c_term = ecc + ecc.T - pp

        acc += xw * (a_term + b_term + b_term.T + c_term)
    return 2.0 * acc


def per_xi_sigma_sb_entries(model, m, nodes):
    """The earlier form of `_sigma_sb_entries`: one loop step per overlap
    node xi, with an (m+1, S, U) Poisson table of the private piece and two
    GEMMs that sum the threshold axis."""
    th = model.theta
    s, sw = gauss_legendre_panels(nodes, model.pi2.breakpoints)
    u, uw = gauss_legendre_01(nodes)
    xi, xiw = gauss_legendre_01(nodes)
    tau = -np.log1p(-u) / th

    M = conv_powers(model.pi, m)
    pbar = pbar_theory(model, m).weights[1:]
    pp = np.outer(pbar, pbar)
    BT = bivar_powers(model.pi2, s, m)

    lam_st = th * np.outer(s, tau)
    gd = cpp_pmf_dtau(model, np.outer(s, tau), m)[1:]
    gd1 = cpp_pmf_dtau(model, tau, m)[1:]

    tail = np.zeros((nodes, m))
    z = 2.0 * th * tau
    for ll in range(1, m + 1):
        coef = gammaincc(ll, z) / 2.0**ll - gammaincc(ll + 1, z) / 2.0 ** (ll + 1)
        tail += np.outer(coef, M[ll, 1 : m + 1])

    wA = (sw[:, None] * uw * th * tau * np.exp(-lam_st)).ravel()
    wB = sw[:, None] * uw * tau * gd
    Qa = np.zeros(((m + 1) * s.size, (m + 1) ** 2))
    Qb = np.zeros((m * s.size, (m + 1) ** 2))
    acc = np.zeros((m, m))
    for xv, xw in zip(xi, xiw):
        pois_x = poisson_table(xv * lam_st, m)
        p_y = M.T @ poisson_table(xv * th * tau, m)
        pois_s = poisson_table((1 - xv) * th * tau, m)
        Y = (p_y[:, None] * pois_s).reshape(-1, u.size)
        X = (M.T @ pois_x.reshape(m + 1, -1)) * wA
        Qa += xw * (X.reshape(-1, u.size) @ Y.T)
        Qb += xw * ((pois_x[0] * wB).reshape(-1, u.size) @ Y.T)
        inner2 = np.einsum("u,ju,uv->jv", uw, p_y, tail)[1:, :]

        innerC = np.einsum("s,asu,su->ua", sw, gd, pois_x[0])
        ecc = np.einsum("u,bu,u,ua->ab", uw, gd1, tau / th, innerC)
        acc += xw * (inner2 + inner2.T + ecc + ecc.T - 4.0 * pp)

    Ja = _shift_add(Qa.reshape(m + 1, s.size, m + 1, m + 1), BT, m)
    Jb = _shift_add(Qb.reshape(m, s.size, m + 1, m + 1), BT[..., :1], m)[:m, 1:]
    acc += (Ja + Ja.T)[1:, 1:] + Jb + Jb.T
    return 2.0 * acc
