"""Exact or slow reference computations that only the tests call."""
import numpy as np

from exclust.cpmodel import Pmf, cpp_pmf, gauss_legendre_01


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


def ferro_positions(x, num):
    """Positions of the num largest values of ``x``, equal values taken
    earliest first: the stable argsort that ``ferro_pi`` replaced by selection."""
    return np.sort(np.argsort(-np.asarray(x, dtype=float), kind="stable")[:num])


def y_thresholds(sample, maxima):
    """The y-scale value threshold of each block maximum, each one mapped on
    its own: F_n^-1 of 1 + log F_n(M_i) (:meth:`~exclust.blocks.Sample.cdf_threshold`)."""
    return sample.cdf_threshold(1.0 + np.log(sample.cdf(maxima)))
