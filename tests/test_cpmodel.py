"""Compound-Poisson limit machinery: power tables, cluster laws, pbar."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_legendre

from exclust.cpmodel import (
    BivariatePmfFamily,
    CppModel,
    Pmf,
    bivar_powers,
    conv_powers,
    cpp_pmf,
    gauss_legendre_01,
    gauss_legendre_panels,
    geometric_pi,
    iid_model,
    max_ar_family,
    pbar_theory,
    poisson_table,
)
from exclust.errors import UnsupportedModelError
from exclust.estimators import theta_hat

from oracles import cpp2_pmf, pbar_integral_oracle, sigma_outer_bivar_powers

GEOM = CppModel(0.5, geometric_pi(0.5), max_ar_family(0.5))


def literal_iid(sigma, i, j):
    """The iid family, one cell at a time."""
    if i == 1 and j == 0:
        return 1.0 - sigma
    if i == 1 and j == 1:
        return sigma
    return 0.0


def literal_max_ar(alpha, sigma, i, j):
    """The max-AR family, one cell at a time, with every special case spelled out."""
    if i < 1 or j > i:
        return 0.0
    if alpha == 0.0:
        if i == 1:
            return 1.0 - sigma if j == 0 else sigma
        return 0.0
    if sigma == 0.0:
        return alpha ** (i - 1) - alpha**i if j == 0 else 0.0
    delta = math.log(sigma) / math.log(alpha)
    if j == 0:
        hi = min(float(i), delta)
        return max(0.0, alpha ** (i - 1) - alpha**hi)
    lo = max(float(i - 1), delta + j - 1)
    hi = min(float(i), delta + j)
    return max(0.0, alpha**lo - alpha**hi)


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf(np.array([0.0, -0.1, 0.5]))
    with pytest.raises(ValueError):
        Pmf(np.array([0.0, 0.8, 0.9]))


def test_pmf_head():
    p = Pmf(np.array([0.0, 0.25, 0.75]))
    assert p.weights.size - 1 == 2
    assert p.head(1).tolist() == [0.0, 0.25]
    assert p.head(2).tolist() == [0.0, 0.25, 0.75]
    assert p.head(4).tolist() == [0.0, 0.25, 0.75, 0.0, 0.0]  # nothing is truncated
    p.head(2)[1] = 1.0  # a copy
    assert p.weights[1] == 0.25
    short = Pmf(np.array([0.0, 0.25, 0.5]), trunc_mass=0.25)
    assert short.head(2).tolist() == [0.0, 0.25, 0.5]
    with pytest.raises(ValueError, match=r"^m=3 reads past the support 0\.\.2 of a pmf that truncates 0\.25 mass$"):
        short.head(3)
    with pytest.raises(ValueError, match=r"^m must be >= 0, got -1$"):
        p.head(-1)


def test_conv_powers_point_mass_is_identity():
    # pi = delta_1 makes pi^{*k} = delta_k
    np.testing.assert_array_equal(conv_powers(geometric_pi(0.0), 4), np.eye(5))


def test_conv_powers_first_row_is_pi():
    pi = geometric_pi(0.5)
    P = conv_powers(pi, 6)
    np.testing.assert_array_equal(P[0], np.eye(7)[0])
    np.testing.assert_array_equal(P[1], pi.weights[:7])
    # a support shorter than the table is padded with zeros
    np.testing.assert_array_equal(conv_powers(Pmf(np.array([0.0, 1.0])), 3)[1], [0, 1, 0, 0])


def test_conv_powers_geometric_hand():
    # pi(m) = 2^-m: pi*2(2) = 1/4, pi*2(3) = 2 * (1/2)(1/4) = 1/4
    P = conv_powers(geometric_pi(0.5, m_max=10), 3)
    assert P[2, 1] == 0.0
    np.testing.assert_allclose(P[2, 2], 0.25, rtol=1e-14)
    np.testing.assert_allclose(P[2, 3], 0.25, rtol=1e-14)


def test_conv_powers_match_repeated_numpy_convolution():
    pi = geometric_pi(0.3, m_max=12)
    P = conv_powers(pi, 8)
    ref = np.eye(9)[0]
    for k in range(9):
        np.testing.assert_allclose(P[k], ref[:9], rtol=1e-13)
        ref = np.convolve(ref, pi.weights)


def test_poisson_table_broadcasts_over_rates():
    lam = np.array([[0.0, 0.5], [1.0, 3.0]])
    tab = poisson_table(lam, 4)
    assert tab.shape == (5, 2, 2)
    for k in range(5):
        np.testing.assert_allclose(
            tab[k], np.exp(-lam) * lam**k / math.factorial(k), rtol=1e-14
        )
    np.testing.assert_array_equal(tab[:, 0, 0], np.eye(5)[0])


def test_cpp_pmf_iid_closed_forms():
    model = iid_model()
    for tau in (0.4, 1.0, 2.5):
        p = cpp_pmf(model, tau, 4)
        np.testing.assert_allclose(p.weights[0], np.exp(-tau), rtol=1e-14)
        np.testing.assert_allclose(p.weights[1], tau * np.exp(-tau), rtol=1e-14)
        np.testing.assert_allclose(p.weights[2], tau**2 / 2 * np.exp(-tau), rtol=1e-14)


def test_cpp_pmf_at_zero_is_point_mass():
    p = cpp_pmf(GEOM, 0.0, 5)
    assert p.weights[0] == 1.0
    assert np.all(p.weights[1:] == 0.0)


def test_count_cap_zero():
    # m = 0 keeps only the empty-window class
    p = cpp_pmf(GEOM, 1.5, 0)
    np.testing.assert_allclose(p.weights, [np.exp(-0.75)], rtol=1e-15)
    assert pbar_theory(GEOM, 0).weights.tolist() == [0.0]
    assert conv_powers(GEOM.pi, 0).tolist() == [[1.0]]


@pytest.mark.parametrize("call, message", [
    (lambda: pbar_theory(GEOM, 2.5), r"^m_max=2\.5 is not an integer$"),
    (lambda: cpp_pmf(GEOM, 1.0, 2.5), r"^m_max=2\.5 is not an integer$"),
    (lambda: cpp_pmf(GEOM, 1.0, True), r"^m_max=True is not an integer$"),
    (lambda: cpp_pmf(GEOM, 1.0, -1), r"^m_max must be >= 0, got -1$"),
    (lambda: cpp2_pmf(GEOM, 1.0, 0.5, 2.5), r"^i_max=2\.5 is not an integer$"),
    (lambda: conv_powers(GEOM.pi, 2.5), r"^m=2\.5 is not an integer$"),
    (lambda: conv_powers(GEOM.pi, True), r"^m=True is not an integer$"),
    (lambda: poisson_table(1.0, 2.5), r"^k_max=2\.5 is not an integer$"),
    (lambda: poisson_table(1.0, -1), r"^k_max must be >= 0, got -1$"),
    (lambda: bivar_powers(GEOM.pi2, [0.5], 2.5), r"^m=2\.5 is not an integer$"),
    (lambda: geometric_pi(0.5, 2.5), r"^m_max=2\.5 is not an integer$"),
    (lambda: geometric_pi(0.5, True), r"^m_max=True is not an integer$"),
    (lambda: geometric_pi(0.5, -1), r"^m_max must be >= 0, got -1$"),
], ids=["pbar_theory", "cpp_pmf", "cpp_pmf-bool", "cpp_pmf-negative", "cpp2_pmf",
        "conv_powers", "conv_powers-bool", "poisson_table", "poisson_table-negative", "bivar_powers",
        "geometric_pi", "geometric_pi-bool", "geometric_pi-negative"])
def test_non_integer_counts_are_refused_by_name(call, message):
    # each used to fail inside numpy with a TypeError or an IndexError, and
    # conv_powers(pi, True) returned a 2x2 table
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: bivar_powers(max_ar_family(0.5), 0.5, 2),
     r"^sigma must be a 1-d array of window-length ratios, got shape \(\)$"),
    (lambda: bivar_powers(max_ar_family(0.5), np.full((2, 3), 0.5), 2),
     r"^sigma must be a 1-d array of window-length ratios, got shape \(2, 3\)$"),
    (lambda: poisson_table(np.nan, 3), r"^lam must be finite and >= 0, got nan$"),
    (lambda: poisson_table(np.inf, 3), r"^lam must be finite and >= 0, got inf$"),
    (lambda: poisson_table(-1.0, 3), r"^lam must be finite and >= 0, got -1\.0$"),
    (lambda: poisson_table([0.5, -1.0], 3), r"^lam must be finite and >= 0, got -1\.0$"),
], ids=["bivar_powers-scalar", "bivar_powers-2d", "poisson_table-nan", "poisson_table-inf",
        "poisson_table-negative", "poisson_table-negative-entry"])
def test_bad_values_are_refused_by_name(call, message):
    # a scalar sigma returned a (3, 3, 3, 3) array read off the table's i
    # axis, and a 2-d one failed in numpy's broadcast; poisson_table returned
    # NaNs at NaN, warned at inf and gave signed "probabilities" below 0
    with pytest.raises(ValueError, match=message):
        call()


def test_cpp_pmf_rejects_negative_tau():
    with pytest.raises(ValueError):
        cpp_pmf(GEOM, -0.1, 5)
    # NaN passed `tau < 0` and gave NaN weights
    with pytest.raises(ValueError, match="tau must be >= 0, got nan"):
        cpp_pmf(iid_model(), math.nan, 3)


@pytest.mark.parametrize("model", [iid_model(), CppModel(0.5, geometric_pi(0.5, 90), GEOM.pi2)])
def test_cpp_pmf_normalizes(model):
    # the count tail beyond m_max is real mass, so the cap grows with tau; the
    # geometric pmf is known out to the largest cap, as reads stop at pi's support
    for tau, m_max in ((0.1, 35), (1.0, 50), (5.0, 90)):
        p = cpp_pmf(model, tau, m_max)
        assert p.weights.sum() <= 1.0 + 1e-12
        assert p.weights.sum() > 1.0 - 1e-10


def test_cpp_pmf_zero_class_decreasing_in_tau():
    taus = np.linspace(0.05, 6.0, 40)
    p0 = [cpp_pmf(GEOM, t, 1).weights[0] for t in taus]
    assert np.all(np.diff(p0) < 0)


def test_cpp_pmf_matches_simulation():
    # theta*tau = 1 Poisson count, geometric(1/2) cluster sizes
    rng = np.random.default_rng(42)
    n = 10**6
    k = rng.poisson(1.0, size=n)
    g = rng.geometric(0.5, size=int(k.sum()))
    total = np.zeros(n, dtype=np.int64)
    nz = k > 0
    offsets = np.concatenate(([0], np.cumsum(k)))[:-1]
    total[nz] = np.add.reduceat(g, offsets[nz])
    p = cpp_pmf(GEOM, 2.0, 3)
    for m in range(4):
        phat = np.mean(total == m)
        se = np.sqrt(phat * (1 - phat) / n)
        assert abs(phat - p.weights[m]) <= 3 * se


def test_pbar_theory_iid():
    # pi = delta_1 makes pi*j(m) = 1(j=m), so pbar(m) = 2^-(m+1)
    p = pbar_theory(iid_model(), 3)
    np.testing.assert_allclose(p.weights[1:], [0.25, 0.125, 0.0625], rtol=1e-14)


def test_pbar_theory_geometric_hand():
    p = pbar_theory(GEOM, 2)
    np.testing.assert_allclose(p.weights[1], 1 / 8, rtol=1e-14)
    np.testing.assert_allclose(p.weights[2], 3 / 32, rtol=1e-14)


@pytest.mark.parametrize("model", [iid_model(), GEOM])
def test_pbar_integral_oracle_matches_theory(model):
    theory = pbar_theory(model, 5)
    quad = pbar_integral_oracle(model, 5)
    np.testing.assert_allclose(quad.weights[1:], theory.weights[1:], atol=1e-8)


def test_pbar_integral_oracle_matches_the_scipy_rule():
    # the oracle's 1024-node values with scipy's Gauss-Legendre rule
    want = [0.12500000000011602, 0.09375000000085985, 0.07031250000361566, 0.05273437501117433]
    got = pbar_integral_oracle(GEOM, 4).weights[1:]
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("m", [3, 5])
def test_bivar_powers_need_no_memory_beyond_their_result(m):
    # the block-Toeplitz operator it used to build had (m+1) times the
    # result's size and peaked at 5.8-7.5x the result on this grid
    family = GEOM.pi2
    sigma, _ = gauss_legendre_panels(128, family.breakpoints)
    tracemalloc.start()
    try:
        B = bivar_powers(family, sigma, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert B.shape == (sigma.size, m + 1, m + 1, m + 1)
    assert peak <= 2 * B.nbytes, peak / B.nbytes


@pytest.mark.parametrize("nodes", [24, 128])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("family", [iid_model().pi2, max_ar_family(0.5), max_ar_family(0.3)],
                         ids=["iid", "geometric0.5", "geometric0.3"])
def test_bivar_powers_equal_the_sigma_outermost_loop(family, m, nodes):
    # the same adds in the same order, so the same floats
    sigma, _ = gauss_legendre_panels(nodes, family.breakpoints)
    B = bivar_powers(family, sigma, m)
    assert np.array_equal(B, sigma_outer_bivar_powers(family, sigma, m))


def test_pbar_unreachable_support():
    # point mass at 2: convolution powers live on even integers only
    delta2 = CppModel(0.5, Pmf(np.array([0.0, 0.0, 1.0])))
    assert pbar_theory(delta2, 3).weights[3] == 0.0
    assert pbar_integral_oracle(delta2, 3).weights[3] < 1e-10


def test_cpp2_pmf_iid_closed_forms():
    model = iid_model()
    tau1, tau2 = 1.5, 0.6
    tab = cpp2_pmf(model, tau1, tau2, 3)
    np.testing.assert_allclose(tab[0, 0], np.exp(-tau1), rtol=1e-14)
    np.testing.assert_allclose(tab[1, 0], (tau1 - tau2) * np.exp(-tau1), rtol=1e-13)
    np.testing.assert_allclose(tab[1, 1], tau2 * np.exp(-tau1), rtol=1e-13)


def test_cpp2_pmf_equal_levels_collapse_to_diagonal():
    model = iid_model()
    tab = cpp2_pmf(model, 1.2, 1.2, 4)
    p = cpp_pmf(model, 1.2, 4)
    for i in range(5):
        np.testing.assert_allclose(tab[i, i], p.weights[i], rtol=1e-12)
    off = tab - np.diag(np.diag(tab))
    assert np.all(np.abs(off) < 1e-15)


@pytest.mark.parametrize("model", [iid_model(), GEOM])
def test_cpp2_pmf_marginals(model):
    tau1, tau2 = 1.4, 0.9
    i_max = 30
    tab = cpp2_pmf(model, tau1, tau2, i_max)
    p1 = cpp_pmf(model, tau1, i_max)
    p2 = cpp_pmf(model, tau2, i_max)
    for i in range(6):
        np.testing.assert_allclose(tab[i, :].sum(), p1.weights[i], atol=1e-10)
    for j in range(6):
        np.testing.assert_allclose(tab[:, j].sum(), p2.weights[j], atol=1e-10)


def test_cpp2_pmf_requires_family():
    bare = CppModel(0.5, geometric_pi(0.5))
    with pytest.raises(UnsupportedModelError):
        cpp2_pmf(bare, 1.0, 0.5, 3)


def test_cpp2_pmf_requires_ordered_levels():
    with pytest.raises(ValueError):
        cpp2_pmf(iid_model(), 0.5, 1.0, 3)


def test_iid_family_example_values():
    fam = iid_model().pi2
    assert fam.evaluator(0.3, 1, 0) == pytest.approx(0.7)
    assert fam.evaluator(0.3, 1, 1) == pytest.approx(0.3)
    assert fam.evaluator(0.3, 2, 1) == 0.0
    assert fam.evaluator(0.0, 1, 1) == 0.0
    assert fam.evaluator(1.0, 1, 0) == 0.0
    assert fam.evaluator(1.0, 1, 1) == 1.0


@pytest.mark.parametrize("sigma", [0.0, 0.25, 0.7, 1.0])
def test_max_ar_family_marginals(sigma):
    alpha = 0.6
    pi = geometric_pi(alpha, m_max=25)
    fam = max_ar_family(alpha)
    for i in range(1, 8):
        row = sum(fam.evaluator(sigma, i, j) for j in range(i + 1))
        np.testing.assert_allclose(row, pi.weights[i], atol=1e-13)
    # thinned second marginal: a cluster survives with probability sigma
    # and the surviving size is again pi
    zero = sum(fam.evaluator(sigma, i, 0) for i in range(1, 200))
    np.testing.assert_allclose(zero, 1.0 - sigma, atol=1e-12)
    for j in range(1, 6):
        col = sum(fam.evaluator(sigma, i, j) for i in range(j, 200))
        np.testing.assert_allclose(col, sigma * pi.weights[j], atol=1e-12)


def test_max_ar_family_hand_values():
    fam = max_ar_family(0.5)
    # sigma = 0.75: gap delta = log(0.75)/log(0.5), so alpha^delta = 0.75
    assert fam.evaluator(0.75, 1, 0) == pytest.approx(0.25, rel=1e-12)
    assert fam.evaluator(0.75, 1, 1) == pytest.approx(0.25, rel=1e-12)
    assert fam.evaluator(0.75, 2, 1) == pytest.approx(0.125, rel=1e-12)
    assert fam.evaluator(0.75, 2, 2) == pytest.approx(0.125, rel=1e-12)
    assert fam.evaluator(0.75, 2, 0) == 0.0
    # sigma = 0.5: delta = 1 exactly, the higher-level size is xi - 1
    assert fam.evaluator(0.5, 1, 0) == pytest.approx(0.5, rel=1e-15)
    for i in range(2, 6):
        assert fam.evaluator(0.5, i, i - 1) == pytest.approx(0.5**i, rel=1e-15)
        assert fam.evaluator(0.5, i, i) == 0.0
        assert fam.evaluator(0.5, i, 0) == 0.0


def test_max_ar_family_endpoints():
    pi = geometric_pi(0.4)
    fam = max_ar_family(0.4)
    assert fam.evaluator(1.0, 3, 3) == pytest.approx(pi.weights[3])
    assert fam.evaluator(1.0, 3, 1) == 0.0
    assert fam.evaluator(0.0, 3, 0) == pytest.approx(pi.weights[3])
    assert fam.evaluator(0.0, 3, 2) == 0.0


def test_max_ar_family_reduces_to_iid_family():
    fam = max_ar_family(0.0)
    ref = iid_model().pi2
    for sigma in (0.0, 0.3, 1.0):
        for i in range(1, 4):
            for j in range(i + 1):
                np.testing.assert_allclose(
                    fam.evaluator(sigma, i, j), ref.evaluator(sigma, i, j), atol=1e-14
                )
    sigma = np.array([0.0, 0.3, 1.0])
    assert np.array_equal(fam._table(sigma, 4), ref._table(sigma, 4))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_family_tables_match_literal_cells(alpha):
    sigma = np.array([0.0, 1.0, 0.37] + [alpha**k for k in range(1, 5)])
    families = [
        (max_ar_family(alpha), lambda s, i, j: literal_max_ar(alpha, s, i, j)),
        (iid_model().pi2, literal_iid),
    ]
    for fam, literal in families:
        for i_max in range(9):
            tab = fam._table(sigma, i_max)
            assert tab.shape == (sigma.size, i_max + 1, i_max + 1)
            ref = np.array([[[literal(s, i, j) for j in range(i_max + 1)]
                             for i in range(i_max + 1)] for s in sigma])
            np.testing.assert_allclose(tab, ref, rtol=0, atol=1e-15)
            i, j = np.indices((i_max + 1, i_max + 1))
            assert np.all(tab[:, i < np.maximum(j, 1)] == 0.0)
            # one call on the sigma array gives the stack of the scalar-sigma tables
            assert np.array_equal(tab, np.stack([fam._table(s, i_max) for s in sigma]))


def test_max_ar_family_validates_alpha():
    with pytest.raises(ValueError):
        max_ar_family(1.0)
    with pytest.raises(ValueError):
        max_ar_family(-0.1)


def test_bivariate_table_shape():
    tab = iid_model().pi2._table(0.5, 4)
    assert tab.shape == (5, 5)
    np.testing.assert_allclose(tab.sum(), 1.0, atol=1e-12)


def test_bivariate_table_rejects_sigma_outside_unit_interval():
    for fam in (iid_model().pi2, GEOM.pi2):
        for sigma in (-0.1, 1.5, np.nan, [0.5, 1.0 + 1e-12]):
            with pytest.raises(ValueError, match=r"sigma must lie in \[0, 1\]"):
                fam._table(sigma, 3)


def test_geometric_pi_values():
    pi = geometric_pi(0.5, m_max=5)
    np.testing.assert_allclose(
        pi.weights[1:], [0.5, 0.25, 0.125, 0.0625, 0.03125], rtol=1e-14
    )
    assert pi.trunc_mass == pytest.approx(0.5**5)


def test_geometric_pi_alpha_zero_is_point_mass():
    pi = geometric_pi(0.0)
    assert pi.weights[1] == 1.0
    assert pi.weights[2:].sum() == 0.0


def test_geometric_pi_rejects_bad_alpha():
    for alpha in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            geometric_pi(alpha)


def test_theta_partial():
    assert theta_hat(geometric_pi(0.0).weights[1:], 3) == 1.0
    np.testing.assert_allclose(
        theta_hat(geometric_pi(0.5, m_max=5).weights[1:], 5), 1 / 1.78125, rtol=1e-14
    )
    # full geometric mean cluster size is 1/(1-alpha) = 2
    np.testing.assert_allclose(theta_hat(geometric_pi(0.5).weights[1:], 40), 0.5, atol=1e-9)
    with pytest.raises(ValueError):
        theta_hat(geometric_pi(0.5).weights[1:], 0)


def test_gauss_legendre_01():
    x, w = gauss_legendre_01(16)
    assert np.all((x > 0) & (x < 1))
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-14)
    np.testing.assert_allclose((w * x**3).sum(), 0.25, rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 64, 128, 1024])
def test_gauss_legendre_01_matches_scipy(n):
    # the rule on (0, 1) against scipy's on (-1, 1), mapped the same way
    x, w = gauss_legendre_01(n)
    xs, ws = roots_legendre(n)
    assert np.max(np.abs(x - (xs + 1.0) / 2.0)) <= 4.5e-16
    assert np.max(np.abs(w - ws / 2.0)) <= 5e-14
    assert np.all(np.diff(x) > 0) and np.all((x > 0) & (x < 1)) and np.all(w > 0)
    assert abs(w.sum() - 1.0) <= 1e-15
    # exact on x^k for k <= 2n - 1, up to round-off: 1e-14 relative, or k
    # ulps where x**k itself carries that much (scipy's rule misses 1e-14
    # from n = 64 on)
    for k in range(2 * n):
        assert abs((w * x**k).sum() * (k + 1) - 1.0) <= max(1e-14, k * np.finfo(float).eps)


def test_gauss_legendre_01_is_cached_and_read_only():
    x, w = gauss_legendre_01(24)
    again = gauss_legendre_01(24)
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    for bad in (0, -3, 2.5, float("nan")):
        with pytest.raises(ValueError, match="n"):
            gauss_legendre_01(bad)


def test_gauss_legendre_panels():
    x0, w0 = gauss_legendre_01(16)
    x, w = gauss_legendre_panels(16, ())
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(w, w0)

    # a kink at a panel edge costs nothing: integral of |x - 0.3| is exact
    x, w = gauss_legendre_panels(8, (0.3,))
    np.testing.assert_allclose((w * np.abs(x - 0.3)).sum(), 0.29, rtol=1e-14)
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-14)

    for knots in ((0.0,), (1.0,), (0.5, 0.5), (0.6, 0.4)):
        with pytest.raises(ValueError):
            gauss_legendre_panels(8, knots)


def test_cpp_model_validates_theta():
    with pytest.raises(ValueError):
        CppModel(0.0, geometric_pi(0.5))
    with pytest.raises(ValueError):
        CppModel(1.2, geometric_pi(0.5))


@pytest.mark.parametrize("theta, pi, pi2, message", [
    (True, geometric_pi(0.5), None, r"^theta must be a finite real number, got True$"),
    ("0.5", geometric_pi(0.5), None, r"^theta must be a finite real number, got '0\.5'$"),
    (0.5, np.array([0.0, 0.5, 0.5]), None, r"^pi must be a Pmf, got ndarray$"),
    (0.5, geometric_pi(0.5), lambda s, i, j: 0.0, r"^pi2 must be a BivariatePmfFamily or None, got function$"),
    (0.5, geometric_pi(0.5), "x", r"^pi2 must be a BivariatePmfFamily or None, got str$"),
], ids=["bool-theta", "str-theta", "array-pi", "function-pi2", "str-pi2"])
def test_cpp_model_refuses_a_bad_theta_or_pi_by_name(theta, pi, pi2, message):
    # a bool theta was stored as is, a str one failed with a bare TypeError
    # and an array pi with an AttributeError on its weights; a bare evaluator
    # as pi2 built a model whose sigma_db failed on its missing breakpoints
    with pytest.raises(ValueError, match=message):
        CppModel(theta, pi, pi2)


def test_cpp_model_stores_theta_as_a_float():
    assert type(CppModel(1, geometric_pi(0.5)).theta) is float


def test_cpp_model_rejects_mass_at_size_zero():
    # the power tables and the pbar series stop at m, which needs pi(0) = 0;
    # pbar_theory of this model would be wrong without an error
    with pytest.raises(ValueError, match=r"pi\(0\) = 0.5"):
        pbar_theory(CppModel(0.5, Pmf(np.array([0.5, 0.5]))), 3)
