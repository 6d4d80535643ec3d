"""Limit covariance matrices, the recursion propagation and comparators.

Independent oracles guard the covariance integrals: a literal 2-d
quadrature built only on the count pmfs, the sliding-blocks rule summed
term by term with one (s, u, count, count) table per overlap node
(``oracles.literal_sigma_sb``), and closed-form integrands derived by hand
for the iid model at m=1.  The sliding-blocks evaluator is also held to
its earlier per-overlap-node form (``oracles.per_xi_sigma_sb_entries``),
which built a Poisson table per xi and summed the threshold axis by matrix
products.

The literal quadrature calls cpp_pmf, cpp2_pmf (``oracles``) and
_cpp_pmf_dtau, which rest on the same cpmodel primitives (power tables,
Poisson table) as sigma_db, so it checks the integration, not those
primitives.  The primitives get their own oracles: the term-by-term
sliding rule builds its powers with np.convolve and scipy's convolve2d and
its Poisson terms with scipy's pmf, and test_bivar_powers_match_convolve2d
compares the bivariate power stack with the same convolve2d loop.
"""
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq
from scipy.special import gammaincc

from exclust import asymptotics
from exclust.asymptotics import (
    CovMatrix,
    QuadratureSpec,
    _cpp_pmf_dtau,
    _mu2_robert,
    _sigma_db_entries,
    _sigma_sb_entries,
    _table_bytes,
    disjoint_process_var,
    gamma,
    recursion_matrix,
    robert_crossover,
    sigma_db,
    sigma_sb,
    sliding_process_cov,
    theta_asymp_var,
)
from exclust.cpmodel import (
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
from exclust.errors import NumericFailureError, UnsupportedModelError
from oracles import _bivar_powers, cpp2_pmf, literal_sigma_sb, per_xi_sigma_sb_entries

GEOM = CppModel(0.5, geometric_pi(0.5), max_ar_family(0.5))
GEOM3 = CppModel(0.7, geometric_pi(0.3), max_ar_family(0.3))

FAST = QuadratureSpec(nodes_1d=32, refinement=False)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def literal_sigma_db(model, m, nodes=48):
    """Direct 2-d quadrature of the disjoint-blocks covariance.

    Integrates the pairwise joint laws against dH x dH' literally: the
    indicator-indicator term over nested levels, the mixed term against the
    analytic level-density of the second block, and the own-level term, all
    using only cpp_pmf / cpp2_pmf / _cpp_pmf_dtau.  The level-ratio axis is
    split at the family's breakpoints.
    """
    th = model.theta
    u, wu = gauss_legendre_01(nodes)
    s, ws = gauss_legendre_panels(nodes, model.pi2.breakpoints)
    pbar = pbar_theory(model, m).weights[1:]

    t_zz = np.zeros((m, m))
    for ui, wi in zip(u, wu):
        z = -np.log1p(-ui) / th
        p = cpp_pmf(model, z, m).weights[1:]
        t_zz += wi * np.outer(p, p)

    t_ind = np.zeros((m, m))
    t_mix = np.zeros((m, m))
    for ui, wi in zip(u, wu):
        t = -np.log1p(-ui) / th
        for si, wsi in zip(s, ws):
            tp = si * t
            tab = cpp2_pmf(model, t, tp, m)
            blk = tab[1:, 1:]
            t_ind += wi * wsi * th * t * np.exp(-th * tp) * (blk + blk.T)
            dp = _cpp_pmf_dtau(model, tp, m)[1:]
            t_mix += wi * wsi * t * np.outer(tab[1:, 0], dp)

    return t_ind + t_mix + t_mix.T + t_zz - 4.0 * np.outer(pbar, pbar)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("model", [iid_model(), GEOM], ids=["iid", "geometric"])
def test_bivar_powers_match_convolve2d(model, m):
    sigma = [0.0, 0.1, 0.3, 0.5, 0.77, 1.0]
    got = bivar_powers(model.pi2, sigma, m)
    for si, B in zip(sigma, got):
        ref = _bivar_powers(model.pi2._table(si, m), m)
        np.testing.assert_allclose(B, ref, rtol=0, atol=1e-15)


def hand_sliding_integrand_iid(xv):
    """Hand-reduced xi-integrand of the iid m=1 sliding-blocks covariance.

    Sum of the indicator-indicator, two mixed and own-level contributions,
    each already centered; obtained by evaluating the joint laws of two
    unit windows at lag xi in closed form and integrating the level pair
    analytically.
    """
    a = 3.0 + xv
    c = 1.0 + xv
    ind = (1 - xv) / (2 * a * a) + xv * xv * (1 / a**3 + 1 / (4 * a * a)) \
        + xv * (1 - xv) / (4 * a * a)
    ind = 2 * ind - 1 / 16
    mix = (0.25 * (1 / a - 1 / a**2) + (xv / 2) * (1 / a**2 - 2 / a**3)
           + xv * (1 / (4 * a * a) - 1 / a**3) - 1 / 16)
    own = 2 * ((1 / c - 1 / c**2) * 0.25 - xv / c**2 * (1 / a - 1 / a**2)
               + (1 / c) * (1 / a**2 - 2 / a**3)) - 1 / 16
    # lag runs over (-1, 1) and the combined integrand is even in the lag
    return 2 * (ind + 2 * mix + own)


# ---------------------------------------------------------------------------
# spec and matrix containers
# ---------------------------------------------------------------------------

def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_1d=4)
    with pytest.raises(ValueError):
        QuadratureSpec(tolerance=0.0)
    spec = QuadratureSpec()
    assert spec.nodes_1d == 64 and spec.refinement
    # a NaN tolerance used to switch the node-doubling check off, a
    # fractional node count failed inside scipy, a bool tolerance was
    # accepted and one of 10**400 raised OverflowError
    for name, value in [("tolerance", float("nan")), ("tolerance", float("inf")),
                        ("tolerance", True), ("tolerance", 10**400), ("tolerance", "a"),
                        ("nodes_1d", 24.5), ("nodes_1d", float("nan"))]:
        with pytest.raises(ValueError, match=name):
            QuadratureSpec(**{name: value})
    assert type(QuadratureSpec(nodes_1d=24.0).nodes_1d) is int


def test_cov_matrix_validation():
    good = np.array([[1.0, 0.2], [0.2, 0.5]])
    CovMatrix(good, "sigma_db")
    with pytest.raises(ValueError):
        CovMatrix(good, "covariance")
    with pytest.raises(ValueError):
        CovMatrix(np.array([[1.0, 0.3], [0.2, 0.5]]), "sigma_db")
    with pytest.raises(ValueError):
        CovMatrix(np.array([[-1.0, 0.0], [0.0, 0.5]]), "sigma_db")


@pytest.mark.parametrize("entries, shape", [
    (np.eye(3)[:2], r"\(2, 3\)"), (np.ones(3), r"\(3,\)"), (np.ones((2, 2, 2)), r"\(2, 2, 2\)"),
], ids=["2x3", "1-d", "3-d"])
def test_cov_matrix_refuses_a_non_square_matrix_by_name(entries, shape):
    # the order m is read off the entries, so they must be square
    with pytest.raises(ValueError, match=rf"^entries must be a square matrix, got shape {shape}$"):
        CovMatrix(entries, "sigma_db")
    assert CovMatrix(np.eye(3), "gamma_db").m == 3


@pytest.mark.parametrize("other, equal", [
    (CovMatrix(np.eye(2), "gamma_db"), True),
    (CovMatrix(np.eye(2), "gamma_db", quadrature={"nodes": (8,), "delta": None, "entry": None}), True),
    (CovMatrix(np.diag([1.0, 2.0]), "gamma_db"), False),
    (CovMatrix(np.eye(3), "gamma_db"), False),
    (CovMatrix(np.eye(2), "gamma_sb"), False),
], ids=["equal-distinct-arrays", "equal-other-quadrature", "unequal-entries", "unequal-order", "unequal-kind"])
def test_cov_matrix_equality_compares_kind_and_entries(other, equal):
    # two distinct but equal entries arrays raised "truth value of an array
    # is ambiguous": the dataclass compared (entries, kind) tuples
    mine = CovMatrix(np.eye(2), "gamma_db")
    assert (mine == other) is equal and (mine != other) is not equal


def test_models_without_family_are_rejected():
    bare = CppModel(0.5, geometric_pi(0.5))
    with pytest.raises(UnsupportedModelError):
        sigma_db(bare, 1, FAST)
    with pytest.raises(UnsupportedModelError):
        sigma_sb(bare, 1, FAST)


SHORT = CppModel(0.1, geometric_pi(0.9, m_max=5), max_ar_family(0.9))  # 0.59 of the mass cut off
FULL = CppModel(0.1, geometric_pi(0.9), SHORT.pi2)


def test_truncated_pi_is_rejected():
    # pi is unknown past 5: m = 6 is refused by name, m <= 5 reads exactly
    with pytest.raises(ValueError, match="m=6 reads past the support 0..5"):
        sigma_db(SHORT, 6, FAST)


@pytest.mark.parametrize("read, cut", [
    (lambda m: conv_powers(SHORT.pi, m), "0.59"), (lambda m: cpp_pmf(SHORT, 1.0, m), "0.59"),
    (lambda m: pbar_theory(SHORT, m), "0.59"), (lambda m: _cpp_pmf_dtau(SHORT, 1.0, m), "0.59"),
    (lambda m: disjoint_process_var(SHORT, 1.0, m), "0.59"),
    (lambda m: sliding_process_cov(SHORT, 0.5, 1.0, 1, m), "0.59"),
    (lambda m: recursion_matrix(SHORT.pi, pbar_theory(FULL, m), m), "0.59"),
    # pbar(1..5) of the full law leaves 0.387 of pbar's mass 1/2 past 5
    (lambda m: recursion_matrix(FULL.pi, pbar_theory(FULL, 5), m), "0.38689"),
    (lambda m: theta_asymp_var(CovMatrix(np.eye(m), "gamma_db"), SHORT.pi), "0.59"),
], ids=["conv_powers", "cpp_pmf", "pbar_theory", "cpp_pmf_dtau", "disjoint_process_var",
        "sliding_process_cov", "recursion_matrix-pi", "recursion_matrix-pbar", "theta_asymp_var"])
def test_reads_past_a_truncated_support_are_refused_by_m(read, cut):
    # reading the unknown pi(6) = 0.059, or pbar(6), as 0 gave wrong numbers without a word
    read(5)
    with pytest.raises(ValueError, match=f"m=6 reads past the support 0..5 of a pmf that truncates {cut}"):
        read(6)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_reads_within_a_truncated_support_equal_the_full_support(m):
    # only counts 0..m are read, so the 5-point geometric pmf gives the floats
    # of the 41-point one
    full = CppModel(0.1, geometric_pi(0.9), SHORT.pi2)
    for entries in (_sigma_db_entries, _sigma_sb_entries):
        assert np.array_equal(entries(SHORT, m, 16), entries(full, m, 16))
    assert np.array_equal(pbar_theory(SHORT, m).weights, pbar_theory(full, m).weights)


# ---------------------------------------------------------------------------
# derivative and disjoint covariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [iid_model(), GEOM])
@pytest.mark.parametrize("mu", [0.2, 1.0, 3.0])
def test_cpp_pmf_dtau_matches_finite_differences(model, mu):
    h = 1e-5
    up = cpp_pmf(model, mu + h, 5).weights
    dn = cpp_pmf(model, mu - h, 5).weights
    np.testing.assert_allclose(_cpp_pmf_dtau(model, mu, 5), (up - dn) / (2 * h),
                               atol=1e-6)


def test_cpp_pmf_dtau_takes_an_array_of_tau():
    tau = np.array([[0.2, 1.0], [3.0, 0.0]])
    got = _cpp_pmf_dtau(GEOM, tau, 4)
    assert got.shape == (5, 2, 2)
    for idx in np.ndindex(tau.shape):
        np.testing.assert_allclose(got[(slice(None),) + idx],
                                   _cpp_pmf_dtau(GEOM, tau[idx], 4), rtol=1e-14)


def test_sigma_db_iid_constant(iid_covs):
    db1, _ = iid_covs[1]
    assert db1.kind == "sigma_db"
    np.testing.assert_allclose(db1.entries[0, 0], 5 / 108, atol=1e-10)


def test_sigma_db_matches_literal_quadrature_iid():
    got = sigma_db(iid_model(), 2, FAST).entries
    ref = literal_sigma_db(iid_model(), 2)
    np.testing.assert_allclose(got, ref, atol=1e-6)


def test_sigma_db_matches_literal_quadrature_geometric():
    got = sigma_db(GEOM, 2, FAST).entries
    # 24 nodes per panel suffice: the ratio axis is subdivided at the
    # family breakpoints, so each panel is smooth
    ref = literal_sigma_db(GEOM, 2, nodes=24)
    np.testing.assert_allclose(got, ref, atol=1e-6)


# sigma_db at m = 3 with the default spec, as evaluated by the factorial
# double loops that the binomial closed forms of G and C replaced
FACTORIAL_LOOP_DB_ENTRIES = {
    "iid": [
        [0.04629629629629628, -0.013888888888888867, -0.012088477366255165],
        [-0.013888888888888867, 0.01774691358024691, -0.0005572702331961554],
        [-0.012088477366255165, -0.0005572702331961554, 0.008952046181984454],
    ],
    0.5: [
        [0.013796296296296348, 0.00466820987654324, 0.0014980719369568352],
        [0.00466820987654324, 0.006350197187928661, 0.0005120073875530921],
        [0.0014980719369568352, 0.0005120073875530887, 0.003336616322841126],
    ],
    0.3: [
        [0.027007806483231825, 0.000982315532118208, -0.0030050107914953578],
        [0.000982315532118208, 0.009785354647880579, -0.0015912488883225648],
        [-0.0030050107914953578, -0.0015912488883225717, 0.005575503676948486],
    ],
}


@pytest.mark.parametrize("model", list(FACTORIAL_LOOP_DB_ENTRIES))
def test_sigma_db_closed_forms_match_the_factorial_loops(model):
    mdl = {"iid": iid_model(), 0.5: GEOM, 0.3: GEOM3}[model]
    got = sigma_db(mdl, 3).entries
    assert np.max(np.abs(got - np.array(FACTORIAL_LOOP_DB_ENTRIES[model]))) <= 1e-15


@pytest.mark.parametrize("call, message", [
    (lambda: sigma_db(iid_model(), 2.5, FAST), r"^m=2\.5 is not an integer$"),
    (lambda: sigma_db(iid_model(), True, FAST), r"^m=True is not an integer$"),
    (lambda: sigma_sb(iid_model(), 0, FAST), r"^m must be >= 1, got 0$"),
    (lambda: recursion_matrix(GEOM.pi, pbar_theory(GEOM, 3), 2.5), r"^m=2\.5 is not an integer$"),
    (lambda: disjoint_process_var(GEOM, 1.0, 1.5), r"^j=1\.5 is not an integer$"),
    (lambda: sliding_process_cov(GEOM, 1.0, 1.0, 1.5, 1), r"^j=1\.5 is not an integer$"),
    (lambda: sliding_process_cov(GEOM, 1.0, 1.0, 1, -1), r"^j_prime must be >= 0, got -1$"),
    (lambda: theta_asymp_var(CovMatrix(np.eye(2), "gamma_db"), GEOM.pi, 1.5),
     r"^m=1\.5 is not an integer$"),
], ids=["sigma_db-float", "sigma_db-bool", "sigma_sb-zero", "recursion_matrix", "disjoint_process_var",
        "sliding_process_cov", "sliding_process_cov-negative", "theta_asymp_var"])
def test_non_integer_counts_are_refused_by_name(call, message):
    # each used to fail inside numpy or Python with a TypeError, or (a bool)
    # to return a CovMatrix with m=True
    with pytest.raises(ValueError, match=message):
        call()


def test_integral_float_counts_are_taken_as_ints():
    # sigma_sb(model, 2.0) used to fail inside numpy with a TypeError
    got, want = sigma_sb(iid_model(), 2.0, FAST), sigma_sb(iid_model(), 2, FAST)
    assert type(got.m) is int and np.array_equal(got.entries, want.entries)
    A = recursion_matrix(GEOM.pi, pbar_theory(GEOM, 3), np.int64(3))
    assert np.array_equal(A, recursion_matrix(GEOM.pi, pbar_theory(GEOM, 3), 3))


# sigma_db and sigma_sb at m = 3 as evaluated with scipy's Gauss-Legendre
# rule and incomplete gamma function; the default spec, and nodes_1d=32 for
# the geometric sigma_sb to keep the test short
SCIPY_RULE_ENTRIES = {
    ("iid", "db"): [
        [0.0462962962962985, -0.013888888888888451, -0.012088477366254506],
        [-0.013888888888888465, 0.017746913580246507, -0.0005572702331965371],
        [-0.012088477366254506, -0.0005572702331965371, 0.008952046181984474],
    ],
    ("iid", "sb"): [
        [0.023678802548407485, -0.0053890420505764425, -0.006932230073791401],
        [-0.0053890420505764425, 0.00720977496180876, 0.000522540639169719],
        [-0.006932230073791401, 0.000522540639169719, 0.003816148890855589],
    ],
    (0.5, "db"): [
        [0.013796296296296223, 0.004668209876543178, 0.0014980719369568907],
        [0.004668209876543185, 0.006350197187928647, 0.0005120073875530644],
        [0.0014980719369568976, 0.0005120073875530644, 0.0033366163228411364],
    ],
    (0.5, "sb"): [
        [0.009611737507898413, 0.003719500083251309, 0.001077303716414152],
        [0.003719500083251309, 0.0039035128782621623, 0.0006211898014867323],
        [0.001077303716414152, 0.0006211898014867254, 0.0017824115415376665],
    ],
    (0.3, "db"): [
        [0.027007806483231936, 0.0009823155321182636, -0.003005010791495219],
        [0.0009823155321182636, 0.009785354647880697, -0.0015912488883226203],
        [-0.003005010791495219, -0.0015912488883226203, 0.005575503676948555],
    ],
    (0.3, "sb"): [
        [0.0172651461896233, 0.0015284870154270297, -0.0019857200185992296],
        [0.0015284870154270436, 0.005127850755463237, -0.000517709821291297],
        [-0.0019857200185992435, -0.000517709821291297, 0.002642711986405571],
    ],
}


@pytest.mark.parametrize("model, kind", list(SCIPY_RULE_ENTRIES))
def test_covariances_match_the_scipy_rule(model, kind):
    mdl = {"iid": iid_model(), 0.5: GEOM, 0.3: GEOM3}[model]
    evaluate = sigma_db if kind == "db" else sigma_sb
    nodes = 32 if (model, kind) in ((0.5, "sb"), (0.3, "sb")) else 64
    want = np.array(SCIPY_RULE_ENTRIES[model, kind])
    for m in (1, 2, 3):
        got = evaluate(mdl, m, QuadratureSpec(nodes_1d=nodes)).entries
        assert np.max(np.abs(got - want[:m, :m])) <= 5e-14


def test_sigma_db_iid_constant_to_round_off(iid_covs):
    assert abs(iid_covs[1][0].entries[0, 0] - 5 / 108) <= 5e-15


def test_poisson_sum_is_the_upper_incomplete_gamma():
    # the tail in _sigma_sb_entries: at integer l, Q(l, z) = P(Poisson(z) < l)
    z = np.linspace(0.0, 40.0, 801)
    upper = np.cumsum(poisson_table(z, 5), axis=0)
    for ll in range(1, 7):
        assert np.max(np.abs(upper[ll - 1] - gammaincc(ll, z))) <= 1e-15


def test_sigma_db_symmetry(iid_covs):
    db3, _ = iid_covs[3]
    assert np.max(np.abs(db3.entries - db3.entries.T)) < 1e-10
    g = sigma_db(GEOM, 3, FAST).entries
    assert np.max(np.abs(g - g.T)) < 1e-10


def test_sigma_db_embeds_smaller_m(iid_covs):
    # the (j, j') entry does not depend on the matrix size
    db1, _ = iid_covs[1]
    db3, _ = iid_covs[3]
    np.testing.assert_allclose(db3.entries[:1, :1], db1.entries, atol=1e-12)


# ---------------------------------------------------------------------------
# sliding covariance
# ---------------------------------------------------------------------------

def test_sigma_sb_iid_constant(iid_covs):
    _, sb1 = iid_covs[1]
    assert sb1.kind == "sigma_sb"
    assert abs(16 * sb1.entries[0, 0] - 0.3790) < 5e-4


def test_sigma_sb_matches_hand_integrand(iid_covs):
    _, sb1 = iid_covs[1]
    hand, err = scipy_quad(hand_sliding_integrand_iid, 0.0, 1.0, epsabs=1e-12)
    assert err < 1e-10
    np.testing.assert_allclose(hand, 0.023678801836469643, atol=1e-12)
    np.testing.assert_allclose(sb1.entries[0, 0], hand, atol=1e-7)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("model", [iid_model(), GEOM], ids=["iid", "geometric"])
def test_sigma_sb_matches_literal_rule(model, m):
    got = sigma_sb(model, m, FAST).entries
    np.testing.assert_allclose(got, literal_sigma_sb(model, m), rtol=0, atol=1e-12)


def test_sigma_sb_memory_stays_small():
    # no (s, u, count, count) table per overlap node: 97 MB before, ~20 MB now
    tracemalloc.start()
    try:
        sigma_sb(GEOM, 3, QuadratureSpec(nodes_1d=24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_sigma_db_entries_contract_the_bivariate_powers_once():
    # no symmetrized copy of BT: 6.44 MB traced before, 4.21 MB now
    _sigma_db_entries(GEOM, 3, 128)  # warm-up
    tracemalloc.start()
    try:
        _sigma_db_entries(GEOM, 3, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.3e6


@pytest.mark.parametrize("nodes", [8, 24])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "model", [iid_model(), GEOM, GEOM3], ids=["iid", "geometric0.5", "geometric0.3"]
)
def test_sigma_sb_entries_match_the_per_xi_loop(model, m, nodes):
    got = _sigma_sb_entries(model, m, nodes)
    np.testing.assert_allclose(
        got, per_xi_sigma_sb_entries(model, m, nodes), rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("model", [iid_model(), GEOM], ids=["iid", "geometric"])
def test_sigma_sb_entries_do_not_depend_on_the_chunk_size(model, monkeypatch):
    # a budget of one byte leaves one threshold node per chunk, a huge one
    # puts all 24 nodes in one chunk; a tile of one row runs one GEMM per
    # window ratio, a huge one all of them (816 for the geometric model) in
    # one
    oracle = per_xi_sigma_sb_entries(model, 3, 24)
    budgets = (1, asymptotics._CHUNK_BYTES, 1 << 40)
    tiles = (1, asymptotics._TILE_ROWS, 1 << 20)
    got = []
    for budget in budgets:
        monkeypatch.setattr(asymptotics, "_CHUNK_BYTES", budget)
        for rows in tiles:
            monkeypatch.setattr(asymptotics, "_TILE_ROWS", rows)
            got.append(_sigma_sb_entries(model, 3, 24))
            np.testing.assert_allclose(got[-1], oracle, rtol=0, atol=1e-15)
    for other in got[1:]:
        np.testing.assert_allclose(other, got[0], rtol=0, atol=1e-15)


def test_sigma_sb_entries_peak_memory_stays_below_the_per_xi_loop():
    # the bound is the per-xi loop's peak here, after a warm-up call
    _sigma_sb_entries(GEOM, 3, 8)
    tracemalloc.start()
    try:
        _sigma_sb_entries(GEOM, 3, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18_014_364


def test_sigma_sb_entries_build_the_weights_per_threshold_node():
    # the u loop builds each node's Poisson weights and shared-piece table:
    # 10.3 MB traced with whole (S, U) grids of them, 3.2 MB now
    _sigma_sb_entries(iid_model(), 5, 8)  # warm-up
    tracemalloc.start()
    try:
        _sigma_sb_entries(iid_model(), 5, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_sigma_sb_symmetry(iid_covs):
    _, sb3 = iid_covs[3]
    assert np.max(np.abs(sb3.entries - sb3.entries.T)) < 1e-10


@pytest.mark.parametrize("m", [1, 2, 3])
def test_loewner_ordering_iid(iid_covs, m):
    db, sb = iid_covs[m]
    eig = np.linalg.eigvalsh(db.entries - sb.entries)
    assert eig.min() >= -1e-6


def test_loewner_ordering_geometric():
    db = sigma_db(GEOM, 2, FAST).entries
    sb = sigma_sb(GEOM, 2, FAST).entries
    assert np.linalg.eigvalsh(db - sb).min() >= -1e-6


def test_refinement_returns_the_fine_grid():
    coarse_spec = QuadratureSpec(nodes_1d=16, refinement=True, tolerance=1e-2)
    fine_spec = QuadratureSpec(nodes_1d=32, refinement=False)
    a = sigma_db(iid_model(), 1, coarse_spec).entries
    b = sigma_db(iid_model(), 1, fine_spec).entries
    np.testing.assert_array_equal(a, b)


def test_refinement_failure_raises_with_delta():
    spec = QuadratureSpec(nodes_1d=8, refinement=True, tolerance=1e-12)
    with pytest.raises(NumericFailureError) as exc:
        sigma_sb(iid_model(), 2, spec)
    assert exc.value.delta is not None and exc.value.delta > 0
    # it names the node counts compared and the (j, j') entry that moved most
    moved = np.abs(_sigma_sb_entries(iid_model(), 2, 16) - _sigma_sb_entries(iid_model(), 2, 8))
    assert exc.value.delta == moved.max()
    assert exc.value.nodes == (8, 16)
    j, jp = exc.value.entry
    assert moved[j - 1, jp - 1] == moved.max()
    assert f"(j, j') = ({j}, {jp})" in str(exc.value) and "8 -> 16 nodes" in str(exc.value)


@pytest.mark.parametrize("evaluate, entries", [(sigma_db, _sigma_db_entries),
                                               (sigma_sb, _sigma_sb_entries)])
def test_covariances_carry_what_the_refinement_reached(evaluate, entries):
    cov = evaluate(GEOM, 3, QuadratureSpec(nodes_1d=8, tolerance=1.0))
    moved = np.abs(entries(GEOM, 3, 16) - entries(GEOM, 3, 8))
    assert cov.quadrature["nodes"] == (8, 16)
    assert cov.quadrature["delta"] == moved.max() > 0
    j, jp = cov.quadrature["entry"]
    assert moved[j - 1, jp - 1] == moved.max()
    np.testing.assert_array_equal(cov.entries, entries(GEOM, 3, 16))
    # without refinement only the one node count is known
    once = evaluate(GEOM, 3, QuadratureSpec(nodes_1d=8, refinement=False))
    assert once.quadrature == {"nodes": (8,), "delta": None, "entry": None}
    # the field stays out of equality, and gamma's matrices have none
    assert once == CovMatrix(once.entries, once.kind)
    assert gamma(once, np.eye(3)).quadrature is None


@pytest.mark.parametrize("evaluate, model, m, nodes", [
    (sigma_db, GEOM, 40, 64),
    (sigma_sb, GEOM, 40, 64),
    (sigma_sb, iid_model(), 5, 2048),
    (sigma_sb, GEOM, 3, 1024),
])
def test_covariances_above_the_table_budget_are_refused_before_any_table(evaluate, model, m, nodes):
    # geometric db at m=40 would need 2.4 GB of bivariate powers at 128 nodes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"m={m} with nodes_1d={nodes} needs"):
            evaluate(model, m, QuadratureSpec(nodes_1d=nodes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("call, message", [
    (lambda: conv_powers(iid_model().pi, 10**5), r"^m=100000 needs a 76,295 MB table"),
    (lambda: cpp_pmf(iid_model(), 0.5, 10**5), r"^m=100000 needs a 76,295 MB table"),
    (lambda: disjoint_process_var(iid_model(), 0.5, 10**5), r"^m=100000 needs a 76,295 MB table"),
    (lambda: sliding_process_cov(iid_model(), 0.5, 0.7, 10**5, 1), r"^m=100000 needs a 76,295 MB table"),
    (lambda: bivar_powers(max_ar_family(0.5), [0.5], 10**4),
     r"^m=10000 on 1 window-length ratios needs a 7,631,684 MB table"),
    (lambda: bivar_powers(max_ar_family(0.5), np.full(2_000, 0.5), 40),
     r"^m=40 on 2000 window-length ratios needs a 1,052 MB table"),
], ids=["conv_powers", "cpp_pmf", "disjoint_process_var", "sliding_process_cov", "bivar_powers-m",
        "bivar_powers-nodes"])
def test_power_tables_above_the_budget_are_refused_before_any_table(call, message):
    # the process variances asked numpy for a 74.5 GiB table of conv_powers,
    # and bivar_powers worked for seconds before failing to allocate its pi2
    # table; the refusal names the count and the bytes, above the same limit
    # as the covariances
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message + r", above the 256 MB limit$"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("kind", ["sigma_db", "sigma_sb"])
def test_default_specs_stay_far_below_the_table_budget(kind):
    # the specs of tests/data/variance.txt, the default spec at m = 5, and
    # the CLI property draws at their widest: alpha = 0.95 (448 knots) with
    # m = 3 and 32 nodes
    wide = CppModel(0.05, geometric_pi(0.95), max_ar_family(0.95))
    for model, m, quad in [(iid_model(), 3, QuadratureSpec()), (GEOM, 3, QuadratureSpec()),
                           (GEOM, 3, QuadratureSpec(nodes_1d=24)), (GEOM, 5, QuadratureSpec()),
                           (wide, 3, QuadratureSpec(nodes_1d=32))]:
        assert _table_bytes(model, m, quad, kind) < asymptotics._TABLE_BYTES / 10


# ---------------------------------------------------------------------------
# recursion propagation
# ---------------------------------------------------------------------------

def _recursive_v(pi, pbar, s):
    v = np.zeros(len(s))
    for j in range(1, len(s) + 1):
        acc = 4.0 * s[j - 1]
        for k in range(1, j):
            acc -= 2.0 * pi[j - k] * s[k - 1]
            acc -= 2.0 * pbar[j - k] * v[k - 1]
        v[j - 1] = acc
    return v


def test_recursion_matrix_m1():
    A = recursion_matrix(geometric_pi(0.5), pbar_theory(GEOM, 1), 1)
    np.testing.assert_array_equal(A, [[4.0]])


def test_recursion_matrix_is_lower_triangular():
    A = recursion_matrix(geometric_pi(0.5), pbar_theory(GEOM, 5), 5)
    assert np.all(A[np.triu_indices(5, k=1)] == 0.0)
    assert np.all(np.diag(A) == 4.0)


def test_recursion_matrix_matches_recursive_evaluation():
    pi = geometric_pi(0.5)
    pbar = pbar_theory(GEOM, 5)
    A = recursion_matrix(pi, pbar, 5)
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = rng.normal(size=5)
        np.testing.assert_allclose(A @ s, _recursive_v(pi.weights, pbar.weights, s), atol=1e-12)


def test_recursion_matrix_is_jacobian_of_pi_from_pbar():
    from exclust.estimators import pi_from_pbar

    class Holder:
        def __init__(self, values):
            self.values = values

    pbar = pbar_theory(GEOM, 4)
    A = recursion_matrix(geometric_pi(0.5), pbar, 4)
    base = pbar.weights[1:5].copy()
    h = 1e-6
    for k in range(4):
        up, dn = base.copy(), base.copy()
        up[k] += h
        dn[k] -= h
        col = (pi_from_pbar(Holder(up)).values - pi_from_pbar(Holder(dn)).values) / (2 * h)
        np.testing.assert_allclose(col, A[:, k], atol=1e-8)


def test_gamma_propagation(iid_covs):
    db1, sb1 = iid_covs[1]
    A = recursion_matrix(geometric_pi(0.0), pbar_theory(iid_model(), 1), 1)
    g_db = gamma(db1, A)
    assert g_db.kind == "gamma_db"
    assert abs(g_db.entries[0, 0] - 20 / 27) < 4e-4
    g_sb = gamma(sb1, A)
    assert g_sb.kind == "gamma_sb"
    assert abs(g_sb.entries[0, 0] - 0.3790) < 5e-4


def test_gamma_dimension_mismatch(iid_covs):
    db1, _ = iid_covs[1]
    with pytest.raises(ValueError):
        gamma(db1, np.eye(2))


def test_gamma_rejects_gamma_input(iid_covs):
    db1, _ = iid_covs[1]
    A = np.eye(1) * 4
    with pytest.raises(ValueError):
        gamma(gamma(db1, A), A)


def test_theta_asymp_var_rejects_sigma_input(iid_covs):
    # a sigma matrix used to give a number (0.0463 at m=1) without a word
    db1, _ = iid_covs[1]
    with pytest.raises(ValueError, match=r"^theta_asymp_var needs a gamma_db or gamma_sb input, got sigma_db$"):
        theta_asymp_var(db1, geometric_pi(0.0))


def test_gamma_is_psd(iid_covs):
    db3, sb3 = iid_covs[3]
    pi = geometric_pi(0.0)
    A = recursion_matrix(pi, pbar_theory(iid_model(), 3), 3)
    for cov in (gamma(db3, A), gamma(sb3, A)):
        assert np.linalg.eigvalsh(cov.entries).min() >= -1e-8


def test_theta_asymp_var(iid_covs):
    db1, sb1 = iid_covs[1]
    pi = geometric_pi(0.0)
    A = recursion_matrix(pi, pbar_theory(iid_model(), 1), 1)
    assert abs(theta_asymp_var(gamma(db1, A), pi) - 20 / 27) < 4e-4
    assert abs(theta_asymp_var(gamma(sb1, A), pi) - 0.3790) < 5e-4


def test_theta_asymp_var_scaling(iid_covs):
    db3, _ = iid_covs[3]
    pi = geometric_pi(0.5)
    A = recursion_matrix(pi, pbar_theory(GEOM, 3), 3)
    g = gamma(db3, A)
    scaled = CovMatrix(7.0 * g.entries, "gamma_db")
    np.testing.assert_allclose(
        theta_asymp_var(scaled, pi), 7.0 * theta_asymp_var(g, pi), rtol=1e-12
    )


def test_theta_asymp_var_zero_denominator(iid_covs):
    db1, _ = iid_covs[1]
    A = recursion_matrix(geometric_pi(0.0), pbar_theory(iid_model(), 1), 1)
    g = gamma(db1, A)
    from exclust.cpmodel import Pmf

    with pytest.raises(ValueError):
        theta_asymp_var(g, Pmf(np.array([0.0, 0.0])))


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------

def test_mu2_robert_closed_form():
    np.testing.assert_allclose(_mu2_robert(1.0), np.e - 1.0, rtol=1e-14)
    assert abs(_mu2_robert(0.7573) - 20 / 27) < 1e-3
    with pytest.raises(ValueError):
        _mu2_robert(0.0)
    # NaN passed `tau <= 0` and came back as nan
    with pytest.raises(ValueError, match="tau must be positive, got nan"):
        _mu2_robert(float("nan"))


def test_mu2_robert_below_the_cut_matches_a_decimal_oracle():
    # e^tau (1 - tau + tau^2) - 1 to 60 digits; the closed form read 0.0 at
    # tau = 1e-8, where the value is 5e-17, by cancellation
    with localcontext() as ctx:
        ctx.prec = 60
        for tau in np.geomspace(1e-12, 0.5, 241)[:-1].tolist():
            t = Decimal(tau)
            want = float(t.exp() * (1 - t + t * t) - 1)
            assert abs(_mu2_robert(tau) - want) <= 2 * math.ulp(want), tau


def test_mu2_robert_strictly_increasing():
    grid = np.linspace(0.1, 3.0, 60)
    vals = [_mu2_robert(t) for t in grid]
    assert np.all(np.diff(vals) > 0)


def test_robert_crossover():
    t = robert_crossover(20 / 27)
    assert abs(t - 0.7573) < 1e-3
    np.testing.assert_allclose(_mu2_robert(t), 20 / 27, atol=1e-10)
    with pytest.raises(ValueError):
        robert_crossover(-1.0)


@pytest.mark.parametrize("variance", [1e-6, 0.01, 20 / 27, 1.0, 7.5, 1e4])
def test_robert_crossover_matches_brentq(variance):
    want = brentq(lambda t: _mu2_robert(t) - variance, 1e-8, 50.0, xtol=1e-12)
    assert abs(robert_crossover(variance) - want) <= 2e-12


def test_disjoint_process_var_closed_forms():
    model = iid_model()
    np.testing.assert_allclose(
        disjoint_process_var(model, 1.0, 1), np.exp(-1) - np.exp(-2), rtol=1e-13
    )
    p2 = np.exp(-1) / 2
    np.testing.assert_allclose(
        disjoint_process_var(model, 1.0, 2), p2 * (1 - p2), rtol=1e-13
    )
    # NaN passed `tau < 0` and came back as nan
    with pytest.raises(ValueError, match="tau must be >= 0, got nan"):
        disjoint_process_var(model, float("nan"), 1)


def test_process_variances_at_count_zero():
    model = iid_model()
    p0 = np.exp(-1.0)
    np.testing.assert_allclose(disjoint_process_var(model, 1.0, 0), p0 * (1 - p0), rtol=1e-14)
    np.testing.assert_allclose(disjoint_process_var(model, 1.0, 0), 0.2325, atol=1e-4)
    # at tau = 0 the count is 0 almost surely
    assert disjoint_process_var(GEOM, 0.0, 0) == 0.0
    assert disjoint_process_var(GEOM, 0.0, 2) == 0.0
    assert abs(sliding_process_cov(model, 0.0, 1.0, 0, 1)) < 1e-15


@pytest.mark.parametrize("call, message", [
    (lambda: Pmf(np.array([np.nan, 0.5])), "pmf weights must be finite"),
    (lambda: Pmf(np.array([0.0, np.inf])), "pmf weights must be finite"),
    (lambda: Pmf(np.array([0.0, 1.0]), trunc_mass=np.nan), "trunc_mass must be a finite"),
    (lambda: Pmf(np.array([0.0, 0.5]), trunc_mass=-0.5), "trunc_mass must be >= 0"),
    (lambda: cpp_pmf(iid_model(), np.inf, 3), "tau must be a finite"),
    (lambda: cpp2_pmf(iid_model(), np.inf, 1.0, 2), "tau1 must be a finite"),
    (lambda: disjoint_process_var(iid_model(), np.inf, 1), "tau must be a finite"),
    (lambda: sliding_process_cov(iid_model(), 1.0, np.inf, 1, 1), "tau_prime must be a finite"),
    (lambda: _mu2_robert(np.inf), "tau must be a finite"),
], ids=["nan-weight", "inf-weight", "nan-tail", "negative-tail", "cpp_pmf", "cpp2_pmf",
        "disjoint_process_var", "sliding_process_cov", "mu2_robert"])
def test_non_finite_inputs_are_refused_by_name(call, message):
    # each was accepted; the four laws and variances came back as NaN, and
    # _mu2_robert(inf) as inf
    with pytest.raises(ValueError, match=message):
        call()


def test_sliding_process_cov_iid_constants():
    model = iid_model()
    c11 = sliding_process_cov(model, 1.0, 1.0, 1, 1)
    np.testing.assert_allclose(c11, 2 * np.exp(-2) * (2 * np.e - 5), atol=1e-9)
    c22 = sliding_process_cov(model, 1.0, 1.0, 2, 2)
    np.testing.assert_allclose(c22, np.exp(-2) * (5 * np.e - 13), atol=1e-9)


def test_sliding_process_cov_beats_disjoint_at_tau_one():
    model = iid_model()
    for j in (1, 2):
        assert sliding_process_cov(model, 1.0, 1.0, j, j) < disjoint_process_var(
            model, 1.0, j
        )


def test_sliding_process_cov_symmetric_at_equal_levels():
    a = sliding_process_cov(GEOM, 1.0, 1.0, 1, 2)
    b = sliding_process_cov(GEOM, 1.0, 1.0, 2, 1)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_sliding_process_cov_argument_checks():
    with pytest.raises(ValueError):
        sliding_process_cov(iid_model(), 2.0, 1.0, 1, 1)
    assert sliding_process_cov(iid_model(), 0.0, 0.0, 1, 1) == 0.0
