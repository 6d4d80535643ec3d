"""Reference estimators from the benchmark study."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclust import competitors
from exclust.blocks import Sample
from exclust.competitors import (
    CompetitorSpec,
    _disjoint_grid,
    _split_clusters,
    cpp_invert,
    ferro_pi,
    hsing_pi,
    robert_pi,
)
from exclust.cpmodel import CppModel, cpp_pmf, geometric_pi
from exclust.estimators import pbar_hat, pi_from_pbar
from exclust.errors import DegenerateEstimateError
from exclust.simulate import ModelSpec, gen, substream_seed

from oracles import convolve_invert, ferro_positions


def literal_pi(sizes, n_clusters, m_max):
    """Fraction of clusters of each size m = 1..m_max, one count_nonzero per m."""
    return np.array([np.count_nonzero(sizes == m) / n_clusters for m in range(1, m_max + 1)])


def literal_hsing(x, b, m_max):
    """hsing_pi by literal comparison of every disjoint block with the threshold."""
    n = x.size
    s = 2 * (b - 3)
    v = np.sort(x)[n - n // s - 1]
    k = n // b
    counts = (x[: k * b].reshape(k, b) > v).sum(axis=1)
    occupied = np.count_nonzero(counts >= 1)
    if occupied == 0:
        return None
    return literal_pi(counts, occupied, m_max)


def literal_robert(x, spec):
    """robert_pi with one literal block comparison per grid threshold."""
    n = x.size
    k = n // spec.b
    blocks = x[: k * spec.b].reshape(k, spec.b)
    desc = np.sort(x)[::-1]
    acc = np.zeros(spec.m_max)
    used = 0
    for tau in np.linspace(spec.robert_sigma, spec.robert_phi, spec.robert_grid):
        rank = math.ceil(k * tau)
        if rank > n:
            continue
        counts = (blocks > desc[rank - 1]).sum(axis=1)
        phat = np.array([np.count_nonzero(counts == m) / k for m in range(spec.m_max + 1)])
        if phat[0] == 0.0 or phat[0] == 1.0:
            continue
        acc += convolve_invert(phat, tau)[1]
        used += 1
    return acc / used if used else None


def _values_or_none(estimate, *args):
    try:
        return estimate(*args).values
    except DegenerateEstimateError:
        return None


def _tied_sample(rng):
    n = int(rng.integers(40, 400))
    if rng.random() < 0.5:
        return rng.integers(0, 6, n).astype(float)
    return np.round(rng.pareto(1.5, n), 1)


def test_hsing_and_robert_match_literal_block_counts():
    rng = np.random.default_rng(41)
    for case in range(150):
        x = _tied_sample(rng)
        m_max = int(rng.integers(1, 8))
        # b below, at and above m_max + 1, the number of order statistics kept per block
        b = int(rng.integers(4, 12) if case % 2 else rng.integers(4, x.size // 2 + 1))
        got, want = _values_or_none(hsing_pi, x, b, m_max), literal_hsing(x, b, m_max)
        assert (got is None and want is None) or np.array_equal(got, want)
        spec = CompetitorSpec("robert", b, m_max=m_max, robert_phi=float(rng.uniform(0.8, 4.0)))
        got, want = _values_or_none(robert_pi, x, spec), literal_robert(x, spec)
        assert (got is None and want is None) or np.array_equal(got, want)


@st.composite
def grid_case(draw):
    """A series with ties (rounded, integer or signed-zero values), a grid of
    block sizes, some below m_max + 1, a count cap from 1 to 8, a non-empty
    subset of the disjoint readers in any order, and Robert's threshold
    scales, whose largest may pass the sample (ceil(k tau) > n)."""
    n = draw(st.integers(8, 120))
    values = draw(st.sampled_from([
        st.floats(-3, 3).map(lambda v: round(v, 1)),
        st.integers(-2, 3).map(float),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1e3, 1e3),
    ]))
    x = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    readers = draw(st.lists(st.sampled_from(["z", "y", "hsing", "robert"]), min_size=1, max_size=4, unique=True))
    low = 4 if "hsing" in readers else 2
    grid = tuple(draw(st.lists(st.integers(low, n // 2), min_size=1, max_size=4, unique=True)))
    m_max = draw(st.integers(1, 8))
    sigma = draw(st.floats(0.1, 1.0))
    spec = (sigma, draw(st.floats(sigma + 0.1, 3.0)), draw(st.integers(2, 25)))
    return x, grid, m_max, readers, spec


@given(grid_case())
@settings(max_examples=150, deadline=None)
def test_the_grid_pass_equals_the_per_b_calls(case):
    # one pass over the grid, with every reader's thresholds searched in one
    # table, gives the floats of the per-b calls, and NaN exactly where a
    # call raises DegenerateEstimateError
    x, grid, m_max, readers, (sigma, phi, points) = case
    taus = np.linspace(sigma, phi, points)
    got = _disjoint_grid(Sample(x), grid, m_max, tuple(readers), taus)
    assert sorted(got) == sorted(readers)
    for ib, b in enumerate(grid):
        spec = CompetitorSpec("robert", b, m_max, sigma, phi, points)
        calls = {
            "z": lambda: pi_from_pbar(pbar_hat(x, b, "disjoint", "z", m_max)),
            "y": lambda: pi_from_pbar(pbar_hat(x, b, "disjoint", "y", m_max)),
            "hsing": lambda: hsing_pi(x, b, m_max),
            "robert": lambda: robert_pi(x, spec),
        }
        for reader in readers:
            want = _values_or_none(calls[reader])
            if want is None:
                assert np.isnan(got[reader][ib]).all()
            else:
                assert got[reader][ib].tobytes() == np.asarray(want, dtype=float).tobytes()


def test_ferro_matches_literal_size_counts(monkeypatch):
    clusterings = []

    def recording_split(positions, n_clusters):
        sizes = _split_clusters(positions, n_clusters)
        clusterings.append((sizes, n_clusters))
        return sizes

    monkeypatch.setattr(competitors, "_split_clusters", recording_split)
    rng = np.random.default_rng(43)
    for _ in range(60):
        x = _tied_sample(rng)
        m_max = int(rng.integers(1, 8))
        b = int(rng.integers(4, x.size // 4 + 1))
        got = _values_or_none(ferro_pi, x, b, m_max)
        if got is not None:
            assert np.array_equal(got, literal_pi(*clusterings[-1], m_max))
    assert len(clusterings) > 30


def test_ferro_selects_the_stable_argsort_exceedances(monkeypatch):
    # ferro_pi selects the num-th largest value instead of sorting; the
    # equal values at the cut must still be taken earliest first
    chosen = []

    def recording_split(positions, n_clusters):
        chosen.append(positions)
        return _split_clusters(positions, n_clusters)

    monkeypatch.setattr(competitors, "_split_clusters", recording_split)
    rng = np.random.default_rng(53)
    split_ties = 0
    for _ in range(80):
        x = _tied_sample(rng)
        b = int(rng.integers(4, x.size // 4 + 1))
        num = 3 * (x.size // b)
        if _values_or_none(ferro_pi, x, b, 5) is None:
            continue
        want = ferro_positions(x, num)
        assert np.array_equal(chosen[-1], want)
        cut = x[want].min()
        split_ties += np.count_nonzero(x == cut) > np.count_nonzero(x[want] == cut)
    assert split_ties > 30  # the cut fell inside a run of equal values


def test_hsing_and_ferro_reject_m_max_below_one():
    x = np.random.default_rng(47).pareto(1.5, 200)
    for m_max in (0, -2):
        with pytest.raises(ValueError, match="m_max must be >= 1"):
            hsing_pi(x, 10, m_max=m_max)
        with pytest.raises(ValueError, match="m_max must be >= 1"):
            ferro_pi(x, 10, m_max=m_max)


def test_competitor_spec_validation():
    CompetitorSpec("robert", 20)
    with pytest.raises(ValueError):
        CompetitorSpec("runs", 20)
    # hsing_pi and ferro_pi take no spec; robert_pi refused these only when called
    for kind in ("hsing", "ferro"):
        with pytest.raises(ValueError, match=r"kind must be one of \('robert',\), got '"):
            CompetitorSpec(kind, 20)
    with pytest.raises(ValueError):
        CompetitorSpec("robert", 20, robert_sigma=1.4)
    with pytest.raises(ValueError):
        CompetitorSpec("robert", 20, robert_grid=1)
    # used to be accepted and fail inside np.linspace
    with pytest.raises(ValueError, match=r"robert_grid=2\.5 is not an integer"):
        CompetitorSpec("robert", 6, robert_grid=2.5)
    assert type(CompetitorSpec("robert", 6, robert_grid=np.float64(4.0)).robert_grid) is int
    # a string raised TypeError in the comparison; an infinite phi was
    # accepted and robert_pi failed inside numpy
    with pytest.raises(ValueError, match=r"^robert_sigma must be a finite real number, got 'a'$"):
        CompetitorSpec("robert", 20, robert_sigma="a")
    with pytest.raises(ValueError, match=r"^robert_phi must be a finite real number, got inf$"):
        CompetitorSpec("robert", 20, robert_phi=math.inf)
    spec = CompetitorSpec("robert", 20, robert_sigma=np.float64(0.5), robert_phi=2)
    assert (type(spec.robert_sigma), type(spec.robert_phi)) == (float, float)


def test_hsing_hand_example():
    # s_n = 4, threshold = 15th ascending value; only the last block exceeds
    est = hsing_pi(np.arange(1.0, 21.0), 5)
    np.testing.assert_array_equal(est.values, [0.0, 0.0, 0.0, 0.0, 1.0])


def test_hsing_isolated_exceedances():
    x = np.zeros(40)
    x[[3, 11, 19, 27, 35]] = np.arange(5.0, 10.0)  # one spike per block of 8
    est = hsing_pi(x, 8)
    assert est.values[0] == 1.0


def test_hsing_normalization():
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.pareto(1.5, size=int(rng.integers(60, 400)))
        est = hsing_pi(x, 10, m_max=12)
        occupied_mass = est.values.sum()
        # all occupied blocks fall in 1..m_max once m_max is generous
        assert occupied_mass == pytest.approx(1.0)


def test_hsing_requires_blocks_of_four():
    with pytest.raises(ValueError):
        hsing_pi(np.arange(40.0), 3)


def test_hsing_degenerate_on_constant_series():
    with pytest.raises(DegenerateEstimateError):
        hsing_pi(np.full(60, 2.0), 6)


def test_hsing_armax_monte_carlo():
    vals = []
    for rep in range(200):
        x = gen(ModelSpec("armax", 2000, 0.5, seed=substream_seed(78, rep)))
        vals.append(hsing_pi(x, 20).values[0])
    assert 0.35 <= np.mean(vals) <= 0.65


def test_split_clusters_well_separated():
    pos = np.array([10, 11, 500, 501, 990, 991])
    np.testing.assert_array_equal(_split_clusters(pos, 3), [2, 2, 2])


def test_split_clusters_tie_breaks_earliest():
    pos = np.array([0, 10, 20, 30])
    np.testing.assert_array_equal(_split_clusters(pos, 2), [1, 3])
    np.testing.assert_array_equal(_split_clusters(pos, 3), [1, 1, 2])


def test_split_clusters_single_cluster():
    np.testing.assert_array_equal(_split_clusters(np.array([5, 9, 14]), 1), [3])


def test_split_clusters_partitions_all_positions():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n_pos = int(rng.integers(2, 60))
        pos = np.sort(rng.choice(5000, size=n_pos, replace=False))
        c = int(rng.integers(1, n_pos + 1))
        sizes = _split_clusters(pos, c)
        assert sizes.sum() == n_pos
        assert len(sizes) == c
        assert np.all(sizes >= 1)


def test_ferro_sizes_sum_to_n_exceedances():
    # with a generous m_max, values are counts/C, so sum(values) = 1 and
    # N / sum(m * values) recovers the integer cluster count C
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(200, 800))
        x = rng.pareto(1.0, size=n)
        b = int(rng.choice([10, 20, 40]))
        n_exc = 3 * (n // b)
        est = ferro_pi(x, b, m_max=n_exc)
        assert est.values.sum() == pytest.approx(1.0)
        mean_size = np.sum(np.arange(1, n_exc + 1) * est.values)
        c = n_exc / mean_size
        assert c == pytest.approx(round(c), abs=1e-9)
        assert 1 <= round(c) <= n_exc


def test_ferro_iid_monte_carlo():
    vals = []
    for rep in range(200):
        x = gen(ModelSpec("iid_frechet", 2000, seed=substream_seed(77, rep)))
        vals.append(ferro_pi(x, 20).values[0])
    assert np.mean(vals) >= 0.9


def test_ferro_degenerate_when_exceedances_adjacent():
    x = np.concatenate([np.zeros(370), np.arange(1.0, 31.0)])
    with pytest.raises(DegenerateEstimateError):
        ferro_pi(x, 40)


def test_cpp_invert_round_trip():
    # forward pmf from the model, inversion must recover pi exactly
    pi = geometric_pi(0.5)
    model = CppModel(0.7, pi)
    for tau in (0.7, 1.0, 1.3):
        p = cpp_pmf(model, tau, 5).weights
        theta, pi_hat = cpp_invert(p, tau)
        np.testing.assert_allclose(theta, 0.7, atol=1e-12)
        np.testing.assert_allclose(pi_hat, pi.weights[1:6], atol=1e-12)


def test_cpp_invert_matches_the_convolve_loop_bit_for_bit():
    # count fractions as robert_pi passes them (some with zero entries) and
    # arbitrary rows, m from 1 to 15 (numpy sums the full overlap of 12 or
    # more entries by BLAS, of fewer by its own loop)
    rng = np.random.default_rng(97)
    for _ in range(3000):
        m = int(rng.integers(1, 16))
        if rng.random() < 0.5:
            k = int(rng.integers(2, 400))
            counts = rng.multinomial(k, rng.dirichlet(np.ones(m + 2)))
            if not 0 < counts[0] < k:
                continue
            p = counts[: m + 1] / k
        else:
            p = rng.dirichlet(np.ones(m + 2))[: m + 1]
        tau = rng.uniform(0.1, 3.0)
        theta, pi = cpp_invert(p, tau)
        want_theta, want_pi = convolve_invert(p, tau)
        assert theta == want_theta and pi.tobytes() == want_pi.tobytes()


def test_batched_inversion_matches_the_convolve_loop_row_by_row():
    # robert_pi inverts its grid's rows in one call; each row must come out
    # as the one-row loop would give it, whatever rows share the call
    rng = np.random.default_rng(101)
    for m in range(1, 16):
        rows = []
        while len(rows) < 40:
            if len(rows) % 2:
                counts = rng.multinomial(int(rng.integers(2, 400)), rng.dirichlet(np.ones(m + 2)))
                if 0 < counts[0] < counts.sum():
                    rows.append(counts[: m + 1] / counts.sum())
            else:
                rows.append(rng.dirichlet(np.ones(m + 2))[: m + 1])
        P = np.array(rows)
        lam, pi = competitors._invert_rows(P)
        for g, p in enumerate(P):
            want_lam, want_pi = convolve_invert(p, 1.0)
            assert lam[g] == want_lam and pi[g, 1:].tobytes() == want_pi.tobytes()


@pytest.mark.parametrize("p, tau, match", [
    ([0.5, math.nan], 1.0, r"p\(1..m\) must be finite and non-negative"),
    ([0.5, math.inf], 1.0, r"p\(1..m\) must be finite and non-negative"),
    ([0.5, 0.25, -0.125], 1.0, r"p\(1..m\) must be finite and non-negative"),
    ([0.5, 0.25], math.inf, "tau must be a finite real number, got inf"),
    ([0.5, 0.25], "1", "tau must be a finite real number, got '1'"),
], ids=["p_nan", "p_inf", "p_negative", "tau_inf", "tau_str"])
def test_cpp_invert_refuses_bad_inputs_by_name(p, tau, match):
    # [0.5, nan] gave pi [nan], [0.5, inf] gave [inf], tau inf a theta of 0.0
    # and tau "1" a bare TypeError
    with pytest.raises(ValueError, match=match):
        cpp_invert(np.array(p), tau)


def test_cpp_invert_validates_p0():
    with pytest.raises(ValueError):
        cpp_invert(np.array([0.0, 0.5]), 1.0)
    with pytest.raises(ValueError):
        cpp_invert(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        cpp_invert(np.array([0.5, 0.25]), 0.0)
    # NaN passed `tau <= 0` and gave a NaN theta
    with pytest.raises(ValueError, match="tau must be positive, got nan"):
        cpp_invert(np.array([0.5, 0.25]), math.nan)


def test_robert_iid_concentrates_on_one():
    x = gen(ModelSpec("iid_frechet", 20000, seed=5))
    est = robert_pi(x, CompetitorSpec("robert", 40))
    assert abs(est.values[0] - 1.0) < 0.15


def test_robert_grid_refinement_stability():
    # threshold-step noise decays like 1/sqrt(n/b); at n/b = 2000 doubling
    # the tau-grid moves the average below 1e-3 in the median
    diffs = []
    for seed in (1, 2, 3, 4, 5):
        x = gen(ModelSpec("armax", 20000, 0.5, seed=seed))
        a = robert_pi(x, CompetitorSpec("robert", 10, robert_grid=25)).values
        b = robert_pi(x, CompetitorSpec("robert", 10, robert_grid=50)).values
        diffs.append(np.max(np.abs(a - b)))
    assert np.median(diffs) < 1e-3


def test_robert_degenerate_on_constant_series():
    with pytest.raises(DegenerateEstimateError):
        robert_pi(np.full(400, 1.0), CompetitorSpec("robert", 20))


def test_table1_band_ferro_armax(mc_tables):
    # reference minimal MSE x 1e3 is 5.343; factor-2 band at N=100
    got = mc_tables["armax"].min_mse("ferro", 1).mse_1e3
    assert 5.343 / 2 <= got <= 5.343 * 2


def test_table1_band_robert_sqarch(mc_tables):
    got = mc_tables["sqarch"].min_mse("robert", 1).mse_1e3
    assert 5.631 / 2 <= got <= 5.631 * 2
