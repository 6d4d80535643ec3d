"""The pair-averaged pbar estimators, the pi recursion and theta."""
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from exclust import blocks
from exclust.blocks import Sample, exceedance_totals, pad_counts, ranks, sliding_maxima
from exclust.competitors import CompetitorSpec, ferro_pi, hsing_pi, robert_pi
from exclust.cpmodel import (
    CppModel,
    Pmf,
    geometric_pi,
    iid_model,
    pbar_theory,
)
from exclust.errors import DegenerateEstimateError
from exclust.estimators import (
    ClusterSizeEstimator,
    PbarEstimate,
    pbar_hat,
    pi_from_pbar,
    sliding_pair_naive,
    theta_hat,
)
from exclust.simulate import ModelSpec, gen, substream_seed

from oracles import y_thresholds
from test_competitors import literal_hsing, literal_robert


def ref_pbar_disjoint(x, b, scale, m_max):
    """Literal ordered-pair enumeration of the disjoint-blocks estimator."""
    x = np.asarray(x, dtype=float)
    series = x if scale == "z" else ranks(x)
    k = len(x) // b
    blocks = [series[i * b : (i + 1) * b] for i in range(k)]
    maxima = [blk.max() for blk in blocks]
    thr = maxima if scale == "z" else [1.0 + math.log(m) for m in maxima]
    values = np.zeros(m_max)
    for i in range(k):
        for ip in range(k):
            if i == ip:
                continue
            c = int(np.sum(blocks[ip] > thr[i]))
            if 1 <= c <= m_max:
                values[c - 1] += 1
    return values / (k * (k - 1))


def ref_pbar_sliding(x, b, scale, m_max):
    """Literal ordered-pair enumeration of the sliding-blocks estimator."""
    x = np.asarray(x, dtype=float)
    series = x if scale == "z" else ranks(x)
    n = len(x)
    P = n - b + 1
    maxima = np.array([series[i : i + b].max() for i in range(P)])
    thr = maxima if scale == "z" else 1.0 + np.log(maxima)
    values = np.zeros(m_max)
    pairs = 0
    for i in range(P):
        for ip in range(P):
            if abs(i - ip) < b:
                continue
            pairs += 1
            c = int(np.sum(series[ip : ip + b] > thr[i]))
            if 1 <= c <= m_max:
                values[c - 1] += 1
    return values / pairs, pairs


def test_pbar_hat_disjoint_hand():
    # blocks {1,2} and {3,4}: one ordered pair yields 2 exceedances, the other 0
    est = pbar_hat([1.0, 2.0, 3.0, 4.0], 2, mode="disjoint", scale="z", m_max=2)
    np.testing.assert_allclose(est.values, [0.0, 0.5])
    assert est.pair_count == 2


def test_pbar_hat_constant_series_is_zero():
    for mode in ("disjoint", "sliding"):
        est = pbar_hat(np.full(30, 7.0), 5, mode=mode, scale="z")
        np.testing.assert_array_equal(est.values, np.zeros(5))


@pytest.mark.parametrize("mode", ["disjoint", "sliding"])
@pytest.mark.parametrize("scale", ["z", "y"])
def test_pbar_hat_matches_reference(mode, scale):
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(20, 70))
        b = int(rng.integers(2, max(3, n // 4)))
        x = rng.choice([0.5, 1.5, 2.5, 3.5, 9.0], size=n)  # plenty of ties
        est = pbar_hat(x, b, mode=mode, scale=scale, m_max=4)
        if mode == "disjoint":
            ref = ref_pbar_disjoint(x, b, scale, 4)
            np.testing.assert_array_equal(est.values, ref)
        else:
            ref, pairs = ref_pbar_sliding(x, b, scale, 4)
            np.testing.assert_array_equal(est.values, ref)
            assert est.pair_count == pairs


def test_pair_count_formulas():
    x = np.random.default_rng(1).normal(size=53)
    est = pbar_hat(x, 5, mode="disjoint")
    k = 53 // 5
    assert est.pair_count == k * (k - 1)

    est = pbar_hat(x, 5, mode="sliding")
    P = 53 - 5 + 1
    near = sum(
        len([ip for ip in range(P) if abs(i - ip) <= 4]) for i in range(P)
    )
    assert est.pair_count == P * P - near


def test_pbar_values_form_a_subprobability():
    x = np.random.default_rng(9).gumbel(size=400)
    for mode in ("disjoint", "sliding"):
        for scale in ("z", "y"):
            est = pbar_hat(x, 10, mode=mode, scale=scale)
            assert np.all(est.values >= 0)
            assert est.values.sum() <= 1.0


def test_pbar_hat_rejects_bad_arguments():
    x = np.arange(20.0)
    with pytest.raises(ValueError):
        pbar_hat(x, 11)
    with pytest.raises(ValueError):
        pbar_hat(x, 5, mode="overlapping")
    with pytest.raises(ValueError):
        pbar_hat(x, 5, scale="w")
    with pytest.raises(ValueError):
        pbar_hat(x, 5, m_max=0)


def test_m_max_must_be_integral():
    # both used to fail inside numpy with a TypeError
    x = gen(ModelSpec("armax", 200, 0.5, seed=3))
    with pytest.raises(ValueError, match=r"m_max=2\.5 is not an integer"):
        pbar_hat(x, 5, m_max=2.5)
    got = hsing_pi(x, 5, m_max=np.float64(2.0))
    assert np.array_equal(got.values, hsing_pi(x, 5, m_max=2).values)
    assert type(CompetitorSpec("robert", 5, m_max=np.float64(2.0)).m_max) is int


def test_non_finite_block_size_or_count_cap_is_named():
    # these used to fail in int() with the interpreter's message, or with OverflowError
    x = gen(ModelSpec("armax", 200, 0.5, seed=3))
    with pytest.raises(ValueError, match=r"b=nan is not an integer"):
        pbar_hat(x, float("nan"))
    with pytest.raises(ValueError, match=r"m_max=inf is not an integer"):
        pbar_hat(x, 5, m_max=float("inf"))
    with pytest.raises(ValueError, match=r"b=inf is not an integer"):
        hsing_pi(x, float("inf"))
    with pytest.raises(ValueError, match=r"m_max=-inf is not an integer"):
        robert_pi(x, CompetitorSpec("robert", 5, m_max=-np.inf))


def test_bools_complex_samples_and_matrices_are_refused_by_name():
    # a bool passed as 1, a complex sample lost its imaginary part with only
    # a ComplexWarning, and a matrix failed inside numpy with a broadcast error
    x = gen(ModelSpec("armax", 50, 0.5, seed=3))
    with pytest.raises(ValueError, match=r"m_max=True is not an integer"):
        pbar_hat(x, 5, m_max=True)
    with pytest.raises(ValueError, match=r"b=True is not an integer"):
        pbar_hat(x, True)
    with pytest.raises(ValueError, match=r"x must be real"):
        pbar_hat(x + 1j, 5)
    with pytest.raises(ValueError, match=r"pi must be one-dimensional, got shape \(2, 2\)"):
        theta_hat(np.ones((2, 2)))


@pytest.mark.parametrize("b", [4, 7])
def test_count_tables_capped_at_the_block_length_change_no_output(b):
    # with m_max + 1 > b the tops tables keep b columns and the counts are
    # padded with zeros: every output still equals its literal reference,
    # and the counts at m_max >= b are those at b - 1 padded with zeros
    x = gen(ModelSpec("armax", 120, 0.5, seed=5))
    thr = np.quantile(x, 0.8) * np.ones(x.size - b + 1)
    maxima = {"z": sliding_maxima(x, b), "y": 1.0 + np.log(sliding_maxima(ranks(x), b))}

    def outputs(m_max):
        for scale in ("z", "y"):
            est = pbar_hat(x, b, mode="disjoint", scale=scale, m_max=m_max)
            assert np.array_equal(est.values, ref_pbar_disjoint(x, b, scale, m_max))
            yield est.counts
            est = pbar_hat(x, b, mode="sliding", scale=scale, m_max=m_max)
            naive = sliding_pair_naive(x, b, maxima[scale], m_max, scale=scale).sum(axis=0)
            assert np.array_equal(est.counts, naive[1 : m_max + 1]) and est.pair_count == naive.sum()
            yield est.counts
        hsing = hsing_pi(x, max(b, 4), m_max).values
        assert np.array_equal(hsing, literal_hsing(x, max(b, 4), m_max))
        yield hsing
        spec = CompetitorSpec("robert", b, m_max=m_max)
        assert np.array_equal(robert_pi(x, spec).values, literal_robert(x, spec))

    def sliding_totals(m_max):
        # the kernel of sliding pbar_hat at one fixed threshold, padded as it pads
        got = pad_counts(exceedance_totals(Sample(x).tops(b, "sliding", m_max + 1), thr, b), m_max + 2)
        assert np.array_equal(got, sliding_pair_naive(x, b, thr, m_max).sum(axis=0))
        return got

    uncapped = list(outputs(b - 1))
    counts = sliding_totals(b - 1)
    for m_max in range(b, b + 4):
        # pbar counts and hsing values: index c - 1 holds count c, and no
        # block of b entries has a count above b
        for got, want in zip(outputs(m_max), uncapped, strict=True):
            assert got.shape == (m_max,) and not got[b:].any()
            assert np.array_equal(got[: b - 1], want)
        assert np.array_equal(sliding_totals(m_max), pad_counts(counts, m_max + 2))


def test_count_cap_bounds_memory_by_the_block_length():
    # with tops tables of m_max + 1 columns this call peaked at 194 MB, and
    # m_max=10**12 raised MemoryError
    x = gen(ModelSpec("armax", 2000, 0.5, seed=3))
    tracemalloc.start()
    try:
        est = pbar_hat(x, 6, m_max=2000)
        with pytest.raises(ValueError, match=r"m_max=1000000000000 exceeds the sample size n=2000"):
            pbar_hat(x, 6, m_max=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.values.shape == (2000,) and not est.values[6:].any()
    assert peak <= 2_000_000


def _count_like(hi):
    """A block size or count cap as a caller may pass it: in or out of range,
    a float, a NumPy scalar, a bool, NaN or infinite."""
    whole = st.integers(-2, hi)
    return st.one_of(whole, whole.map(float), whole.map(np.int64), whole.map(np.float64),
                     st.floats(-4, hi), st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans())


@st.composite
def public_calls(draw):
    """A series with ties or magnitudes near 1e300, and a block size and count cap."""
    n = draw(st.integers(min_value=2, max_value=60))
    scale = draw(st.sampled_from([1.0, 1e300, -1e300]))
    x = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.integers(0, 3).map(float), st.floats(-1.7, 1.7, allow_nan=False))))
    return x * scale, draw(_count_like(n // 2 + 2)), draw(_count_like(8))


@given(public_calls())
@settings(max_examples=150, deadline=None)
def test_public_estimators_return_their_shape_or_refuse_by_name(case):
    # each call returns one value per count 1..m_max, or raises ValueError or
    # DegenerateEstimateError; never TypeError, IndexError or a numpy error.
    x, b, m_max = case
    calls = [lambda mode=mode, scale=scale: pbar_hat(x, b, mode=mode, scale=scale, m_max=m_max)
             for mode in ("disjoint", "sliding") for scale in ("z", "y")]
    calls += [lambda: hsing_pi(x, b, m_max), lambda: ferro_pi(x, b, m_max),
              lambda: robert_pi(x, CompetitorSpec("robert", b, m_max=m_max)),
              lambda: ClusterSizeEstimator(b, m_max=m_max).fit(x).pi_]
    for call in calls:
        try:
            got = call()
        except (ValueError, DegenerateEstimateError):
            continue
        assert got.values.shape == (m_max,)
        if isinstance(got, PbarEstimate):
            assert got.counts.shape == (m_max,) and got.counts.dtype == np.int64


def test_pbar_hat_rejects_non_integral_block_size():
    # b=2.7 used to run silently as b=2
    x = gen(ModelSpec("armax", 200, 0.5, seed=3))
    with pytest.raises(ValueError, match=r"b=2\.7"):
        pbar_hat(x, 2.7)
    ref = pbar_hat(x, 4)
    for b in (np.int64(4), 4.0):
        got = pbar_hat(x, b)
        np.testing.assert_array_equal(got.counts, ref.counts)


def test_divisor_variant_bound():
    # including the m=0-only diagonal pairs changes each value by < 1/(k-1)
    x = np.random.default_rng(11).pareto(2.0, size=300)
    est = pbar_hat(x, 12, mode="disjoint")
    k = 300 // 12
    variant = est.counts / (k * k)
    assert np.all(np.abs(est.values - variant) <= 1.0 / (k - 1))


def test_y_thresholds_never_above_z_thresholds_on_cdf_scale():
    # 1 + log(u) <= u for u in (0, 1]: the Y comparison is more permissive
    x = np.random.default_rng(5).normal(size=200)
    cdf_maxima = sliding_maxima(ranks(x), 20)
    y_thr = 1.0 + np.log(cdf_maxima)
    assert np.all(y_thr <= cdf_maxima + 1e-15)


def test_y_scale_invariant_under_monotone_transform():
    # every estimator here sees only the ordering of the data (the Y scale
    # through ranks, the Z scale and the competitors through comparisons
    # with order statistics), so a strictly increasing map changes nothing
    x = np.random.default_rng(7).normal(size=300)
    y = np.exp(x)
    for mode in ("disjoint", "sliding"):
        for scale in ("z", "y"):
            a = pbar_hat(x, 15, mode=mode, scale=scale)
            b = pbar_hat(y, 15, mode=mode, scale=scale)
            np.testing.assert_array_equal(a.counts, b.counts)
            np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(hsing_pi(x, 15).values, hsing_pi(y, 15).values)
    np.testing.assert_array_equal(ferro_pi(x, 15).values, ferro_pi(y, 15).values)
    spec = CompetitorSpec("robert", 15)
    np.testing.assert_array_equal(robert_pi(x, spec).values, robert_pi(y, spec).values)


def test_disjoint_pbar_memory_stays_small():
    # the pair counts need O(n) memory, not a k*k*b comparison tensor
    x = gen(ModelSpec("armax", 20_000, 0.5, seed=4))
    tracemalloc.start()
    try:
        pbar_hat(x, 20, mode="disjoint")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_sliding_mean_approaches_theory():
    # ARMAX(0.5): pbar(1) = 1/8 for the geometric cluster law
    target = pbar_theory(
        CppModel(0.5, geometric_pi(0.5)), 1
    ).weights[1]
    vals = []
    for rep in range(100):
        x = gen(ModelSpec("armax", 2000, 0.5, seed=substream_seed(321, rep)))
        vals.append(pbar_hat(x, 20, mode="sliding", scale="z", m_max=1).values[0])
    assert abs(np.mean(vals) - target) < 0.05


@st.composite
def sweep_case(draw):
    """A sample, b, a scale and one threshold per window: a permutation of
    the series, or long runs of equal values (window maxima, piecewise
    constant draws or all equal, from the series and +-inf and NaN)."""
    n = draw(st.integers(min_value=8, max_value=90))
    tied = draw(st.booleans())
    if tied:
        x = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 4))).astype(float)
    else:
        x = draw(hnp.arrays(np.float64, n,
                            elements=st.floats(-100, 100, allow_nan=False)))
    b = draw(st.integers(min_value=2, max_value=n // 2))
    scale = draw(st.sampled_from(["z", "y"]))
    series = x if scale == "z" else ranks(x)
    P = n - b + 1
    pool = st.sampled_from(list(series) + [-np.inf, np.inf, np.nan])
    kind = draw(st.sampled_from(["permutation", "maxima", "pieces", "equal"]))
    if kind == "permutation":
        thr = draw(st.permutations(series))[:P]
    elif kind == "maxima":
        maxima = sliding_maxima(series, b)
        thr = maxima if scale == "z" else 1.0 + np.log(maxima)
    elif kind == "pieces":
        runs = draw(st.lists(st.tuples(pool, st.integers(1, P)), min_size=1))
        thr = np.resize(np.concatenate([np.full(length, v) for v, length in runs]), P)
    else:
        thr = np.full(P, draw(pool))
    return x, b, scale, np.asarray(thr, dtype=float)


@given(sweep_case(), st.sampled_from([1, 5, 4096]))
@settings(max_examples=200, deadline=None)
def test_sweep_equals_naive(case, chunk):
    # the kernel of sliding pbar_hat on its table of the values, a y-scale
    # level mapped to a value threshold: near blocks are compared in full
    # only where the threshold changes, _CHUNK near rows per step
    x, b, scale, thr = case
    s = Sample(x)
    values = thr if scale == "z" else s.cdf_threshold(thr)
    with mock.patch.object(blocks, "_CHUNK", chunk):
        fast = exceedance_totals(s.tops(b, "sliding", 4), values, b)
    slow = sliding_pair_naive(x, b, thr, 3, scale=scale).sum(axis=0)
    np.testing.assert_array_equal(pad_counts(fast, 5), slow)


def test_sliding_pbar_memory_stays_below_the_old_peak():
    # the bound is the peak of a direct (2b-1)-offset comparison of the near
    # blocks here; gathering the run starts _CHUNK rows at a time stays below it
    x = gen(ModelSpec("armax", 50_000, 0.5, seed=4))
    tracemalloc.start()
    try:
        pbar_hat(x, 20, mode="sliding")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13_731_521


def test_sliding_pbar_builds_no_per_row_table():
    # pbar_hat sums column totals per run of equal thresholds; the per-row
    # histogram and near counts it summed before peaked at 3.6x the table
    s = Sample(gen(ModelSpec("armax", 50_000, 0.5, seed=4)))
    for scale in ("z", "y"):
        pbar_hat(s, 20, mode="sliding", scale=scale)  # builds the kept table and sorted values
        tracemalloc.start()
        try:
            pbar_hat(s, 20, mode="sliding", scale=scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * s.tops(20, "sliding", 6).nbytes


def test_pbar_hat_searches_its_run_start_thresholds_in_sorted_order():
    # the run-start keys are counted in any order (summed against the run
    # lengths), and sorted keys keep searchsorted in cache; time order missed it
    keys = []
    below = blocks._below

    def recording_below(tops, thresholds):
        keys.append(np.array(thresholds))
        return below(tops, thresholds)

    x = gen(ModelSpec("armax", 3_000, 0.5, seed=6))
    with mock.patch.object(blocks, "_below", recording_below):
        for mode in ("disjoint", "sliding"):
            for scale in ("z", "y"):
                pbar_hat(x, 12, mode=mode, scale=scale)
                assert len(keys) == 1 and np.all(np.diff(keys.pop()) >= 0)


@pytest.mark.parametrize("mode", ["disjoint", "sliding"])
def test_y_scale_counts_equal_the_per_row_threshold_map(mode):
    # pbar_hat maps each run of equal maxima once and repeats it; mapping
    # every row on its own, as before, gives the same thresholds and counts
    rng = np.random.default_rng(19)
    for case in range(24):
        n = int(rng.integers(40, 600))
        x = rng.standard_normal(n) if case % 2 else np.round(rng.pareto(1.5, n), 1)
        b = int(rng.integers(2, n // 2 + 1))
        m_max = int(rng.integers(1, 8))
        s = Sample(x)
        tops = s.tops(b, mode, m_max + 1)
        hist = exceedance_totals(tops, y_thresholds(s, tops[:, 0]), 1 if mode == "disjoint" else b)
        hist = pad_counts(hist, m_max + 2)
        est = pbar_hat(x, b, mode=mode, scale="y", m_max=m_max)
        assert np.array_equal(est.counts, hist[1 : m_max + 1]) and est.pair_count == hist.sum()


def test_sweep_all_above_max():
    x = np.arange(12.0)
    thr = np.full(12 - 3 + 1, 100.0)
    out = exceedance_totals(Sample(x).tops(3, "sliding", 5), thr, 3)
    # every far window sits in the zero-exceedances bucket: 10 windows, at
    # least 3 apart in 56 ordered pairs
    np.testing.assert_array_equal(out, [56, 0, 0, 0])
    np.testing.assert_array_equal(pad_counts(out, 6), sliding_pair_naive(x, 3, thr, 4).sum(axis=0))


def test_sweep_single_distinct_value():
    x = np.full(15, 2.0)
    thr = np.full(15 - 4 + 1, 2.0)
    out = exceedance_totals(Sample(x).tops(4, "sliding", 4), thr, 4)
    assert out[0] == out.sum() > 0 and not out[1:].any()
    np.testing.assert_array_equal(pad_counts(out, 5), sliding_pair_naive(x, 4, thr, 3).sum(axis=0))


def test_sweep_rejects_m_max_below_one():
    # m_max=-1 used to return a one-column histogram, m_max=-3 to fail inside numpy
    x, b = np.arange(12.0), 3
    thr = sliding_maxima(x, b)
    for m_max in (0, -1, -3):
        with pytest.raises(ValueError, match="m_max must be >= 1"):
            sliding_pair_naive(x, b, thr, m_max)
        with pytest.raises(ValueError, match="m_max must be >= 1"):
            pbar_hat(x, b, m_max=m_max)
    # any scale but "z" used to be taken as the y scale
    with pytest.raises(ValueError, match="scale must be one of"):
        sliding_pair_naive(x, b, thr, 3, scale="w")
    with pytest.raises(ValueError, match="scale must be one of"):
        pbar_hat(x, b, scale="w")


def test_a_sample_gives_the_estimates_of_its_array():
    x = np.round(gen(ModelSpec("armax", 600, 0.5, seed=8)), 1)  # with ties
    s, b = Sample(x), 10
    for mode in ("disjoint", "sliding"):
        for scale in ("z", "y"):
            want, got = (pbar_hat(v, b, mode=mode, scale=scale, m_max=4) for v in (x, s))
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.counts, want.counts) and got.pair_count == want.pair_count
    for scale in ("z", "y"):
        maxima = sliding_maxima(x if scale == "z" else ranks(x), b)
        thr = maxima if scale == "z" else 1.0 + np.log(maxima)
        assert np.array_equal(sliding_pair_naive(s, b, thr, 4, scale=scale),
                              sliding_pair_naive(x, b, thr, 4, scale=scale))
    spec = CompetitorSpec("robert", b, m_max=4)
    assert np.array_equal(hsing_pi(s, b, 4).values, hsing_pi(x, b, 4).values)
    assert np.array_equal(ferro_pi(s, b, 4).values, ferro_pi(x, b, 4).values)
    assert np.array_equal(robert_pi(s, spec).values, robert_pi(x, spec).values)
    assert s.ranks is s.ranks and np.array_equal(s.ranks, ranks(x))


def test_sweep_checks_threshold_length():
    with pytest.raises(ValueError, match=r"one threshold per window start: expected 9, got \(3,\)"):
        sliding_pair_naive(np.arange(10.0), 2, np.zeros(3), 2)


def _pbar_estimate(values):
    values = np.asarray(values, dtype=float)
    return PbarEstimate(
        values=values,
        counts=np.zeros(values.size, dtype=np.int64),
        pair_count=1,
    )


def test_pi_from_pbar_iid():
    est = pi_from_pbar(_pbar_estimate([0.25]))
    np.testing.assert_allclose(est.values, [1.0])


def test_pi_from_pbar_geometric_hand():
    est = pi_from_pbar(_pbar_estimate([1 / 8, 3 / 32]))
    np.testing.assert_allclose(est.values, [0.5, 0.25], rtol=1e-14)


def test_pi_from_pbar_zero():
    est = pi_from_pbar(_pbar_estimate([0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(est.values, np.zeros(3))


def test_pi_from_pbar_round_trips():
    lists = {
        "point": [1.0],
        "geometric": geometric_pi(0.5, m_max=8).weights[1:],
        "sqarch": [0.751, 0.168, 0.055, 0.014, 0.008],
    }
    for name, pi in lists.items():
        pi = np.asarray(pi, dtype=float)
        model = CppModel(0.5, Pmf(np.concatenate(([0.0], pi))))
        pbar = pbar_theory(model, pi.size)
        got = pi_from_pbar(_pbar_estimate(pbar.weights[1:])).values
        np.testing.assert_allclose(got, pi, atol=1e-12, err_msg=name)


def test_pi_from_pbar_satisfies_recursion_exactly():
    rng = np.random.default_rng(2)
    p = rng.uniform(0, 0.1, size=6)
    pi = pi_from_pbar(_pbar_estimate(p)).values
    for m in range(1, 7):
        s = sum(pi[m - k - 1] * p[k - 1] for k in range(1, m))
        assert pi[m - 1] == 4.0 * p[m - 1] - 2.0 * s


def test_pi_from_pbar_clip():
    raw = pi_from_pbar(_pbar_estimate([0.01, 0.2]))
    assert raw.values[1] > 0.7  # wildly non-probabilistic input is reported raw
    neg = pi_from_pbar(_pbar_estimate([0.3, 0.0]))
    assert neg.values[1] < 0
    clipped = pi_from_pbar(_pbar_estimate([0.3, 0.0]), clip=True)
    assert np.all(clipped.values >= 0)


def test_theta_hat_values():
    assert theta_hat(np.array([1.0, 0.0, 0.0])) == 1.0
    np.testing.assert_allclose(
        theta_hat(np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])),
        1 / 1.78125,
        rtol=1e-14,
    )
    # AR(0.75) partial sum from the reference truth list
    pi = np.array([0.75, 0.1875, 0.0469, 0.0117, 0.0029])
    np.testing.assert_allclose(
        theta_hat(pi), 1.0 / np.sum(np.arange(1, 6) * pi), rtol=1e-14
    )


def test_theta_hat_partial_m():
    pi = np.array([0.5, 0.25, 0.125])
    assert theta_hat(pi, m=1) == 2.0
    assert theta_hat(pi, m=2.0) == theta_hat(pi, m=2)
    with pytest.raises(ValueError):
        theta_hat(pi, m=4)
    # used to raise TypeError from slicing
    with pytest.raises(ValueError, match=r"m=1\.5 is not an integer"):
        theta_hat(pi, 1.5)


def test_theta_hat_degenerate_carries_denominator():
    with pytest.raises(DegenerateEstimateError) as exc:
        theta_hat(np.array([0.0, 0.0]))
    assert exc.value.value == 0.0
    with pytest.raises(DegenerateEstimateError):
        theta_hat(np.array([-0.5, 0.1]))


def test_cluster_size_estimator_fit():
    x = gen(ModelSpec("armax", 2000, 0.5, seed=8))
    est = ClusterSizeEstimator(b=20).fit(x)
    np.testing.assert_array_equal(
        est.pbar_.values, pbar_hat(x, 20, mode="sliding", scale="z").values
    )
    np.testing.assert_array_equal(
        est.pi_.values, pi_from_pbar(est.pbar_).values
    )
    assert est.theta_ == pytest.approx(est.theta(5))
    assert 0.2 < est.theta_ < 0.9


def test_cluster_size_estimator_params():
    est = ClusterSizeEstimator(b=10, mode="disjoint", scale="y", m_max=3)
    assert (est.b, est.mode, est.scale, est.m_max) == (10, "disjoint", "y", 3)


def test_cluster_size_estimator_unfitted():
    with pytest.raises(AttributeError):
        ClusterSizeEstimator(b=10).theta()


def test_cluster_size_estimator_degenerate_theta_is_nan():
    est = ClusterSizeEstimator(b=5).fit(np.full(40, 1.0))
    assert math.isnan(est.theta_)
    with pytest.raises(DegenerateEstimateError):
        est.theta()
