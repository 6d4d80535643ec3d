"""Block layouts, the exceedance-count kernel, ranks and their inverse, and input validation."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from exclust import blocks
from exclust.base import check_block_size
from exclust.blocks import Sample, _block_tops, exceedance_histogram, exceedance_totals, ranks, sliding_maxima
from exclust.competitors import CompetitorSpec, hsing_pi, robert_pi
from exclust.estimators import pbar_hat
from exclust.experiments import ExperimentConfig, _run_rep
from exclust.simulate import ModelSpec, gen


def naive_sliding_maxima(x, b):
    return np.array([np.max(x[s : s + b]) for s in range(len(x) - b + 1)])


def test_sliding_maxima_hand():
    x = [1.0, 3.0, 2.0, 0.0, 4.0, 1.0]
    np.testing.assert_array_equal(sliding_maxima(x, 2), [3.0, 3.0, 2.0, 4.0, 4.0])
    np.testing.assert_array_equal(sliding_maxima(x, 3), [3.0, 3.0, 4.0, 4.0])


def test_sliding_maxima_window_equals_series_length_rejected():
    # b is capped at n // 2 so at least two disjoint blocks exist
    with pytest.raises(ValueError):
        sliding_maxima([1.0, 2.0, 3.0], 2)


@st.composite
def series_and_block(draw, max_n=120):
    n = draw(st.integers(min_value=4, max_value=max_n))
    kind = draw(st.sampled_from(["float", "int"]))
    if kind == "float":
        x = draw(hnp.arrays(np.float64, n,
                            elements=st.floats(-1e6, 1e6, allow_nan=False)))
    else:
        # heavy ties
        x = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 5))).astype(float)
    b = draw(st.integers(min_value=2, max_value=n // 2))
    return x, b


@given(series_and_block())
@settings(max_examples=60, deadline=None)
def test_sliding_maxima_matches_naive(case):
    x, b = case
    np.testing.assert_array_equal(sliding_maxima(x, b), naive_sliding_maxima(x, b))


@given(series_and_block(), st.integers(1, 8), st.data())
@settings(max_examples=150, deadline=None)
def test_exceedance_histogram_matches_literal_counts(case, cap, data):
    # over all blocks, at thresholds in any number; a table keeps
    # min(cap, b) columns and the counts are capped there
    x, b = case
    if data.draw(st.booleans()):
        rows = x[: x.size // b * b].reshape(-1, b)
    else:
        rows = np.lib.stride_tricks.sliding_window_view(x, b)
    width = min(cap, b)
    picks = data.draw(st.lists(st.sampled_from(list(x) + [-np.inf, np.inf]), max_size=6))
    thresholds = np.array(picks, dtype=float)
    got = exceedance_histogram(_block_tops(rows, cap=cap), thresholds)
    assert got.shape == (thresholds.size, width + 1)
    for t, row in zip(thresholds, got):
        capped = np.minimum((rows > t).sum(axis=1), width)
        np.testing.assert_array_equal(row, np.bincount(capped, minlength=width + 1))


def test_exceedance_totals_need_one_threshold_per_block_with_a_radius():
    tops = _block_tops(np.arange(12.0).reshape(4, 3), cap=2)
    for radius in (1, 2):
        with pytest.raises(ValueError, match="one threshold per block: expected 4, got 3"):
            exceedance_totals(tops, np.zeros(3), radius)


def test_exceedance_totals_refuse_a_radius_below_one_by_name():
    # radius 0 paired every row with every block; a negative radius failed
    # on an array shape, and 1.5 with a TypeError
    tops = _block_tops(np.arange(12.0).reshape(4, 3), cap=2)
    for radius in (0, -1):
        with pytest.raises(ValueError, match=f"radius must be >= 1, got {radius}"):
            exceedance_totals(tops, np.zeros(4), radius)
    with pytest.raises(ValueError, match=r"radius=1\.5 is not an integer"):
        exceedance_totals(tops, np.zeros(4), 1.5)


def test_exceedance_totals_refuse_values_in_place_of_ranks():
    # the totals are counted on ranks; a table or thresholds of floats
    # failed inside np.bincount with a casting TypeError
    tops = _block_tops(np.arange(12.0).reshape(4, 3), cap=2)
    ranks_of = np.searchsorted(np.arange(12.0), tops, "right")
    for table, thresholds in ((tops, np.zeros(4, dtype=int)), (ranks_of, np.zeros(4))):
        with pytest.raises(ValueError, match="must hold integer ranks, got"):
            exceedance_totals(table, thresholds, 1)
    assert exceedance_totals(ranks_of, np.zeros(4, dtype=int), 1).sum() == 4 * 3


@st.composite
def totals_case(draw):
    """Rows of k >= 1 blocks with ties, a cap, a radius from 1 to k and one
    threshold per block in runs of equal values, drawn from the entries,
    +-inf and NaN."""
    k = draw(st.integers(1, 40))
    b = draw(st.integers(1, 6))
    entries = st.integers(0, 4).map(float) if draw(st.booleans()) else st.floats(-10, 10)
    rows = draw(hnp.arrays(np.float64, (k, b), elements=entries))
    cap = draw(st.integers(1, 7))
    radius = draw(st.integers(1, k))
    pool = st.sampled_from(list(rows.ravel()) + [-np.inf, np.inf, np.nan])
    runs = draw(st.lists(st.tuples(pool, st.integers(1, k)), min_size=1))
    thresholds = np.resize(np.concatenate([np.full(length, v) for v, length in runs]), k)
    return rows, cap, thresholds, radius


@given(totals_case(), st.sampled_from([1, 3, 4096]))
# near windows clipped at both ends: one block, with a radius past it; radius = k; radius just above k/2
@example((np.array([[2.0, 1.0, 2.0]]), 2, np.array([1.0]), 2), 1)
@example((np.array([[1.0, 0.0, 2.0], [2.0, 2.0, 1.0], [0.0, 0.0, 0.0], [3.0, 1.0, 2.0], [2.0, 2.0, 2.0],
                    [1.0, 3.0, 0.0]]), 2, np.array([1.0, 1.0, 0.0, 0.0, 0.0, -np.inf]), 6), 3)
@example((np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [1.0, 2.0], [0.0, 0.0], [2.0, 2.0], [1.0, 0.0]]), 3,
          np.array([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, np.nan]), 4), 4096)
@settings(max_examples=300, deadline=None)
def test_exceedance_totals_match_literal_pair_counts(case, chunk):
    # counted per run of equal thresholds, with the near-count steps summed
    # _CHUNK rows at a time and the near indices past an end clipped and
    # taken back; the literal count pairs row q with every block at least
    # radius away and caps at min(cap, b).  The kernel counts on ranks
    # R(v) = #{entries <= v}, under which v > t exactly when R(v) > R(t)
    rows, cap, thresholds, radius = case
    k, width = len(rows), min(cap, rows.shape[1])
    entries = np.sort(rows.ravel())
    with mock.patch.object(blocks, "_CHUNK", chunk):
        got = exceedance_totals(np.searchsorted(entries, _block_tops(rows, cap=cap), "right"),
                                np.searchsorted(entries, thresholds, "right"), radius)
    want = np.zeros(width + 1, dtype=np.int64)
    for q, t in enumerate(thresholds):
        far = rows[np.abs(np.arange(k) - q) >= radius]
        want += np.bincount(np.minimum((far > t).sum(axis=1), width), minlength=width + 1)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_disjoint_blocks_drop_the_remainder():
    # n // b = 2 blocks of 7 values; the seventh is in none
    np.testing.assert_array_equal(Sample(np.arange(7.0)).tops(3, "disjoint", 3), [[2, 1, 0], [5, 4, 3]])


@st.composite
def tied_series(draw, max_n):
    """A series of floats, small integers (ties) and +-0."""
    n = draw(st.integers(min_value=4, max_value=max_n))
    return draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False), st.integers(-3, 3).map(float), st.sampled_from([0.0, -0.0]))))


def sorted_windows(x, b, cap):
    return -np.sort(-np.lib.stride_tricks.sliding_window_view(x, b), axis=1)[:, :cap]


# n = 70 reaches b = 35, so every b = 2^j - 1, 2^j, 2^j + 1 up to 33 is drawn
@given(tied_series(max_n=70), st.integers(1, 8), st.sampled_from([1, 3, 4096]))
@example(np.array([0.0, -0.0, 1.0, -0.0, 0.0, 1.0, 1.0, -1.0] * 8 + [2.0] * 6), 8, 3)
@settings(max_examples=60, deadline=None)
def test_sliding_tops_equal_the_sorted_windows(x, cap, chunk):
    # the doubling merges select entries, so at every b from 2 to n/2 the
    # table is == the windows sorted; a merge may place +0 and -0 in
    # another order than a sort, and == reads them as equal
    with mock.patch.object(blocks, "_CHUNK", chunk):
        for b in range(2, x.size // 2 + 1):
            got = blocks._sliding_tops(x, b, cap)
            want = sorted_windows(x, b, cap)
            assert got.shape == want.shape == (x.size - b + 1, min(cap, b))
            assert np.array_equal(got, want), b


@given(tied_series(max_n=40), st.integers(1, 8), st.sampled_from([1, 3, 4096]))
@settings(max_examples=25, deadline=None)
def test_every_extension_equals_the_fresh_table(x, cap, chunk):
    # a kept table of windows of length last_b merged with the table of the
    # entries its windows gain, from every last_b < b, is the fresh table
    with mock.patch.object(blocks, "_CHUNK", chunk):
        fresh = {b: blocks._sliding_tops(x, b, cap) for b in range(1, x.size // 2 + 1)}
        for b in range(2, x.size // 2 + 1):
            for last_b in range(1, b):
                got = blocks._sliding_tops(x, b, cap, last_b, fresh[last_b])
                assert got.shape == fresh[b].shape and np.array_equal(got, fresh[b]), (last_b, b)


def test_chunked_block_tops_change_no_estimate(monkeypatch):
    x = np.round(np.random.default_rng(53).pareto(1.5, 400), 1)
    spec = CompetitorSpec("robert", 6, m_max=4)

    def estimates():
        out = []
        for mode in ("disjoint", "sliding"):
            for scale in ("z", "y"):
                est = pbar_hat(x, 6, mode=mode, scale=scale, m_max=4)
                out += [est.values, est.counts, est.pair_count]
        return out + [hsing_pi(x, 6, m_max=4).values, robert_pi(x, spec).values]

    whole = estimates()
    monkeypatch.setattr(blocks, "_CHUNK", 7)  # 66 disjoint blocks, 395 windows
    for got, want in zip(estimates(), whole, strict=True):
        assert np.array_equal(got, want)


def test_sliding_tops_at_half_the_series_copy_no_whole_window_view():
    # chunks of _CHUNK rows copied the whole (k, b) window view at b = n/2:
    # a 64 MB traced peak here, growing like n^2; chunks of _CHUNK * cap
    # entries keep it at 0.64 MB
    x = np.random.default_rng(1).standard_normal(4000)
    pbar_hat(x[:100], 10, mode="sliding")  # warm-up
    tracemalloc.start()
    try:
        pbar_hat(x, 2000, mode="sliding")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_sliding_pbar_holds_little_beside_its_tops_table():
    # the near counts and run totals are counted on the tops table itself;
    # a padded copy of the table, per-row near arrays and a runs x (cap + 2)
    # table took the peak to 2.40x (z) and 2.78x (y) of the table's bytes
    # here, against 1.32x and 1.70x without them (the y scale also holds
    # the sorted series and one threshold per block)
    x = gen(ModelSpec("armax", 100_000, 0.5, seed=4))
    table = (x.size - 19) * 6 * 8  # n - b + 1 windows, m_max + 1 columns
    pbar_hat(x[:100], 10, mode="sliding", scale="y")  # warm-up
    for scale, bound in (("z", 1.5), ("y", 1.9)):
        tracemalloc.start()
        try:
            pbar_hat(x, 20, "sliding", scale, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * table, (scale, peak / table)


def test_a_fresh_sliding_table_holds_little_beside_itself():
    # a step holds a few tables of _CHUNK + b rows; keeping every level of
    # the doubling would hold about log2(b) tables of the table's size
    x = gen(ModelSpec("armax", 100_000, 0.5, seed=4))
    Sample(x[:100]).tops(10, "sliding", 6)  # warm-up
    for b in (20, 2000):
        s = Sample(x)
        tracemalloc.start()
        try:
            table = s.tops(b, "sliding", 6).nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - table <= 0.5 * (x.size - b + 1) * 6 * 8, (b, peak / table)  # the bytes of a float table


def test_a_fresh_rank_table_holds_little_beside_itself():
    # at n = 5e4 a sliding table holds uint16 ranks; beside it a fresh build
    # holds the rank series and the sorted series, and while it ranks, the
    # argsort that gives both: 1.21x / 1.44x the table's own bytes at b =
    # 20 / 2,000
    x = gen(ModelSpec("armax", 50_000, 0.5, seed=4))
    Sample(x[:100]).tops(10, "sliding", 6)  # warm-up
    for b in (20, 2000):
        s = Sample(x)
        tracemalloc.start()
        try:
            tops = s.tops(b, "sliding", 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tops.dtype == np.uint16
        assert peak - tops.nbytes <= 1.75 * tops.nbytes, (b, peak / tops.nbytes - 1)


@st.composite
def tops_requests(draw):
    """A short series and a sequence of (b, mode, cap) requests: b
    ascending, descending and repeated, caps above and below b."""
    n = draw(st.integers(min_value=4, max_value=60))
    x = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False), st.integers(0, 3).map(float))))
    request = st.tuples(st.integers(2, n // 2), st.sampled_from(["disjoint", "sliding"]),
                        st.integers(1, 6))
    return x, draw(st.lists(request, min_size=1, max_size=12))


@given(tops_requests(), st.sampled_from([1, 3, 4096]))
@settings(max_examples=150, deadline=None)
def test_kept_sliding_tops_equal_fresh_tops(case, chunk):
    # a Sample keeps its last table of each layout and extends the sliding
    # one, which holds the ranks of the values; every table it hands out
    # must equal one built from scratch (+-0 compare equal)
    x, requests = case
    s = Sample(x)
    with mock.patch.object(blocks, "_CHUNK", chunk):
        for b, mode, cap in requests:
            if mode == "disjoint":
                rows = x[: x.size // b * b].reshape(-1, b)
            else:
                rows = np.lib.stride_tricks.sliding_window_view(s._ranks.astype(float), b)
            got = s.tops(b, mode, cap)
            want = -np.sort(-rows, axis=1)[:, :cap]  # min(cap, b) columns
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.array_equal(got, _block_tops(rows, cap=cap))


def test_tops_are_read_only():
    s = Sample(np.random.default_rng(2).normal(size=60))
    # fresh disjoint, fresh sliding, extended sliding, kept sliding, fresh and kept disjoint
    for b, mode in ((4, "disjoint"), (4, "sliding"), (6, "sliding"), (6, "sliding"), (6, "disjoint"),
                    (6, "disjoint")):
        tops = s.tops(b, mode, 3)
        assert not tops.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tops[0, 0] = 0.0


_EXTREME = np.finfo(float).max


@st.composite
def series_and_levels(draw):
    """A series with ties, +-0 and magnitudes up to the largest float, and
    c.d.f. levels: NaN, +-inf, values outside [0, 1], every c/n (c = 0..n+1)
    with its two neighbouring floats, and uniform draws."""
    n = draw(st.integers(min_value=2, max_value=40))
    pool = [0.0, -0.0, 1.0, -1.0, _EXTREME, -_EXTREME, np.nextafter(-_EXTREME, 0.0), 5e-324, -5e-324]
    x = np.array(draw(st.lists(st.one_of(
        st.sampled_from(pool), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=n, max_size=n)))
    drawn = draw(st.lists(st.one_of(
        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 1.0, 5e-324, -0.5, 1.5, _EXTREME]),
        st.floats(0.0, 1.0), st.floats(allow_nan=False)), max_size=20))
    steps = np.arange(n + 2) / n
    levels = np.concatenate((steps, np.nextafter(steps, -np.inf), np.nextafter(steps, np.inf),
                             np.array(drawn, dtype=float)))
    return x, levels


def searchsorted_threshold(s, levels):
    """:meth:`Sample.cdf_threshold` by its first rule: j = #{c : c/n <= y}
    by ``searchsorted`` into all n levels c/n, O(n) per call."""
    n = s.x.size
    j = np.searchsorted(np.arange(1, n + 1) / n, levels, side="right")
    with np.errstate(over="ignore"):
        return np.nextafter(np.append(s.sorted, np.inf)[j], -np.inf)


@given(series_and_levels())
@settings(max_examples=300, deadline=None)
def test_cdf_threshold_is_the_exact_inverse_of_the_ranks(case):
    # x > t(y) must equal F_n(x) > y elementwise, for every sample value, and
    # floor(n*y) corrected by one step must give the searchsorted rule's floats
    x, levels = case
    s = Sample(x)
    t = s.cdf_threshold(levels)
    assert t.shape == levels.shape
    assert np.array_equal(x[:, None] > t, s.cdf(s.x)[:, None] > levels)
    assert np.array_equal(s.cdf(x), s.cdf(s.x))
    assert t.tobytes() == searchsorted_threshold(s, levels).tobytes()


@given(tied_series(max_n=120))
@settings(max_examples=100, deadline=None)
def test_the_rank_series_counts_the_values_at_or_below_each(x):
    # the one argsort that ranks the series also sorts it; tied values and
    # +-0 share the rank of their group's last sorted position
    s = Sample(x)
    assert np.array_equal(s._ranks, np.searchsorted(np.sort(x), x, "right"))
    assert np.array_equal(s.sorted, np.sort(x))


def test_the_rank_series_takes_the_smallest_unsigned_dtype_that_holds_n():
    for n, dtype in ((255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32)):
        s = Sample(np.arange(float(n)))
        assert s._ranks.dtype == dtype and s._ranks[-1] == n
        assert s.tops(2, "sliding", 1).dtype == dtype


def test_ranks_ties_use_max_rank():
    np.testing.assert_allclose(ranks([1.0, 2.0, 2.0, 3.0]), [0.25, 0.75, 0.75, 1.0])


@given(series_and_block())
@settings(max_examples=100, deadline=None)
def test_ranks_match_scipy_rankdata(case):
    x, _ = case
    got = ranks(x)
    ref = rankdata(x, method="max") / x.size
    assert got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)


def test_ranks_maximum_maps_to_one():
    rng = np.random.default_rng(0)
    x = rng.normal(size=57)
    r = ranks(x)
    assert r[np.argmax(x)] == 1.0
    assert np.all((r > 0) & (r <= 1))


def test_as_sample_validation():
    with pytest.raises(ValueError):
        Sample([[1.0, 2.0]])
    with pytest.raises(ValueError):
        Sample([1.0])
    with pytest.raises(ValueError):
        Sample([1.0, np.nan])
    with pytest.raises(ValueError):
        Sample([1.0, np.inf])


def test_tops_rejects_unknown_mode_or_scale():
    # an unknown mode used to give the sliding tops, an unknown scale the y
    # tops; tops take no scale now, and pbar_hat refuses one before any table
    s = Sample(np.arange(20.0))
    with pytest.raises(ValueError, match="mode must be one of .* got 'bogus'"):
        s.tops(5, "bogus", 2)
    with pytest.raises(ValueError, match="scale must be one of .* got 'w'"):
        pbar_hat(s, 5, mode="sliding", scale="w")
    assert s._tops == {}


def test_tops_check_the_block_size_and_cap_by_name():
    # b=0 raised ZeroDivisionError, b=5.0 a TypeError, b=60 gave an empty
    # table, cap=0 a table of no columns and cap=-1 failed inside numpy
    s = Sample(np.random.default_rng(3).normal(size=50))
    for mode in ("disjoint", "sliding"):
        for b in (0, 1, 26, 60, 2.5, float("nan")):
            with pytest.raises(ValueError, match=f"block size b={b}"):
                s.tops(b, mode, 3)
        for cap in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match=f"cap={cap}|cap must be >= 1"):
                s.tops(5, mode, cap)
        assert s.tops(5.0, mode, 3.0) is s.tops(5, mode, 3)
    windows = np.lib.stride_tricks.sliding_window_view(s._ranks.astype(float), 25)  # b = n/2 is the largest
    assert np.array_equal(s.tops(25, "sliding", 3), _block_tops(windows, cap=3))


def test_one_table_build_per_layout_and_block_size():
    # the disjoint table db-z builds serves db-y, hsing and robert at the same
    # b, and the sliding one sb-z extends serves sb-y: 2 builds per b
    config = ExperimentConfig("armax", 0.5, reps=2)
    with mock.patch.object(blocks, "_block_tops", wraps=blocks._block_tops) as disjoint, \
            mock.patch.object(blocks, "_sliding_tops", wraps=blocks._sliding_tops) as sliding:
        _run_rep((config, 0))
    assert disjoint.call_count + sliding.call_count == 2 * len(config.block_grid) == 34


def test_check_block_size_bounds():
    assert check_block_size(10, 5) == 5
    for bad in (1, 6, 0, -2):
        with pytest.raises(ValueError):
            check_block_size(10, bad)
