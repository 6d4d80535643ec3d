"""Block layouts, the exceedance-count kernel, ranks and input validation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from exclust import blocks
from exclust.base import check_block_size
from exclust.blocks import Sample, block_tops, disjoint_blocks, exceedance_histogram, ranks, sliding_maxima
from exclust.competitors import CompetitorSpec, hsing_pi, robert_pi
from exclust.estimators import pbar_hat


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
@settings(max_examples=100, deadline=None)
def test_exceedance_histogram_matches_literal_counts(case, cap, data):
    x, b = case
    if data.draw(st.booleans()):
        rows = disjoint_blocks(x, b)
    else:
        rows = np.lib.stride_tricks.sliding_window_view(x, b)
    picks = data.draw(st.lists(st.sampled_from(list(x) + [-np.inf, np.inf]), max_size=6))
    thresholds = np.array(picks, dtype=float)
    got = exceedance_histogram(block_tops(rows, cap), thresholds)
    assert got.shape == (thresholds.size, cap + 1)
    for t, row in zip(thresholds, got):
        capped = np.minimum((rows > t).sum(axis=1), cap)
        np.testing.assert_array_equal(row, np.bincount(capped, minlength=cap + 1))


def test_disjoint_blocks_drop_the_remainder():
    np.testing.assert_array_equal(disjoint_blocks(np.arange(7.0), 3), [[0, 1, 2], [3, 4, 5]])


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


def test_check_block_size_bounds():
    assert check_block_size(10, 5) == 5
    for bad in (1, 6, 0, -2):
        with pytest.raises(ValueError):
            check_block_size(10, bad)
