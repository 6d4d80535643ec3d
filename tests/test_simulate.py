"""Seeded model generators and the replication seed stream."""
import numpy as np
import pytest
from scipy.signal import lfilter

from exclust.errors import FieldError
from exclust.estimators import pbar_hat, pi_from_pbar
from exclust.simulate import ModelSpec, gen, substream_seed


def test_model_spec_validation():
    ModelSpec("armax", 100, 0.5)
    with pytest.raises(ValueError):
        ModelSpec("garch", 100, 0.5)
    with pytest.raises(ValueError):
        ModelSpec("armax", 100, 1.0)
    with pytest.raises(ValueError):
        ModelSpec("armax", 100, -0.1)
    with pytest.raises(ValueError):
        ModelSpec("sqarch", 100, 0.0)
    with pytest.raises(ValueError):
        ModelSpec("sqarch", 100, 1.0)
    with pytest.raises(ValueError):
        ModelSpec("ar_uniform", 100, 1)
    with pytest.raises(ValueError):
        ModelSpec("ar_uniform", 100, 2.5)
    with pytest.raises(ValueError):
        ModelSpec("iid_frechet", 100, 0.5)
    with pytest.raises(ValueError):
        ModelSpec("armax", 5, 0.5)
    # a non-integral n or burnin used to fail inside numpy, a float seed was
    # truncated, a bool burnin taken as 1, and a string parameter raised TypeError
    for field, kwargs in (
        ("n", dict(n=100.5)),
        ("n", dict(n=True)),
        ("n", dict(n="100")),
        ("burnin", dict(burnin=2.5)),
        ("burnin", dict(burnin=True)),
        ("burnin", dict(burnin=-1)),
        ("n", dict(n=10 ** 23)),  # more values than an array holds
        ("burnin", dict(burnin=2 ** 63 - 100)),
        ("seed", dict(seed=1.7)),
        ("seed", dict(seed=False)),
        ("seed", dict(seed=-1)),
        ("seed", dict(seed=2 ** 64)),
        ("seed", dict(seed=np.nan)),
        ("param", dict(param="0.5")),
        ("param", dict(param=0.5 + 0j)),
        ("param", dict(param=True)),
    ):
        spec = {"kind": "armax", "n": 100, "param": 0.5, **kwargs}
        with pytest.raises(FieldError, match=f"^{field}") as exc:
            ModelSpec(**spec)
        assert exc.value.field == field
    for r in (np.nan, np.inf, 2.5):
        with pytest.raises(FieldError, match="ar_uniform needs integer r >= 2"):
            ModelSpec("ar_uniform", 100, r)
    spec = ModelSpec("armax", 100.0, 0.5, burnin=np.int64(3), seed=np.float64(7))
    assert (spec.n, spec.burnin, spec.seed) == (100, 3, 7)
    assert all(type(v) is int for v in (spec.n, spec.burnin, spec.seed))
    assert gen(spec).size == 100


def test_gen_is_deterministic():
    spec = ModelSpec("sqarch", 500, 0.5, seed=99)
    np.testing.assert_array_equal(gen(spec), gen(spec))


def test_gen_respects_length():
    for kind, param in (("armax", 0.3), ("sqarch", 0.5), ("ar_uniform", 4),
                        ("iid_frechet", None)):
        assert gen(ModelSpec(kind, 123, param, seed=1)).size == 123


def test_armax_zero_alpha_equals_iid():
    a = gen(ModelSpec("armax", 400, 0.0, seed=7))
    b = gen(ModelSpec("iid_frechet", 400, seed=7))
    np.testing.assert_array_equal(a, b)


def test_armax_matches_naive_recursion():
    n, burnin, alpha, seed = 300, 50, 0.5, 13
    rng = np.random.default_rng(seed)
    z = -1.0 / np.log(rng.random(n + burnin + 1))
    x = np.empty(n + burnin)
    prev = z[0]
    for t in range(n + burnin):
        prev = max(alpha * prev, (1 - alpha) * z[t + 1])
        x[t] = prev
    got = gen(ModelSpec("armax", n, alpha, burnin=burnin, seed=seed))
    np.testing.assert_allclose(got, x[burnin:], rtol=1e-10)


def test_sqarch_matches_naive_recursion():
    n, burnin, lam, seed = 200, 30, 0.5, 21
    rng = np.random.default_rng(seed)
    z2 = rng.standard_normal(n + burnin + 1) ** 2
    x = np.empty(n + burnin)
    prev = 1e-4 * z2[0]
    for t in range(n + burnin):
        prev = (2e-5 + lam * prev) * z2[t + 1]
        x[t] = prev
    got = gen(ModelSpec("sqarch", n, lam, burnin=burnin, seed=seed))
    np.testing.assert_array_equal(got, x[burnin:])


def test_ar_matches_naive_recursion():
    n, burnin, r, seed = 200, 30, 4, 34
    rng = np.random.default_rng(seed)
    z = rng.integers(0, r, size=n + burnin) / r
    prev = rng.random()
    x = np.empty(n + burnin)
    for t in range(n + burnin):
        prev = prev / r + z[t]
        x[t] = prev
    got = gen(ModelSpec("ar_uniform", n, r, burnin=burnin, seed=seed))
    np.testing.assert_allclose(got, x[burnin:], rtol=1e-12)


def test_ar_matches_lfilter():
    n, burnin, r, seed = 150, 20, 3, 35
    rng = np.random.default_rng(seed)
    z = rng.integers(0, r, size=n + burnin) / r
    x0 = rng.random()
    ref = lfilter([1.0], [1.0, -1.0 / r], z, zi=np.array([x0 / r]))[0]
    got = gen(ModelSpec("ar_uniform", n, r, burnin=burnin, seed=seed))
    np.testing.assert_array_equal(got, ref[burnin:])


def test_armax_frechet_marginal():
    x = gen(ModelSpec("armax", 10**5, 0.5, seed=2))
    assert abs(np.mean(x <= 1.0) - np.exp(-1)) < 0.01


def test_ar_uniform_marginal():
    x = gen(ModelSpec("ar_uniform", 10**5, 4, seed=3))
    assert abs(x.mean() - 0.5) < 0.01
    assert np.all(x >= 0.0) and np.all(x < 1.0 + 1.0 / 4)


def test_all_models_finite():
    for kind, param in (("armax", 0.9), ("sqarch", 0.9), ("ar_uniform", 2),
                        ("iid_frechet", None)):
        x = gen(ModelSpec(kind, 5000, param, seed=11))
        assert np.all(np.isfinite(x))


def test_sqarch_positive():
    x = gen(ModelSpec("sqarch", 5000, 0.5, seed=12))
    assert np.all(x > 0.0)


def test_substream_pinned_vectors():
    assert substream_seed(0, 0) == 16294208416658607535
    assert substream_seed(0, 1) == 7960286522194355700


def test_substream_is_stateless():
    a = substream_seed(123, 7)
    substream_seed(999, 0)
    assert substream_seed(123, 7) == a


def test_substream_distinct_pairs():
    rng = np.random.default_rng(0)
    masters = rng.integers(0, 2**63, size=10**6, dtype=np.uint64)
    for s in masters:
        assert substream_seed(int(s), 0) != substream_seed(int(s), 1)


def test_substream_validation():
    with pytest.raises(ValueError):
        substream_seed(0, -1)
    with pytest.raises(ValueError):
        substream_seed(2**64, 0)


@pytest.mark.parametrize("master, rep_index, message", [
    (1.5, 1, r"^master=1\.5 is not an integer$"),
    (True, 1, r"^master=True is not an integer$"),
    ("3", 1, r"^master=3 is not an integer$"),
    (float("nan"), 1, r"^master=nan is not an integer$"),
    (float("inf"), 1, r"^master=inf is not an integer$"),
    (-float("inf"), 1, r"^master=-inf is not an integer$"),
    (0, 1.5, r"^rep_index=1\.5 is not an integer$"),
    (0, True, r"^rep_index=True is not an integer$"),
], ids=["float-master", "bool-master", "str-master", "nan-master", "inf-master", "-inf-master",
        "float-rep_index", "bool-rep_index"])
def test_substream_seed_refuses_bad_values_by_name(master, rep_index, message):
    # 1.5 gave master 1's stream, True and "3" passed as 1 and 3, NaN and inf
    # raised messages that named nothing (inf an OverflowError), and a float
    # rep_index a bare TypeError
    with pytest.raises(ValueError, match=message):
        substream_seed(master, rep_index)


def test_burnin_shift_within_noise():
    # doubling the burn-in must not move the Monte Carlo mean of pi-hat(1)
    # beyond its sampling noise
    def mc_mean(burnin):
        vals = []
        for rep in range(150):
            x = gen(ModelSpec("armax", 2000, 0.5, burnin=burnin,
                              seed=substream_seed(606, rep)))
            est = pi_from_pbar(pbar_hat(x, 20, mode="sliding", scale="z"))
            vals.append(est.values[0])
        return np.mean(vals), np.std(vals) / np.sqrt(len(vals))

    m1, se1 = mc_mean(1000)
    m2, se2 = mc_mean(2000)
    assert abs(m1 - m2) <= 2.0 * np.hypot(se1, se2)
