"""Monte Carlo harness: summaries, persistence, config parsing."""
import dataclasses
import multiprocessing
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import exclust.experiments as ex
from exclust.competitors import CompetitorSpec, ferro_pi, hsing_pi, robert_pi
from exclust.errors import DegenerateEstimateError, FieldError
from exclust.estimators import pbar_hat, pi_from_pbar
from exclust.experiments import (
    ExperimentConfig,
    read_config,
    render_svg,
    run,
    write_csv,
)
from exclust.simulate import ModelSpec, gen, substream_seed

TINY = ExperimentConfig(
    "iid_frechet",
    n=100,
    reps=3,
    block_grid=(6, 10),
    estimators=("db-z", "sb-z", "sb-y"),
    master_seed=5,
)


@pytest.fixture(scope="module")
def tiny_table():
    return run(TINY, workers=1)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("armax", 0.5, reps=1)
    with pytest.raises(ValueError):
        ExperimentConfig("armax", 0.5, block_grid=(7,))
    with pytest.raises(ValueError):
        ExperimentConfig("armax", 0.5, n=100, block_grid=(60,))
    with pytest.raises(ValueError):
        ExperimentConfig("armax", 0.5, estimators=("sb-z", "runs"))
    with pytest.raises(ValueError):
        ExperimentConfig("armax", 1.5)


def test_config_rejects_block_sizes_a_competitor_cannot_use():
    # both used to pass the config and abort run() halfway
    with pytest.raises(ValueError, match=r"hsing with b=2"):
        ExperimentConfig("armax", 0.5, n=200, reps=2, block_grid=(2, 6))
    with pytest.raises(ValueError, match=r"ferro with b=2"):
        ExperimentConfig("armax", 0.5, n=200, reps=2, block_grid=(2, 6), estimators=("ferro",))
    ExperimentConfig("armax", 0.5, n=200, reps=2, block_grid=(2, 6), estimators=("sb-z", "db-y"))


def test_config_rejects_non_integral_block_sizes():
    # block_grid=(6.9,) used to be stored as (6,)
    with pytest.raises(ValueError, match=r"b=6\.9"):
        ExperimentConfig("armax", 0.5, n=200, reps=2, block_grid=(6.9,))
    cfg = ExperimentConfig("armax", 0.5, n=200, reps=2, block_grid=(np.int64(6), 8.0))
    assert cfg.block_grid == (6, 8)
    assert all(type(b) is int for b in cfg.block_grid)


def test_config_stores_m_max_as_an_int():
    cfg = ExperimentConfig("armax", 0.5, n=200, reps=2, block_grid=(6,), m_max=np.float64(3.0))
    assert type(cfg.m_max) is int and cfg.m_max == 3
    with pytest.raises(ValueError, match=r"m_max=2\.5 is not an integer"):
        ExperimentConfig("armax", 0.5, n=200, reps=2, block_grid=(6,), m_max=2.5)


def test_config_rejects_non_integral_counts_and_empty_grids():
    # each used to be accepted and fail inside run() or gen(), or to give an
    # empty table that only write_csv refused
    for name, value in (("reps", 2.5), ("n", 200.5), ("burnin", 10.5), ("master_seed", 0.5)):
        with pytest.raises(ValueError, match=rf"{name}={value} is not an integer"):
            ExperimentConfig("armax", 0.5, **{"n": 200, "reps": 2, "block_grid": (6,), name: value})
    for name in ("block_grid", "estimators"):
        with pytest.raises(ValueError, match=f"{name} must not be empty"):
            ExperimentConfig("armax", 0.5, n=200, reps=2, **{"block_grid": (6,), name: ()})
    with pytest.raises(ValueError, match="master seed"):
        ExperimentConfig("armax", 0.5, n=200, reps=2, block_grid=(6,), master_seed=-1)
    cfg = ExperimentConfig("armax", 0.5, n=200.0, reps=np.int64(2), block_grid=(6,), burnin=np.float64(5))
    assert (type(cfg.n), type(cfg.reps), type(cfg.burnin)) == (int, int, int)


def test_config_refuses_a_scalar_or_string_for_a_list_by_name():
    # block_grid=6 raised TypeError; estimators="sb-z" was split into characters
    with pytest.raises(ValueError, match=r"block_grid must be a sequence, got 6"):
        ExperimentConfig("armax", 0.5, block_grid=6)
    with pytest.raises(ValueError, match=r"estimators must be a sequence, got 'sb-z'"):
        ExperimentConfig("armax", 0.5, estimators="sb-z")
    with pytest.raises(ValueError, match=r"truth_pi must be a sequence, got 0\.5"):
        ExperimentConfig("armax", 0.5, truth_pi=0.5)


def test_config_names_the_field_of_a_bad_value():
    # n=0 was reported as "block size b=6 out of range for n=0"
    with pytest.raises(FieldError, match=r"^n must be >= 10, got 0$") as exc:
        ExperimentConfig("armax", 0.5, n=0)
    assert exc.value.field == "n"
    cases = {
        "model_kind": dict(model_kind="garch"),
        "model_param": dict(model_param=1.5),
        "master_seed": dict(master_seed=-1),
        "reps": dict(reps=1),
        "m_max": dict(m_max=True),
        "block_grid": dict(block_grid=(7,)),
        "estimators": dict(estimators=("runs",)),
        "truth_pi": dict(model_kind="sqarch", model_param=0.3),
    }
    for field, kwargs in cases.items():
        with pytest.raises(FieldError) as exc:
            ExperimentConfig(**{"model_kind": "armax", "model_param": 0.5, **kwargs})
        assert exc.value.field == field


def test_config_refuses_a_repeated_estimator_or_block_size_by_name(tmp_path):
    # each cell used to run once per copy, and run() returned 20 rows for 5
    with pytest.raises(FieldError, match=r"^estimators repeats \['sb-z'\]$") as exc:
        ExperimentConfig("armax", .5, n=200, reps=2, block_grid=(6,), estimators=("sb-z", "db-z", "sb-z"))
    assert exc.value.field == "estimators"
    # 6 and 6.0 are the same block size
    with pytest.raises(FieldError, match=r"^block_grid repeats \[6\]$") as exc:
        ExperimentConfig("armax", .5, n=200, reps=2, block_grid=(6, 8, 6.0), estimators=("sb-z",))
    assert exc.value.field == "block_grid"
    bad = tmp_path / "bad.cfg"
    bad.write_text("model_kind = armax\nmodel_param = 0.5\nn = 200\nblock_grid = 6, 6\n")
    with pytest.raises(ValueError) as exc:
        read_config(bad)
    assert str(exc.value) == f"{bad}:4: block_grid: block_grid repeats [6]"


_SCALARS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.sampled_from([10**400, -(10**400)]),  # no float holds them
    st.floats(),  # NaN and +-inf included
    st.booleans(),
    st.sampled_from([np.int64(4), np.uint64(2**63), np.float64(0.5), np.float32(2.0), np.bool_(True)]),
    st.text(max_size=4),
    st.complex_numbers(),
    st.none(),
)
_VALUES = st.one_of(
    _SCALARS,
    st.sampled_from(ex.ESTIMATORS + ("armax", "sqarch", "garch")),
    st.lists(st.one_of(_SCALARS, st.sampled_from(ex.ESTIMATORS)), max_size=4),
)
_VALID = dict(model_kind="armax", model_param=0.5, n=200, reps=2, block_grid=(4,),
              estimators=("sb-z",), m_max=2, master_seed=0, burnin=10,
              truth_pi=(0.005,) * 200)  # as long as any m_max <= n


@given(st.sampled_from(sorted(_VALID)), _VALUES)
@settings(max_examples=400, deadline=None)
def test_config_returns_or_names_the_drawn_field(field, value):
    # ints, floats, NaN, +-inf, bools, NumPy scalars, strings, complex values,
    # None, scalars where lists belong and lists where scalars belong; a
    # string or complex model_param, truth_pi=[None] and unknown estimators
    # of mixed types (sorted for the message) raised TypeError, and n=10**400
    # OverflowError
    try:
        ExperimentConfig(**{**_VALID, field: value})
    except FieldError as err:
        assert err.field == field, (field, value, err.field, str(err))


def test_config_without_limit_values_fails_before_the_first_replication(monkeypatch):
    # used to run every replication and raise only when folding the summary
    monkeypatch.setattr(ex, "_run_rep", lambda task: pytest.fail("a replication ran"))
    with pytest.raises(ValueError, match="no stored limit values"):
        run(ExperimentConfig("sqarch", .5, n=200, reps=2, m_max=6, block_grid=(6,)), workers=1)


def test_truth_armax_is_geometric():
    pi = ExperimentConfig("armax", 0.5).truth()
    np.testing.assert_allclose(pi, [0.5, 0.25, 0.125, 0.0625, 0.03125])


def test_armax_truth_reaches_any_m_max():
    # the truth stopped at geometric_pi's 40-count support: m_max=45 ran every
    # replication, then failed to broadcast (1,1,45) against (40,) in the fold
    cfg = ExperimentConfig("armax", 0.5, n=200, reps=2, m_max=45, block_grid=(6,), estimators=("sb-z",))
    pi = cfg.truth()
    assert pi.shape == (45,) and pi[44] == 0.5**45
    rows = run(cfg, workers=1).rows
    assert [r.m for r in rows] == list(range(1, 46))


class _SerialPool:
    """Records its size and maps in this process."""

    sizes = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return list(map(fn, tasks))


def test_run_starts_no_more_workers_than_replications(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(ex.os, "cpu_count", lambda: 64)
    for workers in (None, 2, 64):
        run(TINY, workers=workers)
    assert _SerialPool.sizes == [3, 2, 3]


@pytest.mark.parametrize("workers", [0, -3, 2.5, "4", True])
def test_run_refuses_a_worker_count_below_one_or_not_integral(monkeypatch, workers):
    # 0 and -3 used to run serially without a word
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(ex, "_run_rep", lambda task: pytest.fail("a replication ran"))
    with pytest.raises(ValueError, match="workers"):
        run(TINY, workers=workers)


def test_truth_fixed_lists():
    pi = ExperimentConfig("sqarch", 0.5).truth()
    np.testing.assert_allclose(pi, [0.751, 0.168, 0.055, 0.014, 0.008])
    pi = ExperimentConfig("ar_uniform", 4).truth()
    np.testing.assert_allclose(pi, [0.75, 0.1875, 0.0469, 0.0117, 0.0029])


def test_truth_iid():
    pi = ExperimentConfig("iid_frechet").truth()
    np.testing.assert_allclose(pi, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_truth_override():
    pi = ExperimentConfig("sqarch", 0.3, truth_pi=(0.8, 0.1, 0.05, 0.03, 0.02)).truth()
    np.testing.assert_allclose(pi, [0.8, 0.1, 0.05, 0.03, 0.02])


def test_truth_unknown_parameter_requires_override():
    with pytest.raises(ValueError):
        ExperimentConfig("sqarch", 0.3).truth()


def test_table_shape(tiny_table):
    assert len(tiny_table.rows) == 3 * 2 * 5  # estimators x blocks x m
    keys = {(r.estimator, r.b, r.m) for r in tiny_table.rows}
    assert len(keys) == len(tiny_table.rows)


def test_mse_identity(tiny_table):
    for row in tiny_table.rows:
        if np.isnan(row.mse):
            continue
        assert abs(row.mse - (row.variance + row.bias**2)) < 1e-12


def test_population_variance_convention():
    # reproduce one cell by hand: variance with divisor N, bias to the truth
    cfg = ExperimentConfig(
        "iid_frechet", n=100, reps=4, block_grid=(6,), estimators=("db-z",),
        master_seed=9,
    )
    from exclust.estimators import pbar_hat, pi_from_pbar
    from exclust.simulate import ModelSpec, gen, substream_seed

    vals = []
    for rep in range(4):
        x = gen(ModelSpec("iid_frechet", 100, None, seed=substream_seed(9, rep)))
        vals.append(pi_from_pbar(pbar_hat(x, 6, mode="disjoint", scale="z")).values[0])
    vals = np.asarray(vals)
    row = next(r for r in run(cfg, workers=1).rows if r.m == 1)
    np.testing.assert_allclose(row.bias, vals.mean() - 1.0, atol=1e-14)
    np.testing.assert_allclose(row.variance, vals.var(), atol=1e-14)
    np.testing.assert_allclose(row.mse, np.mean((vals - 1.0) ** 2), atol=1e-14)


def test_schedule_independence(tmp_path):
    cfg = ExperimentConfig(
        "armax", 0.5, n=300, reps=6, block_grid=(6, 8),
        estimators=("sb-z", "ferro"), master_seed=77,
    )
    a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
    write_csv(run(cfg, workers=1), a)
    write_csv(run(cfg, workers=4), b)
    assert a.read_bytes() == b.read_bytes()


def test_missing_reps_are_disclosed(tiny_table, monkeypatch):
    def flaky(x, b, m_max):
        raise DegenerateEstimateError("forced")

    monkeypatch.setattr(ex, "hsing_pi", flaky)
    cfg = ExperimentConfig(
        "iid_frechet", n=100, reps=3, block_grid=(6,),
        estimators=("sb-z", "hsing"), master_seed=5,
    )
    table = run(cfg, workers=1)
    for row in table.rows:
        if row.estimator == "hsing":
            assert row.n_missing == 3
            assert np.isnan(row.mse) and np.isnan(row.bias)
        else:
            assert row.n_missing == 0
    with pytest.raises(ValueError):
        table.min_mse("hsing", 1)


def _per_call_estimate(x, estimator, b, m_max):
    """pi(1..m_max) of one experiment estimator from the public functions."""
    if estimator == "hsing":
        return hsing_pi(x, b, m_max).values
    if estimator == "ferro":
        return ferro_pi(x, b, m_max).values
    if estimator == "robert":
        return robert_pi(x, CompetitorSpec("robert", b, m_max=m_max)).values
    mode = {"db": "disjoint", "sb": "sliding"}[estimator[:2]]
    return pi_from_pbar(pbar_hat(x, b, mode=mode, scale=estimator[-1], m_max=m_max)).values


@pytest.mark.parametrize("kind, param", [("armax", 0.5), ("sqarch", 0.5), ("ar_uniform", 4)])
def test_run_rep_matches_per_call_estimates(kind, param):
    cfg = ExperimentConfig(kind, param, n=2000, reps=2, master_seed=21)
    for rep in range(cfg.reps):
        spec = ModelSpec(kind, cfg.n, param, cfg.burnin, substream_seed(cfg.master_seed, rep))
        x = gen(spec)
        want = np.full((len(cfg.estimators), len(cfg.block_grid), cfg.m_max), np.nan)
        for ie, est in enumerate(cfg.estimators):
            for ib, b in enumerate(cfg.block_grid):
                try:
                    want[ie, ib] = _per_call_estimate(x, est, b, cfg.m_max)
                except DegenerateEstimateError:
                    pass
        assert np.array_equal(ex._run_rep((cfg, rep)), want, equal_nan=True)


def test_min_mse(tiny_table):
    best = tiny_table.min_mse("sb-z", 1)
    assert best.estimator == "sb-z" and best.m == 1
    others = [r.mse for r in tiny_table.rows if r.estimator == "sb-z" and r.m == 1]
    assert best.mse == min(others)
    assert best.mse_1e3 == pytest.approx(1e3 * best.mse)


def test_write_csv_golden(tiny_table, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(tiny_table, a)
    write_csv(run(TINY, workers=2), b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "estimator,b,m,bias,variance,mse,mse_1e3,n_missing"
    assert len(lines) == 1 + len(tiny_table.rows)


def test_write_csv_rejects_empty(tmp_path):
    empty = ex.SummaryTable(rows=())
    with pytest.raises(ValueError):
        write_csv(empty, tmp_path / "x.csv")


def test_render_svg(tiny_table, tmp_path):
    out = tmp_path / "plot.svg"
    render_svg(tiny_table, out)
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    again = tmp_path / "again.svg"
    render_svg(tiny_table, again)
    assert out.read_bytes() == again.read_bytes()


def test_read_config_full(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# benchmark at desk scale\n"
        "model_kind = armax\n"
        "model_param = 0.5\n"
        "n = 500\n"
        "reps = 4\n"
        "block_grid = 6, 8, 10\n"
        "estimators = sb-z, db-z\n"
        "master_seed = 42\n"
        "\n"
    )
    cfg = read_config(cfg_file)
    assert cfg == ExperimentConfig(
        "armax", 0.5, n=500, reps=4, block_grid=(6, 8, 10),
        estimators=("sb-z", "db-z"), master_seed=42,
    )


def test_read_config_truth_override(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "model_kind = sqarch\nmodel_param = 0.3\n"
        "truth_pi = 0.8, 0.1, 0.05, 0.03, 0.02\n"
    )
    pi = read_config(cfg_file).truth()
    np.testing.assert_allclose(pi, [0.8, 0.1, 0.05, 0.03, 0.02])
    # theta is not a config key: the summaries center on pi alone
    cfg_file.write_text("model_kind = sqarch\nmodel_param = 0.3\ntruth_theta = 0.8\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg_file))}:3: unknown key 'truth_theta'$"):
        read_config(cfg_file)


def test_read_config_refuses_a_repeated_key(tmp_path):
    # the last of the two used to win without a word
    bad = tmp_path / "bad.cfg"
    bad.write_text("model_kind = armax\nn = 500\n\nn = 700\n")
    with pytest.raises(ValueError) as exc:
        read_config(bad)
    assert str(exc.value) == f"{bad}:4: n: repeats the key set on line 2"


@pytest.mark.parametrize(
    "text, reason",
    [
        ("model_param = 0.5\nn = 0\n", "3: n: n must be >= 10, got 0"),
        ("model_param = 1.5\n", "2: model_param: armax needs alpha in [0, 1), got 1.5"),
        ("model_param = 0.5\nestimators = sb-z, runs\n", "3: estimators: unknown estimators: ['runs']"),
        ("model_param = 0.5\nn = 200\nm_max = 300\n", "4: m_max: m_max=300 exceeds the sample size n=200"),
        # counts no array can hold: run() built a task list of reps tuples,
        # or numpy failed with "Maximum allowed dimension exceeded"
        ("model_param = 0.5\nreps = 99999999999999999999999\n",
         "3: reps: reps must be at most 9223372036854775807, got 99999999999999999999999"),
        ("model_param = 0.5\nn = 99999999999999999999999\n",
         "3: n: n must be at most 9223372036854775807, got 99999999999999999999999"),
        ("model_param = 0.5\nburnin = 9223372036854775000\n",
         "3: burnin: burnin must be at most 9223372036854775807 - n, got 9223372036854775000"),
    ],
    ids=["n", "model_param", "estimators", "m_max", "reps-above-intp", "n-above-intp", "burnin-above-intp"],
)
def test_read_config_names_line_and_key_of_a_refused_value(tmp_path, text, reason):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model_kind = armax\n" + text)
    with pytest.raises(ValueError) as exc:
        read_config(bad)
    assert str(exc.value) == f"{bad}:{reason}"


def test_read_config_names_a_default_field_without_a_line(tmp_path):
    # the grid is left at its default, which n = 20 cannot hold
    bad = tmp_path / "bad.cfg"
    bad.write_text("model_kind = armax\nmodel_param = 0.5\nn = 20\n")
    with pytest.raises(ValueError) as exc:
        read_config(bad)
    assert str(exc.value) == f"{bad}: block_grid: block size b=12 out of range for n=20: need 2 <= b <= n/2"


def test_read_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model_kind = armax\nworkers = 3\n")
    with pytest.raises(ValueError, match="workers"):
        read_config(bad)
    bad.write_text("model_kind = armax\nn 500\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config(bad)
    bad.write_text("n = 500\n")
    with pytest.raises(ValueError, match="model_kind"):
        read_config(bad)


@pytest.mark.parametrize(
    "line, reason",
    [
        ("n = 2000.5", "n: expected an integer, got '2000.5'"),
        ("block_grid = 6, 7.5", "block_grid: expected an integer, got '7.5'"),
        ("model_param = abc", "model_param: expected a number, got 'abc'"),
        ("truth_pi = 0.8, x", "truth_pi: expected a number, got 'x'"),
    ],
    ids=["int", "int-list", "float", "float-list"],
)
def test_read_config_names_line_and_key_of_a_bad_value(tmp_path, line, reason):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"model_kind = armax\n{line}\n")
    with pytest.raises(ValueError) as exc:
        read_config(bad)
    assert str(exc.value) == f"{bad}:2: {reason}"


_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
# a config that runs, one line per key; the drawn files take any subset
_BASE_LINES = ["model_kind = armax", "model_param = 0.5", "n = 200", "reps = 2",
               "block_grid = 6, 8", "estimators = sb-z, db-y", "m_max = 2"]
_TOKENS = st.one_of(
    st.sampled_from(["armax", "sqarch", "garch", "sb-z", "db-y", "hsing", "runs", "0.5", "4",
                     "200", "6", "1.5", "-1", "0", "nan", "inf", "-inf", "1e309", "x", "", "True"]),
    st.integers(-10, 400).map(str),
    st.floats().map(repr),
)
_NO_NEWLINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                      max_size=12)
_KEY_VALUE = st.builds(
    "{}{} ={} {}".format,
    st.sampled_from(["", "  "]),
    st.sampled_from(_FIELDS + _FIELDS + ["workers", "N", "model kind", ""]),
    st.sampled_from(["", " "]),
    _TOKENS | st.lists(_TOKENS, max_size=4).map(", ".join),
)
_LINES = st.one_of(
    _KEY_VALUE,
    _KEY_VALUE,
    st.sampled_from(["", "   ", "# a comment", "  # model_kind = garch"]),
    _NO_NEWLINE,  # mostly lines without '='
)


@given(st.lists(st.sampled_from(_BASE_LINES), unique=True), st.lists(_LINES, max_size=4), st.randoms())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_config_returns_or_names_the_line_and_key(tmp_path, base, drawn, rnd):
    # unknown and repeated keys, blank and comment lines, lines without '=',
    # bad ints and floats, NaN, +-inf and empty lists: each file gives a
    # config, or a ValueError that starts with the path and names the key
    lines = base + drawn
    rnd.shuffle(lines)
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        assert isinstance(read_config(path), ExperimentConfig)
        return
    except ValueError as err:
        msg = str(err)
    where = re.match(rf"{re.escape(str(path))}(?::(\d+))?: ", msg)
    assert where, msg
    rest = msg[where.end():]
    if where[1] is None:  # the missing model_kind, or a field left at its default
        keys = {line.partition("=")[0].strip() for line in lines if "=" in line}
        field = rest.partition(": ")[0]
        assert rest == "missing required key model_kind" or field in _FIELDS and field not in keys, msg
        return
    line = lines[int(where[1]) - 1]
    key = line.partition("=")[0].strip()
    if "=" not in line:
        assert rest == f"expected key=value, got {line.strip()!r}", msg
    elif key not in _FIELDS:
        assert rest == f"unknown key {key!r}", msg
    else:
        assert rest.startswith(f"{key}: "), msg
