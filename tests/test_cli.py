"""Command-line interface: subcommands, exit codes, golden help."""
import contextlib
import io
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exclust import cli
from exclust.cli import main
from exclust.estimators import pbar_hat, pi_from_pbar, theta_hat
from exclust.simulate import ModelSpec, gen

DATA = Path(__file__).parent / "data"


def test_help_golden(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == DATA.joinpath("help.txt").read_text()


@pytest.mark.parametrize("command", ["simulate", "estimate", "variance", "experiment", "table1"])
def test_subcommand_help_golden(capsys, command):
    # every flag of every subcommand, with its choices, default use and help
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == DATA.joinpath(f"help_{command}.txt").read_text()


def test_subcommand_help_lists_flags(capsys):
    assert main(["estimate", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--in", "--mode", "--scale", "--b", "--m-max", "--clip"):
        assert flag in out


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_variance_iid_db_constants(capsys):
    assert main(["variance", "--model", "iid", "--kind", "db", "--m", "1"]) == 0
    rows = dict()
    for line in capsys.readouterr().out.strip().splitlines()[1:]:
        name, j, jp, value = line.split(",")
        rows[name, j, jp] = float(value)
    assert rows["sigma", "1", "1"] == pytest.approx(5 / 108, abs=1e-9)
    assert rows["gamma", "1", "1"] == pytest.approx(20 / 27, abs=1e-9)
    assert rows["theta_var", "1", "1"] == pytest.approx(rows["gamma", "1", "1"])


def test_variance_geometric_sb(capsys):
    code = main([
        "variance", "--model", "geometric", "--alpha", "0.5", "--kind", "sb",
        "--m", "1", "--nodes", "24", "--no-refine",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("matrix,j,jp,value\n")
    assert "theta_var,1,1," in out


def _variance_golden():
    """``tests/data/variance.txt``: per "$ exclust variance ..." line, the output lines."""
    cases, spec = {}, None
    for line in DATA.joinpath("variance.txt").read_text().splitlines():
        if line.startswith("$ exclust variance "):
            spec = line.removeprefix("$ exclust variance ")
            cases[spec] = []
        else:
            cases[spec].append(line)
    return cases


VARIANCE_GOLDEN = _variance_golden()


@pytest.mark.parametrize("spec", list(VARIANCE_GOLDEN))
def test_variance_output_golden(capsys, spec):
    # iid and geometric alpha=0.5, db and sb, at m=3, and two of the alphas
    # whose pmf truncates mass past the counts read: every line to 10 digits
    assert main(["variance"] + spec.split()) == 0
    assert capsys.readouterr().out.splitlines() == VARIANCE_GOLDEN[spec]


@pytest.mark.parametrize("kind", ["db", "sb"])
@pytest.mark.parametrize("alpha", ["0.7", "0.9"])
def test_variance_reads_a_truncated_geometric_pmf_within_its_support(capsys, alpha, kind):
    # geometric_pi(alpha) cuts alpha^40 of the mass beyond 40, which m = 3
    # never reads; a tail tolerance of 1e-8 refused every alpha above 0.631
    assert main(["variance", "--model", "geometric", "--alpha", alpha, "--kind", kind,
                 "--m", "3", "--nodes", "16"]) == 0
    assert capsys.readouterr().out.startswith("matrix,j,jp,value\n")


def test_variance_unstable_quadrature_exits_2(capsys):
    code = main(["variance", "--model", "iid", "--kind", "sb", "--m", "1",
                 "--nodes", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "(j, j') = (1, 1), 8 -> 16 nodes" in err


def test_variance_above_the_table_budget_exits_1(capsys):
    # 2.4 GB of bivariate powers at 128 nodes; refused before any is built
    code = main(["variance", "--model", "geometric", "--alpha", "0.5", "--kind", "db",
                 "--m", "40"])
    assert code == 1
    err = capsys.readouterr().err
    assert "m=40 with nodes_1d=64" in err and "MB limit" in err


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--model", "armax", "--alpha", "0.5", "--n", "200",
            "--seed", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 200


def test_simulate_estimate_round_trip(tmp_path, capsys):
    sample = tmp_path / "x.csv"
    assert main(["simulate", "--model", "armax", "--alpha", "0.5", "--n", "400",
                 "--seed", "3", "--out", str(sample)]) == 0
    assert main(["estimate", "--in", str(sample), "--mode", "sliding",
                 "--scale", "z", "--b", "20"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "stat,m,value"

    x = gen(ModelSpec("armax", 400, 0.5, seed=3))
    pb = pbar_hat(x, 20, mode="sliding", scale="z")
    pi = pi_from_pbar(pb)
    expected = [f"pbar,{m},{pb.values[m - 1]:.10g}" for m in range(1, 6)]
    expected += [f"pi,{m},{pi.values[m - 1]:.10g}" for m in range(1, 6)]
    expected += [f"theta,5,{theta_hat(pi):.10g}"]
    assert out[1:] == expected


def test_estimate_skips_comment_header(tmp_path, capsys):
    f = tmp_path / "x.csv"
    rng = np.random.default_rng(0)
    f.write_text("# series\n" + "\n".join(f"{v}" for v in rng.pareto(1, 80)) + "\n")
    assert main(["estimate", "--in", str(f), "--b", "8"]) == 0


def test_estimate_constant_series_degenerate(tmp_path, capsys):
    f = tmp_path / "const.csv"
    f.write_text("1.0\n" * 60)
    code = main(["estimate", "--in", str(f), "--b", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert "theta,5,nan" in captured.out
    assert "pi,1,0" in captured.out
    assert "error:" in captured.err


def test_estimate_clip_flag(tmp_path, capsys):
    f = tmp_path / "x.csv"
    rng = np.random.default_rng(8)
    f.write_text("\n".join(f"{v}" for v in rng.pareto(1, 200)) + "\n")
    assert main(["estimate", "--in", str(f), "--b", "10", "--clip"]) in (0, 2)
    out = capsys.readouterr().out
    pi_vals = [float(l.split(",")[2]) for l in out.splitlines() if l.startswith("pi,")]
    assert all(v >= 0 for v in pi_vals)


def test_usage_errors_exit_1(capsys):
    assert main(["estimate", "--in", "x", "--b", "5", "--bogus"]) == 1
    assert "bogus" in capsys.readouterr().err
    assert main(["decompose"]) == 1
    assert main([]) == 1
    assert main(["simulate", "--model", "armax", "--n", "50", "--out", "x"]) == 1
    err = capsys.readouterr().err
    assert "--alpha" in err


@pytest.mark.parametrize("argv, reason", [
    (["simulate", "--model", "armax", "--alpha", "-1e-05"], "armax needs alpha in [0, 1), got -1e-05"),
    (["simulate", "--model", "armax", "--alpha", "-inf"], "armax needs alpha in [0, 1), got -inf"),
    (["simulate", "--model", "sqarch", "--lambda", "-2e-3"], "sqarch needs lambda in (0, 1), got -0.002"),
    (["variance", "--model", "geometric", "--kind", "db", "--alpha", "-1e-05"],
     "alpha must lie in [0, 1), got -1e-05"),
    (["variance", "--model", "geometric", "--kind", "sb", "--alpha", "-inf"],
     "alpha must lie in [0, 1), got -inf"),
])
def test_negative_float_after_a_space_reaches_the_range_check(tmp_path, capsys, argv, reason):
    # argparse took -1e-05 and -inf for option names: "expected one argument"
    if argv[0] == "simulate":
        argv = argv + ["--n", "50", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"  # one line, no traceback


@pytest.mark.parametrize("bad, reason", [("abc", "could not convert string to float: 'abc'"),
                                         ("nan", "value must be a finite real number, got nan"),
                                         ("-inf", "value must be a finite real number, got -inf")])
def test_estimate_names_the_line_of_a_bad_value(tmp_path, capsys, bad, reason):
    # the error used to give the value alone; line 3 is the bad one after a comment
    f = tmp_path / "x.csv"
    f.write_text("# series\n1.0\n" + bad + "\n" + "2.0\n" * 20)
    assert main(["estimate", "--in", str(f), "--b", "5"]) == 1
    assert capsys.readouterr().err == f"error: {f}:3: {reason}\n"


def test_worker_count_below_one_exits_1(tmp_path, capsys):
    assert main(["table1", "--reps", "2", "--workers", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"


def test_missing_input_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["estimate", "--in", str(missing), "--b", "5"]) == 3
    assert "error:" in capsys.readouterr().err


def test_bad_block_size_exits_1(tmp_path, capsys):
    f = tmp_path / "x.csv"
    f.write_text("\n".join(str(float(v)) for v in range(20)) + "\n")
    assert main(["estimate", "--in", str(f), "--b", "19"]) == 1


_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(1e299, 1.7e308).map(lambda v: f"{v:.17g}"),
    st.floats(-1.7e308, -1e299).map(lambda v: f"{v:.17g}"),
    st.integers(0, 3).map(str),
)
_LINE = st.one_of(
    _NUMBER_TEXT,
    st.sampled_from(["", "   ", "# a comment", "nan", "inf", "-inf", "1e400", "0x10", "1,2"]),
    st.text(alphabet="abcxe+-.,# 0123456789", max_size=6),
)
_COUNT_TEXT = st.one_of(
    st.sampled_from(["2", "3", "5", "8"]),
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "2.0", "1e1", "0x4", " 6", "10" * 12, "-x"]),
    st.text(alphabet="abc-+.e 0123456789", max_size=5),
)
_SERIES = st.one_of(
    st.lists(_LINE, max_size=60),
    st.lists(_NUMBER_TEXT, min_size=1, max_size=1),  # a single value
    st.lists(_NUMBER_TEXT, min_size=20, max_size=80),
    st.none(),  # no such file
)


@given(_SERIES, _COUNT_TEXT, _COUNT_TEXT, st.sampled_from(["disjoint", "sliding"] * 3 + ["blocks", ""]),
       st.sampled_from(["z", "y"] * 3 + ["w", ""]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_estimate_exits_with_a_documented_code(tmp_path_factory, lines, b, m_max, mode, scale, clip):
    # exit codes 0 success, 1 usage error, 2 degenerate estimate, 3 I/O
    # failure, and no traceback: every failure is reported on one line
    path = tmp_path_factory.mktemp("series") / "x.csv"
    if lines is not None:
        path.write_text("\n".join(lines) + "\n")
    argv = ["estimate", "--in", str(path), "--b", b, "--m-max", m_max, "--mode", mode,
            "--scale", scale] + ["--clip"] * clip
    _assert_documented_exit(argv)


def _assert_documented_exit(argv):
    """Run ``main(argv)``: it must exit 0, 1, 2 or 3 without a traceback, and
    write to stderr exactly when it fails.  Returns the code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == ""), err.getvalue()
    return code


def _mostly(valid, invalid):
    """Draws from ``valid`` three times as often as from ``invalid``."""
    return st.sampled_from((valid, valid, valid, invalid)).flatmap(lambda strategy: strategy)


_UNIT_TEXT = _mostly(st.floats(0.05, 0.95).map(repr),
                     st.sampled_from(["0", "1", "-0.5", "1.5", "nan", "inf", "-1e-05", "x"]))
_PARAM_FLAGS = {"armax": "--alpha", "sqarch": "--lambda", "ar_uniform": "--r"}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_simulate_exits_with_a_documented_code(tmp_path_factory, data):
    # model parameters absent, out of range or not numbers, counts out of
    # range or not integers, and an output path that cannot be written
    model = data.draw(_mostly(st.sampled_from(["armax", "sqarch", "ar_uniform", "iid_frechet"]),
                              st.just("bogus")))
    flags = data.draw(_mostly(st.just([_PARAM_FLAGS.get(model)]),
                              st.lists(st.sampled_from(list(_PARAM_FLAGS.values())), unique=True)))
    argv = ["simulate", "--model", model]
    for flag in filter(None, flags):
        argv += [flag, data.draw(_mostly(st.sampled_from(["2", "4"]), st.sampled_from(["1", "2.5", "x"]))
                                 if flag == "--r" else _UNIT_TEXT)]
    for flag, valid, invalid in (("--n", st.integers(10, 300), ["9", "-1", "2.5", "x", "9" * 20]),
                                 ("--burnin", st.integers(0, 50), ["-1", "x", "9" * 20]),
                                 ("--seed", st.integers(0, 3), ["-1", str(2**64)])):
        argv += [flag, data.draw(_mostly(valid.map(str), st.sampled_from(invalid)))]
    tmp = tmp_path_factory.mktemp("simulate")
    out = data.draw(_mostly(st.just(tmp / "x.csv"), st.sampled_from([tmp, tmp / "no" / "x.csv"])))
    _assert_documented_exit(argv + ["--out", str(out)])


@given(_mostly(st.sampled_from(["iid", "geometric"]), st.just("bogus")), _UNIT_TEXT,
       _mostly(st.sampled_from(["db", "sb"]), st.just("")),
       _mostly(st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "2.5", "x"])),
       _mostly(st.integers(8, 32).map(str), st.sampled_from(["7", "0", "-1", "8.0", "x"])), st.booleans())
@settings(max_examples=40, deadline=None)
def test_variance_exits_with_a_documented_code(model, alpha, kind, m, nodes, no_refine):
    # m and nodes stay small to keep the draws fast; the covariance table
    # budget refuses larger ones by name
    argv = ["variance", "--model", model, "--alpha", alpha, "--kind", kind, "--m", m,
            "--nodes", nodes] + ["--no-refine"] * no_refine
    _assert_documented_exit(argv)


_MODEL_PARAMS = {"armax": "0.5", "sqarch": "0.5", "ar_uniform": "4", "iid_frechet": ""}


@st.composite
def config_lines(draw):
    """The lines of an experiment config, mostly valid ones.  n and reps are
    always set, to at most 200 and 3; the rest may be left out."""
    kind = draw(_mostly(st.sampled_from(list(_MODEL_PARAMS)), st.just("bogus")))
    lines = {
        "model_kind": kind,
        "model_param": draw(_mostly(st.just(_MODEL_PARAMS.get(kind, "")),
                                    st.sampled_from(["0", "1.5", "4", "nan", "x"]))),
        "n": draw(_mostly(st.integers(80, 200).map(str), st.sampled_from(["-1", "20", "2.5", "x"]))),
        "reps": draw(_mostly(st.sampled_from(["2", "3"]), st.sampled_from(["0", "1", "x"]))),
    }
    optional = {
        "block_grid": st.lists(_mostly(st.sampled_from(["4", "6", "8", "10", "12"]),
                                       st.sampled_from(["3", "0", "-2", "150", "x"])),
                               max_size=3, unique=True).map(", ".join),
        "estimators": st.lists(st.sampled_from(["db-z", "sb-z", "db-y", "sb-y", "hsing", "ferro", "robert"]),
                               max_size=3, unique=True).map(", ".join),
        "m_max": _mostly(st.integers(1, 5).map(str), st.sampled_from(["0", "-1", "2.5", "300"])),
        "master_seed": _mostly(st.integers(0, 5).map(str), st.sampled_from(["-1", str(2**64)])),
        "truth_pi": st.sampled_from(["", "0.5", "nan"]),
    }
    for key in draw(st.lists(st.sampled_from(list(optional)), unique=True)):
        lines[key] = draw(optional[key])
    return "".join(f"{key} = {value}\n" for key, value in lines.items()) + draw(
        _mostly(st.just(""), st.sampled_from(["unknown_key = 1\n", "n = 100\n", "no equals sign\n"])))


@given(_mostly(config_lines(), st.none()))
@settings(max_examples=60, deadline=None)
def test_experiment_exits_with_a_documented_code(tmp_path_factory, text):
    # config values out of range or of the wrong kind, unknown or repeated
    # keys, malformed lines, and a config file that is not there (None)
    tmp = tmp_path_factory.mktemp("experiment")
    cfg = tmp / "exp.cfg"
    if text is not None:
        cfg.write_text(text)
    argv = ["experiment", "--config", str(cfg), "--out-dir", str(tmp / "out"), "--workers", "1"]
    _assert_documented_exit(argv)


@pytest.mark.parametrize("flags, out_is_a_file, want", [(["--reps", "1"], False, 1),
                                                        (["--reps", "2", "--workers", "0"], False, 1),
                                                        (["--reps", "2"], True, 3)])
def test_table1_exits_with_a_documented_code(tmp_path, flags, out_is_a_file, want):
    out = tmp_path / "table.csv" if out_is_a_file else tmp_path
    if out_is_a_file:
        out.write_text("")
    assert _assert_documented_exit(["table1", "--seed", "5", "--out", str(out)] + flags) == want


@pytest.mark.parametrize("flags", [["--reps", "1"], ["--seed", "-1"]])
def test_table1_refused_by_its_configs_creates_no_directory(tmp_path, capsys, flags):
    # the output directory used to be made before the configs were checked
    out = tmp_path / "out"
    assert main(["table1", "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_WORKERS = _mostly(st.just("1"), st.sampled_from(["0", "-1", "x"]))


@st.composite
def invocations(draw):
    """An argv of any subcommand, drawn from the strategies above with paths
    relative to the working directory, and the input files it reads."""
    command = draw(st.sampled_from(["simulate", "estimate", "variance", "experiment", "table1"]))
    files = {}
    if command == "simulate":
        model = draw(_mostly(st.sampled_from(list(_MODEL_PARAMS)), st.just("bogus")))
        flag = _PARAM_FLAGS.get(model)
        argv = ["simulate", "--model", model, "--n", draw(_mostly(st.just("100"), st.just("9")))]
        argv += [flag, draw(_UNIT_TEXT if flag != "--r" else st.sampled_from(["4", "1"]))] if flag else []
        argv += ["--out", draw(_mostly(st.just("x.csv"), st.just("no/x.csv")))]
    elif command == "estimate":
        lines = draw(_SERIES)
        if lines is not None:
            files["x.csv"] = "\n".join(lines) + "\n"
        argv = ["estimate", "--in", "x.csv", "--b", draw(_COUNT_TEXT), "--m-max", draw(_COUNT_TEXT),
                "--scale", draw(st.sampled_from(["z", "y", "w"]))]
    elif command == "variance":
        argv = ["variance", "--model", draw(st.sampled_from(["iid", "geometric"])), "--alpha", draw(_UNIT_TEXT),
                "--kind", draw(st.sampled_from(["db", "sb"])), "--m", draw(_mostly(st.just("1"), st.just("0"))),
                "--nodes", draw(_mostly(st.just("16"), st.just("7"))), "--no-refine"]
    elif command == "experiment":
        text = draw(_mostly(config_lines(), st.none()))
        if text is not None:
            files["exp.cfg"] = text
        argv = ["experiment", "--config", "exp.cfg", "--out-dir", "out/a", "--workers", draw(_WORKERS)]
    else:
        argv = ["table1", "--reps", draw(_mostly(st.just("2"), st.sampled_from(["1", "x"]))),
                "--seed", draw(_mostly(st.just("5"), st.just("-1"))), "--out", "out", "--workers", draw(_WORKERS)]
    return argv, files


def _listing():
    return sorted(str(path) for path in Path().rglob("*"))


@given(invocations())
@example((["table1", "--reps", "2", "--seed", "5", "--out", "out", "--workers", "0"], {}))
@settings(max_examples=60, deadline=None)
def test_a_refused_invocation_writes_nothing(tmp_path_factory, invocation):
    # table1 made its --out directory before it checked --workers
    argv, files = invocation
    cwd, home = tmp_path_factory.mktemp("cwd"), os.getcwd()
    os.chdir(cwd)
    try:
        for name, text in files.items():
            Path(name).write_text(text)
        before = _listing()
        if _assert_documented_exit(argv) == 1:
            assert _listing() == before
    finally:
        os.chdir(home)


def test_experiment_subcommand(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model_kind = iid_frechet\nn = 100\nreps = 2\n"
        "block_grid = 6, 8\nestimators = sb-z, db-z\nmaster_seed = 4\n"
    )
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path),
                 "--workers", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{tmp_path}/results.csv", f"{tmp_path}/mse.svg"]
    header = (tmp_path / "results.csv").read_text().splitlines()[0]
    assert header == "estimator,b,m,bias,variance,mse,mse_1e3,n_missing"
    assert (tmp_path / "mse.svg").read_text().startswith("<?xml")


def test_experiment_creates_missing_out_dir(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model_kind = iid_frechet\nn = 100\nreps = 2\n"
        "block_grid = 6\nestimators = sb-z\nmaster_seed = 4\n"
    )
    dest = tmp_path / "nested" / "results"
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(dest),
                 "--workers", "1"]) == 0
    capsys.readouterr()
    assert (dest / "results.csv").exists()


def test_experiment_refuses_an_out_dir_that_is_a_file_before_the_run(tmp_path, monkeypatch, capsys):
    # the directory was made only after the whole Monte Carlo run
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model_kind = iid_frechet\nn = 100\nreps = 2\nblock_grid = 6\n")
    out = tmp_path / "results.csv"
    out.write_text("")

    def no_run(*args, **kwargs):
        raise AssertionError("run() was called")

    monkeypatch.setattr(cli, "run", no_run)
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(out), "--workers", "1"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == ""


def test_table1_subcommand(tmp_path, capsys):
    assert main(["table1", "--reps", "2", "--seed", "1", "--out", str(tmp_path),
                 "--workers", "1"]) == 0
    out = capsys.readouterr().out
    table = (tmp_path / "table1.csv").read_text()
    assert out == table
    lines = table.splitlines()
    assert lines[0] == "model,estimator,b,min_mse_1e3"
    assert len(lines) == 1 + 3 * 7
    for kind in ("armax", "sqarch", "ar_uniform"):
        assert (tmp_path / f"{kind}.csv").exists()
