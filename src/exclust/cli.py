"""Command-line interface.

Subcommands: simulate (write a sample), estimate (cluster sizes from a
file), variance (limit covariance matrices), experiment (Monte Carlo run
from a config file), table1 (minimal-MSE summary across the reference
models).  Exit codes: 0 success, 1 usage error, 2 numeric or degenerate
failure, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import QuadratureSpec, gamma, recursion_matrix, sigma_db, sigma_sb, theta_asymp_var
from .base import _finite
from .cpmodel import CppModel, geometric_pi, iid_model, max_ar_family, pbar_theory
from .errors import DegenerateEstimateError, NumericFailureError
from .estimators import pbar_hat, pi_from_pbar, theta_hat
from .experiments import ExperimentConfig, read_config, run, write_csv, render_svg
from .simulate import ModelSpec, gen

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        try:  # argparse takes -1e-05 and -inf for option names (-5 and -.5 for values)
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None  # a number, whose range the command checks


def _formatter(prog):
    # pinned width so help output is terminal-independent
    return argparse.HelpFormatter(prog, width=80)


def _build_parser():
    parser = _Parser(
        prog="exclust",
        description="Cluster size distributions and the extremal index "
        "from block maxima.",
        formatter_class=_formatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser(
        "simulate",
        help="generate a sample from a reference model",
        formatter_class=_formatter,
    )
    p.add_argument(
        "--model",
        required=True,
        choices=["armax", "sqarch", "ar_uniform", "iid_frechet"],
        help="model kind",
    )
    p.add_argument("--alpha", type=float, help="armax parameter in [0, 1)")
    p.add_argument(
        "--lambda", dest="lam", type=float, help="sqarch parameter in (0, 1)"
    )
    p.add_argument("--r", type=int, help="ar_uniform integer parameter >= 2")
    p.add_argument("--n", type=int, default=2000, help="sample length")
    p.add_argument("--burnin", type=int, default=1000, help="discarded prefix length")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed")
    p.add_argument("--out", required=True, help="output file, one value per line")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "estimate",
        help="estimate cluster sizes and the extremal index from a file",
        formatter_class=_formatter,
    )
    p.add_argument("--in", dest="inp", required=True, help="input series file")
    p.add_argument(
        "--mode", choices=["disjoint", "sliding"], default="sliding", help="block scheme"
    )
    p.add_argument(
        "--scale", choices=["z", "y"], default="z", help="threshold comparison scale"
    )
    p.add_argument("--b", type=int, required=True, help="block size")
    p.add_argument("--m-max", type=int, default=5, help="largest cluster size reported")
    p.add_argument(
        "--clip", action="store_true", help="clip negative cluster probabilities to 0"
    )
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "variance",
        help="evaluate limit covariance matrices for a reference model",
        formatter_class=_formatter,
    )
    p.add_argument(
        "--model",
        choices=["iid", "geometric"],
        default="iid",
        help="limit model (geometric uses the max-autoregressive cluster family)",
    )
    p.add_argument("--alpha", type=float, default=0.5, help="geometric parameter in [0, 1)")
    p.add_argument(
        "--kind", choices=["db", "sb"], required=True, help="block scheme of the limit"
    )
    p.add_argument("--m", type=int, default=1, help="matrix dimension")
    p.add_argument("--nodes", type=int, default=64, help="quadrature nodes per axis")
    p.add_argument(
        "--no-refine", action="store_true", help="skip the node-doubling check"
    )
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser(
        "experiment",
        help="run a Monte Carlo experiment from a key=value config file",
        formatter_class=_formatter,
    )
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--out-dir", default=".", help="directory for CSV and SVG output")
    p.add_argument("--workers", type=int, default=None, help="worker processes")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "table1",
        help="minimal-MSE table over the three reference models",
        formatter_class=_formatter,
    )
    p.add_argument("--reps", type=int, default=100, help="Monte Carlo replications")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=None, help="worker processes")
    p.set_defaults(func=_cmd_table1)
    return parser


def _model_param(args):
    if args.model == "armax":
        if args.alpha is None:
            raise _UsageError("armax requires --alpha")
        return args.alpha
    if args.model == "sqarch":
        if args.lam is None:
            raise _UsageError("sqarch requires --lambda")
        return args.lam
    if args.model == "ar_uniform":
        if args.r is None:
            raise _UsageError("ar_uniform requires --r")
        return args.r
    return None


def _cmd_simulate(args):
    x = gen(
        ModelSpec(args.model, args.n, _model_param(args), args.burnin, args.seed)
    )
    with open(args.out, "w", newline="\n") as fh:
        for v in x:
            fh.write(f"{v:.17g}\n")
    return 0


def _read_series(path):
    """One finite value per line ('#' comments skipped); a bad one is reported as ``path:line: ...``."""
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(_finite("value", float(line)))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return np.asarray(values)


def _cmd_estimate(args):
    x = _read_series(args.inp)
    pb = pbar_hat(x, args.b, mode=args.mode, scale=args.scale, m_max=args.m_max)
    pi = pi_from_pbar(pb, clip=args.clip)
    print("stat,m,value")
    for m in range(1, args.m_max + 1):
        print(f"pbar,{m},{pb.values[m - 1]:.10g}")
    for m in range(1, args.m_max + 1):
        print(f"pi,{m},{pi.values[m - 1]:.10g}")
    try:
        theta = theta_hat(pi)
    except DegenerateEstimateError as e:
        print(f"theta,{args.m_max},nan")
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"theta,{args.m_max},{theta:.10g}")
    return 0


def _cmd_variance(args):
    if args.model == "iid":
        model = iid_model()
    else:
        pi = geometric_pi(args.alpha)
        model = CppModel(theta=1.0 - args.alpha, pi=pi, pi2=max_ar_family(args.alpha))
    quad = QuadratureSpec(nodes_1d=args.nodes, refinement=not args.no_refine)
    evaluate = sigma_db if args.kind == "db" else sigma_sb
    sigma = evaluate(model, args.m, quad)
    A = recursion_matrix(model.pi, pbar_theory(model, args.m), args.m)
    gam = gamma(sigma, A)
    print("matrix,j,jp,value")
    for name, cov in (("sigma", sigma), ("gamma", gam)):
        for j in range(1, args.m + 1):
            for jp in range(1, args.m + 1):
                print(f"{name},{j},{jp},{cov.entries[j - 1, jp - 1]:.10g}")
    tvar = theta_asymp_var(gam, model.pi)
    print(f"theta_var,{args.m},{args.m},{tvar:.10g}")
    return 0


def _cmd_experiment(args):
    config = read_config(args.config)
    table = run(config, workers=args.workers)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = f"{args.out_dir}/results.csv"
    svg_path = f"{args.out_dir}/mse.svg"
    write_csv(table, csv_path)
    render_svg(table, "mse", svg_path)
    print(csv_path)
    print(svg_path)
    return 0


_TABLE1_MODELS = (
    ("armax", 0.5),
    ("sqarch", 0.5),
    ("ar_uniform", 4),
)


def _cmd_table1(args):
    os.makedirs(args.out, exist_ok=True)
    lines = ["model,estimator,b,min_mse_1e3"]
    for kind, param in _TABLE1_MODELS:
        config = ExperimentConfig(
            kind, param, reps=args.reps, master_seed=args.seed
        )
        table = run(config, workers=args.workers)
        write_csv(table, f"{args.out}/{kind}.csv")
        for est in config.estimators:
            row = table.min_mse(est, 1)
            lines.append(f"{kind},{est},{row.b},{row.mse_1e3:.10g}")
    out = "\n".join(lines) + "\n"
    with open(f"{args.out}/table1.csv", "w", newline="\n") as fh:
        fh.write(out)
    print(out, end="")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help and --version exit through here
        return int(e.code or 0)
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DegenerateEstimateError, NumericFailureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
