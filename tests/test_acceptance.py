"""Release gate: one test per acceptance criterion.

Each criterion is encoded at its stated tolerance, and the conftest
terminal-summary hook prints a PASS/FAIL line per test_criterion_* name
after the run.  Criteria 6 and 8 reuse the session-scoped Monte Carlo
fixtures; everything else is deterministic.
"""
import math

import numpy as np
import pytest

from exclust.asymptotics import (
    disjoint_process_var,
    gamma,
    recursion_matrix,
    robert_crossover,
    sliding_process_cov,
)
from exclust.blocks import ranks, sliding_maxima
from exclust.competitors import cpp_invert
from exclust.cpmodel import (
    CppModel,
    Pmf,
    cpp_pmf,
    geometric_pi,
    iid_model,
    pbar_theory,
)
from exclust.estimators import PbarEstimate, pbar_hat, pi_from_pbar, sliding_pair_naive
from exclust.experiments import ExperimentConfig, run, write_csv
from exclust.simulate import ModelSpec, gen

from conftest import MC_SEED
from oracles import pbar_integral_oracle

SQARCH_PI = (0.751, 0.168, 0.055, 0.014, 0.008)


def _geometric_model():
    from exclust.cpmodel import max_ar_family

    return CppModel(0.5, geometric_pi(0.5), max_ar_family(0.5))


def _wrap_pbar(values):
    values = np.asarray(values, dtype=float)
    return PbarEstimate(values=values, counts=np.zeros(values.size, dtype=np.int64), pair_count=1)


def test_criterion_1_closed_form_constants(iid_covs):
    model = iid_model()
    db, sb = iid_covs[1]
    assert abs(db.entries[0, 0] - 5 / 108) <= 1e-4

    A = recursion_matrix(model.pi, pbar_theory(model, 1), 1)
    assert abs(gamma(db, A).entries[0, 0] - 20 / 27) <= 4e-4
    assert abs(gamma(sb, A).entries[0, 0] - 0.3790) <= 5e-4

    assert abs(robert_crossover(20 / 27) - 0.7573) <= 1e-3


def test_criterion_2_process_variances():
    model = iid_model()
    assert abs(sliding_process_cov(model, 1.0, 1.0, 1, 1) - 0.1182) <= 1e-4
    assert abs(sliding_process_cov(model, 1.0, 1.0, 2, 2) - 0.0800) <= 1e-4

    e1 = math.exp(-1.0)
    assert abs(disjoint_process_var(model, 1.0, 1) - e1 * (1 - e1)) <= 1e-6
    assert abs(disjoint_process_var(model, 1.0, 2) - e1 / 2 * (1 - e1 / 2)) <= 1e-6


def test_criterion_3_sweep_matches_naive_enumeration():
    rng = np.random.default_rng(20260401)
    for case in range(200):
        n = int(rng.integers(8, 301))
        if rng.random() < 0.5:
            x = rng.integers(0, 6, n).astype(float)
        else:
            x = rng.normal(scale=10.0, size=n)
        b = int(rng.integers(2, n // 2 + 1))
        m_max = int(rng.integers(1, 7))
        if case % 2 == 0:
            scale, thr = "z", sliding_maxima(x, b)
        else:
            scale, thr = "y", 1.0 + np.log(sliding_maxima(ranks(x), b))
        fast = pbar_hat(x, b, "sliding", scale, m_max)
        slow = sliding_pair_naive(x, b, thr, m_max, scale=scale).sum(axis=0)
        assert np.array_equal(fast.counts, slow[1 : m_max + 1]) and fast.pair_count == slow.sum()

    for _ in range(200):
        n = int(rng.integers(4, 301))
        x = rng.normal(size=n) if rng.random() < 0.5 else rng.integers(0, 4, n).astype(float)
        b = int(rng.integers(2, n // 2 + 1))
        naive = np.lib.stride_tricks.sliding_window_view(x, b).max(axis=1)
        assert np.array_equal(sliding_maxima(x, b), naive)


def test_criterion_4_recursion_round_trip():
    for pi_true in ((1.0,), tuple(geometric_pi(0.5).weights[1:9]), SQARCH_PI):
        model = CppModel(0.5, Pmf(np.concatenate(([0.0], pi_true))))
        pb = pbar_theory(model, len(pi_true)).weights[1:]
        rec = pi_from_pbar(_wrap_pbar(pb)).values
        assert np.max(np.abs(rec - np.asarray(pi_true))) <= 1e-12

    for model in (iid_model(), _geometric_model()):
        theory = pbar_theory(model, 5).weights[1:]
        oracle = pbar_integral_oracle(model, 5).weights[1:]
        assert np.max(np.abs(oracle - theory)) <= 1e-8

    model = CppModel(0.7, geometric_pi(0.5))
    for tau in (0.7, 1.0, 1.3):
        p = cpp_pmf(model, tau, 5).weights
        theta, pi_rec = cpp_invert(p, tau)
        assert abs(theta - 0.7) <= 1e-12
        assert np.max(np.abs(pi_rec - model.pi.weights[1:6])) <= 1e-12


def test_criterion_5_loewner_ordering(iid_covs):
    for m in (1, 2, 3):
        db, sb = iid_covs[m]
        gap = np.linalg.eigvalsh(db.entries - sb.entries).min()
        assert gap >= -1e-6


def test_criterion_6_simulation_study(mc_tables):
    targets = {("armax", "sb-z"): 2.642, ("armax", "sb-y"): 1.650,
               ("sqarch", "sb-y"): 1.860}
    for (kind, est), ref in targets.items():
        got = mc_tables[kind].min_mse(est, 1).mse_1e3
        assert ref / 2 <= got <= ref * 2

    for kind in ("armax", "sqarch", "ar_uniform"):
        table = mc_tables[kind]
        for scale in ("z", "y"):
            sb = table.min_mse(f"sb-{scale}", 1).mse
            db = table.min_mse(f"db-{scale}", 1).mse
            assert sb <= 1.1 * db


def test_criterion_7_marginal_sanity():
    x = gen(ModelSpec("armax", 100_000, 0.5, seed=MC_SEED))
    assert abs(np.mean(x <= 1.0) - math.exp(-1.0)) <= 0.01

    x = gen(ModelSpec("ar_uniform", 100_000, 4, seed=MC_SEED))
    assert abs(x.mean() - 0.5) <= 0.01


def test_criterion_8_worker_count_determinism(tmp_path):
    cfg = ExperimentConfig("armax", 0.5, n=300, reps=6, block_grid=(6, 8),
                           estimators=("sb-z", "db-y", "ferro"), master_seed=77)
    paths = []
    for workers in (1, 4):
        table = run(cfg, workers=workers)
        out = tmp_path / f"w{workers}.csv"
        write_csv(table, str(out))
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
