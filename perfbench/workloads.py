"""The benchmark's workloads and the layer map of its traced run.

A workload builds the inputs of one round from an input seed (``setup``),
makes its timed public calls on them (``round``), turns the raw outputs into
comparable values outside the timed region (``summarize``) and compares them
with the references recorded by ``make_refs.py`` (``check``).  A round returns
``{operation: output}``; an operation that raised maps to a :class:`Failure`.
Every operation that raised or whose output differs from its reference is a
failed operation.

Why these workloads:

- ``mc-table1`` is the study users run (``exclust table1``); the sliding
  ``pbar_hat`` dominates it and ``asymptotics`` is never called, so a
  quadrature change must leave it unchanged.
- ``long-series`` is one long series at a single block size: per-call
  overhead and any caching across the block grid drop out, while the costs
  that grow with n, and the memory of the disjoint k x k x b tensor, dominate.
- ``variance`` runs only ``asymptotics`` and ``cpmodel``; the iid model is a
  single quadrature panel and the geometric one has 34, so a change that
  resizes panels moves the geometric timings and leaves iid unchanged.
"""

import contextlib
import hashlib
import io
import os
import time

import numpy as np

from exclust import asymptotics, cli, competitors, cpmodel, estimators, experiments, simulate
from exclust.asymptotics import QuadratureSpec

# Round i of a run with --seed s uses input seed (s + i) mod POOL; refs.json
# holds the reference outputs for each of them.
POOL = 16

M_MAX = 5


def input_seed(seed, index):
    return (seed + index) % POOL


class Failure:
    """Stands for the output of an operation that raised."""

    def __init__(self, exc):
        self.error = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Failure({self.error!r})"


def call(out, op, fn, *args):
    """``out[op] = fn(*args)``, or a :class:`Failure` if it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # a failed operation is counted, not fatal
        result = Failure(exc)
    out[op] = result
    return result


def _exact_failures(summary, ref):
    return [
        op for op, value in summary.items()
        if isinstance(value, Failure) or value != ref.get(op)
    ]


def _sha256(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


class McTable1:
    """``exclust table1`` in process: armax 0.5, sqarch 0.5 and ar_uniform 4
    at n=2000 over the default 17-size block grid, all 7 estimators, one
    worker.  The input seed is the master seed."""

    name = "mc-table1"
    seeded = True
    MODEL_FILES = ("armax.csv", "sqarch.csv", "ar_uniform.csv")
    FILES = MODEL_FILES + ("table1.csv",)

    def __init__(self, workdir, reps=2):
        self.workdir = workdir
        self.reps = reps

    def setup(self, seed, tracer=None):
        os.makedirs(self.workdir, exist_ok=True)
        for name in self.FILES:  # a round that writes nothing must not pass
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.workdir, name))
        return ["table1", "--reps", str(self.reps), "--seed", str(seed),
                "--out", self.workdir, "--workers", "1"]

    def round(self, argv, span):
        out = {}
        with contextlib.redirect_stdout(io.StringIO()):
            call(out, "table1", cli.main, argv)
        return out

    def summarize(self, argv, raw):
        status = raw["table1"]
        if isinstance(status, Failure):
            return {"table1": status}
        digests = {name: _sha256(os.path.join(self.workdir, name)) for name in self.FILES}
        return {"table1": {"exit": status, **digests}}

    def check(self, summary, ref):
        return _exact_failures(summary, ref)

    def round_counts(self):
        """NaN cells and all cells of the model CSVs just written (n_missing
        column; each row covers ``reps`` cells)."""
        missing = cells = 0
        for name in self.MODEL_FILES:
            path = os.path.join(self.workdir, name)
            if not os.path.exists(path):
                continue
            with open(path) as fh:
                rows = fh.read().splitlines()[1:]
            missing += sum(int(row.rsplit(",", 1)[1]) for row in rows)
            cells += self.reps * len(rows)
        return {"experiments.missing": missing, "experiments.cells": cells}

    def oracle_input(self, seed):
        """First 400 points of the armax series of replication 0."""
        spec = simulate.ModelSpec("armax", 2000, 0.5, 1000, simulate.substream_seed(seed, 0))
        return simulate.gen(spec)[:400], 10


class LongSeries:
    """One armax(0.5) series of length n at block size b: fit and theta for
    disjoint/sliding x z/y, then the three competitors."""

    name = "long-series"
    seeded = True

    def __init__(self, n=50_000, b=20):
        self.n = n
        self.b = b

    def setup(self, seed, tracer=None):
        return simulate.gen(simulate.ModelSpec("armax", self.n, 0.5, 1000, seed))

    def round(self, x, span):
        out = {}
        for mode in ("disjoint", "sliding"):
            for scale in ("z", "y"):
                key = f"{mode}-{scale}"
                est = estimators.ClusterSizeEstimator(self.b, mode=mode, scale=scale, m_max=M_MAX)
                fitted = call(out, key + ".fit", est.fit, x)
                call(out, key + ".theta", lambda: fitted.theta())
        call(out, "hsing_pi", competitors.hsing_pi, x, self.b, M_MAX)
        call(out, "ferro_pi", competitors.ferro_pi, x, self.b, M_MAX)
        spec = competitors.CompetitorSpec("robert", b=self.b, m_max=M_MAX)
        call(out, "robert_pi", competitors.robert_pi, x, spec)
        return out

    def summarize(self, x, raw):
        summary = {}
        for op, value in raw.items():
            if isinstance(value, Failure) or op.endswith(".theta"):
                summary[op] = value
            elif op.endswith(".fit"):
                summary[op] = {"pi": value.pi_.values.tolist(), "theta": value.theta_}
            else:
                summary[op] = value.values.tolist()
        return summary

    def check(self, summary, ref):
        return _exact_failures(summary, ref)

    def round_counts(self):
        return {}

    def oracle_input(self, seed):
        return self.setup(seed)[:400], self.b


def _models():
    return {
        "iid": cpmodel.iid_model(),
        "geometric": cpmodel.CppModel(0.5, cpmodel.geometric_pi(0.5), cpmodel.max_ar_family(0.5)),
    }


def _close(value, ref, atol, rtol=0.0):
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    return value.shape == ref.shape and bool(np.all(np.abs(value - ref) <= atol + rtol * np.abs(ref)))


class Variance:
    """sigma_db and sigma_sb at m, each followed by recursion_matrix, gamma
    and theta_asymp_var, for the iid and the geometric (alpha 0.5) models.
    The models are fixed, so the inputs do not depend on the seed.  The
    geometric sigma_sb runs at 24 nodes: the default spec takes minutes."""

    name = "variance"
    seeded = False

    def __init__(self, m=3, quads=None):
        self.m = m
        self.quads = quads or {
            ("iid", "db"): QuadratureSpec(),
            ("iid", "sb"): QuadratureSpec(),
            ("geometric", "db"): QuadratureSpec(),
            ("geometric", "sb"): QuadratureSpec(nodes_1d=24),
        }
        j = np.arange(1, m + 1)
        self._denoms = {
            label: float(np.sum(j * model.pi.weights[1 : m + 1]))
            for label, model in _models().items()
        }

    def setup(self, seed, tracer=None):
        models = _models()
        if tracer is not None:  # count pi2 evaluations from outside the program
            for label, model in models.items():
                family = cpmodel.BivariatePmfFamily(
                    tracer.counting(model.pi2.evaluator, "cpmodel.pi2_evals"),
                    model.pi2.breakpoints,
                )
                models[label] = cpmodel.CppModel(model.theta, model.pi, family)
        return models

    def round(self, models, span):
        out = {}
        for (label, kind), quad in self.quads.items():
            model, key = models[label], f"{label}.{kind}"
            with span(f"asymptotics.sigma_{kind}.{label}"):
                evaluate = asymptotics.sigma_db if kind == "db" else asymptotics.sigma_sb
                sigma = call(out, key + ".sigma", evaluate, model, self.m, quad)
            with span("asymptotics.propagate"):
                pbar = call(out, key + ".pbar_theory", cpmodel.pbar_theory, model, self.m)
                A = call(out, key + ".recursion_matrix", asymptotics.recursion_matrix,
                         model.pi, pbar, self.m)
                gam = call(out, key + ".gamma", asymptotics.gamma, sigma, A)
                call(out, key + ".theta_asymp_var", asymptotics.theta_asymp_var, gam, model.pi)
        return out

    def summarize(self, models, raw):
        summary = {}
        for op, value in raw.items():
            if isinstance(value, (Failure, float)):
                summary[op] = value
            elif op.endswith(".pbar_theory"):
                summary[op] = value.weights.tolist()
            elif op.endswith(".recursion_matrix"):
                summary[op] = value.tolist()
            else:
                summary[op] = value.entries.tolist()
        return summary

    def check(self, summary, ref):
        """Quadrature outputs within the spec's tolerance, propagated through
        A (|A d A^T| <= tol * max-row-sum(|A|)^2) and theta's weights; the
        exact recursions to 1e-12.  iid d(1,1) must be 5/108 within 1e-4."""
        failed = [op for op, value in summary.items() if isinstance(value, Failure)]
        for (label, kind), quad in self.quads.items():
            key = f"{label}.{kind}"
            A = ref.get(key + ".recursion_matrix")
            if A is None:
                failed += [op for op in summary if op.startswith(key + ".")]
                continue
            tol_gamma = quad.tolerance * float(np.max(np.sum(np.abs(A), axis=1))) ** 2
            tol_theta = tol_gamma * (self.m * (self.m + 1) / 2) ** 2 / self._denoms[label] ** 4
            bounds = {
                "sigma": (quad.tolerance, 0.0),
                "pbar_theory": (1e-15, 1e-12),
                "recursion_matrix": (1e-15, 1e-12),
                "gamma": (tol_gamma, 0.0),
                "theta_asymp_var": (tol_theta, 0.0),
            }
            for step, (atol, rtol) in bounds.items():
                op = f"{key}.{step}"
                value = summary.get(op)
                if isinstance(value, Failure) or op not in ref or not _close(value, ref[op], atol, rtol):
                    failed.append(op)
        iid_db = summary.get("iid.db.sigma")
        if isinstance(iid_db, list) and abs(iid_db[0][0] - 5 / 108) > 1e-4:
            failed.append("iid.db.sigma")
        return sorted(set(failed))

    def round_counts(self):
        return {}

    def oracle_input(self, seed):
        return None


def make(name, workdir):
    """The full-size workload ``name``; ``workdir`` receives the CSVs."""
    if name == "mc-table1":
        return McTable1(workdir)
    if name == "long-series":
        return LongSeries()
    if name == "variance":
        return Variance()
    raise ValueError(f"unknown workload {name!r}")


def sliding_oracle(x, b, m_max=M_MAX):
    """Operations of the seed-independent check: sliding ``pbar_hat`` counts
    on ``x`` against the histogram of the naive pair enumeration.  Returns
    ``(attempted, failed)``."""
    ops = [f"oracle.sliding-{scale}" for scale in ("z", "y")]
    failed = []
    for op, scale in zip(ops, ("z", "y")):
        est = estimators.pbar_hat(x, b, mode="sliding", scale=scale, m_max=m_max)
        series = x if scale == "z" else estimators.ranks(x)
        maxima = estimators.sliding_maxima(series, b)
        thresholds = maxima if scale == "z" else 1.0 + np.log(maxima)
        hist = estimators.sliding_pair_naive(x, b, thresholds, m_max, scale=scale).sum(axis=0)
        if est.pair_count != hist.sum() or not np.array_equal(est.counts, hist[1 : m_max + 1]):
            failed.append(op)
    return ops, failed


# ---------------------------------------------------------------------------
# traced run: span names, patches and per-layer metrics
# ---------------------------------------------------------------------------

ROOTS = ("setup", "round")

SPAN_LAYERS = (
    "simulate.gen",
    "blocks.sliding_maxima",
    "blocks.ranks",
    "estimators.pbar_hat.sliding",
    "estimators.pbar_hat.disjoint",
    "estimators.pi_from_pbar",
    "estimators.theta",
    "competitors.hsing_pi",
    "competitors.ferro_pi",
    "competitors.robert_pi",
    "experiments.run",
    "experiments.write_csv",
    "asymptotics.sigma_db.iid",
    "asymptotics.sigma_db.geometric",
    "asymptotics.sigma_sb.iid",
    "asymptotics.sigma_sb.geometric",
    "asymptotics.propagate",
    "cpmodel.pbar_theory",
)

COMPETITORS = ("hsing_pi", "ferro_pi", "robert_pi")

_MC, _LS, _VAR = "mc-table1", "long-series", "variance"

# name: (unit, better, the end-to-end metric it should move, on which workload).
# Times and counts are per round; every ratio names its base.
LAYER_METRICS = {
    "simulate.gen.self_s": ("s", "lower", f"{_MC} wall_s; {_LS} setup_s"),
    "blocks.sliding_maxima.self_s": ("s", "lower", f"wall_s on {_MC} and {_LS}"),
    "blocks.ranks.self_s": ("s", "lower", f"wall_s on {_MC} and {_LS}"),
    "estimators.pbar_hat.sliding.self_s": ("s", "lower", f"wall_s on {_MC} and {_LS}"),
    "estimators.pbar_hat.disjoint.self_s": (
        "s", "lower", f"wall_s on {_MC} and {_LS}; {_LS} peak_rss_mb"),
    "estimators.pbar_hat.calls": ("count", "lower", f"wall_s on {_MC} and {_LS}"),
    "estimators.pairs": ("count", "lower", f"wall_s on {_MC} and {_LS}; sum of pair_count"),
    "estimators.pbar_hat.sliding.ns_per_pair": (
        "ns", "lower", f"wall_s on {_MC} and {_LS}; sliding self time / sliding pairs"),
    "estimators.pi_from_pbar.self_s": ("s", "lower", f"{_MC} wall_s"),
    "estimators.theta.self_s": ("s", "lower", f"{_MC} wall_s (theta_hat; called on {_LS})"),
    "competitors.hsing_pi.self_s": ("s", "lower", f"{_MC} wall_s"),
    "competitors.ferro_pi.self_s": ("s", "lower", f"{_MC} wall_s"),
    "competitors.robert_pi.self_s": ("s", "lower", f"{_MC} wall_s"),
    "competitors.degenerate": ("count", "lower", f"{_MC} wall_s; DegenerateEstimateError raised"),
    "competitors.hsing_pi.degenerate": ("count", "lower", f"{_MC} wall_s"),
    "competitors.ferro_pi.degenerate": ("count", "lower", f"{_MC} wall_s"),
    "competitors.robert_pi.degenerate": ("count", "lower", f"{_MC} wall_s"),
    "experiments.run.self_s": ("s", "lower", f"{_MC} wall_s; fold and orchestration"),
    "experiments.write_csv.self_s": ("s", "lower", f"{_MC} wall_s"),
    "experiments.missing_ratio": (
        "ratio", "lower", f"none: must never move; NaN cells / cells of the {_MC} CSVs"),
    "asymptotics.sigma_db.iid.self_s": ("s", "lower", f"{_VAR} wall_s"),
    "asymptotics.sigma_db.geometric.self_s": ("s", "lower", f"{_VAR} wall_s"),
    "asymptotics.sigma_sb.iid.self_s": ("s", "lower", f"{_VAR} wall_s"),
    "asymptotics.sigma_sb.geometric.self_s": ("s", "lower", f"{_VAR} wall_s"),
    "asymptotics.propagate.self_s": ("s", "lower", f"{_VAR} wall_s"),
    "cpmodel.pi2_evals": ("count", "lower", f"{_VAR} wall_s"),
    "cpmodel.pbar_theory.self_s": ("s", "lower", f"{_VAR} wall_s"),
    "trace.wall_s": ("s", "lower", "none: traced time of the roots (round and its setup)"),
    "trace.root.self_s": ("s", "lower", "none: root time outside every layer span"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced round time / untraced round time"),
    "fail_ratio": ("ratio", "lower", "all: failed operations / attempted operations"),
    "scaling.blocks.sliding_maxima.growth_10x": (
        "ratio", "lower", f"wall_s on {_MC} and {_LS}; time at n=2e4 / time at n=2e3, b=20"),
    "scaling.estimators.pbar_hat.sliding.growth_10x": (
        "ratio", "lower", f"wall_s on {_MC} and {_LS}; time at n=2e4 / time at n=2e3, b=20"),
    "scaling.estimators.pbar_hat.disjoint.growth_10x": (
        "ratio", "lower", f"{_LS} wall_s and peak_rss_mb; time at n=2e4 / time at n=2e3, b=20"),
}


def layer_patches(tracer):
    """Span recorders for the public functions, installed in the module
    namespaces where their callers look them up."""

    def pbar_name(x, b, mode="sliding", *args, **kwargs):
        return "estimators.pbar_hat." + mode

    def count_pairs(tr, label, est):
        tr.counts["estimators.pairs"] += est.pair_count
        tr.counts[label + ".pairs"] += est.pair_count

    gen = tracer.wrap(simulate.gen, "simulate.gen")
    pbar = tracer.wrap(estimators.pbar_hat, pbar_name, count_pairs)
    pi = tracer.wrap(estimators.pi_from_pbar, "estimators.pi_from_pbar")
    pbar_theory = tracer.wrap(cpmodel.pbar_theory, "cpmodel.pbar_theory")
    targets = [
        (experiments, "gen", gen),
        (simulate, "gen", gen),
        (estimators, "sliding_maxima", tracer.wrap(estimators.sliding_maxima, "blocks.sliding_maxima")),
        (estimators, "ranks", tracer.wrap(estimators.ranks, "blocks.ranks")),
        (experiments, "pbar_hat", pbar),
        (estimators, "pbar_hat", pbar),
        (experiments, "pi_from_pbar", pi),
        (estimators, "pi_from_pbar", pi),
        (estimators, "theta_hat", tracer.wrap(estimators.theta_hat, "estimators.theta")),
        (cli, "run", tracer.wrap(experiments.run, "experiments.run")),
        (cli, "write_csv", tracer.wrap(experiments.write_csv, "experiments.write_csv")),
        (asymptotics, "pbar_theory", pbar_theory),
        (cpmodel, "pbar_theory", pbar_theory),
    ]
    for name in COMPETITORS:
        traced = tracer.wrap(getattr(competitors, name), "competitors." + name)
        targets += [(experiments, name, traced), (competitors, name, traced)]
    return targets


def layer_metrics(tracer, rounds):
    """Per-round self times and counts of a traced run of ``rounds`` rounds.

    Checks that the layer self times plus the roots' self time add up to the
    traced time of the roots.
    """
    own = tracer.self_times()
    unnamed = set(own) - set(SPAN_LAYERS) - set(ROOTS)
    if unnamed:
        raise RuntimeError(f"spans without a metric: {sorted(unnamed)}")
    counts = tracer.counts
    metrics = {f"{name}.self_s": own.get(name, 0.0) / rounds for name in SPAN_LAYERS}
    metrics["trace.root.self_s"] = sum(own.get(name, 0.0) for name in ROOTS) / rounds
    metrics["trace.wall_s"] = tracer.root_time() / rounds
    layered = sum(metrics[f"{name}.self_s"] for name in SPAN_LAYERS)
    residual = metrics["trace.wall_s"] - layered - metrics["trace.root.self_s"]
    if abs(residual) > 1e-9 * max(metrics["trace.wall_s"], 1e-3):
        raise RuntimeError(f"self times do not add up to the traced time: residual {residual}")

    pbar_calls = sum(counts[f"estimators.pbar_hat.{mode}.calls"] for mode in ("sliding", "disjoint"))
    metrics["estimators.pbar_hat.calls"] = pbar_calls / rounds
    metrics["estimators.pairs"] = counts["estimators.pairs"] / rounds
    sliding_pairs = counts["estimators.pbar_hat.sliding.pairs"]
    metrics["estimators.pbar_hat.sliding.ns_per_pair"] = (
        1e9 * own.get("estimators.pbar_hat.sliding", 0.0) / sliding_pairs if sliding_pairs else 0.0
    )
    for name in COMPETITORS:
        raised = counts[f"competitors.{name}.raised.DegenerateEstimateError"]
        metrics[f"competitors.{name}.degenerate"] = raised / rounds
    metrics["competitors.degenerate"] = sum(
        metrics[f"competitors.{name}.degenerate"] for name in COMPETITORS
    )
    cells = counts["experiments.cells"]
    metrics["experiments.missing_ratio"] = counts["experiments.missing"] / cells if cells else 0.0
    metrics["cpmodel.pi2_evals"] = counts["cpmodel.pi2_evals"] / rounds
    return metrics


SCALING_LAYERS = {
    "blocks.sliding_maxima": lambda x, b: estimators.sliding_maxima(x, b),
    "estimators.pbar_hat.sliding": lambda x, b: estimators.pbar_hat(x, b, mode="sliding"),
    "estimators.pbar_hat.disjoint": lambda x, b: estimators.pbar_hat(x, b, mode="disjoint"),
}


def scaling_probe(seed, sizes, b=20):
    """Median seconds per call of each scaling layer on an armax(0.5) series
    of each length in ``sizes``: at least 3 calls, more while they total
    under 0.2 s.  Returns ``{layer: {n: seconds}}``."""
    times = {layer: {} for layer in SCALING_LAYERS}
    for n in sizes:
        x = simulate.gen(simulate.ModelSpec("armax", n, 0.5, 1000, seed))
        for layer, fn in SCALING_LAYERS.items():
            samples = []
            while len(samples) < 3 or (sum(samples) < 0.2 and len(samples) < 50):
                t0 = time.perf_counter()
                fn(x, b)
                samples.append(time.perf_counter() - t0)
            times[layer][n] = float(np.median(samples))
    return times
