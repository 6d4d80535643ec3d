"""Monte Carlo benchmarking of the cluster size estimators.

Runs N replications of (simulate, estimate over a block-size grid) for a
configurable set of estimators and summarizes bias, variance and MSE of
pi-hat(m) against the model's known limit values.  A replication validates
and sorts its series once, as one :class:`~exclust.blocks.Sample` read by
every (estimator, b) cell; it keeps one tops table per block layout,
which serves both threshold scales, and the sliding one grows along the
block grid.  Replications are pure functions of a mixed per-rep seed and
are folded in rep order, so results are byte-identical for any worker
count.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .base import _finite, _integral, check_block_size, check_count, check_m_max
from .blocks import Sample
from .competitors import CompetitorSpec, check_block_rule, ferro_pi, hsing_pi, robert_pi
from .cpmodel import geometric_pi
from .errors import DegenerateEstimateError, FieldError
from .estimators import pbar_hat, pi_from_pbar
from .simulate import MAX_LENGTH, ModelSpec, gen, substream_seed

__all__ = [
    "ESTIMATORS",
    "ExperimentConfig",
    "SummaryRow",
    "SummaryTable",
    "run",
    "write_csv",
    "render_svg",
    "read_config",
]


def _blocks_estimator(mode, scale):
    return lambda x, b, m_max: pi_from_pbar(pbar_hat(x, b, mode=mode, scale=scale, m_max=m_max)).values


# name: (pi(1..m_max) from a Sample at block size b, plot colour); the
# estimators are looked up in this module at call time, so patches reach them
_TABLE = {
    "db-z": (_blocks_estimator("disjoint", "z"), "#1f77b4"),
    "db-y": (_blocks_estimator("disjoint", "y"), "#aec7e8"),
    "sb-z": (_blocks_estimator("sliding", "z"), "#d62728"),
    "sb-y": (_blocks_estimator("sliding", "y"), "#ff9896"),
    "hsing": (lambda x, b, m_max: hsing_pi(x, b, m_max).values, "#2ca02c"),
    "ferro": (lambda x, b, m_max: ferro_pi(x, b, m_max).values, "#9467bd"),
    "robert": (lambda x, b, m_max: robert_pi(x, CompetitorSpec("robert", b, m_max)).values, "#8c564b"),
}
ESTIMATORS = tuple(_TABLE)

DEFAULT_GRID = tuple(range(6, 40, 2))

# limit values of pi(1..5) for the fixed reference parameters; armax
# truths come from geometric_pi for any alpha
_FIXED_TRUTH = {
    ("sqarch", 0.5): (0.751, 0.168, 0.055, 0.014, 0.008),
    ("ar_uniform", 4): (0.75, 0.1875, 0.0469, 0.0117, 0.0029),
}


# ModelSpec fields under their config names
_SPEC_FIELDS = {"kind": "model_kind", "param": "model_param", "seed": "master_seed"}


@contextmanager
def _field(name):
    """Raise a ValueError of the block as a :class:`FieldError` of config
    field ``name``; one that names a ModelSpec field keeps it."""
    try:
        yield
    except FieldError as err:
        raise FieldError(_SPEC_FIELDS.get(err.field, err.field), str(err)) from None
    except ValueError as err:
        raise FieldError(name, str(err)) from None


def _sequence(name, value):
    """``value`` as a tuple; a string or a scalar is refused by name."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a sequence, got {value!r}")


def _unique(name, values):
    """Refuse a repeated entry, which would run and be summarized once per copy."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{name} repeats {repeated}")


@dataclass(frozen=True)
class ExperimentConfig:
    model_kind: str
    model_param: float | None = None
    n: int = 2000
    reps: int = 500
    block_grid: tuple = DEFAULT_GRID
    estimators: tuple = ESTIMATORS
    m_max: int = 5
    master_seed: int = 0
    burnin: int = 1000
    truth_pi: tuple | None = None

    def __post_init__(self):
        """Check every field, so that a bad value fails here, raising a
        :class:`FieldError` that names it, and not halfway through a run."""
        for name in ("n", "reps", "burnin", "master_seed"):
            with _field(name):
                object.__setattr__(self, name, _integral(name, getattr(self, name)))
        with _field("master_seed"):
            seed = substream_seed(self.master_seed, 0)
        with _field("model_kind"):
            ModelSpec(self.model_kind, self.n, self.model_param, self.burnin, seed)
        with _field("reps"):
            if self.reps < 2:
                raise ValueError(f"reps must be >= 2, got {self.reps}")
            if self.reps > MAX_LENGTH:  # run() stacks one result per replication
                raise ValueError(f"reps must be at most {MAX_LENGTH}, got {self.reps}")
        with _field("m_max"):
            object.__setattr__(self, "m_max", check_m_max(self.m_max, self.n))
        for name in ("block_grid", "estimators"):
            with _field(name):
                object.__setattr__(self, name, _sequence(name, getattr(self, name)))
                if not getattr(self, name):
                    raise ValueError(f"{name} must not be empty")
        with _field("estimators"):
            unknown = [est for est in self.estimators if est not in ESTIMATORS]
            if unknown:
                raise ValueError(f"unknown estimators: {unknown}")
            _unique("estimators", self.estimators)
        with _field("block_grid"):
            grid = tuple(check_block_size(self.n, b) for b in self.block_grid)
            object.__setattr__(self, "block_grid", grid)
            _unique("block_grid", grid)
            odd = [b for b in grid if b % 2]
            if odd:
                raise ValueError(f"block sizes must be even, got {odd}")
            for est in self.estimators:
                for b in grid:
                    check_block_rule(est, self.n, b)
        with _field("truth_pi"):
            if self.truth_pi is not None:
                pi = _sequence("truth_pi", self.truth_pi)
                object.__setattr__(self, "truth_pi", tuple(_finite("truth_pi", v) for v in pi))
            self.truth()  # so a model without limit values fails before the first replication

    def truth(self):
        """pi(1..m_max), which the summaries are centered on."""
        if self.truth_pi is not None:
            pi = self.truth_pi
            if len(pi) < self.m_max:
                raise ValueError("truth_pi is shorter than m_max")
            return np.asarray(pi[: self.m_max])
        if self.model_kind in ("armax", "iid_frechet"):  # iid_frechet is armax at alpha = 0
            alpha = self.model_param if self.model_kind == "armax" else 0.0
            return geometric_pi(alpha, self.m_max).weights[1:]
        key = (self.model_kind, self.model_param)
        if key in _FIXED_TRUTH and self.m_max <= 5:
            return np.asarray(_FIXED_TRUTH[key][: self.m_max])
        raise ValueError(f"no stored limit values for {key}; supply truth_pi")


@dataclass(frozen=True)
class SummaryRow:
    estimator: str
    b: int
    m: int
    bias: float
    variance: float
    mse: float
    n_missing: int

    @property
    def mse_1e3(self):
        return 1e3 * self.mse


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple

    def min_mse(self, estimator, m):
        """Row with the smallest MSE over the block grid for (estimator, m)."""
        best = None
        for row in self.rows:
            if row.estimator != estimator or row.m != m or np.isnan(row.mse):
                continue
            if best is None or row.mse < best.mse:
                best = row
        if best is None:
            raise ValueError(f"no finite MSE rows for ({estimator}, m={m})")
        return best


def _run_rep(args):
    config, rep = args
    seed = substream_seed(config.master_seed, rep)
    x = Sample(gen(ModelSpec(config.model_kind, config.n, config.model_param, config.burnin, seed)))
    out = np.full((len(config.estimators), len(config.block_grid), config.m_max), np.nan)
    for ib, b in enumerate(config.block_grid):
        for ie, est in enumerate(config.estimators):
            try:
                out[ie, ib] = _TABLE[est][0](x, b, config.m_max)
            except DegenerateEstimateError:
                pass  # stays NaN; disclosed via n_missing
    return out


def run(config, workers=None):
    """Run in ``min(workers, reps)`` processes, one per CPU by default; the result does not depend on it."""
    workers = check_count("workers", (os.cpu_count() or 1) if workers is None else workers, 1)
    tasks = [(config, rep) for rep in range(config.reps)]
    if workers == 1:
        results = [_run_rep(t) for t in tasks]
    else:
        import multiprocessing  # here, not at module level: every start-up would pay for it
        with multiprocessing.Pool(min(workers, config.reps)) as pool:
            results = pool.map(_run_rep, tasks)
    # (est, b, m, reps): each cell's replications contiguous, reduced over the last axis
    stack = np.ascontiguousarray(np.moveaxis(np.stack(results), 0, -1))
    truth_pi = config.truth()
    n_missing = np.count_nonzero(np.isnan(stack), axis=-1)
    bias = np.mean(stack, axis=-1) - truth_pi
    variance = np.var(stack, axis=-1)
    mse = np.mean((stack - truth_pi[:, None]) ** 2, axis=-1)
    for cell in zip(*np.nonzero(n_missing)):  # over the replications that did not fail
        good = stack[cell][~np.isnan(stack[cell])]
        if good.size:  # else the cell stays NaN
            truth = truth_pi[cell[-1]]
            bias[cell] = np.mean(good) - truth
            variance[cell] = np.var(good)
            mse[cell] = np.mean((good - truth) ** 2)

    rows = []
    for ie, est in enumerate(config.estimators):
        for ib, b in enumerate(config.block_grid):
            for m in range(1, config.m_max + 1):
                cell = ie, ib, m - 1
                rows.append(SummaryRow(est, b, m, float(bias[cell]), float(variance[cell]),
                                       float(mse[cell]), int(n_missing[cell])))
    return SummaryTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def write_csv(table, destination):
    """Write the summary as CSV with 10-significant-digit floats."""
    if not table.rows:
        raise ValueError("summary table is empty; nothing to write")
    lines = ["estimator,b,m,bias,variance,mse,mse_1e3,n_missing"]
    for r in table.rows:
        lines.append(
            f"{r.estimator},{r.b},{r.m},{r.bias:.10g},{r.variance:.10g},"
            f"{r.mse:.10g},{r.mse_1e3:.10g},{r.n_missing}"
        )
    with open(destination, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_SVG_W = 720
_PANEL_H = 220
_MARGIN = 50


def _fmt(v):
    return f"{v:.6g}"


def render_svg(table, destination):
    """Line chart of MSE x 1000 against block size, one panel per m."""
    if not table.rows:
        raise ValueError("summary table is empty; nothing to render")
    ms = sorted({r.m for r in table.rows})
    ests = [e for e in ESTIMATORS if any(r.estimator == e for r in table.rows)]
    bs = sorted({r.b for r in table.rows})
    height = _MARGIN + len(ms) * _PANEL_H
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{height}" viewBox="0 0 {_SVG_W} {height}">',
        f'<text x="{_MARGIN}" y="20" font-family="sans-serif" font-size="14">'
        "mse x 1000 by block size</text>",
    ]
    for i, est in enumerate(ests):
        x0 = _MARGIN + 90 * i
        parts.append(
            f'<line x1="{x0}" y1="32" x2="{x0 + 18}" y2="32" '
            f'stroke="{_TABLE[est][1]}" stroke-width="2"/>'
            f'<text x="{x0 + 22}" y="36" font-family="sans-serif" '
            f'font-size="11">{est}</text>'
        )

    def xpos(b):
        if len(bs) == 1:
            return _SVG_W / 2
        return _MARGIN + (_SVG_W - 2 * _MARGIN) * (b - bs[0]) / (bs[-1] - bs[0])

    for panel, m in enumerate(ms):
        top = _MARGIN + panel * _PANEL_H
        plot_h = _PANEL_H - 60
        vals = [1e3 * r.mse for r in table.rows if r.m == m and not np.isnan(r.mse)]
        lo = min(vals + [0.0]) if vals else 0.0
        hi = max(vals + [1e-12]) if vals else 1.0
        span = hi - lo or 1.0

        def ypos(v):
            return top + 20 + plot_h * (hi - v) / span

        parts.append(
            f'<text x="{_MARGIN}" y="{top + 12}" font-family="sans-serif" '
            f'font-size="12">m = {m}</text>'
        )
        ax_y = top + 20 + plot_h
        parts.append(
            f'<line x1="{_MARGIN}" y1="{ax_y}" x2="{_SVG_W - _MARGIN}" '
            f'y2="{ax_y}" stroke="#999"/>'
        )
        for b in (bs[0], bs[-1]):
            parts.append(
                f'<text x="{_fmt(xpos(b))}" y="{ax_y + 14}" '
                f'font-family="sans-serif" font-size="10">{b}</text>'
            )
        for v in (hi, lo):
            parts.append(
                f'<text x="4" y="{_fmt(ypos(v) + 4)}" font-family="sans-serif" '
                f'font-size="10">{_fmt(v)}</text>'
            )
        for est in ests:
            pts = [
                (r.b, 1e3 * r.mse)
                for r in table.rows
                if r.estimator == est and r.m == m and not np.isnan(r.mse)
            ]
            if not pts:
                continue
            coords = " ".join(f"{_fmt(xpos(b))},{_fmt(ypos(v))}" for b, v in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{_TABLE[est][1]}" stroke-width="1.5"/>'
            )
    parts.append("</svg>")
    with open(destination, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_KIND_NAMES = {int: "an integer", float: "a number"}


def _parse(kind, text):
    """``kind(text)``, or a ValueError that says what was expected."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"expected {_KIND_NAMES[kind]}, got {text!r}") from None


def _items(value):
    return [v.strip() for v in value.split(",") if v.strip()]


# one parser per key, applied to the stripped text after '='
_PARSERS = {
    "model_kind": str,
    "estimators": lambda v: tuple(_items(v)),
    "block_grid": lambda v: tuple(_parse(int, t) for t in _items(v)),
    "truth_pi": lambda v: tuple(_parse(float, t) for t in _items(v)) if v else None,
    **dict.fromkeys(("n", "reps", "m_max", "master_seed", "burnin"), lambda v: _parse(int, v)),
    "model_param": lambda v: _parse(float, v) if v else None,
}


def read_config(path):
    """Parse a flat key=value file into an ExperimentConfig.

    Keys mirror the config field names exactly, each at most once; lists
    are comma-separated; blank lines and '#' comments are ignored.  A
    malformed line, or a value the config refuses, is reported as
    ``path:line: key: ...`` (``path: key: ...`` for a field the file left at
    its default).
    """
    kwargs, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in lines:
                raise ValueError(f"{path}:{lineno}: {key}: repeats the key set on line {lines[key]}")
            lines[key] = lineno
            try:
                kwargs[key] = _PARSERS[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    if "model_kind" not in kwargs:
        raise ValueError(f"{path}: missing required key model_kind")
    try:
        return ExperimentConfig(**kwargs)
    except FieldError as err:
        where = f"{path}:{lines[err.field]}" if err.field in lines else path
        raise ValueError(f"{where}: {err.field}: {err}") from None
