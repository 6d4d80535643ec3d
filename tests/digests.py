"""SHA-256 digests of the float64 bytes of the estimator outputs.

``python tests/digests.py`` (with ``src`` on ``PYTHONPATH``) writes
``tests/data/estimator_digests.json``; ``test_digests.py`` recomputes the
digests and compares them with that file, so any output moved by one bit
fails it.  Each digest covers one group of outputs, fed to the hash in a
fixed order:

- ``run_rep/<model>/seed<s>/m<m_max>``: one Monte Carlo replication
  (``experiments._run_rep``, default block grid, all seven estimators) at
  m_max 5, 8 and 12;
- ``pbar_hat/<model>/seed<s>/<raw|tied>/<mode>/<scale>``: ``values``,
  ``counts`` and ``pair_count`` at every default block size;
- ``<hsing|ferro|robert>/<model>/seed<s>/<raw|tied>``: the estimate at
  every default block size (Robert's also at m_max 8 and 12).

A tied series keeps two significant digits of the raw one.  The bits also
belong to numpy and the BLAS it calls, so the file holds for the numpy
recorded in it, the version CI pins.
"""
import hashlib
import json
import os

import numpy as np

from exclust.blocks import Sample
from exclust.competitors import CompetitorSpec, ferro_pi, hsing_pi, robert_pi
from exclust.errors import DegenerateEstimateError
from exclust.estimators import pbar_hat
from exclust.experiments import DEFAULT_GRID, ExperimentConfig, _run_rep
from exclust.simulate import ModelSpec, gen

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "estimator_digests.json")
MODELS = (("armax", 0.5), ("sqarch", 0.5), ("ar_uniform", 4), ("iid_frechet", None))
SEEDS = (1, 2)
M_MAX = (5, 8, 12)
N = 2000


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"degenerate" if a is None else np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _values(estimate, *args):
    try:
        return estimate(*args).values
    except DegenerateEstimateError:
        return None


def _series(kind, param, seed):
    x = gen(ModelSpec(kind, N, param, seed=seed))
    yield "raw", x
    yield "tied", np.array([float(f"{v:.1e}") for v in x.tolist()])


def digests():
    """The digest of every output group, keyed by its name."""
    out = {}
    for kind, param in MODELS:
        for seed in SEEDS:
            for m_max in M_MAX:
                config = ExperimentConfig(kind, param, reps=2, m_max=m_max, master_seed=seed,
                                          truth_pi=(0.0,) * m_max)
                out[f"run_rep/{kind}/seed{seed}/m{m_max}"] = _digest([_run_rep((config, 0))])
            for label, x in _series(kind, param, seed):
                x = Sample(x)
                key = f"{kind}/seed{seed}/{label}"
                for mode in ("disjoint", "sliding"):
                    for scale in ("z", "y"):
                        arrays = []
                        for b in DEFAULT_GRID:
                            est = pbar_hat(x, b, mode, scale)
                            arrays += [est.values, est.counts, est.pair_count]
                        out[f"pbar_hat/{key}/{mode}/{scale}"] = _digest(arrays)
                out[f"hsing/{key}"] = _digest([_values(hsing_pi, x, b) for b in DEFAULT_GRID])
                out[f"ferro/{key}"] = _digest([_values(ferro_pi, x, b) for b in DEFAULT_GRID])
                out[f"robert/{key}"] = _digest([
                    _values(robert_pi, x, CompetitorSpec("robert", b, m_max))
                    for m_max in M_MAX for b in DEFAULT_GRID
                ])
    return out


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        json.dump({"numpy": np.__version__, "digests": digests()}, fh, indent=1, sort_keys=True)
        fh.write("\n")
