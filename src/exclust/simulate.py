"""Seeded generators for the reference time-series models.

Four stationary models with known extremal behaviour:

- ``armax``: X_s = max(alpha X_{s-1}, (1-alpha) Z_s), standard Frechet
  innovations; extremal index 1 - alpha, geometric cluster sizes.
- ``sqarch``: X_s = (2e-5 + lambda X_{s-1}) Z_s^2, standard normal
  innovations (a squared ARCH(1) process).
- ``ar_uniform``: X_s = X_{s-1} / r + Z_s with Z_s uniform on
  {0, 1/r, ..., (r-1)/r}; stationary Uniform(0, 1) marginal.
- ``iid_frechet``: independent standard Frechet draws.

Generation is a pure function of the spec; replications get independent
streams through a stateless seed-mixing hash.
"""
from __future__ import annotations

from dataclasses import dataclass
import numbers

import numpy as np

from .base import check_count
from .errors import FieldError

__all__ = ["ModelSpec", "gen", "substream_seed"]

KINDS = ("armax", "sqarch", "ar_uniform", "iid_frechet")

_MASK64 = (1 << 64) - 1
MAX_LENGTH = int(np.iinfo(np.intp).max)  # no array holds more entries


@dataclass(frozen=True)
class ModelSpec:
    """A model kind with its single parameter, length, burn-in and seed."""

    kind: str
    n: int
    param: float | None = None
    burnin: int = 1000
    seed: int = 0

    def __post_init__(self):
        """Check every field, raising a :class:`FieldError` that names it;
        the counts are stored as ints."""
        if self.kind not in KINDS:
            raise FieldError("kind", f"kind must be one of {KINDS}, got {self.kind!r}")
        for name, low in (("n", 10), ("burnin", 0), ("seed", 0)):
            try:
                object.__setattr__(self, name, check_count(name, getattr(self, name), low))
            except ValueError as err:
                raise FieldError(name, str(err)) from None
        if self.n > MAX_LENGTH:
            raise FieldError("n", f"n must be at most {MAX_LENGTH}, got {self.n}")
        if self.burnin > MAX_LENGTH - self.n:  # n + burnin values are generated
            raise FieldError("burnin", f"burnin must be at most {MAX_LENGTH} - n, got {self.burnin}")
        if self.seed > _MASK64:
            raise FieldError("seed", "seed must fit in 64 unsigned bits")
        if self.param is not None and (
            isinstance(self.param, bool) or not isinstance(self.param, numbers.Real)
        ):
            raise FieldError("param", f"param must be a real number, got {self.param!r}")
        if self.kind == "armax":
            if self.param is None or not 0.0 <= self.param < 1.0:
                raise FieldError("param", f"armax needs alpha in [0, 1), got {self.param}")
        elif self.kind == "sqarch":
            if self.param is None or not 0.0 < self.param < 1.0:
                raise FieldError("param", f"sqarch needs lambda in (0, 1), got {self.param}")
        elif self.kind == "ar_uniform":
            r = self.param
            if r is None or not (isinstance(r, numbers.Integral) or float(r).is_integer()) or r < 2:
                raise FieldError("param", f"ar_uniform needs integer r >= 2, got {self.param}")
        elif self.param is not None:
            raise FieldError("param", "iid_frechet takes no parameter")


def _frechet(rng, size):
    # X = -1/log(U) has P(X <= x) = exp(-1/x)
    return -1.0 / np.log(rng.random(size))


def _gen_armax(rng, alpha, total):
    z = _frechet(rng, total + 1)  # z[0] doubles as the start value X_0
    if alpha == 0.0:
        return z[1:]
    # log X_s = max_j {(s-j) log(alpha) + c_j}: a running maximum after
    # tilting by -s log(alpha), all in log space to avoid overflow
    c = np.log(z)
    c[1:] += np.log1p(-alpha)
    la = np.log(alpha)
    tilt = la * np.arange(total + 1)
    return np.exp(np.maximum.accumulate(c - tilt) + tilt)[1:]


def _gen_sqarch(rng, lam, total):
    z2 = rng.standard_normal(total + 1) ** 2
    out = np.empty(total)
    x = 1e-4 * z2[0]
    for s in range(total):
        x = (2e-5 + lam * x) * z2[s + 1]
        out[s] = x
    return out


def _gen_ar(rng, r, total):
    r = int(r)
    z = rng.integers(0, r, size=total) / r
    out = np.empty(total)
    x = rng.random() / r
    for s in range(total):
        x = z[s] + x
        out[s] = x
        # multiply by the rounded 1/r rather than divide by r: this is the
        # recursion scipy.signal.lfilter runs, so the output matches it bit for bit
        x *= 1.0 / r
    return out


def gen(spec):
    """Generate the sample described by `spec`; same spec, same sample."""
    rng = np.random.default_rng(spec.seed)
    total = spec.burnin + spec.n
    if spec.kind == "armax":
        x = _gen_armax(rng, spec.param, total)
    elif spec.kind == "iid_frechet":
        x = _gen_armax(rng, 0.0, total)
    elif spec.kind == "sqarch":
        x = _gen_sqarch(rng, spec.param, total)
    else:
        x = _gen_ar(rng, spec.param, total)
    return x[spec.burnin :]


def substream_seed(master, rep_index):
    """Stateless 64-bit seed for replication `rep_index` of stream `master`.

    An avalanche mix (splitmix-style multiply-xorshift rounds) of the pair,
    so distinct indices give unrelated streams and results do not depend on
    call order.
    """
    if rep_index < 0:
        raise ValueError(f"rep_index must be >= 0, got {rep_index}")
    if not 0 <= int(master) <= _MASK64:
        raise ValueError("master seed must fit in 64 unsigned bits")
    z = (int(master) + 0x9E3779B97F4A7C15 * (rep_index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)
