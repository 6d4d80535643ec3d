"""The checks of block size, count cap, counts and reals that every module shares."""

import math
import numbers
from contextlib import suppress


def _integral(name, value):
    """Return ``value`` as an int; it must be a finite integral number and
    not a bool, which would otherwise pass as 0 or 1.  An int of any size
    passes here, where a float conversion would overflow."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)
    ):
        raise ValueError(f"{name}={value} is not an integer")
    return int(value)


def _finite(name, value):
    """``value`` as a float; it must be a finite real number and not a bool
    (an int too large for a float is not finite)."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        with suppress(OverflowError):
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def check_block_size(n, b):
    """Return b as an int; b must be integral with 2 <= b <= n/2 (two blocks)."""
    b = _integral("block size b", b)
    if not 2 <= b <= n // 2:
        raise ValueError(f"block size b={b} out of range for n={n}: need 2 <= b <= n/2")
    return b


def check_count(name, value, low):
    """Return ``value`` as an int; it must be integral and >= ``low``."""
    value = _integral(name, value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def check_m_max(m_max, n=None):
    """Return the count cap m_max as an int; m_max must be integral and >= 1,
    and at most the sample size n when one is given: no block holds more
    exceedances, and an estimate carries one value per count."""
    m_max = check_count("m_max", m_max, 1)
    if n is not None and m_max > n:
        raise ValueError(f"m_max={m_max} exceeds the sample size n={n}")
    return m_max

