"""Sliding block maxima and rank transforms.

These are the shared primitives behind every estimator in the package: a
series is cut into disjoint or sliding blocks, block maxima act as random
thresholds, and cluster sizes are read off as counts of strict exceedances
within other blocks.
"""

import numpy as np

from .base import as_sample, check_block_size

__all__ = ["sliding_maxima", "ranks"]


def sliding_maxima(x, b):
    """Maxima of all ``n - b + 1`` sliding windows of length ``b``.

    A reduction over a strided window view: O(n*b) comparisons and no copy
    of the windows; the result is exactly the per-window maximum
    (comparisons only, no arithmetic on the values).
    """
    x = as_sample(x)
    b = check_block_size(x.size, b)
    return np.lib.stride_tricks.sliding_window_view(x, b).max(axis=1)


def ranks(x):
    """Empirical c.d.f. values F_n(X_s) = #{t : X_t <= X_s} / n.

    Ties share the same value; the largest observation always maps to 1.
    """
    x = as_sample(x)
    return np.searchsorted(np.sort(x), x, side="right") / x.size

