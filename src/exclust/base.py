"""Estimator base class and the checks of block size and count cap."""

import inspect
import math
import numbers


def _integral(name, value):
    """Return ``value`` as an int; it must be a finite integral number."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)):
        raise ValueError(f"{name}={value} is not an integer")
    return int(value)


def check_block_size(n, b):
    """Return b as an int; b must be integral with 2 <= b <= n/2 (two blocks)."""
    b = _integral("block size b", b)
    if not 2 <= b <= n // 2:
        raise ValueError(f"block size b={b} out of range for n={n}: need 2 <= b <= n/2")
    return b


def check_m_max(m_max):
    """Return the count cap m_max as an int; m_max must be integral and >= 1."""
    m_max = _integral("m_max", m_max)
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    return m_max


class FitMixin:
    """Minimal scikit-learn style parameter handling for estimator classes.

    Subclasses keep all constructor arguments as same-named attributes, so
    parameters can be introspected from the ``__init__`` signature.
    """

    def get_params(self, deep=True):
        names = [
            p.name
            for p in inspect.signature(type(self).__init__).parameters.values()
            if p.name != "self" and p.kind is not p.VAR_KEYWORD
        ]
        return {name: getattr(self, name) for name in names}

    def set_params(self, **params):
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"unknown parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def _check_fitted(self, attr):
        if not hasattr(self, attr):
            raise AttributeError(
                f"{type(self).__name__} instance is not fitted yet; call fit() first"
            )
