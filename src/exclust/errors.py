"""Exception types shared across the package."""


class DegenerateEstimateError(RuntimeError):
    """An estimator produced no usable value (e.g. zero/negative denominator).

    Carries enough context to report the failure without re-running the
    estimator: ``detail`` is a short human-readable reason and ``value`` the
    offending quantity (denominator, cluster count, ...) when one exists.
    """

    def __init__(self, detail, value=None):
        super().__init__(detail if value is None else f"{detail} (value={value!r})")
        self.detail = detail
        self.value = value


class NumericFailureError(RuntimeError):
    """A numerical routine failed its accuracy contract.

    ``delta`` holds the observed refinement change that exceeded the
    tolerance, ``nodes`` the (coarse, fine) node counts it compared and
    ``entry`` the (j, j') counts of the entry that moved most (empty for a
    scalar).
    """

    def __init__(self, detail, delta=None, nodes=None, entry=()):
        where = [] if delta is None else [f"delta={delta:.3e}"]
        if entry:
            where.append(f"at (j, j') = {entry}")
        if nodes is not None:
            where.append(f"{nodes[0]} -> {nodes[1]} nodes")
        super().__init__(f"{detail} ({', '.join(where)})" if where else detail)
        self.detail = detail
        self.delta = delta
        self.nodes = nodes
        self.entry = entry


class FieldError(ValueError):
    """A value that fails validation; ``field`` names the field that holds it,
    so a config reader can point at the line that set it."""

    def __init__(self, field, detail):
        super().__init__(detail)
        self.field = field


class UnsupportedModelError(ValueError):
    """The requested computation needs model ingredients that are absent."""
