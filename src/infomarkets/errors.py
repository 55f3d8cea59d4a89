"""Exception types and the config-key check shared across the package."""


class CapacityError(RuntimeError):
    """Exact enumeration would exceed the tuple budget.

    Raised instead of silently grinding through huge signal spaces; the
    caller should fall back to the Monte Carlo estimator in
    :mod:`infomarkets.montecarlo`.
    """


class NumericalError(RuntimeError):
    """A root bracket could not be established or a quadrature failed."""


class ProtocolError(ValueError):
    """A report stream violates the one-report-per-agent rule."""


def reject_unknown_keys(what: str, cfg: dict, accepted) -> None:
    """Raise ValueError naming every key of ``cfg`` outside ``accepted``."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{what} must be an object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(accepted))
    if unknown:
        raise ValueError(f"{what}: unknown key(s) {unknown}; "
                         f"accepted: {sorted(accepted)}")
