"""Exception types, and the config checks with which :mod:`infomarkets.cli`
parses every file and config format and ``run_experiment`` its parameters."""
import numbers


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


def require_keys(what: str, cfg: dict, required) -> None:
    """Raise ValueError naming the first key of ``required`` missing from
    ``cfg``, a dict that has passed :func:`reject_unknown_keys`."""
    for key in required:
        if key not in cfg:
            raise ValueError(f"{what}: missing key {key!r}")


#: the scalar config types :func:`check_type` knows, as JSON names them
_SCALAR_TYPES = {
    "number": lambda x: isinstance(x, numbers.Real) and not isinstance(x, bool),
    "integer": lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool),
    "string": lambda x: isinstance(x, str),
    "object": lambda x: isinstance(x, dict),
}


def _has_type(value, kind: str) -> bool:
    if " or " in kind:
        return any(_has_type(value, k) for k in kind.split(" or "))
    if kind.startswith("list of "):
        return isinstance(value, list) and all(_has_type(x, kind[8:]) for x in value)
    return _SCALAR_TYPES[kind](value)


def _describe(kind: str, plural: bool = False) -> str:
    if " or " in kind:
        return " or ".join(_describe(k, plural) for k in kind.split(" or "))
    if kind.startswith("list of "):
        return ("lists" if plural else "a list") + " of " + _describe(kind[8:], True)
    if plural:
        return kind + "s"
    return ("an " if kind[0] in "aeiou" else "a ") + kind


def check_type(what: str, key: str | None, value, kind: str):
    """Return ``value``, read for ``key`` of ``what`` (for ``what`` itself
    if ``key`` is None), if it has the config type ``kind``; else raise
    ValueError naming them.

    ``kind`` is a scalar type of ``_SCALAR_TYPES``, ``"list of <kind>"`` or
    ``"<kind> or <kind>"``: ``"list of list of number"``, say.  A bool is
    neither a number nor an integer.
    """
    if not _has_type(value, kind):
        where = what if key is None else f"{what}: {key!r}"
        raise ValueError(f"{where} must be {_describe(kind)}, got {value!r}")
    return value
