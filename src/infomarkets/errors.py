"""Exception types, and the config checks: :func:`read_config`, through which
:mod:`infomarkets.cli` reads every entry of every file and config format
and ``run_experiment`` its parameters, and the :func:`check_type` it runs."""
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


#: the scalar config types :func:`check_type` knows, as JSON names them
_SCALAR_TYPES = {
    "number": lambda x: isinstance(x, numbers.Real) and not isinstance(x, bool),
    "integer": lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool),
    "string": lambda x: isinstance(x, str),
    "object": lambda x: isinstance(x, dict),
    # anything but null: an entry its own reader checks and names
    "value": lambda x: x is not None,
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


def read_config(what: str, cfg, fields: dict) -> dict:
    """The entries of the config object ``cfg``, named ``what``, by key, with
    the default of every optional key that ``cfg`` lacks.

    ``fields`` maps each accepted key to its config type (see
    :func:`check_type`), or to ``(type, default)`` if the key is optional.
    The first of these faults is a ValueError naming it: ``cfg`` is not an
    object; keys outside ``fields`` (all named); a missing required key; a
    value of the wrong type (the first in ``fields`` order for both).
    """
    check_type(what, None, cfg, "object")
    unknown = sorted(set(cfg) - set(fields))
    if unknown:
        raise ValueError(f"{what}: unknown key(s) {unknown}; accepted: {sorted(fields)}")
    missing = [key for key, field in fields.items() if isinstance(field, str) and key not in cfg]
    if missing:
        raise ValueError(f"{what}: missing key {missing[0]!r}")
    out = {}
    for key, field in fields.items():
        kind, default = (field, None) if isinstance(field, str) else field
        out[key] = check_type(what, key, cfg[key], kind) if key in cfg else default
    return out
