"""Exception types and the range checks shared across the package.

The command line maps the exceptions to exit codes: ConfigError -> 1,
DataError -> 2, InvariantError -> 3.

A range check maps a value to an error message, or to None when the
value is acceptable.  ``setting`` attaches a check and a config key to
a dataclass field, so the field is the one place that defines the
key's name, default, kind (its annotation) and range; ``check_fields``
applies the checks and ``config.REGISTRY`` is derived from the same
fields (``data.SynthSpec``, ``ippg.PulseSpec``,
``selection.SelectionConfig`` and ``swarm.SwarmConfig``).
``check_value`` holds the one rule both apply: the value must be of
its kind, a float must be finite, then it must pass its range check.
"""

import numbers
import sys
from dataclasses import MISSING, field, fields


class ConfigError(Exception):
    """Bad configuration: unknown key, wrong type, out-of-range value."""


class DataError(Exception):
    """Bad input data: malformed CSV, invalid labels, corrupt frame file."""


class InvariantError(Exception):
    """An internal consistency check failed; indicates a bug, not bad input."""


def fraction(lo, hi, lo_open=True, hi_open=True):
    def check(v):
        ok_lo = v > lo if lo_open else v >= lo
        ok_hi = v < hi if hi_open else v <= hi
        if not (ok_lo and ok_hi):
            return "must lie in %s%g, %g%s" % (
                "(" if lo_open else "[", lo, hi, ")" if hi_open else "]"
            )
        return None

    return check


def at_least(n):
    return lambda v: None if v >= n else "must be >= %s" % n


def positive(v):
    return None if v > 0 else "must be > 0"


def choice(*options):
    return lambda v: None if v in options else "must be one of %s" % (options,)


def setting(default=MISSING, key=None, check=None):
    """Dataclass field carrying its config ``key`` (None when no config
    key sets it) and range ``check`` in the field metadata."""
    return field(default=default, metadata={"key": key, "check": check})


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def check_value(kind: str, check, value):
    """Error message for a setting of ``kind`` ("int", "float", "bool",
    "str", or "int_list"/"str_list" for a list of them), or None.  The
    value must be of the kind (a bool only of "bool", though it is an
    int), a float must be finite, then it must pass its range ``check``."""
    base, is_list, _ = kind.partition("_list")
    items = value if is_list else [value]
    if not isinstance(items, list) or not all(
        isinstance(v, _KINDS[base]) and isinstance(v, bool) == (base == "bool") for v in items
    ):
        return "wrong type, want %s" % kind
    # the exact comparison also rejects NaN and ints past a float's range
    if kind == "float" and not abs(value) <= sys.float_info.max:
        return "must be finite"
    return check(value) if check is not None else None


def check_fields(obj, error=ConfigError) -> None:
    """Raise ``error`` naming the first ``setting`` field of dataclass
    ``obj`` whose value breaks ``check_value`` for its annotated kind;
    other fields are not checked."""
    for f in fields(obj):
        if "check" not in f.metadata:
            continue
        value = getattr(obj, f.name)
        msg = check_value(f.type, f.metadata["check"], value)
        if msg:
            raise error("%s: %s (got %r)" % (f.name, msg, value))
