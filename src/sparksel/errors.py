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
``check_value`` holds the one rule both apply, and the one message: the
value must be of its kind, a float must be finite, then it must pass
its range check, else the error reads "<key>: <problem> (got <value>)".
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


def is_binary(v) -> bool:
    """True when every entry of the array ``v`` equals 0 or 1."""
    return bool(((v == 0) | (v == 1)).all())


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


def between(lo, hi):
    return lambda v: None if lo <= v <= hi else "must lie in [%s, %s]" % (lo, hi)


def positive(v):
    return None if v > 0 else "must be > 0"


def choice(*options):
    return lambda v: None if v in options else "must be one of %s" % (options,)


def setting(default=MISSING, key=None, check=None):
    """Dataclass field carrying its config ``key`` (None when no config
    key sets it) and range ``check`` in the field metadata."""
    return field(default=default, metadata={"key": key, "check": check})


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def check_value(name: str, kind: str, check, value, error=ConfigError) -> None:
    """Raise ``error`` as "<name>: <problem> (got <value>)" unless
    ``value`` is of ``kind`` ("int", "float", "bool", "str", or
    "int_list"/"str_list" for a list of them; a bool only of "bool",
    though it is an int), is finite if a float, and passes its range
    ``check``."""
    base, is_list, _ = kind.partition("_list")
    items = value if is_list else [value]
    if not isinstance(items, list) or not all(
        isinstance(v, _KINDS[base]) and isinstance(v, bool) == (base == "bool") for v in items
    ):
        msg = "wrong type, want %s" % kind
    # the exact comparison also rejects NaN and ints past a float's range
    elif kind == "float" and not abs(value) <= sys.float_info.max:
        msg = "must be finite"
    else:
        msg = check(value) if check is not None else None
    if msg:
        raise error("%s: %s (got %r)" % (name, msg, value))


def check_fields(obj, error=ConfigError) -> None:
    """Raise ``error`` naming the first ``setting`` field of dataclass
    ``obj`` whose value breaks ``check_value`` for its annotated kind;
    other fields are not checked."""
    for f in fields(obj):
        if "check" in f.metadata:
            check_value(f.name, f.type, f.metadata["check"], getattr(obj, f.name), error)
