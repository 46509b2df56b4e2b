"""Exception types and the range checks shared across the package.

The command line maps the exceptions to exit codes: ConfigError -> 1,
DataError -> 2, InvariantError -> 3.

A range check maps a value to an error message, or to None when the
value is acceptable.  ``setting`` attaches a check and a config key to
a dataclass field, so the field is the one place that defines the
key's name, default, kind (its annotation) and range; ``check_fields``
applies the checks and ``config.REGISTRY`` is derived from the same
fields (``data.SynthSpec``, ``selection.SelectionConfig`` and
``swarm.SwarmConfig``).  ``check_value`` is the one place both apply
them: every float setting must also be finite.
"""

import math
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


def check_value(kind: str, check, value):
    """Error message for a setting of ``kind`` ("float", "int", ...), or
    None: a float must be finite, then pass its range ``check``."""
    if kind == "float" and not math.isfinite(value):
        return "must be finite"
    return check(value) if check is not None else None


def check_fields(obj, error=ConfigError) -> None:
    """Raise ``error`` naming the first field of dataclass ``obj`` whose
    value breaks ``check_value`` for its annotated kind."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        msg = check_value(f.type, f.metadata.get("check"), value)
        if msg:
            raise error("%s: %s (got %r)" % (f.name, msg, value))
