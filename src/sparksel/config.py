"""Experiment configuration: a flat, typed ``key = value`` text format.

One assignment per line; full-line comments start with ``#``; blank
lines are ignored.  Values are typed per key (int, float, bool,
string, or comma-separated lists), unknown and duplicate keys are
rejected, and every parse returns the complete effective map with
defaults filled.  Keys that set a dataclass field (``data.SynthSpec``,
``ippg.PulseSpec``, ``selection.SelectionConfig``,
``swarm.SwarmConfig``) are declared by that field; every value passes
``errors.check_value``, the one kind, finiteness and range rule.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .data import SynthSpec
from .errors import ConfigError, at_least, between, check_value, choice
from .ippg import PulseSpec
from .selection import SelectionConfig
from .swarm import ALGORITHMS, BENCHMARKS, SwarmConfig


@dataclass(frozen=True)
class KeySpec:
    kind: str  # int | float | bool | str | int_list | str_list
    default: object
    check: object = None  # (value) -> error message or None


def _seed_list(v):
    if not v:
        return "must name at least one seed"
    if any(s < 0 for s in v):
        return "seeds must be >= 0"
    if len(set(v)) < len(v):
        return "seeds must be distinct"
    return None


def _algorithm_list(v):
    if not v or len(set(v)) < len(v) or not set(v) <= set(ALGORITHMS):
        return "must name distinct algorithms among %s" % (ALGORITHMS,)
    return None


def _field_specs(*classes):
    """KeySpecs of the dataclass fields that name a config key: the
    field's default, range check and annotation (a string such as "int"
    under postponed evaluation, which is the KeySpec kind) are the only
    copy."""
    return {
        f.metadata["key"]: KeySpec(f.type, f.default, f.metadata["check"])
        for cls in classes
        for f in fields(cls)
        if f.metadata.get("key")
    }


REGISTRY = {
    "out_dir": KeySpec("str", ""),
    "seeds": KeySpec("int_list", [0], _seed_list),
    "threads": KeySpec("int", 1, choice(1)),  # single-threaded; kept so old configs parse
    "data.path": KeySpec("str", ""),
    **_field_specs(SynthSpec, SelectionConfig, SwarmConfig),
    "bench.function": KeySpec("str", "sphere", choice(*BENCHMARKS)),
    "bench.dimensions": KeySpec("int", 10, between(1, 10**4)),
    "bench.algorithms": KeySpec("str_list", ["ifa", "fa"], _algorithm_list),
    "skb.k": KeySpec("int", 0, at_least(0)),  # 0 means the lambda floor
    **_field_specs(PulseSpec),
    "ippg.fore_path": KeySpec("str", ""),
    "ippg.nose_path": KeySpec("str", ""),
    "ippg.emit_frames": KeySpec("bool", False),
    "compare.reference": KeySpec("str", ""),
    "compare.others": KeySpec("str_list", []),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated, defaults-filled key/value map."""

    values: dict

    def get(self, key):
        return self.values[key]

    def with_overrides(self, updates: dict) -> "ExperimentConfig":
        merged = dict(self.values)
        for key, value in updates.items():
            _validate(key, value)
            merged[key] = value
        return ExperimentConfig(values=merged)

    def field_values(self, cls) -> dict:
        """Keyword arguments for dataclass ``cls``: each field that names
        a config key takes that key's value."""
        return {
            f.name: self.values[f.metadata["key"]]
            for f in fields(cls)
            if f.metadata.get("key")
        }

    def echo(self) -> dict:
        """Config map for embedding in reports; ``threads``, which never
        affects results, is left out."""
        return {k: v for k, v in sorted(self.values.items()) if k != "threads"}


def default_config() -> ExperimentConfig:
    return ExperimentConfig(values={k: s.default for k, s in REGISTRY.items()})


def _validate(key, value):
    spec = REGISTRY.get(key)
    if spec is None:
        raise ConfigError("unknown key '%s'" % key)
    check_value(key, spec.kind, spec.check, value)


def _bool(text):
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


# each base kind's parser; a "<base>_list" value is comma-separated
_PARSERS = {"int": int, "float": float, "bool": _bool, "str": str}


def parse_value(key: str, text: str):
    """Typed value of ``text`` for registry ``key``, not yet range
    checked; ConfigError if it does not parse as the key's kind."""
    kind = REGISTRY[key].kind
    base, is_list, _ = kind.partition("_list")
    parse = _PARSERS[base]
    try:
        if is_list:
            return [parse(p.strip()) for p in text.split(",")] if text else []
        return parse(text)
    except ValueError as exc:
        raise ConfigError("%s: bad %s value %r (%s)" % (key, kind, text, exc)) from None


def parse_config(path) -> ExperimentConfig:
    """Read and validate a UTF-8 config file (a leading byte-order mark is
    skipped); every registry key gets its default unless the file assigns it."""
    values = default_config().values
    seen = set()
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                "%s line %d: expected 'key = value', got %r" % (path, lineno, stripped)
            )
        key, _, rest = stripped.partition("=")
        key = key.strip()
        rest = rest.strip()
        if key not in REGISTRY:
            raise ConfigError("%s line %d: unknown key '%s'" % (path, lineno, key))
        if key in seen:
            raise ConfigError("%s line %d: duplicate key '%s'" % (path, lineno, key))
        seen.add(key)
        value = parse_value(key, rest)
        _validate(key, value)
        values[key] = value
    return ExperimentConfig(values=values)
