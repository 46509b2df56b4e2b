"""Experiment configuration: a flat, typed ``key = value`` text format.

One assignment per line; full-line comments start with ``#``; blank
lines are ignored.  Values are typed per key (int, float, bool,
string, or comma-separated lists), unknown and duplicate keys are
rejected, and every parse returns the complete effective map with
defaults filled, so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass, fields

from .errors import ConfigError, at_least, check_value, choice, fraction, positive
from .selection import SelectionConfig
from .swarm import SwarmConfig

_KEY_RE = re.compile(r"^[a-z][a-z0-9_.]*$")


@dataclass(frozen=True)
class KeySpec:
    kind: str  # int | float | bool | str | int_list | str_list
    default: object
    check: object = None  # (value) -> error message or None
    help: str = ""


def _seed_list(v):
    if not v:
        return "must name at least one seed"
    if any(s < 0 for s in v):
        return "seeds must be >= 0"
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
    "out_dir": KeySpec("str", "", help="output directory; empty defers to env/cwd"),
    "seeds": KeySpec("int_list", [0], _seed_list, "run seeds"),
    "threads": KeySpec("int", 1, choice(1), "evaluation runs on one thread; only 1"),
    "data.path": KeySpec("str", "", help="CSV dataset; empty switches to synthesis"),
    "synth.n_samples": KeySpec("int", 200, at_least(4)),
    "synth.d_informative": KeySpec("int", 5, at_least(1)),
    "synth.d_noise": KeySpec("int", 20, at_least(0)),
    "synth.class_imbalance": KeySpec("float", 0.17, fraction(0, 1)),
    "synth.noise_sigma": KeySpec("float", 1.0, at_least(0)),
    **_field_specs(SelectionConfig, SwarmConfig),
    "bench.function": KeySpec("str", "sphere", choice("sphere", "rastrigin")),
    "bench.dimensions": KeySpec("int", 10, at_least(1)),
    "bench.algorithms": KeySpec("str_list", ["ifa", "fa"]),
    "skb.k": KeySpec("int", 0, at_least(0), "0 means the lambda floor"),
    "ippg.fps": KeySpec("int", 25, at_least(1)),
    "ippg.duration_s": KeySpec("float", 30.0, positive),
    "ippg.height": KeySpec("int", 8, at_least(1)),
    "ippg.width": KeySpec("int", 8, at_least(1)),
    "ippg.hr_hz": KeySpec("float", 1.2, positive),
    "ippg.rr_hz": KeySpec("float", 0.25, positive),
    "ippg.hr_amp": KeySpec("float", 2.0, at_least(0)),
    "ippg.rr_amp": KeySpec("float", 1.0, at_least(0)),
    "ippg.noise_std": KeySpec("float", 2.0, at_least(0)),
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

    def echo(self, exclude=("threads",)) -> dict:
        """Config map for embedding in reports; runtime-only keys that
        never affect results are left out."""
        return {k: v for k, v in sorted(self.values.items()) if k not in exclude}


def default_config() -> ExperimentConfig:
    return ExperimentConfig(values={k: s.default for k, s in REGISTRY.items()})


_KIND_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def _is_kind(kind: str, value) -> bool:
    if kind.endswith("_list"):
        return isinstance(value, list) and all(_is_kind(kind[:-5], v) for v in value)
    if isinstance(value, bool):  # an int subclass, but only bool keys take it
        return kind == "bool"
    return isinstance(value, _KIND_TYPES[kind])


def _validate(key, value):
    spec = REGISTRY.get(key)
    if spec is None:
        raise ConfigError("unknown key '%s'" % key)
    if not _is_kind(spec.kind, value):
        raise ConfigError("%s: wrong type, want %s (got %r)" % (key, spec.kind, value))
    msg = check_value(spec.kind, spec.check, value)
    if msg:
        raise ConfigError("%s: %s (got %r)" % (key, msg, value))


def _parse_value(key: str, spec: KeySpec, text: str):
    try:
        if spec.kind == "int":
            return int(text)
        if spec.kind == "float":
            return float(text)
        if spec.kind == "bool":
            if text == "true":
                return True
            if text == "false":
                return False
            raise ValueError("expected true or false")
        if spec.kind == "str":
            return text
        if spec.kind == "int_list":
            return [int(p.strip()) for p in text.split(",")] if text else []
        if spec.kind == "str_list":
            return [p.strip() for p in text.split(",")] if text else []
    except ValueError as exc:
        raise ConfigError("%s: bad %s value %r (%s)" % (key, spec.kind, text, exc)) from None
    raise ConfigError("%s: unhandled kind %s" % (key, spec.kind))


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file; every registry key gets its
    default unless the file assigns it."""
    values = {k: s.default for k, s in REGISTRY.items()}
    seen = set()
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
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
            if not _KEY_RE.match(key):
                raise ConfigError("%s line %d: malformed key %r" % (path, lineno, key))
            if key not in REGISTRY:
                raise ConfigError("%s line %d: unknown key '%s'" % (path, lineno, key))
            if key in seen:
                raise ConfigError("%s line %d: duplicate key '%s'" % (path, lineno, key))
            seen.add(key)
            value = _parse_value(key, REGISTRY[key], rest)
            _validate(key, value)
            values[key] = value
    return ExperimentConfig(values=values)


def _format_value(spec: KeySpec, value) -> str:
    if spec.kind == "bool":
        return "true" if value else "false"
    if spec.kind == "float":
        return repr(float(value))
    if spec.kind in ("int_list", "str_list"):
        return ",".join(str(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render the full effective config; parsing the output reproduces
    ``cfg`` exactly (floats via repr round-trip)."""
    lines = []
    for key in sorted(cfg.values):
        lines.append("%s = %s" % (key, _format_value(REGISTRY[key], cfg.values[key])))
    return "\n".join(lines) + "\n"
